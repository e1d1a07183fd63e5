//! Reusable load-generation plumbing over the `antlayer-client` crate:
//! deterministic workload builders (base graphs, request lines, random
//! edits), shared tallies, the in-process shard fixture, and the
//! interactive editing session.
//!
//! The socket code that used to live here — framing, retry-with-backoff,
//! the `base not found` → full-`layout` fallback — is now
//! `antlayer_client::Client`, the same typed client production callers
//! use. The `loadgen` binary drives these against a server or router;
//! the router regression tests drive the *same* code against a fleet
//! with a killed shard, so the client-side recovery path shipped to
//! users is itself under test.

use antlayer_client::{
    Client, ClientConfig, ClientError, Json, LayoutOptions, LiveConn, LiveEvent, Session, Transport,
};
use antlayer_graph::{generate, DiGraph, GraphDelta, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The request-shape knobs shared by every generated request.
#[derive(Clone, Debug)]
pub struct RequestProfile {
    /// Nodes per generated graph.
    pub n: usize,
    /// Colony ants.
    pub ants: usize,
    /// Colony tours.
    pub tours: usize,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Per-request retry allowance for `overloaded` rejections.
    pub retries: usize,
    /// Optional per-session (per-connection) lifetime cap on those
    /// retries: once a client has spent this many, later requests fail
    /// fast instead of backing off. `None` = unlimited (per-request
    /// allowance only).
    pub retry_budget: Option<u64>,
}

impl Default for RequestProfile {
    fn default() -> Self {
        RequestProfile {
            n: 60,
            ants: 8,
            tours: 8,
            deadline_ms: None,
            retries: 8,
            retry_budget: None,
        }
    }
}

impl RequestProfile {
    /// The typed client options for this profile at `seed`.
    pub fn options(&self, seed: u64) -> LayoutOptions {
        LayoutOptions {
            deadline_ms: self.deadline_ms,
            ..LayoutOptions::aco(seed, self.ants, self.tours)
        }
    }

    /// The client configuration this profile implies on `transport`.
    pub fn client_config(&self, transport: Transport) -> ClientConfig {
        ClientConfig {
            transport,
            retries: self.retries,
            retry_budget: self.retry_budget,
            ..Default::default()
        }
    }
}

/// Per-run tallies shared by all clients.
#[derive(Default)]
pub struct Tallies {
    /// Successful layout responses.
    pub good: AtomicU64,
    /// `overloaded` responses that were retried.
    pub retried: AtomicU64,
    /// Requests abandoned after exhausting retries.
    pub dropped: AtomicU64,
    /// `seeded:true` responses (warm starts observed on the wire).
    pub warm: AtomicU64,
    /// Edit-chain rebases after `base not found` (the client's automatic
    /// full-layout fallback firing).
    pub rebased: AtomicU64,
}

/// The deterministic per-seed base graph of the workload.
pub fn base_graph(p: &RequestProfile, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::random_dag_with_edges(p.n, p.n * 3 / 2, &mut rng).into_graph()
}

/// Builds a full-layout request line (v1 wire form) for the given graph
/// — for replayed-workload benches that need literal bytes; interactive
/// clients go through [`Client`] instead.
pub fn layout_line(p: &RequestProfile, seed: u64, g: &DiGraph) -> String {
    p.options(seed)
        .layout_request(g)
        .expect("profile options are valid")
        .encode_v1()
}

/// Builds a `layout_delta` request line (v1 wire form).
pub fn delta_line(
    p: &RequestProfile,
    seed: u64,
    base: &str,
    add: &[(u32, u32)],
    remove: &[(u32, u32)],
) -> String {
    p.options(seed)
        .delta_request(base, add, remove)
        .expect("profile options are valid")
        .encode_v1()
}

/// Edge-pair list, the shape `GraphDelta` speaks.
pub type EdgeList = Vec<(u32, u32)>;

/// Nearest-rank percentile of an already-sorted latency vector
/// (microseconds); 0 on empty input. Shared by `loadgen` and the
/// `experiments sharding` report so the binaries cannot disagree on
/// what "p99" means.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Spawns an in-process `antlayer serve` shard on a free loopback port
/// (`threads` = scheduler workers, `0` = all available). The fixture
/// every loopback topology — loadgen fleets, the sharding bench, the
/// router regression tests — boots its backends with. With `http`, the
/// shard additionally serves HTTP/1.1 on a second free port
/// (`handle.http_addr()`).
pub fn spawn_shard_with(threads: usize, http: bool) -> antlayer_service::ServerHandle {
    antlayer_service::Server::bind(antlayer_service::ServerConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: http.then(|| "127.0.0.1:0".to_string()),
        scheduler: antlayer_service::SchedulerConfig {
            threads,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback shard")
    .spawn()
    .expect("spawn shard")
}

/// [`spawn_shard_with`] without an HTTP listener.
pub fn spawn_shard(threads: usize) -> antlayer_service::ServerHandle {
    spawn_shard_with(threads, false)
}

/// Spawns a shard on an **explicit** address with a full scheduler
/// configuration — the fixture behind restart-style fault injection,
/// where a shard must come back on the same `host:port` (so routers and
/// probes find it again) with the same `cache_dir` (so the segment-log
/// replay proves durability).
pub fn spawn_shard_configured(
    addr: &str,
    scheduler: antlayer_service::SchedulerConfig,
) -> antlayer_service::ServerHandle {
    antlayer_service::Server::bind(antlayer_service::ServerConfig {
        addr: addr.into(),
        http_addr: None,
        scheduler,
        ..Default::default()
    })
    .expect("bind configured shard")
    .spawn()
    .expect("spawn configured shard")
}

/// Picks 1–3 random edge edits that provably apply to `graph`: removals
/// of existing edges and additions of fresh non-self-loop pairs.
pub fn random_edit(graph: &DiGraph, rng: &mut StdRng) -> (EdgeList, EdgeList) {
    let ops = rng.gen_range(1..=3usize);
    let mut add = Vec::new();
    let mut remove = Vec::new();
    let n = graph.node_count() as u32;
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    for _ in 0..ops {
        let removing = !edges.is_empty() && rng.gen_bool(0.5);
        if removing {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            let pair = (u.index() as u32, v.index() as u32);
            if !remove.contains(&pair) {
                remove.push(pair);
            }
        } else if n >= 2 {
            // A few attempts to find a fresh pair; dense graphs just
            // yield a smaller edit.
            for _ in 0..8 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                let fresh = u != v
                    && !graph.has_edge(NodeId::new(u as usize), NodeId::new(v as usize))
                    && !add.contains(&(u, v))
                    && !add.contains(&(v, u));
                if fresh {
                    add.push((u, v));
                    break;
                }
            }
        }
    }
    if add.is_empty() && remove.is_empty() {
        // Guarantee a non-empty delta: re-add nothing, remove nothing is
        // rejected by the protocol. Remove the first edge if any,
        // otherwise add (0, 1).
        match edges.first() {
            Some(&(u, v)) => remove.push((u.index() as u32, v.index() as u32)),
            None => add.push((0, 1)),
        }
    }
    (add, remove)
}

/// One interactive editing session: a full `layout` of a private base
/// graph, then a chain of `layout_delta` requests each editing 1–3 edges
/// and warm-starting from the previous response's digest. When the
/// server answers `base not found` (eviction — or, behind a router, the
/// base's shard going down), the typed client recovers *inside the same
/// step* with an automatic full layout of the session's current graph
/// ([`antlayer_client::Outcome::fell_back`], tallied as `rebased`) and
/// the chain resumes — the protocol's intended recovery, exercised both
/// by `loadgen --mode edit` and by the router regression tests.
pub struct EditSession {
    client: Client,
    profile: RequestProfile,
    seed: u64,
    rng: StdRng,
    graph: DiGraph,
    digest: Option<String>,
}

impl EditSession {
    /// Opens a TCP session against `addr`; `client` seeds the private
    /// graph and edit stream.
    pub fn open(addr: &str, profile: RequestProfile, client: usize) -> EditSession {
        EditSession::open_with(addr, Transport::Tcp, profile, client)
    }

    /// Opens a session over an explicit transport.
    pub fn open_with(
        addr: &str,
        transport: Transport,
        profile: RequestProfile,
        client: usize,
    ) -> EditSession {
        let seed = 0xED17 + client as u64;
        EditSession {
            client: Client::connect_with(addr, profile.client_config(transport))
                .expect("connect edit session"),
            graph: base_graph(&profile, seed),
            profile,
            seed,
            rng: StdRng::seed_from_u64(seed),
            digest: None,
        }
    }

    /// The digest the next `layout_delta` would use as its base; `None`
    /// when the next step sends a full layout (session start or after a
    /// dropped request).
    pub fn base_digest(&self) -> Option<&str> {
        self.digest.as_deref()
    }

    /// `overloaded` retries this session's client has spent over its
    /// lifetime — the number the session's retry budget (if any) is
    /// charged against.
    pub fn retries_spent(&self) -> u64 {
        self.client.retries_spent()
    }

    /// Sends one request of the session (full layout, or delta with the
    /// client's automatic fallback) and returns the request latency in
    /// microseconds, or `None` when the request was dropped after
    /// exhausting the retry budget.
    pub fn step(&mut self, tallies: &Tallies) -> Option<u64> {
        let options = self.profile.options(self.seed);
        // Generate the edit and track the edited graph *before* the
        // latency clock starts: the reported latency is the request, not
        // the client-side edit generation — and the edited graph is
        // exactly what the client's `base not found` fallback re-lays
        // out, so the local state stays consistent either way.
        let edit = self.digest.take().map(|base| {
            let (add, remove) = random_edit(&self.graph, &mut self.rng);
            self.graph = GraphDelta::new(add.clone(), remove.clone())
                .apply(&self.graph)
                .expect("generated edit applies");
            (base, add, remove)
        });
        let t0 = Instant::now();
        let outcome = match &edit {
            None => self.client.layout(&self.graph, &options),
            Some((base, add, remove)) => {
                self.client
                    .layout_delta(base, add, remove, Some(&self.graph), &options)
            }
        };
        match outcome {
            Ok(outcome) => {
                tallies.good.fetch_add(1, Ordering::Relaxed);
                tallies
                    .retried
                    .fetch_add(outcome.retried as u64, Ordering::Relaxed);
                if outcome.fell_back {
                    tallies.rebased.fetch_add(1, Ordering::Relaxed);
                }
                if outcome.reply.seeded {
                    tallies.warm.fetch_add(1, Ordering::Relaxed);
                }
                self.digest = Some(outcome.reply.digest);
                Some(t0.elapsed().as_micros() as u64)
            }
            Err(ClientError::Dropped { attempts }) => {
                // The local graph already carries the unacknowledged
                // edit, so the server-side base no longer matches it —
                // the next step rebases with a full layout.
                tallies
                    .retried
                    .fetch_add(attempts.saturating_sub(1) as u64, Ordering::Relaxed);
                tallies.dropped.fetch_add(1, Ordering::Relaxed);
                self.digest = None;
                None
            }
            Err(e) => panic!("edit session: unexpected client error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Live (push) sessions — the `serve --live` reactor's workload shapes.
// ---------------------------------------------------------------------

/// Deterministic **add-only** edit stream that respects one fixed
/// topological order of the base DAG: every drawn edge `(u, v)` has `u`
/// before `v` in that order, so the edited graph stays acyclic no
/// matter how many edits accumulate — and because the edge set only
/// grows, every edit yields a digest the server has never cached. That
/// is what makes a live session's pushes deterministically *warm*
/// (`source: "warm"`, never `"hit"`): each re-solve must run, and each
/// runs seeded from the session's previous layering.
pub struct AddOnlyEdits {
    /// Topological position by node index.
    pos: Vec<u32>,
    present: std::collections::HashSet<(u32, u32)>,
    n: u32,
    rng: StdRng,
}

impl AddOnlyEdits {
    /// Fixes the topological order of `graph` and seeds the stream.
    pub fn new(graph: &DiGraph, seed: u64) -> AddOnlyEdits {
        let order = antlayer_graph::topological_sort(graph).expect("base graph is a DAG");
        let mut pos = vec![0u32; graph.node_count()];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        let present = graph
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        AddOnlyEdits {
            pos,
            present,
            n: graph.node_count() as u32,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next fresh forward edge, or `None` once every forward pair
    /// is present (the order's transitive tournament is complete).
    pub fn next_edge(&mut self) -> Option<(u32, u32)> {
        let n = self.n as usize;
        if n < 2 || self.present.len() >= n * (n - 1) / 2 {
            return None;
        }
        for _ in 0..64 {
            let a = self.rng.gen_range(0..self.n);
            let b = self.rng.gen_range(0..self.n);
            if a == b {
                continue;
            }
            let (u, v) = if self.pos[a as usize] < self.pos[b as usize] {
                (a, b)
            } else {
                (b, a)
            };
            if self.present.insert((u, v)) {
                return Some((u, v));
            }
        }
        // Dense endgame: scan for the first absent forward pair.
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b
                    && self.pos[a as usize] < self.pos[b as usize]
                    && self.present.insert((a, b))
                {
                    return Some((a, b));
                }
            }
        }
        None
    }
}

/// One push received for a hot live session, as the bench accounts it.
pub struct LivePush {
    /// Client-observed update-to-push latency (send_delta → update
    /// frame applied), microseconds.
    pub micros: u64,
    /// Whether the re-solve warm-started from the session's previous
    /// layering (`source: "warm"`).
    pub warm: bool,
    /// Extra deltas folded into this push.
    pub coalesced: u64,
    /// Whether a periodic cold refresh produced it.
    pub refreshed: bool,
    /// The push's (strictly monotonic) version.
    pub version: u64,
}

/// A *hot* live session: one reactor connection, one session, and a
/// deterministic [`AddOnlyEdits`] stream driven ping-pong — stream one
/// edit, block for its push, apply it. [`Session::apply_update`]
/// enforces the version contract on every push, so a lost, duplicated
/// or reordered update fails the step instead of passing silently.
pub struct LiveEditSession {
    conn: LiveConn,
    session: Session,
    edits: AddOnlyEdits,
}

impl LiveEditSession {
    /// Connects to a live listener and opens one session whose base
    /// graph and edit stream derive from `seed`.
    pub fn open(
        addr: &str,
        profile: &RequestProfile,
        seed: u64,
    ) -> Result<LiveEditSession, String> {
        let mut conn = LiveConn::connect(addr).map_err(|e| format!("connect live: {e}"))?;
        let graph = base_graph(profile, seed);
        let id = Json::Num(seed as f64);
        let (version, reply) = conn
            .open(&id, &graph, &profile.options(seed))
            .map_err(|e| format!("session_open: {e}"))?;
        Ok(LiveEditSession {
            session: Session::new(id, version, &reply),
            edits: AddOnlyEdits::new(&graph, seed ^ 0xA11CE),
            conn,
        })
    }

    /// The session's last applied version.
    pub fn version(&self) -> u64 {
        self.session.version()
    }

    /// Streams one add-only edit and blocks for its push.
    pub fn step(&mut self) -> Result<LivePush, String> {
        let edge = self
            .edits
            .next_edge()
            .ok_or("edit stream saturated the DAG")?;
        let id = self.session.id().clone();
        let t0 = Instant::now();
        self.conn
            .send_delta(&id, &[edge], &[])
            .map_err(|e| format!("session_delta: {e}"))?;
        let (frame_id, event) = self
            .conn
            .next_event(None)
            .map_err(|e| format!("awaiting push: {e}"))?
            .expect("blocking next_event yields a frame");
        if frame_id != id {
            return Err(format!(
                "push for unexpected session {} (hot connections carry one session)",
                frame_id.encode()
            ));
        }
        match event {
            LiveEvent::Update(update) => {
                let micros = t0.elapsed().as_micros() as u64;
                self.session.apply_update(&update)?;
                Ok(LivePush {
                    micros,
                    warm: update.source == "warm",
                    coalesced: update.coalesced,
                    refreshed: update.refreshed,
                    version: update.version,
                })
            }
            LiveEvent::Closed { version } => {
                Err(format!("unexpected session_close ack at version {version}"))
            }
            LiveEvent::Error(e) => Err(format!("session error pushed: {e}")),
        }
    }

    /// Closes the session, checking the ack echoes the last version.
    pub fn close(mut self) -> Result<u64, String> {
        let id = self.session.id().clone();
        let version = self
            .conn
            .close(&id)
            .map_err(|e| format!("session_close: {e}"))?;
        if version != self.session.version() {
            return Err(format!(
                "close ack version {version} != last applied {}",
                self.session.version()
            ));
        }
        Ok(version)
    }
}

/// A fleet of **idle** live sessions: opened, never edited, held while
/// hot traffic runs (the "10k dashboards on screen" shape), then closed.
/// Sessions are multiplexed `per_conn` to a connection and cycle
/// through a small set of distinct base graphs, so opens beyond the
/// first few are cache hits — cheap to stand up by the thousand.
pub struct IdleSessions {
    conns: Vec<(LiveConn, Vec<Json>)>,
}

impl IdleSessions {
    /// Opens `count` sessions against `addr` over `⌈count/per_conn⌉`
    /// parallel connections, cycling through `distinct` base graphs.
    pub fn open(
        addr: &str,
        profile: &RequestProfile,
        count: usize,
        per_conn: usize,
        distinct: u64,
    ) -> Result<IdleSessions, String> {
        let graphs: Vec<DiGraph> = (0..distinct.max(1))
            .map(|s| base_graph(profile, s))
            .collect();
        let n_conns = count.div_ceil(per_conn.max(1));
        let conns: Vec<Result<(LiveConn, Vec<Json>), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_conns)
                .map(|c| {
                    let graphs = &graphs;
                    scope.spawn(move || {
                        let mut conn =
                            LiveConn::connect(addr).map_err(|e| format!("connect live: {e}"))?;
                        let mut ids = Vec::new();
                        for i in (c * per_conn)..((c + 1) * per_conn).min(count) {
                            let seed = i as u64 % graphs.len() as u64;
                            let id = Json::Num(i as f64);
                            conn.open(&id, &graphs[seed as usize], &profile.options(seed))
                                .map_err(|e| format!("idle session_open #{i}: {e}"))?;
                            ids.push(id);
                        }
                        Ok((conn, ids))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("idle opener thread"))
                .collect()
        });
        let conns = conns.into_iter().collect::<Result<Vec<_>, String>>()?;
        Ok(IdleSessions { conns })
    }

    /// How many sessions are being held open.
    pub fn len(&self) -> usize {
        self.conns.iter().map(|(_, ids)| ids.len()).sum()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes every session (parallel by connection), returning how
    /// many close acks came back.
    pub fn close_all(self) -> Result<usize, String> {
        let acked: Vec<Result<usize, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .into_iter()
                .map(|(mut conn, ids)| {
                    scope.spawn(move || {
                        let mut acked = 0usize;
                        for id in &ids {
                            conn.close(id)
                                .map_err(|e| format!("idle session_close: {e}"))?;
                            acked += 1;
                        }
                        Ok(acked)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("idle closer thread"))
                .collect()
        });
        let mut total = 0;
        for r in acked {
            total += r?;
        }
        Ok(total)
    }
}

/// Spawns an in-process shard that additionally serves the live
/// (reactor) listener on a free loopback port — the fixture behind
/// `loadgen --mode live` and `experiments live`.
pub fn spawn_live_shard(threads: usize) -> antlayer_service::ServerHandle {
    antlayer_service::Server::bind(antlayer_service::ServerConfig {
        addr: "127.0.0.1:0".into(),
        live_addr: Some("127.0.0.1:0".to_string()),
        scheduler: antlayer_service::SchedulerConfig {
            threads,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind live shard")
    .spawn()
    .expect("spawn live shard")
}
