//! # antlayer-router
//!
//! The horizontal-scaling tier of the serving subsystem: a thin TCP
//! front that consistent-hashes request digests across N backend
//! `antlayer serve` processes, so the canonical-digest cache (and the
//! warm-start edit chains built on it) scale past one machine's memory.
//!
//! ```text
//! clients ──► Router ──ring(digest.lo)──► shard 0   (antlayer serve)
//!                    ├──────────────────► shard 1   (antlayer serve)
//!                    └──────────────────► shard N-1 (antlayer serve)
//! ```
//!
//! Clients speak the exact same JSON protocol to the router that they
//! would speak to a single server (`docs/PROTOCOL.md`), over either
//! client-facing framing — newline-delimited TCP ([`RouterConfig::addr`])
//! or HTTP/1.1 `POST /v2` ([`RouterConfig::http_addr`], `antlayer route
//! --http PORT`). Both listeners sit on the same
//! [`FrontDoor`] a server uses — one epoll loop thread, one connection
//! cap ([`RouterConfig::max_connections`]), one shutdown path — so the
//! router adds only the handler each admitted connection gets. The
//! loop hands each request to that handler on a runner thread. The
//! handler parses the request just enough to pick a routing key,
//! forwards the original payload verbatim over its line-TCP upstream
//! connections (one [`antlayer_client::Connection`] per shard per
//! client connection, kept for the connection's life), and relays the
//! shard's reply:
//!
//! * `layout` routes by the request's canonical digest, so identical
//!   requests always land on the same shard — fleet-wide hit rate
//!   matches one big process;
//! * `layout_delta` routes by the **base** digest: the cached entry
//!   being warm-started lives where the base was served. Because a
//!   delta's *result* is cached on the shard that served it (under the
//!   edited request's digest, whose ring owner is usually a different
//!   shard), the router keeps a bounded digest→shard override map: each
//!   successful delta records where its result actually lives, and later
//!   requests naming that digest are routed there first — so an edit
//!   chain stays pinned to one shard and stays warm. If the base's
//!   shard is down (or the entry was evicted), the shard that receives
//!   the rehashed request answers `base not found` and the client falls
//!   back to one full `layout` — the recovery the protocol already
//!   specifies (and `antlayer-client` implements);
//! * `cache_put` routes by the entry's digest, landing the entry where
//!   requests naming that digest will look for it;
//! * `stats` fans out to every shard and aggregates the counters
//!   (plus router-level forwarding/failover counters and per-shard
//!   health);
//! * `ping` is answered locally.
//!
//! **Replication** (`--replicas N`, default 1 = off): every fresh layout
//! result is written through — as a `cache_put` — to the next `N−1` live
//! ring candidates after the shard that served it, so a single shard
//! death loses no cached work; the rehashed requests land on a replica
//! and serve from its cache, and edit chains stay warm. A hit served by
//! a non-owner shard is written back to its ring owner (read repair), so
//! traffic returns to the primary once the probe revives it.
//!
//! **Failover**: a connect or I/O failure marks the shard down and the
//! request immediately rehashes to the next ring candidate (the
//! consistent-hash ring guarantees only the down shard's keys move).
//! Requests are idempotent — a layout is a pure function of its digest —
//! so retrying a half-exchanged line on another shard is always safe.
//! A background probe pings down shards every
//! [`RouterConfig::probe_interval`] and returns them to rotation.
//!
//! **Elastic fleet** (`shard_join` / `shard_drain` admin ops): the
//! fleet grows and shrinks *while serving*. A join appends the new
//! shard to the ring — the grown ring is a point-superset of the old
//! one, so only keys the new shard owns move — and streams those keys'
//! cache entries from their old owners as replayed `cache_put`s; reads
//! keep going to the old owner until the transfer cursor passes their
//! digest, and fresh results are written to both homes. A drain streams
//! everything the shard holds to each entry's next ring candidate, then
//! tombstones its slot (indices never compact, so no other key moves)
//! and sweeps the straggler window shut — zero cached work is lost and
//! warm edit chains survive the move. Every membership change bumps a
//! **topology epoch**, and a digest→shard override is honoured only
//! while its slot is still active, so a removed member never draws
//! traffic from a stale override.
//!
//! ## Quickstart
//!
//! ```no_run
//! use antlayer_router::{Router, RouterConfig};
//!
//! let router = Router::bind(RouterConfig {
//!     addr: "127.0.0.1:4700".into(),
//!     shards: vec!["127.0.0.1:4617".into(), "127.0.0.1:4618".into()],
//!     ..Default::default()
//! })
//! .unwrap();
//! router.run().unwrap(); // or .spawn() for a background handle
//! ```
//!
//! Or from the CLI: `antlayer route --shards 127.0.0.1:4617,127.0.0.1:4618`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use antlayer_client::{Connection, Transport as ClientTransport};
use antlayer_obs::{Histogram, HistogramSnapshot, Registry, RemoteSpan, SlowLog, TraceEntry};
use antlayer_service::cache::ShardedCache;
use antlayer_service::digest::Digest;
use antlayer_service::protocol::{
    self, CacheEntry, Envelope, ErrorKind, Json, Request, Response, WireError,
};
use antlayer_service::router::{HashRing, ShardHealth};
use antlayer_service::scheduler::LayoutRequest;
use antlayer_service::server::SLOW_LOG_CAPACITY;
use antlayer_service::transport::{FrontDoor, FrontDoorHandle, Handler};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Address of the line-TCP listener, e.g. `127.0.0.1:4700` (port 0
    /// picks a free one).
    pub addr: String,
    /// Optional address of an HTTP/1.1 listener (`POST /v2`); `None`
    /// serves line-delimited TCP only. Upstream shard connections are
    /// line-TCP either way.
    pub http_addr: Option<String>,
    /// Backend `antlayer serve` addresses, in ring order. Must be
    /// non-empty; the shard *index* in this list is its ring identity,
    /// so keep the order stable across router restarts.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring (balance knob).
    pub vnodes: usize,
    /// Maximum concurrently served client connections.
    pub max_connections: usize,
    /// Connect timeout for shard connections.
    pub connect_timeout: Duration,
    /// Reply timeout for forwarded requests. A shard that accepts the
    /// connection but never answers (deadlock, SIGSTOP) would otherwise
    /// hang its clients forever *and* never be failed over — the
    /// timeout turns a hung shard into an I/O failure, i.e. mark-down
    /// plus rehash. Generous by default (well above any admissible
    /// compute: the wire-level work caps bound a single request), so a
    /// merely busy shard is not misdiagnosed as dead.
    pub io_timeout: Duration,
    /// How often the background probe re-checks down shards.
    pub probe_interval: Duration,
    /// Copies of each cached layout kept across the fleet, **including**
    /// the primary. `1` (the default) disables replication. At `N ≥ 2`
    /// every fresh layout result is written through to the next `N−1`
    /// ring candidates after its serving shard (a `cache_put` per
    /// replica), so killing any single shard loses no cached work: the
    /// rehashed requests land on a replica and serve from its cache.
    /// When a request for a replicated digest is served by a non-owner
    /// shard (failover), the reply is also written back to the ring
    /// owner — read repair — so traffic returns to the primary once the
    /// probe brings it back.
    pub replicas: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:4700".into(),
            http_addr: None,
            shards: Vec::new(),
            vnodes: 64,
            max_connections: 128,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(120),
            probe_interval: Duration::from_millis(500),
            replicas: 1,
        }
    }
}

/// Router-level counters (shard traffic lives in [`ShardHealth`]).
#[derive(Default)]
struct RouterCounters {
    /// Requests forwarded to a shard and answered.
    forwarded: AtomicU64,
    /// Requests that succeeded on a non-owner shard (failover rehash).
    rerouted: AtomicU64,
    /// Requests that failed because every shard was unreachable.
    unroutable: AtomicU64,
    /// `cache_put` write-throughs delivered to replica shards.
    replica_puts: AtomicU64,
    /// Write-backs that re-populated a digest's ring owner after a
    /// non-owner shard served it (failover recovery).
    read_repairs: AtomicU64,
    /// `shard_join` admin ops accepted.
    joins: AtomicU64,
    /// `shard_drain` admin ops accepted.
    drains: AtomicU64,
    /// Cache entries copied between shards by join/drain transfers
    /// (including dual-homed fresh results written during a join).
    transferred: AtomicU64,
}

/// Lifecycle state of one topology slot. Slots are append-only: a
/// drained shard leaves a `Removed` tombstone so every surviving slot
/// keeps its ring index — which is what makes a drain move only the
/// drained shard's keys and a join move only the new shard's keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// Appended by `shard_join`; receives its keys' entries from their
    /// old owners while reads keep going to those owners until the
    /// transfer cursor passes each digest.
    Joining,
    /// In full rotation.
    Live,
    /// Being emptied by `shard_drain`; still serves reads and writes
    /// until every entry has streamed to its next ring candidate.
    Draining,
    /// Tombstone: out of rotation forever, index retired.
    Removed,
}

impl SlotState {
    fn name(self) -> &'static str {
        match self {
            SlotState::Joining => "joining",
            SlotState::Live => "live",
            SlotState::Draining => "draining",
            SlotState::Removed => "removed",
        }
    }

    /// A member of the fleet (anything but a tombstone).
    fn active(self) -> bool {
        self != SlotState::Removed
    }
}

/// One ring position: a shard's health (shared across topology
/// snapshots, so a mark-down survives an epoch bump) plus its
/// lifecycle state (immutable per snapshot).
#[derive(Clone)]
struct Slot {
    health: Arc<ShardHealth>,
    state: SlotState,
}

/// An immutable snapshot of fleet membership. Requests grab one Arc at
/// dispatch and route against it end-to-end; admin ops publish a new
/// snapshot with `epoch + 1` for every membership or state change, so
/// anything epoch-tagged (the digest→shard home map) self-invalidates.
struct Topology {
    epoch: u64,
    /// Hash ring over **all** slots, tombstones included — ring points
    /// are a pure function of (index, replica), so growing the slot
    /// vector grows the ring to a point-superset and nothing else moves.
    /// Tombstones are filtered at walk time, exactly like down shards.
    ring: HashRing,
    slots: Vec<Slot>,
}

impl Topology {
    /// Indices of fleet members (non-tombstone slots).
    fn active(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&i| self.slots[i].state.active())
    }

    /// The first active candidate for a key: where routing looks first
    /// while everything is up. (The ring owner itself may be a
    /// tombstone; this is the post-filter owner.)
    fn primary(&self, key: u64) -> usize {
        self.ring
            .candidates(key)
            .find(|&s| self.slots[s].state.active())
            .expect("a topology always keeps at least one active slot")
    }
}

/// The swap cell holding the current topology snapshot. Shared between
/// the router state and the metric closures (which must outlive neither).
struct TopologyCell(Mutex<Arc<Topology>>);

impl TopologyCell {
    fn snapshot(&self) -> Arc<Topology> {
        self.0.lock().clone()
    }

    fn publish(&self, next: Arc<Topology>) {
        *self.0.lock() = next;
    }
}

/// A join in flight: the slot receiving its keys, and the transfer
/// cursor — every owed digest numerically `<= cursor` has been copied
/// to the target, so reads for those digests may route to it while
/// everything above still reads from the old owner.
struct Transfer {
    target: usize,
    cursor: u128,
}

/// Shared state of a running router.
struct RouterState {
    /// Current fleet membership; swapped atomically by admin ops.
    topology: Arc<TopologyCell>,
    /// Virtual nodes per shard, kept so topology changes rebuild the
    /// ring with the configured balance.
    vnodes: usize,
    /// Serializes `shard_join`/`shard_drain`: one membership change at
    /// a time, while ordinary traffic keeps flowing.
    admin: Mutex<()>,
    /// The in-flight join's read gate, `None` outside a join.
    transfer: Mutex<Option<Transfer>>,
    counters: Arc<RouterCounters>,
    /// The router's own Prometheus registry (`GET /metrics` on the HTTP
    /// listener): forward/reroute counters, shards-up gauge, and the
    /// client-observed request latency histogram.
    metrics: Arc<Registry>,
    /// End-to-end latency as the router's clients see it (parse +
    /// forward + shard time + encode).
    request_us: Arc<Histogram>,
    /// The K slowest routed requests, each stitched with the serving
    /// shard's own phase breakdown (`debug` op).
    slow_log: SlowLog,
    connect_timeout: Duration,
    io_timeout: Duration,
    /// Fleet-wide copies per cached layout ([`RouterConfig::replicas`]);
    /// `< 2` means replication is off.
    replicas: usize,
    /// Digest → shard overrides for entries that live off their ring
    /// owner: a `layout_delta` result is cached on the shard that served
    /// it (the *base*'s shard), not on the edited digest's ring owner,
    /// and a failed-over `layout` is cached wherever it rehashed to.
    /// Recording where such results actually live keeps edit chains
    /// warm and pinned to one shard. Bounded LRU (an eviction merely
    /// costs one recompute); per-router state, so a second router
    /// rediscovers homes through `base not found` fallbacks. Slot
    /// indices are stable across topology changes (slots are
    /// append-only and tombstoned, never reused), so an override stays
    /// valid exactly as long as its slot is active — a drained slot's
    /// overrides die with the slot instead of routing deltas at a
    /// removed member.
    homes: ShardedCache<usize>,
}

impl RouterState {
    /// Whether the join transfer has already copied `digest` to the
    /// joining slot `shard` — the gate that lets reads chase the
    /// transfer instead of racing it.
    fn transfer_passed(&self, shard: usize, digest: Digest) -> bool {
        self.transfer
            .lock()
            .as_ref()
            .is_some_and(|t| t.target == shard && digest.as_u128() <= t.cursor)
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    door: FrontDoor,
    state: Arc<RouterState>,
    probe_interval: Duration,
}

/// Handle to a router running on background threads; dropping it shuts
/// the router (and its probe thread) down.
pub struct RouterHandle {
    door: FrontDoorHandle,
    probe: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the configured address(es). Fails on an empty shard list —
    /// a router with nothing behind it can serve nothing.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one --shards backend",
            ));
        }
        let door = FrontDoor::bind(
            &config.addr,
            config.http_addr.as_deref(),
            config.max_connections,
        )?;
        let slots: Vec<Slot> = config
            .shards
            .iter()
            .cloned()
            .map(|addr| Slot {
                health: Arc::new(ShardHealth::new(addr)),
                state: SlotState::Live,
            })
            .collect();
        let topology = Arc::new(TopologyCell(Mutex::new(Arc::new(Topology {
            // Epoch 1, so 0 can never collide with a tagged home entry.
            epoch: 1,
            ring: HashRing::new(slots.len(), config.vnodes),
            slots,
        }))));
        let counters = Arc::new(RouterCounters::default());
        let metrics = Arc::new(Registry::new());
        let request_us = metrics.histogram(
            "router_request_us",
            "end-to-end microseconds per routed request, as the router's clients see it",
        );
        {
            let c = counters.clone();
            metrics.counter_fn(
                "router_forwarded_total",
                "requests forwarded to a shard and answered",
                move || c.forwarded.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "router_rerouted_total",
                "requests that succeeded on a non-owner shard (failover rehash)",
                move || c.rerouted.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "router_unroutable_total",
                "requests that failed because every shard was unreachable",
                move || c.unroutable.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "replica_puts_total",
                "cache_put write-throughs delivered to replica shards",
                move || c.replica_puts.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "read_repairs_total",
                "write-backs that re-populated a digest's ring owner after failover",
                move || c.read_repairs.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "router_joins_total",
                "shard_join admin ops accepted",
                move || c.joins.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "router_drains_total",
                "shard_drain admin ops accepted",
                move || c.drains.load(Ordering::Relaxed),
            );
            let c = counters.clone();
            metrics.counter_fn(
                "router_transferred_total",
                "cache entries copied between shards by join/drain transfers",
                move || c.transferred.load(Ordering::Relaxed),
            );
            let t = topology.clone();
            metrics.gauge_fn(
                "router_shards_up",
                "shards currently in rotation",
                move || {
                    let topo = t.snapshot();
                    topo.active()
                        .filter(|&i| topo.slots[i].health.is_up())
                        .count() as u64
                },
            );
            let t = topology.clone();
            metrics.gauge_fn(
                "router_topology_epoch",
                "fleet membership version; bumps on every join/drain state change",
                move || t.snapshot().epoch,
            );
        }
        let state = Arc::new(RouterState {
            topology,
            vnodes: config.vnodes,
            admin: Mutex::new(()),
            transfer: Mutex::new(None),
            counters,
            metrics,
            request_us,
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            connect_timeout: config.connect_timeout,
            io_timeout: config.io_timeout,
            replicas: config.replicas,
            // ~3 MB worst case: a u128 key and a shard index per entry.
            homes: ShardedCache::new(65_536, 8),
        });
        Ok(Router {
            door,
            state,
            probe_interval: config.probe_interval,
        })
    }

    /// The actually-bound line-TCP address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.door.local_addr()
    }

    /// The actually-bound HTTP address, when an HTTP listener exists.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.door.http_addr()
    }

    /// A snapshot of the consistent-hash ring in use (for tests and
    /// observability: `ring().owner(digest.lo)` is the shard a request
    /// lands on while every shard is up). Owned, not borrowed: the live
    /// ring is swapped atomically by `shard_join`/`shard_drain`.
    pub fn ring(&self) -> HashRing {
        self.state.topology.snapshot().ring.clone()
    }

    /// Serves until the process exits: [`spawn`](Router::spawn), then
    /// block on the loop.
    pub fn run(self) -> std::io::Result<()> {
        let mut handle = self.spawn()?;
        handle.door.wait();
        Ok(())
    }

    /// Runs the router on background threads (the loop + reconnect
    /// probe) and returns a handle.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let shutdown = self.door.shutdown_flag();
        let state = self.state.clone();
        // Per-connection shard pool: one connection per shard this
        // client's traffic has touched, so a request/reply pair is never
        // interleaved with another client's. Grown lazily (slot index →
        // connection) so joined shards get slots too.
        let door = self
            .door
            .spawn("antlayer-route", move || RouterConnHandler {
                state: state.clone(),
                conns: Vec::new(),
            })?;
        let probe = spawn_probe(self.state, shutdown, self.probe_interval)?;
        Ok(RouterHandle {
            door,
            probe: Some(probe),
        })
    }
}

impl RouterHandle {
    /// The router's line-TCP address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.door.addr()
    }

    /// The router's HTTP address, when an HTTP listener is serving.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.door.http_addr()
    }

    /// Stops the loop and probe threads, closes live client
    /// connections, and joins everything.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Raises the flag the probe watches, too.
        self.door.stop();
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the reconnect probe: every `interval`, each down shard gets a
/// fresh connection and a `ping`; success returns it to rotation. The
/// sleep is chopped into short slices so shutdown is prompt.
fn spawn_probe(
    state: Arc<RouterState>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("antlayer-route-probe".into())
        .spawn(move || {
            let slice = Duration::from_millis(20).min(interval);
            let mut slept = Duration::ZERO;
            loop {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(slice);
                slept += slice;
                if slept < interval {
                    continue;
                }
                slept = Duration::ZERO;
                let topo = state.topology.snapshot();
                for i in topo.active() {
                    let health = &topo.slots[i].health;
                    if health.is_up() {
                        continue;
                    }
                    let ok = Connection::connect_timeout(
                        &health.addr,
                        ClientTransport::Tcp,
                        state.connect_timeout,
                    )
                    .and_then(|mut conn| {
                        conn.set_read_timeout(Some(state.connect_timeout))?;
                        conn.exchange(r#"{"op":"ping"}"#)
                    })
                    .map(|reply| reply.contains("\"ok\":true"))
                    .unwrap_or(false);
                    if ok {
                        health.mark_up();
                    }
                }
            }
        })
}

/// One client connection's handler: routes protocol payloads, serves
/// the router's own registry on `GET /metrics`.
struct RouterConnHandler {
    state: Arc<RouterState>,
    conns: Vec<Option<Connection>>,
}

impl Handler for RouterConnHandler {
    fn respond(&mut self, line: &str) -> String {
        route_line(line, &self.state, &mut self.conns)
    }

    fn metrics(&mut self) -> Option<String> {
        Some(self.state.metrics.render_prometheus())
    }
}

/// Computes the response for one client request: parse just enough to
/// route, then forward the original payload verbatim. Locally answered
/// ops (ping, stats, debug, errors) seal the request's envelope;
/// forwarded replies already carry it from the shard.
///
/// Every request is timed into `router_request_us` and, when slow
/// enough, into the router's [`SlowLog`]. Forwarded **v2** requests get
/// `"trace":true` spliced onto the wire, so the shard's reply carries
/// its own phase breakdown; for slow requests that breakdown is
/// stitched into the log entry as the downstream span — one timeline
/// per fleet request, keyed by the client's envelope id. The trace
/// member rides through to the client untouched (replies forward
/// verbatim).
fn route_line(line: &str, state: &RouterState, conns: &mut Vec<Option<Connection>>) -> String {
    let started = Instant::now();
    let (request, env) = match protocol::parse_request_envelope(line) {
        Err((e, env)) => return Response::Error(e).encode(&env),
        Ok(parsed) => parsed,
    };
    let op = request.op();
    let mut phases: Vec<(&'static str, u64)> =
        vec![("parse", started.elapsed().as_micros() as u64)];
    let forwarding = Instant::now();
    // One topology snapshot per request: the whole route — candidate
    // walk, home lookup, replication — sees a single consistent epoch.
    let topo = state.topology.snapshot();
    let (reply, served_by) = match &request {
        Request::Ping => (Response::Pong { router: true }.encode(&env), None),
        Request::Stats => (stats_fanout(state, &topo, conns, &env), None),
        Request::Debug => (debug_local(state, &env), None),
        Request::Layout(req) => {
            let wire = traceable(forwardable(line, &request, &env), &env);
            let digest = req.digest();
            let served = forward(state, &topo, conns, &wire, digest, false, &env);
            if let (reply, Some(shard)) = &served {
                replicate(state, &topo, conns, req, digest, *shard, reply);
            }
            served
        }
        Request::LayoutDelta(req) => {
            let wire = traceable(forwardable(line, &request, &env), &env);
            forward(state, &topo, conns, &wire, req.base, true, &env)
        }
        // A client-sent cache_put routes like a layout for the same
        // digest: recorded home first, then ring order — the entry lands
        // where requests naming the digest will look for it.
        Request::CachePut(entry) => {
            let wire = traceable(forwardable(line, &request, &env), &env);
            forward(state, &topo, conns, &wire, entry.digest, false, &env)
        }
        // Shard-local: a page walk only means something against one
        // cache, so the router has no digest to route it by.
        Request::CachePull { .. } => (
            Response::Error(WireError::new(
                ErrorKind::InvalidRequest,
                "invalid request: 'cache_pull' is a shard-local op; address a shard directly",
            ))
            .encode(&env),
            None,
        ),
        Request::ShardJoin { addr } => (admin_join(state, conns, addr, &env), None),
        Request::ShardDrain { addr } => (admin_drain(state, conns, addr, &env), None),
        // Push frames need a connection the server owns end to end; a
        // forwarding hop would have to proxy unsolicited writes. Live
        // sessions therefore speak to a shard's --live listener
        // directly (shard moves surface as `base not found` re-opens).
        Request::SessionOpen(_) | Request::SessionDelta { .. } | Request::SessionClose => (
            Response::Error(WireError::new(
                ErrorKind::InvalidRequest,
                format!(
                    "invalid request: '{op}' is a live-session op; connect to a shard's \
                     --live listener directly"
                ),
            ))
            .encode(&env),
            None,
        ),
    };
    phases.push(("forward", forwarding.elapsed().as_micros() as u64));
    let total_us = started.elapsed().as_micros() as u64;
    state.request_us.record(total_us);
    if state.slow_log.would_keep(total_us) {
        // Only now — for a request already known slow — is the reply
        // parsed for its trace member; fast requests never pay for it.
        let remote =
            served_by.and_then(|shard| extract_remote_span(&reply, &topo.slots[shard].health.addr));
        state.slow_log.record(TraceEntry {
            id: env.correlation_id(),
            op,
            total_us,
            phases,
            remote,
        });
    }
    reply
}

/// Splices `"trace":true` onto a v2 payload about to be forwarded, so
/// the shard reports its phase breakdown back for stitching. v1 has no
/// trace field, so v1 payloads pass through untouched.
fn traceable<'a>(wire: std::borrow::Cow<'a, str>, env: &Envelope) -> std::borrow::Cow<'a, str> {
    if env.version == 2 {
        std::borrow::Cow::Owned(protocol::with_trace_flag(&wire))
    } else {
        wire
    }
}

/// Pulls the shard's `"trace"` member out of a forwarded reply as the
/// downstream span of a router slow-log entry.
fn extract_remote_span(reply: &str, addr: &str) -> Option<RemoteSpan> {
    let v = protocol::parse(reply).ok()?;
    let trace = v.get("trace")?;
    let total_us = trace.get("total_us")?.as_u64()?;
    let phases = match trace.get("phase_us")? {
        Json::Obj(m) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => return None,
    };
    Some(RemoteSpan {
        addr: addr.to_string(),
        total_us,
        phases,
    })
}

/// Answers the `debug` op from the router's own slow log (requests are
/// not fanned out: each tier's log is inspected where it lives, and a
/// router entry already embeds the shard's span for its slow requests).
fn debug_local(state: &RouterState, env: &Envelope) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("router".into(), Json::Bool(true));
    obj.insert(
        "slow_requests".into(),
        Json::Arr(
            state
                .slow_log
                .snapshot()
                .iter()
                .map(protocol::trace_entry_json)
                .collect(),
        ),
    );
    Response::Debug(obj).encode(env)
}

/// The payload written to a shard must be a **single line**: the
/// upstream connections speak the newline-delimited framing, so a
/// multi-line HTTP body forwarded verbatim would be split into several
/// shard requests (and desync the pooled connection). Such payloads are
/// re-encoded canonically from the parsed request — same decoded
/// fields, same digest; single-line payloads forward untouched.
fn forwardable<'a>(
    line: &'a str,
    request: &protocol::Request,
    env: &Envelope,
) -> std::borrow::Cow<'a, str> {
    if !line.contains(['\n', '\r']) {
        return std::borrow::Cow::Borrowed(line);
    }
    std::borrow::Cow::Owned(match env.version {
        2 => request.encode_v2(env.id.as_ref()),
        _ => request.encode_v1(),
    })
}

/// Forwards `line` to the shard where `digest`'s cache entry lives — the
/// recorded home if one exists, otherwise the ring owner — rehashing
/// down the ring's candidate order past unreachable shards. A failed
/// exchange marks the shard down; one reconnect is attempted first in
/// case only the pooled connection was stale (idle timeout, shard
/// restart). Retrying a half-exchanged line elsewhere is safe: layouts
/// are pure functions of their digest.
fn forward(
    state: &RouterState,
    topo: &Topology,
    conns: &mut Vec<Option<Connection>>,
    line: &str,
    digest: Digest,
    is_delta: bool,
    env: &Envelope,
) -> (String, Option<usize>) {
    // A recorded home is trusted only while it names an active slot:
    // entries never leave an active shard except by eviction, but a
    // drain tombstones its slot — and a stale override could otherwise
    // route an edit chain at a removed member forever.
    let home = state
        .homes
        .peek(digest)
        .filter(|&s| s < topo.slots.len() && topo.slots[s].state.active());
    let order = home
        .into_iter()
        .chain(topo.ring.candidates(digest.lo).filter(|&s| Some(s) != home));
    // `hops` counts *attempted-but-unavailable* candidates, so a reroute
    // means failover — not a tombstone walked past (the steady state
    // after a drain) and not the by-design old-owner read during a join.
    let mut hops = 0u32;
    for shard in order {
        let slot = &topo.slots[shard];
        if !slot.state.active() {
            continue; // tombstone: never a candidate
        }
        if slot.state == SlotState::Joining && !state.transfer_passed(shard, digest) {
            // The joining shard does not hold this digest yet; its old
            // owner — the next candidate — still serves it.
            continue;
        }
        if !slot.health.is_up() {
            hops += 1;
            continue; // the probe thread owns recovery
        }
        match exchange_on(conns, shard, &slot.health.addr, state, line) {
            Ok(reply) => {
                slot.health.count_forwarded();
                state.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if hops > 0 {
                    state.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                }
                record_result_home(state, topo, shard, digest, is_delta, &reply);
                return (reply, Some(shard));
            }
            Err(_) => {
                slot.health.mark_down();
                hops += 1;
            }
        }
    }
    state.counters.unroutable.fetch_add(1, Ordering::Relaxed);
    let reply = Response::Error(WireError::new(
        ErrorKind::Unroutable,
        format!(
            "no shards available: all {} backends are down",
            topo.active().count()
        ),
    ))
    .encode(env);
    (reply, None)
}

/// Records where a successfully served result actually lives when that
/// differs from its digest's ring owner, so later requests naming the
/// digest route straight to the cache entry:
///
/// * a `layout_delta` result is cached under the *edited* request's
///   digest (taken from the reply) on the shard that held the base —
///   recording it is what keeps an edit chain warm and on one shard;
/// * a failed-over `layout` is cached wherever it rehashed to.
///
/// Deadline-truncated results are never cached by the shard, so they
/// never earn a home entry either.
fn record_result_home(
    state: &RouterState,
    topo: &Topology,
    shard: usize,
    request_digest: Digest,
    is_delta: bool,
    reply: &str,
) {
    // The wire encoding is canonical (our own encoder, escaped strings),
    // so these substring probes cannot false-positive inside a value.
    if !reply.contains("\"ok\":true") || reply.contains("\"stopped_early\":true") {
        return;
    }
    if is_delta {
        let Ok(v) = protocol::parse(reply) else {
            return;
        };
        let Some(d) = v
            .get("digest")
            .and_then(Json::as_str)
            .and_then(Digest::from_hex)
        else {
            return;
        };
        if topo.primary(d.lo) != shard {
            state.homes.insert(d, shard);
        }
    } else if topo.primary(request_digest.lo) != shard {
        state.homes.insert(request_digest, shard);
    }
}

/// Write-through replication + read repair for a just-served layout.
///
/// With [`RouterConfig::replicas`] `= N ≥ 2`, a fresh result (source
/// `computed` or `warm`, not deadline-truncated) is re-encoded as a
/// `cache_put` and delivered to the next `N−1` live ring candidates
/// after the serving shard, so a single shard death loses no cached
/// work. A cache *hit* served by a non-owner shard (failover) is written
/// back to its ring owner instead — read repair — and the digest's
/// recorded home is pointed back at the owner, so traffic returns to the
/// primary once the probe revives it. `coalesced` results need no put:
/// they share a digest with the `computed` result that already
/// replicated. Puts ride the handler's pooled connections; a failed put
/// marks the target down (the probe owns recovery) — replication is
/// best-effort and never fails the client's request.
fn replicate(
    state: &RouterState,
    topo: &Topology,
    conns: &mut Vec<Option<Connection>>,
    req: &LayoutRequest,
    digest: Digest,
    shard: usize,
    reply: &str,
) {
    // During a join, a fresh result whose *post-join* ring owner is the
    // still-joining shard is written to both homes: the old owner served
    // (and cached) it, and a copy goes to the joining shard so the
    // transfer sweep has nothing to chase. Active even with replication
    // off — it is handoff correctness, not durability.
    let dual = state
        .transfer
        .lock()
        .as_ref()
        .map(|t| t.target)
        .filter(|&j| j != shard && j < topo.slots.len() && topo.ring.owner(digest.lo) == j);
    if state.replicas < 2 && dual.is_none() {
        return;
    }
    // Cheap substring gates first (the wire encoding is canonical, so
    // these cannot false-positive inside a value) — a stats-heavy or
    // replication-off fleet never pays for the reply re-parse.
    if !reply.contains("\"ok\":true") || reply.contains("\"stopped_early\":true") {
        return;
    }
    let Ok((Response::Layout(lr), _)) = protocol::parse_response(reply) else {
        return;
    };
    let owner = topo.primary(digest.lo);
    let mut targets: Vec<usize> = if state.replicas >= 2 {
        match lr.source.as_str() {
            "computed" | "warm" => topo
                .ring
                .candidates(digest.lo)
                .filter(|&s| {
                    s != shard && topo.slots[s].state.active() && topo.slots[s].health.is_up()
                })
                .take(state.replicas - 1)
                .collect(),
            "hit" if shard != owner && topo.slots[owner].health.is_up() => vec![owner],
            _ => Vec::new(),
        }
    } else {
        Vec::new()
    };
    if let Some(j) = dual {
        // Only fresh results dual-home: a hit already lives on its old
        // owner and the transfer stream covers it.
        if matches!(lr.source.as_str(), "computed" | "warm")
            && topo.slots[j].health.is_up()
            && !targets.contains(&j)
        {
            targets.push(j);
        }
    }
    if targets.is_empty() {
        return;
    }
    let entry = CacheEntry {
        digest,
        nodes: req.graph.node_count() as u64,
        edges: req
            .graph
            .edges()
            .map(|(a, b)| (a.index() as u32, b.index() as u32))
            .collect(),
        layers: lr.layers.clone(),
        nd_width: req.nd_width,
        reversed_edges: lr.reversed_edges,
        seeded: lr.seeded,
        certified: lr.certified,
        compute_micros: lr.compute_micros,
    };
    let put = Request::CachePut(Box::new(entry)).encode_v1();
    for target in targets {
        let health = &topo.slots[target].health;
        match exchange_on(conns, target, &health.addr, state, &put) {
            Ok(ack) if ack.contains("\"ok\":true") => {
                if dual == Some(target) {
                    // Handoff traffic, not a durability replica.
                    state.counters.transferred.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                state.counters.replica_puts.fetch_add(1, Ordering::Relaxed);
                if target == owner && shard != owner {
                    state.counters.read_repairs.fetch_add(1, Ordering::Relaxed);
                    // The owner holds the entry again: point the home
                    // override back at the primary.
                    state.homes.insert(digest, owner);
                }
            }
            Ok(_) => {}
            Err(_) => health.mark_down(),
        }
    }
}

/// One exchange on the handler's pooled connection to `shard`,
/// reconnecting once if the pooled connection turns out to be dead.
/// On error the pool slot is left empty.
fn exchange_on(
    conns: &mut Vec<Option<Connection>>,
    shard: usize,
    addr: &str,
    state: &RouterState,
    line: &str,
) -> std::io::Result<String> {
    if conns.len() <= shard {
        // The fleet grew under this handler: give joined slots a pool.
        conns.resize_with(shard + 1, || None);
    }
    let had_pooled = conns[shard].is_some();
    if had_pooled {
        if let Ok(reply) = conns[shard].as_mut().expect("just checked").exchange(line) {
            return Ok(reply);
        }
        // Stale pooled connection: fall through to a fresh connect. A
        // request/reply is all-or-nothing on a shard (layouts are pure
        // functions of the digest), so re-sending is safe.
        conns[shard] = None;
    }
    let mut fresh = Connection::connect_timeout(addr, ClientTransport::Tcp, state.connect_timeout)?;
    fresh.set_read_timeout(Some(state.io_timeout))?;
    let reply = fresh.exchange(line)?;
    conns[shard] = Some(fresh);
    Ok(reply)
}

/// Entries pulled per `cache_pull` page during a transfer; well under
/// the shard-side cap, large enough that a transfer is page-bound, not
/// round-trip-bound.
const TRANSFER_PAGE: u64 = 256;

/// A live `shard_join`: appends the new shard to the topology as
/// `Joining`, streams every cache entry it now owns from the old
/// owners while requests keep serving (reads chase the transfer
/// cursor; fresh results dual-home), then promotes it to `Live` and
/// sweeps the straggler window shut. Serialized with other admin ops;
/// ordinary traffic is never blocked.
fn admin_join(
    state: &RouterState,
    conns: &mut Vec<Option<Connection>>,
    addr: &str,
    env: &Envelope,
) -> String {
    let _serialized = state.admin.lock();
    let topo = state.topology.snapshot();
    if topo
        .slots
        .iter()
        .any(|s| s.state.active() && s.health.addr == addr)
    {
        return Response::Error(WireError::new(
            ErrorKind::InvalidRequest,
            format!("invalid request: shard_join: {addr} is already a fleet member"),
        ))
        .encode(env);
    }
    if !ping_shard(state, addr) {
        return Response::Error(WireError::new(
            ErrorKind::InvalidRequest,
            format!("invalid request: shard_join: cannot reach {addr}"),
        ))
        .encode(env);
    }
    // Publish the joining topology: a new slot appended, the ring grown
    // to a point-superset of the old one — only keys the new shard owns
    // change owner (property-tested in ring_proptests).
    let joined = topo.slots.len();
    let mut slots = topo.slots.clone();
    slots.push(Slot {
        health: Arc::new(ShardHealth::new(addr.to_string())),
        state: SlotState::Joining,
    });
    let joining = publish(state, &topo, slots);
    *state.transfer.lock() = Some(Transfer {
        target: joined,
        cursor: 0,
    });
    state.counters.joins.fetch_add(1, Ordering::Relaxed);
    // First pass advances the read cursor, so requests start landing on
    // the new shard digest range by digest range as entries arrive.
    let mut sent: HashSet<u128> = HashSet::new();
    let mut moved = stream_owned_keys(state, conns, &joining, joined, &mut sent, true);
    // Writes that raced a passed cursor landed on old owners (minus the
    // dual-homed ones): re-sweep until a full pass moves nothing new.
    loop {
        let more = stream_owned_keys(state, conns, &joining, joined, &mut sent, false);
        moved += more;
        if more == 0 {
            break;
        }
    }
    // The new shard holds everything it owns: serve it unconditionally.
    let mut slots = joining.slots.clone();
    slots[joined].state = SlotState::Live;
    let live = publish(state, &joining, slots);
    *state.transfer.lock() = None;
    // Requests in flight across the flip may still have written to an
    // old owner under the joining snapshot — close that window too.
    loop {
        let more = stream_owned_keys(state, conns, &live, joined, &mut sent, false);
        moved += more;
        if more == 0 {
            break;
        }
    }
    topology_reply(&live, moved, env)
}

/// A live `shard_drain`: marks the shard `Draining` (it keeps serving),
/// streams every entry it holds — ring-owned or homed — to each
/// entry's next ring candidate, tombstones the slot, then keeps
/// sweeping the (still reachable, just out of rotation) shard until a
/// pass moves nothing: requests in flight across the flip cannot strand
/// an entry. Zero cached work is lost.
fn admin_drain(
    state: &RouterState,
    conns: &mut Vec<Option<Connection>>,
    addr: &str,
    env: &Envelope,
) -> String {
    let _serialized = state.admin.lock();
    let topo = state.topology.snapshot();
    let Some(drained) = topo
        .slots
        .iter()
        .position(|s| s.state.active() && s.health.addr == addr)
    else {
        return Response::Error(WireError::new(
            ErrorKind::InvalidRequest,
            format!("invalid request: shard_drain: {addr} is not a fleet member"),
        ))
        .encode(env);
    };
    if topo.slots[drained].state != SlotState::Live {
        return Response::Error(WireError::new(
            ErrorKind::InvalidRequest,
            format!(
                "invalid request: shard_drain: {addr} is {}, not live",
                topo.slots[drained].state.name()
            ),
        ))
        .encode(env);
    }
    if topo.active().count() <= 1 {
        return Response::Error(WireError::new(
            ErrorKind::InvalidRequest,
            format!("invalid request: shard_drain: refusing to remove the last shard {addr}"),
        ))
        .encode(env);
    }
    let mut slots = topo.slots.clone();
    slots[drained].state = SlotState::Draining;
    let draining = publish(state, &topo, slots);
    state.counters.drains.fetch_add(1, Ordering::Relaxed);
    let mut sent: HashSet<u128> = HashSet::new();
    let mut moved = 0u64;
    loop {
        let more = drain_pass(state, conns, &draining, drained, &mut sent);
        moved += more;
        if more == 0 {
            break;
        }
    }
    // Tombstone the slot: new requests walk past it, indices of every
    // surviving slot are untouched, so no other key moves.
    let mut slots = draining.slots.clone();
    slots[drained].state = SlotState::Removed;
    let removed = publish(state, &draining, slots);
    loop {
        let more = drain_pass(state, conns, &removed, drained, &mut sent);
        moved += more;
        if more == 0 {
            break;
        }
    }
    topology_reply(&removed, moved, env)
}

/// One preflight ping over a fresh connection (admin ops refuse rather
/// than enroll a shard that cannot answer).
fn ping_shard(state: &RouterState, addr: &str) -> bool {
    Connection::connect_timeout(addr, ClientTransport::Tcp, state.connect_timeout)
        .and_then(|mut conn| {
            conn.set_read_timeout(Some(state.connect_timeout))?;
            conn.exchange(r#"{"op":"ping"}"#)
        })
        .map(|reply| reply.contains("\"ok\":true"))
        .unwrap_or(false)
}

/// Publishes the successor topology: `epoch + 1`, ring rebuilt over the
/// (possibly grown) slot vector.
fn publish(state: &RouterState, prev: &Topology, slots: Vec<Slot>) -> Arc<Topology> {
    let next = Arc::new(Topology {
        epoch: prev.epoch + 1,
        ring: HashRing::new(slots.len(), state.vnodes),
        slots,
    });
    state.topology.publish(next.clone());
    next
}

/// One full pass of the join transfer: page through every active
/// source's cache, copying each entry the joining slot now owns (and
/// has not already received) to it. With `advance`, the global read
/// cursor — the minimum unfinished per-source cursor — is published
/// after every page, so reads chase the transfer instead of waiting
/// for it. Returns entries moved this pass.
fn stream_owned_keys(
    state: &RouterState,
    conns: &mut Vec<Option<Connection>>,
    topo: &Topology,
    joined: usize,
    sent: &mut HashSet<u128>,
    advance: bool,
) -> u64 {
    let sources: Vec<usize> = topo.active().filter(|&i| i != joined).collect();
    let mut cursors: Vec<Option<Digest>> = vec![None; sources.len()];
    let mut done: Vec<bool> = sources
        .iter()
        .map(|&src| !topo.slots[src].health.is_up())
        .collect();
    let target_addr = topo.slots[joined].health.addr.clone();
    let mut moved = 0u64;
    while done.iter().any(|d| !d) {
        for k in 0..sources.len() {
            if done[k] {
                continue;
            }
            let src = sources[k];
            let health = &topo.slots[src].health;
            let pull = Request::CachePull {
                cursor: cursors[k],
                limit: TRANSFER_PAGE,
            }
            .encode_v1();
            let page = exchange_on(conns, src, &health.addr, state, &pull)
                .ok()
                .and_then(|reply| match protocol::parse_response(&reply) {
                    Ok((Response::CachePage(page), _)) => Some(page),
                    _ => None,
                });
            let Some(page) = page else {
                // An unreachable source cannot be paged; its entries
                // surface through failover, not the transfer.
                health.mark_down();
                done[k] = true;
                continue;
            };
            for entry in page.entries {
                let key = entry.digest.as_u128();
                if topo.ring.owner(entry.digest.lo) != joined || sent.contains(&key) {
                    continue;
                }
                let put = Request::CachePut(Box::new(entry)).encode_v1();
                if let Ok(ack) = exchange_on(conns, joined, &target_addr, state, &put) {
                    if ack.contains("\"ok\":true") {
                        sent.insert(key);
                        moved += 1;
                        state.counters.transferred.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            cursors[k] = page.next;
            if page.done || page.next.is_none() {
                done[k] = true;
            }
            if advance {
                // Everything at or below every unfinished source's
                // cursor has been copied; finished sources bound nothing.
                let floor = sources
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !done[i])
                    .map(|(i, _)| cursors[i].map_or(0, |d| d.as_u128()))
                    .min()
                    .unwrap_or(u128::MAX);
                if let Some(t) = state.transfer.lock().as_mut() {
                    t.cursor = floor;
                }
            }
        }
    }
    moved
}

/// One full pass of a drain: page through the draining shard's cache,
/// copying every entry not yet relocated to its first available ring
/// candidate. Returns entries moved this pass (a zero-moved pass means
/// quiescence).
fn drain_pass(
    state: &RouterState,
    conns: &mut Vec<Option<Connection>>,
    topo: &Topology,
    drained: usize,
    sent: &mut HashSet<u128>,
) -> u64 {
    let source_addr = topo.slots[drained].health.addr.clone();
    let mut cursor: Option<Digest> = None;
    let mut moved = 0u64;
    loop {
        let pull = Request::CachePull {
            cursor,
            limit: TRANSFER_PAGE,
        }
        .encode_v1();
        let page = exchange_on(conns, drained, &source_addr, state, &pull)
            .ok()
            .and_then(|reply| match protocol::parse_response(&reply) {
                Ok((Response::CachePage(page), _)) => Some(page),
                _ => None,
            });
        let Some(page) = page else {
            // A dead shard cannot be drained gracefully; what its cache
            // held is the crash-loss story (replication), not ours.
            return moved;
        };
        for entry in page.entries {
            let key = entry.digest.as_u128();
            if sent.contains(&key) {
                continue;
            }
            // Everything the shard holds moves — ring-owned entries,
            // homed delta results, replicas — each to the shard that
            // requests for its digest will now reach first.
            let Some(dest) = topo.ring.candidates(entry.digest.lo).find(|&s| {
                s != drained && topo.slots[s].state.active() && topo.slots[s].health.is_up()
            }) else {
                continue;
            };
            let dest_addr = topo.slots[dest].health.addr.clone();
            let put = Request::CachePut(Box::new(entry)).encode_v1();
            match exchange_on(conns, dest, &dest_addr, state, &put) {
                Ok(ack) if ack.contains("\"ok\":true") => {
                    sent.insert(key);
                    moved += 1;
                    state.counters.transferred.fetch_add(1, Ordering::Relaxed);
                }
                Ok(_) => {}
                Err(_) => topo.slots[dest].health.mark_down(),
            }
        }
        cursor = page.next;
        if page.done || cursor.is_none() {
            return moved;
        }
    }
}

/// The admin ops' reply: the published topology (every slot, tombstones
/// included, with its lifecycle state) plus how many entries the
/// transfer moved.
fn topology_reply(topo: &Topology, moved: u64, env: &Envelope) -> String {
    Response::Topology(Box::new(protocol::TopologyReply {
        epoch: topo.epoch,
        moved,
        shards: topo
            .slots
            .iter()
            .map(|slot| protocol::TopologyShard {
                addr: slot.health.addr.clone(),
                state: slot.state.name().into(),
            })
            .collect(),
    }))
    .encode(env)
}

/// Fans `{"op":"stats"}` out to every shard and aggregates: every
/// numeric counter in the shard replies is summed field-by-field (so new
/// server counters aggregate without touching the router), histogram
/// members are merged **bucket-wise** — counts sum, bounds align, and
/// percentiles are recomputed from the merged distribution, because
/// percentiles themselves never add (two shards at p99=10ms do not make
/// a fleet at p99=20ms) — plus router-level counters and a `per_shard`
/// health/traffic array carrying each shard's own `p99_us` and the age
/// of its up/down state.
fn stats_fanout(
    state: &RouterState,
    topo: &Topology,
    conns: &mut Vec<Option<Connection>>,
    env: &Envelope,
) -> String {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    let mut per_shard = Vec::with_capacity(topo.slots.len());
    let mut shards_up = 0usize;
    for i in topo.active() {
        let slot = &topo.slots[i];
        let health = &slot.health;
        let mut entry = BTreeMap::new();
        entry.insert("addr".into(), Json::Str(health.addr.clone()));
        entry.insert("state".into(), Json::Str(slot.state.name().into()));
        entry.insert("forwarded".into(), Json::Num(health.forwarded() as f64));
        entry.insert("failures".into(), Json::Num(health.failures() as f64));
        entry.insert(
            "age_ms".into(),
            Json::Num(health.status_age().as_millis() as f64),
        );
        let reply = if health.is_up() {
            exchange_on(conns, i, &health.addr, state, r#"{"op":"stats"}"#)
                .ok()
                .and_then(|r| protocol::parse(&r).ok())
        } else {
            None
        };
        match reply {
            Some(Json::Obj(members)) => {
                shards_up += 1;
                entry.insert("up".into(), Json::Bool(true));
                // This shard's own request p99, so a fleet operator can
                // spot the one slow shard the merged fleet histogram
                // would average away.
                if let Some(snap) = members
                    .get("server_request_us")
                    .and_then(protocol::histogram_from_json)
                {
                    entry.insert("p99_us".into(), Json::Num(snap.percentile(0.99) as f64));
                }
                for (k, v) in members {
                    if let Json::Num(n) = v {
                        *sums.entry(k).or_insert(0.0) += n;
                    } else if let Some(snap) = protocol::histogram_from_json(&v) {
                        hists
                            .entry(k)
                            .and_modify(|merged| merged.merge(&snap))
                            .or_insert(snap);
                    }
                }
            }
            _ => {
                health.mark_down();
                entry.insert("up".into(), Json::Bool(false));
                if let Some(d) = health.down_for() {
                    entry.insert("down_ms".into(), Json::Num(d.as_millis() as f64));
                }
            }
        }
        per_shard.push(Json::Obj(entry));
    }
    // Summed shard counters go in first; every router-owned key is
    // inserted *after*, so a future shard counter that happens to share
    // a name (say the server grows a numeric "shards" stat) can never
    // clobber the router's health fields — the router's value wins.
    let mut counters: BTreeMap<String, Json> = BTreeMap::new();
    for (k, v) in sums {
        counters.insert(k, Json::Num(v));
    }
    for (k, snap) in hists {
        counters.insert(k, protocol::histogram_json(&snap));
    }
    counters.insert("router".into(), Json::Bool(true));
    counters.insert("shards".into(), Json::Num(topo.active().count() as f64));
    counters.insert("shards_up".into(), Json::Num(shards_up as f64));
    counters.insert("topology_epoch".into(), Json::Num(topo.epoch as f64));
    let c = &state.counters;
    counters.insert(
        "router_forwarded".into(),
        Json::Num(c.forwarded.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_rerouted".into(),
        Json::Num(c.rerouted.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_unroutable".into(),
        Json::Num(c.unroutable.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "replica_puts".into(),
        Json::Num(c.replica_puts.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "read_repairs".into(),
        Json::Num(c.read_repairs.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_joins".into(),
        Json::Num(c.joins.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_drains".into(),
        Json::Num(c.drains.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_transferred".into(),
        Json::Num(c.transferred.load(Ordering::Relaxed) as f64),
    );
    counters.insert(
        "router_request_us".into(),
        protocol::histogram_json(&state.request_us.snapshot()),
    );
    counters.insert("per_shard".into(), Json::Arr(per_shard));
    Response::Stats(counters).encode(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_empty_shard_list() {
        let err = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        });
        assert!(err.is_err());
    }

    #[test]
    fn multi_line_payloads_are_reencoded_before_forwarding() {
        // An HTTP client may POST pretty-printed (multi-line) JSON; the
        // line-framed upstream would split it into several shard
        // requests, so forwarding must canonicalize it to one line.
        let line = "{\"op\":\"layout\",\r\n \"nodes\":3,\n \"edges\":[[0,1],[1,2]]}";
        let (request, env) = protocol::parse_request_envelope(line).unwrap();
        let wire = forwardable(line, &request, &env);
        assert!(!wire.contains(['\n', '\r']));
        let (Request::Layout(a), Request::Layout(b)) =
            (&request, &protocol::parse_request(&wire).unwrap())
        else {
            panic!("expected layout requests");
        };
        assert_eq!(a.digest(), b.digest(), "re-encoding preserves identity");

        // Single-line payloads forward verbatim (zero-copy).
        let single = r#"{"op":"layout","nodes":3,"edges":[[0,1],[1,2]]}"#;
        let (request, env) = protocol::parse_request_envelope(single).unwrap();
        assert!(matches!(
            forwardable(single, &request, &env),
            std::borrow::Cow::Borrowed(_)
        ));

        // A v2 multi-line payload keeps its envelope through the
        // re-encoding, so the shard still seals v/id onto the reply.
        let v2 = "{\"v\":2,\n\"op\":\"layout\",\"id\":9,\"body\":{\"nodes\":2}}";
        let (request, env) = protocol::parse_request_envelope(v2).unwrap();
        let wire = forwardable(v2, &request, &env);
        assert!(
            wire.contains("\"v\":2") && wire.contains("\"id\":9"),
            "{wire}"
        );
    }

    #[test]
    fn ring_matches_config_shape() {
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(router.ring().shards(), 2);
    }

    #[test]
    fn initial_topology_is_all_live_at_epoch_one() {
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            ..Default::default()
        })
        .unwrap();
        let topo = router.state.topology.snapshot();
        assert_eq!(topo.epoch, 1);
        assert!(topo.slots.iter().all(|s| s.state == SlotState::Live));
        assert_eq!(topo.active().count(), 2);
    }

    #[test]
    fn primary_walks_past_tombstones_and_stale_homes_expire() {
        // A three-slot topology with slot 1 tombstoned: every key's
        // primary must be a surviving slot, and it must equal the first
        // non-tombstone ring candidate (the drain handoff destination).
        let slots: Vec<Slot> = (0..3)
            .map(|i| Slot {
                health: Arc::new(ShardHealth::new(format!("127.0.0.1:{i}"))),
                state: if i == 1 {
                    SlotState::Removed
                } else {
                    SlotState::Live
                },
            })
            .collect();
        let topo = Topology {
            epoch: 7,
            ring: HashRing::new(3, 64),
            slots,
        };
        for key in [0u64, 17, 9_999, u64::MAX / 3, u64::MAX] {
            let p = topo.primary(key);
            assert_ne!(p, 1, "tombstone chosen for key {key}");
            assert_eq!(
                p,
                topo.ring
                    .candidates(key)
                    .find(|&s| s != 1)
                    .expect("two slots survive")
            );
        }
        // Home-override validity: one recorded at the tombstoned slot
        // is dead (the stale-home bug a drain would otherwise hit),
        // while one at a surviving slot outlives any number of
        // topology changes — slot indices are never reused.
        let homes: ShardedCache<usize> = ShardedCache::new(16, 2);
        let d = Digest { hi: 1, lo: 2 };
        homes.insert(d, 1);
        let valid = |s: &usize| *s < topo.slots.len() && topo.slots[*s].state.active();
        assert_eq!(homes.peek(d).filter(valid), None);
        homes.insert(d, 2);
        assert_eq!(homes.peek(d).filter(valid), Some(2));
    }
}
