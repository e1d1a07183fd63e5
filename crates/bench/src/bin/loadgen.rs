//! `loadgen` — load generator for the `antlayer serve` subsystem.
//!
//! Spawns an in-process server on a loopback port (or a whole sharded
//! fleet with `--router`, or targets an external endpoint via `--addr`),
//! drives it with concurrent `antlayer-client` clients over either wire
//! framing, and reports throughput, goodput and latency percentiles for
//! cold (every request a new graph), cached (one graph requested
//! repeatedly), mixed, and edit (interactive editing sessions speaking
//! `layout_delta`) workloads.
//!
//! ```text
//! loadgen [--mode cold|cached|mixed|edit|live] [--requests N] [--clients C]
//!         [--n NODES] [--ants A] [--tours T] [--deadline-ms D]
//!         [--threads W] [--addr HOST:PORT] [--retries R]
//!         [--retry-budget B] [--transport tcp|http] [--router]
//!         [--shards S] [--idle I]
//! ```
//!
//! `live` mode drives the push protocol instead of request/reply: the
//! generator spawns a server with the `--live` reactor listener, holds
//! `--idle` idle sessions open (multiplexed ~100 to a connection), and
//! runs `--clients` hot sessions that each stream add-only
//! topology-respecting edits and block for the pushed re-layout —
//! reporting the client-observed update-to-push latency, the warm rate
//! (add-only edits make every push deterministically warm), and the
//! server's session counters. `experiments live` gates this shape in
//! CI (`BENCH_10.json`).
//!
//! `--transport http` speaks the hand-rolled HTTP/1.1 framing
//! (`POST /v2`) instead of newline-delimited TCP; the protocol — and
//! therefore the digests, cache hits, and results — is identical, which
//! `experiments transport` gates in CI (`BENCH_5.json`).
//!
//! With `--router` (and no `--addr`), the generator boots `--shards`
//! in-process shard servers plus an `antlayer-router` front and drives
//! everything through the router — the full sharded topology on
//! loopback. With `--addr`, the target may equally be a single server or
//! an external router: the wire protocol is identical.
//!
//! In `edit` mode every client opens its own editing session: one full
//! `layout` of a private base graph, then a chain of `layout_delta`
//! requests each editing 1–3 edges and warm-starting from the previous
//! response's digest. If the server evicted the base (`base not found`)
//! — or, through a router, the base's shard went down — the typed
//! client recovers in-step with an automatic full layout and the chain
//! resumes (`antlayer_client::Outcome::fell_back`, reported as
//! `rebases`); the router regression tests exercise the same path.
//!
//! `overloaded` responses are **not** fatal: the client retries with
//! exponential backoff (up to `--retries`, default 8) and the report
//! separates *goodput* (successful layouts per second) from raw
//! attempt throughput, per the backpressure design: servers shed load,
//! clients pace themselves. `--retry-budget B` additionally caps each
//! client session's *lifetime* retry spend at `B` (the typed client's
//! `ClientConfig::retry_budget`): once a session has burned its budget
//! later `overloaded` replies drop immediately instead of backing off,
//! and the goodput report shows the fleet-wide spend and how many
//! sessions ran dry.
//!
//! With no `--addr`, the spawned fleet is shut down around the run and
//! its cache/scheduler counters are printed at the end (`computed` vs
//! `cache_hits` shows how much work the digest cache absorbed; `seeded`
//! responses show warm starts; through a router the counters are the
//! fleet-wide aggregates of the `stats` fan-out).

use antlayer_bench::loadclient::{
    base_graph, percentile, spawn_live_shard, spawn_shard_with, EditSession, IdleSessions,
    LiveEditSession, LivePush, RequestProfile, Tallies,
};
use antlayer_client::{Client, ClientError, Json, Transport};
use antlayer_graph::DiGraph;
use antlayer_router::{Router, RouterConfig, RouterHandle};
use antlayer_service::protocol::histogram_from_json;
use antlayer_service::server::ServerHandle;
use std::sync::atomic::Ordering;
use std::time::Instant;

struct Options {
    mode: String,
    requests: usize,
    clients: usize,
    profile: RequestProfile,
    threads: usize,
    addr: Option<String>,
    transport: Transport,
    router: bool,
    shards: usize,
    idle: usize,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Options {
        mode: "mixed".into(),
        requests: 200,
        clients: 4,
        profile: RequestProfile::default(),
        threads: 0,
        addr: None,
        transport: Transport::Tcp,
        router: false,
        shards: 2,
        idle: 0,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => o.mode = value(&mut i)?,
            "--requests" => o.requests = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => o.clients = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--n" => o.profile.n = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--ants" => o.profile.ants = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--tours" => o.profile.tours = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--deadline-ms" => {
                o.profile.deadline_ms = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--threads" => o.threads = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--addr" => o.addr = Some(value(&mut i)?),
            "--retries" => {
                o.profile.retries = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--retry-budget" => {
                o.profile.retry_budget = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--transport" => o.transport = Transport::parse(&value(&mut i)?)?,
            "--router" => o.router = true,
            "--shards" => o.shards = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--idle" => o.idle = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if !["cold", "cached", "mixed", "edit", "live"].contains(&o.mode.as_str()) {
        return Err(format!(
            "--mode must be cold|cached|mixed|edit|live, got '{}'",
            o.mode
        ));
    }
    if o.mode == "live" && (o.addr.is_some() || o.router || o.transport != Transport::Tcp) {
        return Err(
            "--mode live spawns its own in-process server and speaks the reactor's \
             line-TCP push protocol; --addr, --router and --transport http do not apply"
                .into(),
        );
    }
    if o.mode != "live" && o.idle != 0 {
        return Err("--idle only applies to --mode live".into());
    }
    if o.requests == 0 || o.clients == 0 {
        return Err("--requests and --clients must be positive".into());
    }
    if o.router && o.shards == 0 {
        return Err("--shards must be positive".into());
    }
    Ok(o)
}

/// Static-workload client for the cold/cached/mixed modes: replays the
/// pre-built (graph, seed) items through the typed client. Returns the
/// request latencies and the session's lifetime retry spend (what the
/// `--retry-budget` cap is charged against).
fn run_static_client(
    o: &Options,
    addr: &str,
    workload: &[(DiGraph, u64)],
    range: std::ops::Range<usize>,
    tallies: &Tallies,
) -> (Vec<u64>, u64) {
    let mut client =
        Client::connect_with(addr, o.profile.client_config(o.transport)).expect("connect");
    let mut lat = Vec::with_capacity(range.len());
    for i in range {
        let (graph, seed) = &workload[i % workload.len()];
        let options = o.profile.options(*seed);
        let t0 = Instant::now();
        match client.layout(graph, &options) {
            Ok(outcome) => {
                lat.push(t0.elapsed().as_micros() as u64);
                tallies.good.fetch_add(1, Ordering::Relaxed);
                tallies
                    .retried
                    .fetch_add(outcome.retried as u64, Ordering::Relaxed);
            }
            Err(ClientError::Dropped { attempts }) => {
                tallies
                    .retried
                    .fetch_add(attempts.saturating_sub(1) as u64, Ordering::Relaxed);
                tallies.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("server error: {e}"),
        }
    }
    let spent = client.retries_spent();
    (lat, spent)
}

/// Editing-session client: one base layout, then a `layout_delta` chain.
fn run_edit_client(
    o: &Options,
    addr: &str,
    client: usize,
    steps: usize,
    tallies: &Tallies,
) -> (Vec<u64>, u64) {
    let mut session = EditSession::open_with(addr, o.transport, o.profile.clone(), client);
    let mut lat = Vec::with_capacity(steps);
    for _ in 0..steps {
        if let Some(micros) = session.step(tallies) {
            lat.push(micros);
        }
    }
    let spent = session.retries_spent();
    (lat, spent)
}

/// Live (push) mode: spawns a server with the reactor listener, holds
/// `--idle` idle sessions open across multiplexed connections, then
/// drives `--clients` hot sessions ping-pong — each streams add-only
/// topology-respecting edits and blocks for the resulting push, so
/// every push must be warm and every version strictly monotonic
/// (enforced client-side by `Session::apply_update`).
fn run_live(o: &Options) {
    let handle = spawn_live_shard(o.threads);
    let live = handle
        .live_addr()
        .expect("shard spawned with a live listener")
        .to_string();
    println!(
        "loadgen: mode=live requests={} clients={} idle={} n={} colony={}x{} live={live}",
        o.requests, o.clients, o.idle, o.profile.n, o.profile.ants, o.profile.tours
    );

    let idle = if o.idle > 0 {
        let t0 = Instant::now();
        let fleet =
            IdleSessions::open(&live, &o.profile, o.idle, 100, 32).expect("idle sessions open");
        println!(
            "idle: {} sessions held open across {} distinct graphs in {:.3} s",
            fleet.len(),
            32.min(o.idle),
            t0.elapsed().as_secs_f64()
        );
        Some(fleet)
    } else {
        None
    };

    let started = Instant::now();
    let per_client = o.requests.div_ceil(o.clients);
    let results: Vec<Vec<LivePush>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..o.clients {
            let lo = client * per_client;
            let hi = ((client + 1) * per_client).min(o.requests);
            if lo >= hi {
                break;
            }
            let (o, live) = (&o, live.as_str());
            handles.push(scope.spawn(move || {
                let mut session = LiveEditSession::open(live, &o.profile, 0xF00D + client as u64)
                    .expect("hot session open");
                let pushes: Vec<LivePush> = (lo..hi)
                    .map(|_| session.step().expect("live step"))
                    .collect();
                session.close().expect("hot session close");
                pushes
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("live client"))
            .collect()
    });
    let wall = started.elapsed();

    let pushes: Vec<&LivePush> = results.iter().flatten().collect();
    let warm = pushes.iter().filter(|p| p.warm).count();
    let refreshed = pushes.iter().filter(|p| p.refreshed).count();
    let coalesced: u64 = pushes.iter().map(|p| p.coalesced).sum();
    let mut lat: Vec<u64> = pushes.iter().map(|p| p.micros).collect();
    lat.sort_unstable();
    let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    println!(
        "pushes: {:.1}/s ({} received, {warm} warm, {refreshed} refreshed, {coalesced} coalesced in {:.3} s)",
        pushes.len() as f64 / wall.as_secs_f64(),
        pushes.len(),
        wall.as_secs_f64()
    );
    println!(
        "update-to-push us: mean {:.0}  p50 {}  p95 {}  p99 {}  max {}",
        mean,
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
        lat.last().copied().unwrap_or(0)
    );

    if let Some(fleet) = idle {
        let held = fleet.len();
        let acked = fleet.close_all().expect("idle sessions close");
        println!("idle: {acked}/{held} close acks");
    }

    // Server-side session counters over the request listener.
    let stats = Client::connect(&handle.addr().to_string())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()));
    if let Ok(stats) = stats {
        let f = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "server: session_pushes {}  session_coalesced {}  session_evicted {}  cold_refresh {}  computed {}  cache_hits {}",
            f("session_pushes"),
            f("session_coalesced"),
            f("session_evicted"),
            f("cold_refresh"),
            f("computed"),
            f("cache_hits")
        );
        let hist = |k: &str| stats.get(k).and_then(histogram_from_json);
        if let Some(snap) = hist("session_push_us") {
            println!(
                "server-side push us: p50 {}  p95 {}  p99 {}  ({} pushes measured)",
                snap.percentile(0.50),
                snap.percentile(0.95),
                snap.percentile(0.99),
                snap.count
            );
        }
    }
    handle.shutdown();
}

/// The in-process fleet spawned when no `--addr` is given.
enum Fleet {
    None,
    Single(ServerHandle),
    Sharded(Vec<ServerHandle>, RouterHandle),
}

/// The client-facing address of a handle on the chosen transport.
fn server_addr(handle: &ServerHandle, transport: Transport) -> String {
    match transport {
        Transport::Tcp => handle.addr().to_string(),
        Transport::Http => handle
            .http_addr()
            .expect("shard spawned with an HTTP listener")
            .to_string(),
    }
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    if o.mode == "live" {
        run_live(&o);
        return;
    }
    let http = o.transport == Transport::Http;

    // Start (or target) the server / fleet.
    let (addr, fleet) = match &o.addr {
        Some(a) => (a.clone(), Fleet::None),
        None if o.router => {
            let shards: Vec<ServerHandle> = (0..o.shards)
                .map(|_| spawn_shard_with(o.threads, false))
                .collect();
            let router = Router::bind(RouterConfig {
                addr: "127.0.0.1:0".into(),
                http_addr: http.then(|| "127.0.0.1:0".to_string()),
                shards: shards.iter().map(|h| h.addr().to_string()).collect(),
                ..Default::default()
            })
            .expect("bind router")
            .spawn()
            .expect("spawn router");
            let addr = match o.transport {
                Transport::Tcp => router.addr().to_string(),
                Transport::Http => router
                    .http_addr()
                    .expect("router spawned with an HTTP listener")
                    .to_string(),
            };
            (addr, Fleet::Sharded(shards, router))
        }
        None => {
            let handle = spawn_shard_with(o.threads, http);
            (server_addr(&handle, o.transport), Fleet::Single(handle))
        }
    };

    // Pre-build the workload items for the static modes: cold = all
    // distinct, cached = one graph repeated, mixed = 10 distinct graphs
    // round-robin. Edit mode generates its chains on the fly.
    let workload: Vec<(DiGraph, u64)> = if o.mode == "edit" {
        Vec::new()
    } else {
        let distinct = match o.mode.as_str() {
            "cold" => o.requests,
            "cached" => 1,
            _ => 10.min(o.requests),
        };
        (0..distinct as u64)
            .map(|s| (base_graph(&o.profile, s), s))
            .collect()
    };

    let topology = match &fleet {
        Fleet::Sharded(shards, _) => format!("router+{} shards", shards.len()),
        _ => "direct".into(),
    };
    let budget = match o.profile.retry_budget {
        Some(b) => format!(" retry-budget={b}/session"),
        None => String::new(),
    };
    println!(
        "loadgen: mode={} requests={} clients={} n={} colony={}x{} retries={}{budget} transport={} addr={} ({topology})",
        o.mode,
        o.requests,
        o.clients,
        o.profile.n,
        o.profile.ants,
        o.profile.tours,
        o.profile.retries,
        o.transport.name(),
        addr
    );

    let tallies = Tallies::default();
    let started = Instant::now();
    let per_client = o.requests.div_ceil(o.clients);
    let results: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..o.clients {
            let lo = client * per_client;
            let hi = ((client + 1) * per_client).min(o.requests);
            if lo >= hi {
                break;
            }
            let (o, addr, workload, tallies) = (&o, addr.as_str(), &workload, &tallies);
            handles.push(scope.spawn(move || {
                if o.mode == "edit" {
                    run_edit_client(o, addr, client, hi - lo, tallies)
                } else {
                    run_static_client(o, addr, workload, lo..hi, tallies)
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = started.elapsed();

    let spends: Vec<u64> = results.iter().map(|(_, spent)| *spent).collect();
    let mut all: Vec<u64> = results.into_iter().flat_map(|(lat, _)| lat).collect();
    all.sort_unstable();
    let good = tallies.good.load(Ordering::Relaxed);
    let retried = tallies.retried.load(Ordering::Relaxed);
    let dropped = tallies.dropped.load(Ordering::Relaxed);
    let mean = all.iter().sum::<u64>() as f64 / all.len().max(1) as f64;
    println!(
        "goodput: {:.1} layouts/s ({good} ok, {retried} retries, {dropped} dropped in {:.3} s)",
        good as f64 / wall.as_secs_f64(),
        wall.as_secs_f64()
    );
    if let Some(budget) = o.profile.retry_budget {
        // Per-session spend against the lifetime cap: a session that
        // burned its whole budget drops every later `overloaded` reply
        // without backoff, so "exhausted" sessions explain drops above.
        let spent: u64 = spends.iter().sum();
        let exhausted = spends.iter().filter(|&&s| s >= budget).count();
        println!(
            "retry budget: {budget}/session, {spent} spent across {} sessions, {exhausted} exhausted",
            spends.len()
        );
    }
    if o.mode == "edit" {
        println!(
            "edit sessions: {} warm responses, {} rebases after eviction/failover",
            tallies.warm.load(Ordering::Relaxed),
            tallies.rebased.load(Ordering::Relaxed)
        );
    }
    println!(
        "latency us: mean {:.0}  p50 {}  p95 {}  p99 {}  max {}",
        mean,
        percentile(&all, 0.50),
        percentile(&all, 0.95),
        percentile(&all, 0.99),
        all.last().copied().unwrap_or(0)
    );

    // Pull the server-side counters over the wire; through a router the
    // same op fans out and the fields are the fleet-wide sums. Best
    // effort: an external target that went away after the run costs the
    // counter lines, not the exit status.
    let stats = Client::connect_with(&addr, o.profile.client_config(o.transport))
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()));
    if let Ok(stats) = stats {
        let f = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "server: computed {}  cache_hits {}  coalesced {}  rejected {}  evictions {}  lenient {}",
            f("computed"),
            f("cache_hits"),
            f("coalesced"),
            f("rejected"),
            f("cache_evictions"),
            f("lenient_requests")
        );
        if stats.get("router") == Some(&Json::Bool(true)) {
            println!(
                "router: {}/{} shards up, forwarded {}  rerouted {}  unroutable {}",
                f("shards_up"),
                f("shards"),
                f("router_forwarded"),
                f("router_rerouted"),
                f("router_unroutable")
            );
        }
        // The same run as the servers measured it, next to the
        // client-observed percentiles above: the gap between the two
        // vantage points is the wire + connection-handling overhead.
        let hist = |k: &str| stats.get(k).and_then(histogram_from_json);
        if let Some(snap) = hist("server_request_us") {
            println!(
                "server-side us: p50 {}  p95 {}  p99 {}  ({} requests measured on the shard{})",
                snap.percentile(0.50),
                snap.percentile(0.95),
                snap.percentile(0.99),
                snap.count,
                if matches!(fleet, Fleet::Sharded(..)) {
                    "s, merged bucket-wise"
                } else {
                    ""
                }
            );
        }
        if let Some(snap) = hist("router_request_us") {
            println!(
                "router-side us: p50 {}  p95 {}  p99 {}",
                snap.percentile(0.50),
                snap.percentile(0.95),
                snap.percentile(0.99)
            );
        }
    }

    match fleet {
        Fleet::None => {}
        Fleet::Single(handle) => handle.shutdown(),
        Fleet::Sharded(shards, router) => {
            router.shutdown();
            for s in shards {
                s.shutdown();
            }
        }
    }
}
