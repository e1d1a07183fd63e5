//! Elastic-fleet regression tests: live `shard_join` / `shard_drain`
//! through the router must lose no cached work. A warmed working set
//! stays `hit` across a join and a drain; a `layout_delta` chain stays
//! warm when the shard holding it is drained (and then killed) — the
//! epoch-tagged home map is what keeps the chain off the removed
//! member; and a shard that stalls past `io_timeout` is rerouted
//! around instead of stalling the request.

use antlayer_aco::AcoParams;
use antlayer_bench::faultplan::FaultFleet;
use antlayer_bench::loadclient::{base_graph, EditSession, RequestProfile, Tallies};
use antlayer_client::{Client, Json};
use antlayer_router::{Router, RouterConfig};
use antlayer_service::{AlgoSpec, LayoutRequest};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn small_profile() -> RequestProfile {
    RequestProfile {
        n: 24,
        ants: 3,
        tours: 3,
        ..Default::default()
    }
}

fn counter(stats: &BTreeMap<String, Json>, key: &str) -> u64 {
    match stats.get(key) {
        Some(Json::Num(n)) => *n as u64,
        other => panic!("stats[{key}] missing or non-numeric: {other:?}"),
    }
}

// The full lifecycle: warm a working set through the router, join a
// third shard live, drain (then kill) one of the founders — and every
// request in the set is still served from cache at each stage.
#[test]
fn join_then_drain_loses_no_cached_work() {
    let profile = small_profile();
    let mut fleet = FaultFleet::boot(2, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        probe_interval: Duration::from_millis(50),
        ..Default::default()
    })
    .unwrap();
    let handle = router.spawn().unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    // Warm a 12-request working set; each is a distinct graph.
    let set: Vec<_> = (0..12u64)
        .map(|i| {
            (
                base_graph(&profile, 0xA110 + i),
                profile.options(0xA110 + i),
            )
        })
        .collect();
    for (graph, options) in &set {
        let outcome = client.layout(graph, options).expect("warmup layout");
        assert_eq!(outcome.reply.source, "computed");
    }

    // Join a third shard while the fleet serves. The call blocks until
    // the handoff is quiescent, so the re-check below needs no sleeps.
    let joined = fleet.grow();
    let topo = client
        .shard_join(fleet.addr(joined))
        .expect("shard_join succeeds");
    assert_eq!(topo.epoch, 3, "join publishes joining then live");
    assert_eq!(topo.shards.len(), 3);
    assert!(
        topo.shards.iter().all(|s| s.state == "live"),
        "post-join topology not all live: {:?}",
        topo.shards
    );

    for (i, (graph, options)) in set.iter().enumerate() {
        let outcome = client.layout(graph, options).expect("post-join layout");
        assert_eq!(
            outcome.reply.source, "hit",
            "request {i} recomputed after the join"
        );
    }

    // Drain a founding shard: everything it holds streams out before
    // removal, so killing it afterwards loses nothing.
    let drained = client
        .shard_drain(fleet.addr(0))
        .expect("shard_drain succeeds");
    assert_eq!(drained.epoch, 5, "drain publishes draining then removed");
    assert_eq!(drained.shards[0].state, "removed");
    assert!(
        drained.shards[1..].iter().all(|s| s.state == "live"),
        "surviving slots must stay live: {:?}",
        drained.shards
    );
    assert!(
        drained.moved >= 1,
        "the drained founder held part of the working set"
    );
    fleet.kill(0);

    for (i, (graph, options)) in set.iter().enumerate() {
        let outcome = client.layout(graph, options).expect("post-drain layout");
        assert_eq!(
            outcome.reply.source, "hit",
            "request {i} lost its cache entry in the drain"
        );
    }

    let stats = client.stats().expect("router stats");
    assert_eq!(counter(&stats, "topology_epoch"), 5);
    assert_eq!(counter(&stats, "router_joins"), 1);
    assert_eq!(counter(&stats, "router_drains"), 1);
    assert_eq!(counter(&stats, "shards"), 2, "active slots after the drain");
    assert!(counter(&stats, "router_transferred") >= drained.moved);

    handle.shutdown();
    fleet.shutdown();
}

// The stale-home regression: an edit chain's cached base lives on its
// digest's ring owner, and the router's home map remembers that shard.
// Draining that shard bumps the topology epoch, which must invalidate
// the remembered home — the next delta walks the ring to the survivor
// (which received the entry during the drain) and is served warm, with
// no client-side rebase. Before homes were epoch-tagged this routed to
// the removed member.
#[test]
fn delta_chain_stays_warm_when_its_home_shard_is_drained() {
    let profile = small_profile();
    let client_id = 0usize;
    let session_seed = 0xED17 + client_id as u64;
    let first_request = LayoutRequest::new(
        base_graph(&profile, session_seed),
        AlgoSpec::Aco(
            AcoParams::default()
                .with_colony(profile.ants, profile.tours)
                .with_seed(session_seed),
        ),
    );

    let mut fleet = FaultFleet::boot(2, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        replicas: 1,
        probe_interval: Duration::from_millis(50),
        ..Default::default()
    })
    .unwrap();
    let home = router.ring().owner(first_request.digest().lo);
    let handle = router.spawn().unwrap();

    let tallies = Tallies::default();
    let mut session = EditSession::open(&handle.addr().to_string(), profile, client_id);
    assert!(session.step(&tallies).is_some(), "opening layout failed");
    assert!(session.base_digest().is_some());

    // Drain the shard holding the chain's cached base, then kill it —
    // at replicas=1 the streamed handoff is the only copy.
    let mut admin = Client::connect(&handle.addr().to_string()).unwrap();
    let topo = admin
        .shard_drain(fleet.addr(home))
        .expect("draining the chain's home shard succeeds");
    assert_eq!(topo.shards[home].state, "removed");
    assert!(topo.moved >= 1, "the chain's base entry must stream out");
    fleet.kill(home);

    // The next delta names the drained shard's digest as its base: the
    // stale home override must not resurrect the removed member.
    assert!(session.step(&tallies).is_some(), "post-drain delta failed");
    assert_eq!(
        tallies.warm.load(Ordering::Relaxed),
        1,
        "the delta must warm-start from the streamed-out base"
    );
    assert_eq!(
        tallies.rebased.load(Ordering::Relaxed),
        0,
        "zero-loss handoff makes the full-layout fallback unnecessary"
    );

    // ...and the chain keeps going on the survivor.
    for step in 0..3 {
        assert!(
            session.step(&tallies).is_some(),
            "post-drain step {step} failed"
        );
    }
    assert_eq!(tallies.dropped.load(Ordering::Relaxed), 0);
    assert_eq!(tallies.rebased.load(Ordering::Relaxed), 0);
    assert!(tallies.warm.load(Ordering::Relaxed) >= 4);

    handle.shutdown();
    fleet.shutdown();
}

// A shard that stalls past `io_timeout` is treated like a down shard:
// the router abandons the exchange, marks it down, and reroutes the
// request to the next candidate instead of stalling the client.
#[test]
fn slow_shard_is_rerouted_within_io_timeout() {
    let profile = small_profile();
    let seed = 0x51_0e_u64;
    let request = LayoutRequest::new(
        base_graph(&profile, seed),
        AlgoSpec::Aco(
            AcoParams::default()
                .with_colony(profile.ants, profile.tours)
                .with_seed(seed),
        ),
    );

    let mut fleet = FaultFleet::boot(2, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        io_timeout: Duration::from_millis(300),
        probe_interval: Duration::from_secs(3600),
        ..Default::default()
    })
    .unwrap();
    let owner = router.ring().owner(request.digest().lo);
    let handle = router.spawn().unwrap();

    // The owner now stalls every reply far past the router's patience.
    assert!(fleet.set_delay(owner, 5_000));

    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let outcome = client
        .layout(&base_graph(&profile, seed), &profile.options(seed))
        .expect("layout must survive a stalled owner");
    assert_eq!(outcome.reply.source, "computed");

    let stats = client.stats().expect("router stats");
    assert!(
        counter(&stats, "router_rerouted") >= 1,
        "the stalled owner must be skipped via reroute"
    );

    handle.shutdown();
    fleet.shutdown();
}
