//! The durable-cache / replication benchmark behind `BENCH_8.json`.

use crate::common::{check, emit, Config};
use antlayer_datasets::Table;

/// Proves the durable, replicated cache tier with deterministic fault
/// injection, in four phases:
///
/// 1. **restart** — a single shard with `--cache-dir` warms 24 distinct
///    layouts (compacting halfway, so both the snapshot and the live log
///    replay), is killed mid-fleet with real shutdown semantics, and
///    restarted on the same address over the same directory. Gate: at
///    least 95% of the pre-kill entries are served from disk (`source:
///    "hit"`) with **zero** recomputation.
/// 2. **parity** — the `BENCH_3` replayed workload (24 distinct layouts
///    × 4 passes, sequential) through a 2-shard router with
///    `--replicas 2`. Gate: fleet hit rate within 0.02 of the checked-in
///    `BENCH_3.json` router_2 topology — replication write-throughs must
///    not perturb the serving counters.
/// 3. **failover** — 3 shards, `--replicas 2`: 24 layouts are warmed
///    through the router (write-through replicating each to its next
///    ring candidate), one shard is killed, and all 24 are re-requested.
///    Gate: every reply is served, **none** is recomputed — the rehashed
///    requests land on replicas that already hold the entries.
/// 4. **faultplan** — two edit sessions replay 36 steps against the
///    3-shard fleet while a seeded
///    [`FaultPlan`](antlayer_bench::faultplan::FaultPlan) kills, restarts, and
///    compacts shards between steps. Gates: the same seed encodes the
///    byte-identical schedule twice, and zero requests are dropped.
pub(crate) fn durability(cfg: &Config) -> Result<(), String> {
    use antlayer_bench::faultplan::{FaultFleet, FaultPlan};
    use antlayer_bench::loadclient::{
        base_graph, layout_line, EditSession, RequestProfile, Tallies,
    };
    use antlayer_client::{Client, Connection, Transport};
    use antlayer_graph::DiGraph;
    use antlayer_router::{Router, RouterConfig};
    use antlayer_service::protocol::{parse, Json};
    use std::collections::BTreeMap;

    const DISTINCT: u64 = 24;
    const PASSES: u64 = 4;
    let profile = RequestProfile {
        n: 40,
        ants: 4,
        tours: 4,
        ..Default::default()
    };
    let graphs: Vec<(u64, DiGraph)> = (0..DISTINCT)
        .map(|i| {
            let seed = cfg.seed.wrapping_mul(10_000) + i;
            (seed, base_graph(&profile, seed))
        })
        .collect();

    fn exchange(conn: &mut Connection, line: &str) -> Json {
        let reply = conn.exchange(line).expect("exchange");
        parse(&reply).expect("reply parses")
    }

    fn connect(addr: &str) -> Connection {
        let conn = Connection::connect(addr, Transport::Tcp).expect("connect");
        conn.set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .expect("read timeout");
        conn
    }

    // ---- Phase 1: kill/restart survives on the segment log ----------
    let mut fleet = FaultFleet::boot(1, 2);
    {
        let mut client = Client::connect_with(fleet.addr(0), profile.client_config(Transport::Tcp))
            .expect("connect warmer");
        for (i, (seed, graph)) in graphs.iter().enumerate() {
            client
                .layout(graph, &profile.options(*seed))
                .expect("warm layout");
            if i as u64 == DISTINCT / 2 {
                // Halfway compaction: the replay after restart must
                // stitch the snapshot segment and the live log together.
                assert!(fleet.compact(0), "compaction runs on a live shard");
            }
        }
    }
    fleet.kill(0);
    fleet.restart(0);
    let restored = fleet.scheduler(0).map(|s| s.restored()).unwrap_or(0);
    let (mut from_disk, mut recomputed) = (0u64, 0u64);
    {
        let mut conn = connect(fleet.addr(0));
        for (seed, graph) in &graphs {
            let v = exchange(&mut conn, &layout_line(&profile, *seed, graph));
            match v.get("source").and_then(Json::as_str) {
                Some("hit") => from_disk += 1,
                _ => recomputed += 1,
            }
        }
    }
    fleet.shutdown();
    let restart_ok = from_disk as f64 >= DISTINCT as f64 * 0.95 && recomputed == 0;
    check(
        "restarted shard serves >= 95% of pre-kill entries from disk, recomputing none",
        restart_ok,
    );

    // ---- Phase 2: hit-rate parity with BENCH_3 under replication ----
    let baseline = bench3_router2_hit_rate().unwrap_or(0.75);
    let fleet = FaultFleet::boot(2, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        replicas: 2,
        ..Default::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let (parity_good, hit_rate, replica_puts) = {
        let mut conn = connect(&router.addr().to_string());
        let mut good = 0u64;
        for i in 0..DISTINCT * PASSES {
            let (seed, graph) = &graphs[(i % DISTINCT) as usize];
            let v = exchange(&mut conn, &layout_line(&profile, *seed, graph));
            if v.get("ok") == Some(&Json::Bool(true)) {
                good += 1;
            }
        }
        let stats = exchange(&mut conn, r#"{"op":"stats"}"#);
        let stat = |k: &str| stats.get(k).and_then(Json::as_num).unwrap_or(0.0);
        (
            good,
            stat("cache_hits") / stat("served").max(1.0),
            stat("replica_puts") as u64,
        )
    };
    router.shutdown();
    fleet.shutdown();
    let parity_ok = parity_good == DISTINCT * PASSES && (hit_rate - baseline).abs() <= 0.02;
    check(
        "replicated fleet hit rate within 0.02 of BENCH_3's router_2 topology",
        parity_ok,
    );

    // ---- Phase 3: a shard kill loses zero cached work ---------------
    let mut fleet = FaultFleet::boot(3, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        replicas: 2,
        ..Default::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let (mut failover_good, mut failover_recomputed) = (0u64, 0u64);
    {
        let mut conn = connect(&router.addr().to_string());
        for (seed, graph) in &graphs {
            let v = exchange(&mut conn, &layout_line(&profile, *seed, graph));
            assert_eq!(
                v.get("ok"),
                Some(&Json::Bool(true)),
                "warm pass serves every layout"
            );
        }
        fleet.kill(0);
        for (seed, graph) in &graphs {
            let v = exchange(&mut conn, &layout_line(&profile, *seed, graph));
            if v.get("ok") == Some(&Json::Bool(true)) {
                failover_good += 1;
            }
            if v.get("source").and_then(Json::as_str) == Some("computed") {
                failover_recomputed += 1;
            }
        }
    }
    router.shutdown();
    fleet.shutdown();
    let failover_ok = failover_good == DISTINCT && failover_recomputed == 0;
    check(
        "killing one of three shards at replicas=2 loses zero cached entries",
        failover_ok,
    );

    // ---- Phase 4: seeded fault schedule, byte-identical, no drops ---
    const STEPS: usize = 36;
    const FAULTS: usize = 6;
    let plan = FaultPlan::seeded(cfg.seed, 3, STEPS, FAULTS);
    let deterministic = plan.encode() == FaultPlan::seeded(cfg.seed, 3, STEPS, FAULTS).encode();
    check(
        "the same seed encodes the byte-identical fault schedule",
        deterministic,
    );
    let mut fleet = FaultFleet::boot(3, 2);
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: fleet.addrs(),
        replicas: 2,
        ..Default::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let tallies = Tallies::default();
    {
        let addr = router.addr().to_string();
        let mut sessions: Vec<EditSession> = (0..2)
            .map(|c| EditSession::open(&addr, profile.clone(), c))
            .collect();
        for step in 0..STEPS {
            for event in plan.events_at(step) {
                fleet.apply(event);
            }
            sessions[step % 2].step(&tallies);
        }
    }
    router.shutdown();
    fleet.shutdown();
    use std::sync::atomic::Ordering;
    let (good, dropped, rebased) = (
        tallies.good.load(Ordering::Relaxed),
        tallies.dropped.load(Ordering::Relaxed),
        tallies.rebased.load(Ordering::Relaxed),
    );
    let faultplan_ok = deterministic && good == STEPS as u64 && dropped == 0;
    check(
        "edit sessions drop zero requests under the seeded kill/restart/compact schedule",
        good == STEPS as u64 && dropped == 0,
    );

    // ---- Report ------------------------------------------------------
    let mut table = Table::new(&["phase", "metric", "value", "gate"]);
    let rows: Vec<(&str, &str, f64, String)> = vec![
        ("restart", "restored", restored as f64, ">= 0 (info)".into()),
        (
            "restart",
            "from_disk",
            from_disk as f64,
            format!(">= {:.0}", DISTINCT as f64 * 0.95),
        ),
        ("restart", "recomputed", recomputed as f64, "== 0".into()),
        (
            "parity",
            "hit_rate",
            hit_rate,
            format!("|x - {baseline:.3}| <= 0.02"),
        ),
        (
            "parity",
            "replica_puts",
            replica_puts as f64,
            ">= 1 (info)".into(),
        ),
        (
            "failover",
            "served",
            failover_good as f64,
            format!("== {DISTINCT}"),
        ),
        (
            "failover",
            "recomputed",
            failover_recomputed as f64,
            "== 0".into(),
        ),
        ("faultplan", "good", good as f64, format!("== {STEPS}")),
        ("faultplan", "dropped", dropped as f64, "== 0".into()),
        ("faultplan", "rebased", rebased as f64, "info".into()),
    ];
    for (phase, metric, value, gate) in &rows {
        table.push_row(vec![
            (*phase).into(),
            (*metric).into(),
            (*value).into(),
            gate.clone().into(),
        ]);
    }
    emit(
        cfg,
        "durability",
        "durable, replicated cache tier under deterministic fault injection",
        &table,
    )?;

    let pass = restart_ok && parity_ok && failover_ok && faultplan_ok;
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::Str("durability".into()));
    doc.insert(
        "scenario".to_string(),
        Json::Str(format!(
            "{DISTINCT} distinct layouts (n={} colony {}x{}): restart replay on one shard, \
             {DISTINCT}x{PASSES} replay parity at replicas=2, 3-shard kill at replicas=2, \
             seeded faultplan over {STEPS} edit-session steps",
            profile.n, profile.ants, profile.tours
        )),
    );
    doc.insert("seed".to_string(), Json::Num(cfg.seed as f64));
    let mut phases = BTreeMap::new();
    for (phase, metric, value, _) in &rows {
        phases.insert(format!("{phase}_{metric}"), Json::Num(*value));
    }
    doc.insert("metrics".to_string(), Json::Obj(phases));
    doc.insert("baseline_hit_rate".to_string(), Json::Num(baseline));
    doc.insert("faultplan".to_string(), Json::Str(plan.encode()));
    doc.insert("pass".to_string(), Json::Bool(pass));
    let path = cfg.out.join("BENCH_8.json");
    let mut text = Json::Obj(doc).encode();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}\n", path.display());

    if !pass {
        return Err(format!(
            "durability regression: restart {restart_ok} (from_disk {from_disk}, recomputed \
             {recomputed}), parity {parity_ok} (hit_rate {hit_rate:.3} vs {baseline:.3}), \
             failover {failover_ok} (served {failover_good}, recomputed {failover_recomputed}), \
             faultplan {faultplan_ok} (good {good}, dropped {dropped})"
        ));
    }
    Ok(())
}

/// The checked-in `BENCH_3.json` router_2 hit rate, when the file is
/// reachable from the working directory (CI runs at the repo root);
/// `None` falls back to the workload's analytic rate.
fn bench3_router2_hit_rate() -> Option<f64> {
    use antlayer_service::protocol::{parse, Json};
    let text = std::fs::read_to_string("BENCH_3.json").ok()?;
    let doc = parse(&text).ok()?;
    let Json::Arr(topologies) = doc.get("topologies")? else {
        return None;
    };
    topologies
        .iter()
        .find(|t| t.get("topology").and_then(Json::as_str) == Some("router_2"))?
        .get("hit_rate")?
        .as_num()
}
