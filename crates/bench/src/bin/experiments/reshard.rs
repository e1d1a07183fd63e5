//! The elastic-fleet benchmark behind `BENCH_9.json`.

use crate::common::{check, emit, Config};
use antlayer_datasets::Table;

/// Proves live `shard_join` / `shard_drain` resharding loses no cached
/// work, in four phases:
///
/// 1. **determinism** — the same seed encodes the byte-identical
///    `faultplan/v2` elastic schedule twice (join / drain / delay /
///    compact events over a growable fleet).
/// 2. **static baseline** — the reference run with no topology churn:
///    a 3-shard router serves a warmed working set plus two edit
///    sessions; its warm-start rate is the parity target.
/// 3. **elastic run** — the identical workload while the seeded
///    schedule reshapes the fleet between steps: `Join` events grow the
///    fleet and `shard_join` the new shard live, `Drain` events
///    `shard_drain` a member and then kill the process, `Delay` events
///    stall a shard's replies. Gates: every session step is served,
///    zero dropped, zero client-side rebases — the delta chains stay
///    warm straight through joins and drains at `replicas=1`, where
///    the streamed handoff holds the only copy.
/// 4. **zero loss** — every entry of the pre-churn working set is
///    re-requested after the last topology change; all must come back
///    `source: "hit"` with zero recomputation, and the elastic run's
///    warm rate must sit within 0.05 of the static baseline. When the
///    seeded schedule happens to draw no join (or no drain), the
///    driver tops the run up with one before the re-request, so the
///    zero-loss check always crosses both directions of resharding.
pub(crate) fn reshard(cfg: &Config) -> Result<(), String> {
    use antlayer_bench::faultplan::{FaultAction, FaultFleet, FaultPlan};
    use antlayer_bench::loadclient::{base_graph, EditSession, RequestProfile, Tallies};
    use antlayer_client::{Client, Json};
    use antlayer_graph::DiGraph;
    use antlayer_router::{Router, RouterConfig};
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;

    const DISTINCT: u64 = 24;
    const STEPS: usize = 36;
    const FAULTS: usize = 6;
    const SHARDS: usize = 3;
    let profile = RequestProfile {
        n: 24,
        ants: 3,
        tours: 3,
        ..Default::default()
    };
    let graphs: Vec<(u64, DiGraph)> = (0..DISTINCT)
        .map(|i| {
            let seed = cfg.seed.wrapping_mul(90_000) + i;
            (seed, base_graph(&profile, seed))
        })
        .collect();

    // ---- Phase 1: the elastic schedule is deterministic -------------
    let plan = FaultPlan::seeded_elastic(cfg.seed, SHARDS, STEPS, FAULTS);
    let deterministic = plan.encode()
        == FaultPlan::seeded_elastic(cfg.seed, SHARDS, STEPS, FAULTS).encode()
        && plan.encode().starts_with("faultplan/v2");
    check(
        "the same seed encodes the byte-identical elastic (v2) schedule",
        deterministic,
    );

    // One workload, two runs: warm the working set, drive two edit
    // sessions for STEPS, re-request the working set. `churn: false`
    // is the static reference; `churn: true` replays `plan` between
    // steps, executing joins/drains through the router's admin ops.
    let run = |churn: bool| -> Result<RunReport, String> {
        let mut fleet = FaultFleet::boot(SHARDS, 2);
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: fleet.addrs(),
            replicas: 1,
            probe_interval: std::time::Duration::from_millis(50),
            ..Default::default()
        })
        .map_err(|e| format!("bind router: {e}"))?
        .spawn()
        .map_err(|e| format!("spawn router: {e}"))?;
        let addr = router.addr().to_string();

        let mut admin = Client::connect(&addr).map_err(|e| format!("connect admin: {e}"))?;
        for (seed, graph) in &graphs {
            admin
                .layout(graph, &profile.options(*seed))
                .map_err(|e| format!("warm layout: {e}"))?;
        }

        let tallies = Tallies::default();
        let mut report = RunReport::default();
        let mut gone: Vec<usize> = Vec::new();
        {
            let mut sessions: Vec<EditSession> = (0..2)
                .map(|c| EditSession::open(&addr, profile.clone(), c))
                .collect();
            for step in 0..STEPS {
                if churn {
                    for event in plan.events_at(step) {
                        match event.action {
                            FaultAction::Join => {
                                let i = fleet.grow();
                                assert_eq!(i, event.shard, "plan joins track fleet growth");
                                admin
                                    .shard_join(fleet.addr(i))
                                    .map_err(|e| format!("shard_join: {e}"))?;
                                report.joins += 1;
                            }
                            FaultAction::Drain => {
                                report.moved += admin
                                    .shard_drain(fleet.addr(event.shard))
                                    .map_err(|e| format!("shard_drain: {e}"))?
                                    .moved;
                                fleet.kill(event.shard);
                                gone.push(event.shard);
                                report.drains += 1;
                            }
                            _ => fleet.apply(event),
                        }
                    }
                }
                sessions[step % 2].step(&tallies);
            }
        }
        // Top-up: the zero-loss re-request below must cross at least
        // one join and one drain whatever the seed drew.
        if churn {
            if report.joins == 0 {
                let i = fleet.grow();
                admin
                    .shard_join(fleet.addr(i))
                    .map_err(|e| format!("top-up shard_join: {e}"))?;
                report.joins += 1;
            }
            if report.drains == 0 {
                let d = (0..fleet.len())
                    .find(|i| !gone.contains(i))
                    .expect("an active shard remains");
                report.moved += admin
                    .shard_drain(fleet.addr(d))
                    .map_err(|e| format!("top-up shard_drain: {e}"))?
                    .moved;
                fleet.kill(d);
                report.drains += 1;
            }
        }

        report.good = tallies.good.load(Ordering::Relaxed);
        report.dropped = tallies.dropped.load(Ordering::Relaxed);
        report.rebased = tallies.rebased.load(Ordering::Relaxed);
        report.warm_rate = tallies.warm.load(Ordering::Relaxed) as f64 / report.good.max(1) as f64;

        // The working set again, after the last topology change: the
        // zero-loss claim is that nothing needs recomputing.
        for (seed, graph) in &graphs {
            let outcome = admin
                .layout(graph, &profile.options(*seed))
                .map_err(|e| format!("re-request: {e}"))?;
            report.served += 1;
            if outcome.reply.source == "computed" {
                report.recomputed += 1;
            }
        }
        let stats = admin.stats().map_err(|e| format!("stats: {e}"))?;
        let stat = |k: &str| stats.get(k).and_then(Json::as_num).unwrap_or(0.0);
        report.epoch = stat("topology_epoch") as u64;
        report.transferred = stat("router_transferred") as u64;

        router.shutdown();
        fleet.shutdown();
        Ok(report)
    };

    // ---- Phase 2: static baseline -----------------------------------
    let fixed = run(false)?;
    let static_ok = fixed.good == STEPS as u64 && fixed.dropped == 0 && fixed.recomputed == 0;
    check(
        "static baseline serves every step and re-request",
        static_ok,
    );

    // ---- Phase 3: the elastic run under the seeded schedule ---------
    let elastic = run(true)?;
    let sessions_ok = elastic.good == STEPS as u64 && elastic.dropped == 0 && elastic.rebased == 0;
    check(
        "edit sessions drop and rebase zero requests across joins, drains and delays",
        sessions_ok,
    );

    // ---- Phase 4: zero cached-work loss, warm-rate parity -----------
    let loss_ok = elastic.served == DISTINCT
        && elastic.recomputed == 0
        && elastic.joins >= 1
        && elastic.drains >= 1;
    check(
        "every pre-churn entry is re-served from cache after the reshard (zero loss)",
        loss_ok,
    );
    let parity = (elastic.warm_rate - fixed.warm_rate).abs();
    let parity_ok = parity <= 0.05;
    check(
        "elastic warm-start rate within 0.05 of the static baseline",
        parity_ok,
    );

    // ---- Report ------------------------------------------------------
    let mut table = Table::new(&["phase", "metric", "value", "gate"]);
    let rows: Vec<(&str, &str, f64, String)> = vec![
        (
            "determinism",
            "identical",
            deterministic as u64 as f64,
            "== 1".into(),
        ),
        ("static", "good", fixed.good as f64, format!("== {STEPS}")),
        ("static", "warm_rate", fixed.warm_rate, "info".into()),
        ("elastic", "joins", elastic.joins as f64, ">= 1".into()),
        ("elastic", "drains", elastic.drains as f64, ">= 1".into()),
        ("elastic", "moved", elastic.moved as f64, "info".into()),
        (
            "elastic",
            "transferred",
            elastic.transferred as f64,
            "info".into(),
        ),
        ("elastic", "epoch", elastic.epoch as f64, "info".into()),
        (
            "elastic",
            "good",
            elastic.good as f64,
            format!("== {STEPS}"),
        ),
        ("elastic", "dropped", elastic.dropped as f64, "== 0".into()),
        ("elastic", "rebased", elastic.rebased as f64, "== 0".into()),
        (
            "zero_loss",
            "served",
            elastic.served as f64,
            format!("== {DISTINCT}"),
        ),
        (
            "zero_loss",
            "recomputed",
            elastic.recomputed as f64,
            "== 0".into(),
        ),
        (
            "parity",
            "warm_rate",
            elastic.warm_rate,
            format!("|x - {:.3}| <= 0.05", fixed.warm_rate),
        ),
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
        "reshard",
        "live shard join/drain with zero-loss segment handoff",
        &table,
    )?;

    let pass = deterministic && static_ok && sessions_ok && loss_ok && parity_ok;
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::Str("reshard".into()));
    doc.insert(
        "scenario".to_string(),
        Json::Str(format!(
            "{DISTINCT} distinct layouts (n={} colony {}x{}) warmed through a {SHARDS}-shard \
             router at replicas=1, two edit sessions over {STEPS} steps while a seeded elastic \
             schedule ({FAULTS} events) joins, drains and delays shards live, then the full \
             working set re-requested",
            profile.n, profile.ants, profile.tours
        )),
    );
    doc.insert("seed".to_string(), Json::Num(cfg.seed as f64));
    let mut metrics = BTreeMap::new();
    for (phase, metric, value, _) in &rows {
        metrics.insert(format!("{phase}_{metric}"), Json::Num(*value));
    }
    doc.insert("metrics".to_string(), Json::Obj(metrics));
    doc.insert("faultplan".to_string(), Json::Str(plan.encode()));
    doc.insert("pass".to_string(), Json::Bool(pass));
    let path = cfg.out.join("BENCH_9.json");
    let mut text = Json::Obj(doc).encode();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}\n", path.display());

    if !pass {
        return Err(format!(
            "reshard regression: determinism {deterministic}, static {static_ok} (good {}, \
             dropped {}), sessions {sessions_ok} (good {}, dropped {}, rebased {}), zero-loss \
             {loss_ok} (served {}, recomputed {}), parity {parity_ok} (warm {:.3} vs {:.3})",
            fixed.good,
            fixed.dropped,
            elastic.good,
            elastic.dropped,
            elastic.rebased,
            elastic.served,
            elastic.recomputed,
            elastic.warm_rate,
            fixed.warm_rate
        ));
    }
    Ok(())
}

/// The measurements one run (static or elastic) produces.
#[derive(Default)]
struct RunReport {
    joins: u64,
    drains: u64,
    moved: u64,
    transferred: u64,
    epoch: u64,
    good: u64,
    dropped: u64,
    rebased: u64,
    warm_rate: f64,
    served: u64,
    recomputed: u64,
}
