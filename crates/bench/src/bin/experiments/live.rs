//! The streaming-session benchmark behind `BENCH_10.json`.

use crate::common::{check, emit, Config};
use antlayer_datasets::Table;

/// Proves the `serve --live` reactor pushes incremental re-layouts with
/// zero loss while ten thousand idle sessions sit on the same event
/// loop, in four phases:
///
/// 1. **idle fleet** — 10 000 sessions open (multiplexed 100 to a
///    connection, over 32 distinct base graphs so most opens are cache
///    hits) and stay open for the whole run; the server's
///    `sessions_open` gauge must agree exactly.
/// 2. **hot sessions** — 8 sessions each stream `STEPS` add-only
///    topology-respecting edits ping-pong (send one, block for its
///    push). Add-only edits keep the DAG acyclic under one fixed
///    topological order and grow the edge set monotonically, so every
///    push must be a *warm* re-solve (never a cache hit, never cold):
///    the warm-rate gate is 1.0, not approximately 1.0.
/// 3. **zero loss** — every push applied cleanly through the client's
///    version contract (`version == previous + 1`, enforced on every
///    frame, so a lost, duplicated or reordered push fails the run);
///    every hot session ends at exactly `STEPS`; the server pushed
///    exactly `8 × STEPS` frames, coalesced none (ping-pong never
///    leaves a delta waiting) and evicted nobody.
/// 4. **teardown** — all 10 008 sessions close with acked versions and
///    the `sessions_open` gauge returns to zero.
///
/// The update-to-push latency (client-observed, at 10k idle sessions)
/// is recorded in the artifact: mean/p50/p95/p99, plus the server-side
/// `session_push_us` p99 for the wire-overhead gap.
pub(crate) fn live(cfg: &Config) -> Result<(), String> {
    use antlayer_bench::loadclient::{
        percentile, spawn_live_shard, IdleSessions, LiveEditSession, LivePush, RequestProfile,
    };
    use antlayer_client::{Client, Json};
    use antlayer_service::protocol::histogram_from_json;
    use std::collections::BTreeMap;
    use std::time::Instant;

    const IDLE: usize = 10_000;
    const PER_CONN: usize = 100;
    const DISTINCT: u64 = 32;
    const HOT: usize = 8;
    const STEPS: usize = 40;
    let idle_profile = RequestProfile {
        n: 24,
        ants: 2,
        tours: 2,
        ..Default::default()
    };
    let hot_profile = RequestProfile {
        n: 48,
        ants: 3,
        tours: 3,
        ..Default::default()
    };

    let handle = spawn_live_shard(0);
    let live_addr = handle
        .live_addr()
        .expect("shard spawned with a live listener")
        .to_string();
    let mut admin =
        Client::connect(&handle.addr().to_string()).map_err(|e| format!("connect admin: {e}"))?;
    let stat = |admin: &mut Client, k: &str| -> Result<u64, String> {
        admin
            .stats()
            .map_err(|e| format!("stats: {e}"))
            .map(|s| s.get(k).and_then(Json::as_u64).unwrap_or(0))
    };

    // ---- Phase 1: the idle fleet ------------------------------------
    let t0 = Instant::now();
    let fleet = IdleSessions::open(&live_addr, &idle_profile, IDLE, PER_CONN, DISTINCT)?;
    let idle_secs = t0.elapsed().as_secs_f64();
    let open_gauge = stat(&mut admin, "sessions_open")?;
    let idle_ok = fleet.len() == IDLE && open_gauge == IDLE as u64;
    check(
        "10k idle sessions held open and the sessions_open gauge agrees",
        idle_ok,
    );
    println!(
        "idle fleet: {} sessions over {} connections in {:.2} s\n",
        fleet.len(),
        IDLE.div_ceil(PER_CONN),
        idle_secs
    );

    // ---- Phase 2: hot sessions, ping-pong, at 10k idle --------------
    let t0 = Instant::now();
    let hot: Vec<Result<(Vec<LivePush>, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HOT)
            .map(|c| {
                let (live_addr, hot_profile) = (live_addr.as_str(), &hot_profile);
                scope.spawn(move || {
                    let mut session =
                        LiveEditSession::open(live_addr, hot_profile, 0xF00D + c as u64)?;
                    let mut pushes = Vec::with_capacity(STEPS);
                    for _ in 0..STEPS {
                        pushes.push(session.step()?);
                    }
                    let final_version = session.close()?;
                    Ok((pushes, final_version))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hot session thread"))
            .collect()
    });
    let hot_wall = t0.elapsed().as_secs_f64();
    let hot = hot.into_iter().collect::<Result<Vec<_>, String>>()?;

    let pushes: Vec<&LivePush> = hot.iter().flat_map(|(p, _)| p).collect();
    let warm = pushes.iter().filter(|p| p.warm).count();
    let coalesced: u64 = pushes.iter().map(|p| p.coalesced).sum();
    let warm_rate = warm as f64 / pushes.len().max(1) as f64;
    let versions_ok = hot.iter().all(|(_, v)| *v == STEPS as u64);
    let warm_ok = pushes.len() == HOT * STEPS && warm_rate >= 1.0;
    check(
        "add-only topology-respecting edits make every push warm (rate 1.0)",
        warm_ok,
    );

    // ---- Phase 3: zero loss -----------------------------------------
    let pushed = stat(&mut admin, "session_pushes")?;
    let evicted = stat(&mut admin, "session_evicted")?;
    let loss_ok = versions_ok && pushed == (HOT * STEPS) as u64 && coalesced == 0 && evicted == 0;
    check(
        "every hot session ends at STEPS with zero lost, coalesced or evicted pushes",
        loss_ok,
    );

    let mut lat: Vec<u64> = pushes.iter().map(|p| p.micros).collect();
    lat.sort_unstable();
    let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    let (p50, p95, p99) = (
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    );
    // Sanity, not a perf promise: a push observed within 2 s while 10k
    // idle sessions share the loop. A broken reactor (pushes queued
    // behind idle scans, frames lost to coalescing bugs) trips this.
    let latency_ok = p99 > 0 && p99 < 2_000_000;
    check(
        "update-to-push p99 at 10k idle sessions is sane (< 2 s)",
        latency_ok,
    );
    let server_p99 = admin
        .stats()
        .ok()
        .and_then(|s| s.get("session_push_us").and_then(histogram_from_json))
        .map(|h| h.percentile(0.99))
        .unwrap_or(0);
    println!(
        "hot: {} pushes in {hot_wall:.2} s; update-to-push us mean {mean:.0} p50 {p50} p95 {p95} p99 {p99} (server-side p99 {server_p99})\n",
        pushes.len()
    );

    // ---- Phase 4: teardown ------------------------------------------
    let held = fleet.len();
    let acked = fleet.close_all()?;
    let open_after = stat(&mut admin, "sessions_open")?;
    let teardown_ok = acked == held && open_after == 0;
    check(
        "all sessions close with acks and the sessions_open gauge returns to zero",
        teardown_ok,
    );

    // ---- Report ------------------------------------------------------
    let mut table = Table::new(&["phase", "metric", "value", "gate"]);
    let rows: Vec<(&str, &str, f64, String)> = vec![
        ("idle", "sessions", fleet_len_f(held), format!("== {IDLE}")),
        (
            "idle",
            "open_gauge",
            open_gauge as f64,
            format!("== {IDLE}"),
        ),
        ("idle", "open_secs", idle_secs, "info".into()),
        (
            "hot",
            "pushes",
            pushes.len() as f64,
            format!("== {}", HOT * STEPS),
        ),
        ("hot", "warm_rate", warm_rate, ">= 1.0".into()),
        ("hot", "coalesced", coalesced as f64, "== 0".into()),
        ("hot", "evicted", evicted as f64, "== 0".into()),
        (
            "hot",
            "final_versions_ok",
            versions_ok as u64 as f64,
            "== 1".into(),
        ),
        ("latency", "mean_us", mean, "info".into()),
        ("latency", "p50_us", p50 as f64, "info".into()),
        ("latency", "p95_us", p95 as f64, "info".into()),
        ("latency", "p99_us", p99 as f64, "> 0, < 2e6".into()),
        ("latency", "server_p99_us", server_p99 as f64, "info".into()),
        ("teardown", "close_acks", acked as f64, format!("== {held}")),
        ("teardown", "open_gauge", open_after as f64, "== 0".into()),
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
        "live",
        "streaming edit sessions: push latency and zero-loss gates at 10k idle",
        &table,
    )?;

    let pass = idle_ok && warm_ok && loss_ok && latency_ok && teardown_ok;
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::Str("live".into()));
    doc.insert(
        "scenario".to_string(),
        Json::Str(format!(
            "{IDLE} idle sessions ({} per connection, {DISTINCT} distinct n={} graphs) held on \
             one reactor loop while {HOT} hot sessions (n={}, colony {}x{}) each stream {STEPS} \
             add-only topology-respecting edits ping-pong; every push version-checked client-side",
            PER_CONN, idle_profile.n, hot_profile.n, hot_profile.ants, hot_profile.tours
        )),
    );
    doc.insert("seed".to_string(), Json::Num(cfg.seed as f64));
    let mut metrics = BTreeMap::new();
    for (phase, metric, value, _) in &rows {
        metrics.insert(format!("{phase}_{metric}"), Json::Num(*value));
    }
    doc.insert("metrics".to_string(), Json::Obj(metrics));
    doc.insert("pass".to_string(), Json::Bool(pass));
    let path = cfg.out.join("BENCH_10.json");
    let mut text = Json::Obj(doc).encode();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}\n", path.display());

    handle.shutdown();
    if !pass {
        return Err(format!(
            "live regression: idle {idle_ok} (gauge {open_gauge}), warm {warm_ok} (rate \
             {warm_rate:.3}, pushes {}), loss {loss_ok} (pushed {pushed}, coalesced {coalesced}, \
             evicted {evicted}, versions {versions_ok}), latency {latency_ok} (p99 {p99} us), \
             teardown {teardown_ok} (acks {acked}/{held}, gauge {open_after})",
            pushes.len()
        ));
    }
    Ok(())
}

/// `fleet.len()` as the f64 the table speaks (named to keep the row
/// list readable).
fn fleet_len_f(len: usize) -> f64 {
    len as f64
}
