//! One seeded benchmark for the antlayer layout service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload edit|scale --seed N --seconds S --trace 0|1
//! ```
//!
//! The program under test is booted in-process; the load comes from at
//! most two client threads. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` measures the per-layer metrics: the same untraced
//! end-to-end window, whose counters it reports, then the ladder
//! ([`ladder`]), whose spans are written to `perfbench/out/`. The last
//! line of standard output is one JSON object with every metric; the
//! exit code is nonzero when any returned layering fails its check.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod fleet;
mod gen;
mod ladder;
mod span;
mod stats;
mod workloads;

use stats::{mean, median, peak_rss_mb, percentile, share};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Tally, Workload};

/// Stacks booted per run; `setup_s` is the median boot.
const BOOTS: usize = 51;
/// Idle time before each boot. A boot that starts from an idle process,
/// as a real one does, times steadily from run to run; back-to-back
/// boots inherit each other's warm state, and their median moved by a
/// fifth to a third between runs on a shared 2-vCPU host, against
/// under a tenth when spaced.
const BOOT_GAP: Duration = Duration::from_millis(10);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics of one untraced phase.
fn end_to_end(workload: Workload, t: &Tally, setup_s: f64) -> Metrics {
    let replies = t.latencies_us.len();
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("p50_us".into(), median(&t.latencies_us), "us"),
        (
            "tail_us".into(),
            percentile(&t.latencies_us, workload.tail()),
            "us",
        ),
        ("push_p50_us".into(), median(&t.pushes_us), "us"),
        (
            "push_tail_us".into(),
            percentile(&t.pushes_us, workloads::PUSH_TAIL),
            "us",
        ),
        (
            "throughput_rps".into(),
            replies as f64 / t.elapsed_s.max(1e-9),
            "1/s",
        ),
        (
            "ok_share".into(),
            1.0 - share(t.failed, t.attempted),
            "share",
        ),
        ("cost_ratio".into(), mean(&t.ratios), "ratio"),
        (
            "deadline_met_share".into(),
            share(t.within_limit, replies),
            "share",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// The per-layer counters: `stats` deltas over the end-to-end window,
/// and the router's own counters after the ladder's router rung.
fn layer_counters(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    router: &BTreeMap<String, f64>,
    untraced: &Tally,
) -> Metrics {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let r = |k: &str| router.get(k).copied().unwrap_or(0.0);
    let lookups = d("cache_hits") + d("cache_misses");
    vec![
        ("scheduler.computed".into(), d("computed"), "count"),
        ("scheduler.coalesced".into(), d("coalesced"), "count"),
        ("scheduler.rejected".into(), d("rejected"), "count"),
        ("scheduler.cold_refresh".into(), d("cold_refresh"), "count"),
        (
            "scheduler.warm_share".into(),
            share(untraced.warm, untraced.latencies_us.len()),
            "share",
        ),
        (
            "cache.hit_share".into(),
            if lookups > 0.0 {
                d("cache_hits") / lookups
            } else {
                0.0
            },
            "share",
        ),
        ("cache.evictions".into(), d("cache_evictions"), "count"),
        ("router.forwarded".into(), r("router_forwarded"), "count"),
        ("router.rerouted".into(), r("router_rerouted"), "count"),
        ("router.replica_puts".into(), r("replica_puts"), "count"),
        ("live.pushes".into(), d("session_pushes"), "count"),
        ("live.coalesced".into(), d("session_coalesced"), "count"),
        ("live.evicted".into(), d("session_evicted"), "count"),
    ]
}

/// Writes the ladder's spans.
fn write_spans(args: &Args, ladder: &span::Recorder) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{:?}-{}.json", args.workload, args.seed).to_lowercase();
    std::fs::write(&path, ladder.to_json())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload edit|scale --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let workload = args.workload;
    let (stack, boots) = fleet::boot_timed(BOOTS, BOOT_GAP);
    let setup_s = median(&boots);
    let window = Duration::from_secs(args.seconds);
    let before = stack.counters();
    let untraced = workloads::run_phase(workload, &stack, args.seed, window);
    let after = stack.counters();
    stack.shutdown();
    let mut total = Tally::default();
    let metrics: Metrics = if !args.trace {
        end_to_end(workload, &untraced, setup_s)
    } else {
        let ladder = ladder::run(workload, args.seed);
        let mut m = ladder.metrics();
        m.extend(layer_counters(
            &before,
            &after,
            &ladder.router_counters,
            &untraced,
        ));
        m.push((
            "trace.overhead_ratio".into(),
            ladder.top_p50_us() / median(&untraced.latencies_us).max(1e-9),
            "ratio",
        ));
        m.push((
            "trace.residual_us".into(),
            mean(&untraced.latencies_us) - ladder.top_mean_us(),
            "us",
        ));
        match write_spans(&args, &ladder.rec) {
            Ok(path) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::from(1);
            }
        }
        total.merge(ladder.tally);
        m
    };
    total.merge(untraced);
    eprintln!(
        "perfbench: {} replies, {} pushes",
        total.latencies_us.len(),
        total.pushes_us.len()
    );
    for e in &total.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        total.failed == 0,
        total.attempted.max(1),
        total.failed,
        body.join(",")
    );
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
