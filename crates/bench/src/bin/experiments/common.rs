//! Shared plumbing for every experiment scenario: the CLI `Config`,
//! suite construction, table/CSV/gnuplot emission, and the PASS/FAIL
//! check line; any FAIL makes the scenario exit nonzero.

use antlayer_bench::{evaluate_algorithms, paper_algorithms, AlgoSeries};
use antlayer_datasets::{GraphSuite, Table};
use antlayer_graph::Dag;
use antlayer_layering::WidthModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many [`check`]s printed FAIL in this process.
static FAILED_CHECKS: AtomicUsize = AtomicUsize::new(0);

pub(crate) struct Config {
    pub(crate) seed: u64,
    pub(crate) total: usize,
    pub(crate) out: PathBuf,
    /// A previously checked-in bench artifact the fresh run is gated
    /// against: `BENCH_4.json` for `hotpath` (speedup within 10%),
    /// `BENCH_6.json` for `observability` (overhead ratio within 5
    /// points).
    pub(crate) baseline: Option<PathBuf>,
}

pub(crate) fn suite(cfg: &Config) -> GraphSuite {
    GraphSuite::att_like_scaled(cfg.seed, cfg.total)
}

pub(crate) fn selected_series(cfg: &Config, names: &[&str]) -> Vec<AlgoSeries> {
    let s = suite(cfg);
    println!(
        "suite: {} graphs, 19 groups, m/n = {:.2} (seed {})\n",
        s.len(),
        s.mean_edge_node_ratio(),
        cfg.seed
    );
    let algos: Vec<_> = paper_algorithms(cfg.seed)
        .into_iter()
        .filter(|(n, _)| names.contains(&n.as_str()))
        .collect();
    evaluate_algorithms(&s, &algos, &WidthModel::unit())
}

pub(crate) fn emit(cfg: &Config, name: &str, title: &str, table: &Table) -> Result<(), String> {
    println!("## {title}\n");
    print!("{}", table.to_aligned());
    println!();
    let csv = cfg.out.join(format!("{name}.csv"));
    table
        .write_csv(&csv)
        .map_err(|e| format!("writing {csv:?}: {e}"))?;
    let dat: &Path = &cfg.out.join(format!("{name}.dat"));
    std::fs::write(dat, table.to_gnuplot()).map_err(|e| format!("writing {dat:?}: {e}"))?;
    println!("wrote {} and {}\n", csv.display(), dat.display());
    Ok(())
}

/// Prints one PASS/FAIL line; a FAIL is counted, and `main` exits
/// nonzero when any check failed.
pub(crate) fn check(label: &str, ok: bool) {
    println!("check: {label}: {}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        FAILED_CHECKS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The number of checks that printed FAIL so far.
pub(crate) fn failed_checks() -> usize {
    FAILED_CHECKS.load(Ordering::Relaxed)
}

pub(crate) fn last<'a>(series: &'a [AlgoSeries], name: &str) -> &'a antlayer_bench::GroupAverages {
    series
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.groups.last().expect("19 groups"))
        .expect("series present")
}

/// Sweep workload: one graph per group keeps 25 colony runs per point fast
/// while spanning the size range (matching the spirit of §VIII, which
/// tuned on the same corpus).
pub(crate) fn sweep_workload(cfg: &Config) -> Vec<Dag> {
    GraphSuite::att_like_scaled(cfg.seed, 19)
        .iter()
        .map(|(_, d)| d.clone())
        .collect()
}
