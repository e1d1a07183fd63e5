//! The experiment harness: regenerates the data behind **every figure** of
//! the paper (Figs. 4–9) and the §VIII parameter studies, plus the design
//! ablations called out in DESIGN.md.
//!
//! ```text
//! experiments <command> [--seed N] [--total N] [--out DIR]
//!
//! commands:
//!   fig4   width (incl/excl dummies) — LPL, LPL+PL, AntColony
//!   fig5   width (incl/excl dummies) — MinWidth, MinWidth+PL, AntColony
//!   fig6   height and dummy count   — LPL, LPL+PL, AntColony
//!   fig7   height and dummy count   — MinWidth, MinWidth+PL, AntColony
//!   fig8   edge density and runtime — LPL, LPL+PL, AntColony
//!   fig9   edge density and runtime — MinWidth, MinWidth+PL, AntColony
//!   tune-alpha-beta                 §VIII α×β ∈ {1..5}² sweep
//!   tune-nd-width                   §VIII nd_width ∈ {0.1..1.2} sweep
//!   ablate-stretch                  between vs above/below/split stretch
//!   ablate-selection                argmax vs roulette layer choice
//!   ablate-pheromone                layer-assignment vs order pheromone model (§IV-D)
//!   ablate-minwidth                 MinWidth UBW × c grid (WEA'04 tuning)
//!   extended                        paper set + Coffman-Graham + network simplex
//!   convergence                     per-tour best/mean objective of the colony
//!   warmstart                       cold vs warm-started ACO on edit sessions → BENCH_2.json
//!   sharding                        1/2/4-shard router vs one process → BENCH_3.json
//!   hotpath                         zero-alloc hot path vs pre-refactor reference → BENCH_4.json
//!                                   (--baseline FILE gates the speedup against a checked-in run)
//!   transport                       TCP vs HTTP/1.1 framing parity on the mixed workload → BENCH_5.json
//!   observability                   instrumented vs telemetry-off colony + served-histogram audit → BENCH_6.json
//!                                   (--baseline FILE gates the overhead ratio against a checked-in run)
//!   portfolio                       solver portfolio vs ACO-only under the anytime contract → BENCH_7.json
//!   durability                      durable cache + replication under seeded fault injection → BENCH_8.json
//!   reshard                         live shard join/drain under a seeded elastic schedule → BENCH_9.json
//!   live                            streaming edit sessions: 10k idle + 8 hot push gates → BENCH_10.json
//!   all                             everything above, CSVs into --out
//! ```
//!
//! `--total` scales the suite (default 1277, the paper's corpus size);
//! every command prints aligned tables and writes `<out>/<name>.csv` plus a
//! gnuplot-ready `.dat`. A command exits nonzero if any of its
//! `check:` lines prints FAIL.

mod common;
mod durability;
mod extended;
mod figures;
mod hotpath;
mod live;
mod observability;
mod portfolio;
mod reshard;
mod sharding;
mod transport;
mod tuning;
mod warmstart;

use common::Config;
use durability::durability;
use extended::{convergence, extended};
use figures::{fig_ed_rt, fig_height_dvc, fig_width};
use hotpath::hotpath;
use live::live;
use observability::observability;
use portfolio::portfolio;
use reshard::reshard;
use sharding::sharding;
use std::path::PathBuf;
use std::process::ExitCode;
use transport::transport;
use tuning::{
    ablate_minwidth, ablate_pheromone, ablate_selection, ablate_stretch, tune_alpha_beta,
    tune_nd_width,
};
use warmstart::warmstart;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) if common::failed_checks() > 0 => {
            eprintln!("experiments: {} check(s) failed", common::failed_checks());
            ExitCode::FAILURE
        }
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command (fig4..fig9, tune-alpha-beta, tune-nd-width, ablate-stretch, ablate-selection, all)".into());
    };
    let mut cfg = Config {
        seed: 1,
        total: antlayer_datasets::TOTAL_GRAPHS,
        out: PathBuf::from("results"),
        baseline: None,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                cfg.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
                i += 2;
            }
            "--total" => {
                cfg.total = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--total needs an integer")?;
                i += 2;
            }
            "--out" => {
                cfg.out = PathBuf::from(args.get(i + 1).ok_or("--out needs a path")?);
                i += 2;
            }
            "--baseline" => {
                cfg.baseline = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--baseline needs a path")?,
                ));
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("creating {:?}: {e}", cfg.out))?;

    match cmd.as_str() {
        "fig4" => fig_width(&cfg, "fig4", &["LPL", "LPL+PL", "AntColony"]),
        "fig5" => fig_width(&cfg, "fig5", &["MinWidth", "MinWidth+PL", "AntColony"]),
        "fig6" => fig_height_dvc(&cfg, "fig6", &["LPL", "LPL+PL", "AntColony"]),
        "fig7" => fig_height_dvc(&cfg, "fig7", &["MinWidth", "MinWidth+PL", "AntColony"]),
        "fig8" => fig_ed_rt(&cfg, "fig8", &["LPL", "LPL+PL", "AntColony"]),
        "fig9" => fig_ed_rt(&cfg, "fig9", &["MinWidth", "MinWidth+PL", "AntColony"]),
        "tune-alpha-beta" => tune_alpha_beta(&cfg),
        "tune-nd-width" => tune_nd_width(&cfg),
        "ablate-stretch" => ablate_stretch(&cfg),
        "ablate-selection" => ablate_selection(&cfg),
        "ablate-pheromone" => ablate_pheromone(&cfg),
        "ablate-minwidth" => ablate_minwidth(&cfg),
        "extended" => extended(&cfg),
        "convergence" => convergence(&cfg),
        "warmstart" => warmstart(&cfg),
        "sharding" => sharding(&cfg),
        "hotpath" => hotpath(&cfg),
        "transport" => transport(&cfg),
        "observability" => observability(&cfg),
        "portfolio" => portfolio(&cfg),
        "durability" => durability(&cfg),
        "reshard" => reshard(&cfg),
        "live" => live(&cfg),
        "all" => {
            for c in ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"] {
                run(&with_cmd(c, args))?;
            }
            // The sweeps re-run the colony 25 / 12 times; use a slice of the
            // suite unless the user overrode --total.
            tune_alpha_beta(&cfg)?;
            tune_nd_width(&cfg)?;
            ablate_stretch(&cfg)?;
            ablate_selection(&cfg)?;
            ablate_pheromone(&cfg)?;
            ablate_minwidth(&cfg)?;
            extended(&cfg)?;
            convergence(&cfg)?;
            warmstart(&cfg)?;
            sharding(&cfg)?;
            transport(&cfg)?;
            observability(&cfg)?;
            portfolio(&cfg)?;
            durability(&cfg)?;
            reshard(&cfg)?;
            live(&cfg)?;
            hotpath(&cfg)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn with_cmd(cmd: &str, args: &[String]) -> Vec<String> {
    let mut v = vec![cmd.to_string()];
    v.extend(args.iter().skip(1).cloned());
    v
}
