//! The solver-portfolio benchmark behind `BENCH_7.json`: the portfolio
//! racer vs an ACO-only solve over three graph classes, under the same
//! anytime contract the scheduler exposes.
//!
//! Classes:
//!
//! * **small** — 9-node G(n,p) DAGs, inside the exact search's node cap,
//!   so the portfolio must come back `certified`;
//! * **medium** — 40-node random DAGs, the constructive-vs-colony race;
//! * **large** — 150-node layered DAGs, where the warm-started colony
//!   member does the heavy lifting.
//!
//! Per graph the scenario solves four ways: portfolio and ACO-only, each
//! once unbounded and once under an already-expired deadline (the
//! serving layer's worst case — whatever incumbent exists *right now*).
//! Reported per class: each member's win rate in the portfolio race and
//! the mean final cost of both solvers.
//!
//! Gates (nonzero exit on failure, all deterministic under `--seed`):
//!
//! * at a zero deadline the portfolio's incumbent is never worse than
//!   ACO-only's on any graph — the cheap-constructive-first design is
//!   exactly what the anytime contract buys;
//! * unbounded, the portfolio's per-class mean cost is never worse than
//!   ACO-only's — racing extra members must not cost quality;
//! * a `certified` result is never beaten by any other solve of the same
//!   graph — "certified optimal" is a proof, not a mood.
use crate::common::{check, emit, Config};
use antlayer_aco::{AcoLayering, AcoParams, Portfolio};
use antlayer_datasets::Table;
use antlayer_graph::{generate, Dag};
use antlayer_layering::{LayeringAlgorithm, WidthModel};
use antlayer_service::protocol::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

fn class_specs() -> [(&'static str, usize); 3] {
    [("small", 5), ("medium", 5), ("large", 4)]
}

fn class_graph(class: &str, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    match class {
        "small" => generate::gnp_dag(9, 0.25, &mut rng),
        "medium" => generate::random_dag_with_edges(40, 70, &mut rng),
        "large" => generate::layered_dag(150, 40, 0.04, 2, &mut rng),
        other => unreachable!("unknown class {other}"),
    }
}

pub(crate) fn portfolio(cfg: &Config) -> Result<(), String> {
    let wm = WidthModel::unit();
    let params = AcoParams::default().with_seed(cfg.seed);

    let mut table = Table::new(&[
        "class",
        "graph",
        "winner",
        "certified",
        "portfolio_cost",
        "aco_cost",
        "portfolio_cost_t0",
        "aco_cost_t0",
    ]);
    let mut classes_json = Vec::new();
    let mut anytime_ok = true;
    let mut mean_ok = true;
    let mut certified_ok = true;
    let mut small_all_certified = true;
    for (class, count) in class_specs() {
        let mut graphs_json = Vec::new();
        let mut wins: BTreeMap<String, u64> = BTreeMap::new();
        let (mut p_sum, mut a_sum) = (0.0f64, 0.0f64);
        for g in 0..count {
            let dag = class_graph(class, cfg.seed.wrapping_mul(7777) + g as u64);
            let racer = Portfolio::new(params.clone());
            let colony = AcoLayering::new(params.clone());

            let p = racer.solve(&dag, &wm, None);
            let a = colony.solve(&dag, &wm, None);
            // The anytime worst case: the deadline is already gone, the
            // caller gets whatever incumbent exists right now.
            let p0 = racer.solve(&dag, &wm, Some(Instant::now()));
            let a0 = colony.solve(&dag, &wm, Some(Instant::now()));

            anytime_ok &= p0.cost <= a0.cost + 1e-9;
            if p.certified {
                // A certified cost is a proven optimum: nothing else this
                // run produced may ever undercut it.
                let others = a.cost.min(p0.cost).min(a0.cost);
                certified_ok &= others >= p.cost - 1e-9;
            }
            if class == "small" {
                small_all_certified &= p.certified;
            }

            let race = p.race.as_ref().expect("the portfolio reports its race");
            *wins.entry(race.winner.clone()).or_insert(0) += 1;
            p_sum += p.cost;
            a_sum += a.cost;
            table.push_row(vec![
                class.into(),
                g.into(),
                race.winner.clone().into(),
                u64::from(p.certified).into(),
                p.cost.into(),
                a.cost.into(),
                p0.cost.into(),
                a0.cost.into(),
            ]);
            let mut row = BTreeMap::new();
            row.insert("graph".to_string(), Json::Num(g as f64));
            row.insert("nodes".to_string(), Json::Num(dag.node_count() as f64));
            row.insert("winner".to_string(), Json::Str(race.winner.clone()));
            row.insert("certified".to_string(), Json::Bool(p.certified));
            row.insert("portfolio_cost".to_string(), Json::Num(p.cost));
            row.insert("aco_cost".to_string(), Json::Num(a.cost));
            row.insert("portfolio_cost_t0".to_string(), Json::Num(p0.cost));
            row.insert("aco_cost_t0".to_string(), Json::Num(a0.cost));
            graphs_json.push(Json::Obj(row));
        }
        let n = count as f64;
        mean_ok &= p_sum <= a_sum + 1e-9;
        let mut class_obj = BTreeMap::new();
        class_obj.insert("class".to_string(), Json::Str(class.into()));
        class_obj.insert("portfolio_mean_cost".to_string(), Json::Num(p_sum / n));
        class_obj.insert("aco_mean_cost".to_string(), Json::Num(a_sum / n));
        class_obj.insert(
            "win_rates".to_string(),
            Json::Obj(
                wins.iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64 / n)))
                    .collect(),
            ),
        );
        class_obj.insert("graphs".to_string(), Json::Arr(graphs_json));
        classes_json.push(Json::Obj(class_obj));
    }
    emit(
        cfg,
        "portfolio",
        "solver portfolio vs ACO-only: final cost (H+W), unbounded and at a zero deadline",
        &table,
    )?;

    check(
        "zero-deadline portfolio incumbent never worse than ACO-only's",
        anytime_ok,
    );
    check(
        "unbounded per-class mean cost never worse than ACO-only's",
        mean_ok,
    );
    check("certified-optimal results are never beaten", certified_ok);
    check(
        "every small-class graph comes back certified",
        small_all_certified,
    );

    let pass = anytime_ok && mean_ok && certified_ok && small_all_certified;
    let mut doc = BTreeMap::new();
    doc.insert("bench".to_string(), Json::Str("solver_portfolio".into()));
    doc.insert(
        "scenario".to_string(),
        Json::Str(format!(
            "small 9-node / medium 40-node / large 150-node classes, colony {}x{}; \
             portfolio vs ACO-only, unbounded and at an expired deadline",
            params.n_ants, params.n_tours
        )),
    );
    doc.insert("seed".to_string(), Json::Num(cfg.seed as f64));
    doc.insert("classes".to_string(), Json::Arr(classes_json));
    doc.insert("pass".to_string(), Json::Bool(pass));
    let path = cfg.out.join("BENCH_7.json");
    let mut text = Json::Obj(doc).encode();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}\n", path.display());

    if !pass {
        return Err(format!(
            "portfolio regression: anytime_ok {anytime_ok}, mean_ok {mean_ok}, \
             certified_ok {certified_ok}, small_all_certified {small_all_certified}"
        ));
    }
    Ok(())
}
