//! Conformance suite for the anytime side of [`LayeringAlgorithm`].
//!
//! Every implementation — the five single-pass constructive algorithms,
//! the network simplex, the exact branch and bound, the ant colony, and
//! the portfolio — is run through the same battery:
//!
//! * **deadline honored**: an already-expired deadline still returns a
//!   valid incumbent, never panics, and sets `stopped_early` iff the
//!   solver actually searches (single-pass answers ignore the clock and
//!   may not claim truncation);
//! * **determinism**: two unbounded solves under a fixed seed return the
//!   same layering and bitwise-identical cost;
//! * **objective parity**: the reported `cost` equals `H + W` of the
//!   returned layering, and matches what the solver's direct API
//!   produces.

use antlayer_aco::{AcoLayering, AcoParams, Portfolio};
use antlayer_graph::{generate, Dag};
use antlayer_layering::{
    exact, solution_cost, CoffmanGraham, Exact, LayeringAlgorithm, LayeringMetrics, LongestPath,
    MinWidth, NetworkSimplex, Promote, Refined, WidthModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn params() -> AcoParams {
    AcoParams::default().with_colony(4, 6).with_seed(77)
}

/// The single-pass algorithms, which answer through the provided
/// `solve`.
fn constructives() -> Vec<Box<dyn LayeringAlgorithm>> {
    vec![
        Box::new(LongestPath),
        Box::new(Refined::new(LongestPath, Promote::new())),
        Box::new(MinWidth::new()),
        Box::new(Refined::new(MinWidth::new(), Promote::new())),
        Box::new(CoffmanGraham::new(4)),
    ]
}

/// Every registered algorithm, plus whether it is a genuine anytime
/// search (its `stopped_early` must be set under an expired deadline).
fn solvers() -> Vec<(Box<dyn LayeringAlgorithm>, bool)> {
    let mut all: Vec<(Box<dyn LayeringAlgorithm>, bool)> =
        constructives().into_iter().map(|a| (a, false)).collect();
    all.push((Box::new(NetworkSimplex), true));
    all.push((Box::new(Exact::default()), true));
    all.push((Box::new(AcoLayering::new(params())), true));
    all.push((Box::new(Portfolio::new(params())), true));
    all
}

fn graphs() -> Vec<Dag> {
    let mut rng = StdRng::seed_from_u64(2024);
    vec![
        // Under the exact cap: the exact/portfolio members certify.
        generate::gnp_dag(8, 0.3, &mut rng),
        // Above the cap: exact falls back, portfolio skips its member.
        generate::random_dag_with_edges(30, 50, &mut rng),
        // Single vertex: the degenerate but legal request.
        Dag::from_edges(1, &[]).unwrap(),
    ]
}

#[test]
fn expired_deadline_returns_a_valid_incumbent() {
    for (solver, anytime) in solvers() {
        for dag in graphs() {
            let wm = WidthModel::unit();
            let s = solver.solve(&dag, &wm, Some(Instant::now()));
            s.layering
                .validate(&dag)
                .unwrap_or_else(|e| panic!("{}: invalid incumbent: {e:?}", solver.name()));
            assert!(
                (s.cost - solution_cost(&dag, &s.layering, &wm)).abs() < 1e-9,
                "{}: cost disagrees with the returned layering",
                solver.name()
            );
            if !anytime {
                assert!(
                    !s.stopped_early,
                    "{}: constructive answers are instant, not truncated",
                    solver.name()
                );
            }
        }
    }
}

#[test]
fn anytime_solvers_report_truncation_under_an_expired_deadline() {
    let mut rng = StdRng::seed_from_u64(6);
    // Big enough that no anytime search can finish before its first
    // deadline check.
    let dag = generate::random_dag_with_edges(40, 70, &mut rng);
    let wm = WidthModel::unit();
    for (solver, anytime) in solvers() {
        if !anytime {
            continue;
        }
        // `exact` is a special case above its node cap: the search is
        // never attempted, so there is nothing to truncate.
        if solver.name() == "exact" {
            continue;
        }
        let s = solver.solve(&dag, &wm, Some(Instant::now()));
        assert!(
            s.stopped_early,
            "{}: expired deadline must set stopped_early",
            solver.name()
        );
    }
}

#[test]
fn deterministic_under_a_fixed_seed() {
    for (solver, _) in solvers() {
        for dag in graphs() {
            let wm = WidthModel::unit();
            let a = solver.solve(&dag, &wm, None);
            let b = solver.solve(&dag, &wm, None);
            assert_eq!(
                a.layering,
                b.layering,
                "{}: layering differs across identical solves",
                solver.name()
            );
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "{}: cost differs across identical solves",
                solver.name()
            );
            assert_eq!(a.certified, b.certified, "{}", solver.name());
        }
    }
}

#[test]
fn constructive_solutions_match_the_direct_algorithm() {
    for dag in graphs() {
        let wm = WidthModel::unit();
        let seed = LongestPath.layer(&dag, &wm);
        for algo in constructives() {
            let direct = algo.layer(&dag, &wm);
            // The deadline is ignored: even an expired one gets the full
            // answer, neither truncated nor certified.
            for deadline in [None, Some(Instant::now())] {
                let s = algo.solve(&dag, &wm, deadline);
                assert_eq!(s.layering, direct, "{}", algo.name());
                assert!(!s.stopped_early && !s.certified, "{}", algo.name());
            }
            // The seed is ignored too.
            let s = algo.solve_seeded(&dag, &wm, &seed, None);
            assert_eq!(
                s.layering,
                direct,
                "{}: seed changed the answer",
                algo.name()
            );
            assert!(!s.seeded, "{}", algo.name());
        }
        let exact = Exact::default();
        assert_eq!(
            exact.solve(&dag, &wm, None).layering,
            exact.layer(&dag, &wm)
        );
    }
}

#[test]
fn aco_solution_matches_the_direct_colony_run() {
    let mut rng = StdRng::seed_from_u64(8);
    let dag = generate::random_dag_with_edges(25, 40, &mut rng);
    let wm = WidthModel::unit();
    let algo = AcoLayering::new(params());
    let s = algo.solve(&dag, &wm, None);
    let run = algo.run(&dag, &wm);
    assert_eq!(s.layering, run.layering);
    // Parity between the solver's H+W cost and the colony's objective
    // f = 1/(H+W) on the same layering.
    assert!((s.cost * run.objective - 1.0).abs() < 1e-9);
    let m = LayeringMetrics::compute(&dag, &s.layering, &wm);
    assert!((s.cost - (m.height as f64 + m.width)).abs() < 1e-9);
}

#[test]
fn exact_solution_matches_the_direct_bounded_search() {
    let mut rng = StdRng::seed_from_u64(10);
    let dag = generate::gnp_dag(9, 0.25, &mut rng);
    let wm = WidthModel::unit();
    let s = Exact::default().solve(&dag, &wm, None);
    assert!(s.certified);
    let direct = exact::min_cost_layering(&dag, &wm, &exact::SearchBudget::unlimited());
    let (layering, cost) = direct.best.unwrap();
    assert_eq!(s.layering, layering);
    assert_eq!(s.cost.to_bits(), cost.to_bits());
}

#[test]
fn portfolio_winner_cost_is_the_member_minimum() {
    for dag in graphs() {
        let wm = WidthModel::unit();
        let s = Portfolio::new(params()).solve(&dag, &wm, None);
        let race = s.race.expect("the portfolio always reports its race");
        let min = race
            .members
            .iter()
            .map(|m| m.cost)
            .fold(f64::INFINITY, f64::min);
        assert!((s.cost - min).abs() < 1e-9);
        let winner = race
            .members
            .iter()
            .find(|m| m.solver == race.winner)
            .expect("winner is one of the members");
        assert!((winner.cost - s.cost).abs() < 1e-9);
    }
}

#[test]
fn seeded_solves_never_return_something_worse_than_searching_from_scratch_allows() {
    // The seeded contract: the seed is installed as the incumbent, so
    // the anytime solvers can only return something at least as good.
    let mut rng = StdRng::seed_from_u64(12);
    let dag = generate::random_dag_with_edges(30, 50, &mut rng);
    let wm = WidthModel::unit();
    let seed = LongestPath.layer(&dag, &wm);
    let seed_cost = solution_cost(&dag, &seed, &wm);
    for solver in [
        Box::new(AcoLayering::new(params())) as Box<dyn LayeringAlgorithm>,
        Box::new(Portfolio::new(params())),
    ] {
        let s = solver.solve_seeded(&dag, &wm, &seed, None);
        assert!(s.seeded, "{}: seeded flag must be set", solver.name());
        assert!(
            s.cost <= seed_cost + 1e-9,
            "{}: returned {} but the seed already scores {}",
            solver.name(),
            s.cost,
            seed_cost
        );
    }
}

/// The scale class the anytime contract promises: a 10⁴-node hierarchical
/// DAG (about 1.4·10⁴ edges) under a 100 ms deadline. The network simplex
/// needs several times that to reach the optimum, so it must stop at the
/// clock and answer within 50 ms of it. Release-only: the timing of a
/// debug build says nothing about the served binary.
#[cfg(not(debug_assertions))]
#[test]
fn network_simplex_answers_by_a_100ms_deadline_at_ten_thousand_nodes() {
    use std::time::Duration;
    let mut rng = StdRng::seed_from_u64(3);
    let dag = generate::layered_dag(10_000, 1_000, 0.02, 2, &mut rng);
    let wm = WidthModel::unit();
    let start = Instant::now();
    let s = NetworkSimplex.solve(&dag, &wm, Some(start + Duration::from_millis(100)));
    let elapsed = start.elapsed();
    s.layering.validate(&dag).unwrap();
    assert!(
        s.stopped_early,
        "the full solve is expected to outlast 100 ms"
    );
    assert!(
        elapsed <= Duration::from_millis(150),
        "answered after {elapsed:?}"
    );
}
