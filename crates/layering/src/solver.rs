//! What an anytime [`LayeringAlgorithm::solve`] returns, and the exact
//! search behind it.
//!
//! * [`Solution`] is the incumbent plus the contract's flags; its
//!   [`cost`](Solution::cost) is [`solution_cost`], the `H + W` every
//!   engine is compared on.
//! * [`Exact`] wraps the branch and bound of [`crate::exact`] with a
//!   deadline check and a node cap; a run that completes the search
//!   *certifies* its solution as optimal ([`Solution::certified`]).
//! * The ant colony and the portfolio driver override `solve` in the
//!   `antlayer-aco` crate (they need colony internals to warm-start).
//!
//! A [`Solution`] may carry a [`RaceReport`] when the algorithm is
//! itself a race over members (the portfolio): who won, and each
//! member's cost, wall time, and flags.

use crate::{exact, Layering, LayeringAlgorithm, LayeringMetrics, LongestPath, WidthModel};
use antlayer_graph::Dag;
use std::time::Instant;

/// The paper's comparison cost of a layering: `height + width` of the
/// normalized layering (the denominator of the objective `1/(H+W)`),
/// dummy widths included per `wm`. Smaller is better; every
/// [`Solution`] reports it so heterogeneous engines compare directly.
pub fn solution_cost(dag: &Dag, layering: &Layering, wm: &WidthModel) -> f64 {
    let m = LayeringMetrics::compute(dag, layering, wm);
    m.height as f64 + m.width
}

/// One member's line in a [`RaceReport`]: how a portfolio member fared.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberStats {
    /// The member's registered solver name (`lpl`, `aco`, `exact`, …).
    pub solver: String,
    /// The member's [`solution_cost`] (`H + W`, smaller is better).
    pub cost: f64,
    /// Wall time the member ran, in microseconds.
    pub micros: u64,
    /// Whether the deadline truncated this member's search.
    pub stopped_early: bool,
    /// Whether this member *proved* its solution optimal.
    pub certified: bool,
}

/// The outcome of a race over several members: who won and how each ran.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceReport {
    /// Name of the member whose solution was returned (ties go to the
    /// earlier, cheaper member).
    pub winner: String,
    /// Every member that produced an incumbent, in run order.
    pub members: Vec<MemberStats>,
}

/// What [`LayeringAlgorithm::solve`] returns: the incumbent plus the
/// contract's flags.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The best layering found (valid and normalized).
    pub layering: Layering,
    /// The [`solution_cost`] of [`layering`](Self::layering).
    pub cost: f64,
    /// Whether the deadline truncated the search (the incumbent is the
    /// anytime best, not the solver's converged answer).
    pub stopped_early: bool,
    /// Whether the solution is proven optimal for the paper's objective
    /// (minimum `H + W`) — only the exact search can set this.
    pub certified: bool,
    /// Whether the solver was warm-started from a caller-provided seed.
    pub seeded: bool,
    /// Per-member breakdown when the solver raced several engines.
    pub race: Option<RaceReport>,
}

impl Solution {
    /// A plain solution around `layering`: cost computed, every flag
    /// false. Builders set the flags that apply.
    pub fn of(dag: &Dag, wm: &WidthModel, layering: Layering) -> Solution {
        let cost = solution_cost(dag, &layering, wm);
        Solution {
            layering,
            cost,
            stopped_early: false,
            certified: false,
            seeded: false,
            race: None,
        }
    }
}

/// The exact branch and bound behind the anytime contract: under the
/// node cap it searches for the true minimum of `H + W` and *certifies*
/// the result when the search completes; a deadline (or the expansion
/// budget) truncates it to its best incumbent instead. Above the cap it
/// degrades to the LPL incumbent — the contract demands an answer, and
/// an exponential search on a large graph would never produce one.
pub struct Exact {
    /// Largest graph the search attempts (the search is exponential;
    /// larger inputs return the constructive fallback uncertified).
    pub node_cap: usize,
    /// Deterministic work bound on the branch and bound, in search-tree
    /// expansions — the machine-independent twin of the deadline, so a
    /// pathological instance cannot pin a worker even without one.
    pub max_expansions: u64,
}

impl Default for Exact {
    fn default() -> Self {
        Exact {
            node_cap: 12,
            max_expansions: 2_000_000,
        }
    }
}

impl LayeringAlgorithm for Exact {
    fn name(&self) -> &str {
        "exact"
    }

    fn layer(&self, dag: &Dag, widths: &WidthModel) -> Layering {
        self.solve(dag, widths, None).layering
    }

    fn solve(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> Solution {
        if dag.node_count() > self.node_cap.min(exact::MAX_EXACT_NODES) {
            // Too large to certify: the cheap constructive incumbent is
            // the honest anytime answer (not truncated — the exact
            // search was never attempted, and waiting longer would not
            // have produced one).
            return Solution::of(dag, wm, LongestPath.layer(dag, wm));
        }
        let budget = exact::SearchBudget {
            deadline,
            max_expansions: self.max_expansions,
        };
        let search = exact::min_cost_layering(dag, wm, &budget);
        match search.best {
            Some((layering, cost)) => Solution {
                layering,
                cost,
                stopped_early: !search.completed,
                certified: search.completed,
                seeded: false,
                race: None,
            },
            // Truncated before the first complete assignment: fall back
            // to the instant constructive incumbent.
            None => Solution {
                stopped_early: !search.completed,
                ..Solution::of(dag, wm, LongestPath.layer(dag, wm))
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinWidth;

    fn diamond() -> Dag {
        Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn constructive_matches_its_algorithm_and_ignores_deadlines() {
        let dag = diamond();
        let wm = WidthModel::unit();
        assert_eq!(LongestPath.name(), "LPL");
        let expired = Some(Instant::now());
        let s = LongestPath.solve(&dag, &wm, expired);
        assert_eq!(s.layering, LongestPath.layer(&dag, &wm));
        assert!(!s.stopped_early, "constructive answers are instant");
        assert!(!s.certified);
        assert_eq!(s.cost, solution_cost(&dag, &s.layering, &wm));
        // The default seeded path ignores the seed.
        let seed = MinWidth::new().layer(&dag, &wm);
        let seeded = LongestPath.solve_seeded(&dag, &wm, &seed, None);
        assert_eq!(seeded.layering, s.layering);
        assert!(!seeded.seeded);
    }

    #[test]
    fn exact_certifies_small_graphs() {
        let dag = diamond();
        let wm = WidthModel::unit();
        let s = Exact::default().solve(&dag, &wm, None);
        s.layering.validate(&dag).unwrap();
        assert!(s.certified);
        assert!(!s.stopped_early);
        // Certified optimum must not lose to any heuristic.
        let mw = solution_cost(&dag, &MinWidth::new().layer(&dag, &wm), &wm);
        let lpl = solution_cost(&dag, &LongestPath.layer(&dag, &wm), &wm);
        assert!(s.cost <= mw + 1e-9 && s.cost <= lpl + 1e-9);
    }

    #[test]
    fn exact_falls_back_above_the_node_cap() {
        let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(20, &edges).unwrap();
        let wm = WidthModel::unit();
        let s = Exact::default().solve(&dag, &wm, None);
        s.layering.validate(&dag).unwrap();
        assert!(!s.certified, "no certification without a complete search");
        assert!(!s.stopped_early);
        assert_eq!(s.layering, LongestPath.layer(&dag, &wm));
    }

    #[test]
    fn exact_with_expired_deadline_returns_an_incumbent_truncated() {
        let dag = diamond();
        let wm = WidthModel::unit();
        let s = Exact::default().solve(&dag, &wm, Some(Instant::now()));
        s.layering.validate(&dag).unwrap();
        assert!(s.stopped_early, "expired deadline must report truncation");
        assert!(!s.certified);
    }

    #[test]
    fn exact_layer_is_its_deadline_free_solve() {
        let dag = diamond();
        let wm = WidthModel::unit();
        let algo: &dyn LayeringAlgorithm = &Exact::default();
        assert_eq!(algo.name(), "exact");
        let l = algo.layer(&dag, &wm);
        l.validate(&dag).unwrap();
        assert_eq!(l, algo.solve(&dag, &wm, None).layering);
        // Exact cannot use a seed: the default seeded path ignores it.
        let seeded = algo.solve_seeded(&dag, &wm, &LongestPath.layer(&dag, &wm), None);
        assert!(!seeded.seeded);
        assert_eq!(seeded.layering, l);
    }
}
