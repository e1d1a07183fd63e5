//! The [`LayeringAlgorithm`] abstraction and combinators.
//!
//! Every layering engine — the single-pass constructive algorithms, the
//! exponential exact search, the ant colony, the portfolio that races
//! them — implements this one trait. Its anytime side is the contract
//! the service serves under: *given a DAG, a width model, and an
//! optional absolute deadline, return the best incumbent found by the
//! deadline, never panic, and say whether the clock truncated the
//! search.* The paper's objective is `f = 1 / (H + W)`; a [`Solution`]
//! reports the denominator [`Solution::cost`] `= H + W` of the
//! normalized layering, so results from different engines compare
//! directly (smaller is better).

use crate::{Layering, Solution, WidthModel};
use antlayer_graph::Dag;
use std::time::Instant;

/// A layering algorithm: produces a valid [`Layering`] for any DAG.
///
/// Implementations must return layerings that pass
/// [`Layering::validate`] and are [normalized](Layering::normalize).
///
/// Only [`name`](Self::name) and [`layer`](Self::layer) are required.
/// The provided [`solve`](Self::solve) suits single-pass algorithms:
/// their one layering is the incumbent, so they ignore the deadline, an
/// expired deadline still gets an answer, and `stopped_early` stays
/// `false`. Each of them runs to completion however long that takes.
/// Searches that can use a clock or a warm start override `solve` (the
/// exact search, the network simplex, the colony, the portfolio) and
/// [`solve_seeded`](Self::solve_seeded) (the colony, the portfolio)
/// instead.
pub trait LayeringAlgorithm {
    /// Short human-readable name, used in reports ("LPL", "MinWidth", …).
    fn name(&self) -> &str;

    /// Layers `dag` under the given width model.
    fn layer(&self, dag: &Dag, widths: &WidthModel) -> Layering;

    /// Solves `dag` under `wm`, returning the best incumbent found by
    /// `deadline` (`None` = run to the algorithm's own convergence).
    fn solve(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> Solution {
        let _ = deadline;
        Solution::of(dag, wm, self.layer(dag, wm))
    }

    /// Like [`solve`](Self::solve), warm-started from `seed` (a valid
    /// layering of `dag`). Algorithms that cannot exploit a seed ignore
    /// it; the default does exactly that.
    fn solve_seeded(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        seed: &Layering,
        deadline: Option<Instant>,
    ) -> Solution {
        let _ = seed;
        self.solve(dag, wm, deadline)
    }
}

/// A post-pass that improves an existing layering in place (e.g. Promote
/// Layering).
pub trait LayeringRefinement {
    /// Short human-readable name ("PL", …).
    fn name(&self) -> &str;

    /// Improves `layering` in place; must preserve validity.
    fn refine(&self, dag: &Dag, layering: &mut Layering, widths: &WidthModel);
}

/// Combinator: run a base algorithm, then a refinement — e.g.
/// "LPL with Promote Layering" from the paper's benchmark set.
pub struct Refined<A, R> {
    base: A,
    refinement: R,
    name: String,
}

impl<A: LayeringAlgorithm, R: LayeringRefinement> Refined<A, R> {
    /// Combines `base` followed by `refinement`.
    pub fn new(base: A, refinement: R) -> Self {
        let name = format!("{}+{}", base.name(), refinement.name());
        Refined {
            base,
            refinement,
            name,
        }
    }
}

impl<A: LayeringAlgorithm, R: LayeringRefinement> LayeringAlgorithm for Refined<A, R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer(&self, dag: &Dag, widths: &WidthModel) -> Layering {
        let mut l = self.base.layer(dag, widths);
        self.refinement.refine(dag, &mut l, widths);
        l.normalize();
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::NodeId;

    struct Tall;
    impl LayeringAlgorithm for Tall {
        fn name(&self) -> &str {
            "tall"
        }
        fn layer(&self, dag: &Dag, _w: &WidthModel) -> Layering {
            // One node per layer following topological order, sinks low.
            let n = dag.node_count();
            let mut l = Layering::flat(n);
            for (i, &v) in dag.topo_order().iter().enumerate() {
                l.set_layer(v, (n - i) as u32);
            }
            l
        }
    }

    struct Shift;
    impl LayeringRefinement for Shift {
        fn name(&self) -> &str {
            "shift"
        }
        fn refine(&self, _dag: &Dag, layering: &mut Layering, _w: &WidthModel) {
            // Waste a layer below; Refined must normalize it away.
            for v in 0..layering.len() {
                let v = NodeId::new(v);
                layering.set_layer(v, layering.layer(v) + 5);
            }
        }
    }

    #[test]
    fn refined_composes_and_normalizes() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let algo = Refined::new(Tall, Shift);
        assert_eq!(algo.name(), "tall+shift");
        let l = algo.layer(&dag, &WidthModel::unit());
        l.validate(&dag).unwrap();
        assert_eq!(l.min_layer(), 1);
        assert_eq!(l.max_layer(), 3);
    }

    #[test]
    fn references_and_boxes_are_algorithms() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let boxed: Box<dyn LayeringAlgorithm> = Box::new(Tall);
        assert_eq!(boxed.name(), "tall");
        boxed
            .layer(&dag, &WidthModel::unit())
            .validate(&dag)
            .unwrap();
        let by_ref: &dyn LayeringAlgorithm = &Tall;
        by_ref
            .layer(&dag, &WidthModel::unit())
            .validate(&dag)
            .unwrap();
        // The provided anytime methods dispatch through the trait object.
        let s = boxed.solve(&dag, &WidthModel::unit(), None);
        assert_eq!(s.layering, by_ref.layer(&dag, &WidthModel::unit()));
    }
}
