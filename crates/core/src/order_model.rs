//! The alternative pheromone model of §IV-D: learning the **assignment
//! order** instead of the assignment itself.
//!
//! The paper describes two places pheromone can live: *"τij represents the
//! desirability of assigning vertex vi immediately after vertex vj"* (this
//! module) or *"the desirability of assigning vertex vi to layer lj"* (the
//! model the paper adopts, [`Colony`](crate::Colony)). Here ants build the
//! *visit order* from a vertex-after-vertex trail matrix, while the layer
//! choice within each step is purely heuristic (`η = 1/W`, as in the main
//! model with uniform pheromone). The tour loop — evaporation, tour-best
//! deposit, base inheritance — is unchanged.
//!
//! Implemented to make the paper's design choice testable: the ablation
//! can ask whether learning *where* to put vertices beats learning *when*
//! to move them.

use crate::stretch::stretch;
use crate::walk::{choose_layer, PowExp};
use crate::{AcoParams, SearchState};
use antlayer_graph::{Dag, NodeId};
use antlayer_layering::{Layering, LayeringAlgorithm, LongestPath, WidthModel};
use antlayer_parallel::{default_threads, par_map};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trail matrix over vertex successions: entry `(prev, next)` is the
/// desirability of visiting `next` immediately after `prev`; row `n` (the
/// virtual start vertex) holds the desirability of *starting* at `next`.
#[derive(Clone, Debug)]
struct OrderTrails {
    data: Vec<f64>,
    n: usize,
}

impl OrderTrails {
    fn filled(n: usize, value: f64) -> Self {
        OrderTrails {
            data: vec![value; (n + 1) * n],
            n,
        }
    }

    #[inline]
    fn get(&self, prev: Option<NodeId>, next: NodeId) -> f64 {
        let row = prev.map_or(self.n, NodeId::index);
        self.data[row * self.n + next.index()]
    }

    #[inline]
    fn add(&mut self, prev: Option<NodeId>, next: NodeId, delta: f64) {
        let row = prev.map_or(self.n, NodeId::index);
        self.data[row * self.n + next.index()] += delta;
    }

    fn scale_all(&mut self, factor: f64) {
        for x in &mut self.data {
            *x = (*x * factor).max(1e-12);
        }
    }
}

/// The §IV-D "order" variant of the ACO layering algorithm.
///
/// Parameters are shared with [`AcoParams`]; `alpha` weights the order
/// trail, `beta` the width heuristic of the per-step layer choice.
/// `selection`, `visit_order` and `deposit` are ignored (the model defines
/// its own ordering; deposits are tour-best).
#[derive(Clone, Debug, Default)]
pub struct OrderAcoLayering {
    /// Colony parameters (see type-level docs for which fields apply).
    pub params: AcoParams,
}

impl OrderAcoLayering {
    /// Wraps the given parameters.
    pub fn new(params: AcoParams) -> Self {
        OrderAcoLayering { params }
    }

    fn ant_seed(&self, tour: usize, ant: usize) -> u64 {
        let mut z = self.params.seed.wrapping_add(
            0x9E37_79B9_7F4A_7C15_u64
                .wrapping_mul(1 + tour as u64 * self.params.n_ants as u64 + ant as u64),
        );
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One walk: the visit order is *constructed* by roulette over the order
/// trails; each visited vertex is placed by the width heuristic.
fn order_walk(
    dag: &Dag,
    wm: &WidthModel,
    params: &AcoParams,
    trails: &OrderTrails,
    state: &mut SearchState,
    rng: &mut StdRng,
) -> (Vec<NodeId>, f64) {
    let n = dag.node_count();
    let eta_floor = params.effective_eta_floor(wm.dummy_width);
    let (alpha, beta) = (PowExp::of(params.alpha), PowExp::of(params.beta));
    // Uniform layer-pheromone: the layer decision is heuristic-only here,
    // so every span window is a prefix of one all-ones slice.
    let ones = vec![1.0; state.total_layers as usize];
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut scores = Vec::new();
    let mut prev: Option<NodeId> = None;
    for _ in 0..n {
        // Roulette over unvisited vertices by trail^alpha.
        let mut total = 0.0f64;
        for v in dag.nodes() {
            if !visited[v.index()] {
                total += crate::walk::pow_fast(trails.get(prev, v), params.alpha);
            }
        }
        let next = if total <= 0.0 || !total.is_finite() {
            // Degenerate trails: first unvisited.
            dag.nodes().find(|v| !visited[v.index()]).expect("n steps")
        } else {
            let mut ticket = rng.gen_range(0.0..total);
            let mut chosen = None;
            for v in dag.nodes() {
                if visited[v.index()] {
                    continue;
                }
                ticket -= crate::walk::pow_fast(trails.get(prev, v), params.alpha);
                if ticket < 0.0 {
                    chosen = Some(v);
                    break;
                }
            }
            chosen.unwrap_or_else(|| {
                // Floating-point residue: fall back to the last unvisited vertex.
                dag.nodes()
                    .filter(|v| !visited[v.index()])
                    .last()
                    .expect("n steps")
            })
        };
        visited[next.index()] = true;
        let span = (state.span_hi[next.index()] - state.span_lo[next.index()]) as usize;
        let target = choose_layer(
            next,
            state,
            &ones[..=span],
            params.selection,
            alpha,
            beta,
            wm,
            eta_floor,
            &mut scores,
            rng,
        );
        state.move_vertex(dag.graph(), wm, next, target);
        order.push(next);
        prev = Some(next);
    }
    let f = state.normalized_objective(dag, wm);
    (order, f)
}

impl OrderAcoLayering {
    /// Runs the colony and returns the best normalized layering.
    pub fn run(&self, dag: &Dag, wm: &WidthModel) -> Layering {
        self.params.validate().expect("valid parameters");
        let n = dag.node_count();
        if n == 0 {
            return Layering::from_slice(&[]);
        }
        let lpl = LongestPath.layer(dag, wm);
        let target = self.params.target_layers.unwrap_or(n);
        let stretched = stretch(&lpl, target, self.params.stretch);
        let mut base = SearchState::new(dag, &stretched.layering, stretched.total_layers, wm);
        let mut trails = OrderTrails::filled(n, self.params.tau0);
        let mut best_state = base.clone();
        let mut best_f = base.normalized_objective(dag, wm);

        let threads = if self.params.threads == 0 {
            default_threads(self.params.n_ants)
        } else {
            self.params.threads
        };
        for tour in 0..self.params.n_tours {
            let seeds: Vec<u64> = (0..self.params.n_ants)
                .map(|k| self.ant_seed(tour, k))
                .collect();
            let params = &self.params;
            let base_ref = &base;
            let trails_ref = &trails;
            let walks: Vec<(SearchState, Vec<NodeId>, f64)> = par_map(threads, seeds, |_, seed| {
                let mut state = base_ref.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                let (order, f) = order_walk(dag, wm, params, trails_ref, &mut state, &mut rng);
                (state, order, f)
            });
            let best_idx = walks
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.2.partial_cmp(&b.2).unwrap().then(ib.cmp(ia)))
                .map(|(i, _)| i)
                .expect("n_ants >= 1");
            trails.scale_all(1.0 - self.params.rho);
            let (tb_state, tb_order, tb_f) = &walks[best_idx];
            let mut prev = None;
            for &v in tb_order {
                trails.add(prev, v, self.params.deposit_q * tb_f);
                prev = Some(v);
            }
            if *tb_f > best_f {
                best_f = *tb_f;
                best_state = tb_state.clone();
            }
            base = tb_state.clone();
        }
        let mut layering = best_state.to_layering();
        layering.normalize();
        debug_assert!(layering.validate(dag).is_ok());
        layering
    }
}

impl LayeringAlgorithm for OrderAcoLayering {
    fn name(&self) -> &str {
        "AntColony(order)"
    }

    fn layer(&self, dag: &Dag, wm: &WidthModel) -> Layering {
        self.run(dag, wm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::generate;
    use antlayer_layering::metrics;

    fn params() -> AcoParams {
        AcoParams::default().with_colony(5, 5).with_seed(17)
    }

    #[test]
    fn produces_valid_normalized_layerings() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let dag = generate::layered_dag(25, 8, 0.05, 2, &mut rng);
            let wm = WidthModel::unit();
            let l = OrderAcoLayering::new(params()).layer(&dag, &wm);
            l.validate(&dag).unwrap();
            let mut copy = l.clone();
            assert!(!copy.normalize());
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let mut rng = StdRng::seed_from_u64(2);
        let dag = generate::layered_dag(30, 10, 0.05, 2, &mut rng);
        let wm = WidthModel::unit();
        let seq = OrderAcoLayering::new(params().with_threads(1)).layer(&dag, &wm);
        let par = OrderAcoLayering::new(params().with_threads(4)).layer(&dag, &wm);
        assert_eq!(seq, par);
    }

    #[test]
    fn improves_on_lpl_width_in_the_paper_regime() {
        let mut rng = StdRng::seed_from_u64(3);
        let wm = WidthModel::unit();
        let mut w_order = 0.0;
        let mut w_lpl = 0.0;
        for _ in 0..4 {
            let dag = generate::layered_dag(60, 20, 0.04, 2, &mut rng);
            w_order += metrics::width(&dag, &OrderAcoLayering::new(params()).layer(&dag, &wm), &wm);
            w_lpl += metrics::width(&dag, &LongestPath.layer(&dag, &wm), &wm);
        }
        assert!(
            w_order < w_lpl,
            "order model should still beat LPL: {w_order} vs {w_lpl}"
        );
    }

    #[test]
    fn handles_degenerate_graphs() {
        let wm = WidthModel::unit();
        assert!(OrderAcoLayering::new(params())
            .layer(&Dag::from_edges(0, &[]).unwrap(), &wm)
            .is_empty());
        let one = OrderAcoLayering::new(params()).layer(&Dag::from_edges(1, &[]).unwrap(), &wm);
        assert_eq!(one.height(), 1);
    }

    #[test]
    fn trail_matrix_roundtrip() {
        let mut t = OrderTrails::filled(3, 1.0);
        t.add(None, NodeId::new(2), 0.5);
        t.add(Some(NodeId::new(0)), NodeId::new(1), 0.25);
        assert_eq!(t.get(None, NodeId::new(2)), 1.5);
        assert_eq!(t.get(Some(NodeId::new(0)), NodeId::new(1)), 1.25);
        t.scale_all(0.5);
        assert_eq!(t.get(None, NodeId::new(2)), 0.75);
        // Floors at a tiny positive value instead of reaching zero.
        for _ in 0..100 {
            t.scale_all(0.1);
        }
        assert!(t.get(None, NodeId::new(0)) > 0.0);
    }
}
