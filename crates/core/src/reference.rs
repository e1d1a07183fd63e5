//! The pre-optimization hot path, preserved as a benchmark comparator.
//!
//! This module is a faithful copy of how the colony's inner loop worked
//! before the zero-allocation refactor: every walk allocates a fresh
//! visit-order `Vec`, roulette allocates a per-vertex score `Vec`,
//! neighbor scans chase the `Vec<Vec<NodeId>>` adjacency of the [`Dag`],
//! every ant clones the tour base, each ant is scored by rebuilding,
//! normalizing and re-measuring a full `Layering`
//! ([`SearchState::normalized_objective`]), and the pheromone lives in a
//! dense `V × H` matrix that every tour evaporates in full.
//!
//! It exists so the speedup of the optimized path
//! ([`perform_walk`](crate::perform_walk) + [`Colony`](crate::Colony)) can
//! be measured **in the same run** — the `hotpath` criterion group and
//! `experiments hotpath` (`BENCH_4.json`, gated in CI) race the two on
//! identical workloads. Do not use it for anything else; it is
//! deliberately not wired into the serving stack.

use crate::walk::pow_fast;
use crate::{AcoParams, SearchState, SelectionRule, VisitOrder};
use antlayer_graph::{Bfs, Dag, Direction, NodeId};
use antlayer_layering::WidthModel;
use antlayer_parallel::{default_threads, par_map};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The dense `vertices × layers` pheromone matrix the colony used before
/// its sparse [`Trails`](crate::Trails), row-major by vertex, with
/// 1-based layers.
struct VertexLayerMatrix {
    data: Vec<f64>,
    layers: usize,
}

impl VertexLayerMatrix {
    fn filled(vertices: usize, layers: usize, fill: f64) -> Self {
        VertexLayerMatrix {
            data: vec![fill; vertices * layers],
            layers,
        }
    }

    fn idx(&self, v: NodeId, layer: u32) -> usize {
        debug_assert!((1..=self.layers as u32).contains(&layer));
        v.index() * self.layers + (layer as usize - 1)
    }

    fn get(&self, v: NodeId, layer: u32) -> f64 {
        self.data[self.idx(v, layer)]
    }

    fn add(&mut self, v: NodeId, layer: u32, delta: f64) {
        let i = self.idx(v, layer);
        self.data[i] += delta;
    }

    fn scale_all(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    fn clamp_min(&mut self, min: f64) {
        for x in &mut self.data {
            if *x < min {
                *x = min;
            }
        }
    }
}

/// One pre-refactor walk over uniform `tau0` trails (a fresh dense
/// matrix), the comparator of the optimized walk's property tests.
pub fn perform_walk(
    dag: &Dag,
    wm: &WidthModel,
    params: &AcoParams,
    tau0: f64,
    state: &mut SearchState,
    rng: &mut impl Rng,
) -> f64 {
    let tau = VertexLayerMatrix::filled(dag.node_count(), state.total_layers as usize, tau0);
    walk(dag, wm, params, &tau, state, rng)
}

/// The pre-refactor walk: allocates the visit order (and, under roulette,
/// a score vector per vertex), scans `Vec<Vec>` adjacency, and scores the
/// ant with the full `O(V + E + H)` objective rebuild.
fn walk(
    dag: &Dag,
    wm: &WidthModel,
    params: &AcoParams,
    tau: &VertexLayerMatrix,
    state: &mut SearchState,
    rng: &mut impl Rng,
) -> f64 {
    let order = visit_order(dag, params.visit_order, rng);
    let eta_floor = params.effective_eta_floor(wm.dummy_width);
    for &v in &order {
        let target = choose_layer(v, state, tau, params, wm, eta_floor, rng);
        state.move_vertex(dag.graph(), wm, v, target);
    }
    state.normalized_objective(dag, wm)
}

/// The pre-refactor layer choice: the roulette arm allocates its score
/// vector, pheromone reads go through the indexed getter, and the
/// exponent dispatch re-runs per score.
fn choose_layer(
    v: NodeId,
    state: &SearchState,
    tau: &VertexLayerMatrix,
    params: &AcoParams,
    wm: &WidthModel,
    eta_floor: f64,
    rng: &mut impl Rng,
) -> u32 {
    let lo = state.span_lo[v.index()];
    let hi = state.span_hi[v.index()];
    if lo == hi {
        return lo;
    }
    let cur = state.layer[v.index()];
    let vw = wm.node_width(v);
    let resulting_width = |l: u32| -> f64 {
        let base = state.width[l as usize];
        if l == cur {
            base
        } else {
            base + vw
        }
    };
    match params.selection {
        SelectionRule::ArgMax => {
            let mut best_layer = lo;
            let mut best_score = f64::NEG_INFINITY;
            for l in lo..=hi {
                let eta = 1.0 / resulting_width(l).max(eta_floor);
                let score = pow_fast(tau.get(v, l), params.alpha) * pow_fast(eta, params.beta);
                if score > best_score {
                    best_score = score;
                    best_layer = l;
                }
            }
            best_layer
        }
        SelectionRule::Roulette => {
            let count = (hi - lo + 1) as usize;
            let mut scores = Vec::with_capacity(count);
            let mut total = 0.0f64;
            for l in lo..=hi {
                let eta = 1.0 / resulting_width(l).max(eta_floor);
                let score = pow_fast(tau.get(v, l), params.alpha) * pow_fast(eta, params.beta);
                let score = if score.is_finite() { score } else { 0.0 };
                scores.push(score);
                total += score;
            }
            if total <= 0.0 || !total.is_finite() {
                return rng.gen_range(lo..=hi);
            }
            let mut ticket = rng.gen_range(0.0..total);
            for (i, s) in scores.iter().enumerate() {
                ticket -= s;
                if ticket < 0.0 {
                    return lo + i as u32;
                }
            }
            hi
        }
    }
}

/// The pre-refactor visit order: a fresh `Vec` per walk.
fn visit_order(dag: &Dag, order: VisitOrder, rng: &mut impl Rng) -> Vec<NodeId> {
    match order {
        VisitOrder::Random => {
            let mut nodes: Vec<NodeId> = dag.nodes().collect();
            nodes.shuffle(rng);
            nodes
        }
        VisitOrder::Bfs => {
            let n = dag.node_count();
            if n == 0 {
                return Vec::new();
            }
            let start = NodeId::new(rng.gen_range(0..n));
            let mut seen = vec![false; n];
            let mut nodes: Vec<NodeId> = Bfs::new(dag, start, Direction::Undirected).collect();
            for &v in &nodes {
                seen[v.index()] = true;
            }
            let mut rest: Vec<NodeId> = dag.nodes().filter(|v| !seen[v.index()]).collect();
            rest.shuffle(rng);
            for v in rest {
                if !seen[v.index()] {
                    for w in Bfs::new(dag, v, Direction::Undirected) {
                        if !seen[w.index()] {
                            seen[w.index()] = true;
                            nodes.push(w);
                        }
                    }
                }
            }
            nodes
        }
        VisitOrder::Topological => {
            let mut nodes = dag.topo_order().to_vec();
            if rng.gen_bool(0.5) {
                nodes.reverse();
            }
            nodes
        }
    }
}

/// Per-tour statistics of the reference colony (same shape as the live
/// [`TourStats`](crate::TourStats), duplicated so the reference path's
/// cost profile stays frozen).
#[derive(Clone, Debug)]
pub struct ReferenceTour {
    /// Best objective among this tour's ants.
    pub best_objective: f64,
    /// Mean objective over this tour's ants.
    pub mean_objective: f64,
    /// Height of the tour-best layering (normalized).
    pub best_height: u32,
    /// Width of the tour-best layering (dummies included).
    pub best_width: f64,
}

/// Result of a reference colony run.
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// The best layering found, normalized.
    pub layering: antlayer_layering::Layering,
    /// Objective of the best state.
    pub objective: f64,
    /// Per-tour statistics.
    pub tours: Vec<ReferenceTour>,
}

/// The pre-refactor layering phase: per-ant `base.clone()`, per-walk
/// allocations, full objective rebuilds, tour-best pheromone deposit,
/// per-tour layering/metrics rebuild for the statistics. Initialisation
/// (LPL + stretch + `τ₀` fill) matches [`Colony::new`](crate::Colony::new).
pub fn run_colony(dag: &Dag, wm: &WidthModel, params: &AcoParams) -> ReferenceRun {
    use antlayer_layering::{LayeringAlgorithm, LongestPath};

    params.validate().expect("valid parameters");
    assert!(
        dag.node_count() > 0,
        "reference path is for benchmarks only"
    );
    let lpl = LongestPath.layer(dag, wm);
    let target = params.target_layers.unwrap_or(dag.node_count());
    let stretched = crate::stretch::stretch(&lpl, target, params.stretch);
    let mut base = SearchState::new(dag, &stretched.layering, stretched.total_layers.max(1), wm);
    let tau0 = params.tau0;
    let mut tau = VertexLayerMatrix::filled(dag.node_count(), base.total_layers as usize, tau0);
    let mut best = base.clone();
    let mut best_objective = base.normalized_objective(dag, wm);

    let threads = if params.threads == 0 {
        default_threads(params.n_ants)
    } else {
        params.threads
    };
    let mut tours = Vec::with_capacity(params.n_tours);
    for tour in 0..params.n_tours {
        let seeds: Vec<u64> = (0..params.n_ants)
            .map(|k| crate::colony::ant_seed(params, tour, k))
            .collect();
        let base_ref = &base;
        let tau_ref = &tau;
        let walks: Vec<(SearchState, f64)> = par_map(threads, seeds, |_, seed| {
            let mut state = base_ref.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let f = walk(dag, wm, params, tau_ref, &mut state, &mut rng);
            (state, f)
        });
        let (best_idx, _) = walks
            .iter()
            .enumerate()
            .max_by(|(ia, (_, fa)), (ib, (_, fb))| fa.partial_cmp(fb).unwrap().then(ib.cmp(ia)))
            .expect("n_ants >= 1");
        let mean = walks.iter().map(|(_, f)| f).sum::<f64>() / walks.len() as f64;
        let (tour_best_state, tour_best_f) = {
            let (s, f) = &walks[best_idx];
            (s.clone(), *f)
        };
        tau.scale_all(1.0 - params.rho);
        tau.clamp_min(1e-12);
        for v in dag.nodes() {
            tau.add(
                v,
                tour_best_state.layer[v.index()],
                params.deposit_q * tour_best_f,
            );
        }
        let mut best_layering = tour_best_state.to_layering();
        best_layering.normalize();
        tours.push(ReferenceTour {
            best_objective: tour_best_f,
            mean_objective: mean,
            best_height: best_layering.max_layer(),
            best_width: antlayer_layering::metrics::width(dag, &best_layering, wm),
        });
        if tour_best_f > best_objective {
            best_objective = tour_best_f;
            best = tour_best_state.clone();
        }
        base = tour_best_state;
    }
    let mut layering = best.to_layering();
    layering.normalize();
    ReferenceRun {
        layering,
        objective: best_objective,
        tours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::generate;

    #[test]
    fn reference_colony_produces_valid_layerings() {
        let mut rng = StdRng::seed_from_u64(3);
        let dag = generate::layered_dag(40, 12, 0.05, 2, &mut rng);
        let wm = WidthModel::unit();
        let run = run_colony(
            &dag,
            &wm,
            &AcoParams::default().with_colony(4, 4).with_seed(8),
        );
        run.layering.validate(&dag).unwrap();
        assert_eq!(run.tours.len(), 4);
        assert!(run.objective > 0.0);
    }

    #[test]
    fn reference_walk_matches_optimized_walk_objective() {
        // Same seed, same base, the same deposits in the dense matrix and
        // the sparse trails: the reference walk and the optimized walk
        // must land on equally good states (the objective evaluations are
        // property-tested equal; here we just sanity-check the glue).
        use antlayer_layering::{LayeringAlgorithm, LongestPath};
        let mut rng = StdRng::seed_from_u64(5);
        let dag = generate::random_dag_with_edges(30, 45, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams::default();
        let lpl = LongestPath.layer(&dag, &wm);
        let s = crate::stretch::stretch(&lpl, dag.node_count(), params.stretch);
        let base = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        let layers = base.total_layers as usize;
        let mut dense = VertexLayerMatrix::filled(dag.node_count(), layers, 1.0);
        let mut sparse = crate::Trails::new(dag.node_count(), layers, 1.0);
        for v in dag.nodes().step_by(3) {
            let l = base.span_hi[v.index()];
            dense.add(v, l, 2.5);
            sparse.add(v, l, 2.5);
        }

        let mut a = base.clone();
        let fa = walk(
            &dag,
            &wm,
            &params,
            &dense,
            &mut a,
            &mut StdRng::seed_from_u64(11),
        );

        let csr = dag.to_csr();
        let ctx = crate::walk::WalkCtx::new(&dag, &csr, &wm, &params);
        let mut b = base.clone();
        let fb = crate::walk::perform_walk(
            &ctx,
            &sparse,
            &mut b,
            &mut crate::WalkScratch::new(),
            &mut StdRng::seed_from_u64(11),
        );
        // Identical RNG stream + identical decision rule ⇒ identical walk.
        assert_eq!(a.layer, b.layer);
        assert!((fa - fb).abs() < 1e-9, "{fa} vs {fb}");
    }
}
