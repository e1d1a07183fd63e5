//! A single ant's walk on the construction graph (paper §IV-E, Alg. 4
//! lines 4–14).
//!
//! The ant visits every vertex of the DAG — in a fresh random order by
//! default, or by BFS/topological order (§IV-D's alternatives, see
//! [`VisitOrder`]) — and re-assigns each one to a layer of its current
//! span, chosen by the random proportional rule
//! `p(v, l) ∝ τ[v][l]^α · η[v][l]^β` with `η[v][l] = 1 / W(l)` (dynamic
//! heuristic information — widths change after every move and are
//! maintained incrementally by [`SearchState::move_vertex`]).
//!
//! This is the hottest loop in the repository, engineered to perform **no
//! heap allocation per walk**: the visit-order, BFS, roulette and
//! pheromone-window buffers live in a reusable [`WalkScratch`], neighbor
//! scans go through the colony's [CSR view](CsrView), the `τ^α · η^β`
//! exponents are pre-dispatched to integer powers ([`PowExp`]), and the
//! ant is scored with the flat-scan incremental objective instead of
//! rebuilding a `Layering`. The sparse [`Trails`] store has no rows to
//! borrow, so before each choice the walk writes `v`'s span window
//! `[lo, hi]` into the scratch: it starts from the trails' shared floor
//! and overwrites the few stored couplings that fall inside the span
//! (found by binary search). The choice then scans that contiguous
//! window. The pre-refactor allocating path survives as
//! [`crate::reference`] for benchmarking.

use crate::{AcoParams, SearchState, SelectionRule, Trails, VisitOrder};
use antlayer_graph::{Adjacency, CsrView, Dag, NodeId};
use antlayer_layering::WidthModel;
use rand::seq::SliceRandom;
use rand::Rng;

/// `x^e` specialised for the small non-negative exponents the rule uses;
/// integer exponents avoid `powf` in the hot loop.
#[inline]
pub(crate) fn pow_fast(x: f64, e: f64) -> f64 {
    PowExp::of(e).apply(x)
}

/// A pre-dispatched exponent for the proportional rule: the float
/// comparison cascade of [`pow_fast`] runs once per walk setup instead of
/// once per `(vertex, candidate-layer)` pair.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PowExp {
    /// `x⁰ = 1`.
    Zero,
    /// `x¹`.
    One,
    /// `x²`.
    Two,
    /// `x³`.
    Three,
    /// `x⁴`.
    Four,
    /// `x⁵`.
    Five,
    /// Any other exponent, via `powf`.
    General(f64),
}

impl PowExp {
    /// Classifies `e` once.
    pub(crate) fn of(e: f64) -> Self {
        if e == 0.0 {
            PowExp::Zero
        } else if e == 1.0 {
            PowExp::One
        } else if e == 2.0 {
            PowExp::Two
        } else if e == 3.0 {
            PowExp::Three
        } else if e == 4.0 {
            PowExp::Four
        } else if e == 5.0 {
            PowExp::Five
        } else {
            PowExp::General(e)
        }
    }

    /// `x^e` by multiplication for the integer cases.
    #[inline(always)]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            PowExp::Zero => 1.0,
            PowExp::One => x,
            PowExp::Two => x * x,
            PowExp::Three => x * x * x,
            PowExp::Four => {
                let s = x * x;
                s * s
            }
            PowExp::Five => {
                let s = x * x;
                s * s * x
            }
            PowExp::General(e) => x.powf(e),
        }
    }
}

/// Outcome of one walk.
#[derive(Clone, Debug)]
pub struct WalkResult {
    /// Final state (layer assignment + widths + spans).
    pub state: SearchState,
    /// Objective `f = 1 / (H + W)` of the final state.
    pub objective: f64,
}

/// Reusable per-thread buffers for [`perform_walk`]: the visit-order
/// buffer, the pheromone window of the vertex being placed, the roulette
/// score buffer, and the BFS bookkeeping (seen flags, queue,
/// leftover-component list).
///
/// Buffers grow to the graph's size on first use and are reused
/// afterwards — one warm-up walk, then zero heap allocations per walk
/// (asserted by the `zero_alloc` counting-allocator test). The colony
/// owns one scratch per worker thread and threads them through
/// `antlayer_parallel::par_map_with_scratch`.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    order: Vec<NodeId>,
    taus: Vec<f64>,
    scores: Vec<f64>,
    seen: Vec<bool>,
    queue: Vec<NodeId>,
    rest: Vec<NodeId>,
}

impl WalkScratch {
    /// Empty buffers; they size themselves on first use.
    pub fn new() -> Self {
        WalkScratch::default()
    }
}

/// Colony-lifetime immutable context of a walk: the graph (both as [`Dag`]
/// for the cached topological order and as the cache-local [`CsrView`] the
/// inner loops scan), the width model, the parameters, and values derived
/// from them once instead of per choice.
#[derive(Clone, Copy)]
pub struct WalkCtx<'a> {
    /// The DAG being layered (cold-path queries: topo order, node count).
    pub dag: &'a Dag,
    /// Flat adjacency snapshot for the hot neighbor scans.
    pub csr: &'a CsrView,
    /// Vertex/dummy widths.
    pub wm: &'a WidthModel,
    /// Colony parameters.
    pub params: &'a AcoParams,
    eta_floor: f64,
    alpha: PowExp,
    beta: PowExp,
}

impl<'a> WalkCtx<'a> {
    /// Bundles the references and precomputes the derived constants.
    pub fn new(dag: &'a Dag, csr: &'a CsrView, wm: &'a WidthModel, params: &'a AcoParams) -> Self {
        WalkCtx {
            dag,
            csr,
            wm,
            params,
            eta_floor: params.effective_eta_floor(wm.dummy_width),
            alpha: PowExp::of(params.alpha),
            beta: PowExp::of(params.beta),
        }
    }
}

/// Chooses a layer for `v` among its span according to the selection rule.
///
/// Scores are `τ^α · η^β` (the shared normalisation constant of Eq. (1)
/// cancels for both rules), with `η(v, l) = 1 / W'(l)` where `W'(l)` is the
/// width layer `l` would have with `v` on it: the current width for `v`'s
/// own layer, `W(l) + w(v)` for every other candidate. Comparing *resulting*
/// widths keeps the rule fair between staying and moving — scoring the raw
/// `W(l)` would charge `v`'s own width against its current layer only and
/// make every ant drift off its layer (documented inference, DESIGN.md §4).
///
/// `taus` is `v`'s pheromone over its span (entry `l − lo` is layer `l`,
/// see [`Trails::window`]); `scores` is the caller's reusable roulette
/// buffer. Returns the chosen layer.
#[allow(clippy::too_many_arguments)] // hot path: flat args beat a builder
pub(crate) fn choose_layer(
    v: NodeId,
    state: &SearchState,
    taus: &[f64],
    selection: SelectionRule,
    alpha: PowExp,
    beta: PowExp,
    wm: &WidthModel,
    eta_floor: f64,
    scores: &mut Vec<f64>,
    rng: &mut impl Rng,
) -> u32 {
    let lo = state.span_lo[v.index()];
    let hi = state.span_hi[v.index()];
    debug_assert!(lo <= hi);
    debug_assert_eq!(taus.len(), (hi - lo + 1) as usize);
    if lo == hi {
        return lo;
    }
    // The scan bodies are monomorphized per exponent pair: the paper's
    // production rule (α = 1, β = 3, the crate default) gets dedicated
    // closures of bare multiplications, so the `PowExp` dispatch runs once
    // per vertex instead of once per candidate layer. Every closure
    // computes the identical floating-point expression the `pow_fast`
    // path would, so choices are bit-for-bit the same as the reference
    // implementation's.
    match selection {
        SelectionRule::ArgMax => match (alpha, beta) {
            (PowExp::One, PowExp::Three) => {
                argmax_span(v, state, taus, wm, eta_floor, |t, e| t * (e * e * e))
            }
            _ => argmax_span(v, state, taus, wm, eta_floor, |t, e| {
                alpha.apply(t) * beta.apply(e)
            }),
        },
        SelectionRule::Roulette => match (alpha, beta) {
            (PowExp::One, PowExp::Three) => {
                roulette_span(v, state, taus, wm, eta_floor, scores, rng, |t, e| {
                    t * (e * e * e)
                })
            }
            _ => roulette_span(v, state, taus, wm, eta_floor, scores, rng, |t, e| {
                alpha.apply(t) * beta.apply(e)
            }),
        },
    }
}

/// ArgMax over `v`'s span with a monomorphized scoring rule.
///
/// One contiguous pass: the per-candidate divisions are independent, so
/// the divider pipelines them, while the running-best compare is a cheap
/// flag chain. (A division-free cross-multiplied formulation was tried
/// and was ~60% slower: it chains a multiply into the compare, turning
/// the scan into a latency-bound serial loop.)
#[inline(always)]
fn argmax_span(
    v: NodeId,
    state: &SearchState,
    taus: &[f64],
    wm: &WidthModel,
    eta_floor: f64,
    score_of: impl Fn(f64, f64) -> f64,
) -> u32 {
    let lo = state.span_lo[v.index()];
    let hi = state.span_hi[v.index()];
    let cur = state.layer[v.index()];
    let vw = wm.node_width(v);
    // Contiguous span windows: one bounds check per scan, not per
    // candidate, and the zip gives the optimizer straight-line slices.
    let widths = &state.width[lo as usize..=hi as usize];
    let cur_off = (cur - lo) as usize; // spans always bracket cur
    let mut best_off = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (off, (&w, &t)) in widths.iter().zip(taus).enumerate() {
        let rw = if off == cur_off { w } else { w + vw };
        let eta = 1.0 / rw.max(eta_floor);
        let score = score_of(t, eta);
        if score > best_score {
            best_score = score;
            best_off = off;
        }
    }
    lo + best_off as u32
}

/// Roulette sampling over `v`'s span with a monomorphized scoring rule;
/// the sampling weights need the actual `τ^α · η^β` values, so this path
/// keeps the per-candidate division.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn roulette_span(
    v: NodeId,
    state: &SearchState,
    taus: &[f64],
    wm: &WidthModel,
    eta_floor: f64,
    scores: &mut Vec<f64>,
    rng: &mut impl Rng,
    score_of: impl Fn(f64, f64) -> f64,
) -> u32 {
    let lo = state.span_lo[v.index()];
    let hi = state.span_hi[v.index()];
    let cur = state.layer[v.index()];
    let vw = wm.node_width(v);
    let widths = &state.width[lo as usize..=hi as usize];
    let cur_off = (cur - lo) as usize;
    scores.clear();
    scores.extend(
        widths[..cur_off]
            .iter()
            .zip(&taus[..cur_off])
            .map(|(&w, &t)| score_of(t, 1.0 / (w + vw).max(eta_floor))),
    );
    scores.push(score_of(
        taus[cur_off],
        1.0 / widths[cur_off].max(eta_floor),
    ));
    scores.extend(
        widths[cur_off + 1..]
            .iter()
            .zip(&taus[cur_off + 1..])
            .map(|(&w, &t)| score_of(t, 1.0 / (w + vw).max(eta_floor))),
    );
    let mut total = 0.0f64;
    for score in scores.iter_mut() {
        if !score.is_finite() {
            *score = 0.0;
        }
        total += *score;
    }
    if total <= 0.0 || !total.is_finite() {
        // Degenerate weights: fall back to a uniform choice.
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

/// Performs one complete walk: every vertex is (re-)assigned once, in the
/// order dictated by [`AcoParams::visit_order`]. Mutates `state` in place
/// (re-seed it with [`SearchState::copy_from`] between walks) and returns
/// the resulting normalized objective.
///
/// Allocation-free once `scratch` has warmed up on a graph of this size.
pub fn perform_walk(
    ctx: &WalkCtx<'_>,
    tau: &Trails,
    state: &mut SearchState,
    scratch: &mut WalkScratch,
    rng: &mut impl Rng,
) -> f64 {
    let WalkScratch {
        order,
        taus,
        scores,
        seen,
        queue,
        rest,
    } = scratch;
    fill_visit_order(ctx, order, seen, queue, rest, rng);
    for &v in order.iter() {
        let (lo, hi) = (state.span_lo[v.index()], state.span_hi[v.index()]);
        let target = choose_layer(
            v,
            state,
            tau.window(v, lo, hi, taus),
            ctx.params.selection,
            ctx.alpha,
            ctx.beta,
            ctx.wm,
            ctx.eta_floor,
            scores,
            rng,
        );
        state.move_vertex(ctx.csr, ctx.wm, v, target);
    }
    state.incremental_objective()
}

/// Fills `order` with the vertex sequence of one walk (paper §IV-D:
/// random by default; BFS and topological linear orders as the listed
/// alternatives), using only the caller's buffers.
pub(crate) fn fill_visit_order(
    ctx: &WalkCtx<'_>,
    order: &mut Vec<NodeId>,
    seen: &mut Vec<bool>,
    queue: &mut Vec<NodeId>,
    rest: &mut Vec<NodeId>,
    rng: &mut impl Rng,
) {
    let n = ctx.csr.node_count();
    order.clear();
    if n == 0 {
        return;
    }
    match ctx.params.visit_order {
        VisitOrder::Random => {
            order.extend((0..n as u32).map(NodeId::from));
            order.shuffle(rng);
        }
        VisitOrder::Bfs => {
            seen.clear();
            seen.resize(n, false);
            let start = NodeId::new(rng.gen_range(0..n));
            bfs_component(ctx.csr, start, order, seen, queue);
            // Other weak components, shuffled, then BFS'd from their first
            // member for a stable-but-seeded continuation.
            rest.clear();
            rest.extend((0..n).map(NodeId::new).filter(|v| !seen[v.index()]));
            rest.shuffle(rng);
            for &v in rest.iter() {
                if !seen[v.index()] {
                    bfs_component(ctx.csr, v, order, seen, queue);
                }
            }
        }
        VisitOrder::Topological => {
            order.extend_from_slice(ctx.dag.topo_order());
            if rng.gen_bool(0.5) {
                order.reverse();
            }
        }
    }
}

/// Undirected BFS of `start`'s weak component, appending the visit
/// sequence to `order`.
fn bfs_component(
    csr: &CsrView,
    start: NodeId,
    order: &mut Vec<NodeId>,
    seen: &mut [bool],
    queue: &mut Vec<NodeId>,
) {
    queue.clear();
    seen[start.index()] = true;
    queue.push(start);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &w in csr.out_neighbors(u).iter().chain(csr.in_neighbors(u)) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::stretch;
    use antlayer_graph::{generate, Dag};
    use antlayer_layering::{LayeringAlgorithm, LongestPath};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, n: usize) -> (Dag, SearchState) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = generate::random_dag_with_edges(n, n * 3 / 2, &mut rng);
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let s = stretch(&lpl, dag.node_count(), crate::StretchStrategy::Between);
        let state = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        (dag, state)
    }

    /// One-off walk through the scratch API, for tests that don't reuse
    /// buffers.
    fn walk_once(
        dag: &Dag,
        wm: &WidthModel,
        params: &AcoParams,
        tau: &Trails,
        state: &mut SearchState,
        rng: &mut impl Rng,
    ) -> f64 {
        let csr = dag.to_csr();
        let ctx = WalkCtx::new(dag, &csr, wm, params);
        perform_walk(&ctx, tau, state, &mut WalkScratch::new(), rng)
    }

    fn pick(
        v: NodeId,
        state: &SearchState,
        tau: &Trails,
        params: &AcoParams,
        wm: &WidthModel,
        eta_floor: f64,
        rng: &mut impl Rng,
    ) -> u32 {
        let (lo, hi) = (state.span_lo[v.index()], state.span_hi[v.index()]);
        choose_layer(
            v,
            state,
            tau.window(v, lo, hi, &mut Vec::new()),
            params.selection,
            PowExp::of(params.alpha),
            PowExp::of(params.beta),
            wm,
            eta_floor,
            &mut Vec::new(),
            rng,
        )
    }

    #[test]
    fn pow_fast_matches_powf() {
        for e in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.5] {
            for x in [0.1, 1.0, 3.7] {
                assert!((pow_fast(x, e) - x.powf(e)).abs() < 1e-12, "x={x} e={e}");
            }
        }
    }

    #[test]
    fn walk_preserves_layering_validity() {
        let (dag, mut state) = setup(1, 25);
        let params = AcoParams::default();
        let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
        let mut rng = StdRng::seed_from_u64(2);
        let f = walk_once(
            &dag,
            &WidthModel::unit(),
            &params,
            &tau,
            &mut state,
            &mut rng,
        );
        assert!(f > 0.0 && f <= 0.5);
        state.to_layering().validate(&dag).unwrap();
        state.assert_consistent(&dag, &WidthModel::unit());
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let (dag, state) = setup(3, 20);
        let params = AcoParams::default();
        let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
        let wm = WidthModel::unit();
        let mut a = state.clone();
        let mut b = state.clone();
        walk_once(
            &dag,
            &wm,
            &params,
            &tau,
            &mut a,
            &mut StdRng::seed_from_u64(9),
        );
        walk_once(
            &dag,
            &wm,
            &params,
            &tau,
            &mut b,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
        // For the divergence half, roulette selection feeds the stream into
        // the layer choice directly; ArgMax on this fixture converges to the
        // same fixed point for almost every seed, which would make the
        // assertion a property of the RNG stream rather than of the walk.
        let roulette = AcoParams {
            selection: crate::SelectionRule::Roulette,
            ..AcoParams::default()
        };
        let mut c = state.clone();
        let mut d = state.clone();
        walk_once(
            &dag,
            &wm,
            &roulette,
            &tau,
            &mut c,
            &mut StdRng::seed_from_u64(9),
        );
        walk_once(
            &dag,
            &wm,
            &roulette,
            &tau,
            &mut d,
            &mut StdRng::seed_from_u64(10),
        );
        assert_ne!(c.layer, d.layer);
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        // The same scratch driven across many walks must match fresh
        // scratch per walk, for every visit order and selection rule.
        let (dag, state) = setup(7, 24);
        let wm = WidthModel::unit();
        let csr = dag.to_csr();
        for order in [VisitOrder::Random, VisitOrder::Bfs, VisitOrder::Topological] {
            for sel in [SelectionRule::ArgMax, SelectionRule::Roulette] {
                let params = AcoParams {
                    visit_order: order,
                    selection: sel,
                    ..AcoParams::default()
                };
                let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
                let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
                let mut reused = WalkScratch::new();
                for seed in 0..6u64 {
                    let mut s1 = state.clone();
                    let mut s2 = state.clone();
                    let f1 = perform_walk(
                        &ctx,
                        &tau,
                        &mut s1,
                        &mut reused,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let f2 = perform_walk(
                        &ctx,
                        &tau,
                        &mut s2,
                        &mut WalkScratch::new(),
                        &mut StdRng::seed_from_u64(seed),
                    );
                    assert_eq!(s1, s2, "{order:?}/{sel:?} seed {seed}");
                    assert_eq!(f1, f2);
                }
            }
        }
    }

    #[test]
    fn beta_zero_ignores_widths() {
        // With β = 0 and uniform pheromone, every candidate scores the
        // same; ArgMax then picks the span's lowest layer for every vertex.
        let (dag, mut state) = setup(5, 15);
        let params = AcoParams {
            beta: 0.0,
            ..AcoParams::default()
        };
        let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
        let mut rng = StdRng::seed_from_u64(4);
        walk_once(
            &dag,
            &WidthModel::unit(),
            &params,
            &tau,
            &mut state,
            &mut rng,
        );
        state.to_layering().validate(&dag).unwrap();
    }

    #[test]
    fn pheromone_bias_attracts_argmax() {
        // One free vertex, two layers; heavy pheromone on the top layer
        // must win even though the bottom is narrower.
        let dag = Dag::from_edges(1, &[]).unwrap();
        let wm = WidthModel::unit();
        let state = SearchState::new(&dag, &antlayer_layering::Layering::from_slice(&[1]), 2, &wm);
        let params = AcoParams::default();
        let mut tau = Trails::new(1, 2, 1.0);
        tau.add(NodeId::new(0), 2, 99.0);
        let mut rng = StdRng::seed_from_u64(1);
        let chosen = pick(NodeId::new(0), &state, &tau, &params, &wm, 1.0, &mut rng);
        assert_eq!(chosen, 2);
    }

    #[test]
    fn heuristic_bias_prefers_narrow_layers() {
        // Uniform pheromone: the empty layer (floored width) must beat the
        // crowded one.
        let dag = Dag::from_edges(2, &[]).unwrap();
        let wm = WidthModel::unit();
        let state = SearchState::new(
            &dag,
            &antlayer_layering::Layering::from_slice(&[1, 1]),
            2,
            &wm,
        );
        let params = AcoParams::default();
        let tau = Trails::new(2, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let chosen = pick(NodeId::new(0), &state, &tau, &params, &wm, 1.0, &mut rng);
        assert_eq!(chosen, 2, "empty layer 2 is more attractive");
    }

    #[test]
    fn roulette_explores_all_candidates() {
        let dag = Dag::from_edges(1, &[]).unwrap();
        let wm = WidthModel::unit();
        let state = SearchState::new(&dag, &antlayer_layering::Layering::from_slice(&[1]), 3, &wm);
        let params = AcoParams {
            selection: SelectionRule::Roulette,
            ..AcoParams::default()
        };
        let tau = Trails::new(1, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let l = pick(NodeId::new(0), &state, &tau, &params, &wm, 1.0, &mut rng);
            seen[l as usize] = true;
        }
        assert!(
            seen[1] && seen[2] && seen[3],
            "roulette never visited some layer: {seen:?}"
        );
    }

    #[test]
    fn visit_orders_are_permutations() {
        let mut rng = StdRng::seed_from_u64(19);
        let dag = generate::random_dag_with_edges(25, 30, &mut rng);
        let wm = WidthModel::unit();
        let csr = dag.to_csr();
        for order in [VisitOrder::Random, VisitOrder::Bfs, VisitOrder::Topological] {
            let params = AcoParams {
                visit_order: order,
                ..AcoParams::default()
            };
            let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
            let mut scratch = WalkScratch::new();
            fill_visit_order(
                &ctx,
                &mut scratch.order,
                &mut scratch.seen,
                &mut scratch.queue,
                &mut scratch.rest,
                &mut rng,
            );
            let mut seq = scratch.order.clone();
            assert_eq!(seq.len(), 25, "{order:?}");
            seq.sort();
            seq.dedup();
            assert_eq!(seq.len(), 25, "{order:?} repeated a vertex");
        }
    }

    #[test]
    fn bfs_order_covers_disconnected_components() {
        let dag = Dag::from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        let wm = WidthModel::unit();
        let csr = dag.to_csr();
        let params = AcoParams {
            visit_order: VisitOrder::Bfs,
            ..AcoParams::default()
        };
        let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = WalkScratch::new();
        fill_visit_order(
            &ctx,
            &mut scratch.order,
            &mut scratch.seen,
            &mut scratch.queue,
            &mut scratch.rest,
            &mut rng,
        );
        assert_eq!(scratch.order.len(), 6);
    }

    #[test]
    fn all_visit_orders_produce_valid_walks() {
        let (dag, state) = setup(9, 20);
        let wm = WidthModel::unit();
        for order in [VisitOrder::Random, VisitOrder::Bfs, VisitOrder::Topological] {
            let params = AcoParams {
                visit_order: order,
                ..AcoParams::default()
            };
            let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
            let mut s = state.clone();
            let mut rng = StdRng::seed_from_u64(4);
            let f = walk_once(&dag, &wm, &params, &tau, &mut s, &mut rng);
            assert!(f > 0.0);
            s.to_layering().validate(&dag).unwrap();
        }
    }

    #[test]
    fn pinned_vertex_stays_put() {
        // Middle of a tight chain has a single-layer span.
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let wm = WidthModel::unit();
        let state = SearchState::new(
            &dag,
            &antlayer_layering::Layering::from_slice(&[3, 2, 1]),
            3,
            &wm,
        );
        let params = AcoParams::default();
        let tau = Trails::new(3, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            pick(NodeId::new(1), &state, &tau, &params, &wm, 1.0, &mut rng),
            2
        );
    }
}
