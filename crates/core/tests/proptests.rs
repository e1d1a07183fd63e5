//! Property-based tests for the ACO layering crate: the colony must
//! produce valid, deterministic, never-worse-than-seed layerings for *any*
//! DAG shape and any sane parameter combination.

use antlayer_aco::{
    compute_widths, perform_walk, stretch, AcoLayering, AcoParams, DepositStrategy, SearchState,
    SelectionRule, StretchStrategy, Trails, VisitOrder, WalkCtx, WalkScratch,
};
use antlayer_graph::{generate, Dag, NodeId, NodeVec};
use antlayer_layering::{metrics, LayeringAlgorithm, LongestPath, WidthModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..40, 0u64..1_000_000, 0u8..4).prop_map(|(n, seed, kind)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => generate::gnp_dag(n, 0.15, &mut rng),
            1 => generate::layered_dag(n, (n / 3).max(1), 0.05, 2, &mut rng),
            2 => generate::random_tree(n, &mut rng),
            _ => generate::series_parallel_dag(n, 0.6, &mut rng),
        }
    })
}

fn arb_params() -> impl Strategy<Value = AcoParams> {
    (
        1usize..6, // ants
        1usize..5, // tours
        0u8..2,    // selection
        0u8..3,    // visit order
        0u8..2,    // deposit
        0u8..4,    // stretch
        0u64..10_000,
    )
        .prop_map(|(ants, tours, sel, vo, dep, st, seed)| AcoParams {
            n_ants: ants,
            n_tours: tours,
            selection: if sel == 0 {
                SelectionRule::ArgMax
            } else {
                SelectionRule::Roulette
            },
            visit_order: match vo {
                0 => VisitOrder::Random,
                1 => VisitOrder::Bfs,
                _ => VisitOrder::Topological,
            },
            deposit: if dep == 0 {
                DepositStrategy::TourBest
            } else {
                DepositStrategy::RankBased(2)
            },
            stretch: match st {
                0 => StretchStrategy::Between,
                1 => StretchStrategy::Above,
                2 => StretchStrategy::Below,
                _ => StretchStrategy::Split,
            },
            seed,
            ..AcoParams::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn colony_output_is_always_valid_and_normalized(dag in arb_dag(), params in arb_params()) {
        let wm = WidthModel::unit();
        let run = AcoLayering::new(params).run(&dag, &wm);
        prop_assert!(run.layering.validate(&dag).is_ok());
        let mut copy = run.layering.clone();
        prop_assert!(!copy.normalize(), "colony output must be normalized");
        prop_assert!(run.objective > 0.0);
    }

    #[test]
    fn colony_never_loses_to_its_lpl_seed(dag in arb_dag(), params in arb_params()) {
        let wm = WidthModel::unit();
        let run = AcoLayering::new(params).run(&dag, &wm);
        let lpl = LongestPath.layer(&dag, &wm);
        let seed_obj = metrics::aco_objective(&dag, &lpl, &wm);
        prop_assert!(
            run.objective >= seed_obj - 1e-9,
            "colony objective {} below LPL seed {}",
            run.objective,
            seed_obj
        );
    }

    #[test]
    fn thread_count_never_changes_the_answer(dag in arb_dag(), seed in 0u64..10_000) {
        let wm = WidthModel::unit();
        let base = AcoParams::default().with_colony(4, 3).with_seed(seed);
        let a = AcoLayering::new(base.clone().with_threads(1)).run(&dag, &wm);
        let b = AcoLayering::new(base.with_threads(3)).run(&dag, &wm);
        prop_assert_eq!(a.layering, b.layering);
        prop_assert_eq!(a.tours, b.tours);
    }

    #[test]
    fn walks_keep_incremental_state_consistent(dag in arb_dag(), seed in 0u64..10_000) {
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let s = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
        let mut state = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        let params = AcoParams::default();
        let tau = Trails::new(dag.node_count(), state.total_layers as usize, params.tau0);
        let mut rng = StdRng::seed_from_u64(seed);
        let csr = dag.to_csr();
        let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
        perform_walk(&ctx, &tau, &mut state, &mut WalkScratch::new(), &mut rng);
        // Incremental widths equal fresh recomputation.
        let fresh = compute_widths(&dag, &state.layer, state.total_layers, &wm);
        for (l, (a, b)) in state.width.iter().zip(fresh.iter()).enumerate().skip(1) {
            prop_assert!((a - b).abs() < 1e-6, "layer {} width drift: {} vs {}", l, a, b);
        }
        prop_assert!(state.to_layering().validate(&dag).is_ok());
    }

    #[test]
    fn stretch_preserves_validity_for_all_strategies(dag in arb_dag(), extra in 0usize..30) {
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let target = lpl.max_layer() as usize + extra;
        for strat in [
            StretchStrategy::Between,
            StretchStrategy::Above,
            StretchStrategy::Below,
            StretchStrategy::Split,
        ] {
            let s = stretch(&lpl, target, strat);
            prop_assert!(s.layering.validate(&dag).is_ok(), "{:?}", strat);
            prop_assert!(s.layering.max_layer() <= s.total_layers);
            prop_assert!(s.total_layers as usize >= target.max(1) || target == 0);
        }
    }

    #[test]
    fn spans_always_bracket_current_layers(dag in arb_dag()) {
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let s = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
        let state = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        for v in dag.nodes() {
            prop_assert!(state.span_lo[v.index()] <= state.layer[v.index()]);
            prop_assert!(state.layer[v.index()] <= state.span_hi[v.index()]);
        }
    }

    #[test]
    fn incremental_objective_equals_normalized_after_any_moves(
        dag in arb_dag(),
        seed in 0u64..1_000_000,
        wm_kind in 0u8..4,
        moves in 0usize..300,
    ) {
        // The flat-scan objective must agree with the full rebuild-normalize-
        // measure path for any DAG, any width model (unit, scaled dummies,
        // zero dummies, per-node widths) and any legal move sequence.
        let mut rng = StdRng::seed_from_u64(seed);
        let wm = match wm_kind {
            0 => WidthModel::unit(),
            1 => WidthModel::with_dummy_width(0.3),
            2 => WidthModel::with_dummy_width(0.0),
            _ => {
                let mut widths = NodeVec::filled(1.0f64, dag.node_count());
                for i in 0..dag.node_count() {
                    widths[NodeId::new(i)] = 0.5 + f64::from(rng.gen_range(0u32..5));
                }
                WidthModel::with_node_widths(widths, 0.7)
            }
        };
        let lpl = LongestPath.layer(&dag, &wm);
        let s = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
        let mut state = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        prop_assert_eq!(
            state.incremental_objective(),
            state.normalized_objective(&dag, &wm),
            "fresh states must agree bitwise"
        );
        let csr = dag.to_csr();
        for _ in 0..moves {
            let v = NodeId::new(rng.gen_range(0..dag.node_count()));
            let (lo, hi) = (state.span_lo[v.index()], state.span_hi[v.index()]);
            state.move_vertex(&csr, &wm, v, rng.gen_range(lo..=hi));
        }
        let inc = state.incremental_objective();
        let full = state.normalized_objective(&dag, &wm);
        prop_assert!(
            (inc - full).abs() < 1e-9,
            "incremental {} vs normalized {} after {} moves",
            inc, full, moves
        );
    }

    #[test]
    fn optimized_walk_matches_reference_walk(dag in arb_dag(), seed in 0u64..100_000, sel in 0u8..2) {
        // Same RNG stream, same base: the zero-alloc CSR walk and the
        // pre-refactor allocating walk must make identical decisions under
        // the random visit order (their RNG consumption patterns match and
        // the monomorphized scoring closures evaluate the identical
        // floating-point expressions) — bit-for-bit, for both selection
        // rules.
        let wm = WidthModel::unit();
        let params = AcoParams {
            selection: if sel == 0 { SelectionRule::ArgMax } else { SelectionRule::Roulette },
            ..AcoParams::default()
        };
        let lpl = LongestPath.layer(&dag, &wm);
        let s = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
        let base = SearchState::new(&dag, &s.layering, s.total_layers, &wm);
        let tau = Trails::new(dag.node_count(), base.total_layers as usize, 1.0);
        let mut old = base.clone();
        let f_old = antlayer_aco::reference::perform_walk(
            &dag, &wm, &params, 1.0, &mut old, &mut StdRng::seed_from_u64(seed),
        );
        let csr = dag.to_csr();
        let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
        let mut new = base.clone();
        let f_new = perform_walk(
            &ctx, &tau, &mut new, &mut WalkScratch::new(), &mut StdRng::seed_from_u64(seed),
        );
        prop_assert_eq!(&old.layer, &new.layer);
        prop_assert!((f_old - f_new).abs() < 1e-9, "{} vs {}", f_old, f_new);
    }

    #[test]
    fn dummy_width_zero_reduces_width_to_real_width(dag in arb_dag(), seed in 0u64..1_000) {
        // With nd_width = 0 the reported width must equal the dummy-free
        // width for whatever the colony produces.
        let wm = WidthModel::with_dummy_width(0.0);
        let run = AcoLayering::new(
            AcoParams::default().with_colony(3, 3).with_seed(seed),
        )
        .run(&dag, &wm);
        prop_assert_eq!(run.metrics.width, run.metrics.width_excl_dummies);
    }
}

/// The dense trail matrix the sparse store must reproduce: one `f64` per
/// `(vertex, layer)`, every operation applied to every entry.
struct DenseOracle {
    data: Vec<f64>,
    layers: usize,
}

impl DenseOracle {
    fn at(&mut self, v: usize, layer: u32) -> &mut f64 {
        &mut self.data[v * self.layers + layer as usize - 1]
    }

    fn evaporate(&mut self, keep: f64, min: f64) {
        for x in &mut self.data {
            *x *= keep;
        }
        for x in &mut self.data {
            if *x < min {
                *x = min;
            }
        }
    }

    fn clamp_range(&mut self, min: f64, max: f64) {
        for x in &mut self.data {
            *x = x.clamp(min, max);
        }
    }
}

/// Every `get` and every span window of `trails` equals the oracle's
/// entries bit for bit.
fn trails_match_oracle(trails: &Trails, oracle: &DenseOracle) -> Result<(), String> {
    let layers = oracle.layers as u32;
    let mut buf = Vec::new();
    for v in 0..trails.vertices() {
        let row = &oracle.data[v * oracle.layers..(v + 1) * oracle.layers];
        for l in 1..=layers {
            let got = trails.get(NodeId::new(v), l);
            prop_assert!(
                got.to_bits() == row[l as usize - 1].to_bits(),
                "get({}, {}) = {} but dense holds {}",
                v,
                l,
                got,
                row[l as usize - 1]
            );
        }
        for lo in 1..=layers {
            for hi in lo..=layers {
                let window = trails.window(NodeId::new(v), lo, hi, &mut buf);
                let dense = &row[lo as usize - 1..hi as usize];
                prop_assert!(
                    window
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(dense.iter().map(|x| x.to_bits())),
                    "window({}, {}..={}) = {:?} but dense holds {:?}",
                    v,
                    lo,
                    hi,
                    window,
                    dense
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_trails_match_a_dense_matrix_bit_for_bit(
        shape in (1usize..7, 1usize..10, 0u8..3, 0u8..3),
        ops in (0u64..1_000_000, 1usize..90, 0u8..3, 1usize..4),
    ) {
        // Colony-shaped tours: evaporation with the 1e-12 floor, then a
        // tour-best or rank-based deposit, then the optional MAX–MIN
        // clamp; plus stray single deposits. Long sequences drive the
        // floor down to 1e-12 and the clamps push stored entries back
        // onto it, so pruning is exercised.
        let (vertices, layers, tau0_pick, rho_pick) = shape;
        let (seed, tours, bounds_pick, ranked) = ops;
        let tau0 = [1.0, 0.3, 1e-10][tau0_pick as usize];
        let keep = 1.0 - [0.1, 0.5, 0.9][rho_pick as usize];
        let bounds = [None, Some((0.05, 0.5)), Some((1e-3, 2.0))][bounds_pick as usize];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trails = Trails::new(vertices, layers, tau0);
        let mut oracle = DenseOracle { data: vec![tau0; vertices * layers], layers };
        for _ in 0..tours {
            trails.evaporate(keep, 1e-12);
            oracle.evaporate(keep, 1e-12);
            for rank in 0..ranked {
                let weight = (ranked - rank) as f64 / ranked as f64;
                let deposit = rng.gen_range(0.001..0.5) * weight;
                for v in 0..vertices {
                    let l = rng.gen_range(1..=layers as u32);
                    trails.add(NodeId::new(v), l, deposit);
                    *oracle.at(v, l) += deposit;
                }
            }
            if rng.gen_bool(0.2) {
                let (v, l) = (rng.gen_range(0..vertices), rng.gen_range(1..=layers as u32));
                let delta = rng.gen_range(0.0..3.0);
                trails.add(NodeId::new(v), l, delta);
                *oracle.at(v, l) += delta;
            }
            if let Some((lo, hi)) = bounds {
                trails.clamp_range(lo, hi);
                oracle.clamp_range(lo, hi);
            }
            trails_match_oracle(&trails, &oracle)?;
            prop_assert!(trails.stored() <= vertices * layers);
        }
    }
}
