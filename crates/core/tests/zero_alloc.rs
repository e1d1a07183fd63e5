//! Counting-allocator proof of the hot-path contract: after one warm-up
//! walk per configuration, `perform_walk` performs **zero heap
//! allocations** — the visit order, BFS bookkeeping and roulette scores
//! live in the reusable `WalkScratch`, the state is re-seeded with
//! `copy_from`, and the ant is scored by the flat-scan incremental objective.
//! The allocator also counts bytes, which bounds what a 10⁴-node colony
//! allocates before and during its first tour: the sparse trails must not
//! cost `V × H` floats.
//!
//! The assertions only run in release builds (`cargo test --release -p
//! antlayer-aco --test zero_alloc`, wired into CI): debug builds run
//! `SearchState::assert_consistent` after every move, which recomputes
//! widths from scratch and legitimately allocates. The counting allocator
//! itself is installed unconditionally and merely forwards to the system
//! allocator, so including this file in a debug `cargo test` is harmless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the only addition is relaxed counter bumps on allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Only read by the release-gated assertions below.
#[cfg_attr(debug_assertions, allow(dead_code))]
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg_attr(debug_assertions, allow(dead_code))]
fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[cfg(not(debug_assertions))]
mod release_only {
    use super::{allocated_bytes, allocations};
    use antlayer_aco::{
        perform_walk, stretch, AcoParams, Colony, SearchState, SelectionRule, StretchStrategy,
        Trails, VisitOrder, WalkCtx, WalkScratch,
    };
    use antlayer_graph::generate;
    use antlayer_layering::{LayeringAlgorithm, LongestPath, WidthModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Mutex, MutexGuard};

    /// The counters are process-wide and the test harness runs tests on
    /// parallel threads, so every measuring test holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn perform_walk_is_allocation_free_after_warmup() {
        let _serial = serial();
        let mut rng = StdRng::seed_from_u64(7);
        // The bench scenario's shape: a deep, sparse 200-node DAG.
        let dag = generate::layered_dag(200, 50, 0.04, 2, &mut rng);
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let stretched = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
        let base = SearchState::new(&dag, &stretched.layering, stretched.total_layers, &wm);
        let csr = dag.to_csr();

        for selection in [SelectionRule::ArgMax, SelectionRule::Roulette] {
            for visit_order in [VisitOrder::Random, VisitOrder::Bfs, VisitOrder::Topological] {
                let params = AcoParams {
                    selection,
                    visit_order,
                    ..AcoParams::default()
                };
                let tau = Trails::new(dag.node_count(), base.total_layers as usize, params.tau0);
                let ctx = WalkCtx::new(&dag, &csr, &wm, &params);
                let mut state = base.clone();
                let mut scratch = WalkScratch::new();
                // Warm-up: buffers size themselves to the graph.
                for seed in 0..2u64 {
                    state.copy_from(&base);
                    let mut walk_rng = StdRng::seed_from_u64(seed);
                    perform_walk(&ctx, &tau, &mut state, &mut scratch, &mut walk_rng);
                }
                // Measured section: not a single heap allocation allowed.
                let before = allocations();
                for seed in 2..52u64 {
                    state.copy_from(&base);
                    let mut walk_rng = StdRng::seed_from_u64(seed);
                    let f = perform_walk(&ctx, &tau, &mut state, &mut scratch, &mut walk_rng);
                    assert!(f > 0.0);
                }
                let allocated = allocations() - before;
                assert_eq!(
                    allocated, 0,
                    "{selection:?}/{visit_order:?}: {allocated} allocations in 50 warm walks"
                );
            }
        }
    }

    #[test]
    fn colony_setup_and_first_tour_stay_far_below_dense_trails() {
        // A dense 10⁴ × 10⁴ trail matrix alone is 800 MB; the sparse
        // trails, the per-ant states and one tour's deposits fit in a
        // small fraction of that.
        let _serial = serial();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 10_000;
        let dag = generate::layered_dag(n, n / 10, 0.02, 2, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams::default().with_colony(10, 1).with_seed(5);
        let before = allocated_bytes();
        let run = Colony::new(&dag, &wm, params).unwrap().run();
        let allocated = allocated_bytes() - before;
        assert_eq!(run.tours.len(), 1);
        assert!(
            allocated < 64 << 20,
            "Colony::new + one tour at n = {n} allocated {} MB",
            allocated >> 20
        );
    }

    #[test]
    fn counting_allocator_counts() {
        // Guard against the instrument silently going dead: an actual
        // allocation must move both counters, or the assertions above
        // prove nothing.
        let _serial = serial();
        let (before, before_bytes) = (allocations(), allocated_bytes());
        let v: Vec<u64> = std::hint::black_box((0..64).collect());
        assert!(v.len() == 64 && allocations() > before);
        assert!(allocated_bytes() >= before_bytes + 64 * 8);
    }
}

#[cfg(debug_assertions)]
#[test]
fn zero_alloc_contract_is_checked_in_release_builds() {
    // Debug builds run the per-move consistency self-check, which
    // allocates by design; the real assertions live in `release_only`
    // and CI runs them with `cargo test --release`.
}
