//! The ant colony (paper §V, Algorithms 3 and 4).
//!
//! * **Initialisation** (Alg. 3): layer the DAG with LPL, stretch the
//!   layering to `n` layers, compute layer spans and widths, and start
//!   every pheromone trail at `τ₀` (the sparse [`Trails`] store holds
//!   that as one shared floor, so nothing is filled).
//! * **Layering phase** (Alg. 4): for each of `n_tours` tours, every ant
//!   performs a walk starting from the tour's base state. At tour end the
//!   pheromone evaporates by `ρ`, the tour-best ant deposits pheromone on
//!   its `(vertex, layer)` couplings, and its layering/width state becomes
//!   the next tour's base (the paper: *"every tour inherits the layering of
//!   its predecessor"*).
//! * Finally, interior empty layers are removed (paper §VI, note).
//!
//! Ants of one tour are independent by construction — the paper frames the
//! colony as emulating "a parallel work environment" — so the tour is a
//! deterministic parallel map over per-ant RNG streams: results do not
//! depend on the thread count.
//!
//! The hot path is engineered for **zero heap allocation per walk** (the
//! tested contract — see the `zero_alloc` counting-allocator test): the
//! colony's big buffers are allocated once at construction (a [`CsrView`]
//! of the adjacency, one persistent [`SearchState`] slot per ant, one
//! [`WalkScratch`] per worker thread) and the tour re-seeds the slots with
//! [`SearchState::copy_from`] instead of cloning. Each tour still pays
//! `O(n_ants)` bookkeeping allocations (the seed/slot pairing and the
//! parallel map's result cells), plus the amortised growth of the trail
//! rows that receive deposits. Evaporation and clamping touch only the
//! stored trail couplings, not all `V × H`.
//! Deadlines are checked *between walks*, not just between tours, so a
//! deadline can interrupt a long tour on large graphs
//! ([`ColonyRun::stopped_early`]).

use crate::stretch::stretch;
use crate::walk::{perform_walk, WalkCtx};
use crate::{AcoParams, SearchState, Trails, WalkScratch};
use antlayer_graph::{CsrView, Dag};
use antlayer_layering::{
    Layering, LayeringAlgorithm, LayeringMetrics, LongestPath, Solution, WidthModel,
};
use antlayer_parallel::{default_threads, par_map_with_scratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Seed for ant `k` of tour `t`: a SplitMix64 scramble of the master
/// seed, so every (tour, ant) pair gets an independent stream and the
/// result is reproducible under any thread count. Shared with the
/// [`reference`](crate::reference) path so both race identical streams.
pub(crate) fn ant_seed(params: &AcoParams, tour: usize, ant: usize) -> u64 {
    let mut z = params.seed.wrapping_add(
        0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(1 + tour as u64 * params.n_ants as u64 + ant as u64),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-tour statistics, for convergence plots and the tuning experiments.
#[derive(Clone, PartialEq, Debug)]
pub struct TourStats {
    /// Tour index, `0..n_tours`.
    pub tour: usize,
    /// Best objective among this tour's ants.
    pub best_objective: f64,
    /// Mean objective over this tour's ants.
    pub mean_objective: f64,
    /// Height `H` of the tour-best ant's layering (stretched space).
    pub best_height: u32,
    /// Width `W` of the tour-best ant's layering (dummies included).
    pub best_width: f64,
}

/// One point of a run's convergence trajectory: the incumbent (global
/// best) objective after a number of completed tours, with the wall
/// clock attached so anytime curves can be plotted against time as well
/// as iterations.
#[derive(Clone, PartialEq, Debug)]
pub struct TrajectoryPoint {
    /// Completed tours when this incumbent was recorded (`0` = the
    /// stretched-LPL seed, or the installed warm-start incumbent).
    pub after_tours: usize,
    /// The incumbent objective at that point (stretched space).
    pub objective: f64,
    /// Microseconds since the layering phase started.
    pub elapsed_us: u64,
}

/// Result of a full colony run.
#[derive(Clone, Debug)]
pub struct ColonyRun {
    /// The best layering found, normalized (empty layers removed).
    pub layering: Layering,
    /// Objective of the best state *in the stretched space* (before
    /// normalization, which can only improve it).
    pub objective: f64,
    /// Metrics of the normalized result.
    pub metrics: LayeringMetrics,
    /// Statistics of every tour, in order.
    pub tours: Vec<TourStats>,
    /// `true` when a deadline cut the layering phase short of `n_tours`
    /// tours (anytime behaviour) — including mid-tour, since the clock is
    /// checked before every walk. The layering is still valid — it is the
    /// best state seen up to the stop, at worst the stretched-LPL seed.
    pub stopped_early: bool,
    /// `true` when the run was warm-started from a caller-supplied
    /// incumbent layering ([`Colony::run_seeded`]).
    pub seeded: bool,
    /// First tour (0-based) whose tour-best walk reached the incumbent's
    /// objective, i.e. how many repair iterations the colony needed to
    /// re-derive the quality of its starting point on its own. `None`
    /// when no tour matched it (or no tour ran). For cold runs the
    /// incumbent is the stretched-LPL seed state.
    pub tours_to_match_seed: Option<usize>,
    /// `true` when a warm-started run stopped before `n_tours` because a
    /// full tour re-derived the installed incumbent's quality without
    /// the run ever beating it — the seed held up, so the remaining
    /// budget was handed back ([`AcoParams::warm_early_stop`]). Distinct
    /// from [`stopped_early`](Self::stopped_early), which only ever
    /// means a deadline fired.
    pub matched_seed_early: bool,
    /// Convergence telemetry: the starting incumbent plus one point per
    /// incumbent improvement, in order, capped at
    /// [`AcoParams::trajectory_cap`] points (empty when the cap is 0).
    /// Recorded between tours at one comparison per tour — the walk hot
    /// path is untouched.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The ant colony for one DAG.
pub struct Colony<'a> {
    dag: &'a Dag,
    wm: &'a WidthModel,
    params: AcoParams,
    /// Flat adjacency snapshot scanned by every walk (cold allocation,
    /// made once here).
    csr: CsrView,
    /// Resolved worker count (params' `0` already replaced).
    threads: usize,
    tau: Trails,
    base: SearchState,
    best: SearchState,
    best_objective: f64,
    /// Objective of the installed incumbent (the warm-start seed, or the
    /// stretched-LPL state for cold runs); the yardstick for
    /// [`ColonyRun::tours_to_match_seed`].
    incumbent_objective: f64,
    seeded: bool,
    /// One persistent state per ant, re-seeded from `base` each tour via
    /// `copy_from` — no per-walk clone.
    walk_states: Vec<SearchState>,
    /// One scratch per worker thread, reused across tours.
    scratches: Vec<WalkScratch>,
}

impl<'a> Colony<'a> {
    /// Runs the initialisation phase (Algorithm 3).
    pub fn new(dag: &'a Dag, wm: &'a WidthModel, params: AcoParams) -> Result<Self, String> {
        params.validate()?;
        let lpl = LongestPath.layer(dag, wm);
        let target = params.target_layers.unwrap_or(dag.node_count());
        let stretched = stretch(&lpl, target, params.stretch);
        let base = SearchState::new(dag, &stretched.layering, stretched.total_layers.max(1), wm);
        let tau = Trails::new(dag.node_count(), base.total_layers as usize, params.tau0);
        let best_objective = if dag.node_count() == 0 {
            0.0
        } else {
            base.incremental_objective()
        };
        let threads = if params.threads == 0 {
            default_threads(params.n_ants)
        } else {
            params.threads
        };
        let walk_states = vec![base.clone(); params.n_ants];
        let scratches = vec![WalkScratch::new(); threads.max(1)];
        Ok(Colony {
            dag,
            wm,
            csr: dag.to_csr(),
            threads,
            tau,
            best: base.clone(),
            base,
            best_objective,
            incumbent_objective: best_objective,
            seeded: false,
            walk_states,
            scratches,
            params,
        })
    }

    /// Installs `initial` as the colony's incumbent (warm start).
    ///
    /// The layering — typically the result of a previous run on a
    /// near-identical graph, [repaired](antlayer_layering::Layering::repaired)
    /// after an edge edit — becomes the global best, and its trail is
    /// deposited into the pheromone trails before the first tour (one
    /// tour-best-sized deposit on every `(vertex, layer)` coupling it
    /// uses), biasing the ants towards the incumbent's couplings.
    ///
    /// The tour *base* stays the stretched-LPL state: exploration is
    /// unchanged, so a warm run's anytime curve dominates the cold run's
    /// by construction — at every tour its best is
    /// `max(seed, cold best so far)`. Early experiments that walked from
    /// the seed state instead were strictly worse: on seeds a small edit
    /// had degraded, the colony got trapped in the seed's basin and
    /// plateaued below the cold optimum. When the seed scores below even
    /// the stretched-LPL state, the better state is kept as the global
    /// best (the run contract "never worse than a cold start" survives
    /// arbitrarily bad seeds), while [`ColonyRun::tours_to_match_seed`]
    /// keeps measuring against the seed itself.
    ///
    /// Fails if `initial` is not a valid layering of the colony's DAG.
    pub fn install_seed(&mut self, initial: &Layering) -> Result<(), String> {
        initial
            .validate(self.dag)
            .map_err(|e| format!("seed layering rejected: {e}"))?;
        self.seeded = true;
        if self.dag.node_count() == 0 {
            return Ok(());
        }
        let mut normalized = initial.clone();
        normalized.normalize();
        let target = self.params.target_layers.unwrap_or(self.dag.node_count());
        let stretched = stretch(&normalized, target, self.params.stretch);
        let seed_state = SearchState::new(
            self.dag,
            &stretched.layering,
            stretched.total_layers.max(1),
            self.wm,
        );
        let objective = seed_state.incremental_objective();
        for v in self.dag.nodes() {
            let layer = seed_state.layer[v.index()];
            // Under an explicit `target_layers` smaller than the seed's
            // height, the seed can occupy layers the (LPL-sized) trails
            // do not have; those couplings simply get no trail.
            if layer <= self.base.total_layers {
                self.tau.add(v, layer, self.params.deposit_q * objective);
            }
        }
        if objective >= self.best_objective {
            self.best = seed_state;
            self.best_objective = objective;
        }
        self.incumbent_objective = objective;
        Ok(())
    }

    /// Runs the layering phase warm-started from `initial`; equivalent to
    /// [`install_seed`](Self::install_seed) followed by [`run`](Self::run).
    ///
    /// The returned run has [`ColonyRun::seeded`] set and is never worse
    /// than the (normalized) seed layering itself.
    pub fn run_seeded(mut self, initial: &Layering) -> Result<ColonyRun, String> {
        self.install_seed(initial)?;
        Ok(self.run())
    }

    /// Warm-started run against an absolute deadline; see
    /// [`run_seeded`](Self::run_seeded) and [`run_until`](Self::run_until).
    pub fn run_seeded_until(
        mut self,
        initial: &Layering,
        deadline: Option<Instant>,
    ) -> Result<ColonyRun, String> {
        self.install_seed(initial)?;
        Ok(self.run_until(deadline))
    }

    /// Runs one tour. Walks write into the colony's persistent per-ant
    /// state slots; the deadline (if any) is checked before every walk.
    ///
    /// Returns `None` when the deadline interrupted the tour: completed
    /// walks still feed the global best (anytime behaviour), but the
    /// partial tour deposits no pheromone and does not replace the base —
    /// a timing-dependent subset of ants must never steer an unbounded
    /// continuation.
    fn perform_tour(&mut self, tour: usize, deadline: Option<Instant>) -> Option<TourStats> {
        let params = &self.params;
        let ctx = WalkCtx::new(self.dag, &self.csr, self.wm, params);
        let tau = &self.tau;
        let base = &self.base;
        let items: Vec<(u64, &mut SearchState)> = self
            .walk_states
            .iter_mut()
            .enumerate()
            .map(|(k, state)| (ant_seed(params, tour, k), state))
            .collect();
        let objectives: Vec<Option<f64>> = par_map_with_scratch(
            self.threads,
            &mut self.scratches,
            items,
            |scratch, _, (seed, state)| {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return None;
                    }
                }
                state.copy_from(base);
                let mut rng = StdRng::seed_from_u64(seed);
                Some(perform_walk(&ctx, tau, state, scratch, &mut rng))
            },
        );

        if objectives.iter().any(Option::is_none) {
            // Interrupted mid-tour: salvage completed walks into the
            // global best, then stop (the caller reports stopped_early).
            for (k, f) in objectives.iter().enumerate() {
                if let Some(f) = *f {
                    if f > self.best_objective {
                        self.best_objective = f;
                        self.best.copy_from(&self.walk_states[k]);
                    }
                }
            }
            return None;
        }
        let objectives: Vec<f64> = objectives
            .into_iter()
            .map(|f| f.expect("checked"))
            .collect();

        // Tour best: highest objective, first on ties (deterministic).
        let (best_idx, &tour_best_f) = objectives
            .iter()
            .enumerate()
            .max_by(|(ia, fa), (ib, fb)| {
                fa.partial_cmp(fb).unwrap().then(ib.cmp(ia)) // prefer the lower index on ties
            })
            .expect("n_ants >= 1");
        let mean = objectives.iter().sum::<f64>() / objectives.len() as f64;

        // Evaporation, then deposit (Alg. 4, 16–17). The paper's rule is
        // tour-best only; rank-based deposit is an extension.
        self.tau.evaporate(1.0 - self.params.rho, 1e-12);
        match self.params.deposit {
            crate::DepositStrategy::TourBest => {
                for v in self.dag.nodes() {
                    self.tau.add(
                        v,
                        self.walk_states[best_idx].layer[v.index()],
                        self.params.deposit_q * tour_best_f,
                    );
                }
            }
            crate::DepositStrategy::RankBased(k) => {
                let mut ranked: Vec<usize> = (0..objectives.len()).collect();
                ranked.sort_by(|&a, &b| {
                    objectives[b]
                        .partial_cmp(&objectives[a])
                        .unwrap()
                        .then(a.cmp(&b))
                });
                for (rank, &idx) in ranked.iter().take(k).enumerate() {
                    let weight = (k - rank) as f64 / k as f64;
                    for v in self.dag.nodes() {
                        self.tau.add(
                            v,
                            self.walk_states[idx].layer[v.index()],
                            self.params.deposit_q * objectives[idx] * weight,
                        );
                    }
                }
            }
        }
        if let Some((lo, hi)) = self.params.tau_bounds {
            self.tau.clamp_range(lo, hi);
        }

        // The stats of the normalized tour-best layering, read directly
        // off the maintained occupancy/width tables (no Layering rebuild:
        // H is the occupied-layer count, W the occupied-layer max width —
        // exactly what normalize + metrics::width would report).
        let stats = {
            let bs = &self.walk_states[best_idx];
            TourStats {
                tour,
                best_objective: tour_best_f,
                mean_objective: mean,
                best_height: bs.occupied_layers(),
                best_width: bs.occupied_max_width(),
            }
        };

        // Global best, then base inheritance (Alg. 4 line 18).
        if tour_best_f > self.best_objective {
            self.best_objective = tour_best_f;
            self.best.copy_from(&self.walk_states[best_idx]);
        }
        self.base.copy_from(&self.walk_states[best_idx]);
        Some(stats)
    }

    /// Runs the layering phase: all `n_tours` tours. Returns the best
    /// layering (normalized) with metrics and per-tour statistics.
    pub fn run(self) -> ColonyRun {
        self.run_until(None)
    }

    /// Runs the layering phase against an absolute deadline (anytime ACO).
    ///
    /// The clock is checked between tours **and between walks**: once
    /// `deadline` has passed, no further walk starts — a long tour on a
    /// large graph is interrupted rather than run to completion — and the
    /// best-so-far layering is returned with [`ColonyRun::stopped_early`]
    /// set. An already-expired deadline runs zero walks and yields the
    /// stretched-LPL seed state, which is always a valid layering. `None`
    /// never stops early.
    pub fn run_until(mut self, deadline: Option<Instant>) -> ColonyRun {
        if self.dag.node_count() == 0 {
            return ColonyRun {
                layering: Layering::from_slice(&[]),
                objective: 0.0,
                metrics: LayeringMetrics {
                    height: 0,
                    width: 0.0,
                    width_excl_dummies: 0.0,
                    dummy_count: 0,
                    edge_density: 0,
                    objective: 0.0,
                },
                tours: Vec::new(),
                stopped_early: false,
                seeded: self.seeded,
                tours_to_match_seed: None,
                matched_seed_early: false,
                trajectory: Vec::new(),
            };
        }
        let started = Instant::now();
        let mut tours = Vec::with_capacity(self.params.n_tours);
        let mut stopped_early = false;
        let mut matched_seed_early = false;
        // Convergence telemetry: the starting incumbent, then one point
        // whenever a tour improves the global best, capped. The cap
        // bounds both memory and the (already tiny) per-tour cost.
        let cap = self.params.trajectory_cap;
        let mut trajectory = Vec::with_capacity(cap.min(self.params.n_tours + 1));
        let record = |after_tours: usize, objective: f64, trajectory: &mut Vec<TrajectoryPoint>| {
            if trajectory.len() < cap {
                trajectory.push(TrajectoryPoint {
                    after_tours,
                    objective,
                    elapsed_us: started.elapsed().as_micros() as u64,
                });
            }
        };
        record(0, self.best_objective, &mut trajectory);
        for t in 0..self.params.n_tours {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stopped_early = true;
                    break;
                }
            }
            let prev_best = self.best_objective;
            match self.perform_tour(t, deadline) {
                Some(stats) => {
                    let tour_best = stats.best_objective;
                    tours.push(stats);
                    if self.best_objective > prev_best {
                        record(t + 1, self.best_objective, &mut trajectory);
                    }
                    // Warm early stop: a *full* tour landed on the
                    // incumbent's plateau (re-derived its quality) while
                    // nothing in the run has beaten it — the seed holds
                    // up, so the remaining tours would only confirm it.
                    // Deadline-interrupted tours never reach this point
                    // (they return None above), so the plateau signal is
                    // only ever read off a complete tour.
                    if self.seeded
                        && self.params.warm_early_stop
                        && tour_best >= self.incumbent_objective - 1e-12
                        && self.best_objective <= self.incumbent_objective + 1e-12
                    {
                        matched_seed_early = true;
                        break;
                    }
                }
                None => {
                    // Walks salvaged from the interrupted tour may still
                    // have improved the incumbent.
                    if self.best_objective > prev_best {
                        record(t + 1, self.best_objective, &mut trajectory);
                    }
                    stopped_early = true;
                    break;
                }
            }
        }
        let mut layering = self.best.to_layering();
        layering.normalize();
        debug_assert!(layering.validate(self.dag).is_ok());
        let metrics = LayeringMetrics::compute(self.dag, &layering, self.wm);
        let tours_to_match_seed = tours
            .iter()
            .position(|t| t.best_objective >= self.incumbent_objective - 1e-12);
        ColonyRun {
            layering,
            objective: self.best_objective,
            metrics,
            tours,
            stopped_early,
            seeded: self.seeded,
            tours_to_match_seed,
            matched_seed_early,
            trajectory,
        }
    }
}

/// The ACO layering algorithm as a pluggable [`LayeringAlgorithm`].
///
/// # Example
/// ```
/// use antlayer_graph::Dag;
/// use antlayer_layering::{LayeringAlgorithm, WidthModel};
/// use antlayer_aco::{AcoLayering, AcoParams};
///
/// let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
/// let algo = AcoLayering::new(AcoParams::default().with_colony(4, 4));
/// let layering = algo.layer(&dag, &WidthModel::unit());
/// assert!(layering.validate(&dag).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct AcoLayering {
    /// Colony parameters.
    pub params: AcoParams,
}

impl AcoLayering {
    /// Wraps the given parameters.
    pub fn new(params: AcoParams) -> Self {
        AcoLayering { params }
    }

    /// Runs the colony and returns the full result (layering, metrics,
    /// per-tour history).
    pub fn run(&self, dag: &Dag, wm: &WidthModel) -> ColonyRun {
        Colony::new(dag, wm, self.params.clone())
            .expect("parameters validated at construction")
            .run()
    }

    /// Runs the colony against an absolute deadline; see
    /// [`Colony::run_until`].
    pub fn run_until(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> ColonyRun {
        Colony::new(dag, wm, self.params.clone())
            .expect("parameters validated at construction")
            .run_until(deadline)
    }

    /// Warm-started run: installs `initial` as the incumbent before the
    /// first tour; see [`Colony::run_seeded`]. Fails if `initial` is not
    /// a valid layering of `dag`.
    pub fn run_seeded(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        initial: &Layering,
    ) -> Result<ColonyRun, String> {
        self.run_seeded_until(dag, wm, initial, None)
    }

    /// Warm-started run against an absolute deadline; see
    /// [`Colony::run_seeded_until`].
    pub fn run_seeded_until(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        initial: &Layering,
        deadline: Option<Instant>,
    ) -> Result<ColonyRun, String> {
        Colony::new(dag, wm, self.params.clone())
            .expect("parameters validated at construction")
            .run_seeded_until(initial, deadline)
    }
}

fn solution_from_run(dag: &Dag, wm: &WidthModel, run: ColonyRun) -> Solution {
    let cost = antlayer_layering::solution_cost(dag, &run.layering, wm);
    Solution {
        layering: run.layering,
        cost,
        stopped_early: run.stopped_early,
        certified: false,
        seeded: run.seeded,
        race: None,
    }
}

/// The colony as a [`LayeringAlgorithm`]: `layer` is a full
/// [`AcoLayering::run`], `solve` maps to [`AcoLayering::run_until`], and
/// `solve_seeded` warm-starts the incumbent from the caller's seed
/// ([`AcoLayering::run_seeded_until`]). A deadline interrupts between
/// walks; the reported incumbent is the colony's best at that point and
/// `stopped_early` is set.
impl LayeringAlgorithm for AcoLayering {
    fn name(&self) -> &str {
        "AntColony"
    }

    fn layer(&self, dag: &Dag, wm: &WidthModel) -> Layering {
        self.run(dag, wm).layering
    }

    fn solve(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> Solution {
        solution_from_run(dag, wm, self.run_until(dag, wm, deadline))
    }

    fn solve_seeded(
        &self,
        dag: &Dag,
        wm: &WidthModel,
        seed: &Layering,
        deadline: Option<Instant>,
    ) -> Solution {
        match self.run_seeded_until(dag, wm, seed, deadline) {
            Ok(run) => solution_from_run(dag, wm, run),
            // An unusable seed must not break the contract: fall back to
            // the cold anytime run.
            Err(_) => self.solve(dag, wm, deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::generate;
    use antlayer_layering::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> AcoParams {
        AcoParams::default().with_colony(5, 5).with_seed(42)
    }

    #[test]
    fn produces_valid_normalized_layerings() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let dag = generate::random_dag_with_edges(20, 30, &mut rng);
            let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
            run.layering.validate(&dag).unwrap();
            let mut l = run.layering.clone();
            assert!(!l.normalize());
            assert_eq!(run.tours.len(), 5);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(2);
        let dag = generate::gnp_dag(20, 0.15, &mut rng);
        let a = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        let b = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        assert_eq!(a.layering, b.layering);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn trajectory_tracks_incumbent_improvements() {
        let mut rng = StdRng::seed_from_u64(21);
        let dag = generate::random_dag_with_edges(30, 45, &mut rng);
        let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        let t = &run.trajectory;
        assert!(!t.is_empty(), "default cap records at least the seed");
        assert_eq!(t[0].after_tours, 0, "first point is the seed state");
        for pair in t.windows(2) {
            assert!(pair[1].after_tours > pair[0].after_tours);
            assert!(pair[1].objective > pair[0].objective);
            assert!(pair[1].elapsed_us >= pair[0].elapsed_us);
        }
        assert_eq!(
            t.last().unwrap().objective,
            run.objective,
            "the last point is the final incumbent"
        );
        assert!(t.len() <= AcoParams::default().trajectory_cap);
    }

    #[test]
    fn trajectory_cap_zero_disables_without_changing_the_result() {
        let mut rng = StdRng::seed_from_u64(22);
        let dag = generate::random_dag_with_edges(25, 35, &mut rng);
        let on = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        let off =
            AcoLayering::new(small_params().with_trajectory_cap(0)).run(&dag, &WidthModel::unit());
        assert!(off.trajectory.is_empty());
        assert_eq!(
            on.layering, off.layering,
            "telemetry must not steer the search"
        );
        assert_eq!(on.objective, off.objective);
        assert!(!on.trajectory.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(3);
        let dag = generate::random_dag_with_edges(25, 35, &mut rng);
        let seq = AcoLayering::new(small_params().with_threads(1)).run(&dag, &WidthModel::unit());
        let par = AcoLayering::new(small_params().with_threads(4)).run(&dag, &WidthModel::unit());
        assert_eq!(
            seq.layering, par.layering,
            "thread count must not change the result"
        );
        assert_eq!(seq.tours, par.tours);
    }

    #[test]
    fn scratch_reuse_and_csr_are_thread_count_invariant() {
        // The stressed configuration: roulette selection consumes the RNG
        // in the layer choice and BFS visit order exercises the scratch
        // queues; 1 vs 4 threads must still be byte-identical.
        let mut rng = StdRng::seed_from_u64(13);
        let dag = generate::layered_dag(50, 16, 0.05, 2, &mut rng);
        let params = AcoParams {
            selection: crate::SelectionRule::Roulette,
            visit_order: crate::VisitOrder::Bfs,
            ..small_params()
        };
        let seq = AcoLayering::new(params.clone().with_threads(1)).run(&dag, &WidthModel::unit());
        let par = AcoLayering::new(params.with_threads(4)).run(&dag, &WidthModel::unit());
        assert_eq!(seq.layering, par.layering);
        assert_eq!(seq.tours, par.tours);
        assert_eq!(seq.objective, par.objective);
    }

    #[test]
    fn objective_never_degrades_below_initial_lpl_state() {
        // The global best is seeded with the stretched LPL state, so the
        // run's objective is at least that.
        let mut rng = StdRng::seed_from_u64(4);
        let dag = generate::random_dag_with_edges(30, 45, &mut rng);
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(&dag, &wm);
        let stretched = stretch(&lpl, dag.node_count(), crate::StretchStrategy::Between);
        let initial = SearchState::new(&dag, &stretched.layering, stretched.total_layers, &wm)
            .normalized_objective(&dag, &wm);
        let run = AcoLayering::new(small_params()).run(&dag, &wm);
        assert!(run.objective >= initial - 1e-12);
    }

    #[test]
    fn narrower_than_lpl_on_deep_sparse_graphs() {
        // The headline claim (Fig. 4): ACO beats plain LPL width. The effect
        // lives on deep, sparse DAGs like the paper's AT&T/Rome suite
        // (LPL height ≈ n/4); on shallow dense DAGs the stretched gaps fill
        // with dummy mass and the colony correctly falls back to its LPL
        // seed instead of making things worse.
        let mut rng = StdRng::seed_from_u64(5);
        let wm = WidthModel::unit();
        let mut aco_width = 0.0;
        let mut lpl_width = 0.0;
        for _ in 0..5 {
            let dag = generate::layered_dag(60, 20, 0.04, 2, &mut rng);
            let run = AcoLayering::new(small_params()).run(&dag, &wm);
            aco_width += run.metrics.width;
            let lpl = LongestPath.layer(&dag, &wm);
            lpl_width += metrics::width(&dag, &lpl, &wm);
        }
        assert!(
            aco_width < 0.8 * lpl_width,
            "ACO width {aco_width} should clearly beat LPL width {lpl_width}"
        );
    }

    #[test]
    fn matches_the_dense_reference_colony_bit_for_bit() {
        // The sparse trails must reproduce the dense matrix exactly, so the
        // colony and the frozen reference colony (dense trails, evaporated
        // in full every tour) make every choice the same. With ρ = 0.5 the
        // 1e-12 floor and the pruning of stored couplings only act after
        // about 40 tours; the 60-tour runs are the ones that reach them.
        use crate::{SelectionRule, VisitOrder};
        let mut rng = StdRng::seed_from_u64(61);
        let dags = [
            generate::random_dag_with_edges(30, 45, &mut rng),
            generate::layered_dag(50, 12, 0.05, 2, &mut rng),
        ];
        let wm = WidthModel::unit();
        for dag in &dags {
            for selection in [SelectionRule::ArgMax, SelectionRule::Roulette] {
                for visit_order in [VisitOrder::Random, VisitOrder::Bfs, VisitOrder::Topological] {
                    for n_tours in [10, 60] {
                        let params = AcoParams {
                            selection,
                            visit_order,
                            ..AcoParams::default().with_colony(4, n_tours).with_seed(9)
                        };
                        let case = format!("{selection:?}/{visit_order:?}/{n_tours} tours");
                        let run = AcoLayering::new(params.clone()).run(dag, &wm);
                        let reference = crate::reference::run_colony(dag, &wm, &params);
                        assert_eq!(run.layering, reference.layering, "{case}");
                        assert_eq!(
                            run.objective.to_bits(),
                            reference.objective.to_bits(),
                            "{case}"
                        );
                        assert_eq!(run.tours.len(), reference.tours.len(), "{case}");
                        for (a, b) in run.tours.iter().zip(&reference.tours) {
                            assert_eq!(
                                a.best_objective.to_bits(),
                                b.best_objective.to_bits(),
                                "{case}, tour {}",
                                a.tour
                            );
                            assert_eq!(
                                a.mean_objective.to_bits(),
                                b.mean_objective.to_bits(),
                                "{case}, tour {}",
                                a.tour
                            );
                            assert_eq!(a.best_height, b.best_height, "{case}");
                            assert_eq!(a.best_width, b.best_width, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn evaporated_deposits_fall_back_onto_the_floor() {
        // At ρ = 0.5 a deposit decays to the 1e-12 floor within about 40
        // tours unless a later tour refreshes it; the store must then drop
        // it, so after 60 tours it holds fewer couplings than were ever
        // deposited, but still every coupling of the last deposit.
        let mut rng = StdRng::seed_from_u64(62);
        let dag = generate::layered_dag(40, 10, 0.05, 2, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams::default().with_colony(4, 60).with_seed(3);
        let mut colony = Colony::new(&dag, &wm, params).unwrap();
        let mut deposited = std::collections::BTreeSet::new();
        for t in 0..60 {
            colony.perform_tour(t, None).expect("unbounded tour");
            // The tour best, now the base, deposited on its couplings.
            deposited.extend(dag.nodes().map(|v| (v, colony.base.layer[v.index()])));
        }
        let stored = colony.tau.stored();
        assert!(stored >= dag.node_count(), "the last deposit is stored");
        assert!(
            stored < deposited.len(),
            "no coupling was pruned: {stored} stored of {} deposited",
            deposited.len()
        );
    }

    #[test]
    fn tour_history_is_recorded_in_order() {
        let mut rng = StdRng::seed_from_u64(6);
        let dag = generate::gnp_dag(15, 0.2, &mut rng);
        let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        for (i, t) in run.tours.iter().enumerate() {
            assert_eq!(t.tour, i);
            assert!(t.best_objective >= t.mean_objective - 1e-12);
            assert!(t.best_objective > 0.0);
        }
    }

    #[test]
    fn tour_stats_match_normalized_layering_metrics() {
        // best_height/best_width come from the occupancy tables; they must
        // equal what normalize + metrics report for the same state.
        let mut rng = StdRng::seed_from_u64(16);
        let dag = generate::layered_dag(40, 12, 0.05, 2, &mut rng);
        let wm = WidthModel::unit();
        let mut colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let stats = colony.perform_tour(0, None).expect("no deadline");
        let mut layering = colony.base.to_layering(); // base == tour best
        layering.normalize();
        assert_eq!(stats.best_height, layering.max_layer());
        assert_eq!(stats.best_width, metrics::width(&dag, &layering, &wm));
    }

    #[test]
    fn handles_degenerate_graphs() {
        let wm = WidthModel::unit();
        // Empty.
        let dag = Dag::from_edges(0, &[]).unwrap();
        let run = AcoLayering::new(small_params()).run(&dag, &wm);
        assert!(run.layering.is_empty());
        // Single vertex.
        let dag = Dag::from_edges(1, &[]).unwrap();
        let run = AcoLayering::new(small_params()).run(&dag, &wm);
        assert_eq!(run.metrics.height, 1);
        // Single edge.
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let run = AcoLayering::new(small_params()).run(&dag, &wm);
        run.layering.validate(&dag).unwrap();
        assert_eq!(run.metrics.height, 2);
        // Edgeless multi-vertex.
        let dag = Dag::from_edges(4, &[]).unwrap();
        let run = AcoLayering::new(small_params()).run(&dag, &wm);
        run.layering.validate(&dag).unwrap();
    }

    #[test]
    fn expired_deadline_stops_before_any_tour() {
        let mut rng = StdRng::seed_from_u64(32);
        let dag = generate::gnp_dag(20, 0.15, &mut rng);
        let wm = WidthModel::unit();
        let colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let run = colony.run_until(Some(Instant::now()));
        run.layering.validate(&dag).unwrap();
        assert!(run.stopped_early);
        assert!(run.tours.is_empty());
        assert!(run.objective > 0.0);
    }

    #[test]
    fn expired_deadline_interrupts_a_tour_between_walks() {
        // Drive the tour directly with an already-passed deadline: every
        // walk sees the expired clock and skips, the tour reports the
        // interruption, and neither the pheromone nor the base moves.
        let mut rng = StdRng::seed_from_u64(36);
        let dag = generate::gnp_dag(20, 0.15, &mut rng);
        let wm = WidthModel::unit();
        let mut colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let tau_before = colony.tau.total();
        let base_before = colony.base.clone();
        let best_before = colony.best_objective;
        assert!(colony.perform_tour(0, Some(Instant::now())).is_none());
        assert_eq!(colony.tau.total(), tau_before, "no deposit on a cut tour");
        assert_eq!(colony.base, base_before, "no base inheritance either");
        assert_eq!(colony.best_objective, best_before);
    }

    #[test]
    fn deadline_shorter_than_one_tour_interrupts_mid_tour() {
        // A deadline far sooner than one tour's wall time must not wait
        // for the tour boundary: zero tours complete, yet the result is
        // the valid seed layering (anytime contract on large graphs).
        let mut rng = StdRng::seed_from_u64(37);
        let dag = generate::layered_dag(500, 60, 0.02, 2, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams::default().with_colony(8, 4).with_seed(3);
        let colony = Colony::new(&dag, &wm, params).unwrap();
        let run = colony.run_until(Some(Instant::now() + std::time::Duration::from_micros(200)));
        assert!(run.stopped_early);
        assert!(
            run.tours.is_empty(),
            "a sub-tour budget must not complete a whole tour"
        );
        run.layering.validate(&dag).unwrap();
        assert!(run.objective > 0.0);
    }

    #[test]
    fn unbounded_run_is_not_marked_early() {
        let mut rng = StdRng::seed_from_u64(33);
        let dag = generate::gnp_dag(15, 0.2, &mut rng);
        let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        assert!(!run.stopped_early);
        assert_eq!(run.tours.len(), small_params().n_tours);
    }

    #[test]
    fn generous_budget_completes_all_tours() {
        let mut rng = StdRng::seed_from_u64(34);
        let dag = generate::gnp_dag(12, 0.2, &mut rng);
        let wm = WidthModel::unit();
        let colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let run = colony.run_until(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(!run.stopped_early);
        assert_eq!(run.tours.len(), small_params().n_tours);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let params = AcoParams {
            rho: 2.0,
            ..AcoParams::default()
        };
        assert!(Colony::new(&dag, &WidthModel::unit(), params).is_err());
    }

    #[test]
    fn rank_based_deposit_produces_valid_results() {
        let mut rng = StdRng::seed_from_u64(21);
        let dag = generate::layered_dag(30, 10, 0.05, 2, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams {
            deposit: crate::DepositStrategy::RankBased(3),
            ..small_params()
        };
        let run = AcoLayering::new(params).run(&dag, &wm);
        run.layering.validate(&dag).unwrap();
        // Deterministic too.
        let params2 = AcoParams {
            deposit: crate::DepositStrategy::RankBased(3),
            ..small_params()
        };
        let run2 = AcoLayering::new(params2).run(&dag, &wm);
        assert_eq!(run.layering, run2.layering);
    }

    #[test]
    fn tau_bounds_are_enforced() {
        let mut rng = StdRng::seed_from_u64(22);
        let dag = generate::gnp_dag(15, 0.2, &mut rng);
        let wm = WidthModel::unit();
        let params = AcoParams {
            tau_bounds: Some((0.05, 0.5)),
            ..small_params()
        };
        let mut colony = Colony::new(&dag, &wm, params).unwrap();
        for t in 0..3 {
            colony.perform_tour(t, None).expect("unbounded tour");
            for v in dag.nodes() {
                for l in 1..=colony.base.total_layers {
                    let tau = colony.tau.get(v, l);
                    assert!(
                        (0.05..=0.5).contains(&tau),
                        "tau({v}, {l}) = {tau} escaped bounds"
                    );
                }
            }
        }
    }

    #[test]
    fn alternative_visit_orders_still_beat_lpl_width() {
        let mut rng = StdRng::seed_from_u64(23);
        let wm = WidthModel::unit();
        let dag = generate::layered_dag(60, 20, 0.04, 2, &mut rng);
        let lpl_w = metrics::width(&dag, &LongestPath.layer(&dag, &wm), &wm);
        for order in [crate::VisitOrder::Bfs, crate::VisitOrder::Topological] {
            let params = AcoParams {
                visit_order: order,
                ..small_params()
            };
            let run = AcoLayering::new(params).run(&dag, &wm);
            run.layering.validate(&dag).unwrap();
            assert!(
                run.metrics.width <= lpl_w,
                "{order:?} failed to match LPL width"
            );
        }
    }

    #[test]
    fn seeded_run_is_never_worse_than_its_seed() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..3 {
            let dag = generate::random_dag_with_edges(25, 38, &mut rng);
            let wm = WidthModel::unit();
            // The seed is a previous full run's layering.
            let seed_run = AcoLayering::new(small_params()).run(&dag, &wm);
            let run = AcoLayering::new(small_params().with_seed(77))
                .run_seeded(&dag, &wm, &seed_run.layering)
                .unwrap();
            run.layering.validate(&dag).unwrap();
            assert!(run.seeded);
            assert!(
                run.objective >= seed_run.objective - 1e-12,
                "warm start degraded the incumbent: {} < {}",
                run.objective,
                seed_run.objective
            );
        }
    }

    #[test]
    fn seeded_run_matches_incumbent_quickly_after_small_edit() {
        // The warm-start scenario: layer a graph, edit one edge, re-layer
        // seeded with the repaired previous layering. The colony should
        // re-derive the incumbent's quality within the first tours.
        let mut rng = StdRng::seed_from_u64(42);
        let dag = generate::layered_dag(60, 20, 0.04, 2, &mut rng);
        let wm = WidthModel::unit();
        let base = AcoLayering::new(small_params()).run(&dag, &wm);
        // Remove the first edge of the graph.
        let (u0, v0) = dag.edges().next().unwrap();
        let edited: Dag = dag
            .filter_edges(|u, v| (u, v) != (u0, v0))
            .try_into()
            .unwrap();
        let seed = base.layering.repaired(&edited);
        let run = AcoLayering::new(small_params())
            .run_seeded(&edited, &wm, &seed)
            .unwrap();
        run.layering.validate(&edited).unwrap();
        assert!(run.seeded);
        assert!(
            run.tours_to_match_seed.is_some_and(|t| t <= 2),
            "warm colony should match its incumbent within 3 tours, got {:?}",
            run.tours_to_match_seed
        );
    }

    #[test]
    fn warm_run_hands_back_budget_once_the_seed_holds_up() {
        // A chain DAG: LPL is optimal, so a converged seed cannot be
        // beaten — the first full tour lands on the incumbent's plateau
        // and the run stops instead of spending all n_tours confirming
        // it (the ROADMAP's early-stop follow-on to warm starts).
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(10, &edges).unwrap();
        let wm = WidthModel::unit();
        let seed_run = AcoLayering::new(small_params()).run(&dag, &wm);
        let run = AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &seed_run.layering)
            .unwrap();
        assert!(
            run.matched_seed_early,
            "the seed plateau should stop the run"
        );
        assert!(!run.stopped_early, "early match is not a deadline stop");
        assert!(run.tours.len() < small_params().n_tours);
        assert!(run.objective >= seed_run.objective - 1e-12);
        run.layering.validate(&dag).unwrap();

        // With the rule off, every tour runs and the flag stays unset.
        let patient = AcoParams {
            warm_early_stop: false,
            ..small_params()
        };
        let full = AcoLayering::new(patient.clone())
            .run_seeded(&dag, &wm, &seed_run.layering)
            .unwrap();
        assert!(!full.matched_seed_early);
        assert_eq!(full.tours.len(), patient.n_tours);
    }

    #[test]
    fn cold_runs_never_match_seed_early() {
        let mut rng = StdRng::seed_from_u64(45);
        let dag = generate::random_dag_with_edges(20, 30, &mut rng);
        let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        assert!(!run.matched_seed_early, "early stop is a warm-run rule");
        assert_eq!(run.tours.len(), small_params().n_tours);
    }

    #[test]
    fn invalid_seed_is_rejected() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let wm = WidthModel::unit();
        let bad = Layering::from_slice(&[1, 2, 3]); // points upwards
        let err = AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &bad)
            .unwrap_err();
        assert!(err.contains("seed layering rejected"), "{err}");
        let short = Layering::from_slice(&[2, 1]);
        assert!(AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &short)
            .is_err());
    }

    #[test]
    fn seeded_flag_and_match_tracking_on_cold_runs() {
        let mut rng = StdRng::seed_from_u64(43);
        let dag = generate::gnp_dag(20, 0.15, &mut rng);
        let run = AcoLayering::new(small_params()).run(&dag, &WidthModel::unit());
        assert!(!run.seeded);
        // Cold runs track the stretched-LPL incumbent: some tour reaches
        // it (the colony never finishes below its seed on these graphs).
        assert!(run.tours_to_match_seed.is_some());
    }

    #[test]
    fn seeded_run_with_zero_budget_returns_the_seed() {
        // Anytime + warm start: an expired deadline must hand back (at
        // least) the installed incumbent, not the LPL state.
        let mut rng = StdRng::seed_from_u64(44);
        let dag = generate::random_dag_with_edges(20, 30, &mut rng);
        let wm = WidthModel::unit();
        let seed_run = AcoLayering::new(small_params()).run(&dag, &wm);
        let colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let run = colony
            .run_seeded_until(&seed_run.layering, Some(Instant::now()))
            .unwrap();
        assert!(run.stopped_early);
        assert!(run.seeded);
        assert_eq!(run.layering, seed_run.layering);
    }

    #[test]
    fn seeded_run_survives_target_layers_below_seed_height() {
        // With an explicit `target_layers` smaller than the seed's
        // height, `install_seed` stores an incumbent whose width and
        // occupancy tables are sized for more layers than the base's;
        // the first tour that beats it must re-seed `best` across the
        // dimension mismatch (regression: `copy_from` used to panic on
        // the differing buffer lengths).
        let dag = Dag::from_edges(12, &[]).unwrap();
        let wm = WidthModel::unit();
        let seed = Layering::from_slice(&[12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        let params = AcoParams {
            target_layers: Some(3),
            ..small_params()
        };
        let run = AcoLayering::new(params)
            .run_seeded(&dag, &wm, &seed)
            .unwrap();
        run.layering.validate(&dag).unwrap();
        assert!(run.seeded);
        // Spreading 12 vertices over 3 layers beats the 12-layer chain.
        assert!(run.metrics.height <= 3);
    }

    #[test]
    fn seeded_empty_graph_is_well_defined() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let wm = WidthModel::unit();
        let run = AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &Layering::from_slice(&[]))
            .unwrap();
        assert!(run.seeded);
        assert!(run.layering.is_empty());
    }

    #[test]
    fn seeded_run_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(45);
        let dag = generate::random_dag_with_edges(22, 33, &mut rng);
        let wm = WidthModel::unit();
        let seed_run = AcoLayering::new(small_params()).run(&dag, &wm);
        let a = AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &seed_run.layering)
            .unwrap();
        let b = AcoLayering::new(small_params())
            .run_seeded(&dag, &wm, &seed_run.layering)
            .unwrap();
        assert_eq!(a.layering, b.layering);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.tours_to_match_seed, b.tours_to_match_seed);
    }

    #[test]
    fn pheromone_accumulates_on_best_couplings() {
        let mut rng = StdRng::seed_from_u64(7);
        let dag = generate::gnp_dag(12, 0.2, &mut rng);
        let wm = WidthModel::unit();
        let mut colony = Colony::new(&dag, &wm, small_params()).unwrap();
        let before = colony.tau.total();
        let stats = colony.perform_tour(0, None).expect("unbounded tour");
        // After evaporation + deposit the trail on the best ant's couplings
        // exceeds the evaporated baseline.
        let tau0_evap = colony.params.tau0 * (1.0 - colony.params.rho);
        let mut boosted = 0;
        for v in dag.nodes() {
            if colony.tau.get(v, colony.base.layer[v.index()]) > tau0_evap + 1e-15 {
                boosted += 1;
            }
        }
        assert_eq!(boosted, dag.node_count());
        assert!(stats.best_objective > 0.0);
        assert!(
            colony.tau.total() < before,
            "evaporation dominates one deposit"
        );
    }
}
