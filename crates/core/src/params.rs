//! Parameters of the ACO layering algorithm.

/// Where the stretch phase inserts the extra layers (paper §V-A).
///
/// The paper argues for [`Between`](StretchStrategy::Between) (its Fig. 2):
/// inserting uniformly between the LPL layers enlarges *every* vertex's
/// layer span, whereas stacking new layers above/below (Fig. 1) only helps
/// sources and sinks. The other strategies are kept for the ablation bench.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StretchStrategy {
    /// Insert the new layers uniformly into the gaps between LPL layers
    /// (Fig. 2; the paper's choice).
    #[default]
    Between,
    /// Stack all new layers above the LPL layers (first variant of Fig. 1).
    Above,
    /// Stack all new layers below the LPL layers (second variant of Fig. 1).
    Below,
    /// Half above, half below (the compromise variant of Fig. 1).
    Split,
}

impl StretchStrategy {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StretchStrategy::Between => "between",
            StretchStrategy::Above => "above",
            StretchStrategy::Below => "below",
            StretchStrategy::Split => "split",
        }
    }
}

/// How an ant turns the random-proportional-rule values into a layer choice.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SelectionRule {
    /// Pick the layer with the highest probability (the paper's Alg. 4
    /// line 6 takes the max).
    #[default]
    ArgMax,
    /// Classic ACO roulette-wheel sampling proportional to `τ^α · η^β`.
    Roulette,
}

impl SelectionRule {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionRule::ArgMax => "argmax",
            SelectionRule::Roulette => "roulette",
        }
    }
}

/// The order in which an ant visits the vertices during its walk.
///
/// The paper (§IV-D) uses a random order and explicitly lists
/// *"Breadth First Search or other similar techniques which provide a
/// linear order"* as alternatives; all three are implemented so the choice
/// can be ablated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VisitOrder {
    /// A fresh uniformly random permutation per walk (the paper's choice).
    #[default]
    Random,
    /// Breadth-first from a random source vertex, unreached vertices
    /// appended in shuffled order.
    Bfs,
    /// The DAG's topological order, randomly reversed per walk.
    Topological,
}

impl VisitOrder {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            VisitOrder::Random => "random",
            VisitOrder::Bfs => "bfs",
            VisitOrder::Topological => "topo",
        }
    }
}

/// Which ants deposit pheromone at the end of a tour.
///
/// The paper's Alg. 4 has the tour-best ant deposit (`TourBest`); the ACO
/// literature's rank-based Ant System (Bullnheimer et al.) and the
/// MAX–MIN-style trail limits are provided as extensions.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum DepositStrategy {
    /// Only the tour's best ant deposits (the paper's rule).
    #[default]
    TourBest,
    /// The `k` best ants deposit with linearly decreasing weight
    /// (rank `r` gets weight `(k − r) / k`).
    RankBased(usize),
}

impl DepositStrategy {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DepositStrategy::TourBest => "tour-best",
            DepositStrategy::RankBased(_) => "rank-based",
        }
    }
}

/// All tunables of the colony.
///
/// Defaults follow the paper where it is explicit (`n_tours = 10`,
/// `α = 1`, `β = 3` — its adopted production values from §VIII) and
/// Dorigo–Stützle conventions elsewhere (see DESIGN.md §4 for the
/// documented inferences).
#[derive(Clone, PartialEq, Debug)]
pub struct AcoParams {
    /// Number of ants per tour.
    pub n_ants: usize,
    /// Number of tours (the paper used 10).
    pub n_tours: usize,
    /// Pheromone influence exponent α.
    pub alpha: f64,
    /// Heuristic influence exponent β.
    pub beta: f64,
    /// Evaporation rate ρ ∈ [0, 1] applied at every tour end.
    pub rho: f64,
    /// Initial pheromone value τ₀.
    pub tau0: f64,
    /// Deposit scale: the tour-best ant adds `deposit_q · f(best)` to each
    /// of its couplings.
    pub deposit_q: f64,
    /// Master RNG seed; every (tour, ant) pair derives its own stream, so
    /// runs are reproducible for any thread count.
    pub seed: u64,
    /// Stretch strategy for the initial search space.
    pub stretch: StretchStrategy,
    /// Layer-choice rule.
    pub selection: SelectionRule,
    /// Vertex visit order within a walk.
    pub visit_order: VisitOrder,
    /// Pheromone deposit strategy at tour end.
    pub deposit: DepositStrategy,
    /// Optional MAX–MIN-style pheromone bounds `(τ_min, τ_max)`; trails are
    /// clamped into this range after every evaporation/deposit step.
    pub tau_bounds: Option<(f64, f64)>,
    /// Worker threads for the ants of a tour (`0` = use all available).
    pub threads: usize,
    /// Total layers after stretching; `None` means `|V|`, the paper's choice
    /// that guarantees minimum-width layerings stay in the search space.
    pub target_layers: Option<usize>,
    /// Width floor used when converting a layer width into the heuristic
    /// value `η = 1 / max(W, floor)`, protecting against empty stretched
    /// layers of width zero (DESIGN.md §4). `None` derives the floor from
    /// the dummy width.
    pub eta_floor: Option<f64>,
    /// Early-stop rule for warm-started runs (`Colony::run_seeded`):
    /// once a *full* tour re-derives the installed incumbent's quality
    /// without the run ever having beaten it, the remaining tours are
    /// skipped and the incumbent is returned
    /// ([`ColonyRun::matched_seed_early`](crate::ColonyRun::matched_seed_early)).
    /// The plateau signal is deadline-aware by construction: tours
    /// interrupted by a deadline never trigger it (they report
    /// `stopped_early` instead), and a tour that *beats* the incumbent
    /// keeps the search running — only confirmed "the seed already holds
    /// up" runs hand their budget back. Cold runs are unaffected. This
    /// is quality-of-service, not identity: it is excluded from the
    /// serving layer's cache digest.
    pub warm_early_stop: bool,
    /// Maximum points of the convergence trajectory a run records
    /// ([`ColonyRun::trajectory`](crate::ColonyRun)): the seed state plus
    /// one point per incumbent improvement, capped here so telemetry
    /// cost stays bounded on long runs. `0` disables recording entirely.
    /// Pure observability, not identity: like the warm early stop, it is
    /// excluded from the serving layer's cache digest and never changes
    /// which layering a run returns.
    pub trajectory_cap: usize,
}

impl Default for AcoParams {
    fn default() -> Self {
        AcoParams {
            n_ants: 10,
            n_tours: 10,
            alpha: 1.0,
            beta: 3.0,
            rho: 0.5,
            tau0: 1.0,
            deposit_q: 1.0,
            seed: 0x00A5_7C01,
            stretch: StretchStrategy::Between,
            selection: SelectionRule::ArgMax,
            visit_order: VisitOrder::Random,
            deposit: DepositStrategy::TourBest,
            tau_bounds: None,
            threads: 1,
            target_layers: None,
            eta_floor: None,
            warm_early_stop: true,
            trajectory_cap: 64,
        }
    }
}

impl AcoParams {
    /// The defaults (see type-level docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets α and β (chainable).
    pub fn with_alpha_beta(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Sets the RNG seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets colony size and tour count (chainable).
    pub fn with_colony(mut self, n_ants: usize, n_tours: usize) -> Self {
        self.n_ants = n_ants;
        self.n_tours = n_tours;
        self
    }

    /// Sets the worker thread count (chainable; `0` = all available).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the convergence-trajectory point cap (chainable; `0`
    /// disables recording).
    pub fn with_trajectory_cap(mut self, cap: usize) -> Self {
        self.trajectory_cap = cap;
        self
    }

    /// Validates ranges; called by the colony constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ants == 0 {
            return Err("n_ants must be at least 1".into());
        }
        if self.n_tours == 0 {
            return Err("n_tours must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.rho) {
            return Err(format!("rho must be in [0, 1], got {}", self.rho));
        }
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("tau0", self.tau0),
            ("deposit_q", self.deposit_q),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if self.tau0 <= 0.0 {
            return Err("tau0 must be positive".into());
        }
        if let Some(f) = self.eta_floor {
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("eta_floor must be positive and finite, got {f}"));
            }
        }
        if let DepositStrategy::RankBased(k) = self.deposit {
            if k == 0 {
                return Err("rank-based deposit needs k >= 1".into());
            }
        }
        if let Some((lo, hi)) = self.tau_bounds {
            if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi < lo {
                return Err(format!(
                    "tau bounds must satisfy 0 < min <= max, got ({lo}, {hi})"
                ));
            }
        }
        Ok(())
    }

    /// The effective η width floor for a given dummy width.
    pub fn effective_eta_floor(&self, dummy_width: f64) -> f64 {
        match self.eta_floor {
            Some(f) => f,
            // An empty layer is treated as if it held one dummy vertex; a
            // quarter unit guards against nd_width = 0 configurations.
            None => dummy_width.max(0.25),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = AcoParams::default();
        assert_eq!(p.n_tours, 10);
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.beta, 3.0);
        assert_eq!(p.stretch, StretchStrategy::Between);
        assert_eq!(p.selection, SelectionRule::ArgMax);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let p = AcoParams::new()
            .with_alpha_beta(3.0, 5.0)
            .with_seed(9)
            .with_colony(4, 7)
            .with_threads(2);
        assert_eq!((p.alpha, p.beta), (3.0, 5.0));
        assert_eq!(p.seed, 9);
        assert_eq!((p.n_ants, p.n_tours), (4, 7));
        assert_eq!(p.threads, 2);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(AcoParams {
            n_ants: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            n_tours: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            rho: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            alpha: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            tau0: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            eta_floor: Some(0.0),
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn trajectory_cap_builder_and_default() {
        assert_eq!(AcoParams::default().trajectory_cap, 64);
        let p = AcoParams::new().with_trajectory_cap(0);
        assert_eq!(p.trajectory_cap, 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn eta_floor_derivation() {
        let p = AcoParams::default();
        assert_eq!(p.effective_eta_floor(1.0), 1.0);
        assert_eq!(p.effective_eta_floor(0.0), 0.25);
        let explicit = AcoParams {
            eta_floor: Some(0.7),
            ..Default::default()
        };
        assert_eq!(explicit.effective_eta_floor(0.0), 0.7);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StretchStrategy::Between.name(), "between");
        assert_eq!(StretchStrategy::Split.name(), "split");
        assert_eq!(SelectionRule::Roulette.name(), "roulette");
        assert_eq!(VisitOrder::Bfs.name(), "bfs");
        assert_eq!(DepositStrategy::RankBased(3).name(), "rank-based");
    }

    #[test]
    fn extension_params_are_validated() {
        let bad_rank = AcoParams {
            deposit: DepositStrategy::RankBased(0),
            ..Default::default()
        };
        assert!(bad_rank.validate().is_err());
        let bad_bounds = AcoParams {
            tau_bounds: Some((1.0, 0.5)),
            ..Default::default()
        };
        assert!(bad_bounds.validate().is_err());
        let good = AcoParams {
            deposit: DepositStrategy::RankBased(3),
            tau_bounds: Some((0.01, 5.0)),
            visit_order: VisitOrder::Topological,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
    }
}
