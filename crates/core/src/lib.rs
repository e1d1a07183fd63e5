//! # antlayer-aco
//!
//! The paper's contribution: an **Ant Colony Optimization layering
//! algorithm** for directed acyclic graphs (Andreev, Healy & Nikolov,
//! *Applying Ant Colony Optimization Metaheuristic to the DAG Layering
//! Problem*, IPPS 2007).
//!
//! The algorithm minimizes a combination of layering height and width
//! **including the contribution of dummy vertices**, which classic layering
//! heuristics ignore:
//!
//! 1. Layer with Longest-Path Layering (minimum height);
//! 2. [Stretch](stretch()) the layering to `|V|` layers, inserting the new
//!    layers *between* the LPL layers so every vertex gains freedom;
//! 3. Run a colony of ants for a number of tours. Each ant re-assigns every
//!    vertex (random order) to the layer of its span maximizing
//!    `τ^α · η^β` where `η = 1/W(layer)`; moves update layer widths
//!    incrementally (Algorithm 5 of the paper);
//! 4. Per tour: pheromone evaporation, deposit by the tour-best ant and
//!    inheritance of its layering as the next tour's base;
//! 5. Normalize the best layering (drop empty layers).
//!
//! Extensions beyond the paper's defaults, each behind a parameter:
//! BFS/topological visit orders ([`VisitOrder`]), roulette layer selection
//! ([`SelectionRule`]), rank-based deposits and MAX–MIN trail bounds
//! ([`DepositStrategy`], [`AcoParams::tau_bounds`]), the alternative
//! vertex-order pheromone model of §IV-D ([`OrderAcoLayering`]), and the
//! §VIII [`tuning`] sweeps.
//!
//! The walk loop is the repo's hottest code and performs **zero heap
//! allocations per walk** after colony warm-up: neighbor scans go
//! through a [CSR view](antlayer_graph::CsrView), all per-walk buffers
//! live in a reusable [`WalkScratch`], per-ant states are persistent
//! slots re-seeded with [`SearchState::copy_from`], and ants are scored
//! by the flat-scan [`SearchState::incremental_objective`]. The
//! pre-refactor path is preserved in [`mod@reference`] as the benchmark
//! comparator (see `docs/ARCHITECTURE.md`, "Hot path").
//!
//! ```
//! use antlayer_graph::generate;
//! use antlayer_layering::{LayeringAlgorithm, WidthModel};
//! use antlayer_aco::{AcoLayering, AcoParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let dag = generate::random_dag_with_edges(30, 45, &mut rng);
//! let algo = AcoLayering::new(AcoParams::default().with_seed(7));
//! let run = algo.run(&dag, &WidthModel::unit());
//! run.layering.validate(&dag).unwrap();
//! println!("H = {}, W = {}", run.metrics.height, run.metrics.width);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod colony;
mod matrix;
mod order_model;
mod params;
mod portfolio;
pub mod reference;
mod state;
pub mod stretch;
pub mod tuning;
mod walk;

pub use colony::{AcoLayering, Colony, ColonyRun, TourStats, TrajectoryPoint};
pub use matrix::Trails;
pub use order_model::OrderAcoLayering;
pub use params::{AcoParams, DepositStrategy, SelectionRule, StretchStrategy, VisitOrder};
pub use portfolio::Portfolio;
pub use state::{compute_widths, SearchState};
pub use stretch::{stretch, Stretched};
pub use walk::{perform_walk, WalkCtx, WalkResult, WalkScratch};
