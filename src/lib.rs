//! # antlayer
//!
//! A production-quality Rust implementation of **Ant Colony Optimization
//! for the DAG Layering Problem** (Andreev, Healy & Nikolov, IPPS 2007),
//! together with everything needed to use and evaluate it: a graph
//! substrate, the classic layering baselines, the surrounding Sugiyama
//! pipeline, a synthetic benchmark suite, and a deterministic parallel
//! runtime.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `antlayer-graph` | [`DiGraph`](graph::DiGraph), [`Dag`](graph::Dag), topological algorithms, generators, DOT/GML I/O |
//! | [`layering`] | `antlayer-layering` | the one [`LayeringAlgorithm`](layering::LayeringAlgorithm) trait (`layer`, plus the anytime `solve`), [`Layering`](layering::Layering), metrics, [`LongestPath`](layering::LongestPath), [`MinWidth`](layering::MinWidth), [`Promote`](layering::Promote), [`CoffmanGraham`](layering::CoffmanGraham), [`Exact`](layering::Exact) |
//! | [`aco`] | `antlayer-aco` | the paper's [`AcoLayering`](aco::AcoLayering) colony with [`AcoParams`](aco::AcoParams), and the [`Portfolio`](aco::Portfolio) that races every algorithm |
//! | [`sugiyama`] | `antlayer-sugiyama` | cycle removal, crossing minimization, coordinates, SVG/ASCII |
//! | [`datasets`] | `antlayer-datasets` | the 1277-graph AT&T-like [`GraphSuite`](datasets::GraphSuite), report writers |
//! | [`parallel`] | `antlayer-parallel` | deterministic [`par_map`](parallel::par_map), [`WorkerPool`](parallel::WorkerPool) |
//! | [`service`] | `antlayer-service` | batch layout serving: canonical [`Digest`](service::Digest) cache keys, sharded LRU cache, deadline-bounded [`Scheduler`](service::Scheduler), the typed v1/v2 protocol codec, line-TCP + HTTP/1.1 [`Server`](service::Server) |
//! | [`client`] | `antlayer-client` | the typed [`Client`](client::Client): either transport, retry/backoff, `layout_delta` with automatic fallback, batch submit |
//! | [`router`] | `antlayer-router` | horizontal sharding: consistent-hash [`Router`](router::Router) over N `antlayer serve` backends |
//!
//! ## Quickstart
//!
//! ```
//! use antlayer::prelude::*;
//!
//! // A small DAG: edges point from higher to lower layers (sinks at L1).
//! let dag = Dag::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]).unwrap();
//!
//! // The paper's ant colony, with LPL and MinWidth as baselines.
//! let aco = AcoLayering::new(AcoParams::default().with_seed(1));
//! for algo in [&aco as &dyn LayeringAlgorithm, &LongestPath, &MinWidth::new()] {
//!     let layering = algo.layer(&dag, &WidthModel::unit());
//!     let m = LayeringMetrics::compute(&dag, &layering, &WidthModel::unit());
//!     println!("{:>10}: height {} width {}", algo.name(), m.height, m.width);
//! }
//!
//! // The same trait serves the anytime contract: a deadline bounds the
//! // search, and the answer reports its cost H + W and whether the clock
//! // truncated it.
//! let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
//! let s = aco.solve(&dag, &WidthModel::unit(), Some(deadline));
//! assert!(s.layering.validate(&dag).is_ok());
//! println!("cost {} (stopped early: {})", s.cost, s.stopped_early);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use antlayer_aco as aco;
pub use antlayer_client as client;
pub use antlayer_datasets as datasets;
pub use antlayer_graph as graph;
pub use antlayer_layering as layering;
pub use antlayer_parallel as parallel;
pub use antlayer_router as router;
pub use antlayer_service as service;
pub use antlayer_sugiyama as sugiyama;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use antlayer_aco::{AcoLayering, AcoParams, SelectionRule, StretchStrategy};
    pub use antlayer_datasets::{GraphSuite, Table};
    pub use antlayer_graph::{Dag, DiGraph, GraphStats, NodeId};
    pub use antlayer_layering::{
        CoffmanGraham, Layering, LayeringAlgorithm, LayeringMetrics, LongestPath, MinWidth,
        Promote, Refined, WidthModel,
    };
    pub use antlayer_service::{AlgoSpec, LayoutRequest, Scheduler, SchedulerConfig};
    pub use antlayer_sugiyama::{draw, PipelineOptions, SvgOptions};
}
