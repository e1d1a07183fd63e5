//! # antlayer-layering
//!
//! The DAG-layering domain for the `antlayer` project: the [`Layering`]
//! type with its validity rules, the quality metrics of the IPPS 2007
//! evaluation (width with dummy-vertex accounting, height, dummy count,
//! edge density), proper-layering expansion, and the classic layering
//! algorithms the paper benchmarks against:
//!
//! * [`LongestPath`] — Longest-Path Layering (Algorithm 1), minimum height;
//! * [`MinWidth`] — the Nikolov–Tarassov–Branke width-bounded heuristic
//!   (Algorithm 2);
//! * [`Promote`] — the Promote Layering (PL) dummy-reduction post-pass,
//!   combinable with any base algorithm via [`Refined`];
//! * [`CoffmanGraham`] — the classic width-bounded layering (extension);
//! * [`Exact`] — a size-capped branch and bound that certifies optimality.
//!
//! All of them implement the one [`LayeringAlgorithm`] trait: `layer`
//! returns a layering, and the anytime `solve` returns a [`Solution`]
//! (layering, cost `H + W`, and whether a deadline truncated it).
//!
//! Geometry convention (paper §II): layers are numbered `1..=h`, every edge
//! `(u, v)` satisfies `layer(u) > layer(v)`, sinks sit on layer 1.
//!
//! ```
//! use antlayer_graph::Dag;
//! use antlayer_layering::{LayeringAlgorithm, LayeringMetrics, LongestPath, WidthModel};
//!
//! let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! let layering = LongestPath.layer(&dag, &WidthModel::unit());
//! let m = LayeringMetrics::compute(&dag, &layering, &WidthModel::unit());
//! assert_eq!(m.height, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algo;
mod coffman_graham;
pub mod exact;
mod layering;
mod lpl;
pub mod metrics;
mod minwidth;
mod network_simplex;
mod promote;
mod proper;
pub mod solver;
mod width;

pub use algo::{LayeringAlgorithm, LayeringRefinement, Refined};
pub use coffman_graham::CoffmanGraham;
pub use layering::{Layering, LayeringError};
pub use lpl::{longest_path_setwise, LongestPath};
pub use metrics::LayeringMetrics;
pub use minwidth::MinWidth;
pub use network_simplex::NetworkSimplex;
pub use promote::Promote;
pub use proper::{NodeKind, ProperLayering};
pub use solver::{solution_cost, Exact, MemberStats, RaceReport, Solution};
pub use width::WidthModel;
