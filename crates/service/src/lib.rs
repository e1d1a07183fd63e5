//! # antlayer-service
//!
//! The batch layout-serving subsystem: everything needed to run the
//! colony (and the baseline layering algorithms) as a long-lived server
//! instead of a one-shot process.
//!
//! Interactive diagram tooling lays out the same or near-same graphs
//! over and over under hard latency budgets. This crate turns that
//! workload shape into architecture, in four layers:
//!
//! | layer | module | contents |
//! |---|---|---|
//! | identity | [`digest`] | canonical encoding + 128-bit [`Digest`] of (graph, algorithm, params, width model) |
//! | memory | [`cache`] | sharded LRU [`ShardedCache`] with hit/miss/eviction counters |
//! | durability | [`persist`] | append-only [`SegmentLog`]: checksummed records, replay on boot, snapshot compaction |
//! | compute | [`scheduler`] | [`Scheduler`]: digest dedup, admission control, deadline-bounded fan-out over the worker pool |
//! | protocol | [`protocol`] | the typed codec: v1/v2 envelopes, [`protocol::Request`]/[`protocol::Response`]/[`protocol::ErrorKind`] |
//! | transport | [`transport`], [`server`] | the [`transport::FrontDoor`] server and router share: one epoll loop per process owning every listener (accept, connection cap, shutdown) and framing every connection (line TCP, hand-rolled HTTP/1.1, live); [`Server`] + [`ServerHandle`] |
//! | sessions | [`session`], [`live`] | streaming edit sessions: [`SessionTable`] + [`OutboundQueue`] state, and the live tier on the loop that pushes `session_update` frames |
//! | topology | [`router`] | consistent-hash [`HashRing`] + shard health, shared with the `antlayer-router` crate |
//!
//! Edits are first-class: a `layout_delta` request
//! ([`DeltaRequest`]) carries the digest of a
//! previously served layout plus an edge diff
//! ([`GraphDelta`](antlayer_graph::GraphDelta)); the scheduler applies
//! the diff to the cached base graph, warm-starts the colony from the
//! base layering (repaired onto the edited DAG), and caches the result
//! under the edited request's own canonical digest — so an interactive
//! editing session is a chain of warm, mostly-repair runs instead of
//! cold searches.
//!
//! Deadlines plug into the colony's anytime mode
//! ([`Colony::run_until`](antlayer_aco::Colony::run_until)): when the
//! deadline passes mid-search the best layering so far is returned —
//! valid by construction — and deliberately **not** cached, so impatient
//! callers never degrade what patient callers see.
//!
//! ## Library quickstart
//!
//! ```
//! use antlayer_graph::DiGraph;
//! use antlayer_service::{AlgoSpec, LayoutRequest, Scheduler, SchedulerConfig, Source};
//!
//! let scheduler = Scheduler::new(SchedulerConfig::default());
//! let graph = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
//! let request = LayoutRequest::new(graph, AlgoSpec::parse("aco", 7).unwrap());
//!
//! let first = scheduler.submit(request.clone()).unwrap().wait().unwrap();
//! let second = scheduler.submit(request).unwrap().wait().unwrap();
//! assert_eq!(second.source, Source::CacheHit);
//! assert_eq!(first.result.layering, second.result.layering);
//! ```
//!
//! ## Server quickstart
//!
//! Start `antlayer serve --addr 127.0.0.1:4617` (CLI) or
//! [`Server::bind`](server::Server::bind) + `spawn` (library), then
//! speak newline-delimited JSON:
//!
//! ```text
//! → {"op":"layout","algo":"aco","nodes":4,"edges":[[0,1],[1,2],[2,3]]}
//! ← {"ok":true,"digest":"…","source":"computed","height":4,…}
//! → {"op":"stats"}
//! ← {"ok":true,"cache_hits":0,"computed":1,…}
//! ```
//!
//! When one process's memory is not enough, run several `antlayer serve`
//! shards behind `antlayer route`: the [`router`] module holds the
//! consistent-hash ring and shard-health primitives, the
//! `antlayer-router` crate the TCP front that uses them. Clients speak
//! the exact same protocol to the router. The complete wire reference
//! lives in `docs/PROTOCOL.md`, the design in `docs/ARCHITECTURE.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod digest;
pub mod live;
pub mod persist;
pub mod protocol;
pub mod router;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod transport;

pub use cache::{CacheCounters, ShardedCache};
pub use digest::{request_digest, CanonicalHasher, Digest};
pub use live::LiveTuning;
pub use persist::{ReplayReport, SegmentLog};
pub use protocol::{CacheEntry, Envelope, ErrorKind, LayoutReply, Request, Response, WireError};
pub use router::{HashRing, ShardHealth};
pub use scheduler::{
    AlgoSpec, DeltaRequest, LayoutRequest, LayoutResponse, LayoutResult, Scheduler,
    SchedulerConfig, SchedulerCounters, ServiceError, Source, Ticket,
};
pub use server::{Server, ServerConfig, ServerHandle, ServiceCore, SLOW_LOG_CAPACITY};
pub use session::{OutboundQueue, SessionMetrics, SessionTable};
pub use transport::Handler;
