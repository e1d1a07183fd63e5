//! The batch scheduler: digest-level dedup, admission control, and
//! deadline-bounded fan-out over the worker pool.
//!
//! A submitted [`LayoutRequest`] goes through three gates:
//!
//! 1. **In-flight coalescing** — if an identical request (same
//!    [`Digest`]) is already being computed, the new caller is attached
//!    to the running job instead of queuing a duplicate;
//! 2. **Cache** — a stored result is returned immediately;
//! 3. **Admission control** — if the number of queued-or-running jobs is
//!    at the configured cap the request is rejected with
//!    [`ServiceError::Overloaded`] (callers retry with backoff) rather
//!    than growing an unbounded queue.
//!
//! Jobs run on the crate-shared [`WorkerPool`]; each job computes once
//! and fans the `Arc`ed result out to every attached caller. Requests
//! carry an optional deadline measured from submission: the solver
//! receives it as an absolute instant, and the anytime ones (colony,
//! exact, network simplex, portfolio) return their best so far when the
//! clock runs out. Truncated runs are delivered but **not** cached,
//! and deadline-bounded requests coalesce only with other bounded
//! requests — a deadline must never poison what patient callers see,
//! neither through the cache nor through a shared in-flight job.

use crate::cache::{CacheCounters, ShardedCache};
use crate::digest::{request_digest, Digest};
use antlayer_aco::{AcoLayering, AcoParams, Portfolio};
use antlayer_graph::{DiGraph, GraphDelta};
use antlayer_layering::{
    CoffmanGraham, Exact, Layering, LayeringAlgorithm, LayeringMetrics, LongestPath, MinWidth,
    NetworkSimplex, Promote, RaceReport, Refined, WidthModel,
};
use antlayer_obs::{Counter, Histogram, Registry};
use antlayer_parallel::WorkerPool;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Which layering algorithm a request asks for.
///
/// The string forms accepted by [`AlgoSpec::parse`] match the CLI:
/// `lpl`, `lpl-pl`, `minwidth`, `minwidth-pl`, `cg`, `ns`, `aco`,
/// `exact`, `portfolio`.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgoSpec {
    /// Longest-path layering.
    LongestPath,
    /// Longest-path + promotion refinement.
    LplPromote,
    /// MinWidth heuristic.
    MinWidth,
    /// MinWidth + promotion refinement.
    MinWidthPromote,
    /// Coffman–Graham with the given width bound.
    CoffmanGraham(u32),
    /// Network simplex (minimum total edge span).
    NetworkSimplex,
    /// The paper's ant colony with full parameters.
    Aco(AcoParams),
    /// The size-capped exact branch and bound (certifies optimality).
    Exact,
    /// The solver portfolio: constructive incumbents, size-capped exact
    /// certification, and a warm-started colony raced per request; the
    /// parameters feed the colony member.
    Portfolio(AcoParams),
}

impl AlgoSpec {
    /// Parses a CLI-style algorithm name; `seed` feeds the ACO and
    /// portfolio variants.
    pub fn parse(name: &str, seed: u64) -> Result<AlgoSpec, String> {
        Ok(match name {
            "lpl" => AlgoSpec::LongestPath,
            "lpl-pl" => AlgoSpec::LplPromote,
            "minwidth" => AlgoSpec::MinWidth,
            "minwidth-pl" => AlgoSpec::MinWidthPromote,
            "cg" => AlgoSpec::CoffmanGraham(4),
            "ns" => AlgoSpec::NetworkSimplex,
            "aco" => AlgoSpec::Aco(AcoParams::default().with_seed(seed)),
            "exact" => AlgoSpec::Exact,
            "portfolio" => AlgoSpec::Portfolio(AcoParams::default().with_seed(seed)),
            other => return Err(format!("unknown algorithm '{other}'")),
        })
    }

    /// Canonical name for digests and responses. Parameters that change
    /// the result are part of the name (`cg:4`) or hashed separately
    /// (ACO params).
    pub fn canonical_name(&self) -> String {
        match self {
            AlgoSpec::LongestPath => "lpl".into(),
            AlgoSpec::LplPromote => "lpl-pl".into(),
            AlgoSpec::MinWidth => "minwidth".into(),
            AlgoSpec::MinWidthPromote => "minwidth-pl".into(),
            AlgoSpec::CoffmanGraham(w) => format!("cg:{w}"),
            AlgoSpec::NetworkSimplex => "ns".into(),
            AlgoSpec::Aco(_) => "aco".into(),
            AlgoSpec::Exact => "exact".into(),
            AlgoSpec::Portfolio(_) => "portfolio".into(),
        }
    }

    fn aco_params(&self) -> Option<&AcoParams> {
        match self {
            AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) => Some(p),
            _ => None,
        }
    }

    /// Instantiates the algorithm. The single construction point shared
    /// by the scheduler and the CLI — adding an algorithm means touching
    /// [`AlgoSpec::parse`], [`AlgoSpec::canonical_name`], and this.
    pub fn solver(&self) -> Box<dyn LayeringAlgorithm> {
        match self {
            AlgoSpec::LongestPath => Box::new(LongestPath),
            AlgoSpec::LplPromote => Box::new(Refined::new(LongestPath, Promote::new())),
            AlgoSpec::MinWidth => Box::new(MinWidth::new()),
            AlgoSpec::MinWidthPromote => Box::new(Refined::new(MinWidth::new(), Promote::new())),
            AlgoSpec::CoffmanGraham(w) => Box::new(CoffmanGraham::new(*w as usize)),
            AlgoSpec::NetworkSimplex => Box::new(NetworkSimplex),
            AlgoSpec::Aco(p) => Box::new(AcoLayering::new(p.clone())),
            AlgoSpec::Exact => Box::new(Exact::default()),
            AlgoSpec::Portfolio(p) => Box::new(Portfolio::new(p.clone())),
        }
    }
}

/// One layout request.
#[derive(Clone, Debug)]
pub struct LayoutRequest {
    /// The input graph; cycles are handled by the pipeline's
    /// acyclic-orientation pass.
    pub graph: DiGraph,
    /// Algorithm to run.
    pub algo: AlgoSpec,
    /// Dummy-vertex width of the width model.
    pub nd_width: f64,
    /// Optional wall-clock budget, measured from submission. The colony,
    /// the exact search and the network simplex (`ns`, also as a
    /// portfolio member) stop at it and answer with their incumbent; the
    /// portfolio also checks it between members. The single-pass
    /// constructives (`lpl`, `minwidth`, their `-pl` variants, `cg`)
    /// ignore it and run to completion however long that takes: the
    /// `-pl` variants take seconds at 10⁴ nodes.
    pub deadline: Option<Duration>,
}

impl LayoutRequest {
    /// A request with unit widths, no deadline.
    pub fn new(graph: DiGraph, algo: AlgoSpec) -> Self {
        LayoutRequest {
            graph,
            algo,
            nd_width: 1.0,
            deadline: None,
        }
    }

    /// The request's canonical cache key.
    pub fn digest(&self) -> Digest {
        request_digest(
            &self.graph,
            &self.algo.canonical_name(),
            self.algo.aco_params(),
            &WidthModel::with_dummy_width(self.nd_width),
        )
    }
}

/// An incremental re-layout request: an edge diff against a previously
/// served layout.
///
/// Instead of a graph it carries the canonical digest of the *base*
/// request (returned in every layout response) plus a [`GraphDelta`].
/// The scheduler resolves the base in the result cache, applies the
/// delta, warm-starts the colony from the base layering (repaired onto
/// the edited graph) and caches the result under the edited request's
/// own canonical digest — so a chain of edits stays hot, each response's
/// digest serving as the next edit's base.
///
/// The algorithm/width fields describe the *edited* request (they enter
/// its digest); callers normally repeat the base request's values.
#[derive(Clone, Debug)]
pub struct DeltaRequest {
    /// Digest of the base request whose cached layering seeds the run.
    pub base: Digest,
    /// The edge edit to apply to the base graph.
    pub delta: GraphDelta,
    /// Algorithm to run on the edited graph.
    pub algo: AlgoSpec,
    /// Dummy-vertex width of the width model.
    pub nd_width: f64,
    /// Optional wall-clock budget, measured from submission.
    pub deadline: Option<Duration>,
}

impl DeltaRequest {
    /// A delta request with unit widths, no deadline.
    pub fn new(base: Digest, delta: GraphDelta, algo: AlgoSpec) -> Self {
        DeltaRequest {
            base,
            delta,
            algo,
            nd_width: 1.0,
            deadline: None,
        }
    }
}

/// The immutable, cacheable outcome of one layout computation.
#[derive(Clone, Debug)]
pub struct LayoutResult {
    /// The request digest this result answers.
    pub digest: Digest,
    /// The request's input graph, kept so a later `layout_delta` can
    /// apply an edge diff to this entry and warm-start from
    /// [`layering`](Self::layering) — the cache entry is the whole base
    /// an edit chain builds on.
    pub graph: DiGraph,
    /// The computed layering over the acyclically-oriented graph.
    pub layering: Layering,
    /// Metrics of the layering.
    pub metrics: LayeringMetrics,
    /// The request's node/dummy width ratio — part of the digest
    /// identity, retained so the entry can be re-encoded as a portable
    /// [`CacheEntry`](crate::protocol::CacheEntry) for the segment log
    /// and for replication.
    pub nd_width: f64,
    /// Number of edges reversed to break cycles in the input.
    pub reversed_edges: usize,
    /// Whether a deadline truncated the search (never cached when true).
    pub stopped_early: bool,
    /// Whether the colony was warm-started from a previous layering.
    pub seeded: bool,
    /// Whether the result is certified optimal for the paper's cost
    /// `H + W` (the exact search completed for this graph).
    pub certified: bool,
    /// Per-member race outcome when the solver was the portfolio.
    pub race: Option<RaceReport>,
    /// Wall time of the computation in microseconds.
    pub compute_micros: u64,
    /// How many warm-started edits deep this result is: `0` for a cold
    /// solve (or a restored entry — its provenance is unknown), base
    /// chain + 1 for a warm one. Drives the periodic cold refresh: a
    /// long edit chain inherits its first optimum's basin, so every
    /// [`SchedulerConfig::refresh_every`] links the scheduler re-solves
    /// from scratch too and keeps the better of the two.
    pub chain_len: u32,
    /// Whether this result came from a cold refresh that beat the warm
    /// chain's incumbent (implies `chain_len == 0` on a delta request).
    pub refreshed: bool,
}

impl LayoutResult {
    /// Rough resident size of this entry for the cache byte gauge: the
    /// graph's edge list plus the layering's per-node assignment, with a
    /// small fixed overhead. An estimator, not an exact measurement —
    /// the gauge exists to spot runaway growth, not to bill memory.
    pub fn approx_bytes(&self) -> u64 {
        64 + self.graph.node_count() as u64 * 12 + self.graph.edge_count() as u64 * 16
    }
}

/// How a response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Served from the result cache without computing.
    CacheHit,
    /// Computed by the job this caller submitted.
    Computed,
    /// Computed warm-started from a cached base layering
    /// (`layout_delta`).
    Warm,
    /// Attached to an identical in-flight job another caller submitted.
    Coalesced,
}

impl Source {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Source::CacheHit => "hit",
            Source::Computed => "computed",
            Source::Warm => "warm",
            Source::Coalesced => "coalesced",
        }
    }
}

/// A completed response: the shared result plus per-request provenance.
#[derive(Clone, Debug)]
pub struct LayoutResponse {
    /// The (possibly shared) result.
    pub result: Arc<LayoutResult>,
    /// Where the result came from.
    pub source: Source,
    /// Microseconds the job spent queued before a worker picked it up
    /// (`0` for cache hits, which never queue). Coalesced callers see
    /// the computing job's queue wait — they shared its queue.
    pub queue_us: u64,
}

/// Why a request was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The scheduler's queue-depth cap is reached; retry with backoff.
    Overloaded {
        /// Jobs queued or running at rejection time.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A `layout_delta` referenced a base digest that is not (or no
    /// longer) in the cache; the client should resubmit a full layout.
    BaseNotFound(Digest),
    /// The request is malformed (bad algorithm, width, or parameters).
    InvalidRequest(String),
    /// The request's graph shape is invalid: self-loops, duplicate
    /// edges, endpoints out of range, or a delta that does not apply to
    /// its base. The same structured kind whether the graph arrived
    /// inline (`layout`) or as an edge diff (`layout_delta`).
    InvalidGraph(String),
    /// The computing job disappeared (its worker panicked).
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { depth, cap } => {
                write!(f, "overloaded: {depth} jobs in flight (cap {cap})")
            }
            ServiceError::BaseNotFound(digest) => {
                write!(
                    f,
                    "base not found: {digest} is not cached; resubmit a full layout"
                )
            }
            ServiceError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServiceError::InvalidGraph(m) => write!(f, "invalid graph: {m}"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Worker threads computing layouts (`0` = all available
    /// parallelism, with a sanity cap of 64).
    pub threads: usize,
    /// Maximum queued-or-running jobs before admission rejects.
    pub max_queue_depth: usize,
    /// Total cached results.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Soft byte budget for the result cache: crossing it logs one
    /// warning (re-armed once usage drops back under) and raises no
    /// error — the entry-count capacity stays the only eviction driver.
    /// `None` disables the warning.
    pub cache_byte_budget: Option<u64>,
    /// Directory for the cache's segment log (`--cache-dir`): cacheable
    /// results are appended as they are computed, boot replays the
    /// segments back into the cache, and compaction keeps the on-disk
    /// footprint proportional to the live set. `None` (the default)
    /// keeps the cache memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Cold-refresh period for warm-started edit chains: every
    /// `refresh_every`-th link additionally re-solves from scratch under
    /// the same deadline and keeps whichever layering costs less,
    /// resetting the chain when the cold solve wins. Long-lived edit
    /// sessions otherwise never leave the first solve's basin. `0`
    /// disables the refresh.
    pub refresh_every: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 0,
            max_queue_depth: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            cache_byte_budget: None,
            cache_dir: None,
            refresh_every: 32,
        }
    }
}

#[derive(Default)]
struct SchedulerStats {
    served: AtomicU64,
    computed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time copy of scheduler + cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerCounters {
    /// Responses delivered (any source).
    pub served: u64,
    /// Jobs actually computed.
    pub computed: u64,
    /// Requests attached to an in-flight job.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Jobs queued or running right now.
    pub inflight: usize,
    /// Warm edit-chain links that also ran a cold re-solve and kept the
    /// cold result (it cost less than the warm incumbent).
    pub cold_refresh: u64,
    /// Cold misses in a `submit_batch` that reused another batch
    /// member's canonical digest instead of re-canonicalizing.
    pub batch_shared: u64,
    /// Cache behaviour.
    pub cache: CacheCounters,
}

type Waiters = Vec<(mpsc::Sender<LayoutResponse>, Source)>;

/// In-flight key: the request digest plus its deadline class (`true` =
/// deadline-bounded). Bounded and unbounded requests never share a job,
/// so truncated results cannot leak to callers that did not opt in.
type InflightKey = (u128, bool);

/// The batch layout scheduler. Cheap to share: all state is behind
/// `Arc`s; clone-free sharing via `&Scheduler` is the intended use.
pub struct Scheduler {
    cfg: SchedulerConfig,
    pool: WorkerPool,
    cache: Arc<ShardedCache<Arc<LayoutResult>>>,
    inflight: Arc<Mutex<HashMap<InflightKey, Waiters>>>,
    depth: Arc<AtomicUsize>,
    stats: Arc<SchedulerStats>,
    metrics: Arc<Registry>,
    queue_wait_us: Arc<Histogram>,
    compute_us: Arc<Histogram>,
    colony_stopped_early: Arc<Counter>,
    colony_seeded: Arc<Counter>,
    solver_certified: Arc<Counter>,
    /// Entries restored into the cache without computing: segment-log
    /// replay at boot plus installed `cache_put` replicas.
    cache_restored: Arc<Counter>,
    /// Warm edit-chain links where the periodic cold re-solve won.
    cold_refresh: Arc<Counter>,
    /// Batch cold misses that shared another member's digest work.
    batch_shared: Arc<Counter>,
    /// The cache's segment log when `cache_dir` is configured.
    persist: Option<Arc<crate::persist::SegmentLog>>,
    /// Latch for the byte-budget warning: set while over budget so the
    /// warning fires once per crossing, re-armed when usage drops back.
    bytes_warned: Arc<AtomicBool>,
}

/// A claim on a submitted request; [`Ticket::wait`] blocks for the
/// response.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    Ready(LayoutResponse),
    Pending(mpsc::Receiver<LayoutResponse>),
}

impl Ticket {
    /// Blocks until the response is available.
    pub fn wait(self) -> Result<LayoutResponse, ServiceError> {
        match self.inner {
            TicketInner::Ready(r) => Ok(r),
            TicketInner::Pending(rx) => rx
                .recv()
                .map_err(|_| ServiceError::Internal("layout worker vanished".into())),
        }
    }
}

impl Scheduler {
    /// Builds the scheduler, its worker pool, its cache, and the metric
    /// registry every layer above shares (the server adds its own
    /// request histogram to the same registry so `GET /metrics` renders
    /// one coherent page).
    pub fn new(cfg: SchedulerConfig) -> Self {
        let threads = if cfg.threads == 0 {
            antlayer_parallel::default_threads(64)
        } else {
            cfg.threads
        };
        let cache = Arc::new(ShardedCache::new(cfg.cache_capacity, cfg.cache_shards));
        let depth = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(SchedulerStats::default());
        let metrics = Arc::new(Registry::new());

        // The scheduler and cache already maintain their counters as
        // atomics; expose them as render-time collectors so the hot path
        // pays nothing for /metrics. Only genuinely new measurements
        // (latency histograms, colony outcome counters) get handles.
        let queue_wait_us = metrics.histogram(
            "scheduler_queue_wait_us",
            "microseconds a job waited in the queue before a worker picked it up",
        );
        let compute_us = metrics.histogram(
            "scheduler_compute_us",
            "microseconds a layout computation ran on a worker",
        );
        let colony_stopped_early = metrics.counter(
            "colony_stopped_early_total",
            "layout results truncated by a deadline (colony, exact, ns, portfolio)",
        );
        let colony_seeded = metrics.counter(
            "colony_seeded_total",
            "ACO runs warm-started from a cached base layering",
        );
        let solver_certified = metrics.counter(
            "solver_certified_total",
            "layout results certified optimal by the exact search",
        );
        let cache_restored = metrics.counter(
            "cache_restored_total",
            "cache entries filled without computing: segment-log replay and cache_put installs",
        );
        let cold_refresh = metrics.counter(
            "cold_refresh_total",
            "warm edit-chain links where the periodic cold re-solve beat the warm incumbent",
        );
        let batch_shared = metrics.counter(
            "batch_shared_total",
            "batch cold misses that reused another member's canonical digest",
        );
        {
            let s = stats.clone();
            metrics.counter_fn("scheduler_served_total", "responses delivered", move || {
                s.served.load(Ordering::Relaxed)
            });
            let s = stats.clone();
            metrics.counter_fn("scheduler_computed_total", "jobs computed", move || {
                s.computed.load(Ordering::Relaxed)
            });
            let s = stats.clone();
            metrics.counter_fn(
                "scheduler_coalesced_total",
                "requests attached to an in-flight job",
                move || s.coalesced.load(Ordering::Relaxed),
            );
            let s = stats.clone();
            metrics.counter_fn(
                "scheduler_rejected_total",
                "requests rejected by admission control",
                move || s.rejected.load(Ordering::Relaxed),
            );
            let d = depth.clone();
            metrics.gauge_fn("scheduler_inflight", "jobs queued or running", move || {
                d.load(Ordering::Relaxed) as u64
            });
            let c = cache.clone();
            metrics.counter_fn("cache_hits_total", "result cache hits", move || {
                c.counters().hits
            });
            let c = cache.clone();
            metrics.counter_fn("cache_misses_total", "result cache misses", move || {
                c.counters().misses
            });
            let c = cache.clone();
            metrics.counter_fn(
                "cache_insertions_total",
                "result cache insertions",
                move || c.counters().insertions,
            );
            let c = cache.clone();
            metrics.counter_fn(
                "cache_evictions_total",
                "result cache evictions",
                move || c.counters().evictions,
            );
            let c = cache.clone();
            metrics.gauge_fn(
                "cache_bytes",
                "approximate bytes held by the result cache",
                move || c.bytes(),
            );
            let c = cache.clone();
            metrics.gauge_fn("cache_entries", "entries in the result cache", move || {
                c.len() as u64
            });
        }

        // Replay the segment log (if any) before the scheduler serves:
        // restored entries go through the same `insert_costed` +
        // `approx_bytes` path organic inserts use, so `cache_bytes` and
        // the byte budget see one consistent accounting.
        let bytes_warned = Arc::new(AtomicBool::new(false));
        let persist = cfg.cache_dir.as_deref().and_then(|dir| {
            let log = match crate::persist::SegmentLog::open(dir) {
                Ok(log) => Arc::new(log),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open cache dir {}: {e}; persistence disabled",
                        dir.display()
                    );
                    return None;
                }
            };
            match log.replay() {
                Ok((entries, report)) => {
                    if report.damaged {
                        eprintln!(
                            "warning: cache segments in {} end in a torn or corrupt record; \
                             restored the {} entries before the damage",
                            dir.display(),
                            report.entries
                        );
                    }
                    for entry in &entries {
                        match crate::persist::restore_result(entry) {
                            Ok(result) => {
                                let bytes = result.approx_bytes();
                                cache.insert_costed(entry.digest, Arc::new(result), bytes);
                                cache_restored.inc();
                            }
                            Err(e) => {
                                eprintln!("warning: skipping cache record {}: {e}", entry.digest)
                            }
                        }
                    }
                    if let Some(budget) = cfg.cache_byte_budget {
                        warn_if_over_budget(cache.bytes(), budget, &bytes_warned);
                    }
                }
                Err(e) => eprintln!(
                    "warning: cannot replay cache segments in {}: {e}; starting cold",
                    dir.display()
                ),
            }
            Some(log)
        });

        Scheduler {
            pool: WorkerPool::new(threads),
            cache,
            inflight: Arc::new(Mutex::new(HashMap::new())),
            depth,
            stats,
            metrics,
            queue_wait_us,
            compute_us,
            colony_stopped_early,
            colony_seeded,
            solver_certified,
            cache_restored,
            cold_refresh,
            batch_shared,
            persist,
            bytes_warned,
            cfg,
        }
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The metric registry this scheduler (and its cache) report into.
    /// The server layer registers its request histogram here and renders
    /// the whole registry for `GET /metrics`.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Validates, dedups, admits, and enqueues one request.
    ///
    /// # Examples
    ///
    /// ```
    /// use antlayer_graph::DiGraph;
    /// use antlayer_service::{AlgoSpec, LayoutRequest, Scheduler, SchedulerConfig, Source};
    ///
    /// let scheduler = Scheduler::new(SchedulerConfig::default());
    /// let graph = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// let request = LayoutRequest::new(graph, AlgoSpec::parse("lpl", 1).unwrap());
    ///
    /// let first = scheduler.submit(request.clone()).unwrap().wait().unwrap();
    /// assert_eq!(first.source, Source::Computed);
    /// let second = scheduler.submit(request).unwrap().wait().unwrap();
    /// assert_eq!(second.source, Source::CacheHit); // same digest, no recompute
    /// ```
    pub fn submit(&self, request: LayoutRequest) -> Result<Ticket, ServiceError> {
        validate_request(&request)?;
        let digest = request.digest();
        self.submit_inner(request, None, digest)
    }

    /// Submits an incremental re-layout: resolves the base layering in
    /// the cache, applies the edge diff, and warm-starts the colony.
    ///
    /// Fails with [`ServiceError::BaseNotFound`] when the base digest has
    /// been evicted (or never existed) — the client's cue to fall back to
    /// a full `layout` — and with [`ServiceError::InvalidRequest`] when
    /// the delta does not apply to the base graph. The result is cached
    /// under the *edited* request's canonical digest, so a subsequent
    /// identical full request hits, and a subsequent edit can chain.
    pub fn submit_delta(&self, request: DeltaRequest) -> Result<Ticket, ServiceError> {
        // `peek`, not `get`: the base resolution keeps the entry hot but
        // is not a response served from the cache, so it must not count
        // as a hit in the stats clients use to size the cache.
        let base = self
            .cache
            .peek(request.base)
            .ok_or(ServiceError::BaseNotFound(request.base))?;
        // Graph-shape failures (self-loops, duplicates, out-of-range
        // endpoints, missing removals) get the same structured kind a bad
        // inline `layout` graph gets from the parser.
        let graph = request
            .delta
            .apply(&base.graph)
            .map_err(|e| ServiceError::InvalidGraph(format!("delta: {e}")))?;
        let full = LayoutRequest {
            graph,
            algo: request.algo,
            nd_width: request.nd_width,
            deadline: request.deadline,
        };
        validate_request(&full)?;
        let digest = full.digest();
        self.submit_inner(full, Some(base), digest)
    }

    /// `digest` must be `request.digest()` and the request must already
    /// have passed [`validate_request`] (digesting an invalid width model
    /// would panic); every caller validates before hashing, and batch
    /// admission reuses the digest for classification so the graph is
    /// hashed once.
    fn submit_inner(
        &self,
        request: LayoutRequest,
        warm: Option<Arc<LayoutResult>>,
        digest: Digest,
    ) -> Result<Ticket, ServiceError> {
        // Resolve the deadline to an absolute instant up front, before
        // any scheduler state changes: `checked_add` turns an
        // overflow-sized budget (e.g. `Duration::MAX`) into "unbounded"
        // instead of a panic that would wedge the in-flight entry.
        let deadline = request.deadline.and_then(|d| Instant::now().checked_add(d));
        // Jobs coalesce only within their deadline class: a truncated
        // (bounded) result must never reach a caller that did not accept
        // a deadline, and bounded callers should not block behind an
        // unbounded job they did not ask for. The digest excludes the
        // deadline, so the class is a second key component here.
        let bounded = deadline.is_some();
        let key = (digest.as_u128(), bounded);

        // Gate 1+2 under the in-flight lock so a finishing job cannot
        // slip between our cache miss and our entry insertion: jobs fill
        // the cache *before* taking this lock to drain their waiters.
        let mut inflight = self.inflight.lock();
        if let Some(waiters) = inflight.get_mut(&key) {
            let (tx, rx) = mpsc::channel();
            waiters.push((tx, Source::Coalesced));
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            self.stats.served.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket {
                inner: TicketInner::Pending(rx),
            });
        }
        if let Some(result) = self.cache.get(digest) {
            self.stats.served.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket {
                inner: TicketInner::Ready(LayoutResponse {
                    result,
                    source: Source::CacheHit,
                    queue_us: 0,
                }),
            });
        }

        // Gate 3: admission control.
        let depth = self.depth.load(Ordering::Acquire);
        if depth >= self.cfg.max_queue_depth {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                depth,
                cap: self.cfg.max_queue_depth,
            });
        }
        self.depth.fetch_add(1, Ordering::AcqRel);
        let (tx, rx) = mpsc::channel();
        let source = if warm.is_some() {
            Source::Warm
        } else {
            Source::Computed
        };
        inflight.insert(key, vec![(tx, source)]);
        drop(inflight);

        let cache = self.cache.clone();
        let inflight = self.inflight.clone();
        let depth_counter = self.depth.clone();
        let stats = self.stats.clone();
        let queue_wait_us = self.queue_wait_us.clone();
        let compute_us = self.compute_us.clone();
        let colony_stopped_early = self.colony_stopped_early.clone();
        let colony_seeded = self.colony_seeded.clone();
        let solver_certified = self.solver_certified.clone();
        let cold_refresh = self.cold_refresh.clone();
        let bytes_warned = self.bytes_warned.clone();
        let byte_budget = self.cfg.cache_byte_budget;
        let refresh_every = self.cfg.refresh_every;
        let persist = self.persist.clone();
        let enqueued = Instant::now();
        self.pool.execute(move || {
            // The gap between enqueue and this first line is pure queue
            // wait: the pool picked the job up just now.
            let queue_us = enqueued.elapsed().as_micros() as u64;
            queue_wait_us.record(queue_us);
            // Contain panics from the layering algorithms: the entry must
            // leave the in-flight map and the depth must drop no matter
            // what, or the digest wedges and admission leaks permanently.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                compute(request, digest, deadline, warm.as_deref(), refresh_every)
            }));
            let result = match outcome {
                Ok(result) => {
                    let result = Arc::new(result);
                    compute_us.record(result.compute_micros);
                    if result.stopped_early {
                        colony_stopped_early.inc();
                    }
                    if result.seeded {
                        colony_seeded.inc();
                    }
                    if result.certified {
                        solver_certified.inc();
                    }
                    if result.refreshed {
                        cold_refresh.inc();
                    }
                    if !result.stopped_early {
                        cache.insert_costed(digest, result.clone(), result.approx_bytes());
                        if let Some(budget) = byte_budget {
                            warn_if_over_budget(cache.bytes(), budget, &bytes_warned);
                        }
                        if let Some(log) = &persist {
                            persist_insert(log, &cache, &result);
                        }
                    }
                    stats.computed.fetch_add(1, Ordering::Relaxed);
                    Some(result)
                }
                Err(_) => None,
            };
            let waiters = inflight.lock().remove(&key).unwrap_or_default();
            depth_counter.fetch_sub(1, Ordering::AcqRel);
            match result {
                Some(result) => {
                    for (tx, source) in waiters {
                        // A waiter that hung up is not an error.
                        let _ = tx.send(LayoutResponse {
                            result: result.clone(),
                            source,
                            queue_us,
                        });
                    }
                }
                // Dropping the senders makes every Ticket::wait return
                // `Internal("layout worker vanished")`.
                None => drop(waiters),
            }
        });
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket {
            inner: TicketInner::Pending(rx),
        })
    }

    /// Submits a batch; per-request admission (a rejected request does
    /// not poison the rest of the batch). Duplicate digests within the
    /// batch coalesce onto one computation like any other duplicates.
    ///
    /// Admission order is **hits before cold misses**: the batch is first
    /// classified against the cache by digest, every already-cached
    /// request is served (its ticket resolves immediately), and only then
    /// are the cold requests enqueued onto the worker pool. A batch that
    /// mixes one slow cold layout with many cached ones therefore never
    /// queues the cached responses behind the computation, and a
    /// contended admission window is spent entirely on requests that
    /// actually need compute. Tickets are returned in the *original*
    /// batch positions regardless of the admission order.
    pub fn submit_batch(&self, requests: Vec<LayoutRequest>) -> Vec<Result<Ticket, ServiceError>> {
        let n = requests.len();
        let mut out: Vec<Option<Result<Ticket, ServiceError>>> = (0..n).map(|_| None).collect();
        // Digest once per request; reused for classification and submit.
        // Classify with `peek`, not `get`: the pre-pass must not inflate
        // the hit/miss statistics — the authoritative lookup happens
        // inside `submit_inner`, which also handles the race of an entry
        // being evicted (or appearing) between the two steps. Invalid
        // requests are rejected in place and sit out the reorder.
        let mut indexed: Vec<(bool, usize, Digest, LayoutRequest)> = Vec::with_capacity(n);
        // Shared preprocessing across the batch: canonicalizing a digest
        // sorts and hashes the whole edge list, and fan-out batches
        // routinely repeat a request verbatim. Requests that compare
        // equal to an earlier member (same raw edge sequence, algorithm,
        // width, deadline class) reuse its digest instead of
        // re-canonicalizing; the cheap shape key keeps the full
        // comparison off the unique-request path.
        let mut digested: HashMap<(usize, usize, u64), Vec<usize>> = HashMap::new();
        for (i, r) in requests.into_iter().enumerate() {
            match validate_request(&r) {
                Ok(()) => {
                    let shape = (
                        r.graph.node_count(),
                        r.graph.edge_count(),
                        r.nd_width.to_bits(),
                    );
                    let twins = digested.entry(shape).or_default();
                    // The digest excludes the deadline, so deadline-only
                    // differences still share.
                    let prior = twins.iter().copied().find(|&j| {
                        let (_, _, _, p) = &indexed[j];
                        p.algo == r.algo && p.graph.edges().eq(r.graph.edges())
                    });
                    let d = match prior {
                        Some(j) => {
                            self.batch_shared.inc();
                            indexed[j].2
                        }
                        None => r.digest(),
                    };
                    twins.push(indexed.len());
                    indexed.push((self.cache.peek(d).is_none(), i, d, r));
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        // Stable partition: hits first, original order within each class.
        indexed.sort_by_key(|&(miss, i, _, _)| (miss, i));
        for (_, i, digest, request) in indexed {
            out[i] = Some(self.submit_inner(request, None, digest));
        }
        out.into_iter()
            .map(|t| t.expect("every position filled"))
            .collect()
    }

    /// Installs an already-computed entry (the `cache_put` op: a
    /// replication write-through or read-repair) without computing.
    /// Returns `Ok(false)` when the digest is already cached — the put
    /// is idempotent and the resident entry wins. The restored result
    /// is charged through the same `approx_bytes` path as organic
    /// inserts and appended to the segment log like one.
    pub fn install(&self, entry: &crate::protocol::CacheEntry) -> Result<bool, ServiceError> {
        if self.cache.peek(entry.digest).is_some() {
            return Ok(false);
        }
        let result =
            Arc::new(crate::persist::restore_result(entry).map_err(ServiceError::InvalidRequest)?);
        let bytes = result.approx_bytes();
        self.cache
            .insert_costed(entry.digest, result.clone(), bytes);
        self.cache_restored.inc();
        if let Some(budget) = self.cfg.cache_byte_budget {
            warn_if_over_budget(self.cache.bytes(), budget, &self.bytes_warned);
        }
        if let Some(log) = &self.persist {
            persist_insert(log, &self.cache, &result);
        }
        Ok(true)
    }

    /// Entries filled without computing (segment-log replay at boot plus
    /// installed `cache_put`s) — the `cache_restored` stats field.
    pub fn restored(&self) -> u64 {
        self.cache_restored.get()
    }

    /// One page of the cache in ascending digest order — the `cache_pull`
    /// op live resharding iterates. Returns up to `limit` portable
    /// entries with digests strictly above `cursor` (`None` = from the
    /// lowest), the resume cursor, and whether anything remains. The
    /// scan snapshots under the cache's shard locks like compaction
    /// does; entries installed behind the cursor after their page was
    /// served belong to the *next* sweep, which is why transfers finish
    /// with a quiescent pass.
    pub fn export_page(
        &self,
        cursor: Option<Digest>,
        limit: u64,
    ) -> (Vec<crate::protocol::CacheEntry>, Option<Digest>, bool) {
        let floor = cursor.map(|d| d.as_u128());
        let mut live: Vec<(u128, Arc<LayoutResult>)> = Vec::new();
        self.cache.for_each(|digest, result| {
            let key = digest.as_u128();
            if floor.is_none_or(|f| key > f) {
                live.push((key, result.clone()));
            }
        });
        live.sort_unstable_by_key(|&(key, _)| key);
        let remaining = live.len() as u64 > limit;
        live.truncate(limit as usize);
        let entries: Vec<crate::protocol::CacheEntry> = live
            .iter()
            .map(|(_, result)| crate::protocol::CacheEntry::of_result(result))
            .collect();
        let next = entries.last().map(|e| e.digest);
        (entries, next, !remaining)
    }

    /// Forces a segment-log compaction now; production compaction
    /// triggers automatically from log growth, this handle exists for
    /// fault-injection schedules. Returns `false` (doing nothing) when
    /// no `cache_dir` is configured.
    pub fn compact_cache(&self) -> bool {
        match &self.persist {
            Some(log) => {
                compact_segments(log, &self.cache);
                true
            }
            None => false,
        }
    }

    /// Blocks until every queued job has finished.
    pub fn drain(&self) {
        self.pool.wait();
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> SchedulerCounters {
        SchedulerCounters {
            served: self.stats.served.load(Ordering::Relaxed),
            computed: self.stats.computed.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            inflight: self.depth.load(Ordering::Relaxed),
            cold_refresh: self.cold_refresh.get(),
            batch_shared: self.batch_shared.get(),
            cache: self.cache.counters(),
        }
    }
}

/// Appends one freshly cached result to the segment log, compacting
/// first when the log has outgrown the live set. Failures warn and move
/// on: durability is an optimization, serving must not depend on disk.
fn persist_insert(
    log: &crate::persist::SegmentLog,
    cache: &ShardedCache<Arc<LayoutResult>>,
    result: &LayoutResult,
) {
    if log.should_compact(cache.len()) {
        compact_segments(log, cache);
    }
    if let Err(e) = log.append(&crate::protocol::CacheEntry::of_result(result)) {
        eprintln!("warning: cache segment append failed: {e}");
    }
}

/// Rewrites the live cache into the snapshot segment and truncates the
/// log.
fn compact_segments(log: &crate::persist::SegmentLog, cache: &ShardedCache<Arc<LayoutResult>>) {
    let mut live = Vec::with_capacity(cache.len());
    cache.for_each(|_, result| live.push(crate::protocol::CacheEntry::of_result(result)));
    if let Err(e) = log.compact(&live) {
        eprintln!("warning: cache compaction failed: {e}");
    }
}

/// Logs one warning per budget crossing: the latch sets when usage
/// first exceeds the budget and re-arms once it drops back under, so a
/// cache hovering above its budget does not spam a line per insert.
/// Returns whether this call emitted the warning (for tests).
fn warn_if_over_budget(bytes: u64, budget: u64, warned: &AtomicBool) -> bool {
    if bytes > budget {
        if !warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: layout cache holds ~{bytes} bytes, over its {budget}-byte budget; \
                 consider lowering --cache-cap or raising --cache-bytes"
            );
            return true;
        }
    } else {
        warned.store(false, Ordering::Relaxed);
    }
    false
}

/// Rejects malformed requests before anything hashes the graph (the
/// canonical digest builds a [`WidthModel`], which refuses non-finite
/// widths by panicking).
fn validate_request(request: &LayoutRequest) -> Result<(), ServiceError> {
    if !request.nd_width.is_finite() || request.nd_width < 0.0 {
        return Err(ServiceError::InvalidRequest(format!(
            "nd_width must be finite and non-negative, got {}",
            request.nd_width
        )));
    }
    if let AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) = &request.algo {
        p.validate().map_err(ServiceError::InvalidRequest)?;
    }
    Ok(())
}

/// Runs the requested solver under the anytime contract; cycles in the
/// input are oriented away first, exactly as the CLI does. With a `warm`
/// base (the `layout_delta` path), the base layering is repaired onto
/// the edited DAG and handed to [`LayeringAlgorithm::solve_seeded`] — the colony
/// installs it as its incumbent, the portfolio races it as a member, and
/// the single-pass solvers ignore it.
///
/// Every `refresh_every`-th link of a warm chain additionally runs a
/// cold solve under the *same* absolute deadline and keeps whichever
/// layering costs less: a long edit chain stays anchored to its first
/// solve's basin of attraction, and the periodic cold run is the
/// scheduler's only chance to escape it. A cold win resets the chain
/// (and marks the result `refreshed`), so the next refresh is counted
/// from the new basin.
fn compute(
    request: LayoutRequest,
    digest: Digest,
    deadline: Option<Instant>,
    warm: Option<&LayoutResult>,
    refresh_every: u32,
) -> LayoutResult {
    let started = Instant::now();
    let oriented = antlayer_sugiyama::acyclic_orientation(&request.graph);
    let wm = WidthModel::with_dummy_width(request.nd_width);
    let solver = request.algo.solver();
    let (solution, chain_len, refreshed) = match warm {
        Some(base) => {
            let seed = base.layering.repaired(&oriented.dag);
            let warm_solution = solver.solve_seeded(&oriented.dag, &wm, &seed, deadline);
            let link = base.chain_len.saturating_add(1);
            if refresh_every > 0 && link % refresh_every == 0 {
                let cold = solver.solve(&oriented.dag, &wm, deadline);
                if cold.cost < warm_solution.cost {
                    (cold, 0, true)
                } else {
                    (warm_solution, link, false)
                }
            } else {
                (warm_solution, link, false)
            }
        }
        None => (solver.solve(&oriented.dag, &wm, deadline), 0, false),
    };
    let metrics = LayeringMetrics::compute(&oriented.dag, &solution.layering, &wm);
    LayoutResult {
        digest,
        // Moved, not cloned: the request is consumed, so carrying the
        // graph in the result costs nothing extra even for truncated
        // runs that never reach the cache.
        graph: request.graph,
        layering: solution.layering,
        metrics,
        nd_width: request.nd_width,
        reversed_edges: oriented.reversed.len(),
        stopped_early: solution.stopped_early,
        seeded: solution.seeded,
        certified: solution.certified,
        race: solution.race,
        compute_micros: started.elapsed().as_micros() as u64,
        chain_len,
        refreshed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::{generate, GraphDelta};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_graph(seed: u64) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_dag_with_edges(20, 30, &mut rng).into_graph()
    }

    fn quick_aco(seed: u64) -> AlgoSpec {
        AlgoSpec::Aco(AcoParams::default().with_colony(3, 3).with_seed(seed))
    }

    #[test]
    fn computed_then_cached() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let req = LayoutRequest::new(small_graph(1), quick_aco(1));
        let first = s.submit(req.clone()).unwrap().wait().unwrap();
        assert_eq!(first.source, Source::Computed);
        let second = s.submit(req).unwrap().wait().unwrap();
        assert_eq!(second.source, Source::CacheHit);
        assert_eq!(first.result.layering, second.result.layering);
        let c = s.counters();
        assert_eq!(c.computed, 1);
        assert_eq!(c.cache.hits, 1);
    }

    #[test]
    fn export_page_walks_the_cache_in_digest_order() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        for seed in 1..=5 {
            s.submit(LayoutRequest::new(small_graph(seed), quick_aco(1)))
                .unwrap()
                .wait()
                .unwrap();
        }
        // Tiny pages concatenate to the whole cache, strictly ascending.
        let mut seen = Vec::new();
        let mut cursor = None;
        loop {
            let (entries, next, done) = s.export_page(cursor, 2);
            assert!(entries.len() <= 2);
            seen.extend(entries.iter().map(|e| e.digest.as_u128()));
            if done {
                break;
            }
            cursor = next;
            assert!(cursor.is_some(), "an unfinished page must carry a cursor");
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seen, sorted, "pages ascend without overlap");
        assert_eq!(seen.len(), 5);

        // The exported entries replay into a fresh scheduler via install
        // — the exact path a join transfer takes.
        let t = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let (entries, _, done) = s.export_page(None, 1024);
        assert!(done);
        for e in &entries {
            assert!(t.install(e).unwrap());
        }
        assert_eq!(t.restored(), 5);
    }

    #[test]
    fn distinct_requests_compute_separately() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let a = s
            .submit(LayoutRequest::new(small_graph(1), quick_aco(1)))
            .unwrap();
        let b = s
            .submit(LayoutRequest::new(small_graph(2), quick_aco(1)))
            .unwrap();
        let (a, b) = (a.wait().unwrap(), b.wait().unwrap());
        assert_ne!(a.result.digest, b.result.digest);
        assert_eq!(s.counters().computed, 2);
    }

    #[test]
    fn admission_rejects_past_cap() {
        // One slow job + cap 1: the second distinct request is rejected.
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            max_queue_depth: 1,
            ..Default::default()
        });
        let mut slow = LayoutRequest::new(small_graph(3), quick_aco(3));
        slow.algo = AlgoSpec::Aco(AcoParams::default().with_colony(10, 50).with_seed(3));
        let ticket = s.submit(slow).unwrap();
        let other = LayoutRequest::new(small_graph(4), quick_aco(4));
        let mut rejected = false;
        match s.submit(other) {
            Err(ServiceError::Overloaded { cap: 1, .. }) => rejected = true,
            Err(e) => panic!("unexpected error {e}"),
            Ok(t) => {
                // The slow job may already have finished on a fast
                // machine; then admission correctly let this through.
                t.wait().unwrap();
            }
        }
        ticket.wait().unwrap();
        let c = s.counters();
        assert_eq!(c.rejected, u64::from(rejected));
    }

    #[test]
    fn identical_inflight_requests_coalesce() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        // A moderately slow request submitted twice back to back: the
        // second attaches to the first's job.
        let req = LayoutRequest::new(
            small_graph(5),
            AlgoSpec::Aco(AcoParams::default().with_colony(8, 20).with_seed(5)),
        );
        let t1 = s.submit(req.clone()).unwrap();
        let t2 = s.submit(req).unwrap();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert_eq!(r1.result.digest, r2.result.digest);
        let c = s.counters();
        // Either coalesced (normal) or the first finished first and the
        // second hit the cache (fast machine) — never two computations.
        assert_eq!(c.computed, 1);
        assert_eq!(c.coalesced + c.cache.hits, 1);
        assert!(Arc::ptr_eq(&r1.result, &r2.result) || c.cache.hits == 1);
    }

    #[test]
    fn deadline_zero_is_served_but_not_cached() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let mut req = LayoutRequest::new(small_graph(6), quick_aco(6));
        req.deadline = Some(Duration::ZERO);
        let r = s.submit(req.clone()).unwrap().wait().unwrap();
        assert!(r.result.stopped_early);
        assert_eq!(s.cache.len(), 0, "truncated runs must not be cached");
        // The same request again recomputes (no poisoned hit).
        let r2 = s.submit(req).unwrap().wait().unwrap();
        assert_eq!(r2.source, Source::Computed);
    }

    #[test]
    fn duration_max_deadline_means_unbounded_not_panic() {
        // `Duration::MAX` overflows `Instant + Duration`; it must be
        // treated as "no deadline", not wedge the digest with a panic.
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let mut req = LayoutRequest::new(small_graph(30), quick_aco(30));
        req.deadline = Some(Duration::MAX);
        let r = s.submit(req).unwrap().wait().unwrap();
        assert!(!r.result.stopped_early);
        assert_eq!(s.cache.len(), 1, "an unbounded run is cacheable");
    }

    #[test]
    fn bounded_and_unbounded_requests_never_share_a_job() {
        // A deadline-truncated job must not feed a caller that did not
        // opt into a deadline, even when both are in flight together.
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let graph = small_graph(20);
        let mut bounded = LayoutRequest::new(
            graph.clone(),
            AlgoSpec::Aco(AcoParams::default().with_colony(8, 50).with_seed(20)),
        );
        bounded.deadline = Some(Duration::ZERO);
        let unbounded = LayoutRequest {
            deadline: None,
            ..bounded.clone()
        };
        let tb = s.submit(bounded).unwrap();
        let tu = s.submit(unbounded).unwrap();
        let rb = tb.wait().unwrap();
        let ru = tu.wait().unwrap();
        assert!(rb.result.stopped_early, "zero budget must truncate");
        assert!(
            !ru.result.stopped_early,
            "unbounded caller must never receive a truncated result"
        );
        assert_eq!(s.counters().computed, 2, "the classes compute separately");
        assert_eq!(s.counters().coalesced, 0);
    }

    #[test]
    fn delta_request_warm_starts_and_caches_under_new_digest() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let graph = small_graph(11);
        let base = s
            .submit(LayoutRequest::new(graph.clone(), quick_aco(11)))
            .unwrap()
            .wait()
            .unwrap();
        // Remove the first edge of the base graph.
        let (u, v) = graph.edges().next().unwrap();
        let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);
        let req = DeltaRequest::new(base.result.digest, delta.clone(), quick_aco(11));
        let warm = s.submit_delta(req).unwrap().wait().unwrap();
        assert_eq!(warm.source, Source::Warm);
        assert!(warm.result.seeded);
        assert_ne!(warm.result.digest, base.result.digest);

        // The warm result is cached under the edited request's canonical
        // digest: the identical *full* request hits.
        let edited = delta.apply(&graph).unwrap();
        let full = s
            .submit(LayoutRequest::new(edited, quick_aco(11)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(full.source, Source::CacheHit);
        assert_eq!(full.result.digest, warm.result.digest);
        assert!(Arc::ptr_eq(&full.result, &warm.result));
    }

    #[test]
    fn delta_chain_stays_hot() {
        // Each response's digest is the next edit's base.
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let mut graph = small_graph(12);
        let mut prev = s
            .submit(LayoutRequest::new(graph.clone(), quick_aco(12)))
            .unwrap()
            .wait()
            .unwrap();
        for step in 0..3 {
            let (u, v) = graph.edges().nth(step).unwrap();
            let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);
            graph = delta.apply(&graph).unwrap();
            let next = s
                .submit_delta(DeltaRequest::new(prev.result.digest, delta, quick_aco(12)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(next.source, Source::Warm, "edit {step} should warm-start");
            prev = next;
        }
        assert_eq!(s.counters().computed, 4);
    }

    #[test]
    fn warm_chain_counts_links_and_refresh_resets_on_a_cold_win() {
        // refresh_every == 1: every warm link also runs a cold solve.
        // Whichever side wins, the invariants hold: `refreshed` implies
        // the chain reset, a warm win extends it, and the counter
        // matches the number of refreshed results.
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            refresh_every: 1,
            ..Default::default()
        });
        let graph = small_graph(21);
        let base = s
            .submit(LayoutRequest::new(graph.clone(), quick_aco(21)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(base.result.chain_len, 0);
        assert!(!base.result.refreshed);
        let (u, v) = graph.edges().next().unwrap();
        let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);
        let warm = s
            .submit_delta(DeltaRequest::new(base.result.digest, delta, quick_aco(21)))
            .unwrap()
            .wait()
            .unwrap();
        if warm.result.refreshed {
            assert_eq!(warm.result.chain_len, 0, "a cold win resets the chain");
        } else {
            assert_eq!(warm.result.chain_len, 1, "a warm win extends the chain");
        }
        assert_eq!(s.counters().cold_refresh, warm.result.refreshed as u64);
    }

    #[test]
    fn disabled_refresh_lets_the_chain_grow() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            refresh_every: 0,
            ..Default::default()
        });
        let mut graph = small_graph(22);
        let mut prev = s
            .submit(LayoutRequest::new(graph.clone(), quick_aco(22)))
            .unwrap()
            .wait()
            .unwrap();
        for step in 0..3u32 {
            let (u, v) = graph.edges().next().unwrap();
            let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);
            graph = delta.apply(&graph).unwrap();
            prev = s
                .submit_delta(DeltaRequest::new(prev.result.digest, delta, quick_aco(22)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(prev.result.chain_len, step + 1);
            assert!(!prev.result.refreshed);
        }
        assert_eq!(s.counters().cold_refresh, 0);
    }

    #[test]
    fn batch_duplicates_share_one_canonicalization() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let shared = LayoutRequest::new(small_graph(23), quick_aco(23));
        let distinct = LayoutRequest::new(small_graph(24), quick_aco(23));
        let batch = vec![
            shared.clone(),
            distinct.clone(),
            shared.clone(),
            shared.clone(),
        ];
        let responses: Vec<_> = s
            .submit_batch(batch)
            .into_iter()
            .map(|t| t.unwrap().wait().unwrap())
            .collect();
        // The duplicates resolve to the same digest (and result) as the
        // first occurrence without re-canonicalizing.
        assert_eq!(responses[0].result.digest, responses[2].result.digest);
        assert_eq!(responses[0].result.digest, responses[3].result.digest);
        assert_ne!(responses[0].result.digest, responses[1].result.digest);
        let c = s.counters();
        assert_eq!(c.batch_shared, 2, "two duplicates reused the digest");
        assert_eq!(c.computed, 2, "duplicates coalesced onto one job");
    }

    #[test]
    fn delta_with_unknown_base_is_rejected() {
        let s = Scheduler::new(SchedulerConfig::default());
        let req = DeltaRequest::new(Digest { hi: 1, lo: 2 }, GraphDelta::default(), quick_aco(1));
        let err = s.submit_delta(req).map(|_| ()).unwrap_err();
        assert_eq!(err, ServiceError::BaseNotFound(Digest { hi: 1, lo: 2 }));
        assert!(err.to_string().contains("base not found"));
    }

    #[test]
    fn delta_that_does_not_apply_is_invalid() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let base = s
            .submit(LayoutRequest::new(small_graph(13), quick_aco(13)))
            .unwrap()
            .wait()
            .unwrap();
        // Removing a non-existent edge must fail without touching cache,
        // with the unified graph-shape error kind.
        let bad = DeltaRequest::new(
            base.result.digest,
            GraphDelta::new(vec![], vec![(0, 0)]),
            quick_aco(13),
        );
        let err = s.submit_delta(bad).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidGraph(_)), "{err}");
        assert!(err.to_string().starts_with("invalid graph"), "{err}");
    }

    #[test]
    fn bounded_delta_results_are_not_cached() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let graph = small_graph(14);
        let base = s
            .submit(LayoutRequest::new(graph.clone(), quick_aco(14)))
            .unwrap()
            .wait()
            .unwrap();
        let (u, v) = graph.edges().next().unwrap();
        let mut req = DeltaRequest::new(
            base.result.digest,
            GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]),
            quick_aco(14),
        );
        req.deadline = Some(Duration::ZERO);
        let r = s.submit_delta(req).unwrap().wait().unwrap();
        assert!(r.result.stopped_early);
        // With a zero budget the run returns the repaired seed itself —
        // still a valid layering of the edited graph, still not cached.
        assert_eq!(s.cache.len(), 1, "only the base entry may be cached");
    }

    #[test]
    fn baselines_and_cyclic_inputs() {
        let s = Scheduler::new(SchedulerConfig::default());
        // A 3-cycle: the orientation pass must reverse an edge.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        for name in [
            "lpl",
            "lpl-pl",
            "minwidth",
            "minwidth-pl",
            "cg",
            "ns",
            "exact",
        ] {
            let algo = AlgoSpec::parse(name, 1).unwrap();
            let r = s
                .submit(LayoutRequest::new(g.clone(), algo))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.result.reversed_edges, 1, "{name}");
            assert!(r.result.metrics.height >= 2, "{name}");
        }
        assert!(AlgoSpec::parse("nope", 1).is_err());
    }

    #[test]
    fn exact_requests_on_small_graphs_come_back_certified() {
        let s = Scheduler::new(SchedulerConfig::default());
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let r = s
            .submit(LayoutRequest::new(g, AlgoSpec::Exact))
            .unwrap()
            .wait()
            .unwrap();
        assert!(r.result.certified);
        assert!(!r.result.stopped_early);
        assert!(r.result.race.is_none(), "exact is not a race");
        assert_eq!(s.cache.len(), 1, "certified results cache normally");
        let text = s.metrics().render_prometheus();
        assert!(text.contains("solver_certified_total 1"), "{text}");
    }

    #[test]
    fn exact_requests_above_the_cap_fall_back_uncertified() {
        let s = Scheduler::new(SchedulerConfig::default());
        let r = s
            .submit(LayoutRequest::new(small_graph(77), AlgoSpec::Exact))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!r.result.certified);
        assert!(!r.result.stopped_early);
    }

    #[test]
    fn portfolio_requests_report_winner_and_members() {
        let s = Scheduler::new(SchedulerConfig::default());
        let algo = AlgoSpec::Portfolio(AcoParams::default().with_colony(3, 3).with_seed(5));
        let r = s
            .submit(LayoutRequest::new(small_graph(5), algo))
            .unwrap()
            .wait()
            .unwrap();
        let race = r.result.race.as_ref().expect("portfolio reports its race");
        assert!(race.members.len() >= 5);
        assert!(race.members.iter().any(|m| m.solver == race.winner));
        // The request digest keys on the portfolio name + colony params:
        // a plain aco request with the same params must not collide.
        let aco = AlgoSpec::Aco(AcoParams::default().with_colony(3, 3).with_seed(5));
        let r2 = s
            .submit(LayoutRequest::new(small_graph(5), aco))
            .unwrap()
            .wait()
            .unwrap();
        assert_ne!(r.result.digest, r2.result.digest);
        assert_eq!(r2.source, Source::Computed);
    }

    #[test]
    fn portfolio_delta_path_races_the_repaired_seed() {
        let s = Scheduler::new(SchedulerConfig::default());
        let algo = AlgoSpec::Portfolio(AcoParams::default().with_colony(3, 3).with_seed(21));
        let base = s
            .submit(LayoutRequest::new(small_graph(21), algo.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let (u, v) = base.result.graph.edges().next().unwrap();
        let delta = GraphDelta::new(vec![], vec![(u.index() as u32, v.index() as u32)]);
        let req = DeltaRequest::new(base.result.digest, delta, algo);
        let warm = s.submit_delta(req).unwrap().wait().unwrap();
        assert_eq!(warm.source, Source::Warm);
        assert!(warm.result.seeded);
        let race = warm.result.race.as_ref().unwrap();
        assert!(
            race.members.iter().any(|m| m.solver == "seed"),
            "the repaired base layering must race as a member"
        );
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let s = Scheduler::new(SchedulerConfig::default());
        let mut req = LayoutRequest::new(small_graph(7), quick_aco(7));
        req.nd_width = f64::NAN;
        assert!(matches!(
            s.submit(req),
            Err(ServiceError::InvalidRequest(_))
        ));
        let bad = LayoutRequest::new(
            small_graph(8),
            AlgoSpec::Aco(AcoParams {
                rho: 7.0,
                ..AcoParams::default()
            }),
        );
        assert!(matches!(
            s.submit(bad),
            Err(ServiceError::InvalidRequest(_))
        ));
    }

    #[test]
    fn metrics_registry_reflects_scheduler_activity() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let req = LayoutRequest::new(small_graph(60), quick_aco(60));
        s.submit(req.clone()).unwrap().wait().unwrap();
        s.submit(req).unwrap().wait().unwrap();
        let text = s.metrics().render_prometheus();
        assert!(text.contains("scheduler_served_total 2"), "{text}");
        assert!(text.contains("scheduler_computed_total 1"), "{text}");
        assert!(text.contains("cache_hits_total 1"), "{text}");
        assert!(text.contains("cache_entries 1"), "{text}");
        // The computed job recorded exactly one queue-wait and one
        // compute sample.
        let q = s.metrics().histogram_snapshot("scheduler_queue_wait_us");
        assert_eq!(q.unwrap().count, 1);
        let c = s.metrics().histogram_snapshot("scheduler_compute_us");
        assert_eq!(c.unwrap().count, 1);
        // The cache byte gauge is the entry's estimator value.
        assert!(
            s.metrics().render_prometheus().contains("cache_bytes"),
            "{text}"
        );
        assert!(s.cache.bytes() > 0);
    }

    #[test]
    fn queue_us_is_zero_for_hits_and_measured_for_computes() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let req = LayoutRequest::new(small_graph(61), quick_aco(61));
        let computed = s.submit(req.clone()).unwrap().wait().unwrap();
        assert_eq!(computed.source, Source::Computed);
        let hit = s.submit(req).unwrap().wait().unwrap();
        assert_eq!(hit.source, Source::CacheHit);
        assert_eq!(hit.queue_us, 0, "cache hits never queue");
    }

    #[test]
    fn byte_budget_warns_once_per_crossing() {
        let warned = AtomicBool::new(false);
        // Under budget: nothing, latch stays armed.
        assert!(!warn_if_over_budget(50, 100, &warned));
        // First crossing warns; hovering above does not repeat.
        assert!(warn_if_over_budget(150, 100, &warned));
        assert!(!warn_if_over_budget(200, 100, &warned));
        // Dropping back under re-arms, so the next crossing warns again.
        assert!(!warn_if_over_budget(80, 100, &warned));
        assert!(warn_if_over_budget(101, 100, &warned));
    }

    #[test]
    fn colony_outcome_counters_track_truncation_and_seeding() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let mut req = LayoutRequest::new(small_graph(62), quick_aco(62));
        req.deadline = Some(Duration::ZERO);
        let r = s.submit(req).unwrap().wait().unwrap();
        assert!(r.result.stopped_early);
        let text = s.metrics().render_prometheus();
        assert!(text.contains("colony_stopped_early_total 1"), "{text}");
        assert!(text.contains("colony_seeded_total 0"), "{text}");
    }

    #[test]
    fn batch_hits_drain_before_cold_misses() {
        // One worker thread, and a cold request slow enough to still be
        // running while we drain the batch's hit: if the hit were queued
        // behind the compute its wait() would block until the colony
        // finishes; instead it must resolve from the cache immediately,
        // while the cold job is demonstrably still in flight.
        let s = Scheduler::new(SchedulerConfig {
            threads: 1,
            ..Default::default()
        });
        let cached = LayoutRequest::new(small_graph(40), quick_aco(40));
        s.submit(cached.clone()).unwrap().wait().unwrap();

        let slow = LayoutRequest::new(
            small_graph(41),
            AlgoSpec::Aco(AcoParams::default().with_colony(10, 60).with_seed(41)),
        );
        // The hit is deliberately *behind* the cold miss in batch order.
        let tickets = s.submit_batch(vec![slow, cached]);
        let mut tickets = tickets.into_iter();
        let slow_ticket = tickets.next().unwrap().unwrap();
        let hit = tickets.next().unwrap().unwrap().wait().unwrap();
        assert_eq!(hit.source, Source::CacheHit);
        // The cold compute had no chance to finish a 10x60 colony before
        // the hit resolved (on any machine this test runs on); seeing it
        // still in flight proves the hit was not queued behind it.
        assert_eq!(
            s.counters().inflight,
            1,
            "cold job should still be computing while the hit is served"
        );
        slow_ticket.wait().unwrap();
        let c = s.counters();
        assert_eq!(c.computed, 2);
        assert_eq!(c.cache.hits, 1);
    }

    #[test]
    fn batch_reorder_preserves_ticket_positions() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let a = LayoutRequest::new(small_graph(50), quick_aco(50));
        let b = LayoutRequest::new(small_graph(51), quick_aco(51));
        let c = LayoutRequest::new(small_graph(52), quick_aco(52));
        // Warm the middle request only.
        s.submit(b.clone()).unwrap().wait().unwrap();
        let digests: Vec<_> = [&a, &b, &c].iter().map(|r| r.digest()).collect();
        let responses: Vec<_> = s
            .submit_batch(vec![a, b, c])
            .into_iter()
            .map(|t| t.unwrap().wait().unwrap())
            .collect();
        // Position i answers request i, whatever the admission order was.
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.result.digest, digests[i], "position {i}");
        }
        assert_eq!(responses[1].source, Source::CacheHit);
        assert_eq!(s.counters().computed, 3);
    }

    #[test]
    fn batch_submission_mixes_sources() {
        let s = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        let shared = LayoutRequest::new(small_graph(9), quick_aco(9));
        let batch = vec![
            shared.clone(),
            LayoutRequest::new(small_graph(10), quick_aco(9)),
            shared,
        ];
        let tickets = s.submit_batch(batch);
        let responses: Vec<_> = tickets
            .into_iter()
            .map(|t| t.unwrap().wait().unwrap())
            .collect();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].result.digest, responses[2].result.digest);
        assert_eq!(s.counters().computed, 2, "duplicate digest computes once");
    }

    #[test]
    fn restored_and_installed_entries_charge_organic_bytes() {
        // One accounting path for all three ways an entry enters the
        // cache: organic compute, segment-log replay at boot, and a
        // replication `cache_put` install. All must land on the same
        // `approx_bytes` charge, so `cache_bytes` (and the byte budget)
        // stay honest across restarts and replication.
        let dir = std::env::temp_dir().join(format!("antlayer-sched-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = SchedulerConfig {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };

        // Organic: compute three layouts with persistence on.
        let (results, organic_bytes) = {
            let a = Scheduler::new(persistent.clone());
            let results: Vec<Arc<LayoutResult>> = (1..=3u64)
                .map(|seed| {
                    a.submit(LayoutRequest::new(small_graph(seed), quick_aco(seed)))
                        .unwrap()
                        .wait()
                        .unwrap()
                        .result
                })
                .collect();
            a.drain();
            assert_eq!(a.restored(), 0, "organic inserts are not restores");
            (results, a.cache.bytes())
        };
        assert!(organic_bytes > 0);

        // Boot replay: a second scheduler over the same directory
        // restores every entry at the identical byte charge.
        let b = Scheduler::new(persistent);
        assert_eq!(b.restored(), 3, "all three entries replay");
        assert_eq!(
            b.cache.bytes(),
            organic_bytes,
            "replayed entries charge the same approx_bytes as organic inserts"
        );

        // cache_put installs on a cold scheduler: same charge again,
        // idempotent on repeat, and servable as a plain cache hit.
        let c = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        });
        for r in &results {
            let entry = crate::protocol::CacheEntry::of_result(r);
            assert!(c.install(&entry).unwrap(), "fresh install stores");
            assert!(!c.install(&entry).unwrap(), "repeat put is a no-op");
        }
        assert_eq!(c.restored(), 3);
        assert_eq!(
            c.cache.bytes(),
            organic_bytes,
            "installed replicas charge the same approx_bytes as organic inserts"
        );
        let hit = c
            .submit(LayoutRequest::new(small_graph(1), quick_aco(1)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(hit.source, Source::CacheHit);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
