//! The layout server: who answers the requests that arrive through
//! the shared [`FrontDoor`].
//!
//! Up to three listeners serve the same scheduler side by side: the
//! line-delimited TCP listener ([`ServerConfig::addr`], the original
//! wire), an optional HTTP/1.1 listener ([`ServerConfig::http_addr`],
//! `antlayer serve --http PORT`) speaking `POST /v2`, and an optional
//! live listener ([`ServerConfig::live_addr`]) for streaming edit
//! sessions. All three sit on the one loop thread of a [`FrontDoor`]
//! (see [`crate::transport`]), which owns accept, the connection cap
//! ([`ServerConfig::max_connections`]) and shutdown. Every line or HTTP
//! request is answered by the one [`ServiceCore`] on a runner thread
//! that submits to the shared [`Scheduler`] and blocks on the
//! ticket — concurrency across connections comes from the scheduler's
//! worker pool, which also gives digest-level dedup across clients for
//! free. Live frames go to [`crate::live`].

use crate::live::{LiveTier, LiveTuning};
use crate::protocol::{self, ErrorKind, Json, Request, Response, WireError};
use crate::scheduler::{Scheduler, SchedulerConfig, ServiceError, Source};
use crate::transport::{FrontDoor, FrontDoorHandle, Handler};
use antlayer_obs::{Histogram, MetricValue, SlowLog, TraceEntry};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slowest requests retained for the `debug` op. Small and fixed: the
/// log is a debugging aid (which requests hurt, and where their time
/// went), not a metrics store — the histograms are.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address of the line-delimited TCP listener, e.g. `127.0.0.1:4617`
    /// (port 0 picks a free one).
    pub addr: String,
    /// Optional address of the HTTP/1.1 listener (`POST /v2`); `None`
    /// serves line-delimited TCP only.
    pub http_addr: Option<String>,
    /// Optional address of the live listener serving streaming edit
    /// sessions (`antlayer serve --live PORT`). It shares the loop
    /// thread with the other listeners, but its connections do not
    /// count against [`max_connections`](Self::max_connections).
    pub live_addr: Option<String>,
    /// Tuning for the live tier (per-session outbound queue cap before
    /// slow-consumer eviction, per-connection kernel send-buffer cap).
    pub live_tuning: LiveTuning,
    /// Scheduler configuration (threads, cache, admission).
    pub scheduler: SchedulerConfig,
    /// Maximum concurrently served connections, across the line-TCP and
    /// HTTP listeners.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4617".into(),
            http_addr: None,
            live_addr: None,
            live_tuning: LiveTuning::default(),
            scheduler: SchedulerConfig::default(),
            max_connections: 128,
        }
    }
}

/// The transport-independent request handler: the scheduler plus the
/// protocol-level counters that do not belong to it (today: how many v1
/// requests leaned on the lenient absent-`op` default).
pub struct ServiceCore {
    scheduler: Arc<Scheduler>,
    /// v1 requests that omitted `"op"` and got the historic `layout`
    /// default; reported by `stats` as `lenient_requests` so operators
    /// can find clients to migrate before the default is retired.
    lenient_requests: AtomicU64,
    /// End-to-end request latency, registered in the scheduler's
    /// registry so `GET /metrics` renders one page for the process.
    request_us: Arc<Histogram>,
    /// The K slowest requests with their phase breakdowns (`debug` op).
    slow_log: SlowLog,
    /// Milliseconds to sleep before answering each request — 0 in
    /// production, set by fault harnesses (`FaultAction::Delay`) to make
    /// a shard *slow* rather than dead, which is the failure mode that
    /// exercises the router's `io_timeout` reroute path.
    respond_delay_ms: AtomicU64,
    /// The live-session tier's counters, registered here (not in the
    /// reactor) so `stats` and `GET /metrics` report them even when no
    /// `--live` listener is running — the names are part of the stats
    /// contract, zero-valued or not.
    session_metrics: Arc<crate::session::SessionMetrics>,
}

impl ServiceCore {
    /// Builds a core around a scheduler.
    pub fn new(scheduler: Arc<Scheduler>) -> ServiceCore {
        let request_us = scheduler.metrics().histogram(
            "server_request_us",
            "end-to-end microseconds from request parse to encoded reply",
        );
        let session_metrics = crate::session::SessionMetrics::new(scheduler.metrics());
        ServiceCore {
            scheduler,
            lenient_requests: AtomicU64::new(0),
            request_us,
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            respond_delay_ms: AtomicU64::new(0),
            session_metrics,
        }
    }

    /// The live-session tier's metrics handles (shared with the
    /// reactor).
    pub fn session_metrics(&self) -> &Arc<crate::session::SessionMetrics> {
        &self.session_metrics
    }

    /// Sets the artificial per-request respond delay (fault injection:
    /// a slow shard, not a dead one). `0` restores normal service.
    pub fn set_respond_delay(&self, delay: Duration) {
        self.respond_delay_ms
            .store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// The slow-request log (for in-process inspection and tests).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// The shared scheduler (for in-process inspection).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// v1 requests served through the lenient absent-`op` default.
    pub fn lenient_requests(&self) -> u64 {
        self.lenient_requests.load(Ordering::Relaxed)
    }

    /// Computes the response for one request payload (v1 or v2); the
    /// single dispatch point every transport calls.
    ///
    /// Every request is timed end to end into the `server_request_us`
    /// histogram and, when slow enough, into the [`SlowLog`] with its
    /// phase breakdown (`parse → cache_lookup → queue_wait → compute →
    /// encode`). A v2 request with `"trace":true` gets the same
    /// breakdown echoed in the response's `"trace"` member — the
    /// router's way of stitching a fleet-wide timeline.
    pub fn respond(&self, line: &str) -> String {
        let delay_ms = self.respond_delay_ms.load(Ordering::Relaxed);
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        let started = Instant::now();
        let (request, env) = match protocol::parse_request_envelope(line) {
            Err((err, env)) => return Response::Error(err).encode(&env),
            Ok(parsed) => parsed,
        };
        if env.lenient_op {
            self.lenient_requests.fetch_add(1, Ordering::Relaxed);
        }
        let op = request.op();
        let mut phases: Vec<(&'static str, u64)> =
            vec![("parse", started.elapsed().as_micros() as u64)];
        let response = match request {
            Request::Ping => Response::Pong { router: false },
            Request::Stats => Response::Stats(self.stats_counters()),
            Request::Debug => Response::Debug(self.debug_body()),
            Request::Layout(req) => {
                let submitted = Instant::now();
                match self.scheduler.submit(*req) {
                    Err(e) => error_response(&e),
                    Ok(ticket) => {
                        // Digest + cache probe + admission, before any
                        // queueing: the hit path ends here.
                        phases.push(("cache_lookup", submitted.elapsed().as_micros() as u64));
                        self.finish_layout(ticket, &mut phases)
                    }
                }
            }
            Request::LayoutDelta(req) => {
                let submitted = Instant::now();
                match self.scheduler.submit_delta(*req) {
                    Err(e) => error_response(&e),
                    Ok(ticket) => {
                        phases.push(("cache_lookup", submitted.elapsed().as_micros() as u64));
                        self.finish_layout(ticket, &mut phases)
                    }
                }
            }
            Request::CachePut(entry) => match self.scheduler.install(&entry) {
                Ok(stored) => Response::CachePutAck { stored },
                Err(e) => error_response(&e),
            },
            Request::CachePull { cursor, limit } => {
                let (entries, next, done) = self.scheduler.export_page(cursor, limit);
                Response::CachePage(Box::new(protocol::CachePage {
                    entries,
                    next,
                    done,
                }))
            }
            // Topology changes are the router's job; a shard has no ring.
            Request::ShardJoin { .. } | Request::ShardDrain { .. } => {
                Response::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    format!("invalid request: '{op}' is a router admin op; send it to the router"),
                ))
            }
            // Sessions live on the reactor listener, where the server
            // can *push* frames; a request/reply transport has nowhere
            // to deliver the unsolicited updates.
            Request::SessionOpen(_) | Request::SessionDelta { .. } | Request::SessionClose => {
                Response::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    format!(
                        "invalid request: '{op}' is a live-session op; connect to the \
                         --live listener"
                    ),
                ))
            }
        };
        // The wire trace closes before encoding (it is part of what gets
        // encoded); the slow log closes after, so it sees the full cost.
        let wire_trace = env
            .trace
            .then(|| wire_trace_json(&env.id, op, started.elapsed().as_micros() as u64, &phases));
        let encoding = Instant::now();
        let reply = response.encode_with_trace(&env, wire_trace);
        phases.push(("encode", encoding.elapsed().as_micros() as u64));
        let total_us = started.elapsed().as_micros() as u64;
        self.request_us.record(total_us);
        if self.slow_log.would_keep(total_us) {
            self.slow_log.record(TraceEntry {
                id: env.correlation_id(),
                op,
                total_us,
                phases,
                remote: None,
            });
        }
        reply
    }

    /// Waits out a layout ticket, recording where the time went.
    fn finish_layout(
        &self,
        ticket: crate::scheduler::Ticket,
        phases: &mut Vec<(&'static str, u64)>,
    ) -> Response {
        match ticket.wait() {
            Ok(r) => {
                // A cache hit neither queued nor computed; its
                // breakdown is parse + cache_lookup + encode.
                if r.source != Source::CacheHit {
                    phases.push(("queue_wait", r.queue_us));
                    phases.push(("compute", r.result.compute_micros));
                }
                Response::Layout(Box::new(protocol::layout_reply_of(&r)))
            }
            Err(e) => error_response(&e),
        }
    }

    fn stats_counters(&self) -> BTreeMap<String, Json> {
        let c = self.scheduler.counters();
        let mut obj = BTreeMap::new();
        let mut num = |k: &str, v: f64| {
            obj.insert(k.to_string(), Json::Num(v));
        };
        num("served", c.served as f64);
        num("computed", c.computed as f64);
        num("coalesced", c.coalesced as f64);
        num("rejected", c.rejected as f64);
        num("inflight", c.inflight as f64);
        num("lenient_requests", self.lenient_requests() as f64);
        num("cache_hits", c.cache.hits as f64);
        num("cache_misses", c.cache.misses as f64);
        num("cache_insertions", c.cache.insertions as f64);
        num("cache_evictions", c.cache.evictions as f64);
        num("cache_bytes", c.cache.bytes as f64);
        num("cache_restored", self.scheduler.restored() as f64);
        num("cold_refresh", c.cold_refresh as f64);
        num("batch_shared", c.batch_shared as f64);
        let sm = &self.session_metrics;
        num("sessions_open", sm.open_count() as f64);
        num("sessions_idle", sm.idle_value() as f64);
        num("session_pushes", sm.pushes.get() as f64);
        num("session_coalesced", sm.coalesced.get() as f64);
        num("session_evicted", sm.evicted.get() as f64);
        // Latency histograms ride along as objects (count, sum_us,
        // percentiles, raw buckets) — see `protocol::histogram_json`.
        // The flat counters above stay plain numbers for compatibility.
        for (name, value) in self.scheduler.metrics().snapshot() {
            if let MetricValue::Histogram(snap) = value {
                obj.insert(name.to_string(), protocol::histogram_json(&snap));
            }
        }
        obj
    }

    fn debug_body(&self) -> BTreeMap<String, Json> {
        let mut obj = BTreeMap::new();
        obj.insert(
            "slow_requests".into(),
            Json::Arr(
                self.slow_log
                    .snapshot()
                    .iter()
                    .map(protocol::trace_entry_json)
                    .collect(),
            ),
        );
        obj
    }

    /// The process-wide Prometheus page (`GET /metrics`).
    pub fn metrics_text(&self) -> String {
        self.scheduler.metrics().render_prometheus()
    }
}

/// The `"trace"` member of a traced response: the same phase breakdown
/// the slow log keeps, minus `encode` (which cannot measure itself).
fn wire_trace_json(
    id: &Option<Json>,
    op: &'static str,
    total_us: u64,
    phases: &[(&'static str, u64)],
) -> Json {
    let mut obj = BTreeMap::new();
    if let Some(id) = id {
        obj.insert("id".into(), id.clone());
    }
    obj.insert("op".into(), Json::Str(op.into()));
    obj.insert("total_us".into(), Json::Num(total_us as f64));
    let mut p = BTreeMap::new();
    for (name, us) in phases {
        p.insert((*name).to_string(), Json::Num(*us as f64));
    }
    obj.insert("phase_us".into(), Json::Obj(p));
    Json::Obj(obj)
}

/// The [`Handler`] connection handlers use: protocol payloads go to
/// [`ServiceCore::respond`], `GET /metrics` renders the registry.
struct CoreHandler {
    core: Arc<ServiceCore>,
}

impl Handler for CoreHandler {
    fn respond(&mut self, line: &str) -> String {
        self.core.respond(line)
    }

    fn metrics(&mut self) -> Option<String> {
        Some(self.core.metrics_text())
    }
}

fn error_response(e: &ServiceError) -> Response {
    Response::Error(WireError::new(
        ErrorKind::of_service_error(e),
        e.to_string(),
    ))
}

/// A bound, not-yet-running server.
pub struct Server {
    door: FrontDoor,
    live_addr: Option<SocketAddr>,
    core: Arc<ServiceCore>,
}

/// Handle to a server running on its loop thread; dropping it shuts the
/// server down.
pub struct ServerHandle {
    door: FrontDoorHandle,
    live_addr: Option<SocketAddr>,
    core: Arc<ServiceCore>,
}

impl Server {
    /// Binds the configured address(es).
    ///
    /// # Examples
    ///
    /// ```
    /// use antlayer_service::{Server, ServerConfig};
    ///
    /// // Port 0 picks a free loopback port; `spawn` serves on a
    /// // background thread until the handle is dropped.
    /// let server = Server::bind(ServerConfig {
    ///     addr: "127.0.0.1:0".into(),
    ///     ..Default::default()
    /// })
    /// .unwrap();
    /// let handle = server.spawn().unwrap();
    /// println!("serving on {}", handle.addr());
    /// handle.shutdown();
    /// ```
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let mut door = FrontDoor::bind(
            &config.addr,
            config.http_addr.as_deref(),
            config.max_connections,
        )?;
        let live_listener = match &config.live_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let live_addr = live_listener.as_ref().and_then(|l| l.local_addr().ok());
        let core = Arc::new(ServiceCore::new(Arc::new(Scheduler::new(config.scheduler))));
        if let Some(listener) = live_listener {
            let tier = LiveTier::new(
                core.scheduler().clone(),
                core.session_metrics().clone(),
                config.live_tuning,
            );
            door.serve_live(listener, tier);
        }
        Ok(Server {
            door,
            live_addr,
            core,
        })
    }

    /// The actually-bound line-TCP address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.door.local_addr()
    }

    /// The actually-bound HTTP address, when an HTTP listener exists.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.door.http_addr()
    }

    /// The actually-bound live address, when one exists.
    pub fn live_addr(&self) -> Option<SocketAddr> {
        self.live_addr
    }

    /// The shared scheduler (for in-process inspection).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        self.core.scheduler()
    }

    /// Serves until the process exits: [`spawn`](Server::spawn), then
    /// block on the loop.
    pub fn run(self) -> std::io::Result<()> {
        let mut handle = self.spawn()?;
        handle.door.wait();
        Ok(())
    }

    /// Runs the server on its loop thread and returns a handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let core = self.core.clone();
        let door = self
            .door
            .spawn("antlayer-serve", move || CoreHandler { core: core.clone() })?;
        Ok(ServerHandle {
            door,
            live_addr: self.live_addr,
            core: self.core,
        })
    }
}

impl ServerHandle {
    /// The server's line-TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.door.addr()
    }

    /// The server's HTTP address, when an HTTP listener is serving.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.door.http_addr()
    }

    /// The server's live address, when one is serving.
    pub fn live_addr(&self) -> Option<SocketAddr> {
        self.live_addr
    }

    /// The shared scheduler (for in-process inspection: fault harnesses
    /// trigger segment-log compaction and read restore counters here).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        self.core.scheduler()
    }

    /// Makes every request on this server sleep `delay` before being
    /// answered — the fault harness's *slow shard* (`Delay` event), as
    /// opposed to a killed one. `Duration::ZERO` restores normal
    /// service.
    pub fn set_respond_delay(&self, delay: Duration) {
        self.core.set_respond_delay(delay);
    }

    /// Stops the loop, which closes every listener and connection, and
    /// joins it. After this returns, the process answers nothing on its
    /// ports — clients (and routers) observe EOF/reset, exactly like a
    /// crashed shard, which is what failover tests and fleet health
    /// checks rely on.
    pub fn shutdown(mut self) {
        self.door.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse;

    fn test_core() -> ServiceCore {
        ServiceCore::new(Arc::new(Scheduler::new(SchedulerConfig {
            threads: 2,
            ..Default::default()
        })))
    }

    #[test]
    fn respond_ping_and_stats() {
        let core = test_core();
        let pong = parse(&core.respond(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        let stats = parse(&core.respond(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(stats.get("served").and_then(Json::as_u64), Some(0));
        assert_eq!(
            stats.get("lenient_requests").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn respond_layout_then_cached_layout() {
        let core = test_core();
        let line = r#"{"op":"layout","algo":"aco","nodes":5,"edges":[[0,1],[1,2],[2,3],[3,4]],"ants":3,"tours":3}"#;
        let first = parse(&core.respond(line)).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("source").and_then(Json::as_str), Some("computed"));
        let second = parse(&core.respond(line)).unwrap();
        assert_eq!(second.get("source").and_then(Json::as_str), Some("hit"));
        assert_eq!(first.get("layers"), second.get("layers"));
        assert_eq!(first.get("digest"), second.get("digest"));
    }

    #[test]
    fn respond_cache_pull_pages_and_rejects_admin_ops() {
        let core = test_core();
        let line = r#"{"op":"layout","algo":"lpl","nodes":4,"edges":[[0,1],[1,2],[2,3]]}"#;
        assert_eq!(
            parse(&core.respond(line)).unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
        // One cached entry: the first pull returns it and is done.
        let page = parse(&core.respond(r#"{"op":"cache_pull","limit":8}"#)).unwrap();
        assert_eq!(page.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(page.get("done"), Some(&Json::Bool(true)));
        let Some(Json::Arr(entries)) = page.get("entries") else {
            panic!("cache_pull reply carries entries");
        };
        assert_eq!(entries.len(), 1);
        // Resuming after the returned cursor yields an empty, done page.
        let next = page.get("next").and_then(Json::as_str).unwrap();
        let line = format!(r#"{{"op":"cache_pull","cursor":"{next}"}}"#);
        let empty = parse(&core.respond(&line)).unwrap();
        assert_eq!(empty.get("done"), Some(&Json::Bool(true)));
        assert_eq!(empty.get("entries"), Some(&Json::Arr(Vec::new())));

        // Topology admin ops belong to the router, not a shard.
        for op in ["shard_join", "shard_drain"] {
            let line = format!(r#"{{"v":2,"op":"{op}","body":{{"addr":"127.0.0.1:1"}}}}"#);
            let v = parse(&core.respond(&line)).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{op}");
            assert_eq!(
                v.get("kind").and_then(Json::as_str),
                Some("invalid_request")
            );
            assert!(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("router admin op"));
        }
    }

    #[test]
    fn respond_delay_slows_every_request() {
        let core = test_core();
        core.set_respond_delay(Duration::from_millis(40));
        let started = Instant::now();
        let pong = parse(&core.respond(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "delayed respond returned in {:?}",
            started.elapsed()
        );
        // Zero restores normal service.
        core.set_respond_delay(Duration::ZERO);
        let started = Instant::now();
        core.respond(r#"{"op":"ping"}"#);
        assert!(started.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn respond_bad_line_is_error_json() {
        let core = test_core();
        let v = parse(&core.respond("this is not json")).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("bad JSON"));
    }

    #[test]
    fn lenient_v1_requests_are_counted_v2_rejected() {
        let core = test_core();
        // v1 without an op: served as layout, counted as lenient.
        let v = parse(&core.respond(r#"{"nodes":2,"edges":[[0,1]],"algo":"lpl"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(core.lenient_requests(), 1);
        let stats = parse(&core.respond(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(
            stats.get("lenient_requests").and_then(Json::as_u64),
            Some(1)
        );
        // v2 without an op: structured rejection, not a layout.
        let v = parse(&core.respond(r#"{"v":2,"id":5,"body":{"nodes":2}}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("missing_op"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(5));
        assert_eq!(core.lenient_requests(), 1, "a v2 rejection is not lenient");
    }

    #[test]
    fn v2_layout_echoes_envelope() {
        let core = test_core();
        let line = r#"{"v":2,"op":"layout","id":"req-1","body":{"nodes":3,"edges":[[0,1],[1,2]],"algo":"lpl"}}"#;
        let v = parse(&core.respond(line)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-1"));
        // The same body through v1 computes the same digest: the
        // envelope is framing, not identity.
        let v1 =
            parse(&core.respond(r#"{"op":"layout","nodes":3,"edges":[[0,1],[1,2]],"algo":"lpl"}"#))
                .unwrap();
        assert_eq!(v1.get("digest"), v.get("digest"));
        assert_eq!(v1.get("source").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn traced_v2_layout_carries_phase_breakdown() {
        let core = test_core();
        let line = r#"{"v":2,"op":"layout","id":"t-1","trace":true,"body":{"nodes":4,"edges":[[0,1],[1,2],[2,3]],"algo":"aco","ants":3,"tours":3}}"#;
        let v = parse(&core.respond(line)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let trace = v.get("trace").expect("traced request echoes a trace");
        assert_eq!(trace.get("id").and_then(Json::as_str), Some("t-1"));
        assert_eq!(trace.get("op").and_then(Json::as_str), Some("layout"));
        assert!(trace.get("total_us").and_then(Json::as_u64).is_some());
        let phases = trace.get("phase_us").expect("phase breakdown");
        for phase in ["parse", "cache_lookup", "queue_wait", "compute"] {
            assert!(phases.get(phase).is_some(), "missing phase {phase}");
        }
        // An untraced request gets no trace member.
        let quiet = parse(&core.respond(r#"{"v":2,"op":"ping"}"#)).unwrap();
        assert!(quiet.get("trace").is_none());
    }

    #[test]
    fn debug_op_returns_slow_requests_with_phases() {
        let core = test_core();
        let line = r#"{"v":2,"op":"layout","id":77,"body":{"nodes":4,"edges":[[0,1],[1,2],[2,3]],"algo":"aco","ants":3,"tours":3}}"#;
        assert_eq!(
            parse(&core.respond(line)).unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
        let v = parse(&core.respond(r#"{"v":2,"op":"debug"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("debug"));
        let Some(Json::Arr(entries)) = v.get("slow_requests") else {
            panic!("debug body should carry slow_requests");
        };
        let layout = entries
            .iter()
            .find(|e| e.get("op").and_then(Json::as_str) == Some("layout"))
            .expect("the layout request should rank in the slow log");
        assert_eq!(layout.get("id").and_then(Json::as_str), Some("77"));
        let phases = layout.get("phase_us").expect("phase breakdown");
        assert!(phases.get("compute").is_some());
        assert!(phases.get("encode").is_some(), "slow log includes encode");
    }

    #[test]
    fn stats_includes_request_histogram_with_buckets() {
        let core = test_core();
        core.respond(r#"{"op":"ping"}"#);
        let v = parse(&core.respond(r#"{"op":"stats"}"#)).unwrap();
        let hist = v.get("server_request_us").expect("histogram in stats");
        assert!(hist.get("count").and_then(Json::as_u64).unwrap() >= 1);
        assert!(hist.get("p99_us").is_some());
        assert!(matches!(hist.get("buckets"), Some(Json::Arr(_))));
        // The wire shape round-trips into a mergeable snapshot.
        let snap = crate::protocol::histogram_from_json(hist).unwrap();
        assert!(snap.count >= 1);
    }

    #[test]
    fn metrics_text_renders_all_layers() {
        let core = test_core();
        core.respond(r#"{"op":"layout","nodes":3,"edges":[[0,1],[1,2]],"algo":"lpl"}"#);
        let text = core.metrics_text();
        for metric in [
            "server_request_us_count",
            "scheduler_served_total",
            "scheduler_queue_wait_us_count",
            "cache_bytes",
            "colony_stopped_early_total",
        ] {
            assert!(text.contains(metric), "missing {metric} in:\n{text}");
        }
    }

    #[test]
    fn http_get_metrics_serves_prometheus_text() {
        use std::io::{Read as _, Write as _};
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            scheduler: SchedulerConfig {
                threads: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.http_addr().unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain"), "{reply}");
        assert!(reply.contains("scheduler_served_total"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn unified_invalid_graph_kind_for_layout_and_delta() {
        let core = test_core();
        // Inline self-loop via `layout`.
        let v = parse(&core.respond(r#"{"v":2,"op":"layout","body":{"nodes":2,"edges":[[1,1]]}}"#))
            .unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("invalid_graph"));
        // The same defect as a delta: add a duplicate edge to a cached base.
        let base =
            parse(&core.respond(r#"{"op":"layout","nodes":2,"edges":[[0,1]],"algo":"lpl"}"#))
                .unwrap();
        let digest = base.get("digest").and_then(Json::as_str).unwrap();
        let line = format!(
            r#"{{"v":2,"op":"layout_delta","body":{{"base":"{digest}","add":[[0,1]],"algo":"lpl"}}}}"#
        );
        let v = parse(&core.respond(&line)).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("invalid_graph"));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("invalid graph"));
    }
}
