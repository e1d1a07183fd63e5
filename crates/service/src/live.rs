//! The live tier: streaming edit sessions (`antlayer serve --live
//! PORT`).
//!
//! A session tier is the opposite workload of request/reply: tens of
//! thousands of mostly-idle subscriptions, each waiting for the handful
//! of moments when *its* graph changes. Its connections ride the same
//! loop thread as every other listener ([`crate::transport`]), which
//! assembles each inbound line and hands it to the `LiveTier`. The
//! tier owns the [`SessionTable`] and decides what each connection is
//! pushed.
//!
//! Solves never run on the loop thread. `session_open` and
//! `session_delta` each hand a runner thread a solve that submits to the
//! shared [`Scheduler`] (whose worker pool does the actual compute),
//! waits out the ticket, and posts a completion back to the loop. The
//! tier folds the completion back into the session — version bump,
//! changed-layer diff against the previous push, frame enqueue — all
//! single-threaded, no locks.
//!
//! Deltas arriving while a solve is in flight compose into one pending
//! edit ([`GraphDelta::compose`]) and cost one re-solve when the
//! in-flight one lands — the wire frame reports how many edits it
//! covers in its `coalesced` member.

use crate::protocol::{self, Envelope, ErrorKind, Request, Response, SessionUpdate, WireError};
use crate::scheduler::{
    DeltaRequest, LayoutRequest, LayoutResponse, LayoutResult, Scheduler, ServiceError,
};
use crate::session::{diff_layers, SessionKey, SessionMetrics, SessionTable};
use crate::transport::{Conns, Done};
use antlayer_graph::GraphDelta;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operator tuning for the live tier.
#[derive(Clone, Debug)]
pub struct LiveTuning {
    /// Outbound frames one session may have queued before it is
    /// declared a slow consumer and evicted. The default 32 is ~32
    /// pushes behind a fast editor — a client that far behind is not
    /// rendering them anyway.
    pub queue_cap: usize,
    /// `SO_SNDBUF` for accepted connections; `None` keeps the kernel
    /// default. Tens of thousands of connections each autotuning a
    /// multi-megabyte send buffer is a real memory bill, and capping
    /// the kernel's share makes `queue_cap` the *effective*
    /// backpressure bound instead of a limit hidden behind megabytes
    /// of kernel absorption.
    pub send_buffer: Option<usize>,
}

impl Default for LiveTuning {
    fn default() -> Self {
        LiveTuning {
            queue_cap: 32,
            send_buffer: None,
        }
    }
}

/// A session with no open/delta for this long counts into the
/// `sessions_idle` gauge.
const IDLE_AFTER: Duration = Duration::from_secs(5);

/// How often (at most) the tier rescans for idle sessions; also the
/// loop's `epoll_wait` timeout, so the gauge refreshes even on a quiet
/// tier.
pub(crate) const IDLE_SCAN_PERIOD: Duration = Duration::from_secs(1);

/// What a solve thread posts back to the loop.
pub(crate) struct Completion {
    /// The session; its first member is the connection's token.
    pub(crate) key: SessionKey,
    /// Guards against re-open/close races: mismatched epochs are stale
    /// and dropped.
    epoch: u64,
    kind: CompletionKind,
}

enum CompletionKind {
    /// The base layout of a `session_open`.
    Open(Result<LayoutResponse, ServiceError>),
    Update {
        result: Result<LayoutResponse, ServiceError>,
        /// Extra deltas folded into this solve (0 = it covers one).
        coalesced: u64,
        /// Arrival of the earliest covered delta (push-latency clock).
        since: Instant,
    },
}

/// The sessions of every live connection on the loop.
pub(crate) struct LiveTier {
    scheduler: Arc<Scheduler>,
    metrics: Arc<SessionMetrics>,
    sessions: SessionTable,
    last_idle_scan: Instant,
    /// Also applied by the loop to each live connection it accepts.
    pub(crate) tuning: LiveTuning,
}

impl LiveTier {
    /// A tier solving through `scheduler`.
    pub(crate) fn new(
        scheduler: Arc<Scheduler>,
        metrics: Arc<SessionMetrics>,
        tuning: LiveTuning,
    ) -> LiveTier {
        LiveTier {
            scheduler,
            metrics: metrics.clone(),
            sessions: SessionTable::new(metrics),
            last_idle_scan: Instant::now(),
            tuning,
        }
    }

    /// Drops every session of a closed connection. In-flight solves for
    /// them complete into nothing: their keys no longer resolve.
    pub(crate) fn remove_conn(&mut self, token: u64) {
        self.sessions.remove_conn(token);
    }

    /// Parses and dispatches one inbound line.
    pub(crate) fn handle_line(&mut self, conns: &mut Conns, token: u64, line: &str) {
        if line.is_empty() {
            return;
        }
        let (request, env) = match protocol::parse_request_envelope(line) {
            Err((err, env)) => {
                enqueue_control(conns, token, &Response::Error(err), &env);
                return;
            }
            Ok(parsed) => parsed,
        };
        match request {
            Request::Ping => {
                enqueue_control(conns, token, &Response::Pong { router: false }, &env);
            }
            Request::SessionOpen(req) => self.handle_open(conns, token, *req, env),
            Request::SessionDelta { delta } => self.handle_delta(conns, token, delta, env),
            Request::SessionClose => self.handle_close(conns, token, env),
            other => {
                let op = other.op();
                let error = format!(
                    "invalid request: '{op}' is a request/reply op; send it to the \
                     line-TCP or HTTP listener"
                );
                reject(conns, token, &env, error);
            }
        }
    }

    /// The session key a v2 envelope addresses, or an error frame if
    /// the envelope cannot address one.
    fn session_key(
        &mut self,
        conns: &mut Conns,
        token: u64,
        env: &Envelope,
        op: &str,
    ) -> Option<(SessionKey, protocol::Json)> {
        match (&env.id, env.version) {
            (Some(id), 2) => Some(((token, id.encode()), id.clone())),
            _ => {
                let error = format!(
                    "invalid request: '{op}' requires a v2 envelope with an 'id' \
                     (the session key)"
                );
                reject(conns, token, env, error);
                None
            }
        }
    }

    fn handle_open(&mut self, conns: &mut Conns, token: u64, req: LayoutRequest, env: Envelope) {
        let Some((key, id)) = self.session_key(conns, token, &env, "session_open") else {
            return;
        };
        let now = Instant::now();
        let epoch = self.sessions.open(
            key.clone(),
            id,
            req.algo.clone(),
            req.nd_width,
            req.deadline,
            now,
        );
        let scheduler = self.scheduler.clone();
        // The solve must not block the loop: a thread submits, waits out
        // the ticket (the scheduler pool computes), and posts the
        // completion back.
        conns.spawn(token, move || {
            let result = scheduler.submit(req).and_then(|t| t.wait());
            Done::Live(Completion {
                key,
                epoch,
                kind: CompletionKind::Open(result),
            })
        });
    }

    fn handle_delta(&mut self, conns: &mut Conns, token: u64, delta: GraphDelta, env: Envelope) {
        let Some((key, _id)) = self.session_key(conns, token, &env, "session_delta") else {
            return;
        };
        let Some(session) = self.sessions.get_mut(&key) else {
            let error = "invalid request: no open session with this id on this connection; \
                         send session_open first";
            reject(conns, token, &env, error);
            return;
        };
        // Fold the edit into the pending set. While a solve is running
        // (or the base layout is still being computed) the whole burst
        // costs one re-solve when the in-flight one lands; otherwise the
        // solve starts now.
        if session.queue_delta(delta, Instant::now()) > 1 {
            self.metrics.coalesced.inc();
        }
        self.start_pending(conns, &key);
    }

    fn handle_close(&mut self, conns: &mut Conns, token: u64, env: Envelope) {
        let Some((key, _id)) = self.session_key(conns, token, &env, "session_close") else {
            return;
        };
        match self.sessions.remove(&key) {
            Some(session) => {
                let closed = Response::SessionClosed {
                    version: session.version,
                };
                enqueue_control(conns, token, &closed, &env);
            }
            None => reject(
                conns,
                token,
                &env,
                "invalid request: no open session with this id on this connection",
            ),
        }
    }

    /// Folds a finished solve into its session and pushes the frame.
    pub(crate) fn handle_completion(&mut self, conns: &mut Conns, completion: Completion) {
        let token = completion.key.0;
        let Some(session) = self.sessions.get_mut(&completion.key) else {
            return; // closed or the connection hung up; nothing to push
        };
        if session.epoch != completion.epoch {
            return; // a stale solve from the session's previous life
        }
        match completion.kind {
            CompletionKind::Open(Ok(response)) => {
                session.digest = Some(response.result.digest);
                session.layers = wire_layers(&response.result);
                session.version = 0;
                session.in_flight = false;
                let id = session.id.clone();
                let frame = Response::SessionOpened {
                    version: 0,
                    reply: Box::new(protocol::layout_reply_of(&response)),
                };
                self.enqueue_session(
                    conns,
                    token,
                    &completion.key.1,
                    &frame,
                    &Envelope::v2(Some(id)),
                );
                self.start_pending(conns, &completion.key);
            }
            CompletionKind::Update {
                result: Ok(response),
                coalesced,
                since,
            } => {
                session.version += 1;
                let new_layers = wire_layers(&response.result);
                let changed = diff_layers(&session.layers, &new_layers);
                session.layers = new_layers;
                session.digest = Some(response.result.digest);
                session.in_flight = false;
                let id = session.id.clone();
                let update = SessionUpdate {
                    version: session.version,
                    digest: response.result.digest.to_string(),
                    source: response.source.name().to_string(),
                    height: session.layers.len() as u64,
                    changed,
                    coalesced,
                    refreshed: response.result.refreshed,
                    compute_micros: response.result.compute_micros,
                };
                let frame = Response::SessionUpdate(Box::new(update));
                if self.enqueue_session(
                    conns,
                    token,
                    &completion.key.1,
                    &frame,
                    &Envelope::v2(Some(id)),
                ) {
                    self.metrics.pushes.inc();
                    self.metrics
                        .push_us
                        .record(since.elapsed().as_micros() as u64);
                }
                self.start_pending(conns, &completion.key);
            }
            CompletionKind::Open(Err(e)) | CompletionKind::Update { result: Err(e), .. } => {
                // The session's server-side graph state is no longer
                // trustworthy (base evicted, delta rejected, …): close
                // it with the error; the client re-opens with its full
                // graph. `base_not_found` is the expected shape after a
                // shard drain moved the cache entry elsewhere.
                let id = self.sessions.remove(&completion.key).map(|s| s.id);
                enqueue_control(
                    conns,
                    token,
                    &Response::Error(WireError::new(
                        ErrorKind::of_service_error(&e),
                        e.to_string(),
                    )),
                    &Envelope::v2(id),
                );
            }
        }
    }

    /// Starts the next solve if edits are pending and none is in
    /// flight.
    fn start_pending(&mut self, conns: &mut Conns, key: &SessionKey) {
        let Some(session) = self.sessions.get_mut(key) else {
            return;
        };
        if session.in_flight {
            return;
        }
        let Some(pending) = session.pending.take() else {
            return;
        };
        let Some(base) = session.digest else {
            return; // open failed; an error frame already closed it
        };
        session.in_flight = true;
        let request = DeltaRequest {
            base,
            delta: pending.delta,
            algo: session.algo.clone(),
            nd_width: session.nd_width,
            deadline: session.deadline,
        };
        let (key, epoch) = (key.clone(), session.epoch);
        let (coalesced, since) = (pending.count - 1, pending.since);
        let scheduler = self.scheduler.clone();
        conns.spawn(key.0, move || {
            let result = scheduler.submit_delta(request).and_then(|t| t.wait());
            Done::Live(Completion {
                key,
                epoch,
                kind: CompletionKind::Update {
                    result,
                    coalesced,
                    since,
                },
            })
        });
    }

    /// Encodes and queues a session-owned frame, evicting the session
    /// when its queue is over the cap (a consumer that is not draining).
    /// Returns whether the frame was queued.
    fn enqueue_session(
        &mut self,
        conns: &mut Conns,
        token: u64,
        session: &str,
        response: &Response,
        env: &Envelope,
    ) -> bool {
        let Some(out) = conns.out(token) else {
            return false;
        };
        if out.push_session(session, frame(response, env)) {
            return true;
        }
        // Slow consumer: drop its backlog and the session itself, and
        // tell the client why (the control frame bypasses the cap).
        self.metrics.evicted.inc();
        out.drop_session(session);
        let key: SessionKey = (token, session.to_string());
        if let Some(removed) = self.sessions.remove(&key) {
            let err = Response::Error(WireError::new(
                ErrorKind::Overloaded,
                format!(
                    "session evicted: {} frames queued and the connection \
                     is not draining; re-open to resume",
                    self.tuning.queue_cap
                ),
            ));
            out.push_control(frame(&err, &Envelope::v2(Some(removed.id))));
        }
        false
    }

    /// Rescans for idle sessions at most once per [`IDLE_SCAN_PERIOD`].
    pub(crate) fn maybe_scan_idle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_idle_scan) < IDLE_SCAN_PERIOD {
            return;
        }
        self.last_idle_scan = now;
        self.metrics
            .set_idle(self.sessions.idle_count(now, IDLE_AFTER) as u64);
    }
}

/// The bottom-up layer lists of a result, in wire form.
fn wire_layers(result: &LayoutResult) -> Vec<Vec<u32>> {
    result
        .layering
        .layers()
        .into_iter()
        .map(|layer| layer.into_iter().map(|v| v.index() as u32).collect())
        .collect()
}

/// One encoded frame, newline included.
fn frame(response: &Response, env: &Envelope) -> Vec<u8> {
    let mut bytes = response.encode(env).into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Encodes and queues a frame that belongs to no session (errors, pong,
/// close acks): never dropped.
fn enqueue_control(conns: &mut Conns, token: u64, response: &Response, env: &Envelope) {
    if let Some(out) = conns.out(token) {
        out.push_control(frame(response, env));
    }
}

/// Answers a frame the live listener cannot serve with an
/// `invalid_request` error.
fn reject(conns: &mut Conns, token: u64, env: &Envelope, error: impl Into<String>) {
    let error = Response::Error(WireError::new(ErrorKind::InvalidRequest, error));
    enqueue_control(conns, token, &error, env);
}
