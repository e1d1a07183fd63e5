//! The live listener: a readiness reactor serving streaming edit
//! sessions (`antlayer serve --live PORT`).
//!
//! The request/reply listeners spend a thread per connection, which is
//! the right shape when every connection is actively asking questions.
//! A session tier is the opposite workload: tens of thousands of
//! mostly-idle subscriptions, each waiting for the handful of moments
//! when *its* graph changes. This module runs them all on **one**
//! thread parked in `epoll_wait` (via [`antlayer_reactor::Poller`]),
//! woken only by sockets with bytes to read, sockets with room to
//! write, or solve completions.
//!
//! ## Anatomy
//!
//! * Token 0 — the nonblocking listener: readable means pending
//!   accepts.
//! * Token 1 — the [`Waker`]: solve-completion threads (and shutdown)
//!   write a byte to pop the loop out of `epoll_wait`.
//! * Tokens 2+ — connections, each a small state machine: an inbound
//!   line-assembly buffer and an [`OutboundQueue`] of pending frames.
//!
//! Solves never run on the reactor thread. `session_open` and
//! `session_delta` each spawn a short-lived thread that submits to the
//! shared [`Scheduler`] (whose worker pool does the actual compute),
//! waits out the ticket, and posts a completion through an `mpsc`
//! channel plus a wake. The reactor folds the completion back into the
//! session — version bump, changed-layer diff against the previous
//! push, frame enqueue — all single-threaded, no locks.
//!
//! Deltas arriving while a solve is in flight compose into one pending
//! edit ([`GraphDelta::compose`]) and cost one re-solve when the
//! in-flight one lands — the wire frame reports how many edits it
//! covers in its `coalesced` member.

use crate::protocol::{self, Envelope, ErrorKind, Request, Response, SessionUpdate, WireError};
use crate::scheduler::{
    DeltaRequest, LayoutRequest, LayoutResponse, LayoutResult, Scheduler, ServiceError,
};
use crate::session::{diff_layers, OutboundQueue, SessionKey, SessionMetrics, SessionTable};
use antlayer_graph::GraphDelta;
use antlayer_reactor::{Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The listener's readiness token.
const TOKEN_LISTENER: u64 = 0;
/// The waker's readiness token.
const TOKEN_WAKER: u64 = 1;
/// First connection token; the counter never reuses values, so a stale
/// event for a torn-down connection can never address a new one.
const FIRST_CONN_TOKEN: u64 = 2;

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

/// Bound on one line of inbound JSON; a connection exceeding it is
/// closed (mirrors the request/reply transports' `too_large` behavior).
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// A session with no open/delta for this long counts into the
/// `sessions_idle` gauge.
const IDLE_AFTER: Duration = Duration::from_secs(5);

/// How often (at most) the reactor rescans for idle sessions; also the
/// `epoll_wait` timeout, so the gauge refreshes even on a quiet tier.
const IDLE_SCAN_PERIOD: Duration = Duration::from_secs(1);

/// What a solve thread posts back to the reactor.
struct Completion {
    key: SessionKey,
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

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet terminated by `\n`.
    buf: Vec<u8>,
    out: OutboundQueue,
    /// Whether the poller registration currently includes write
    /// interest (tracked to skip redundant `epoll_ctl` calls).
    wants_write: bool,
}

/// Stops a running [`LiveReactor`] from any thread.
#[derive(Clone)]
pub struct LiveStopper {
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl LiveStopper {
    /// Raises the stop flag and wakes the reactor; [`LiveReactor::run`]
    /// returns promptly.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// The live listener's event loop. Construct with [`LiveReactor::new`],
/// keep a [`stopper`](LiveReactor::stopper), and give
/// [`run`](LiveReactor::run) a thread.
pub struct LiveReactor {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    metrics: Arc<SessionMetrics>,
    conns: HashMap<u64, Conn>,
    sessions: SessionTable,
    next_token: u64,
    tx: mpsc::Sender<Completion>,
    rx: mpsc::Receiver<Completion>,
    last_idle_scan: Instant,
    tuning: LiveTuning,
}

impl LiveReactor {
    /// Wraps a bound listener in a reactor serving `scheduler`.
    pub fn new(
        listener: TcpListener,
        scheduler: Arc<Scheduler>,
        metrics: Arc<SessionMetrics>,
        tuning: LiveTuning,
    ) -> std::io::Result<LiveReactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new()?);
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        let (tx, rx) = mpsc::channel();
        Ok(LiveReactor {
            listener,
            poller,
            waker,
            stop: Arc::new(AtomicBool::new(false)),
            scheduler,
            metrics: metrics.clone(),
            conns: HashMap::new(),
            sessions: SessionTable::new(metrics),
            next_token: FIRST_CONN_TOKEN,
            tx,
            rx,
            last_idle_scan: Instant::now(),
            tuning,
        })
    }

    /// A handle that stops the loop from another thread.
    pub fn stopper(&self) -> LiveStopper {
        LiveStopper {
            stop: self.stop.clone(),
            waker: self.waker.clone(),
        }
    }

    /// Runs the event loop until [`LiveStopper::stop`] (or an epoll
    /// failure, which cannot be serviced).
    pub fn run(mut self) {
        let mut events = Vec::new();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if self
                .poller
                .wait(&mut events, Some(IDLE_SCAN_PERIOD))
                .is_err()
            {
                return;
            }
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.drain_completions();
                    }
                    token => self.conn_ready(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            // Completions can land while the loop is busy with socket
            // events; a wake byte may already be drained by then, so
            // sweep the channel once per iteration regardless.
            self.drain_completions();
            self.maybe_scan_idle();
        }
    }

    /// Accepts every pending connection (the listener is nonblocking
    /// and level-triggered: stop at `WouldBlock`).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.tuning.send_buffer {
                        let _ = antlayer_reactor::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            buf: Vec::new(),
                            out: OutboundQueue::new(self.tuning.queue_cap),
                            wants_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Services one connection's readiness report.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        if !self.conns.contains_key(&token) {
            // Torn down earlier in this batch; events are stale.
            return;
        }
        if hangup {
            self.teardown(token);
            return;
        }
        if readable && !self.read_ready(token) {
            return; // torn down
        }
        if writable {
            self.write_ready(token);
        }
    }

    /// Drains the socket into the line buffer and handles every
    /// complete line. Returns `false` when the connection was torn
    /// down.
    fn read_ready(&mut self, token: u64) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    self.teardown(token);
                    return false;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if conn.buf.len() > MAX_LINE_BYTES {
                        self.teardown(token);
                        return false;
                    }
                    // Handle complete lines as they assemble; a line may
                    // arrive across many readiness events (the partial-
                    // frame tests feed one byte at a time).
                    while let Some(pos) = {
                        let conn = self.conns.get_mut(&token);
                        conn.and_then(|c| c.buf.iter().position(|&b| b == b'\n'))
                    } {
                        let line: Vec<u8> = {
                            let conn = self.conns.get_mut(&token).expect("checked above");
                            conn.buf.drain(..=pos).collect()
                        };
                        let text = String::from_utf8_lossy(&line);
                        self.handle_line(token, text.trim_end_matches(['\n', '\r']));
                        if !self.conns.contains_key(&token) {
                            return false;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return false;
                }
            }
        }
        true
    }

    /// Writes queued frames until the socket pushes back.
    fn write_ready(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(front) = conn.out.front() else {
                break;
            };
            match (&conn.stream).write(front) {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => conn.out.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Re-registers the connection with write interest iff frames are
    /// queued (skipping the syscall when nothing changed).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wants = !conn.out.is_empty();
        if wants == conn.wants_write {
            return;
        }
        let interest = if wants {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if self
            .poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.wants_write = wants;
        }
    }

    /// Drops a connection and every session it owned. In-flight solves
    /// for those sessions complete into nothing: their keys no longer
    /// resolve.
    fn teardown(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        self.sessions.remove_conn(token);
    }

    /// Parses and dispatches one inbound line.
    fn handle_line(&mut self, token: u64, line: &str) {
        if line.is_empty() {
            return;
        }
        let (request, env) = match protocol::parse_request_envelope(line) {
            Err((err, env)) => {
                self.enqueue_control(token, &Response::Error(err), &env);
                return;
            }
            Ok(parsed) => parsed,
        };
        match request {
            Request::Ping => {
                self.enqueue_control(token, &Response::Pong { router: false }, &env);
            }
            Request::SessionOpen(req) => self.handle_open(token, *req, env),
            Request::SessionDelta { delta } => self.handle_delta(token, delta, env),
            Request::SessionClose => self.handle_close(token, env),
            other => {
                let op = other.op();
                self.enqueue_control(
                    token,
                    &Response::Error(WireError::new(
                        ErrorKind::InvalidRequest,
                        format!(
                            "invalid request: '{op}' is a request/reply op; send it to the \
                             line-TCP or HTTP listener"
                        ),
                    )),
                    &env,
                );
            }
        }
    }

    /// The session key a v2 envelope addresses, or an error frame if
    /// the envelope cannot address one.
    fn session_key(
        &mut self,
        token: u64,
        env: &Envelope,
        op: &str,
    ) -> Option<(SessionKey, protocol::Json)> {
        match (&env.id, env.version) {
            (Some(id), 2) => Some(((token, id.encode()), id.clone())),
            _ => {
                self.enqueue_control(
                    token,
                    &Response::Error(WireError::new(
                        ErrorKind::InvalidRequest,
                        format!(
                            "invalid request: '{op}' requires a v2 envelope with an 'id' \
                             (the session key)"
                        ),
                    )),
                    env,
                );
                None
            }
        }
    }

    fn handle_open(&mut self, token: u64, req: LayoutRequest, env: Envelope) {
        let Some((key, id)) = self.session_key(token, &env, "session_open") else {
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
        let tx = self.tx.clone();
        let waker = self.waker.clone();
        let scheduler = self.scheduler.clone();
        // The solve must not block the reactor: a worker thread submits,
        // waits out the ticket (the scheduler pool computes), and wakes
        // the loop with the completion.
        std::thread::spawn(move || {
            let result = scheduler.submit(req).and_then(|t| t.wait());
            let _ = tx.send(Completion {
                key,
                epoch,
                kind: CompletionKind::Open(result),
            });
            waker.wake();
        });
    }

    fn handle_delta(&mut self, token: u64, delta: GraphDelta, env: Envelope) {
        let Some((key, _id)) = self.session_key(token, &env, "session_delta") else {
            return;
        };
        let now = Instant::now();
        let Some(session) = self.sessions.get_mut(&key) else {
            self.enqueue_control(
                token,
                &Response::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    "invalid request: no open session with this id on this connection; \
                     send session_open first",
                )),
                &env,
            );
            return;
        };
        if session.in_flight {
            // A solve is running (or the base layout is still being
            // computed): fold the edit into the pending set — the whole
            // burst costs one re-solve when the in-flight one lands.
            let queued = session.queue_delta(delta, now);
            if queued > 1 {
                self.metrics.coalesced.inc();
            }
            return;
        }
        let base = session
            .digest
            .expect("a session not in flight has its base layout");
        session.in_flight = true;
        session.last_activity = now;
        let epoch = session.epoch;
        let request = DeltaRequest {
            base,
            delta,
            algo: session.algo.clone(),
            nd_width: session.nd_width,
            deadline: session.deadline,
        };
        self.spawn_update_solve(key, epoch, request, 0, now);
    }

    fn handle_close(&mut self, token: u64, env: Envelope) {
        let Some((key, _id)) = self.session_key(token, &env, "session_close") else {
            return;
        };
        match self.sessions.remove(&key) {
            Some(session) => {
                self.enqueue_control(
                    token,
                    &Response::SessionClosed {
                        version: session.version,
                    },
                    &env,
                );
            }
            None => {
                self.enqueue_control(
                    token,
                    &Response::Error(WireError::new(
                        ErrorKind::InvalidRequest,
                        "invalid request: no open session with this id on this connection",
                    )),
                    &env,
                );
            }
        }
    }

    fn spawn_update_solve(
        &self,
        key: SessionKey,
        epoch: u64,
        request: DeltaRequest,
        coalesced: u64,
        since: Instant,
    ) {
        let tx = self.tx.clone();
        let waker = self.waker.clone();
        let scheduler = self.scheduler.clone();
        std::thread::spawn(move || {
            let result = scheduler.submit_delta(request).and_then(|t| t.wait());
            let _ = tx.send(Completion {
                key,
                epoch,
                kind: CompletionKind::Update {
                    result,
                    coalesced,
                    since,
                },
            });
            waker.wake();
        });
    }

    fn drain_completions(&mut self) {
        while let Ok(completion) = self.rx.try_recv() {
            self.handle_completion(completion);
        }
    }

    fn handle_completion(&mut self, completion: Completion) {
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
                self.enqueue_session(token, &completion.key.1, &frame, &Envelope::v2(Some(id)));
                self.start_pending(&completion.key);
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
                if self.enqueue_session(token, &completion.key.1, &frame, &Envelope::v2(Some(id))) {
                    self.metrics.pushes.inc();
                    self.metrics
                        .push_us
                        .record(since.elapsed().as_micros() as u64);
                }
                self.start_pending(&completion.key);
            }
            CompletionKind::Open(Err(e)) | CompletionKind::Update { result: Err(e), .. } => {
                // The session's server-side graph state is no longer
                // trustworthy (base evicted, delta rejected, …): close
                // it with the error; the client re-opens with its full
                // graph. `base_not_found` is the expected shape after a
                // shard drain moved the cache entry elsewhere.
                let id = self.sessions.remove(&completion.key).map(|s| s.id);
                self.enqueue_control(
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

    /// Starts the next solve if edits queued up while one was in
    /// flight.
    fn start_pending(&mut self, key: &SessionKey) {
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
        let epoch = session.epoch;
        self.spawn_update_solve(
            key.clone(),
            epoch,
            request,
            pending.count - 1,
            pending.since,
        );
    }

    /// Encodes and queues a frame that belongs to no session (errors,
    /// pong, close acks): never dropped.
    fn enqueue_control(&mut self, token: u64, response: &Response, env: &Envelope) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut bytes = response.encode(env).into_bytes();
        bytes.push(b'\n');
        conn.out.push_control(bytes);
        self.write_ready(token);
    }

    /// Encodes and queues a session-owned frame, evicting the session
    /// when its queue is over the cap (a consumer that is not draining).
    /// Returns whether the frame was queued.
    fn enqueue_session(
        &mut self,
        token: u64,
        session: &str,
        response: &Response,
        env: &Envelope,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut bytes = response.encode(env).into_bytes();
        bytes.push(b'\n');
        if conn.out.push_session(session, bytes) {
            self.write_ready(token);
            return true;
        }
        // Slow consumer: drop its backlog and the session itself, and
        // tell the client why (the control frame bypasses the cap).
        self.metrics.evicted.inc();
        conn.out.drop_session(session);
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
            let mut bytes = err.encode(&Envelope::v2(Some(removed.id))).into_bytes();
            bytes.push(b'\n');
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.out.push_control(bytes);
            }
        }
        self.write_ready(token);
        false
    }

    /// Rescans for idle sessions at most once per [`IDLE_SCAN_PERIOD`].
    fn maybe_scan_idle(&mut self) {
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
