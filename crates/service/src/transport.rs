//! The front door: one epoll loop per process that owns every listener
//! and frames every connection.
//!
//! The protocol layer ([`crate::protocol`]) defines *what* the messages
//! are; this module defines how they are framed. Three framings share
//! the loop, each fixed by the listener that accepted the connection:
//!
//! * **line** — newline-delimited JSON, one object per line each way.
//! * **HTTP** — a minimal hand-rolled HTTP/1.1 server: the request JSON
//!   is a `POST /v2` body with a `Content-Length` header, the response a
//!   `200 OK` JSON body. Keep-alive is the default (`Connection: close`
//!   and HTTP/1.0 close after the reply); `GET /healthz` answers the
//!   `ping` op, so load balancers can probe without speaking JSON. No
//!   external dependency: exactly the subset curl and standard clients
//!   emit for a JSON POST.
//! * **live** — streaming edit sessions, one JSON frame per line,
//!   answered by [`crate::live`].
//!
//! [`FrontDoor::spawn`] starts one thread parked in `epoll_wait`
//! ([`antlayer_reactor::Poller`]). Every connection is a nonblocking
//! state machine: an inbound buffer that assembles frames across any
//! number of reads, and an outbound queue written as the socket takes
//! it. The loop never runs a request: a line or HTTP payload goes to a
//! runner thread that calls the connection's [`Handler`] (made once per
//! connection) and posts the reply back through a channel plus a
//! [`Waker`], as live solves do. Runners are reused while work keeps
//! coming and exit when idle; none belongs to a connection. A connection reads and parses nothing
//! further until its reply is written, so pipelined requests are
//! answered in order, a client that sends without reading is pushed
//! back on, and one that half-closes still gets every complete request
//! answered.
//!
//! The connection cap counts line and HTTP connections, not live ones.
//! [`FrontDoorHandle::stop`] ends the loop, which drops every listener
//! and connection. `antlayer serve` and `antlayer route` differ only in
//! the handler they plug in.

use crate::live::{Completion, LiveTier, IDLE_SCAN_PERIOD};
use crate::session::OutboundQueue;
use antlayer_reactor::{Event, Interest, Poller, Waker};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request (line or HTTP body). Generous — a
/// million-node graph with 1.5M edges encodes to ~25 MB — but bounded,
/// so a newline-free stream (or a hostile `Content-Length`) cannot grow
/// a buffer without limit.
pub const MAX_REQUEST_BYTES: u64 = 64 * 1024 * 1024;

/// Longest accepted HTTP request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The HTTP route carrying protocol requests.
pub const HTTP_LAYOUT_ROUTE: &str = "POST /v2";
/// The HTTP liveness route (answers the `ping` op).
pub const HTTP_HEALTH_ROUTE: &str = "GET /healthz";
/// The HTTP metrics route (Prometheus text exposition).
pub const HTTP_METRICS_ROUTE: &str = "GET /metrics";

/// How a connection's payloads are answered.
///
/// [`respond`](Handler::respond) maps one protocol request payload to
/// one response payload — the only method the line framing ever calls.
/// [`metrics`](Handler::metrics) serves `GET /metrics` on the HTTP
/// framing; the default `None` turns the route into a 404, which is
/// what a bare closure (the blanket impl below) gets.
pub trait Handler {
    /// Answers one protocol request payload.
    fn respond(&mut self, line: &str) -> String;

    /// Renders the Prometheus metrics page, if this handler has one.
    fn metrics(&mut self) -> Option<String> {
        None
    }
}

/// Any `FnMut(&str) -> String` is a handler without a metrics page, so
/// tests and simple servers keep passing plain closures.
impl<F: FnMut(&str) -> String> Handler for F {
    fn respond(&mut self, line: &str) -> String {
        self(line)
    }
}

/// One parsed HTTP request head.
struct HttpHead {
    method: String,
    path: String,
    content_length: Option<u64>,
    close: bool,
}

/// Why parsing a head failed.
enum HeadError {
    /// Bytes that are not text; nothing sensible can be written back.
    Close,
    /// Malformed framing; answered with this status, then close.
    Bad(u16, &'static str),
}

/// The next line of `buf` from `*pos`, newline included, the way
/// `read_line` returns it: at EOF an unterminated tail is a line too.
/// `None` means more bytes are needed (or, at EOF, none are left).
fn head_line<'a>(buf: &'a [u8], pos: &mut usize, eof: bool) -> Result<Option<&'a str>, HeadError> {
    let rest = &buf[*pos..];
    let len = match rest.iter().position(|&b| b == b'\n') {
        Some(i) => i + 1,
        None if buf.len() > MAX_HEAD_BYTES => {
            return Err(HeadError::Bad(431, "request head too large"))
        }
        None if eof && !rest.is_empty() => rest.len(),
        None => return Ok(None),
    };
    *pos += len;
    if *pos > MAX_HEAD_BYTES {
        return Err(HeadError::Bad(431, "request head too large"));
    }
    std::str::from_utf8(&rest[..len])
        .map(Some)
        .map_err(|_| HeadError::Close)
}

/// Parses one request head off the front of `buf`: the request line
/// plus headers, up to the blank line. Returns the head and its length
/// in bytes, or `None` until the whole head has arrived (at EOF, `None`
/// means the stream ended between requests).
fn read_head(buf: &[u8], eof: bool) -> Result<Option<(HttpHead, usize)>, HeadError> {
    let mut pos = 0;
    // Request line. Tolerate a leading blank line (robustness note in
    // RFC 9112 §2.2).
    let line = loop {
        match head_line(buf, &mut pos, eof)? {
            None => return Ok(None),
            Some(line) if line.trim().is_empty() => continue,
            Some(line) => break line,
        }
    };
    let mut parts = line.trim_end().split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HeadError::Bad(400, "malformed HTTP request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HeadError::Bad(505, "only HTTP/1.x is supported"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut head = HttpHead {
        method: method.to_string(),
        path: path.to_string(),
        content_length: None,
        close: version == "HTTP/1.0",
    };
    // Headers until the blank line.
    loop {
        let Some(line) = head_line(buf, &mut pos, eof)? else {
            return match eof {
                true => Err(HeadError::Bad(400, "truncated HTTP head")),
                false => Ok(None),
            };
        };
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(Some((head, pos)));
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HeadError::Bad(400, "malformed HTTP header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<u64>() {
                Ok(n) => head.content_length = Some(n),
                Err(_) => return Err(HeadError::Bad(400, "malformed Content-Length")),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                head.close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                head.close = false;
            }
        }
        // Every other header is tolerated and ignored.
    }
}

/// Content type of the `GET /metrics` page (Prometheus text exposition).
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The 404 reason of `GET /metrics` on a handler without a metrics page.
const NO_METRICS: &str = "unknown op 'http route GET /metrics' (this handler exposes no metrics)";

/// Writes one HTTP/1.1 response with a JSON body (a trailing newline is
/// appended and counted, so `curl` output ends cleanly).
fn write_http(writer: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_http_typed(writer, status, "application/json", body)
}

/// [`write_http`] with an explicit content type (`GET /metrics` serves
/// Prometheus text, not JSON).
fn write_http_typed(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    };
    // A trailing newline is appended and counted; for the metrics page
    // it is only added when the body does not already end with one
    // (Prometheus text ends each sample with '\n').
    let newline = if body.ends_with('\n') { "" } else { "\n" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}{newline}",
        body.len() + newline.len()
    )?;
    writer.flush()
}

/// One HTTP response with a JSON body, as bytes.
fn http_reply(status: u16, body: &str) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = write_http(&mut out, status, body);
    out
}

/// An HTTP response whose body is the protocol error `reason`.
fn http_error(status: u16, reason: &str) -> Vec<u8> {
    http_reply(status, &crate::protocol::encode_error(reason))
}

/// How a connection frames its traffic; fixed by its listener.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Framing {
    Line,
    Http,
    Live,
}

/// A request for a connection's [`Handler`], run off the loop: it
/// returns the framed reply and whether the connection closes after it.
type Job = Box<dyn FnOnce(&mut dyn Handler) -> (Vec<u8>, bool) + Send>;

fn job(f: impl FnOnce(&mut dyn Handler) -> (Vec<u8>, bool) + Send + 'static) -> Job {
    Box::new(f)
}

/// What a connection's buffered input holds next.
enum Step {
    /// No complete frame yet.
    Wait,
    /// A framing error: send these bytes (possibly none), then close.
    Fail(Vec<u8>),
    /// A request for the handler.
    Job(Job),
    /// One live-session frame.
    Live(Vec<u8>),
}

/// Work finished off the loop, posted back to it.
pub(crate) enum Done {
    /// A request/reply connection's framed answer, with its handler.
    Reply {
        token: u64,
        handler: Box<dyn Handler + Send>,
        bytes: Vec<u8>,
        close: bool,
    },
    /// A live session's solve.
    Live(Completion),
    /// A job that panicked; its connection is closed.
    Lost(u64),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    framing: Framing,
    /// Bytes read but not yet consumed as a frame.
    inbuf: Vec<u8>,
    /// Prefix of `inbuf` already searched for a newline, so a long line
    /// arriving in many reads is scanned once.
    scanned: usize,
    out: OutboundQueue,
    /// The interest registered with the poller.
    interest: Interest,
    /// The request/reply handler; `None` on live connections and while
    /// a reply is being computed off the loop.
    handler: Option<Box<dyn Handler + Send>>,
    /// Off-loop jobs (a reply, live solves) not yet posted back.
    pending: usize,
    /// The peer half-closed: answer what is buffered, then close.
    eof: bool,
    /// Close as soon as `out` drains; parse nothing more.
    closing: bool,
    /// The socket failed; torn down at the next settle.
    broken: bool,
}

impl Conn {
    /// A line or HTTP connection answers one request at a time: while a
    /// reply is being computed or written it reads and parses nothing,
    /// which pushes back on a client that sends without reading.
    fn busy(&self) -> bool {
        self.framing != Framing::Live && (self.pending > 0 || !self.out.is_empty())
    }

    fn wants_read(&self) -> bool {
        !self.eof && !self.closing && !self.broken && !self.busy()
    }

    /// Writes queued frames until the socket pushes back.
    fn write(&mut self) {
        while let Some(front) = self.out.front() {
            match (&self.stream).write(front) {
                Ok(0) => break,
                Ok(n) => self.out.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if !self.out.is_empty() {
            self.broken = true;
        }
    }

    /// The next line, newline included, the way `read_line` returns it:
    /// at EOF an unterminated tail is a line too. `Err` carries the
    /// error reply for a line over [`MAX_REQUEST_BYTES`].
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, Vec<u8>> {
        let max = MAX_REQUEST_BYTES as usize;
        let newline = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n');
        let end = match newline {
            Some(i) => self.scanned + i + 1,
            None if self.inbuf.len() < max && self.eof && !self.inbuf.is_empty() => {
                self.inbuf.len()
            }
            None if self.inbuf.len() < max => {
                self.scanned = self.inbuf.len();
                return Ok(None);
            }
            None => max + 1,
        };
        if end > max {
            let error = crate::protocol::encode_error(&format!(
                "request line exceeds {MAX_REQUEST_BYTES} bytes"
            ));
            return Err(format!("{error}\n").into_bytes());
        }
        self.scanned = 0;
        let rest = self.inbuf.split_off(end);
        Ok(Some(std::mem::replace(&mut self.inbuf, rest)))
    }

    /// The next step of a line or live connection. Blank request lines
    /// are skipped.
    fn line_step(&mut self) -> Step {
        loop {
            let line = match self.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return Step::Wait,
                Err(reply) => return Step::Fail(reply),
            };
            if self.framing == Framing::Live {
                return Step::Live(line);
            }
            // A line that is not UTF-8 ends the connection without a
            // reply.
            let Ok(mut text) = String::from_utf8(line) else {
                return Step::Fail(Vec::new());
            };
            if !text.trim().is_empty() {
                text.truncate(text.trim_end().len());
                let reply = job(move |h| (format!("{}\n", h.respond(&text)).into_bytes(), false));
                return Step::Job(reply);
            }
        }
    }

    /// The next step of an HTTP connection: one complete request,
    /// routed, or the framing error that answers it.
    fn http_step(&mut self) -> Step {
        let (head, head_len) = match read_head(&self.inbuf, self.eof) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return Step::Wait,
            Err(HeadError::Close) => return Step::Fail(Vec::new()),
            Err(HeadError::Bad(status, reason)) => return Step::Fail(http_error(status, reason)),
        };
        let route = format!("{} {}", head.method, head.path);
        let close = head.close;
        let (job, consumed) = match route.as_str() {
            HTTP_LAYOUT_ROUTE => {
                let Some(length) = head.content_length else {
                    return Step::Fail(http_error(
                        411,
                        "invalid request: POST /v2 needs a Content-Length header",
                    ));
                };
                if length > MAX_REQUEST_BYTES {
                    return Step::Fail(http_error(
                        413,
                        &format!("request body exceeds {MAX_REQUEST_BYTES} bytes"),
                    ));
                }
                // The body may arrive in any number of TCP segments.
                let end = head_len + length as usize;
                if self.inbuf.len() < end {
                    return Step::Wait;
                }
                let Ok(body) = String::from_utf8(self.inbuf[head_len..end].to_vec()) else {
                    return Step::Fail(http_error(400, "bad JSON: body is not UTF-8"));
                };
                // Application-level errors (bad JSON included) are a 200
                // with `ok:false`, as on the line framing: the connection
                // stays usable.
                let answer = job(move |h| (http_reply(200, &h.respond(body.trim())), close));
                (answer, end)
            }
            HTTP_HEALTH_ROUTE => {
                let ping = r#"{"op":"ping"}"#;
                (
                    job(move |h| (http_reply(200, &h.respond(ping)), close)),
                    head_len,
                )
            }
            HTTP_METRICS_ROUTE => {
                let page = job(move |h| match h.metrics() {
                    // Prometheus text exposition, not JSON: typed accordingly.
                    Some(text) => {
                        let mut page = Vec::new();
                        let _ = write_http_typed(&mut page, 200, METRICS_CONTENT_TYPE, &text);
                        (page, close)
                    }
                    None => (http_error(404, NO_METRICS), true),
                });
                (page, head_len)
            }
            _ => {
                // Close after answering, as PROTOCOL.md promises for
                // every 4xx: the unread request body (if any) would
                // otherwise desync the keep-alive stream.
                let known = ["/v2", "/healthz", "/metrics"];
                let status = if known.contains(&head.path.as_str()) {
                    405
                } else {
                    404
                };
                return Step::Fail(http_error(
                    status,
                    &format!(
                        "unknown op 'http route {route}' (this server serves \
                         POST /v2, GET /healthz, and GET /metrics)"
                    ),
                ));
            }
        };
        self.inbuf.drain(..consumed);
        Step::Job(job)
    }
}

/// The loop's connections, plus what off-loop work needs to post back.
/// [`crate::live`] queues its frames and starts its solves through it.
pub(crate) struct Conns {
    poller: Poller,
    map: HashMap<u64, Conn>,
    waker: Arc<Waker>,
    tx: mpsc::Sender<Done>,
    runners: Runners,
}

/// A task for a runner thread.
type Task = Box<dyn FnOnce() + Send>;

/// How long a runner thread waits for another task before it exits.
const RUNNER_IDLE: Duration = Duration::from_secs(1);

/// The threads that run requests and solves off the loop. A waiting
/// runner takes the next task; when none is waiting a new one starts,
/// and one that waits [`RUNNER_IDLE`] for nothing exits. No thread
/// belongs to a connection and a quiet process keeps none, yet a busy
/// one does not pay a thread start per request.
struct Runners {
    tx: mpsc::Sender<Task>,
    rx: Arc<Mutex<mpsc::Receiver<Task>>>,
    /// Waiting runners that no sent task has claimed yet.
    idle: Arc<AtomicUsize>,
}

impl Runners {
    fn new() -> Runners {
        let (tx, rx) = mpsc::channel();
        let (rx, idle) = (Arc::new(Mutex::new(rx)), Arc::default());
        Runners { tx, rx, idle }
    }

    fn run(&self, task: Task) -> std::io::Result<()> {
        let claim = |n: usize| n.checked_sub(1);
        if self
            .idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, claim)
            .is_err()
        {
            let (rx, idle) = (self.rx.clone(), self.idle.clone());
            std::thread::Builder::new().spawn(move || loop {
                let next = rx.lock().recv_timeout(RUNNER_IDLE);
                match next {
                    Ok(task) => {
                        task();
                        idle.fetch_add(1, Ordering::AcqRel);
                    }
                    // Claimed while timing out: the task is on its way.
                    Err(mpsc::RecvTimeoutError::Timeout)
                        if idle
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, claim)
                            .is_err() => {}
                    Err(_) => return,
                }
            })?;
        }
        let _ = self.tx.send(task);
        Ok(())
    }
}

impl Conns {
    /// A connection's outbound queue; the loop writes it out when the
    /// event at hand has been handled.
    pub(crate) fn out(&mut self, token: u64) -> Option<&mut OutboundQueue> {
        self.map.get_mut(&token).map(|conn| &mut conn.out)
    }

    /// Runs `job` on a runner thread and posts what it returns back to
    /// the loop. A connection whose work cannot start is closed.
    pub(crate) fn spawn(&mut self, token: u64, job: impl FnOnce() -> Done + Send + 'static) {
        let Some(conn) = self.map.get_mut(&token) else {
            return;
        };
        let (tx, waker) = (self.tx.clone(), self.waker.clone());
        let started = self.runners.run(Box::new(move || {
            let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let _ = tx.send(done.unwrap_or(Done::Lost(token)));
            waker.wake();
        }));
        match started {
            Ok(_) => conn.pending += 1,
            Err(_) => conn.broken = true,
        }
    }
}

/// The waker's readiness token; listener `i` is token `i + 1`.
const TOKEN_WAKER: u64 = 0;

/// The event loop [`FrontDoor::spawn`] runs.
struct Reactor {
    conns: Conns,
    /// Line first, then HTTP and live when bound.
    listeners: Vec<(TcpListener, Framing)>,
    rx: mpsc::Receiver<Done>,
    live: Option<LiveTier>,
    new_handler: Box<dyn Fn() -> Box<dyn Handler + Send> + Send>,
    max_connections: usize,
    /// Line and HTTP connections currently open.
    connections: usize,
    /// Never reused, so a stale event or reply for a torn-down
    /// connection can never address a new one.
    next_token: u64,
    shutdown: Arc<AtomicBool>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            let waited = self.conns.poller.wait(&mut events, Some(IDLE_SCAN_PERIOD));
            if waited.is_err() {
                return;
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_WAKER => self.conns.waker.drain(),
                    // A listener: accept until `WouldBlock` (level-triggered,
                    // so anything left is reported again).
                    t if t <= self.listeners.len() as u64 => {
                        let framing = self.listeners[t as usize - 1].1;
                        while let Ok((stream, _)) = self.listeners[t as usize - 1].0.accept() {
                            self.admit(stream, framing);
                        }
                    }
                    token => self.conn_ready(token, ev),
                }
            }
            // Replies can land while the loop is busy with socket events;
            // a wake byte may already be drained by then, so sweep the
            // channel once per iteration regardless.
            while let Ok(done) = self.rx.try_recv() {
                self.complete(done);
            }
            if let Some(live) = &mut self.live {
                live.maybe_scan_idle();
            }
        }
    }

    /// Registers one accepted connection, or answers it `overloaded`
    /// and closes it when it would exceed the cap.
    fn admit(&mut self, stream: TcpStream, framing: Framing) {
        let mut out = OutboundQueue::new(0);
        match &self.live {
            Some(live) if framing == Framing::Live => {
                let tuning = &live.tuning;
                if let Some(bytes) = tuning.send_buffer {
                    let _ = antlayer_reactor::set_send_buffer(stream.as_raw_fd(), bytes);
                }
                out = OutboundQueue::new(tuning.queue_cap);
            }
            _ if self.connections >= self.max_connections => {
                // Written before any request is read, so it has the v1
                // shape: the message prefix names the kind. The socket
                // is still blocking, and a fresh send buffer takes it.
                let error = crate::protocol::encode_error(&format!(
                    "overloaded: {} connections (cap {})",
                    self.connections + 1,
                    self.max_connections
                ));
                let _ = (&stream).write_all(&match framing {
                    Framing::Http => http_reply(503, &error),
                    _ => format!("{error}\n").into_bytes(),
                });
                return;
            }
            _ => self.connections += 1,
        }
        let handler = (framing != Framing::Live).then(|| (self.new_handler)());
        let token = self.next_token;
        self.next_token += 1;
        // One small request, one small response: Nagle + delayed ACK
        // would add ~40 ms to every exchange.
        let _ = stream.set_nodelay(true);
        let registered = stream.set_nonblocking(true).and_then(|()| {
            let fd = stream.as_raw_fd();
            self.conns.poller.register(fd, token, Interest::READABLE)
        });
        let conn = Conn {
            stream,
            framing,
            inbuf: Vec::new(),
            scanned: 0,
            out,
            interest: Interest::READABLE,
            handler,
            pending: 0,
            eof: false,
            closing: false,
            broken: registered.is_err(),
        };
        self.conns.map.insert(token, conn);
        self.settle(token);
    }

    /// Services one connection's readiness report.
    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some(conn) = self.conns.map.get(&token) else {
            return; // torn down earlier in this batch; the event is stale
        };
        // With no read pending, a hangup is an error or a reset: the
        // peer is gone. Otherwise it may be a half-close, which reading
        // tells apart.
        if ev.hangup && !conn.wants_read() {
            self.teardown(token);
            return;
        }
        if let Some(conn) = self.conns.map.get_mut(&token) {
            conn.write();
        }
        if ev.readable || ev.hangup {
            self.read_ready(token);
        }
        // Requests buffered behind a reply that has now drained.
        self.process(token);
        self.settle(token);
    }

    /// Reads while the connection wants input, handling every frame as
    /// it assembles.
    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.map.get_mut(&token) else {
                return;
            };
            if !conn.wants_read() {
                return;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => conn.eof = true,
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.broken = true;
                    return;
                }
            }
            self.process(token);
        }
    }

    /// Handles the complete frames buffered on a connection. A request
    /// for the handler goes off the loop, and nothing further is parsed
    /// until its reply is written.
    fn process(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.map.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.broken || conn.busy() {
                return;
            }
            let step = match conn.framing {
                Framing::Http => conn.http_step(),
                _ => conn.line_step(),
            };
            match step {
                Step::Wait => return,
                Step::Fail(reply) => {
                    if !reply.is_empty() {
                        conn.out.push_control(reply);
                    }
                    conn.closing = true;
                }
                Step::Job(job) => {
                    let Some(mut handler) = conn.handler.take() else {
                        return;
                    };
                    self.conns.spawn(token, move || {
                        let (bytes, close) = job(&mut *handler);
                        Done::Reply {
                            token,
                            handler,
                            bytes,
                            close,
                        }
                    });
                }
                Step::Live(line) => {
                    if let Some(live) = &mut self.live {
                        let text = String::from_utf8_lossy(&line);
                        live.handle_line(
                            &mut self.conns,
                            token,
                            text.trim_end_matches(['\n', '\r']),
                        );
                    }
                }
            }
        }
    }

    /// Folds finished off-loop work back into its connection.
    fn complete(&mut self, done: Done) {
        let token = match &done {
            Done::Reply { token, .. } | Done::Lost(token) => *token,
            Done::Live(completion) => completion.key.0,
        };
        let Some(conn) = self.conns.map.get_mut(&token) else {
            return; // the connection is gone; so is the answer
        };
        conn.pending -= 1;
        match done {
            Done::Reply {
                handler,
                bytes,
                close,
                ..
            } => {
                conn.handler = Some(handler);
                conn.out.push_control(bytes);
                conn.closing |= close;
                conn.write();
                // The next pipelined request, if one is buffered.
                self.process(token);
            }
            Done::Live(completion) => {
                if let Some(live) = &mut self.live {
                    live.handle_completion(&mut self.conns, completion);
                }
            }
            Done::Lost(_) => conn.broken = true,
        }
        self.settle(token);
    }

    /// Writes what the socket takes, then closes the connection if it
    /// is done — broken, or drained and either closing or at EOF with
    /// nothing in flight — or else registers the interest its state
    /// calls for.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.map.get_mut(&token) else {
            return;
        };
        conn.write();
        let drained = conn.out.is_empty();
        if conn.broken || (drained && (conn.closing || (conn.eof && conn.pending == 0))) {
            self.teardown(token);
            return;
        }
        let wanted = Interest {
            readable: conn.wants_read(),
            writable: !drained,
        };
        if wanted != conn.interest
            && self
                .conns
                .poller
                .modify(conn.stream.as_raw_fd(), token, wanted)
                .is_ok()
        {
            conn.interest = wanted;
        }
    }

    /// Drops a connection, its cap slot and every session it owned.
    /// Replies and solves still in flight for it complete into nothing.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.map.remove(&token) else {
            return;
        };
        let _ = self.conns.poller.deregister(conn.stream.as_raw_fd());
        match (&mut self.live, conn.framing) {
            (Some(live), Framing::Live) => live.remove_conn(token),
            _ => self.connections -= 1,
        }
    }
}

/// A bound, not-yet-serving front door: a line-TCP listener plus an
/// optional HTTP listener under one connection cap, and the server's
/// optional live listener.
///
/// [`spawn`](FrontDoor::spawn) serves every connection on one loop
/// thread. A line or HTTP connection beyond the cap is answered with an
/// `overloaded` error (a `503` on HTTP) and closed.
pub struct FrontDoor {
    /// Line first, then HTTP and live when bound.
    listeners: Vec<(TcpListener, Framing)>,
    max_connections: usize,
    shutdown: Arc<AtomicBool>,
    live: Option<LiveTier>,
}

impl FrontDoor {
    /// Binds `addr` (line TCP) and, when given, `http_addr`; at most
    /// `max_connections` connections are served at once across both.
    pub fn bind(
        addr: &str,
        http_addr: Option<&str>,
        max_connections: usize,
    ) -> std::io::Result<FrontDoor> {
        let mut listeners = vec![(TcpListener::bind(addr)?, Framing::Line)];
        if let Some(addr) = http_addr {
            listeners.push((TcpListener::bind(addr)?, Framing::Http));
        }
        Ok(FrontDoor {
            listeners,
            max_connections,
            shutdown: Arc::new(AtomicBool::new(false)),
            live: None,
        })
    }

    /// Adds the live-session listener, whose connections `tier` answers.
    pub(crate) fn serve_live(&mut self, listener: TcpListener, tier: LiveTier) {
        self.listeners.push((listener, Framing::Live));
        self.live = Some(tier);
    }

    /// The actually-bound line-TCP address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listeners[0].0.local_addr()
    }

    /// The actually-bound HTTP address, when an HTTP listener exists.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        let (listener, _) = self.listeners.iter().find(|(_, f)| *f == Framing::Http)?;
        listener.local_addr().ok()
    }

    /// The flag [`FrontDoorHandle::stop`] raises, for threads that must
    /// stop on the same shutdown (the router's probe).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Starts the loop thread (`{name}-loop`). Each admitted line or
    /// HTTP connection gets its handler from `new_handler`.
    pub fn spawn<H, F>(self, name: &str, new_handler: F) -> std::io::Result<FrontDoorHandle>
    where
        H: Handler + Send + 'static,
        F: Fn() -> H + Send + Sync + 'static,
    {
        let addr = self.local_addr()?;
        let http_addr = self.http_addr();
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        for (i, (listener, _)) in self.listeners.iter().enumerate() {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), i as u64 + 1, Interest::READABLE)?;
        }
        let (tx, rx) = mpsc::channel();
        let reactor = Reactor {
            conns: Conns {
                poller,
                map: HashMap::new(),
                waker: waker.clone(),
                tx,
                runners: Runners::new(),
            },
            next_token: self.listeners.len() as u64 + 1,
            listeners: self.listeners,
            rx,
            live: self.live,
            new_handler: Box::new(move || Box::new(new_handler()) as Box<dyn Handler + Send>),
            max_connections: self.max_connections,
            connections: 0,
            shutdown: self.shutdown.clone(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("{name}-loop"))
            .spawn(move || reactor.run())?;
        Ok(FrontDoorHandle {
            addr,
            http_addr,
            shutdown: self.shutdown,
            waker,
            thread: Some(thread),
        })
    }
}

/// A front door serving on its loop thread; dropping it stops it.
pub struct FrontDoorHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl FrontDoorHandle {
    /// The line-TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP address, when an HTTP listener is serving.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Blocks the calling thread for as long as the loop runs.
    pub fn wait(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Stops the loop, which drops every listener and connection. After
    /// this returns, nothing answers on the front door's ports: clients
    /// observe EOF, a reset or a refused connection, exactly as from a
    /// crashed process, which is what failover tests and fleet health
    /// checks rely on.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.waker.wake();
        self.wait();
    }
}

impl Drop for FrontDoorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;

    #[test]
    fn route_constants_match_what_serve_dispatches_on() {
        // The docs-check script greps these literals; the dispatch above
        // compares against the same constants, so they cannot drift.
        assert_eq!(HTTP_LAYOUT_ROUTE, "POST /v2");
        assert_eq!(HTTP_HEALTH_ROUTE, "GET /healthz");
        assert_eq!(HTTP_METRICS_ROUTE, "GET /metrics");
    }

    #[test]
    fn metrics_page_is_typed_as_prometheus_text() {
        let mut out = Vec::new();
        write_http_typed(&mut out, 200, METRICS_CONTENT_TYPE, "m_total 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        // The body already ends with '\n'; no second newline is added.
        assert!(head.contains("Content-Length: 10"), "{head}");
        assert_eq!(body, "m_total 1\n");
    }

    #[test]
    fn closures_are_handlers_without_metrics() {
        let mut f = |line: &str| format!("echo {line}");
        let h: &mut dyn Handler = &mut f;
        assert_eq!(h.respond("x"), "echo x");
        assert!(h.metrics().is_none());
    }

    #[test]
    fn http_response_lengths_are_exact() {
        let mut out = Vec::new();
        write_http(&mut out, 200, r#"{"ok":true}"#).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("Content-Length: 12"));
        assert_eq!(body, "{\"ok\":true}\n");
    }

    #[test]
    fn http_head_assembles_across_partial_reads() {
        let request = b"\r\nPOST /v2 HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let head_len = request.len() - 2;
        // Every strict prefix of the head is incomplete, not an error.
        for cut in 0..head_len {
            assert!(
                matches!(read_head(&request[..cut], false), Ok(None)),
                "cut {cut}"
            );
        }
        let Ok(Some((head, len))) = read_head(request, false) else {
            panic!("the whole head has arrived");
        };
        assert_eq!((head.method.as_str(), head.path.as_str()), ("POST", "/v2"));
        assert_eq!(
            (head.content_length, head.close, len),
            (Some(2), true, head_len)
        );
        // At EOF an unterminated request line still counts, and a head
        // without its blank line is truncated.
        assert!(matches!(
            read_head(&request[..20], true),
            Err(HeadError::Bad(400, "truncated HTTP head"))
        ));
        // Only blank lines before EOF: no request at all.
        assert!(matches!(read_head(b"\r\n", true), Ok(None)));
    }

    #[test]
    fn oversized_http_head_is_431_before_it_completes() {
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 1, b'a');
        assert!(matches!(
            read_head(&head, false),
            Err(HeadError::Bad(431, _))
        ));
    }

    #[test]
    fn runners_reuse_an_idle_thread_then_let_it_go() {
        let runners = Runners::new();
        let (tx, rx) = mpsc::channel();
        let mut ids = Vec::new();
        for _ in 0..2 {
            let tx = tx.clone();
            let task = move || tx.send(std::thread::current().id()).unwrap();
            runners.run(Box::new(task)).unwrap();
            ids.push(rx.recv().unwrap());
            while runners.idle.load(Ordering::Acquire) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(ids[0], ids[1], "the waiting runner took the second task");
        let deadline = std::time::Instant::now() + RUNNER_IDLE * 10;
        while runners.idle.load(Ordering::Acquire) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the idle runner never exited"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A front door that echoes every request, capped at one connection.
    fn echo_door() -> FrontDoorHandle {
        FrontDoor::bind("127.0.0.1:0", Some("127.0.0.1:0"), 1)
            .unwrap()
            .spawn("test-door", || |line: &str| line.to_string())
            .unwrap()
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// A line client whose first request has been answered, so the
    /// front door has admitted and counted it.
    fn held_line(door: &FrontDoorHandle) -> BufReader<TcpStream> {
        let mut client = BufReader::new(connect(door.addr()));
        client.get_mut().write_all(b"hello\n").unwrap();
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        assert_eq!(line, "hello\n");
        client
    }

    /// The same for an HTTP keep-alive client.
    fn held_http(door: &FrontDoorHandle) -> TcpStream {
        let mut client = connect(door.http_addr().unwrap());
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let expected = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                        Content-Length: 14\r\n\r\n{\"op\":\"ping\"}\n";
        let mut reply = vec![0; expected.len()];
        client.read_exact(&mut reply).unwrap();
        assert_eq!(String::from_utf8(reply).unwrap(), expected);
        client
    }

    /// The rejection a second connection gets while one is held. It is
    /// written before any request is read, so it has the v1 shape: the
    /// message prefix, not a `kind` member, names the kind.
    fn overloaded() -> &'static str {
        let kind = crate::protocol::ErrorKind::classify("overloaded: 2 connections (cap 1)");
        assert!(matches!(kind, crate::protocol::ErrorKind::Overloaded));
        r#"{"error":"overloaded: 2 connections (cap 1)","ok":false}"#
    }

    /// Reads a line connection's one reply line, then expects EOF.
    fn rejected_line(addr: SocketAddr) -> String {
        let mut client = BufReader::new(connect(addr));
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        let mut rest = String::new();
        assert_eq!(client.read_line(&mut rest).unwrap(), 0, "EOF after {line}");
        line.trim_end().to_string()
    }

    #[test]
    fn line_connection_over_the_cap_reads_overloaded_then_eof() {
        let door = echo_door();
        let _held = held_line(&door);
        assert_eq!(rejected_line(door.addr()), overloaded());
    }

    #[test]
    fn http_connection_over_the_cap_gets_503_with_the_same_body() {
        let door = echo_door();
        let _held = held_line(&door);
        let mut reply = String::new();
        connect(door.http_addr().unwrap())
            .read_to_string(&mut reply)
            .unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{reply}"
        );
        let (_, body) = reply.split_once("\r\n\r\n").unwrap();
        assert_eq!(body.trim_end(), overloaded());
    }

    #[test]
    fn cap_is_one_count_across_both_listeners() {
        // Held on HTTP, rejected on line TCP: the reverse direction is
        // the 503 test above.
        let door = echo_door();
        let _held = held_http(&door);
        assert_eq!(rejected_line(door.addr()), overloaded());
    }

    #[test]
    fn closed_connection_frees_its_slot() {
        let door = echo_door();
        drop(held_line(&door));
        // The count drops on the handler thread after it sees EOF, so
        // a new connection may still be rejected for a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut client = BufReader::new(connect(door.addr()));
            let _ = client.get_mut().write_all(b"again\n");
            let mut line = String::new();
            let _ = client.read_line(&mut line);
            if line == "again\n" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the freed slot was never reused; last reply {line:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn half_closed_client_still_gets_every_buffered_request_answered() {
        let door = FrontDoor::bind("127.0.0.1:0", Some("127.0.0.1:0"), 2)
            .unwrap()
            .spawn("test-door", || |line: &str| line.to_string())
            .unwrap();
        // Line: a blank line is skipped; an unterminated last line at
        // EOF is still a request.
        let mut line = connect(door.addr());
        line.write_all(b"a\n\nb\nc").unwrap();
        line.shutdown(Shutdown::Write).unwrap();
        let mut replies = String::new();
        line.read_to_string(&mut replies).unwrap();
        assert_eq!(replies, "a\nb\nc\n");
        // HTTP: two pipelined requests, answered in order.
        let mut http = connect(door.http_addr().unwrap());
        for body in ["1", "2"] {
            write!(http, "POST /v2 HTTP/1.1\r\nContent-Length: 1\r\n\r\n{body}").unwrap();
        }
        http.shutdown(Shutdown::Write).unwrap();
        let mut replies = String::new();
        http.read_to_string(&mut replies).unwrap();
        let bodies: Vec<&str> = replies
            .split("HTTP/1.1 200 OK\r\n")
            .skip(1)
            .map(|reply| reply.split_once("\r\n\r\n").unwrap().1)
            .collect();
        assert_eq!(bodies, ["1\n", "2\n"], "{replies}");
    }

    #[test]
    fn a_handler_that_panics_closes_only_its_connection() {
        let door = FrontDoor::bind("127.0.0.1:0", None, 2)
            .unwrap()
            .spawn("test-door", || {
                |line: &str| {
                    assert_ne!(line, "boom", "handler failure under test");
                    line.to_string()
                }
            })
            .unwrap();
        let mut bystander = held_line(&door);
        let mut victim = BufReader::new(connect(door.addr()));
        victim.get_mut().write_all(b"boom\n").unwrap();
        let mut line = String::new();
        assert_eq!(victim.read_line(&mut line).unwrap(), 0, "read {line:?}");
        bystander.get_mut().write_all(b"still here\n").unwrap();
        bystander.read_line(&mut line).unwrap();
        assert_eq!(line, "still here\n");
    }

    #[test]
    fn stop_severs_open_connections() {
        let mut door = echo_door();
        let mut held = held_line(&door);
        door.stop();
        let mut line = String::new();
        assert_eq!(held.read_line(&mut line).unwrap(), 0, "read {line:?}");
    }
}
