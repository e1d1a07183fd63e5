//! Transport framing: how one JSON request/response pair travels over a
//! TCP connection.
//!
//! The protocol layer ([`crate::protocol`]) defines *what* the messages
//! are; a [`Transport`] defines *how they are framed*. Two framings are
//! supported, both speaking the identical JSON (v1 or v2, the framing
//! does not care):
//!
//! * [`LineTransport`] — the original newline-delimited framing: one
//!   JSON object per line, in both directions.
//! * [`HttpTransport`] — a minimal hand-rolled HTTP/1.1 server: the
//!   request JSON travels as a `POST /v2` body with a `Content-Length`
//!   header, the response as a `200 OK` JSON body. Keep-alive is the
//!   default (`Connection: close` honored); `GET /healthz` answers the
//!   `ping` op, so load balancers can probe without speaking JSON. No
//!   external dependency — the server implements exactly the HTTP/1.1
//!   subset described here, which is what curl and standard HTTP
//!   clients emit for a JSON POST.
//!
//! Adding a framing never touches the scheduler, cache, or routing
//! layers.
//!
//! The [`FrontDoor`] owns everything between `accept` and a framing:
//! it binds the line listener plus an optional HTTP listener, caps the
//! connections served at once across both, gives each connection a
//! thread and a fresh [`Handler`], and on stop severs whatever is still
//! open. `antlayer serve` and `antlayer route` differ only in the
//! handler they plug in.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// One connection-serving strategy: reads requests off the stream, calls
/// the handler once per request payload, writes the replies back.
pub trait Transport: Send + Sync + 'static {
    /// Serves one accepted connection until EOF, error, or (HTTP)
    /// `Connection: close`. [`Handler::respond`] maps one request
    /// payload to one response payload; transport-level failures
    /// (malformed framing, oversized requests) are answered by the
    /// transport itself.
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler);

    /// Writes a one-shot rejection (connection-cap overload) and closes.
    /// `error_line` is an already-encoded protocol error object.
    fn reject(&self, stream: TcpStream, error_line: &str);
}

/// The newline-delimited framing: one JSON object per line.
pub struct LineTransport;

impl Transport for LineTransport {
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler) {
        let mut reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let mut writer = BufWriter::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            // Bound each read: `take` caps how much one line may buffer.
            match (&mut reader).take(MAX_REQUEST_BYTES).read_line(&mut line) {
                Ok(0) => break, // clean EOF
                Ok(n) => {
                    if n as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
                        let _ = writeln!(
                            writer,
                            "{}",
                            crate::protocol::encode_error(&format!(
                                "request line exceeds {MAX_REQUEST_BYTES} bytes"
                            ))
                        );
                        let _ = writer.flush();
                        break;
                    }
                }
                Err(_) => break,
            }
            if line.trim().is_empty() {
                continue;
            }
            let reply = handler.respond(line.trim_end());
            if writeln!(writer, "{reply}")
                .and_then(|_| writer.flush())
                .is_err()
            {
                break;
            }
        }
    }

    fn reject(&self, stream: TcpStream, error_line: &str) {
        let mut w = BufWriter::new(&stream);
        let _ = writeln!(w, "{error_line}");
        let _ = w.flush();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// One parsed HTTP request head.
struct HttpHead {
    method: String,
    path: String,
    content_length: Option<u64>,
    close: bool,
}

/// Why reading a head failed, mapped to the HTTP status that answers it.
enum HeadError {
    /// Clean EOF between requests — the keep-alive loop just ends.
    Eof,
    /// I/O failure mid-head; nothing sensible can be written back.
    Io,
    /// Malformed framing; answered with this status, then close.
    Bad(u16, &'static str),
}

/// The minimal hand-rolled HTTP/1.1 framing (`POST /v2` bodies).
pub struct HttpTransport;

impl Transport for HttpTransport {
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler) {
        let mut reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let mut writer = BufWriter::new(stream);
        loop {
            let head = match read_head(&mut reader) {
                Ok(head) => head,
                Err(HeadError::Eof) | Err(HeadError::Io) => return,
                Err(HeadError::Bad(status, reason)) => {
                    // Framing is broken; the stream cannot be resynced.
                    let body = crate::protocol::encode_error(reason);
                    let _ = write_http(&mut writer, status, &body);
                    return;
                }
            };
            let route = format!("{} {}", head.method, head.path);
            let (status, reply) = match route.as_str() {
                HTTP_LAYOUT_ROUTE => {
                    let Some(length) = head.content_length else {
                        let body = crate::protocol::encode_error(
                            "invalid request: POST /v2 needs a Content-Length header",
                        );
                        let _ = write_http(&mut writer, 411, &body);
                        return;
                    };
                    if length > MAX_REQUEST_BYTES {
                        let body = crate::protocol::encode_error(&format!(
                            "request body exceeds {MAX_REQUEST_BYTES} bytes"
                        ));
                        let _ = write_http(&mut writer, 413, &body);
                        return;
                    }
                    // read_exact handles partial reads: the body may
                    // arrive in any number of TCP segments.
                    let mut body = vec![0u8; length as usize];
                    if reader.read_exact(&mut body).is_err() {
                        return;
                    }
                    let Ok(body) = String::from_utf8(body) else {
                        let body = crate::protocol::encode_error("bad JSON: body is not UTF-8");
                        let _ = write_http(&mut writer, 400, &body);
                        return;
                    };
                    // Application-level errors (bad JSON included) are a
                    // 200 with `ok:false`, matching the TCP framing's
                    // behavior: the connection stays usable.
                    (200, handler.respond(body.trim()))
                }
                HTTP_HEALTH_ROUTE => (200, handler.respond(r#"{"op":"ping"}"#)),
                HTTP_METRICS_ROUTE => match handler.metrics() {
                    Some(text) => {
                        // Prometheus text exposition, not JSON: typed
                        // accordingly and written directly.
                        if write_http_typed(&mut writer, 200, METRICS_CONTENT_TYPE, &text).is_err()
                            || head.close
                        {
                            return;
                        }
                        continue;
                    }
                    None => {
                        let reply = crate::protocol::encode_error(
                            "unknown op 'http route GET /metrics' (this handler exposes no metrics)",
                        );
                        let _ = write_http(&mut writer, 404, &reply);
                        return;
                    }
                },
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
                    let reply = crate::protocol::encode_error(&format!(
                        "unknown op 'http route {route}' (this server serves \
                         POST /v2, GET /healthz, and GET /metrics)"
                    ));
                    let _ = write_http(&mut writer, status, &reply);
                    return;
                }
            };
            if write_http(&mut writer, status, &reply).is_err() || head.close {
                return;
            }
        }
    }

    fn reject(&self, stream: TcpStream, error_line: &str) {
        let mut w = BufWriter::new(&stream);
        let _ = write_http(&mut w, 503, error_line);
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Reads one request head: the request line plus headers, up to the
/// blank line. `read_line` loops internally, so a head split across any
/// number of TCP segments (partial reads) assembles correctly.
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<HttpHead, HeadError> {
    let mut line = String::new();
    let mut total = 0usize;
    // Request line. Tolerate a leading blank line (robustness note in
    // RFC 9112 §2.2).
    loop {
        line.clear();
        match (reader as &mut dyn BufRead)
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)
        {
            Ok(0) => return Err(HeadError::Eof),
            Ok(n) => total += n,
            Err(_) => return Err(HeadError::Io),
        }
        if total > MAX_HEAD_BYTES {
            return Err(HeadError::Bad(431, "request head too large"));
        }
        if !line.trim().is_empty() {
            break;
        }
    }
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
        line.clear();
        match (reader as &mut dyn BufRead)
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)
        {
            Ok(0) => return Err(HeadError::Bad(400, "truncated HTTP head")),
            Ok(n) => total += n,
            Err(_) => return Err(HeadError::Io),
        }
        if total > MAX_HEAD_BYTES {
            return Err(HeadError::Bad(431, "request head too large"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(head);
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

/// Live connection streams, registered so shutdown can sever them. A
/// handler removes itself when its client disconnects; shutdown calls
/// `Shutdown::Both` on whatever is left, which makes every blocked
/// read return and the handler threads exit promptly — a stopped
/// server or router answers nothing, which is what fleet failover
/// relies on.
#[derive(Default)]
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().remove(&id);
    }

    fn sever_all(&self) {
        for (_, stream) in self.streams.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// State shared by a front door's accept loops and connection threads.
struct Gate {
    max_connections: usize,
    shutdown: Arc<AtomicBool>,
    connections: AtomicUsize,
    registry: ConnRegistry,
}

/// A bound, not-yet-serving connection front door: a line-TCP listener
/// plus an optional HTTP listener under one connection cap.
///
/// [`spawn`](FrontDoor::spawn) serves every accepted connection on a
/// thread of its own through a fresh [`Handler`]. A connection beyond
/// the cap is answered with an `overloaded` error (a `503` on HTTP) and
/// closed.
pub struct FrontDoor {
    line: TcpListener,
    http: Option<TcpListener>,
    gate: Arc<Gate>,
}

impl FrontDoor {
    /// Binds `addr` (line TCP) and, when given, `http_addr`; at most
    /// `max_connections` connections are served at once across both.
    pub fn bind(
        addr: &str,
        http_addr: Option<&str>,
        max_connections: usize,
    ) -> std::io::Result<FrontDoor> {
        let line = TcpListener::bind(addr)?;
        let http = match http_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        Ok(FrontDoor {
            line,
            http,
            gate: Arc::new(Gate {
                max_connections,
                shutdown: Arc::new(AtomicBool::new(false)),
                connections: AtomicUsize::new(0),
                registry: ConnRegistry::default(),
            }),
        })
    }

    /// The actually-bound line-TCP address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.line.local_addr()
    }

    /// The actually-bound HTTP address, when an HTTP listener exists.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The flag [`FrontDoorHandle::stop`] raises, for threads that must
    /// stop on the same shutdown (the router's probe).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.gate.shutdown.clone()
    }

    /// Starts one accept thread per listener (`{name}-http`, then
    /// `{name}-accept`). Each admitted connection gets its handler from
    /// `new_handler`.
    pub fn spawn<H, F>(self, name: &str, new_handler: F) -> std::io::Result<FrontDoorHandle>
    where
        H: Handler + Send + 'static,
        F: Fn() -> H + Send + Sync + 'static,
    {
        // The handle exists before any thread does: if a later spawn
        // fails, dropping it stops the loops already running.
        let mut handle = FrontDoorHandle {
            addr: self.local_addr()?,
            http_addr: self.http_addr(),
            gate: self.gate.clone(),
            threads: Vec::new(),
        };
        let new_handler = Arc::new(new_handler);
        let http = self
            .http
            .map(|l| (l, &HttpTransport as &'static dyn Transport, "http"));
        let line = (
            self.line,
            &LineTransport as &'static dyn Transport,
            "accept",
        );
        for (listener, transport, role) in http.into_iter().chain([line]) {
            let gate = self.gate.clone();
            let new_handler = new_handler.clone();
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{role}"))
                    .spawn(move || accept_loop(&listener, transport, &gate, &*new_handler))?,
            );
        }
        Ok(handle)
    }
}

/// One accept loop: admission (connection cap), registration (so
/// shutdown can sever), and a handler thread per connection serving it
/// through `transport`.
fn accept_loop<H: Handler + Send + 'static>(
    listener: &TcpListener,
    transport: &'static dyn Transport,
    gate: &Arc<Gate>,
    new_handler: &dyn Fn() -> H,
) {
    for stream in listener.incoming() {
        if gate.shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // One small request, one small response: Nagle + delayed ACK
        // would add ~40 ms to every exchange.
        let _ = stream.set_nodelay(true);
        let active = gate.connections.fetch_add(1, Ordering::AcqRel) + 1;
        if active > gate.max_connections {
            gate.connections.fetch_sub(1, Ordering::AcqRel);
            transport.reject(
                stream,
                &crate::protocol::encode_error(&format!(
                    "overloaded: {active} connections (cap {})",
                    gate.max_connections
                )),
            );
            continue;
        }
        // Register on the accept thread, not the handler: by the time
        // shutdown has joined this loop, every accepted connection is in
        // the registry, so sever_all cannot miss one that a handler
        // thread had not registered yet.
        let id = gate.registry.register(&stream);
        let mut handler = new_handler();
        let gate = gate.clone();
        std::thread::spawn(move || {
            transport.serve(stream, &mut handler);
            if let Some(id) = id {
                gate.registry.deregister(id);
            }
            gate.connections.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// A front door serving on background threads; dropping it stops it.
pub struct FrontDoorHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    gate: Arc<Gate>,
    threads: Vec<JoinHandle<()>>,
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

    /// Blocks the calling thread for as long as the accept loops run.
    pub fn wait(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the accept loops, then severs every live connection. After
    /// this returns, nothing answers on the front door's ports: clients
    /// observe EOF or a reset, exactly as from a crashed process, which
    /// is what failover tests and fleet health checks rely on.
    pub fn stop(&mut self) {
        if self.gate.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake each accept loop so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(http) = self.http_addr {
            let _ = TcpStream::connect_timeout(&http, Duration::from_secs(1));
        }
        self.wait();
        // Sever after the accept loops are gone so no new connection can
        // slip in post-drain.
        self.gate.registry.sever_all();
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
    fn stop_severs_open_connections() {
        let mut door = echo_door();
        let mut held = held_line(&door);
        door.stop();
        let mut line = String::new();
        assert_eq!(held.read_line(&mut line).unwrap(), 0, "read {line:?}");
    }
}
