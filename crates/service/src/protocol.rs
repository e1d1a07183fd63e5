//! The wire protocol: one JSON object per message, carried either as a
//! newline-delimited line over TCP or as an HTTP/1.1 `POST /v2` body
//! (see [`crate::transport`]).
//!
//! This module is the **single source of truth** for serialization: the
//! typed [`Request`] / [`Response`] / [`ErrorKind`] codec is what the
//! server, the router, and the `antlayer-client` crate all speak; the
//! hand-rolled [`Json`] value underneath needs exactly the JSON subset
//! implemented here (objects, arrays, strings, finite numbers, booleans,
//! null) and no external dependency.
//!
//! ## Requests — v1 (flat) and v2 (enveloped)
//!
//! v1, the original wire format, is one flat object per message:
//!
//! ```json
//! {"op":"layout","algo":"aco","nodes":6,"edges":[[0,1],[0,2],[1,3]],
//!  "nd_width":1.0,"seed":7,"ants":10,"tours":10,"deadline_ms":50}
//! {"op":"layout_delta","base":"…32 hex…","add":[[0,3]],"remove":[[0,1]],
//!  "algo":"aco","seed":7}
//! {"op":"stats"}
//! {"op":"ping"}
//! ```
//!
//! v2 wraps the same op bodies in a versioned envelope with an optional
//! caller correlation `id` (number or string, echoed in the response):
//!
//! ```json
//! {"v":2,"op":"layout","id":7,"body":{"nodes":6,"edges":[[0,1],[0,2],[1,3]]}}
//! {"v":2,"op":"ping"}
//! ```
//!
//! v1 lines keep parsing **bit-for-bit** (regression-tested against the
//! example lines in `docs/PROTOCOL.md`), including the lenient historic
//! default of an absent `"op"` meaning `layout` — flagged as
//! [`Envelope::lenient_op`] so servers can count it. Under v2 the op is
//! mandatory: a missing one is rejected with [`ErrorKind::MissingOp`].
//!
//! `algo` is one of `lpl`, `lpl-pl`, `minwidth`, `minwidth-pl`, `cg`,
//! `ns`, `aco` (default `aco`), `exact`, `portfolio` — `solver` is an
//! accepted alias for the key, and `"portfolio": true` is shorthand for
//! selecting the portfolio; `seed`, `ants`, `tours` tune the colony
//! and default to the library defaults; `deadline_ms` bounds the search
//! (anytime ACO); `nd_width` defaults to 1.
//!
//! `layout_delta` is the incremental re-layout request: `base` is the
//! `digest` of a previously served response, `add`/`remove` are edge
//! diffs against that request's graph, and the remaining fields describe
//! the edited request exactly like `layout` (callers normally repeat the
//! base request's values). The server warm-starts the colony from the
//! cached base layering; if the base has been evicted the response is an
//! error containing `base not found` and the client falls back to a full
//! `layout`.
//!
//! ## Responses
//!
//! ```json
//! {"ok":true,"digest":"…32 hex…","source":"hit","height":3,"width":2.0,
//!  "dummies":1,"reversed_edges":0,"stopped_early":false,"seeded":false,
//!  "compute_micros":1234,"layers":[[0,2],[1],[3]]}
//! {"ok":false,"error":"overloaded: …"}
//! ```
//!
//! A response to a v2 request carries the envelope back: `"v":2`, the
//! request's `"id"` if one was sent, and — on errors — a structured
//! `"kind"` member naming the [`ErrorKind`]:
//!
//! ```json
//! {"error":"missing op: v2 requests must name an op","kind":"missing_op","ok":false,"v":2}
//! ```

use crate::digest::Digest;
use crate::scheduler::{AlgoSpec, DeltaRequest, LayoutRequest, LayoutResponse, LayoutResult};
use antlayer_graph::{DiGraph, GraphDelta, NodeId};
use antlayer_obs::{HistogramSnapshot, TraceEntry};

pub use antlayer_layering::{MemberStats, RaceReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed JSON value. Object keys are sorted (`BTreeMap`) so encoded
/// output is canonical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a finite f64, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes to a single line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON value; trailing whitespace is allowed, trailing
/// garbage is an error.
///
/// # Examples
///
/// ```
/// use antlayer_service::protocol::{parse, Json};
///
/// let v = parse(r#"{"ok":true,"height":4}"#).unwrap();
/// assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
/// assert_eq!(v.get("height").and_then(Json::as_u64), Some(4));
/// assert_eq!(v.encode(), r#"{"height":4,"ok":true}"#); // canonical: keys sorted
/// assert!(parse("{truncated").is_err());
/// ```
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // protocol; reject instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Structured classification of every error a server or router answers
/// with. The v1 wire carries it implicitly as the message *prefix*
/// (clients dispatch on `overloaded`, `base not found`, …); v2 error
/// responses name it explicitly in a `"kind"` member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line/body is not the accepted JSON subset.
    BadJson,
    /// A `"v"` member naming a version this server does not speak.
    BadVersion,
    /// A v2 request without an `"op"` (v1 leniently defaults to
    /// `layout`; v2 does not).
    MissingOp,
    /// An `"op"` no server recognizes.
    UnknownOp,
    /// Semantic validation failure (bad `nd_width`, colony params, caps,
    /// malformed fields).
    InvalidRequest,
    /// Graph-shape validation failure: self-loops, duplicate edges,
    /// endpoints out of range, a delta that does not apply. One kind for
    /// `layout` and `layout_delta` alike.
    InvalidGraph,
    /// Admission control (queue depth or connection cap); retry with
    /// backoff.
    Overloaded,
    /// `layout_delta` named a base digest that is not cached; re-send a
    /// full `layout`.
    BaseNotFound,
    /// A compute worker vanished (panic); the server itself stays up.
    Internal,
    /// The request exceeds a transport cap (line length, HTTP
    /// `Content-Length`); the connection closes.
    TooLarge,
    /// Router only: every backend shard is down.
    Unroutable,
}

impl ErrorKind {
    /// The stable snake_case name carried in a v2 `"kind"` member.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::BadJson => "bad_json",
            ErrorKind::BadVersion => "bad_version",
            ErrorKind::MissingOp => "missing_op",
            ErrorKind::UnknownOp => "unknown_op",
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::InvalidGraph => "invalid_graph",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::BaseNotFound => "base_not_found",
            ErrorKind::Internal => "internal",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Unroutable => "unroutable",
        }
    }

    /// Inverse of [`wire_name`](Self::wire_name).
    pub fn from_wire_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "bad_json" => ErrorKind::BadJson,
            "bad_version" => ErrorKind::BadVersion,
            "missing_op" => ErrorKind::MissingOp,
            "unknown_op" => ErrorKind::UnknownOp,
            "invalid_request" => ErrorKind::InvalidRequest,
            "invalid_graph" => ErrorKind::InvalidGraph,
            "overloaded" => ErrorKind::Overloaded,
            "base_not_found" => ErrorKind::BaseNotFound,
            "internal" => ErrorKind::Internal,
            "too_large" => ErrorKind::TooLarge,
            "unroutable" => ErrorKind::Unroutable,
            _ => return None,
        })
    }

    /// Classifies a v1 error message by its stable prefix — how clients
    /// without the `"kind"` member have always dispatched.
    pub fn classify(message: &str) -> ErrorKind {
        for (prefix, kind) in [
            ("bad JSON", ErrorKind::BadJson),
            ("unsupported protocol version", ErrorKind::BadVersion),
            ("missing op", ErrorKind::MissingOp),
            ("unknown op", ErrorKind::UnknownOp),
            ("invalid graph", ErrorKind::InvalidGraph),
            ("overloaded", ErrorKind::Overloaded),
            ("base not found", ErrorKind::BaseNotFound),
            ("internal error", ErrorKind::Internal),
            ("request line exceeds", ErrorKind::TooLarge),
            ("request body exceeds", ErrorKind::TooLarge),
            ("no shards available", ErrorKind::Unroutable),
        ] {
            if message.starts_with(prefix) {
                return kind;
            }
        }
        ErrorKind::InvalidRequest
    }

    /// The kind a [`ServiceError`](crate::scheduler::ServiceError) maps
    /// to on the wire.
    pub fn of_service_error(e: &crate::scheduler::ServiceError) -> ErrorKind {
        use crate::scheduler::ServiceError;
        match e {
            ServiceError::Overloaded { .. } => ErrorKind::Overloaded,
            ServiceError::BaseNotFound(_) => ErrorKind::BaseNotFound,
            ServiceError::InvalidRequest(_) => ErrorKind::InvalidRequest,
            ServiceError::InvalidGraph(_) => ErrorKind::InvalidGraph,
            ServiceError::Internal(_) => ErrorKind::Internal,
        }
    }
}

/// A wire-level error: the structured kind plus the v1 message (whose
/// prefix is the kind's historic spelling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Structured classification.
    pub kind: ErrorKind,
    /// Full human-readable message; its prefix is stable per kind.
    pub message: String,
}

impl WireError {
    /// Builds an error of `kind` with the given message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

/// The request envelope: protocol version, the caller's correlation id
/// (v2 only; echoed in the response), and whether a v1 request leaned on
/// the historic absent-`op`-means-`layout` default.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Protocol version the request spoke (1 or 2).
    pub version: u8,
    /// v2 correlation id (a JSON number or string), echoed verbatim.
    pub id: Option<Json>,
    /// `true` when a v1 request omitted `"op"` and got the lenient
    /// `layout` default — counted by servers as `lenient_requests`.
    pub lenient_op: bool,
    /// The v2 trace-context flag (`"trace":true` in the envelope): asks
    /// the responder to return its phase breakdown inside the reply
    /// body. Routers set it on forwarded requests so the shard's span
    /// stitches into the fleet timeline under the client's envelope id.
    pub trace: bool,
}

impl Envelope {
    /// A plain v1 envelope (no id, explicit op).
    pub fn v1() -> Envelope {
        Envelope {
            version: 1,
            id: None,
            lenient_op: false,
            trace: false,
        }
    }

    /// A v2 envelope with an optional correlation id.
    pub fn v2(id: Option<Json>) -> Envelope {
        Envelope {
            version: 2,
            id,
            lenient_op: false,
            trace: false,
        }
    }

    /// The same envelope with the trace flag raised.
    pub fn traced(mut self) -> Envelope {
        self.trace = true;
        self
    }

    /// The `id` as a slow-log correlation string: the string itself, the
    /// encoded JSON for any other value, `"-"` when the request carried
    /// none. Server and router both log under it, so one fleet request
    /// has one key on both tiers.
    pub fn correlation_id(&self) -> String {
        match &self.id {
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.encode(),
            None => "-".into(),
        }
    }
}

/// A decoded client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Compute (or fetch) a layout. Boxed: a layout request carries a
    /// whole graph, the other variants nothing.
    Layout(Box<LayoutRequest>),
    /// Incremental re-layout: an edge diff against a cached base layout.
    LayoutDelta(Box<DeltaRequest>),
    /// Store an already-computed entry in the receiver's cache — the
    /// replication write-through (router → replica shard) and read-repair
    /// carrier. Boxed like `Layout`: the entry carries a whole graph.
    CachePut(Box<CacheEntry>),
    /// Page through the receiver's cache in digest order — the transfer
    /// iterator live resharding replays as `cache_put`s. Answered by
    /// shards; the router uses it to stream entries during a
    /// `shard_join`/`shard_drain`.
    CachePull {
        /// Resume strictly after this digest; absent starts from the
        /// lowest cached digest.
        cursor: Option<Digest>,
        /// Maximum entries per page (1..=1024; default 64).
        limit: u64,
    },
    /// Router admin: add the shard at `addr` to the serving ring. The
    /// router streams the keys the new shard now owns from their old
    /// owners while requests keep serving. Shards reject it.
    ShardJoin {
        /// The joining shard's `host:port`.
        addr: String,
    },
    /// Router admin: drain and remove the shard at `addr` — its owned
    /// entries stream to their next ring candidates first, so a planned
    /// scale-down loses no cached work. Shards reject it.
    ShardDrain {
        /// The draining shard's `host:port`.
        addr: String,
    },
    /// Open a streaming edit session on the live (reactor) listener:
    /// the body is a full `layout` body, the reply is the base layout
    /// stamped with session version 0, and the v2 envelope `id` becomes
    /// the session key for every later `session_delta` on the same
    /// connection. Boxed like `Layout`: it carries a whole graph.
    SessionOpen(Box<LayoutRequest>),
    /// Stream one edit into an open session. Unlike `layout_delta`
    /// there is no `base` digest — the server tracks the session's
    /// current graph; the body is just the `add`/`remove` edge lists.
    /// The server answers asynchronously with a pushed
    /// `session_update` frame carrying the changed layers.
    SessionDelta {
        /// The edge edit to fold into the session's graph.
        delta: GraphDelta,
    },
    /// Close the session addressed by the envelope `id`; the reply
    /// echoes the last pushed version so a client can confirm nothing
    /// was in flight.
    SessionClose,
    /// Report server counters.
    Stats,
    /// Liveness check.
    Ping,
    /// Dump the slow-request log (the K slowest requests with their
    /// phase breakdowns) for fleet debugging.
    Debug,
}

impl Request {
    /// The wire op name.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Layout(_) => "layout",
            Request::LayoutDelta(_) => "layout_delta",
            Request::CachePut(_) => "cache_put",
            Request::CachePull { .. } => "cache_pull",
            Request::ShardJoin { .. } => "shard_join",
            Request::ShardDrain { .. } => "shard_drain",
            Request::SessionOpen(_) => "session_open",
            Request::SessionDelta { .. } => "session_delta",
            Request::SessionClose => "session_close",
            Request::Stats => "stats",
            Request::Ping => "ping",
            Request::Debug => "debug",
        }
    }

    /// The op body as a JSON object (the fields *without* the op / the
    /// envelope) — what goes inline in v1 and under `"body"` in v2.
    pub fn body_json(&self) -> Json {
        match self {
            Request::Ping | Request::Stats | Request::Debug | Request::SessionClose => {
                Json::Obj(BTreeMap::new())
            }
            Request::CachePut(e) => e.to_json(),
            Request::CachePull { cursor, limit } => {
                let mut obj = BTreeMap::new();
                if let Some(cursor) = cursor {
                    obj.insert("cursor".into(), Json::Str(cursor.to_string()));
                }
                obj.insert("limit".into(), Json::Num(*limit as f64));
                Json::Obj(obj)
            }
            Request::ShardJoin { addr } | Request::ShardDrain { addr } => {
                let mut obj = BTreeMap::new();
                obj.insert("addr".into(), Json::Str(addr.clone()));
                Json::Obj(obj)
            }
            Request::SessionDelta { delta } => {
                let mut obj = BTreeMap::new();
                obj.insert("add".into(), edge_u32_pairs_json(&delta.added));
                obj.insert("remove".into(), edge_u32_pairs_json(&delta.removed));
                Json::Obj(obj)
            }
            Request::Layout(r) | Request::SessionOpen(r) => {
                layout_body_json(&r.graph, &r.algo, r.nd_width, r.deadline)
            }
            Request::LayoutDelta(r) => delta_body_json(
                r.base,
                &r.delta.added,
                &r.delta.removed,
                &r.algo,
                r.nd_width,
                r.deadline,
            ),
        }
    }

    /// Encodes the v1 (flat) wire form.
    pub fn encode_v1(&self) -> String {
        encode_op_v1(self.op(), self.body_json())
    }

    /// Encodes the v2 enveloped wire form, with an optional correlation
    /// id (must be a JSON number or string).
    pub fn encode_v2(&self, id: Option<&Json>) -> String {
        encode_op_v2(self.op(), id, self.body_json())
    }
}

/// Builds a `layout` op body from a **borrowed** graph — the allocation
/// a typed client actually needs is the serialized bytes, never a copy
/// of the graph (the wire allows up to a million nodes).
pub fn layout_body_json(
    graph: &DiGraph,
    algo: &AlgoSpec,
    nd_width: f64,
    deadline: Option<Duration>,
) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("nodes".into(), Json::Num(graph.node_count() as f64));
    obj.insert("edges".into(), edge_pairs_json(graph.edges()));
    encode_common_fields(algo, nd_width, deadline, &mut obj);
    Json::Obj(obj)
}

/// Builds a `layout_delta` op body from borrowed edit slices.
pub fn delta_body_json(
    base: Digest,
    add: &[(u32, u32)],
    remove: &[(u32, u32)],
    algo: &AlgoSpec,
    nd_width: f64,
    deadline: Option<Duration>,
) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("base".into(), Json::Str(base.to_string()));
    obj.insert("add".into(), edge_u32_pairs_json(add));
    obj.insert("remove".into(), edge_u32_pairs_json(remove));
    encode_common_fields(algo, nd_width, deadline, &mut obj);
    Json::Obj(obj)
}

/// Encodes one v1 (flat) request line: the op spliced into its body.
pub fn encode_op_v1(op: &str, body: Json) -> String {
    let Json::Obj(mut obj) = body else {
        panic!("request bodies are objects");
    };
    obj.insert("op".into(), Json::Str(op.into()));
    Json::Obj(obj).encode()
}

/// Encodes one v2 (enveloped) request line.
pub fn encode_op_v2(op: &str, id: Option<&Json>, body: Json) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("v".into(), Json::Num(2.0));
    obj.insert("op".into(), Json::Str(op.into()));
    if let Some(id) = id {
        obj.insert("id".into(), id.clone());
    }
    obj.insert("body".into(), body);
    Json::Obj(obj).encode()
}

/// Splices `"trace":true` into an already-encoded single-line v2
/// request — the router's way of asking a shard for its phase
/// breakdown without re-parsing the payload it is forwarding. Duplicate
/// members are harmless (object parsing is last-wins and both are
/// `true`); non-object lines pass through unchanged and fail shard-side
/// parsing exactly as they would have.
pub fn with_trace_flag(line: &str) -> String {
    match line.trim_start().strip_prefix('{') {
        Some(rest) if rest.trim_start().starts_with('}') => format!("{{\"trace\":true{rest}"),
        Some(rest) => format!("{{\"trace\":true,{rest}"),
        None => line.to_string(),
    }
}

/// Encodes one histogram snapshot as the `stats` extension's JSON
/// shape: raw mergeable buckets plus precomputed percentiles, so a
/// human reading the body gets numbers and a router aggregating shard
/// stats gets data it can merge *correctly* (bucket-wise — percentiles
/// of sums, never sums of percentiles).
///
/// ```json
/// {"count":3,"sum_us":110,"p50_us":5,"p90_us":100,"p99_us":100,
///  "p999_us":100,"buckets":[[5,2],[100,1]]}
/// ```
pub fn histogram_json(snap: &HistogramSnapshot) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("count".into(), Json::Num(snap.count as f64));
    obj.insert("sum_us".into(), Json::Num(snap.sum as f64));
    obj.insert("p50_us".into(), Json::Num(snap.percentile(0.50) as f64));
    obj.insert("p90_us".into(), Json::Num(snap.percentile(0.90) as f64));
    obj.insert("p99_us".into(), Json::Num(snap.percentile(0.99) as f64));
    obj.insert("p999_us".into(), Json::Num(snap.percentile(0.999) as f64));
    obj.insert(
        "buckets".into(),
        Json::Arr(
            snap.nonzero_buckets()
                .into_iter()
                .map(|(bound, count)| {
                    Json::Arr(vec![Json::Num(bound as f64), Json::Num(count as f64)])
                })
                .collect(),
        ),
    );
    Json::Obj(obj)
}

/// Decodes a [`histogram_json`] value back into a mergeable snapshot.
/// Returns `None` when the value is not an object with a `buckets`
/// array — the member routers use to tell histogram stats apart from
/// plain counters when aggregating shard replies.
pub fn histogram_from_json(v: &Json) -> Option<HistogramSnapshot> {
    let buckets = match v.get("buckets")? {
        Json::Arr(items) => items,
        _ => return None,
    };
    let mut pairs = Vec::with_capacity(buckets.len());
    for pair in buckets {
        let Json::Arr(bc) = pair else { return None };
        match (bc.first()?.as_u64(), bc.get(1)?.as_u64()) {
            (Some(bound), Some(count)) => pairs.push((bound, count)),
            _ => return None,
        }
    }
    let sum = v.get("sum_us")?.as_u64()?;
    Some(HistogramSnapshot::from_buckets(&pairs, sum))
}

/// Encodes one slow-log entry for the `debug` op: the correlation id,
/// op, total, ordered phase breakdown, and — on a router — the stitched
/// downstream shard span under `"remote"`.
pub fn trace_entry_json(e: &TraceEntry) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("id".into(), Json::Str(e.id.clone()));
    obj.insert("op".into(), Json::Str(e.op.into()));
    obj.insert("total_us".into(), Json::Num(e.total_us as f64));
    let mut phases = BTreeMap::new();
    for (name, us) in &e.phases {
        phases.insert((*name).to_string(), Json::Num(*us as f64));
    }
    obj.insert("phase_us".into(), Json::Obj(phases));
    if let Some(remote) = &e.remote {
        let mut r = BTreeMap::new();
        r.insert("addr".into(), Json::Str(remote.addr.clone()));
        r.insert("total_us".into(), Json::Num(remote.total_us as f64));
        let mut p = BTreeMap::new();
        for (name, us) in &remote.phases {
            p.insert(name.clone(), Json::Num(*us as f64));
        }
        r.insert("phase_us".into(), Json::Obj(p));
        obj.insert("remote".into(), Json::Obj(r));
    }
    Json::Obj(obj)
}

fn edge_pairs_json(edges: impl Iterator<Item = (NodeId, NodeId)>) -> Json {
    Json::Arr(
        edges
            .map(|(u, v)| {
                Json::Arr(vec![
                    Json::Num(u.index() as f64),
                    Json::Num(v.index() as f64),
                ])
            })
            .collect(),
    )
}

fn edge_u32_pairs_json(pairs: &[(u32, u32)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
            .collect(),
    )
}

/// Emits the fields [`parse_common_fields`] reads, canonically: `algo`
/// for the classic algorithms and `solver` for the solver-contract
/// additions (`exact`, `portfolio`) — the two keys are aliases on the
/// read side; colony knobs only for ACO/portfolio, `deadline_ms` only
/// when set.
fn encode_common_fields(
    algo: &AlgoSpec,
    nd_width: f64,
    deadline: Option<Duration>,
    obj: &mut BTreeMap<String, Json>,
) {
    // The wire names match AlgoSpec::parse; Coffman–Graham's width bound
    // is not a wire parameter, so any CoffmanGraham spec encodes as "cg".
    match algo {
        AlgoSpec::Exact | AlgoSpec::Portfolio(_) => {
            obj.insert("solver".into(), Json::Str(algo.canonical_name()));
        }
        AlgoSpec::CoffmanGraham(_) => {
            obj.insert("algo".into(), Json::Str("cg".into()));
        }
        other => {
            obj.insert("algo".into(), Json::Str(other.canonical_name()));
        }
    }
    if let AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) = algo {
        obj.insert("seed".into(), Json::Num(p.seed as f64));
        obj.insert("ants".into(), Json::Num(p.n_ants as f64));
        obj.insert("tours".into(), Json::Num(p.n_tours as f64));
    }
    obj.insert("nd_width".into(), Json::Num(nd_width));
    if let Some(d) = deadline {
        obj.insert("deadline_ms".into(), Json::Num(d.as_millis() as f64));
    }
}

/// Decodes one request line (v1 or v2) together with its [`Envelope`].
/// Errors carry the envelope too, so the reply can echo `v`/`id`.
///
/// # Examples
///
/// ```
/// use antlayer_service::protocol::{parse_request_envelope, ErrorKind, Request};
///
/// let (req, env) =
///     parse_request_envelope(r#"{"v":2,"op":"layout","id":9,"body":{"nodes":2}}"#).unwrap();
/// assert!(matches!(req, Request::Layout(_)));
/// assert_eq!(env.version, 2);
///
/// // v2 requires an explicit op; v1 defaults a missing one to `layout`.
/// let (err, _) = parse_request_envelope(r#"{"v":2,"body":{"nodes":2}}"#).unwrap_err();
/// assert_eq!(err.kind, ErrorKind::MissingOp);
/// let (_, env) = parse_request_envelope(r#"{"nodes":2}"#).unwrap();
/// assert!(env.lenient_op);
/// ```
pub fn parse_request_envelope(line: &str) -> Result<(Request, Envelope), (WireError, Envelope)> {
    let v = parse(line).map_err(|e| {
        (
            WireError::new(ErrorKind::BadJson, format!("bad JSON: {e}")),
            Envelope::v1(),
        )
    })?;
    let (env, op, body) = match v.get("v") {
        None => {
            let lenient = v.get("op").is_none();
            let op = v.get("op").and_then(Json::as_str).unwrap_or("layout");
            let env = Envelope {
                version: 1,
                id: None,
                lenient_op: lenient,
                // v1 has no trace-context field; tracing is v2-only.
                trace: false,
            };
            (env, op, &v)
        }
        Some(version) => {
            // Echo the id even on version errors, so a v2 client can
            // correlate the rejection; only numbers and strings qualify.
            let id = v
                .get("id")
                .filter(|j| matches!(j, Json::Num(_) | Json::Str(_)))
                .cloned();
            let mut env = Envelope::v2(id);
            env.trace = v.get("trace") == Some(&Json::Bool(true));
            if version.as_u64() != Some(2) {
                return Err((
                    WireError::new(
                        ErrorKind::BadVersion,
                        format!(
                            "unsupported protocol version {} (this server speaks v2 \
                             and unversioned v1)",
                            version.encode()
                        ),
                    ),
                    env,
                ));
            }
            if let Some(id) = v.get("id") {
                if !matches!(id, Json::Num(_) | Json::Str(_)) {
                    return Err((
                        WireError::new(
                            ErrorKind::InvalidRequest,
                            "invalid request: 'id' must be a number or string",
                        ),
                        env,
                    ));
                }
            }
            let Some(op) = v.get("op").and_then(Json::as_str) else {
                return Err((
                    WireError::new(
                        ErrorKind::MissingOp,
                        "missing op: v2 requests must name an op",
                    ),
                    env,
                ));
            };
            let body = match v.get("body") {
                None => &EMPTY_BODY,
                Some(b @ Json::Obj(_)) => b,
                Some(_) => {
                    return Err((
                        WireError::new(
                            ErrorKind::InvalidRequest,
                            "invalid request: 'body' must be an object",
                        ),
                        env,
                    ))
                }
            };
            (env, op, body)
        }
    };
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "debug" => Request::Debug,
        "layout" => Request::Layout(Box::new(parse_layout(body).map_err(|e| (e, env.clone()))?)),
        "layout_delta" => Request::LayoutDelta(Box::new(
            parse_layout_delta(body).map_err(|e| (e, env.clone()))?,
        )),
        "cache_put" => Request::CachePut(Box::new(
            CacheEntry::from_json(body).map_err(|e| (e, env.clone()))?,
        )),
        "cache_pull" => {
            let (cursor, limit) = parse_cache_pull(body).map_err(|e| (e, env.clone()))?;
            Request::CachePull { cursor, limit }
        }
        "shard_join" => Request::ShardJoin {
            addr: parse_shard_addr(body, "shard_join").map_err(|e| (e, env.clone()))?,
        },
        "shard_drain" => Request::ShardDrain {
            addr: parse_shard_addr(body, "shard_drain").map_err(|e| (e, env.clone()))?,
        },
        "session_open" => {
            Request::SessionOpen(Box::new(parse_layout(body).map_err(|e| (e, env.clone()))?))
        }
        "session_delta" => Request::SessionDelta {
            delta: parse_session_delta(body).map_err(|e| (e, env.clone()))?,
        },
        "session_close" => Request::SessionClose,
        other => {
            return Err((
                WireError::new(ErrorKind::UnknownOp, format!("unknown op '{other}'")),
                env,
            ))
        }
    };
    Ok((request, env))
}

/// The empty v2 body used when `"body"` is absent (ping/stats need none).
static EMPTY_BODY: Json = Json::Obj(BTreeMap::new());

/// Decodes one request line, discarding the envelope; kept for callers
/// that only dispatch (the router) and for v1-era tests.
///
/// # Examples
///
/// ```
/// use antlayer_service::protocol::{parse_request, Request};
///
/// let line = r#"{"op":"layout","nodes":3,"edges":[[0,1],[1,2]]}"#;
/// let Request::Layout(req) = parse_request(line).unwrap() else {
///     panic!("expected a layout request");
/// };
/// assert_eq!(req.graph.node_count(), 3);
/// assert!(parse_request(r#"{"op":"warp"}"#).is_err());
/// ```
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_envelope(line)
        .map(|(r, _)| r)
        .map_err(|(e, _)| e.message)
}

fn parse_layout(v: &Json) -> Result<LayoutRequest, WireError> {
    let invalid = |m: String| WireError::new(ErrorKind::InvalidRequest, m);
    let nodes = v
        .get("nodes")
        .and_then(Json::as_u64)
        .ok_or_else(|| invalid("layout: missing 'nodes'".into()))? as usize;
    if nodes > 1_000_000 {
        return Err(invalid(format!("layout: {nodes} nodes exceeds the 1M cap")));
    }
    let edges = parse_edge_pairs(v, "edges")?.unwrap_or_default();
    for &(u, w) in &edges {
        if u as usize >= nodes || w as usize >= nodes {
            return Err(WireError::new(
                ErrorKind::InvalidGraph,
                format!("invalid graph: edge ({u},{w}) out of range for {nodes} nodes"),
            ));
        }
    }
    // Self-loops and duplicate edges surface as the same structured
    // `invalid graph` kind a bad `layout_delta` gets from the scheduler.
    let graph = DiGraph::from_edges(nodes, &edges)
        .map_err(|e| WireError::new(ErrorKind::InvalidGraph, format!("invalid graph: {e}")))?;
    let (algo, nd_width, deadline) = parse_common_fields(v, "layout")?;
    Ok(LayoutRequest {
        graph,
        algo,
        nd_width,
        deadline,
    })
}

/// A delta is an *edit*; a diff rewriting a large fraction of a graph
/// should be sent as a full layout (or re-open the session). The cap
/// also bounds the work one request can buy on the connection thread,
/// where delta application runs before admission control can shed it.
const MAX_DELTA_EDITS: usize = 100_000;

fn parse_layout_delta(v: &Json) -> Result<DeltaRequest, WireError> {
    let invalid = |m: &str| WireError::new(ErrorKind::InvalidRequest, m.to_string());
    let base = v
        .get("base")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("layout_delta: missing 'base' digest"))?;
    let base = Digest::from_hex(base)
        .ok_or_else(|| invalid("layout_delta: 'base' must be a 32-hex-digit request digest"))?;
    let added = parse_edge_pairs(v, "add")?.unwrap_or_default();
    let removed = parse_edge_pairs(v, "remove")?.unwrap_or_default();
    let delta = GraphDelta::new(added, removed);
    if delta.is_empty() {
        return Err(invalid(
            "layout_delta: empty delta (nothing to add or remove)",
        ));
    }
    if delta.len() > MAX_DELTA_EDITS {
        return Err(WireError::new(
            ErrorKind::InvalidRequest,
            format!(
                "layout_delta: {} edits exceeds the {MAX_DELTA_EDITS} cap; send a full layout",
                delta.len()
            ),
        ));
    }
    // Endpoint bounds are checked against the base graph when the delta
    // is applied; the scheduler owns that graph.
    let (algo, nd_width, deadline) = parse_common_fields(v, "layout_delta")?;
    Ok(DeltaRequest {
        base,
        delta,
        algo,
        nd_width,
        deadline,
    })
}

/// Parses a `session_delta` body: just the edit's `add`/`remove` edge
/// lists — no `base` digest (the session tracks its own graph) and no
/// algo knobs (the session keeps the ones it opened with). The same
/// non-empty rule and [`MAX_DELTA_EDITS`] cap as `layout_delta` apply.
fn parse_session_delta(v: &Json) -> Result<GraphDelta, WireError> {
    let invalid = |m: &str| WireError::new(ErrorKind::InvalidRequest, m.to_string());
    let added = parse_edge_pairs(v, "add")?.unwrap_or_default();
    let removed = parse_edge_pairs(v, "remove")?.unwrap_or_default();
    let delta = GraphDelta::new(added, removed);
    if delta.is_empty() {
        return Err(invalid(
            "session_delta: empty delta (nothing to add or remove)",
        ));
    }
    if delta.len() > MAX_DELTA_EDITS {
        return Err(WireError::new(
            ErrorKind::InvalidRequest,
            format!(
                "session_delta: {} edits exceeds the {MAX_DELTA_EDITS} cap; re-open the session",
                delta.len()
            ),
        ));
    }
    Ok(delta)
}

/// Parses the `addr` member of a `shard_join`/`shard_drain` body.
fn parse_shard_addr(v: &Json, op: &str) -> Result<String, WireError> {
    v.get("addr")
        .and_then(Json::as_str)
        .filter(|a| !a.is_empty())
        .map(String::from)
        .ok_or_else(|| {
            WireError::new(
                ErrorKind::InvalidRequest,
                format!("{op}: missing 'addr' (the shard's host:port)"),
            )
        })
}

/// Parses a `cache_pull` body: an optional resume `cursor` digest plus
/// a bounded page `limit`.
fn parse_cache_pull(v: &Json) -> Result<(Option<Digest>, u64), WireError> {
    let invalid = |m: String| WireError::new(ErrorKind::InvalidRequest, m);
    let cursor =
        match v.get("cursor") {
            None => None,
            Some(j) => Some(j.as_str().and_then(Digest::from_hex).ok_or_else(|| {
                invalid("cache_pull: 'cursor' must be a 32-hex-digit digest".into())
            })?),
        };
    // The cap bounds one page's response size the way MAX_DELTA_EDITS
    // bounds one delta's work: a transfer never buys unbounded encoding
    // on the connection thread.
    const MAX_PULL_LIMIT: u64 = 1_024;
    let limit = match v.get("limit") {
        None => 64,
        Some(j) => j
            .as_u64()
            .filter(|&n| (1..=MAX_PULL_LIMIT).contains(&n))
            .ok_or_else(|| {
                invalid(format!(
                    "cache_pull: 'limit' must be an integer in 1..={MAX_PULL_LIMIT}"
                ))
            })?,
    };
    Ok((cursor, limit))
}

/// Parses a `[[u,v],...]` member; `Ok(None)` when the key is absent.
fn parse_edge_pairs(v: &Json, key: &str) -> Result<Option<Vec<(u32, u32)>>, WireError> {
    let invalid = |m: String| WireError::new(ErrorKind::InvalidRequest, m);
    let member = match v.get(key) {
        None => return Ok(None),
        Some(Json::Arr(pairs)) => pairs,
        Some(_) => return Err(invalid(format!("'{key}' must be an array"))),
    };
    let mut edges = Vec::with_capacity(member.len());
    for pair in member {
        match pair {
            Json::Arr(uv) if uv.len() == 2 => {
                let endpoint = |j: &Json| {
                    j.as_u64().ok_or_else(|| {
                        invalid("edge endpoint must be a non-negative integer".into())
                    })
                };
                let u = endpoint(&uv[0])?;
                let w = endpoint(&uv[1])?;
                if u > u32::MAX as u64 || w > u32::MAX as u64 {
                    return Err(invalid(format!(
                        "edge ({u},{w}) endpoint exceeds the id range"
                    )));
                }
                edges.push((u as u32, w as u32));
            }
            _ => return Err(invalid(format!("'{key}' must be [[u,v],...]"))),
        }
    }
    Ok(Some(edges))
}

/// Parses the fields `layout` and `layout_delta` share: the solver
/// selection (with wire-level work caps), `nd_width`, and
/// `deadline_ms`. `op` prefixes error messages so they name the request
/// that failed.
///
/// The solver is selected by `algo` or its alias `solver` (either key
/// accepts any registered name; giving both with different values is
/// invalid), or by the shorthand `"portfolio": true`. Absent all three,
/// the default is `aco`.
fn parse_common_fields(v: &Json, op: &str) -> Result<(AlgoSpec, f64, Option<Duration>), WireError> {
    let invalid = |m: String| WireError::new(ErrorKind::InvalidRequest, m);
    let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(1);
    let algo_key = match v.get("algo") {
        None => None,
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| invalid(format!("{op}: 'algo' must be a string")))?,
        ),
    };
    let solver_key = match v.get("solver") {
        None => None,
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| invalid(format!("{op}: 'solver' must be a string")))?,
        ),
    };
    let named = match (solver_key, algo_key) {
        (Some(s), Some(a)) if s != a => {
            return Err(invalid(format!(
                "{op}: 'solver' ({s}) and 'algo' ({a}) disagree"
            )))
        }
        (Some(s), _) => Some(s),
        (None, a) => a,
    };
    let portfolio_flag = match v.get("portfolio") {
        None => None,
        Some(Json::Bool(b)) => Some(*b),
        Some(_) => return Err(invalid(format!("{op}: 'portfolio' must be a boolean"))),
    };
    let algo_name = match (portfolio_flag, named) {
        (Some(true), Some(name)) if name != "portfolio" => {
            return Err(invalid(format!(
                "{op}: 'portfolio': true contradicts solver '{name}'"
            )))
        }
        (Some(true), _) => "portfolio",
        (Some(false), Some("portfolio")) => {
            return Err(invalid(format!(
                "{op}: 'portfolio': false contradicts solver 'portfolio'"
            )))
        }
        (_, name) => name.unwrap_or("aco"),
    };
    let mut algo = AlgoSpec::parse(algo_name, seed).map_err(invalid)?;
    if let AlgoSpec::Aco(params) | AlgoSpec::Portfolio(params) = &mut algo {
        // Wire-level work caps: admission control counts jobs, not work,
        // so a single request must not be able to occupy a worker for an
        // unbounded time (the paper's production colony is 10 x 10).
        const MAX_ANTS: u64 = 1_024;
        const MAX_TOURS: u64 = 10_000;
        if let Some(ants) = v.get("ants").and_then(Json::as_u64) {
            if ants > MAX_ANTS {
                return Err(invalid(format!(
                    "{op}: {ants} ants exceeds the {MAX_ANTS} cap"
                )));
            }
            params.n_ants = ants as usize;
        }
        if let Some(tours) = v.get("tours").and_then(Json::as_u64) {
            if tours > MAX_TOURS {
                return Err(invalid(format!(
                    "{op}: {tours} tours exceeds the {MAX_TOURS} cap"
                )));
            }
            params.n_tours = tours as usize;
        }
    }
    let nd_width = match v.get("nd_width") {
        None => 1.0,
        Some(n) => n
            .as_num()
            .ok_or_else(|| invalid(format!("{op}: 'nd_width' must be a number")))?,
    };
    let deadline = v
        .get("deadline_ms")
        .map(|d| {
            d.as_u64().map(Duration::from_millis).ok_or_else(|| {
                invalid(format!(
                    "{op}: 'deadline_ms' must be a non-negative integer"
                ))
            })
        })
        .transpose()?;
    Ok((algo, nd_width, deadline))
}

/// The client-side view of a successful layout response — every field a
/// server puts on the wire, decoded. The serializer and parser live
/// together here so encode → parse is the identity (property-tested).
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutReply {
    /// 32-hex-digit canonical digest (the cache key / next delta base).
    pub digest: String,
    /// How the response was produced (`hit`, `computed`, `warm`,
    /// `coalesced`).
    pub source: String,
    /// Number of layers.
    pub height: u64,
    /// Widest layer including dummies (width-model units).
    pub width: f64,
    /// Dummy-vertex count.
    pub dummies: u64,
    /// Edges reversed to break input cycles.
    pub reversed_edges: u64,
    /// Whether a deadline truncated the search.
    pub stopped_early: bool,
    /// Whether the colony was warm-started from a cached base.
    pub seeded: bool,
    /// Whether the result is certified optimal for the paper's cost
    /// `H + W` (the exact search completed for this graph).
    pub certified: bool,
    /// The winning portfolio member's solver name; absent for
    /// single-solver requests.
    pub winner: Option<String>,
    /// Per-member race stats, in run order; empty for single-solver
    /// requests.
    pub members: Vec<MemberStats>,
    /// Wall time of the computation in microseconds.
    pub compute_micros: u64,
    /// Bottom-up layers, each a list of node ids.
    pub layers: Vec<Vec<u32>>,
}

impl LayoutReply {
    /// The response body as a JSON object (without envelope members).
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("ok".into(), Json::Bool(true));
        obj.insert("digest".into(), Json::Str(self.digest.clone()));
        obj.insert("source".into(), Json::Str(self.source.clone()));
        obj.insert("height".into(), Json::Num(self.height as f64));
        obj.insert("width".into(), Json::Num(self.width));
        obj.insert("dummies".into(), Json::Num(self.dummies as f64));
        obj.insert(
            "reversed_edges".into(),
            Json::Num(self.reversed_edges as f64),
        );
        obj.insert("stopped_early".into(), Json::Bool(self.stopped_early));
        obj.insert("seeded".into(), Json::Bool(self.seeded));
        obj.insert("certified".into(), Json::Bool(self.certified));
        if let Some(winner) = &self.winner {
            obj.insert("winner".into(), Json::Str(winner.clone()));
        }
        if !self.members.is_empty() {
            let members = self
                .members
                .iter()
                .map(|m| {
                    let mut o = BTreeMap::new();
                    o.insert("solver".into(), Json::Str(m.solver.clone()));
                    o.insert("cost".into(), Json::Num(m.cost));
                    o.insert("micros".into(), Json::Num(m.micros as f64));
                    o.insert("stopped_early".into(), Json::Bool(m.stopped_early));
                    o.insert("certified".into(), Json::Bool(m.certified));
                    Json::Obj(o)
                })
                .collect();
            obj.insert("members".into(), Json::Arr(members));
        }
        obj.insert(
            "compute_micros".into(),
            Json::Num(self.compute_micros as f64),
        );
        let layers = self
            .layers
            .iter()
            .map(|layer| Json::Arr(layer.iter().map(|&v| Json::Num(v as f64)).collect()))
            .collect();
        obj.insert("layers".into(), Json::Arr(layers));
        Json::Obj(obj)
    }

    /// Decodes a layout response object.
    pub fn from_json(v: &Json) -> Result<LayoutReply, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("layout reply: missing string '{k}'"))
        };
        let u64_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("layout reply: missing integer '{k}'"))
        };
        let bool_field = |k: &str| match v.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("layout reply: missing boolean '{k}'")),
        };
        let layers = match v.get("layers") {
            Some(Json::Arr(layers)) => layers
                .iter()
                .map(|layer| match layer {
                    Json::Arr(ids) => ids
                        .iter()
                        .map(|id| {
                            id.as_u64()
                                .filter(|&n| n <= u32::MAX as u64)
                                .map(|n| n as u32)
                                .ok_or_else(|| "layout reply: bad node id".to_string())
                        })
                        .collect::<Result<Vec<u32>, String>>(),
                    _ => Err("layout reply: each layer must be an array".into()),
                })
                .collect::<Result<Vec<Vec<u32>>, String>>()?,
            _ => return Err("layout reply: missing 'layers'".into()),
        };
        let members = match v.get("members") {
            None => Vec::new(),
            Some(Json::Arr(members)) => members
                .iter()
                .map(|m| {
                    let solver = m
                        .get("solver")
                        .and_then(Json::as_str)
                        .ok_or("layout reply: member missing string 'solver'")?;
                    let cost = m
                        .get("cost")
                        .and_then(Json::as_num)
                        .ok_or("layout reply: member missing number 'cost'")?;
                    let micros = m
                        .get("micros")
                        .and_then(Json::as_u64)
                        .ok_or("layout reply: member missing integer 'micros'")?;
                    let flag = |k: &str| match m.get(k) {
                        Some(Json::Bool(b)) => Ok(*b),
                        _ => Err(format!("layout reply: member missing boolean '{k}'")),
                    };
                    Ok(MemberStats {
                        solver: solver.to_string(),
                        cost,
                        micros,
                        stopped_early: flag("stopped_early")?,
                        certified: flag("certified")?,
                    })
                })
                .collect::<Result<Vec<MemberStats>, String>>()?,
            Some(_) => return Err("layout reply: 'members' must be an array".into()),
        };
        Ok(LayoutReply {
            digest: str_field("digest")?,
            source: str_field("source")?,
            height: u64_field("height")?,
            width: v
                .get("width")
                .and_then(Json::as_num)
                .ok_or("layout reply: missing number 'width'")?,
            dummies: u64_field("dummies")?,
            reversed_edges: u64_field("reversed_edges")?,
            stopped_early: bool_field("stopped_early")?,
            seeded: bool_field("seeded")?,
            // Absent on pre-portfolio servers: default to uncertified.
            certified: matches!(v.get("certified"), Some(Json::Bool(true))),
            winner: v.get("winner").and_then(Json::as_str).map(String::from),
            members,
            compute_micros: u64_field("compute_micros")?,
            layers,
        })
    }
}

/// Builds the wire view of a server-side [`LayoutResponse`].
pub fn layout_reply_of(response: &LayoutResponse) -> LayoutReply {
    let result = &response.result;
    LayoutReply {
        digest: result.digest.to_string(),
        source: response.source.name().to_string(),
        height: result.metrics.height as u64,
        width: result.metrics.width,
        dummies: result.metrics.dummy_count,
        reversed_edges: result.reversed_edges as u64,
        stopped_early: result.stopped_early,
        seeded: result.seeded,
        certified: result.certified,
        winner: result.race.as_ref().map(|r| r.winner.clone()),
        members: result
            .race
            .as_ref()
            .map(|r| r.members.clone())
            .unwrap_or_default(),
        compute_micros: result.compute_micros,
        layers: result
            .layering
            .layers()
            .into_iter()
            .map(|layer| layer.into_iter().map(|v| v.index() as u32).collect())
            .collect(),
    }
}

/// A portable cached layout: everything a process needs to reconstruct
/// a [`LayoutResult`] it never computed. One codec, two carriers: the
/// `cache_put` wire op (the router's replication write-through and
/// read-repair) and the segment-log records of [`crate::persist`] — so
/// the persistence property tests exercise the wire body too.
///
/// The entry stores the *inputs* of the derived fields (graph edges,
/// bottom-up layer lists, `nd_width`) rather than the metrics
/// themselves: the receiver re-derives orientation and metrics with the
/// same code that produced them, so a restored entry is
/// indistinguishable from the entry an organic compute would have
/// cached — including `approx_bytes`, which keeps the byte budget
/// honest across restore paths.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// The canonical request digest the entry is cached under. Trusted
    /// as given: on the wire the sender is the fleet's own router; in a
    /// segment log the record is checksummed.
    pub digest: Digest,
    /// Node count of the request graph.
    pub nodes: u64,
    /// Edges of the request graph (as sent, before orientation).
    pub edges: Vec<(u32, u32)>,
    /// Bottom-up layers of the cached layering, each a list of node ids
    /// — the same shape a [`LayoutReply`] carries.
    pub layers: Vec<Vec<u32>>,
    /// The request's node/dummy width ratio, needed to re-derive the
    /// width metrics.
    pub nd_width: f64,
    /// Edges reversed to break input cycles.
    pub reversed_edges: u64,
    /// Whether the colony was warm-started from a cached base.
    pub seeded: bool,
    /// Whether the result is certified optimal.
    pub certified: bool,
    /// Wall time of the original computation in microseconds.
    pub compute_micros: u64,
}

impl CacheEntry {
    /// Captures a computed result as a portable entry.
    pub fn of_result(result: &LayoutResult) -> CacheEntry {
        CacheEntry {
            digest: result.digest,
            nodes: result.graph.node_count() as u64,
            edges: result
                .graph
                .edges()
                .map(|(u, v)| (u.index() as u32, v.index() as u32))
                .collect(),
            layers: result
                .layering
                .layers()
                .into_iter()
                .map(|layer| layer.into_iter().map(|v| v.index() as u32).collect())
                .collect(),
            nd_width: result.nd_width,
            reversed_edges: result.reversed_edges as u64,
            seeded: result.seeded,
            certified: result.certified,
            compute_micros: result.compute_micros,
        }
    }

    /// The entry as a JSON object — the `cache_put` op body and the
    /// segment-log record payload.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("digest".into(), Json::Str(self.digest.to_string()));
        obj.insert("nodes".into(), Json::Num(self.nodes as f64));
        obj.insert("edges".into(), edge_u32_pairs_json(&self.edges));
        obj.insert(
            "layers".into(),
            Json::Arr(
                self.layers
                    .iter()
                    .map(|layer| Json::Arr(layer.iter().map(|&v| Json::Num(v as f64)).collect()))
                    .collect(),
            ),
        );
        obj.insert("nd_width".into(), Json::Num(self.nd_width));
        obj.insert(
            "reversed_edges".into(),
            Json::Num(self.reversed_edges as f64),
        );
        obj.insert("seeded".into(), Json::Bool(self.seeded));
        obj.insert("certified".into(), Json::Bool(self.certified));
        obj.insert(
            "compute_micros".into(),
            Json::Num(self.compute_micros as f64),
        );
        Json::Obj(obj)
    }

    /// Decodes and validates an entry object (the inverse of
    /// [`to_json`](Self::to_json)). Shares the `layout` op's caps: the
    /// graph shape is fully validated here so a malformed entry is
    /// rejected before it can poison a cache or a replay.
    pub fn from_json(v: &Json) -> Result<CacheEntry, WireError> {
        let invalid = |m: String| WireError::new(ErrorKind::InvalidRequest, m);
        let digest = v
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("cache_put: missing 'digest'".into()))?;
        let digest = Digest::from_hex(digest)
            .ok_or_else(|| invalid("cache_put: 'digest' must be 32 hex digits".into()))?;
        let nodes = v
            .get("nodes")
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid("cache_put: missing 'nodes'".into()))?;
        if nodes > 1_000_000 {
            return Err(invalid(format!(
                "cache_put: {nodes} nodes exceeds the 1M cap"
            )));
        }
        let edges = parse_edge_pairs(v, "edges")?.unwrap_or_default();
        for &(u, w) in &edges {
            if u as u64 >= nodes || w as u64 >= nodes {
                return Err(WireError::new(
                    ErrorKind::InvalidGraph,
                    format!("invalid graph: edge ({u},{w}) out of range for {nodes} nodes"),
                ));
            }
        }
        let layers = match v.get("layers") {
            Some(Json::Arr(layers)) => layers
                .iter()
                .map(|layer| match layer {
                    Json::Arr(ids) => ids
                        .iter()
                        .map(|id| {
                            id.as_u64()
                                .filter(|&n| n < nodes)
                                .map(|n| n as u32)
                                .ok_or_else(|| invalid("cache_put: bad layer node id".into()))
                        })
                        .collect::<Result<Vec<u32>, WireError>>(),
                    _ => Err(invalid("cache_put: each layer must be an array".into())),
                })
                .collect::<Result<Vec<Vec<u32>>, WireError>>()?,
            _ => return Err(invalid("cache_put: missing 'layers'".into())),
        };
        let nd_width = match v.get("nd_width") {
            None => 1.0,
            Some(n) => n
                .as_num()
                .filter(|w| w.is_finite() && *w >= 0.0)
                .ok_or_else(|| {
                    invalid("cache_put: 'nd_width' must be a finite non-negative number".into())
                })?,
        };
        let opt_u64 = |k: &str| match v.get(k) {
            None => Ok(0),
            Some(n) => n
                .as_u64()
                .ok_or_else(|| invalid(format!("cache_put: '{k}' must be a non-negative integer"))),
        };
        let flag = |k: &str| match v.get(k) {
            None => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(invalid(format!("cache_put: '{k}' must be a boolean"))),
        };
        Ok(CacheEntry {
            digest,
            nodes,
            edges,
            layers,
            nd_width,
            reversed_edges: opt_u64("reversed_edges")?,
            seeded: flag("seeded")?,
            certified: flag("certified")?,
            compute_micros: opt_u64("compute_micros")?,
        })
    }
}

/// One page of a shard's cache answering a `cache_pull`: entries in
/// ascending digest order, a resume cursor, and a `done` flag. The
/// puller re-sends with `cursor = next` until `done` — entries
/// installed concurrently behind the cursor are the *sender's* news,
/// not the page's; live resharding closes that window with a final
/// sweep after the topology flips.
#[derive(Clone, Debug, PartialEq)]
pub struct CachePage {
    /// Entries with digests strictly above the request cursor, ascending.
    pub entries: Vec<CacheEntry>,
    /// The highest digest in `entries` — the next request's `cursor`.
    /// Absent when the page is empty.
    pub next: Option<Digest>,
    /// `true` when no cached digest lies above `next`.
    pub done: bool,
}

impl CachePage {
    /// The response body as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("ok".into(), Json::Bool(true));
        obj.insert("op".into(), Json::Str("cache_pull".into()));
        obj.insert(
            "entries".into(),
            Json::Arr(self.entries.iter().map(CacheEntry::to_json).collect()),
        );
        if let Some(next) = self.next {
            obj.insert("next".into(), Json::Str(next.to_string()));
        }
        obj.insert("done".into(), Json::Bool(self.done));
        Json::Obj(obj)
    }

    /// Decodes a cache-pull response object.
    pub fn from_json(v: &Json) -> Result<CachePage, String> {
        let entries = match v.get("entries") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| CacheEntry::from_json(e).map_err(|err| err.message))
                .collect::<Result<Vec<CacheEntry>, String>>()?,
            _ => return Err("cache_pull reply: missing 'entries'".into()),
        };
        let next = match v.get("next") {
            None => None,
            Some(j) => Some(
                j.as_str()
                    .and_then(Digest::from_hex)
                    .ok_or("cache_pull reply: 'next' must be a 32-hex-digit digest")?,
            ),
        };
        let done = match v.get("done") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("cache_pull reply: missing boolean 'done'".into()),
        };
        Ok(CachePage {
            entries,
            next,
            done,
        })
    }
}

/// One member of a [`TopologyReply`]: a ring slot's address and
/// lifecycle state (`joining`, `live`, `draining`, or `removed`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyShard {
    /// The shard's `host:port`.
    pub addr: String,
    /// The slot's lifecycle state name.
    pub state: String,
}

/// The router's answer to a `shard_join`/`shard_drain`: the topology
/// epoch after the change, every ring slot with its state, and how many
/// cached entries the transfer moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyReply {
    /// Monotonic topology epoch; bumps on every membership/state change.
    pub epoch: u64,
    /// Cached entries streamed to their new owners by this change.
    pub moved: u64,
    /// Every ring slot (including `removed` tombstones), in slot order.
    pub shards: Vec<TopologyShard>,
}

impl TopologyReply {
    /// The response body as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("ok".into(), Json::Bool(true));
        obj.insert("op".into(), Json::Str("topology".into()));
        obj.insert("epoch".into(), Json::Num(self.epoch as f64));
        obj.insert("moved".into(), Json::Num(self.moved as f64));
        obj.insert(
            "shards".into(),
            Json::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        let mut o = BTreeMap::new();
                        o.insert("addr".into(), Json::Str(s.addr.clone()));
                        o.insert("state".into(), Json::Str(s.state.clone()));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        );
        Json::Obj(obj)
    }

    /// Decodes a topology response object.
    pub fn from_json(v: &Json) -> Result<TopologyReply, String> {
        let epoch = v
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or("topology reply: missing integer 'epoch'")?;
        let moved = v
            .get("moved")
            .and_then(Json::as_u64)
            .ok_or("topology reply: missing integer 'moved'")?;
        let shards = match v.get("shards") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|s| {
                    let addr = s
                        .get("addr")
                        .and_then(Json::as_str)
                        .ok_or("topology reply: shard missing string 'addr'")?;
                    let state = s
                        .get("state")
                        .and_then(Json::as_str)
                        .ok_or("topology reply: shard missing string 'state'")?;
                    Ok(TopologyShard {
                        addr: addr.to_string(),
                        state: state.to_string(),
                    })
                })
                .collect::<Result<Vec<TopologyShard>, String>>()?,
            _ => return Err("topology reply: missing 'shards'".into()),
        };
        Ok(TopologyReply {
            epoch,
            moved,
            shards,
        })
    }
}

/// One pushed `session_update` frame: the incremental half of the live
/// session protocol. Instead of re-sending the whole layer list the
/// frame carries `height` (the new layer count) plus only the layers
/// whose membership changed, each tagged with its bottom-up index — a
/// client truncates/extends its cached layers to `height` and
/// overwrites the changed indices. `version` is the session's
/// monotonically increasing push counter (the base layout is version
/// 0); a gap or repeat means the stream lost or duplicated an update.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionUpdate {
    /// Strictly increasing per-session frame number (base = 0).
    pub version: u64,
    /// Canonical digest of the session's *current* graph — usable as a
    /// `layout_delta` base after the session ends.
    pub digest: String,
    /// How the re-layout was produced (`warm`, `computed`, …).
    pub source: String,
    /// Total layer count after the edit.
    pub height: u64,
    /// The changed layers: `(bottom-up index, node ids)` pairs. Layers
    /// not listed are unchanged from the previous version (below
    /// `height`) or removed (at or above it).
    pub changed: Vec<(u32, Vec<u32>)>,
    /// How many additional deltas were folded into this one re-solve
    /// because they arrived while it was in flight (0 = none).
    pub coalesced: u64,
    /// Whether this push came from a periodic cold refresh that beat
    /// the warm chain's optimum.
    pub refreshed: bool,
    /// Wall time of the re-layout in microseconds.
    pub compute_micros: u64,
}

impl SessionUpdate {
    /// The push-frame body as a JSON object (without envelope members).
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("ok".into(), Json::Bool(true));
        obj.insert("op".into(), Json::Str("session_update".into()));
        obj.insert("version".into(), Json::Num(self.version as f64));
        obj.insert("digest".into(), Json::Str(self.digest.clone()));
        obj.insert("source".into(), Json::Str(self.source.clone()));
        obj.insert("height".into(), Json::Num(self.height as f64));
        obj.insert(
            "changed".into(),
            Json::Arr(
                self.changed
                    .iter()
                    .map(|(idx, ids)| {
                        Json::Arr(vec![
                            Json::Num(*idx as f64),
                            Json::Arr(ids.iter().map(|&v| Json::Num(v as f64)).collect()),
                        ])
                    })
                    .collect(),
            ),
        );
        obj.insert("coalesced".into(), Json::Num(self.coalesced as f64));
        obj.insert("refreshed".into(), Json::Bool(self.refreshed));
        obj.insert(
            "compute_micros".into(),
            Json::Num(self.compute_micros as f64),
        );
        Json::Obj(obj)
    }

    /// Decodes a pushed `session_update` frame body.
    pub fn from_json(v: &Json) -> Result<SessionUpdate, String> {
        let u64_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("session update: missing integer '{k}'"))
        };
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("session update: missing string '{k}'"))
        };
        let changed = match v.get("changed") {
            Some(Json::Arr(pairs)) => pairs
                .iter()
                .map(|pair| {
                    let Json::Arr(iv) = pair else {
                        return Err("session update: each changed entry must be an array".into());
                    };
                    let idx = iv
                        .first()
                        .and_then(Json::as_u64)
                        .filter(|&n| n <= u32::MAX as u64)
                        .ok_or("session update: bad changed-layer index")?
                        as u32;
                    let ids = match iv.get(1) {
                        Some(Json::Arr(ids)) => ids
                            .iter()
                            .map(|id| {
                                id.as_u64()
                                    .filter(|&n| n <= u32::MAX as u64)
                                    .map(|n| n as u32)
                                    .ok_or_else(|| "session update: bad node id".to_string())
                            })
                            .collect::<Result<Vec<u32>, String>>()?,
                        _ => return Err("session update: changed entry missing id list".into()),
                    };
                    Ok((idx, ids))
                })
                .collect::<Result<Vec<(u32, Vec<u32>)>, String>>()?,
            _ => return Err("session update: missing 'changed'".into()),
        };
        Ok(SessionUpdate {
            version: u64_field("version")?,
            digest: str_field("digest")?,
            source: str_field("source")?,
            height: u64_field("height")?,
            changed,
            coalesced: u64_field("coalesced")?,
            refreshed: matches!(v.get("refreshed"), Some(Json::Bool(true))),
            compute_micros: u64_field("compute_micros")?,
        })
    }
}

/// A decoded server response — the other half of the typed codec.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A successful layout (full or delta).
    Layout(Box<LayoutReply>),
    /// Counters: every non-envelope member of a stats reply, verbatim
    /// (routers add per-shard arrays; they round-trip untouched).
    Stats(BTreeMap<String, Json>),
    /// A ping answer; `router` is set when a router answered locally.
    Pong {
        /// `true` when the responder is a router front.
        router: bool,
    },
    /// The slow-request log: every non-envelope member of a debug
    /// reply, verbatim (`slow_requests` plus whatever the responder
    /// adds), mirroring [`Response::Stats`].
    Debug(BTreeMap<String, Json>),
    /// Acknowledgement of a `cache_put`: `stored` is `false` when the
    /// receiver already held the entry (idempotent re-put).
    CachePutAck {
        /// Whether the entry was newly installed.
        stored: bool,
    },
    /// One page of a shard's cache answering a `cache_pull`. Boxed like
    /// `Layout`: each entry carries a whole graph.
    CachePage(Box<CachePage>),
    /// The router's topology summary answering `shard_join`/`shard_drain`.
    Topology(Box<TopologyReply>),
    /// A session's base layout answering `session_open`: the full
    /// layout reply stamped with the session's starting version (0 on a
    /// fresh open). Boxed like `Layout`.
    SessionOpened {
        /// The session's starting push version.
        version: u64,
        /// The base layout every later push frame diffs against.
        reply: Box<LayoutReply>,
    },
    /// One pushed incremental re-layout frame. Unlike every other
    /// variant this is *unsolicited*: the live listener writes it when
    /// a `session_delta` solve lands, correlated by the envelope `id`.
    SessionUpdate(Box<SessionUpdate>),
    /// Acknowledgement of a `session_close`, echoing the last version
    /// the session pushed.
    SessionClosed {
        /// The session's final push version.
        version: u64,
    },
    /// An error reply.
    Error(WireError),
}

impl Response {
    /// The response body as a JSON object (without envelope members —
    /// no `v`, `id`, or `kind`; [`encode`](Self::encode) adds those).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Layout(reply) => reply.to_json(),
            Response::Stats(counters) => {
                let mut obj = counters.clone();
                obj.insert("ok".into(), Json::Bool(true));
                obj.insert("op".into(), Json::Str("stats".into()));
                Json::Obj(obj)
            }
            Response::Pong { router } => {
                let mut obj = BTreeMap::new();
                obj.insert("ok".into(), Json::Bool(true));
                obj.insert("op".into(), Json::Str("ping".into()));
                if *router {
                    obj.insert("router".into(), Json::Bool(true));
                }
                Json::Obj(obj)
            }
            Response::Debug(members) => {
                let mut obj = members.clone();
                obj.insert("ok".into(), Json::Bool(true));
                obj.insert("op".into(), Json::Str("debug".into()));
                Json::Obj(obj)
            }
            Response::CachePutAck { stored } => {
                let mut obj = BTreeMap::new();
                obj.insert("ok".into(), Json::Bool(true));
                obj.insert("op".into(), Json::Str("cache_put".into()));
                obj.insert("stored".into(), Json::Bool(*stored));
                Json::Obj(obj)
            }
            Response::CachePage(page) => page.to_json(),
            Response::Topology(topo) => topo.to_json(),
            Response::SessionOpened { version, reply } => {
                // The base layout's full reply, re-tagged as a session
                // open so clients route it to the session machinery.
                let Json::Obj(mut obj) = reply.to_json() else {
                    unreachable!("to_json returns an object");
                };
                obj.insert("op".into(), Json::Str("session_open".into()));
                obj.insert("version".into(), Json::Num(*version as f64));
                Json::Obj(obj)
            }
            Response::SessionUpdate(update) => update.to_json(),
            Response::SessionClosed { version } => {
                let mut obj = BTreeMap::new();
                obj.insert("ok".into(), Json::Bool(true));
                obj.insert("op".into(), Json::Str("session_close".into()));
                obj.insert("version".into(), Json::Num(*version as f64));
                Json::Obj(obj)
            }
            Response::Error(e) => {
                let mut obj = BTreeMap::new();
                obj.insert("ok".into(), Json::Bool(false));
                obj.insert("error".into(), Json::Str(e.message.clone()));
                Json::Obj(obj)
            }
        }
    }

    /// Encodes one response line, sealing the request's [`Envelope`]
    /// onto it: a v1 request gets the exact historic v1 wire bytes; a v2
    /// request additionally gets `"v":2`, its echoed `"id"`, and — for
    /// errors — the structured `"kind"`.
    pub fn encode(&self, env: &Envelope) -> String {
        self.encode_with_trace(env, None)
    }

    /// Like [`encode`](Self::encode), additionally splicing a `"trace"`
    /// member (the responder's phase breakdown) into the body — the
    /// reply half of the envelope's `trace` flag. `None` encodes
    /// exactly as [`encode`](Self::encode) does.
    pub fn encode_with_trace(&self, env: &Envelope, trace: Option<Json>) -> String {
        let Json::Obj(mut obj) = self.to_json() else {
            unreachable!("to_json returns an object");
        };
        if let Some(trace) = trace {
            obj.insert("trace".into(), trace);
        }
        if env.version == 2 {
            obj.insert("v".into(), Json::Num(2.0));
            if let Some(id) = &env.id {
                obj.insert("id".into(), id.clone());
            }
            if let Response::Error(e) = self {
                obj.insert("kind".into(), Json::Str(e.kind.wire_name().into()));
            }
        }
        Json::Obj(obj).encode()
    }
}

/// Decodes one response line (v1 or v2) together with its [`Envelope`].
///
/// # Examples
///
/// ```
/// use antlayer_service::protocol::{parse_response, ErrorKind, Response};
///
/// let (resp, env) = parse_response(r#"{"ok":true,"op":"ping"}"#).unwrap();
/// assert_eq!(resp, Response::Pong { router: false });
/// assert_eq!(env.version, 1);
///
/// let (resp, _) = parse_response(r#"{"error":"overloaded: 9 jobs","ok":false}"#).unwrap();
/// let Response::Error(e) = resp else { panic!() };
/// assert_eq!(e.kind, ErrorKind::Overloaded); // classified by prefix
/// ```
pub fn parse_response(line: &str) -> Result<(Response, Envelope), String> {
    let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let env = match v.get("v") {
        None => Envelope::v1(),
        Some(version) if version.as_u64() == Some(2) => Envelope::v2(v.get("id").cloned()),
        Some(version) => return Err(format!("unsupported response version {}", version.encode())),
    };
    let response = match v.get("ok") {
        Some(Json::Bool(false)) => {
            let message = v
                .get("error")
                .and_then(Json::as_str)
                .ok_or("error reply: missing 'error'")?
                .to_string();
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::from_wire_name)
                .unwrap_or_else(|| ErrorKind::classify(&message));
            Response::Error(WireError { kind, message })
        }
        Some(Json::Bool(true)) => match v.get("op").and_then(Json::as_str) {
            Some("ping") => Response::Pong {
                router: v.get("router") == Some(&Json::Bool(true)),
            },
            Some(op @ ("stats" | "debug")) => {
                let Json::Obj(members) = &v else {
                    unreachable!("get succeeded on a non-object");
                };
                let body = members
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "ok" | "op" | "v" | "id"))
                    .map(|(k, val)| (k.clone(), val.clone()))
                    .collect();
                if op == "stats" {
                    Response::Stats(body)
                } else {
                    Response::Debug(body)
                }
            }
            Some("cache_put") => Response::CachePutAck {
                stored: v.get("stored") == Some(&Json::Bool(true)),
            },
            Some("cache_pull") => Response::CachePage(Box::new(CachePage::from_json(&v)?)),
            Some("topology") => Response::Topology(Box::new(TopologyReply::from_json(&v)?)),
            Some("session_open") => Response::SessionOpened {
                version: v
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or("session open reply: missing integer 'version'")?,
                reply: Box::new(LayoutReply::from_json(&v)?),
            },
            Some("session_update") => {
                Response::SessionUpdate(Box::new(SessionUpdate::from_json(&v)?))
            }
            Some("session_close") => Response::SessionClosed {
                version: v
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or("session close reply: missing integer 'version'")?,
            },
            Some(other) => return Err(format!("unknown response op '{other}'")),
            None => Response::Layout(Box::new(LayoutReply::from_json(&v)?)),
        },
        _ => return Err("reply has no boolean 'ok'".into()),
    };
    Ok((response, env))
}

/// Encodes a layout response line in the v1 wire form.
pub fn encode_layout_response(response: &LayoutResponse) -> String {
    Response::Layout(Box::new(layout_reply_of(response))).encode(&Envelope::v1())
}

/// Encodes an error response line in the v1 wire form. The kind is
/// recovered from the message prefix; callers that know the kind (and
/// the request envelope) should build a [`Response::Error`] directly.
pub fn encode_error(message: &str) -> String {
    Response::Error(WireError::new(ErrorKind::classify(message), message)).encode(&Envelope::v1())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(BTreeMap::new())
            ])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"x", "tru", "1 2", "{\"a\":}", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let line = r#"{"a":[1,2.5,"x\"y"],"b":{"c":null,"d":false}}"#;
        let v = parse(line).unwrap();
        assert_eq!(parse(&v.encode()).unwrap(), v);
        assert_eq!(v.encode(), line);
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = Json::Str("héllo ⊕ wörld".into());
        assert_eq!(parse(&v.encode()).unwrap(), v);
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn layout_request_decoding() {
        let line = r#"{"op":"layout","algo":"aco","nodes":4,"edges":[[0,1],[1,2],[2,3]],
                       "seed":9,"ants":3,"tours":2,"deadline_ms":100,"nd_width":0.5}"#;
        let Request::Layout(req) = parse_request(line).unwrap() else {
            panic!("expected layout");
        };
        assert_eq!(req.graph.node_count(), 4);
        assert_eq!(req.graph.edge_count(), 3);
        assert_eq!(req.nd_width, 0.5);
        assert_eq!(req.deadline, Some(Duration::from_millis(100)));
        let AlgoSpec::Aco(p) = req.algo else {
            panic!("expected aco");
        };
        assert_eq!((p.n_ants, p.n_tours, p.seed), (3, 2, 9));
    }

    #[test]
    fn layout_request_validation_errors() {
        for (line, needle) in [
            (r#"{"op":"layout"}"#, "missing 'nodes'"),
            (
                r#"{"op":"layout","nodes":2,"edges":[[0,5]]}"#,
                "out of range",
            ),
            (r#"{"op":"layout","nodes":2,"edges":[3]}"#, "[[u,v],...]"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"not json"#, "bad JSON"),
            // Work caps: a single request must not buy unbounded compute.
            (
                r#"{"op":"layout","nodes":2,"ants":1000000000}"#,
                "ants exceeds",
            ),
            (
                r#"{"op":"layout","nodes":2,"tours":1000000000}"#,
                "tours exceeds",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn solver_selection_aliases_and_portfolio_shorthand() {
        // `solver` is an alias for `algo` and accepts the new names.
        let line = r#"{"op":"layout","solver":"exact","nodes":3,"edges":[[0,1],[1,2]]}"#;
        let Request::Layout(req) = parse_request(line).unwrap() else {
            panic!("expected layout");
        };
        assert_eq!(req.algo, AlgoSpec::Exact);

        // `"portfolio": true` selects the portfolio, colony knobs apply.
        let line = r#"{"op":"layout","portfolio":true,"nodes":3,"seed":4,"ants":2,"tours":3}"#;
        let Request::Layout(req) = parse_request(line).unwrap() else {
            panic!("expected layout");
        };
        let AlgoSpec::Portfolio(p) = req.algo else {
            panic!("expected portfolio");
        };
        assert_eq!((p.n_ants, p.n_tours, p.seed), (2, 3, 4));

        // Agreeing keys are fine; `"portfolio": false` is a no-op.
        let line = r#"{"op":"layout","algo":"lpl","solver":"lpl","portfolio":false,"nodes":2}"#;
        let Request::Layout(req) = parse_request(line).unwrap() else {
            panic!("expected layout");
        };
        assert_eq!(req.algo, AlgoSpec::LongestPath);
    }

    #[test]
    fn contradictory_solver_selections_are_invalid() {
        for (line, needle) in [
            (
                r#"{"op":"layout","algo":"aco","solver":"exact","nodes":2}"#,
                "disagree",
            ),
            (
                r#"{"op":"layout","portfolio":true,"algo":"aco","nodes":2}"#,
                "contradicts",
            ),
            (
                r#"{"op":"layout","portfolio":false,"solver":"portfolio","nodes":2}"#,
                "contradicts",
            ),
            (
                r#"{"op":"layout","portfolio":"yes","nodes":2}"#,
                "'portfolio' must be a boolean",
            ),
            (
                r#"{"op":"layout","solver":7,"nodes":2}"#,
                "'solver' must be a string",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn layout_delta_request_decoding() {
        let digest = "0123456789abcdef0123456789abcdef";
        let line = format!(
            r#"{{"op":"layout_delta","base":"{digest}","add":[[0,3]],"remove":[[0,1],[1,2]],"seed":5,"deadline_ms":40}}"#
        );
        let Request::LayoutDelta(req) = parse_request(&line).unwrap() else {
            panic!("expected layout_delta");
        };
        assert_eq!(req.base.to_string(), digest);
        assert_eq!(req.delta.added, vec![(0, 3)]);
        assert_eq!(req.delta.removed, vec![(0, 1), (1, 2)]);
        assert_eq!(req.deadline, Some(Duration::from_millis(40)));
        let AlgoSpec::Aco(p) = req.algo else {
            panic!("expected aco");
        };
        assert_eq!(p.seed, 5);
    }

    #[test]
    fn layout_delta_validation_errors() {
        for (line, needle) in [
            (r#"{"op":"layout_delta","add":[[0,1]]}"#, "missing 'base'"),
            (
                r#"{"op":"layout_delta","base":"zz","add":[[0,1]]}"#,
                "32-hex-digit",
            ),
            (
                r#"{"op":"layout_delta","base":"0123456789abcdef0123456789abcdef"}"#,
                "empty delta",
            ),
            (
                r#"{"op":"layout_delta","base":"0123456789abcdef0123456789abcdef","add":[7]}"#,
                "[[u,v],...]",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn layout_delta_edit_cap_is_enforced() {
        // 100_001 removals: one request must not buy unbounded delta
        // application work on the connection thread.
        let pairs: Vec<String> = (0..100_001).map(|i| format!("[{i},{}]", i + 1)).collect();
        let line = format!(
            r#"{{"op":"layout_delta","base":"0123456789abcdef0123456789abcdef","remove":[{}]}}"#,
            pairs.join(",")
        );
        let err = parse_request(&line).unwrap_err();
        assert!(err.contains("exceeds the 100000"), "{err}");
    }

    #[test]
    fn cache_put_request_and_ack_roundtrip() {
        let entry = CacheEntry {
            digest: Digest { hi: 1, lo: 2 },
            nodes: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            layers: vec![vec![3], vec![2], vec![1], vec![0]],
            nd_width: 0.5,
            reversed_edges: 1,
            seeded: true,
            certified: false,
            compute_micros: 77,
        };
        let line = Request::CachePut(Box::new(entry.clone())).encode_v1();
        let Request::CachePut(parsed) = parse_request(&line).unwrap() else {
            panic!("expected cache_put");
        };
        assert_eq!(*parsed, entry);

        let ack = Response::CachePutAck { stored: true }.encode(&Envelope::v1());
        let (resp, _) = parse_response(&ack).unwrap();
        assert_eq!(resp, Response::CachePutAck { stored: true });
    }

    #[test]
    fn cache_put_validation_errors() {
        let hex = "0123456789abcdef0123456789abcdef";
        for (line, needle) in [
            (
                r#"{"op":"cache_put","nodes":2,"layers":[[0]]}"#.to_string(),
                "missing 'digest'",
            ),
            (
                format!(r#"{{"op":"cache_put","digest":"{hex}","nodes":2,"layers":[[5]]}}"#),
                "bad layer node id",
            ),
            (
                format!(
                    r#"{{"op":"cache_put","digest":"{hex}","nodes":2,"edges":[[0,9]],"layers":[[0],[1]]}}"#
                ),
                "out of range",
            ),
            (
                format!(r#"{{"op":"cache_put","digest":"{hex}","nodes":2}}"#),
                "missing 'layers'",
            ),
        ] {
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn cache_pull_request_and_page_roundtrip() {
        // Request: cursor + limit survive both wire forms.
        let req = Request::CachePull {
            cursor: Some(Digest { hi: 3, lo: 9 }),
            limit: 32,
        };
        let line = req.encode_v2(None);
        let Request::CachePull { cursor, limit } = parse_request(&line).unwrap() else {
            panic!("expected cache_pull");
        };
        assert_eq!(cursor, Some(Digest { hi: 3, lo: 9 }));
        assert_eq!(limit, 32);
        // Absent cursor/limit take the documented defaults.
        let Request::CachePull { cursor, limit } = parse_request(r#"{"op":"cache_pull"}"#).unwrap()
        else {
            panic!("expected cache_pull");
        };
        assert_eq!(cursor, None);
        assert_eq!(limit, 64);

        // Response: a page with one entry round-trips.
        let page = CachePage {
            entries: vec![CacheEntry {
                digest: Digest { hi: 1, lo: 2 },
                nodes: 2,
                edges: vec![(0, 1)],
                layers: vec![vec![1], vec![0]],
                nd_width: 1.0,
                reversed_edges: 0,
                seeded: false,
                certified: false,
                compute_micros: 5,
            }],
            next: Some(Digest { hi: 1, lo: 2 }),
            done: false,
        };
        let line = Response::CachePage(Box::new(page.clone())).encode(&Envelope::v1());
        let (resp, _) = parse_response(&line).unwrap();
        assert_eq!(resp, Response::CachePage(Box::new(page)));
    }

    #[test]
    fn cache_pull_validation_errors() {
        for (line, needle) in [
            (r#"{"op":"cache_pull","cursor":"zz"}"#, "32-hex-digit"),
            (r#"{"op":"cache_pull","limit":0}"#, "1..=1024"),
            (r#"{"op":"cache_pull","limit":9999}"#, "1..=1024"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn shard_admin_requests_and_topology_roundtrip() {
        for (line, want_join) in [
            (r#"{"op":"shard_join","addr":"127.0.0.1:4801"}"#, true),
            (r#"{"op":"shard_drain","addr":"127.0.0.1:4801"}"#, false),
        ] {
            let req = parse_request(line).unwrap();
            match (&req, want_join) {
                (Request::ShardJoin { addr }, true) | (Request::ShardDrain { addr }, false) => {
                    assert_eq!(addr, "127.0.0.1:4801");
                }
                _ => panic!("{line} parsed to the wrong variant"),
            }
            // encode → parse → encode identity on the v2 form.
            let v2 = req.encode_v2(Some(&Json::Num(4.0)));
            let (back, env) = parse_request_envelope(&v2).unwrap();
            assert_eq!(back.encode_v2(env.id.as_ref()), v2);
        }
        assert!(parse_request(r#"{"op":"shard_join"}"#)
            .unwrap_err()
            .contains("missing 'addr'"));
        assert!(parse_request(r#"{"op":"shard_drain","addr":""}"#)
            .unwrap_err()
            .contains("missing 'addr'"));

        let topo = TopologyReply {
            epoch: 3,
            moved: 17,
            shards: vec![
                TopologyShard {
                    addr: "a:1".into(),
                    state: "live".into(),
                },
                TopologyShard {
                    addr: "b:2".into(),
                    state: "removed".into(),
                },
            ],
        };
        let line = Response::Topology(Box::new(topo.clone())).encode(&Envelope::v2(None));
        let (resp, env) = parse_response(&line).unwrap();
        assert_eq!(env.version, 2);
        assert_eq!(resp, Response::Topology(Box::new(topo)));
    }

    #[test]
    fn session_requests_roundtrip() {
        // session_open carries a full layout body.
        let line = r#"{"v":2,"op":"session_open","id":7,"body":{"nodes":3,"edges":[[0,1],[1,2]],"algo":"lpl"}}"#;
        let (req, env) = parse_request_envelope(line).unwrap();
        let Request::SessionOpen(open) = &req else {
            panic!("expected session_open");
        };
        assert_eq!(open.graph.node_count(), 3);
        assert_eq!(env.id, Some(Json::Num(7.0)));
        let v2 = req.encode_v2(env.id.as_ref());
        let (back, env2) = parse_request_envelope(&v2).unwrap();
        assert_eq!(back.encode_v2(env2.id.as_ref()), v2);

        // session_delta carries just the edit.
        let req = Request::SessionDelta {
            delta: GraphDelta::new(vec![(0, 2)], vec![(1, 2)]),
        };
        let v2 = req.encode_v2(Some(&Json::Num(7.0)));
        let (back, env) = parse_request_envelope(&v2).unwrap();
        let Request::SessionDelta { delta } = &back else {
            panic!("expected session_delta");
        };
        assert_eq!(delta.added, vec![(0, 2)]);
        assert_eq!(delta.removed, vec![(1, 2)]);
        assert_eq!(back.encode_v2(env.id.as_ref()), v2);

        // session_close has an empty body.
        let v2 = Request::SessionClose.encode_v2(Some(&Json::Num(7.0)));
        let (back, env) = parse_request_envelope(&v2).unwrap();
        assert!(matches!(back, Request::SessionClose));
        assert_eq!(back.encode_v2(env.id.as_ref()), v2);
    }

    #[test]
    fn session_delta_validation_errors() {
        let err = parse_request(r#"{"v":2,"op":"session_delta","body":{}}"#).unwrap_err();
        assert!(err.contains("empty delta"), "{err}");
        let pairs: Vec<String> = (0..100_001).map(|i| format!("[{i},{}]", i + 1)).collect();
        let line = format!(
            r#"{{"v":2,"op":"session_delta","body":{{"add":[{}]}}}}"#,
            pairs.join(",")
        );
        let err = parse_request(&line).unwrap_err();
        assert!(err.contains("exceeds the 100000"), "{err}");
    }

    #[test]
    fn session_responses_roundtrip() {
        let env = Envelope::v2(Some(Json::Num(7.0)));
        let reply = LayoutReply {
            digest: "000102030405060708090a0b0c0d0e0f".into(),
            source: "computed".into(),
            height: 2,
            width: 1.5,
            dummies: 0,
            reversed_edges: 0,
            stopped_early: false,
            seeded: false,
            certified: false,
            winner: None,
            members: Vec::new(),
            compute_micros: 42,
            layers: vec![vec![1, 2], vec![0]],
        };
        let opened = Response::SessionOpened {
            version: 0,
            reply: Box::new(reply),
        };
        let line = opened.encode(&env);
        let (resp, back_env) = parse_response(&line).unwrap();
        assert_eq!(resp, opened);
        assert_eq!(back_env.id, Some(Json::Num(7.0)));

        let update = Response::SessionUpdate(Box::new(SessionUpdate {
            version: 3,
            digest: "000102030405060708090a0b0c0d0e0f".into(),
            source: "warm".into(),
            height: 3,
            changed: vec![(0, vec![2, 3]), (2, vec![0])],
            coalesced: 1,
            refreshed: true,
            compute_micros: 17,
        }));
        let line = update.encode(&env);
        let (resp, _) = parse_response(&line).unwrap();
        assert_eq!(resp, update);

        let closed = Response::SessionClosed { version: 3 };
        let line = closed.encode(&env);
        let (resp, _) = parse_response(&line).unwrap();
        assert_eq!(resp, closed);
    }

    #[test]
    fn error_encoding_is_parseable() {
        let line = encode_error("overloaded: 9 jobs");
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("overloaded: 9 jobs")
        );
    }
}
