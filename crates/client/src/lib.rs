//! # antlayer-client
//!
//! The first-class client for the `antlayer` layout service: a typed
//! [`Client`] over the protocol codec of `antlayer_service::protocol`,
//! speaking either wire framing ([`Transport::Tcp`] newline-delimited
//! JSON, or [`Transport::Http`] `POST /v2`) to a server **or** a router
//! — the protocol is identical through both.
//!
//! What the typed client adds over a raw socket:
//!
//! * **connect / retry / backoff** — `overloaded` rejections (the
//!   server's admission control shedding load) are retried with
//!   exponential backoff up to a configured budget; every other error is
//!   surfaced as a structured [`ClientError`] carrying the protocol's
//!   [`ErrorKind`].
//! * **`layout_delta` with automatic full-layout fallback** — when the
//!   server answers `base not found` (eviction, or the base's shard
//!   going down behind a router), the client re-sends one full `layout`
//!   of the caller's current graph and reports
//!   [`Outcome::fell_back`] — the protocol's intended recovery,
//!   implemented once here instead of in every consumer.
//! * **batch submit** — a pipelined fan-out of several layout requests
//!   over one connection, replies matched back in order.
//!
//! ```no_run
//! use antlayer_client::{Client, LayoutOptions};
//! use antlayer_graph::DiGraph;
//!
//! let mut client = Client::connect("127.0.0.1:4617").unwrap();
//! let graph = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let outcome = client.layout(&graph, &LayoutOptions::default()).unwrap();
//! println!("{} layers via {}", outcome.reply.height, outcome.reply.source);
//! ```
//!
//! The load generator (`loadgen`), the router's upstream connections,
//! the router regression tests, and the CLI's `--warm-from` codec all
//! build on this crate — one client implementation under test instead
//! of four ad-hoc ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conn;
pub mod live;

pub use conn::{Connection, Transport, MAX_REPLY_BYTES};
pub use live::{LiveConn, LiveEvent, Session};

pub use antlayer_service::protocol::{
    ErrorKind, Json, LayoutReply, MemberStats, RaceReport, Request, Response, SessionUpdate,
    TopologyReply, TopologyShard, WireError,
};

use antlayer_graph::{DiGraph, GraphDelta};
use antlayer_service::digest::Digest;
use antlayer_service::protocol;
use antlayer_service::scheduler::{AlgoSpec, DeltaRequest, LayoutRequest};
use std::collections::BTreeMap;
use std::time::Duration;

/// Client tuning knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Wire framing to speak.
    pub transport: Transport,
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// Reply timeout (None = block forever). Generous by default: a
    /// queued layout legitimately takes a while under load.
    pub read_timeout: Option<Duration>,
    /// Retry budget for `overloaded` rejections (exponential backoff,
    /// 1, 2, 4, … ms capped at 64 ms).
    pub retries: usize,
    /// Total `overloaded` retries this client may spend across its
    /// **lifetime**, `None` = unbounded. A session replaying a long
    /// edit chain against a degraded fleet otherwise pays the full
    /// per-request budget on every step; the session budget caps the
    /// aggregate stall instead, after which requests drop immediately
    /// ([`ClientError::Dropped`]) and the caller can rebase.
    pub retry_budget: Option<u64>,
    /// Speak the v2 envelope (with correlation ids). v1 remains fully
    /// supported server-side; the digests — and therefore cache hits —
    /// are identical either way.
    pub v2: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            transport: Transport::Tcp,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(120)),
            retries: 8,
            retry_budget: None,
            v2: true,
        }
    }
}

/// Retries allowed for the next request: the per-request cap, further
/// clamped by whatever remains of the session-wide budget.
fn effective_retries(per_request: usize, budget: Option<u64>, spent: u64) -> usize {
    match budget {
        Some(total) => total.saturating_sub(spent).min(per_request as u64) as usize,
        None => per_request,
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure; the connection is unusable.
    Io(std::io::Error),
    /// The server answered a structured error (not retried here).
    Server(WireError),
    /// The request was dropped after exhausting the `overloaded` retry
    /// budget.
    Dropped {
        /// Attempts made (initial try + retries).
        attempts: usize,
    },
    /// The request could not be built (client-side validation).
    Invalid(String),
    /// The reply did not parse as a protocol response.
    BadReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Dropped { attempts } => {
                write!(f, "dropped after {attempts} overloaded attempts")
            }
            ClientError::Invalid(m) => write!(f, "invalid: {m}"),
            ClientError::BadReply(m) => write!(f, "bad reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The structured kind of a server-sent error, if this is one.
    pub fn kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server(e) => Some(e.kind),
            _ => None,
        }
    }
}

/// The layout knobs a request carries besides its graph; mirrors the
/// wire fields of `docs/PROTOCOL.md`.
#[derive(Clone, Debug)]
pub struct LayoutOptions {
    /// Algorithm name (`lpl`, `lpl-pl`, `minwidth`, `minwidth-pl`, `cg`,
    /// `ns`, `aco`, `exact`, `portfolio`) — sent as `algo`/`solver` on
    /// the wire, which the server treats as aliases.
    pub algo: String,
    /// Colony RNG seed (ACO/portfolio only; part of the request's
    /// identity).
    pub seed: u64,
    /// Colony size override (ACO/portfolio only).
    pub ants: Option<usize>,
    /// Colony iterations override (ACO/portfolio only).
    pub tours: Option<usize>,
    /// Dummy-vertex width of the width model.
    pub nd_width: f64,
    /// Per-request wall-clock budget.
    pub deadline_ms: Option<u64>,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            algo: "aco".into(),
            seed: 1,
            ants: None,
            tours: None,
            nd_width: 1.0,
            deadline_ms: None,
        }
    }
}

impl LayoutOptions {
    /// Convenience: default options with the given colony shape — the
    /// spelling load generators use.
    pub fn aco(seed: u64, ants: usize, tours: usize) -> LayoutOptions {
        LayoutOptions {
            seed,
            ants: Some(ants),
            tours: Some(tours),
            ..Default::default()
        }
    }

    /// Convenience: the solver portfolio with the given colony seed for
    /// its ACO member. The reply carries the race (`winner`, `members`,
    /// `certified`).
    pub fn portfolio(seed: u64) -> LayoutOptions {
        LayoutOptions {
            algo: "portfolio".into(),
            seed,
            ..Default::default()
        }
    }

    fn algo_spec(&self) -> Result<AlgoSpec, ClientError> {
        let mut spec = AlgoSpec::parse(&self.algo, self.seed).map_err(ClientError::Invalid)?;
        if let AlgoSpec::Aco(params) | AlgoSpec::Portfolio(params) = &mut spec {
            if let Some(ants) = self.ants {
                params.n_ants = ants;
            }
            if let Some(tours) = self.tours {
                params.n_tours = tours;
            }
        }
        Ok(spec)
    }

    /// The `layout` op body for a **borrowed** graph — what the client
    /// sends; the graph is serialized, never cloned.
    fn layout_body(&self, graph: &DiGraph) -> Result<Json, ClientError> {
        Ok(protocol::layout_body_json(
            graph,
            &self.algo_spec()?,
            self.nd_width,
            self.deadline_ms.map(Duration::from_millis),
        ))
    }

    /// The `layout_delta` op body against `base`, from borrowed slices.
    fn delta_body(
        &self,
        base: &str,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> Result<Json, ClientError> {
        let base = Digest::from_hex(base)
            .ok_or_else(|| ClientError::Invalid(format!("'{base}' is not a request digest")))?;
        Ok(protocol::delta_body_json(
            base,
            add,
            remove,
            &self.algo_spec()?,
            self.nd_width,
            self.deadline_ms.map(Duration::from_millis),
        ))
    }

    /// Builds the typed [`Request`] these options describe; encode it
    /// with [`Request::encode_v1`]/[`Request::encode_v2`] for replayed
    /// workloads that need the literal wire bytes.
    pub fn layout_request(&self, graph: &DiGraph) -> Result<Request, ClientError> {
        Ok(Request::Layout(Box::new(LayoutRequest {
            graph: graph.clone(),
            algo: self.algo_spec()?,
            nd_width: self.nd_width,
            deadline: self.deadline_ms.map(Duration::from_millis),
        })))
    }

    /// Builds the typed `layout_delta` [`Request`] these options
    /// describe against `base`.
    pub fn delta_request(
        &self,
        base: &str,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> Result<Request, ClientError> {
        let base = Digest::from_hex(base)
            .ok_or_else(|| ClientError::Invalid(format!("'{base}' is not a request digest")))?;
        Ok(Request::LayoutDelta(Box::new(DeltaRequest {
            base,
            delta: GraphDelta::new(add.to_vec(), remove.to_vec()),
            algo: self.algo_spec()?,
            nd_width: self.nd_width,
            deadline: self.deadline_ms.map(Duration::from_millis),
        })))
    }
}

/// The result of one client call, with its recovery provenance.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The decoded layout response.
    pub reply: LayoutReply,
    /// `overloaded` retries spent before this reply.
    pub retried: usize,
    /// `true` when a `layout_delta` hit `base not found` and the client
    /// recovered with an automatic full `layout`.
    pub fell_back: bool,
}

/// One request in the form the client wires it: the op name plus its
/// already-built JSON body (borrowed inputs serialized once, so a large
/// graph is never cloned to submit it).
struct WireRequest {
    op: &'static str,
    body: Json,
}

/// A typed protocol client over one connection.
pub struct Client {
    conn: Connection,
    config: ClientConfig,
    next_id: u64,
    /// Lifetime `overloaded` retries spent, charged against
    /// [`ClientConfig::retry_budget`].
    retries_spent: u64,
}

impl Client {
    /// Connects over TCP with default configuration.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit configuration (transport, timeouts,
    /// retry budget, envelope version).
    pub fn connect_with(addr: &str, config: ClientConfig) -> std::io::Result<Client> {
        let conn = Connection::connect_timeout(addr, config.transport, config.connect_timeout)?;
        conn.set_read_timeout(config.read_timeout)?;
        Ok(Client {
            conn,
            config,
            next_id: 0,
            retries_spent: 0,
        })
    }

    /// The connection's framing.
    pub fn transport(&self) -> Transport {
        self.config.transport
    }

    /// Lifetime `overloaded` retries this client has spent (what the
    /// [`ClientConfig::retry_budget`] is charged against).
    pub fn retries_spent(&self) -> u64 {
        self.retries_spent
    }

    /// What remains of the session retry budget, `None` if unbounded.
    pub fn retry_budget_remaining(&self) -> Option<u64> {
        self.config
            .retry_budget
            .map(|total| total.saturating_sub(self.retries_spent))
    }

    fn encode(&mut self, request: &WireRequest) -> String {
        if self.config.v2 {
            self.next_id += 1;
            protocol::encode_op_v2(
                request.op,
                Some(&Json::Num(self.next_id as f64)),
                request.body.clone(),
            )
        } else {
            protocol::encode_op_v1(request.op, request.body.clone())
        }
    }

    /// One raw exchange: an already-encoded request payload out, the
    /// reply payload back. The escape hatch for replayed workloads and
    /// verbatim forwarding; no retries, no decoding.
    pub fn exchange_line(&mut self, payload: &str) -> std::io::Result<String> {
        self.conn.exchange(payload)
    }

    /// Liveness check; returns whether a router answered it.
    pub fn ping(&mut self) -> Result<bool, ClientError> {
        let line = self.encode(&WireRequest {
            op: "ping",
            body: Json::Obj(BTreeMap::new()),
        });
        match self.exchange_response(&line)? {
            Response::Pong { router } => Ok(router),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::BadReply(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Server (or fleet-aggregated) counters.
    pub fn stats(&mut self) -> Result<BTreeMap<String, Json>, ClientError> {
        let line = self.encode(&WireRequest {
            op: "stats",
            body: Json::Obj(BTreeMap::new()),
        });
        match self.exchange_response(&line)? {
            Response::Stats(counters) => Ok(counters),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::BadReply(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// The server's (or router's) slow-request log: the `debug` op's
    /// body, whose `slow_requests` member holds the K slowest requests
    /// with their phase breakdowns (see `docs/PROTOCOL.md`). Against a
    /// router, each entry may also embed the serving shard's span.
    pub fn debug(&mut self) -> Result<BTreeMap<String, Json>, ClientError> {
        let line = self.encode(&WireRequest {
            op: "debug",
            body: Json::Obj(BTreeMap::new()),
        });
        match self.exchange_response(&line)? {
            Response::Debug(body) => Ok(body),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::BadReply(format!(
                "expected debug, got {other:?}"
            ))),
        }
    }

    /// Computes (or fetches) a layout, retrying `overloaded` with
    /// backoff.
    pub fn layout(
        &mut self,
        graph: &DiGraph,
        options: &LayoutOptions,
    ) -> Result<Outcome, ClientError> {
        let request = WireRequest {
            op: "layout",
            body: options.layout_body(graph)?,
        };
        let (reply, retried) = self.submit(&request)?;
        Ok(Outcome {
            reply,
            retried,
            fell_back: false,
        })
    }

    /// Incremental re-layout from a cached base, with the protocol's
    /// intended recovery built in: on `base not found`, when `fallback`
    /// supplies the caller's current (already-edited) graph, the client
    /// automatically re-sends one full `layout` of it and resumes —
    /// reported as [`Outcome::fell_back`]. Without a fallback graph the
    /// error is surfaced.
    pub fn layout_delta(
        &mut self,
        base: &str,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
        fallback: Option<&DiGraph>,
        options: &LayoutOptions,
    ) -> Result<Outcome, ClientError> {
        let request = WireRequest {
            op: "layout_delta",
            body: options.delta_body(base, add, remove)?,
        };
        match self.submit(&request) {
            Ok((reply, retried)) => Ok(Outcome {
                reply,
                retried,
                fell_back: false,
            }),
            Err(ClientError::Server(e)) if e.kind == ErrorKind::BaseNotFound => {
                let Some(graph) = fallback else {
                    return Err(ClientError::Server(e));
                };
                let fallback_request = WireRequest {
                    op: "layout",
                    body: options.layout_body(graph)?,
                };
                let (reply, retried) = self.submit(&fallback_request)?;
                Ok(Outcome {
                    reply,
                    retried,
                    fell_back: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Pipelined batch submit: every request is written before any reply
    /// is read, so one round of server compute overlaps the whole batch.
    /// Per-item errors (including `overloaded` — not retried here, the
    /// pipelining would reorder) come back in the item's position; an
    /// I/O failure aborts the whole batch.
    pub fn layout_batch(
        &mut self,
        items: &[(&DiGraph, &LayoutOptions)],
    ) -> Result<Vec<Result<LayoutReply, ClientError>>, ClientError> {
        let mut payloads = Vec::with_capacity(items.len());
        for (graph, options) in items {
            let request = WireRequest {
                op: "layout",
                body: options.layout_body(graph)?,
            };
            payloads.push(self.encode(&request));
        }
        for payload in &payloads {
            self.conn.send(payload).map_err(ClientError::Io)?;
        }
        let mut out = Vec::with_capacity(items.len());
        for _ in items {
            let line = self.conn.recv().map_err(ClientError::Io)?;
            let (response, _) = protocol::parse_response(&line).map_err(ClientError::BadReply)?;
            out.push(match response {
                Response::Layout(reply) => Ok(*reply),
                Response::Error(e) => Err(ClientError::Server(e)),
                other => Err(ClientError::BadReply(format!(
                    "expected a layout reply, got {other:?}"
                ))),
            });
        }
        Ok(out)
    }

    /// `shard_join` admin op — only meaningful against a router: adds
    /// `addr` to the fleet and blocks until the zero-loss handoff has
    /// completed (see `docs/PROTOCOL.md`). Returns the new topology.
    pub fn shard_join(&mut self, addr: &str) -> Result<TopologyReply, ClientError> {
        self.admin("shard_join", addr)
    }

    /// `shard_drain` admin op — only meaningful against a router:
    /// streams every cache entry off `addr` and removes it from the
    /// fleet. Returns the new topology.
    pub fn shard_drain(&mut self, addr: &str) -> Result<TopologyReply, ClientError> {
        self.admin("shard_drain", addr)
    }

    fn admin(&mut self, op: &'static str, addr: &str) -> Result<TopologyReply, ClientError> {
        let mut body = BTreeMap::new();
        body.insert("addr".to_string(), Json::Str(addr.to_string()));
        let line = self.encode(&WireRequest {
            op,
            body: Json::Obj(body),
        });
        match self.exchange_response(&line)? {
            Response::Topology(reply) => Ok(*reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::BadReply(format!(
                "expected a topology reply, got {other:?}"
            ))),
        }
    }

    fn exchange_response(&mut self, payload: &str) -> Result<Response, ClientError> {
        let line = self.conn.exchange(payload).map_err(ClientError::Io)?;
        let (response, _env) = protocol::parse_response(&line).map_err(ClientError::BadReply)?;
        Ok(response)
    }

    /// Sends `request`, retrying `overloaded` rejections with
    /// exponential backoff (1, 2, 4, … ms capped at 64 ms — enough to
    /// drain a burst without turning the caller into a sleep benchmark).
    fn submit(&mut self, request: &WireRequest) -> Result<(LayoutReply, usize), ClientError> {
        let allowed = effective_retries(
            self.config.retries,
            self.config.retry_budget,
            self.retries_spent,
        );
        let mut retried = 0usize;
        loop {
            let payload = self.encode(request);
            match self.exchange_response(&payload)? {
                Response::Layout(reply) => return Ok((*reply, retried)),
                Response::Error(e) if e.kind == ErrorKind::Overloaded => {
                    if retried >= allowed {
                        return Err(ClientError::Dropped {
                            attempts: retried + 1,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1 << retried.min(6)));
                    retried += 1;
                    self.retries_spent += 1;
                }
                Response::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::BadReply(format!(
                        "expected a layout reply, got {other:?}"
                    )))
                }
            }
        }
    }
}

/// Encodes a layering as the `{"layers":[[ids…],…]}` JSON the servers
/// speak — the `layers` member of a layout response, and the format the
/// CLI's `--json-out`/`--warm-from` persist and reload.
pub fn encode_layers_json(layering: &antlayer_layering::Layering) -> String {
    let layers = layering
        .layers()
        .into_iter()
        .map(|layer| {
            Json::Arr(
                layer
                    .into_iter()
                    .map(|v| Json::Num(v.index() as f64))
                    .collect(),
            )
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert("layers".to_string(), Json::Arr(layers));
    let mut line = Json::Obj(obj).encode();
    line.push('\n');
    line
}

/// Decodes a saved layering: either a bare `[[ids…],…]` array or any
/// object with a `layers` member (e.g. a saved server response). Layer
/// `i` of the array becomes layer `i + 1`; every node must appear
/// exactly once.
pub fn parse_layers_json(
    text: &str,
    node_count: usize,
) -> Result<antlayer_layering::Layering, String> {
    let v = protocol::parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let layers = match (&v, v.get("layers")) {
        (Json::Arr(a), _) => a,
        (_, Some(Json::Arr(a))) => a,
        _ => return Err("expected [[ids...],...] or {\"layers\":[...]}".into()),
    };
    let mut layer_of = vec![0u32; node_count];
    for (i, layer) in layers.iter().enumerate() {
        let Json::Arr(nodes) = layer else {
            return Err("each layer must be an array of node ids".into());
        };
        for id in nodes {
            let id = id
                .as_u64()
                .ok_or("node ids must be non-negative integers")? as usize;
            if id >= node_count {
                return Err(format!("node id {id} out of range for {node_count} nodes"));
            }
            if layer_of[id] != 0 {
                return Err(format!("node {id} appears in two layers"));
            }
            layer_of[id] = i as u32 + 1;
        }
    }
    if let Some(missing) = layer_of.iter().position(|&l| l == 0) {
        return Err(format!("node {missing} has no layer"));
    }
    Ok(antlayer_layering::Layering::from_slice(&layer_of))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_json_round_trips() {
        let l = antlayer_layering::Layering::from_slice(&[3, 2, 1, 2]);
        let json = encode_layers_json(&l);
        assert_eq!(json, "{\"layers\":[[2],[1,3],[0]]}\n");
        let back = parse_layers_json(&json, 4).unwrap();
        assert_eq!(back, l);
        // A bare array (without the object wrapper) is also accepted.
        let bare = parse_layers_json("[[2],[1,3],[0]]", 4).unwrap();
        assert_eq!(bare, l);
    }

    #[test]
    fn layers_json_rejects_malformed_input() {
        assert!(parse_layers_json("nonsense", 2).is_err());
        assert!(parse_layers_json("{\"other\":1}", 2).is_err());
        let dup = parse_layers_json("[[0],[0,1]]", 2).unwrap_err();
        assert!(dup.contains("two layers"), "{dup}");
        let out_of_range = parse_layers_json("[[0],[7]]", 2).unwrap_err();
        assert!(out_of_range.contains("out of range"), "{out_of_range}");
        let missing = parse_layers_json("[[0]]", 2).unwrap_err();
        assert!(missing.contains("no layer"), "{missing}");
    }

    #[test]
    fn options_build_wire_identical_requests() {
        let graph = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let opts = LayoutOptions {
            seed: 7,
            ants: Some(4),
            tours: Some(5),
            deadline_ms: Some(50),
            ..Default::default()
        };
        let request = opts.layout_request(&graph).unwrap();
        let line = request.encode_v1();
        // The encoded request parses back to the same digest: options
        // and wire agree on identity.
        let parsed = protocol::parse_request(&line).unwrap();
        let (Request::Layout(a), Request::Layout(b)) = (&request, &parsed) else {
            panic!("expected layout requests");
        };
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.deadline, Some(Duration::from_millis(50)));
    }

    #[test]
    fn bad_digest_is_a_client_side_error() {
        let opts = LayoutOptions::default();
        let err = opts.delta_request("zz", &[(0, 1)], &[]).unwrap_err();
        assert!(matches!(err, ClientError::Invalid(_)), "{err}");
    }

    #[test]
    fn retry_budget_clamps_the_per_request_allowance() {
        // No budget: the per-request cap stands.
        assert_eq!(effective_retries(8, None, 1_000), 8);
        // A fresh budget above the cap changes nothing.
        assert_eq!(effective_retries(8, Some(100), 0), 8);
        // A nearly-spent budget clamps below the cap...
        assert_eq!(effective_retries(8, Some(100), 97), 3);
        // ...and an exhausted (or overdrawn) budget drops immediately.
        assert_eq!(effective_retries(8, Some(100), 100), 0);
        assert_eq!(effective_retries(8, Some(100), 200), 0);
    }
}
