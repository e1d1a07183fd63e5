//! Property tests of the typed protocol codec: encode → parse → encode
//! is the identity for every [`Request`] and [`Response`] variant, on
//! both the v1 (flat) and v2 (enveloped) wire forms. The encoders are
//! canonical (sorted keys, one number spelling), so string equality is
//! the right notion of identity.

use antlayer_graph::{DiGraph, GraphDelta};
use antlayer_service::digest::Digest;
use antlayer_service::protocol::{
    self, CacheEntry, CachePage, Envelope, ErrorKind, Json, LayoutReply, MemberStats, Request,
    Response, TopologyReply, TopologyShard, WireError,
};
use antlayer_service::scheduler::{AlgoSpec, DeltaRequest, LayoutRequest};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const ALGOS: [&str; 9] = [
    "lpl",
    "lpl-pl",
    "minwidth",
    "minwidth-pl",
    "cg",
    "ns",
    "aco",
    "exact",
    "portfolio",
];
const SOURCES: [&str; 4] = ["hit", "computed", "warm", "coalesced"];
const KINDS: [ErrorKind; 11] = [
    ErrorKind::BadJson,
    ErrorKind::BadVersion,
    ErrorKind::MissingOp,
    ErrorKind::UnknownOp,
    ErrorKind::InvalidRequest,
    ErrorKind::InvalidGraph,
    ErrorKind::Overloaded,
    ErrorKind::BaseNotFound,
    ErrorKind::Internal,
    ErrorKind::TooLarge,
    ErrorKind::Unroutable,
];

/// A small simple digraph from raw pairs: self-loops and duplicates
/// dropped, endpoints wrapped into range.
fn graph_of(nodes: usize, raw_edges: &[(u32, u32)]) -> DiGraph {
    let mut seen = std::collections::HashSet::new();
    let edges: Vec<(u32, u32)> = raw_edges
        .iter()
        .map(|&(u, v)| (u % nodes as u32, v % nodes as u32))
        .filter(|&(u, v)| u != v && seen.insert((u, v)))
        .collect();
    DiGraph::from_edges(nodes, &edges).expect("filtered edges are valid")
}

#[allow(clippy::too_many_arguments)] // mirrors the proptest parameter list
fn request_of(
    op: usize,
    nodes: usize,
    raw_edges: &[(u32, u32)],
    algo: usize,
    seed: u64,
    ants: usize,
    tours: usize,
    ndw: u32,
    deadline_ms: u64,
    base: (u64, u64),
) -> Request {
    let mut spec = AlgoSpec::parse(ALGOS[algo % ALGOS.len()], seed).expect("known algo");
    if let AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) = &mut spec {
        p.n_ants = ants;
        p.n_tours = tours;
    }
    let nd_width = ndw as f64 / 4.0;
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    match op % 10 {
        0 => Request::Ping,
        1 => Request::Stats,
        7 => Request::SessionOpen(Box::new(LayoutRequest {
            graph: graph_of(nodes, raw_edges),
            algo: spec.clone(),
            nd_width,
            deadline,
        })),
        8 => {
            let mut add: Vec<(u32, u32)> = raw_edges.to_vec();
            if add.is_empty() {
                add.push((0, 1));
            }
            Request::SessionDelta {
                delta: GraphDelta::new(add, vec![(seed as u32 % 7, seed as u32 % 11 + 1)]),
            }
        }
        9 => Request::SessionClose,
        4 => Request::CachePull {
            cursor: seed.is_multiple_of(2).then_some(Digest {
                hi: base.0,
                lo: base.1,
            }),
            limit: 1 + ants as u64 % 1024,
        },
        5 => Request::ShardJoin {
            addr: format!("10.0.0.{}:{}", seed % 250, 4000 + tours),
        },
        6 => Request::ShardDrain {
            addr: format!("10.0.0.{}:{}", seed % 250, 4000 + tours),
        },
        2 => Request::Layout(Box::new(LayoutRequest {
            graph: graph_of(nodes, raw_edges),
            algo: spec,
            nd_width,
            deadline,
        })),
        _ => {
            // The delta body is wire data, not a validated graph edit:
            // any pair list round-trips (the non-empty rule is enforced
            // at parse time, so keep at least one add).
            let mut add: Vec<(u32, u32)> = raw_edges.to_vec();
            if add.is_empty() {
                add.push((0, 1));
            }
            let remove = vec![(seed as u32 % 7, seed as u32 % 11 + 1)];
            Request::LayoutDelta(Box::new(DeltaRequest {
                base: Digest {
                    hi: base.0,
                    lo: base.1,
                },
                delta: GraphDelta::new(add, remove),
                algo: {
                    let mut spec =
                        AlgoSpec::parse(ALGOS[algo % ALGOS.len()], seed).expect("known algo");
                    if let AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) = &mut spec {
                        p.n_ants = ants;
                        p.n_tours = tours;
                    }
                    spec
                },
                nd_width,
                deadline,
            }))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_encode_parse_encode_is_identity(
        op in 0usize..10,
        nodes in 1usize..16,
        raw_edges in proptest::collection::vec((0u32..16, 0u32..16), 0..24),
        algo in 0usize..9,
        seed in 0u64..10_000,
        ants in 1usize..64,
        tours in 1usize..64,
        ndw in 0u32..40,
        deadline_ms in 0u64..5_000,
        base_hi in 0u64..u64::MAX,
        base_lo in 0u64..u64::MAX,
        id in 0u64..1_000_000,
    ) {
        let request = request_of(op, nodes, &raw_edges, algo, seed, ants, tours, ndw, deadline_ms, (base_hi, base_lo));

        // v1: flat form.
        let v1 = request.encode_v1();
        let reparsed = protocol::parse_request(&v1).expect("own encoding parses");
        prop_assert_eq!(&reparsed.encode_v1(), &v1, "v1 round trip");

        // v2: enveloped form, id echoed through the parse.
        let id_json = Json::Num(id as f64);
        let v2 = request.encode_v2(Some(&id_json));
        let (reparsed2, env) = protocol::parse_request_envelope(&v2).expect("v2 parses");
        prop_assert_eq!(env.version, 2);
        prop_assert_eq!(env.id.as_ref(), Some(&id_json));
        prop_assert!(!env.lenient_op, "v2 ops are always explicit");
        prop_assert_eq!(&reparsed2.encode_v2(env.id.as_ref()), &v2, "v2 round trip");

        // The envelope is framing, not identity: both forms decode to
        // the same cache digest for layout requests.
        if let (Request::Layout(a), Request::Layout(b)) = (&reparsed, &reparsed2) {
            prop_assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn response_encode_parse_encode_is_identity(
        variant in 0usize..9,
        digest_hi in 0u64..u64::MAX,
        digest_lo in 0u64..u64::MAX,
        source in 0usize..4,
        height in 1u64..400,
        widthq in 1u32..400,
        dummies in 0u64..1_000,
        reversed in 0u64..40,
        flags in 0u32..8,
        micros in 0u64..10_000_000,
        layers in proptest::collection::vec(proptest::collection::vec(0u32..500, 0..6), 0..8),
        members in proptest::collection::vec((0usize..9, 1u32..400, 0u64..100_000, 0u32..4), 0..5),
        counters in proptest::collection::vec((0usize..8, 0u64..100_000), 0..8),
        kind in 0usize..11,
        suffix in 0u64..1_000,
        router in 0u32..2,
        v2_id in 0u64..1_000_000,
    ) {
        let response = match variant {
            0 => Response::Pong { router: router == 1 },
            1 => {
                const KEYS: [&str; 8] = [
                    "served", "computed", "coalesced", "rejected", "inflight",
                    "lenient_requests", "cache_hits", "cache_misses",
                ];
                let map: BTreeMap<String, Json> = counters
                    .iter()
                    .map(|&(k, v)| (KEYS[k].to_string(), Json::Num(v as f64)))
                    .collect();
                Response::Stats(map)
            }
            2 => {
                let kind = KINDS[kind % KINDS.len()];
                // A message carrying the kind's own wire prefix, so the
                // v1 prefix classification reproduces the kind exactly
                // and both wire forms round-trip losslessly.
                let prefix = match kind {
                    ErrorKind::BadJson => "bad JSON",
                    ErrorKind::BadVersion => "unsupported protocol version",
                    ErrorKind::MissingOp => "missing op",
                    ErrorKind::UnknownOp => "unknown op",
                    ErrorKind::InvalidRequest => "invalid request",
                    ErrorKind::InvalidGraph => "invalid graph",
                    ErrorKind::Overloaded => "overloaded",
                    ErrorKind::BaseNotFound => "base not found",
                    ErrorKind::Internal => "internal error",
                    ErrorKind::TooLarge => "request line exceeds",
                    ErrorKind::Unroutable => "no shards available",
                };
                Response::Error(WireError::new(kind, format!("{prefix}: detail {suffix}")))
            }
            4 => {
                // A transfer page: each entry is a small valid graph +
                // layering (from_json re-validates both on the way back).
                let entries: Vec<CacheEntry> = (0..counters.len().min(3) as u64)
                    .map(|i| CacheEntry {
                        digest: Digest { hi: digest_hi, lo: digest_lo.wrapping_add(i) },
                        nodes: 500,
                        edges: vec![(0, 1), (1, 2)],
                        layers: layers.clone(),
                        nd_width: widthq as f64 / 4.0,
                        reversed_edges: reversed,
                        seeded: flags & 1 != 0,
                        certified: flags & 2 != 0,
                        compute_micros: micros,
                    })
                    .collect();
                let next = entries.last().map(|e| e.digest);
                Response::CachePage(Box::new(CachePage {
                    entries,
                    next,
                    done: flags & 4 != 0,
                }))
            }
            5 => {
                const STATES: [&str; 4] = ["joining", "live", "draining", "removed"];
                let shards = counters
                    .iter()
                    .enumerate()
                    .map(|(i, &(s, _))| TopologyShard {
                        addr: format!("10.0.0.{i}:4800"),
                        state: STATES[s % STATES.len()].to_string(),
                    })
                    .collect();
                Response::Topology(Box::new(TopologyReply {
                    epoch: height,
                    moved: dummies,
                    shards,
                }))
            }
            6 => Response::SessionOpened {
                version: dummies,
                reply: Box::new(LayoutReply {
                    digest: format!("{:016x}{:016x}", digest_hi, digest_lo),
                    source: SOURCES[source % SOURCES.len()].to_string(),
                    height,
                    width: widthq as f64 / 4.0,
                    dummies,
                    reversed_edges: reversed,
                    stopped_early: flags & 1 != 0,
                    seeded: flags & 2 != 0,
                    certified: flags & 4 != 0,
                    winner: None,
                    members: Vec::new(),
                    compute_micros: micros,
                    layers: layers.clone(),
                }),
            },
            7 => Response::SessionUpdate(Box::new(protocol::SessionUpdate {
                version: height,
                digest: format!("{:016x}{:016x}", digest_hi, digest_lo),
                source: SOURCES[source % SOURCES.len()].to_string(),
                height,
                changed: layers
                    .iter()
                    .enumerate()
                    .map(|(i, ids)| (i as u32, ids.clone()))
                    .collect(),
                coalesced: dummies,
                refreshed: flags & 1 != 0,
                compute_micros: micros,
            })),
            8 => Response::SessionClosed { version: height },
            _ => {
                let members: Vec<MemberStats> = members
                    .iter()
                    .map(|&(solver, costq, micros, mflags)| MemberStats {
                        solver: ALGOS[solver % ALGOS.len()].to_string(),
                        cost: costq as f64 / 4.0,
                        micros,
                        stopped_early: mflags & 1 != 0,
                        certified: mflags & 2 != 0,
                    })
                    .collect();
                let winner = members.first().map(|m| m.solver.clone());
                Response::Layout(Box::new(LayoutReply {
                    digest: format!("{:016x}{:016x}", digest_hi, digest_lo),
                    source: SOURCES[source % SOURCES.len()].to_string(),
                    height,
                    width: widthq as f64 / 4.0,
                    dummies,
                    reversed_edges: reversed,
                    stopped_early: flags & 1 != 0,
                    seeded: flags & 2 != 0,
                    certified: flags & 4 != 0,
                    winner,
                    members,
                    compute_micros: micros,
                    layers,
                }))
            }
        };

        // v1 framing.
        let v1 = response.encode(&Envelope::v1());
        let (reparsed, env) = protocol::parse_response(&v1).expect("own encoding parses");
        prop_assert_eq!(env.version, 1);
        prop_assert_eq!(&reparsed.encode(&Envelope::v1()), &v1, "v1 round trip");

        // v2 framing with an echoed id (errors additionally carry the
        // structured kind, which must survive the round trip).
        let env2 = Envelope::v2(Some(Json::Num(v2_id as f64)));
        let v2 = response.encode(&env2);
        let (reparsed2, parsed_env) = protocol::parse_response(&v2).expect("v2 parses");
        prop_assert_eq!(parsed_env.version, 2);
        prop_assert_eq!(parsed_env.id.as_ref(), env2.id.as_ref());
        prop_assert_eq!(&reparsed2.encode(&env2), &v2, "v2 round trip");
        if let (Response::Error(a), Response::Error(b)) = (&response, &reparsed2) {
            prop_assert_eq!(a.kind, b.kind, "v2 carries the kind explicitly");
        }
    }
}
