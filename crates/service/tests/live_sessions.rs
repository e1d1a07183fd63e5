//! End-to-end tests of the live session listener: frame assembly
//! across partial writes, slow-consumer eviction under a bounded
//! outbound queue, base-eviction error shape (the post-drain path),
//! and burst coalescing without version loss.
//!
//! These speak raw newline-delimited JSON over loopback sockets (the
//! service crate has no dependency on the typed client) and use the
//! protocol module's own encoders, so the bytes on the wire are exactly
//! what a conforming client would send.

use antlayer_graph::{DiGraph, GraphDelta};
use antlayer_service::protocol::{self, parse, ErrorKind, Json, Request, Response};
use antlayer_service::scheduler::LayoutRequest;
use antlayer_service::{AlgoSpec, LiveTuning, SchedulerConfig, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A path graph `0 → 1 → … → (len-1)` inside `nodes` total nodes; the
/// spare nodes above the chain are edit headroom.
fn chain(nodes: usize, len: usize) -> DiGraph {
    let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
    DiGraph::from_edges(nodes, &edges).expect("chain is a DAG")
}

fn lpl() -> AlgoSpec {
    AlgoSpec::parse("lpl", 1).expect("known algo")
}

fn open_line(id: u64, graph: DiGraph) -> String {
    Request::SessionOpen(Box::new(LayoutRequest {
        graph,
        algo: lpl(),
        nd_width: 1.0,
        deadline: None,
    }))
    .encode_v2(Some(&Json::Num(id as f64)))
}

fn delta_line(id: u64, add: &[(u32, u32)], remove: &[(u32, u32)]) -> String {
    Request::SessionDelta {
        delta: GraphDelta::new(add.to_vec(), remove.to_vec()),
    }
    .encode_v2(Some(&Json::Num(id as f64)))
}

fn close_line(id: u64) -> String {
    Request::SessionClose.encode_v2(Some(&Json::Num(id as f64)))
}

fn spawn(config: ServerConfig) -> ServerHandle {
    Server::bind(config).unwrap().spawn().unwrap()
}

fn live_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        live_addr: Some("127.0.0.1:0".into()),
        scheduler: SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Connects to the handle's live listener with a generous read
/// timeout, returning the write half and a buffered read half.
fn connect_live(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.live_addr().expect("live listener bound")).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "peer closed the connection");
    let (response, _env) = protocol::parse_response(line.trim_end()).expect("frame parses");
    response
}

#[test]
fn frames_assemble_across_split_writes_and_split_reads() {
    let handle = spawn(live_config());
    let (mut stream, mut reader) = connect_live(&handle);

    // The open request dribbles in 7-byte chunks: the reactor must
    // assemble a frame across many readiness events.
    let line = format!("{}\n", open_line(1, chain(8, 6)));
    for piece in line.as_bytes().chunks(7) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    match read_frame(&mut reader) {
        Response::SessionOpened { version, reply } => {
            assert_eq!(version, 0);
            assert_eq!(reply.height, 6);
        }
        other => panic!(
            "expected SessionOpened, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // A delta one byte at a time — the worst-case partial frame.
    let line = format!("{}\n", delta_line(1, &[(5, 6)], &[]));
    for byte in line.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    match read_frame(&mut reader) {
        Response::SessionUpdate(update) => {
            assert_eq!(update.version, 1);
            assert_eq!(update.height, 7, "chain grew by one layer");
        }
        other => panic!(
            "expected SessionUpdate, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // The opposite shape: two frames land in one write; both must be
    // handled, in order (the second edit waits out the first's solve as
    // a pending delta).
    let combined = format!(
        "{}\n{}\n",
        delta_line(1, &[(6, 7)], &[]),
        delta_line(1, &[(5, 7)], &[])
    );
    stream.write_all(combined.as_bytes()).unwrap();
    match read_frame(&mut reader) {
        Response::SessionUpdate(update) => assert_eq!(update.version, 2),
        other => panic!(
            "expected SessionUpdate, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }
    match read_frame(&mut reader) {
        Response::SessionUpdate(update) => assert_eq!(update.version, 3),
        other => panic!(
            "expected SessionUpdate, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // Close acknowledges the last pushed version.
    writeln!(stream, "{}", close_line(1)).unwrap();
    match read_frame(&mut reader) {
        Response::SessionClosed { version } => assert_eq!(version, 3),
        other => panic!(
            "expected SessionClosed, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }
}

#[test]
fn burst_deltas_coalesce_without_version_loss() {
    let handle = spawn(live_config());
    let (mut stream, mut reader) = connect_live(&handle);

    writeln!(stream, "{}", open_line(9, chain(16, 6))).unwrap();
    match read_frame(&mut reader) {
        Response::SessionOpened { version: 0, .. } => {}
        other => panic!(
            "expected SessionOpened, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // Six edits back to back, faster than the solves: some fold into
    // pending deltas. Whatever the folding, the pushes must account
    // for every edit exactly once and versions must be gapless.
    const EDITS: u64 = 6;
    for j in 0..EDITS as u32 {
        writeln!(stream, "{}", delta_line(9, &[(5, 6 + j)], &[])).unwrap();
    }
    let mut accounted = 0u64;
    let mut next_version = 1u64;
    while accounted < EDITS {
        match read_frame(&mut reader) {
            Response::SessionUpdate(update) => {
                assert_eq!(update.version, next_version, "versions must be gapless");
                next_version += 1;
                accounted += 1 + update.coalesced;
            }
            other => panic!(
                "expected SessionUpdate, got {}",
                other.encode(&protocol::Envelope::v1())
            ),
        }
    }
    assert_eq!(accounted, EDITS, "coalesced counts must sum to the edits");

    writeln!(stream, "{}", close_line(9)).unwrap();
    match read_frame(&mut reader) {
        Response::SessionClosed { version } => assert_eq!(version, next_version - 1),
        other => panic!(
            "expected SessionClosed, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }
}

#[test]
fn slow_consumer_is_evicted_with_overloaded_frame() {
    // A tiny kernel send buffer plus a small queue cap make the
    // eviction reachable: without them loopback absorbs megabytes
    // before the first WouldBlock and the queue never fills.
    let handle = spawn(ServerConfig {
        live_tuning: LiveTuning {
            queue_cap: 4,
            send_buffer: Some(4096),
        },
        ..live_config()
    });
    let (mut stream, mut reader) = connect_live(&handle);

    // A 512-node chain plus one spare node. Sinks sit on layer 1, so
    // hanging the spare node below the chain's sink lifts every chain
    // node one layer and removing that edge drops them back: every edit
    // changes every layer, so every push frame lists all ~512 of them
    // (a few KB). The two graphs solve in microseconds (cache hits after
    // the first round), so the push rate does not depend on the CPU.
    // Much smaller frames do not work: with a 64-node chain, Linux
    // loopback absorbed over 30 000 unread pushes without a WouldBlock.
    const LEN: u32 = 512;
    let graph = chain(LEN as usize + 1, LEN as usize);
    writeln!(stream, "{}", open_line(5, graph)).unwrap();
    match read_frame(&mut reader) {
        Response::SessionOpened { version: 0, .. } => {}
        other => panic!(
            "expected SessionOpened, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // Never read a push. Each edit waits until its push is queued (or
    // the session is evicted), so no two edits coalesce into one solve:
    // every edit adds a full frame to the unread backlog, until the
    // kernel buffers fill and the bounded queue evicts the session.
    // Without TCP_NODELAY each edit's trailing bytes wait out the
    // server's delayed ACK (~40 ms a push).
    stream.set_nodelay(true).unwrap();
    let spare = [(LEN - 1, LEN)];
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut pushes = 0;
    let mut edits = 0u64;
    let mut hung = false;
    'edits: loop {
        let line = if hung {
            delta_line(5, &[], &spare)
        } else {
            delta_line(5, &spare, &[])
        };
        hung = !hung;
        writeln!(stream, "{line}").unwrap();
        edits += 1;
        loop {
            assert!(
                Instant::now() < deadline,
                "session_evicted never incremented (edits={edits} pushes={pushes})"
            );
            if admin_stat(&handle, "session_evicted") >= 1 {
                break 'edits;
            }
            let now = admin_stat(&handle, "session_pushes");
            if now > pushes {
                pushes = now;
                break;
            }
        }
    }
    assert_eq!(
        admin_stat(&handle, "session_coalesced"),
        0,
        "edits were paced one per push"
    );

    // …and as an overloaded control frame once the reader drains the
    // backlog (control frames are never dropped).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "no overloaded frame arrived");
        match read_frame(&mut reader) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Overloaded, "{}", e.message);
                assert!(e.message.contains("evicted"), "{}", e.message);
                break;
            }
            Response::SessionUpdate(_) => continue, // pre-eviction backlog
            other => panic!(
                "expected update or eviction, got {}",
                other.encode(&protocol::Envelope::v1())
            ),
        }
    }
}

#[test]
fn base_eviction_closes_session_and_reopen_resumes() {
    // A deliberately tiny layout cache: regular traffic evicts the
    // session's base entry, which is exactly the state a session lands
    // in after a shard drain moved its cache entry elsewhere.
    let handle = spawn(ServerConfig {
        scheduler: SchedulerConfig {
            threads: 2,
            cache_capacity: 2,
            cache_shards: 1,
            ..Default::default()
        },
        ..live_config()
    });
    let (mut stream, mut reader) = connect_live(&handle);

    writeln!(stream, "{}", open_line(3, chain(10, 6))).unwrap();
    match read_frame(&mut reader) {
        Response::SessionOpened { version: 0, .. } => {}
        other => panic!(
            "expected SessionOpened, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // Unrelated traffic on the regular listener pushes the session's
    // base out of the 2-entry cache.
    let admin = TcpStream::connect(handle.addr()).unwrap();
    admin
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut admin_reader = BufReader::new(admin.try_clone().unwrap());
    let mut admin = admin;
    for len in [20usize, 30, 40] {
        let line = Request::Layout(Box::new(LayoutRequest {
            graph: chain(len, len),
            algo: lpl(),
            nd_width: 1.0,
            deadline: None,
        }))
        .encode_v1();
        writeln!(admin, "{line}").unwrap();
        let mut reply = String::new();
        admin_reader.read_line(&mut reply).unwrap();
        let reply = parse(reply.trim_end()).unwrap();
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.encode()
        );
    }

    // The next edit cannot find its base: the session closes with the
    // post-drain error shape.
    writeln!(stream, "{}", delta_line(3, &[(5, 6)], &[])).unwrap();
    match read_frame(&mut reader) {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BaseNotFound, "{}", e.message);
        }
        other => panic!(
            "expected BaseNotFound, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }

    // Recovery is a plain re-open with the full edited graph on the
    // same connection and id — then edits flow again from version 0.
    let edited =
        DiGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]).unwrap();
    writeln!(stream, "{}", open_line(3, edited)).unwrap();
    match read_frame(&mut reader) {
        Response::SessionOpened { version, reply } => {
            assert_eq!(version, 0);
            assert_eq!(reply.height, 7);
        }
        other => panic!(
            "expected SessionOpened, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }
    writeln!(stream, "{}", delta_line(3, &[(6, 7)], &[])).unwrap();
    match read_frame(&mut reader) {
        Response::SessionUpdate(update) => {
            assert_eq!(update.version, 1);
            assert_eq!(update.height, 8);
        }
        other => panic!(
            "expected SessionUpdate, got {}",
            other.encode(&protocol::Envelope::v1())
        ),
    }
}

/// Reads one flat counter from the regular listener's `stats` op.
fn admin_stat(handle: &ServerHandle, key: &str) -> u64 {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{{\"op\":\"stats\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let stats = parse(line.trim_end()).unwrap();
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}
