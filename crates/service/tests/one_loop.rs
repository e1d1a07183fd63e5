//! One loop per process: a server holding line, HTTP and live
//! connections open spends no thread per connection.
//!
//! This file holds a single test, so no other test's threads can move
//! the process's thread count while it is measured.

use antlayer_service::{SchedulerConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections held open on each listener.
const PER_LISTENER: usize = 16;

/// Threads of this process (read-only view of `/proc/self/task`).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

#[derive(Clone, Copy, Debug)]
enum Framing {
    Line,
    Http,
    Live,
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// Sends one `ping` in the connection's framing and returns the reply
/// payload.
fn ping(framing: Framing, conn: &mut BufReader<TcpStream>) -> String {
    let request: &[u8] = match framing {
        Framing::Line | Framing::Live => b"{\"op\":\"ping\"}\n",
        Framing::Http => b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    };
    conn.get_mut().write_all(request).unwrap();
    let mut line = String::new();
    conn.read_line(&mut line).unwrap();
    if let Framing::Http = framing {
        assert_eq!(line, "HTTP/1.1 200 OK\r\n");
        let mut length = 0;
        loop {
            line.clear();
            conn.read_line(&mut line).unwrap();
            match line.trim_end().split_once(": ") {
                Some(("Content-Length", n)) => length = n.parse().unwrap(),
                Some(_) => {}
                None => break,
            }
        }
        let mut body = vec![0; length];
        conn.read_exact(&mut body).unwrap();
        line = String::from_utf8(body).unwrap();
    }
    line
}

#[test]
fn line_http_and_live_connections_share_one_loop_thread() {
    let free = || Some("127.0.0.1:0".to_string());
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: free(),
        live_addr: free(),
        scheduler: SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let listeners = [
        (Framing::Line, server.addr()),
        (Framing::Http, server.http_addr().unwrap()),
        (Framing::Live, server.live_addr().unwrap()),
    ];
    let before = threads();

    let mut conns = Vec::new();
    for _ in 0..PER_LISTENER {
        for (framing, addr) in listeners {
            let mut conn = connect(addr);
            let reply = ping(framing, &mut conn);
            assert!(reply.contains(r#""ok":true"#), "{framing:?}: {reply}");
            conns.push((framing, conn));
        }
    }

    // Line and HTTP replies are computed on short-lived threads; give
    // the last of them a moment to exit before reading the count.
    let deadline = Instant::now() + Duration::from_secs(5);
    let grown = loop {
        let grown = threads().saturating_sub(before);
        if grown <= 2 || Instant::now() > deadline {
            break grown;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        grown <= 2,
        "{grown} more threads while {} connections are open",
        conns.len()
    );

    for (framing, conn) in &mut conns {
        let reply = ping(*framing, conn);
        assert!(reply.contains(r#""ok":true"#), "{framing:?}: {reply}");
    }
    server.shutdown();
    for (framing, conn) in &mut conns {
        let mut rest = [0u8; 64];
        let read = conn.read(&mut rest).unwrap();
        assert_eq!(read, 0, "{framing:?} connection still open after shutdown");
    }
}
