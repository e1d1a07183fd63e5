//! In-process service stacks: the servers, router and listeners the
//! workloads and the ladder talk to, booted on free loopback ports.

use antlayer_client::{Client, ClientConfig, Json, Transport};
use antlayer_router::{Router, RouterConfig, RouterHandle};
use antlayer_service::{SchedulerConfig, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Scheduler workers per server: one per core of the 2-core host the
/// benchmark was sized on.
pub const WORKERS: usize = 2;

/// The listeners a server opens.
#[derive(Clone, Copy)]
pub struct Listeners {
    /// HTTP/1.1 next to line TCP.
    pub http: bool,
    /// The live (push) listener.
    pub live: bool,
}

/// Binds and spawns one server on free loopback ports.
pub fn server(listeners: Listeners) -> ServerHandle {
    let free = || "127.0.0.1:0".to_string();
    Server::bind(ServerConfig {
        addr: free(),
        http_addr: listeners.http.then(free),
        live_addr: listeners.live.then(free),
        scheduler: SchedulerConfig {
            threads: WORKERS,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server")
}

/// One booted stack: its servers and, for the fleet, the router.
pub struct Stack {
    /// The servers (shards when a router fronts them).
    pub shards: Vec<ServerHandle>,
    /// The router, when the stack is a fleet.
    pub router: Option<RouterHandle>,
}

impl Stack {
    /// One server with every listener a single-server workload uses.
    pub fn single() -> Stack {
        Stack {
            shards: vec![server(Listeners {
                http: true,
                live: true,
            })],
            router: None,
        }
    }

    /// Two line-TCP shards behind a router that speaks HTTP to clients
    /// and writes every fresh result through to both shards
    /// (`replicas: 2`).
    pub fn fleet() -> Stack {
        let shards: Vec<ServerHandle> = (0..2)
            .map(|_| {
                server(Listeners {
                    http: false,
                    live: false,
                })
            })
            .collect();
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            replicas: 2,
            ..Default::default()
        })
        .expect("bind loopback router")
        .spawn()
        .expect("spawn router");
        Stack {
            shards,
            router: Some(router),
        }
    }

    /// The address clients send request/reply traffic to: the router's
    /// HTTP listener for a fleet, the server's line listener otherwise.
    pub fn front(&self) -> (SocketAddr, Transport) {
        match &self.router {
            Some(r) => (r.http_addr().expect("router serves HTTP"), Transport::Http),
            None => (self.shards[0].addr(), Transport::Tcp),
        }
    }

    /// The live listener of the first server.
    pub fn live(&self) -> SocketAddr {
        self.shards[0].live_addr().expect("live listener")
    }

    /// Blocks until every server and the router answer a ping.
    pub fn ping_all(&self) {
        let mut targets: Vec<(SocketAddr, Transport)> = self
            .shards
            .iter()
            .map(|s| (s.addr(), Transport::Tcp))
            .collect();
        targets.push(self.front());
        for (addr, transport) in targets {
            loop {
                let pinged = connect(addr, transport).and_then(|mut c| c.ping().ok());
                if pinged.is_some() {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    /// The counters the stack's own `stats` op reports, summed over its
    /// servers, plus the router's own (`router_*`, `replica_puts`).
    pub fn counters(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let mut add = |addr: SocketAddr, keep: &dyn Fn(&str) -> bool| {
            let stats = connect(addr, Transport::Tcp).and_then(|mut c| c.stats().ok());
            for (k, v) in stats.unwrap_or_default() {
                if let (true, Json::Num(x)) = (keep(&k), v) {
                    *out.entry(k).or_insert(0.0) += x;
                }
            }
        };
        for shard in &self.shards {
            add(shard.addr(), &|_| true);
        }
        if let Some(router) = &self.router {
            add(router.addr(), &|k| {
                k.starts_with("router_") || k == "replica_puts"
            });
        }
        out
    }

    /// Stops every listener and joins every thread of the stack.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// A client over `transport`, or `None` when the connect fails.
pub fn connect(addr: SocketAddr, transport: Transport) -> Option<Client> {
    Client::connect_with(
        &addr.to_string(),
        ClientConfig {
            transport,
            ..Default::default()
        },
    )
    .ok()
}

/// Boots `boots` single-server stacks one after another, `gap` apart,
/// each timed from the start of its boot until [`Stack::ping_all`]
/// returns. Every stack but the last is shut down; returns the last
/// stack and the boot times in seconds.
pub fn boot_timed(boots: usize, gap: Duration) -> (Stack, Vec<f64>) {
    let mut times = Vec::with_capacity(boots);
    let mut last = None;
    for _ in 0..boots {
        if let Some(stack) = last.take() {
            Stack::shutdown(stack);
        }
        std::thread::sleep(gap);
        let t0 = Instant::now();
        let stack = Stack::single();
        stack.ping_all();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(stack);
    }
    (last.expect("at least one boot"), times)
}
