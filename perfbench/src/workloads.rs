//! The end-to-end load: one function per workload shape, each driving a
//! booted [`Stack`] for a measured window and checking every reply.

use crate::check;
use crate::fleet::{connect, Stack};
use crate::gen::{self, EditStream};
use antlayer_client::{Json, LayoutOptions, LayoutReply, LiveConn, LiveEvent, Session, Transport};
use antlayer_graph::Dag;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The workloads, by command-line name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Closed-loop edit chains and live sessions on one server.
    Edit,
    /// Closed-loop large graphs under a deadline on one server.
    Scale,
}

/// Nodes of the edit workload's graphs.
pub const EDIT_N: usize = 200;
/// Edit chains per edit client (and live sessions of the edit
/// workload's live client).
pub const EDIT_CHAINS: usize = 8;
/// How long the `edit` workload runs on the `scale` server once the
/// `scale` window has closed: its pushes are `scale`'s push figures
/// (1200–1700 pushes, so p99 has at least ten beyond it). Run after the
/// last timed request, it cannot move a `scale` request metric.
pub const PROBE_WINDOW: Duration = Duration::from_secs(15);
/// The percentile `push_tail_us` reports: every push comes from the
/// `edit` workload's live client, which sends over a thousand a run.
pub const PUSH_TAIL: f64 = 0.99;
/// The `scale` request cycle: solver and node count of each request, in
/// order. Sorted by latency, the four colony requests at 4·10³ nodes
/// (about 0.12 s, held by the deadline) fill the lowest 57 % and set
/// `p50_us`; the portfolio race at 250 nodes (0.3–0.7 s) comes next and
/// the two colony requests at 10⁴ nodes (0.55–0.7 s) on top, where
/// `tail_us` (p85) falls. Neither percentile sits on a boundary between
/// classes, so run-to-run changes in the mix of graphs do not move them.
pub const SCALE_CYCLE: [(&str, usize); 7] = [
    ("aco", 4000),
    ("aco", 4000),
    ("portfolio", 250),
    ("aco", 4000),
    ("aco", 10_000),
    ("aco", 4000),
    ("aco", 10_000),
];
/// The `scale` requests' deadline.
pub const SCALE_DEADLINE_MS: u64 = 100;

impl Workload {
    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "edit" => Some(Workload::Edit),
            "scale" => Some(Workload::Scale),
            _ => None,
        }
    }

    /// The percentile `tail_us` reports: the highest with at least ten
    /// samples beyond it at the sample counts a run collects that does
    /// not fall where two classes of request meet.
    pub fn tail(self) -> f64 {
        match self {
            Workload::Edit => 0.99,
            Workload::Scale => 0.85,
        }
    }

    /// The latency limit `deadline_met_share` counts replies against:
    /// the request deadline plus a fixed slack on `scale`, a fixed
    /// latency limit on `edit`.
    pub fn limit(self) -> Duration {
        match self {
            Workload::Edit => Duration::from_millis(50),
            Workload::Scale => Duration::from_millis(SCALE_DEADLINE_MS + 100),
        }
    }
}

/// What one measured phase observed.
#[derive(Default)]
pub struct Tally {
    /// Request/reply latencies, microseconds.
    pub latencies_us: Vec<f64>,
    /// Update-to-push latencies, microseconds.
    pub pushes_us: Vec<f64>,
    /// Returned `H + W` over longest-path `H + W`, per checked output.
    pub ratios: Vec<f64>,
    /// Requests and pushes attempted.
    pub attempted: usize,
    /// Failed, dropped or invalid replies and pushes.
    pub failed: usize,
    /// Replies within the workload's latency limit.
    pub within_limit: usize,
    /// Replies that were warm-started (`layout_delta` chains).
    pub warm: usize,
    /// Wall time of the measured window, seconds.
    pub elapsed_s: f64,
    /// The first failures, for the error report.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Checks a reply for `dag` under `options` and records it with its
    /// latency.
    fn reply(
        &mut self,
        dag: &Dag,
        options: &LayoutOptions,
        reply: &LayoutReply,
        latency: Duration,
        limit: Duration,
    ) {
        match check::check_reply(dag, options, reply) {
            Ok(cost) => {
                self.ratios.push(cost / check::lpl_cost(dag));
                self.latencies_us.push(latency.as_secs_f64() * 1e6);
                self.warm += usize::from(reply.seeded);
                self.within_limit += usize::from(latency <= limit);
            }
            Err(e) => self.fail(format!("reply check: {e}")),
        }
    }

    /// Takes the push probe's pushes, attempts and failures; its replies
    /// and cost ratios are checked but are not this workload's.
    fn absorb_pushes(&mut self, probe: Tally) {
        self.pushes_us.extend(probe.pushes_us);
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.errors.extend(probe.errors);
    }

    /// Folds another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_us.extend(other.latencies_us);
        self.pushes_us.extend(other.pushes_us);
        self.ratios.extend(other.ratios);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
        self.warm += other.warm;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.errors.extend(other.errors);
    }
}

/// The options of `scale` request `i`.
pub fn scale_options(i: usize) -> LayoutOptions {
    LayoutOptions {
        algo: SCALE_CYCLE[i % SCALE_CYCLE.len()].0.into(),
        deadline_ms: Some(SCALE_DEADLINE_MS),
        ..gen::aco_options()
    }
}

/// The graph of `scale` request `i` in phase stream `stream`.
pub fn scale_dag(stream: u64, i: usize) -> Dag {
    gen::layered_dag(
        SCALE_CYCLE[i % SCALE_CYCLE.len()].1,
        gen::mix(stream, 20, i as u64),
    )
}

/// The edit chains of client `client` in `stream`: `k` chains, each
/// over its own `n`-node base graph. A client round-robins over its
/// chains, so a run's figures average over `k` graphs instead of
/// resting on one.
pub fn chains(stream: u64, client: u64, k: usize, n: usize) -> Vec<EditStream> {
    (0..k as u64)
        .map(|c| {
            let base = gen::dag(n, gen::mix(stream, 30 + client, c));
            EditStream::new(base, gen::mix(stream, 40 + client, c))
        })
        .collect()
}

/// The live sessions of `stream`: one per edit chain of the edit
/// workload's second client.
pub fn live_chains(stream: u64) -> Vec<EditStream> {
    chains(stream, 2, EDIT_CHAINS, EDIT_N)
}

/// Runs one measured phase of `workload` against `stack` for `window`,
/// drawing its inputs from `stream`.
pub fn run_phase(workload: Workload, stack: &Stack, stream: u64, window: Duration) -> Tally {
    let front = stack.shards[0].addr();
    let live = stack.live();
    let limit = workload.limit();
    match workload {
        Workload::Edit => {
            let (mut main, side) = std::thread::scope(|scope| {
                let side = scope.spawn(move || {
                    let until = Instant::now() + window;
                    let mut tally = Tally::default();
                    if let Some(mut live) =
                        LiveSessions::open(live, live_chains(stream), &mut tally)
                    {
                        while Instant::now() < until && live.edit(&mut tally) {}
                        live.close();
                    }
                    tally
                });
                let chains = chains(stream, 1, EDIT_CHAINS, EDIT_N);
                let main = edit_client(front, chains, window, limit);
                (main, side.join().expect("live client thread"))
            });
            main.merge(side);
            main
        }
        Workload::Scale => {
            let mut tally = scale_client(front, stream, window, limit);
            tally.absorb_pushes(run_phase(Workload::Edit, stack, stream, PROBE_WINDOW));
            tally
        }
    }
}

/// Closed loop over interleaved edit chains: each chain starts with a
/// full layout, then sends `layout_delta` edits, each warm-starting from
/// the chain's previous reply.
fn edit_client(
    addr: SocketAddr,
    mut chains: Vec<EditStream>,
    window: Duration,
    limit: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let Some(mut client) = connect(addr, Transport::Tcp) else {
        tally.fail("edit connect".into());
        return tally;
    };
    let options = gen::aco_options();
    let start = Instant::now();
    let mut bases: Vec<Option<String>> = vec![None; chains.len()];
    let mut i = 0usize;
    while start.elapsed() < window {
        let c = i % chains.len();
        i += 1;
        let edits = &mut chains[c];
        let edit = bases[c].as_ref().map(|_| edits.next_edit());
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = match (&bases[c], &edit) {
            (Some(b), Some(e)) => {
                client.layout_delta(b, &e.add, &e.remove, Some(edits.dag().graph()), &options)
            }
            _ => client.layout(edits.dag(), &options),
        };
        let latency = t0.elapsed();
        match result {
            Ok(o) => {
                tally.reply(edits.dag(), &options, &o.reply, latency, limit);
                bases[c] = Some(o.reply.digest);
            }
            Err(e) => {
                tally.fail(format!("edit: {e}"));
                bases[c] = None;
            }
        }
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

/// Closed loop over the `scale` cycle, in complete cycles.
fn scale_client(addr: SocketAddr, stream: u64, window: Duration, limit: Duration) -> Tally {
    let mut tally = Tally::default();
    let Some(mut client) = connect(addr, Transport::Tcp) else {
        tally.fail("scale connect".into());
        return tally;
    };
    let start = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(SCALE_CYCLE.len()) || start.elapsed() < window {
        let dag = scale_dag(stream, i);
        let options = scale_options(i);
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = client.layout(&dag, &options);
        let latency = t0.elapsed();
        match result {
            Ok(o) => tally.reply(&dag, &options, &o.reply, latency, limit),
            Err(e) => tally.fail(format!("scale request {i}: {e}")),
        }
        i += 1;
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

/// Live sessions on one connection, one per edit chain, edited one at a
/// time round-robin. Every push is applied to its session's layers and
/// checked against the edited graph.
struct LiveSessions {
    conn: LiveConn,
    chains: Vec<EditStream>,
    sessions: Vec<Session>,
    next: usize,
    options: LayoutOptions,
}

impl LiveSessions {
    /// Connects and opens one session per chain; `None` (with the
    /// failure in `tally`) if any step fails.
    fn open(addr: SocketAddr, chains: Vec<EditStream>, tally: &mut Tally) -> Option<LiveSessions> {
        let options = gen::aco_options();
        let mut conn = match LiveConn::connect(&addr.to_string()) {
            Ok(c) => c,
            Err(e) => {
                tally.fail(format!("live connect: {e}"));
                return None;
            }
        };
        let mut sessions = Vec::with_capacity(chains.len());
        for (c, edits) in chains.iter().enumerate() {
            let id = Json::Num(c as f64);
            tally.attempted += 1;
            let opened = conn
                .open(&id, edits.dag(), &options)
                .map_err(|e| e.to_string())
                .and_then(|(version, reply)| {
                    check::check_reply(edits.dag(), &options, &reply)?;
                    Ok(Session::new(id, version, &reply))
                });
            match opened {
                Ok(session) => sessions.push(session),
                Err(e) => {
                    tally.fail(format!("session_open: {e}"));
                    return None;
                }
            }
        }
        Some(LiveSessions {
            conn,
            chains,
            sessions,
            next: 0,
            options,
        })
    }

    /// Streams one edit into the next session and waits for its push.
    /// Returns false, with the failure in `tally`, if the push is
    /// missing or fails its check; the sessions are then unusable.
    fn edit(&mut self, tally: &mut Tally) -> bool {
        let c = self.next % self.chains.len();
        self.next += 1;
        let edits = &mut self.chains[c];
        let session = &mut self.sessions[c];
        let id = session.id().clone();
        let edit = edits.next_edit();
        tally.attempted += 1;
        let t0 = Instant::now();
        let sent = self.conn.send_delta(&id, &edit.add, &edit.remove);
        let event = sent.and_then(|()| self.conn.next_event(Some(Duration::from_secs(60))));
        let latency = t0.elapsed();
        let checked = match event {
            Ok(Some((frame, LiveEvent::Update(update)))) if frame == id => {
                session.apply_update(&update).and_then(|()| {
                    check::check_session(edits.dag(), &self.options, session, update.height)
                })
            }
            Ok(other) => Err(format!(
                "expected a push for session {}, got {other:?}",
                id.encode()
            )),
            Err(e) => Err(e.to_string()),
        };
        match checked {
            Ok(cost) => {
                tally.pushes_us.push(latency.as_secs_f64() * 1e6);
                tally.ratios.push(cost / check::lpl_cost(edits.dag()));
                true
            }
            Err(e) => {
                tally.fail(format!("live push: {e}"));
                false
            }
        }
    }

    /// Closes every session.
    fn close(mut self) {
        for session in &self.sessions {
            let _ = self.conn.close(session.id());
        }
    }
}
