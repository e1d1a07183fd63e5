//! The traced ladder: the workload's first seeded requests replayed at
//! each layer's public entry point, bottom rung first, on a fresh stack
//! per rung so every rung sees the same cache hits and misses. A rung's
//! self time is the gap between its span and the same request's span on
//! the rung below; nothing is traced inside the program.

use crate::check;
use crate::fleet::{self, connect, Listeners, Stack};
use crate::gen::{self, Edit};
use crate::span::Recorder;
use crate::stats::{mean, median, percentile, rss_mb, share};
use crate::workloads::{self, Tally, Workload, EDIT_CHAINS, EDIT_N};
use antlayer_aco::AcoLayering;
use antlayer_client::{
    Json, LayoutOptions, LiveConn, LiveEvent, Request, Response, Session, Transport,
};
use antlayer_graph::{Dag, GraphDelta};
use antlayer_layering::{Layering, WidthModel};
use antlayer_service::{
    AlgoSpec, DeltaRequest, Digest, LayoutRequest, Scheduler, SchedulerConfig, ServiceCore, Source,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edits per chain replayed on the ladder (`edit`).
const EDIT_ROUNDS: usize = 3;
/// Graphs the solver rung races the portfolio on when the workload's
/// own requests never run it, to time each member.
const MEMBER_PROBES: usize = 4;
/// The portfolio members whose time is reported.
const MEMBERS: [&str; 5] = ["lpl", "lpl-pl", "minwidth", "minwidth-pl", "ns"];

/// One replayed request.
pub struct Step {
    /// Request id, shared by every span of this request.
    req: u64,
    /// Whether the end-to-end run times this request as `p50_us`.
    main: bool,
    /// The edit chain (one per live session or `layout_delta` chain).
    chain: Option<usize>,
    /// The graph after this step.
    dag: Arc<Dag>,
    /// For an edit: the graph before it and the edit.
    delta: Option<(Arc<Dag>, Edit)>,
    options: LayoutOptions,
}

impl Step {
    fn layout(
        req: u64,
        main: bool,
        chain: Option<usize>,
        dag: Dag,
        options: LayoutOptions,
    ) -> Step {
        Step {
            req,
            main,
            chain,
            dag: Arc::new(dag),
            delta: None,
            options,
        }
    }

    /// The request's algorithm and deadline, as the service parses them.
    fn spec(&self) -> (AlgoSpec, Option<Duration>) {
        match self.options.layout_request(self.dag.graph()) {
            Ok(Request::Layout(r)) => (r.algo, r.deadline),
            _ => unreachable!("generated options are valid"),
        }
    }

    fn deadline(&self, from: Instant) -> Option<Instant> {
        self.spec().1.map(|d| from + d)
    }
}

/// Appends a client's interleaved chains: a full layout of each chain's
/// base, then `rounds` edits per chain, round-robin, as the client sends
/// them.
fn push_chains(out: &mut Vec<Step>, main: bool, mut chains: Vec<gen::EditStream>, rounds: usize) {
    let first = out
        .iter()
        .filter_map(|s| s.chain)
        .max()
        .map_or(0, |c| c + 1);
    for (c, edits) in chains.iter().enumerate() {
        let req = out.len() as u64;
        out.push(Step::layout(
            req,
            main,
            Some(first + c),
            edits.dag().clone(),
            gen::aco_options(),
        ));
    }
    for _ in 0..rounds {
        for (c, edits) in chains.iter_mut().enumerate() {
            let before = Arc::new(edits.dag().clone());
            let edit = edits.next_edit();
            out.push(Step {
                req: out.len() as u64,
                main,
                chain: Some(first + c),
                dag: Arc::new(edits.dag().clone()),
                delta: Some((before, edit)),
                options: gen::aco_options(),
            });
        }
    }
}

/// The first seeded requests of the workload's untraced stream.
pub fn sample(workload: Workload, seed: u64) -> Vec<Step> {
    let mut out = Vec::new();
    match workload {
        Workload::Edit => {
            push_chains(
                &mut out,
                true,
                workloads::chains(seed, 1, EDIT_CHAINS, EDIT_N),
                EDIT_ROUNDS,
            );
            push_chains(&mut out, false, workloads::live_chains(seed), EDIT_ROUNDS);
        }
        Workload::Scale => {
            for i in 0..workloads::SCALE_CYCLE.len() {
                let req = out.len() as u64;
                out.push(Step::layout(
                    req,
                    true,
                    None,
                    workloads::scale_dag(seed, i),
                    workloads::scale_options(i),
                ));
            }
            push_chains(&mut out, false, workloads::live_chains(seed), 1);
        }
    }
    out
}

/// Per-rung span indices, by step.
type Column = Vec<Option<usize>>;

/// What the colony rung saw.
#[derive(Default)]
struct ColonyStats {
    tours: Vec<f64>,
    seeded: usize,
    held: usize,
    stopped: usize,
    trail_mb: f64,
}

/// The ladder's measurements.
pub struct Ladder {
    /// Every span recorded.
    pub rec: Recorder,
    steps: Vec<Step>,
    colony: Column,
    colony_stats: ColonyStats,
    solver: Column,
    members: BTreeMap<&'static str, Vec<f64>>,
    scheduler: Column,
    core: Column,
    line: Column,
    http: Column,
    router: Column,
    live: Column,
    /// The router's own counters after the router rung.
    pub router_counters: BTreeMap<String, f64>,
    rss: Vec<(&'static str, f64)>,
    /// Ladder requests attempted and failed.
    pub tally: Tally,
}

impl Ladder {
    fn check(&mut self, what: &str, result: Result<f64, String>) {
        self.tally.attempted += 1;
        if let Err(e) = result {
            self.tally.failed += 1;
            if self.tally.errors.len() < 8 {
                self.tally.errors.push(format!("ladder {what}: {e}"));
            }
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        i: usize,
        t0: Instant,
        t1: Instant,
        below: Option<usize>,
    ) -> usize {
        let s = self.rec.record(name, self.steps[i].req, t0, t1);
        self.rec.spans[s].below = below;
        s
    }
}

/// Runs every rung over the workload's sample.
pub fn run(workload: Workload, seed: u64) -> Ladder {
    let steps = sample(workload, seed);
    let n = steps.len();
    let mut l = Ladder {
        rec: Recorder::new(),
        steps,
        colony: vec![None; n],
        colony_stats: ColonyStats::default(),
        solver: vec![None; n],
        members: BTreeMap::new(),
        scheduler: vec![None; n],
        core: vec![None; n],
        line: vec![None; n],
        http: vec![None; n],
        router: vec![None; n],
        live: vec![None; n],
        router_counters: BTreeMap::new(),
        rss: Vec::new(),
        tally: Tally::default(),
    };
    colony_rung(&mut l);
    l.rss.push(("colony", rss_mb()));
    solver_rung(&mut l);
    l.rss.push(("solver", rss_mb()));
    scheduler_rung(&mut l);
    l.rss.push(("scheduler", rss_mb()));
    core_rung(&mut l);
    l.rss.push(("service_core", rss_mb()));
    let single = |http| fleet::server(Listeners { http, live: true });
    let line = single(false);
    wire_rung(
        &mut l,
        "transport.line",
        line.addr(),
        Transport::Tcp,
        Rung::Line,
    );
    l.rss.push(("transport.line", rss_mb()));
    line.shutdown();
    let http = single(true);
    let addr = http.http_addr().expect("HTTP listener");
    wire_rung(&mut l, "transport.http", addr, Transport::Http, Rung::Http);
    l.rss.push(("transport.http", rss_mb()));
    http.shutdown();
    let routed = Stack::fleet();
    let (addr, transport) = routed.front();
    wire_rung(&mut l, "router", addr, transport, Rung::Router);
    l.rss.push(("router", rss_mb()));
    l.router_counters = routed.counters();
    routed.shutdown();
    let live = single(false);
    live_rung(&mut l, live.live_addr().expect("live listener"));
    l.rss.push(("live", rss_mb()));
    live.shutdown();
    l
}

fn params(spec: &AlgoSpec) -> antlayer_aco::AcoParams {
    match spec {
        AlgoSpec::Aco(p) | AlgoSpec::Portfolio(p) => p.clone(),
        _ => unreachable!("every generated request runs the colony"),
    }
}

/// Re-applies a step's edit to its base graph and repairs the chain's
/// previous layering onto the result: the warm-start input.
fn apply_edit(base: &Dag, edit: &Edit, prev: &Layering) -> (Dag, Layering) {
    let edited = GraphDelta::new(edit.add.clone(), edit.remove.clone())
        .apply_to_dag(base)
        .expect("generated edits apply");
    let seed = prev.repaired(&edited);
    (edited, seed)
}

fn colony_rung(l: &mut Ladder) {
    let wm = WidthModel::unit();
    let mut prev: BTreeMap<usize, Layering> = BTreeMap::new();
    for i in 0..l.steps.len() {
        let (spec, _) = l.steps[i].spec();
        let colony = AcoLayering::new(params(&spec));
        let dag = l.steps[i].dag.clone();
        let t0 = Instant::now();
        let deadline = l.steps[i].deadline(t0);
        let (run, applied) = match &l.steps[i].delta {
            None => (colony.run_until(&dag, &wm, deadline), None),
            Some((base, edit)) => {
                let ta = Instant::now();
                let chain = l.steps[i].chain.expect("edits belong to a chain");
                let (edited, seed) = apply_edit(base, edit, &prev[&chain]);
                let tb = Instant::now();
                let run = colony
                    .run_seeded_until(&edited, &wm, &seed, deadline)
                    .expect("repaired seeds are valid");
                (run, Some((ta, tb)))
            }
        };
        let t1 = Instant::now();
        let s = l.span("colony", i, t0, t1, None);
        if let Some((ta, tb)) = applied {
            let child = l.rec.record("graph.delta_apply", l.steps[i].req, ta, tb);
            l.rec.spans[child].parent = Some(s);
        }
        l.colony[i] = Some(s);
        let result = check::checked_cost(&dag, &run.layering);
        l.check("colony", result);
        if l.steps[i].main {
            let stats = &mut l.colony_stats;
            stats.tours.push(run.tours.len() as f64);
            stats.seeded += usize::from(run.seeded);
            stats.held += usize::from(run.matched_seed_early);
            stats.stopped += usize::from(run.stopped_early);
            let v = dag.node_count() as f64;
            let h = colony.params.target_layers.unwrap_or(dag.node_count()) as f64;
            stats.trail_mb = stats.trail_mb.max(v * h * 8.0 / 1e6);
        }
        if let Some(chain) = l.steps[i].chain {
            prev.insert(chain, run.layering);
        }
    }
}

fn solver_rung(l: &mut Ladder) {
    let wm = WidthModel::unit();
    let mut prev: BTreeMap<usize, Layering> = BTreeMap::new();
    let mut raced = false;
    for i in 0..l.steps.len() {
        let (spec, _) = l.steps[i].spec();
        let solver = spec.solver();
        let dag = l.steps[i].dag.clone();
        let t0 = Instant::now();
        let deadline = l.steps[i].deadline(t0);
        let solution = match &l.steps[i].delta {
            None => solver.solve(&dag, &wm, deadline),
            Some((base, edit)) => {
                let chain = l.steps[i].chain.expect("edits belong to a chain");
                let (edited, seed) = apply_edit(base, edit, &prev[&chain]);
                solver.solve_seeded(&edited, &wm, &seed, deadline)
            }
        };
        let t1 = Instant::now();
        let below = l.colony[i];
        l.solver[i] = Some(l.span("solver", i, t0, t1, below));
        let result = check::check_cost(&dag, &solution.layering, solution.cost);
        l.check("solver", result);
        if let Some(race) = &solution.race {
            raced = true;
            record_members(&mut l.members, race);
        }
        if let Some(chain) = l.steps[i].chain {
            prev.insert(chain, solution.layering);
        }
    }
    if !raced {
        let probes: Vec<Arc<Dag>> = l
            .steps
            .iter()
            .filter(|s| s.delta.is_none())
            .take(MEMBER_PROBES)
            .map(|s| s.dag.clone())
            .collect();
        for dag in probes {
            let portfolio =
                AlgoSpec::parse("portfolio", gen::COLONY_SEED).expect("registered solver");
            let solution = portfolio.solver().solve(&dag, &wm, None);
            let result = check::check_cost(&dag, &solution.layering, solution.cost);
            l.check("portfolio members", result);
            if let Some(race) = &solution.race {
                record_members(&mut l.members, race);
            }
        }
    }
}

fn record_members(
    members: &mut BTreeMap<&'static str, Vec<f64>>,
    race: &antlayer_layering::RaceReport,
) {
    for m in &race.members {
        if let Some(name) = MEMBERS.iter().find(|&&n| n == m.solver) {
            members.entry(name).or_default().push(m.micros as f64);
        }
    }
}

fn scheduler_rung(l: &mut Ladder) {
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: fleet::WORKERS,
        ..Default::default()
    });
    let mut bases: BTreeMap<usize, Digest> = BTreeMap::new();
    for i in 0..l.steps.len() {
        let (algo, deadline) = l.steps[i].spec();
        let step = &l.steps[i];
        let t0;
        let response = match &step.delta {
            None => {
                let request = LayoutRequest {
                    graph: step.dag.graph().clone(),
                    algo,
                    nd_width: 1.0,
                    deadline,
                };
                t0 = Instant::now();
                scheduler.submit(request).and_then(|t| t.wait())
            }
            Some((_, edit)) => {
                let chain = step.chain.expect("edits belong to a chain");
                let request = DeltaRequest {
                    base: bases[&chain],
                    delta: GraphDelta::new(edit.add.clone(), edit.remove.clone()),
                    algo,
                    nd_width: 1.0,
                    deadline,
                };
                t0 = Instant::now();
                scheduler.submit_delta(request).and_then(|t| t.wait())
            }
        };
        let t1 = Instant::now();
        let dag = step.dag.clone();
        let options = step.options.clone();
        let chain = step.chain;
        match response {
            Ok(r) => {
                let computed = r.source != Source::CacheHit;
                let below = if computed { l.solver[i] } else { None };
                l.scheduler[i] = Some(l.span("scheduler", i, t0, t1, below));
                let m = &r.result.metrics;
                let result = check::check_digest(&dag, &options, &r.result.digest.to_string())
                    .and_then(|()| {
                        check::check_cost(&dag, &r.result.layering, m.height as f64 + m.width)
                    });
                l.check("scheduler", result);
                if let Some(chain) = chain {
                    bases.insert(chain, r.result.digest);
                }
            }
            Err(e) => l.check("scheduler", Err(e.to_string())),
        }
    }
}

fn core_rung(l: &mut Ladder) {
    let core = ServiceCore::new(Arc::new(Scheduler::new(SchedulerConfig {
        threads: fleet::WORKERS,
        ..Default::default()
    })));
    let mut bases: BTreeMap<usize, String> = BTreeMap::new();
    for i in 0..l.steps.len() {
        let step = &l.steps[i];
        let request = match &step.delta {
            None => step.options.layout_request(step.dag.graph()),
            Some((_, edit)) => {
                let base = &bases[&step.chain.expect("edits belong to a chain")];
                step.options.delta_request(base, &edit.add, &edit.remove)
            }
        };
        let line = request.expect("generated options are valid").encode_v1();
        let t0 = Instant::now();
        let reply = core.respond(&line);
        let t1 = Instant::now();
        let dag = step.dag.clone();
        let options = step.options.clone();
        let chain = step.chain;
        let below = l.scheduler[i];
        l.core[i] = Some(l.span("service_core", i, t0, t1, below));
        match antlayer_service::protocol::parse_response(&reply) {
            Ok((Response::Layout(reply), _)) => {
                l.check("service_core", check::check_reply(&dag, &options, &reply));
                if let Some(chain) = chain {
                    bases.insert(chain, reply.digest.clone());
                }
            }
            other => l.check("service_core", Err(format!("unexpected reply {other:?}"))),
        }
    }
}

/// The request/reply rungs over a socket.
#[derive(Clone, Copy, PartialEq)]
enum Rung {
    Line,
    Http,
    Router,
}

fn wire_rung(
    l: &mut Ladder,
    name: &'static str,
    addr: std::net::SocketAddr,
    transport: Transport,
    rung: Rung,
) {
    let Some(mut client) = connect(addr, transport) else {
        l.check(name, Err("connect failed".into()));
        return;
    };
    let mut bases: BTreeMap<usize, String> = BTreeMap::new();
    for i in 0..l.steps.len() {
        let step = &l.steps[i];
        let t0 = Instant::now();
        let result = match &step.delta {
            None => client.layout(&step.dag, &step.options),
            Some((_, edit)) => {
                let base = &bases[&step.chain.expect("edits belong to a chain")];
                client.layout_delta(base, &edit.add, &edit.remove, None, &step.options)
            }
        };
        let t1 = Instant::now();
        let dag = step.dag.clone();
        let options = step.options.clone();
        let chain = step.chain;
        let below = match rung {
            Rung::Line | Rung::Http => l.core[i],
            Rung::Router => l.http[i],
        };
        let s = Some(l.span(name, i, t0, t1, below));
        match rung {
            Rung::Line => l.line[i] = s,
            Rung::Http => l.http[i] = s,
            Rung::Router => l.router[i] = s,
        }
        match result {
            Ok(o) => {
                l.check(name, check::check_reply(&dag, &options, &o.reply));
                if let Some(chain) = chain {
                    bases.insert(chain, o.reply.digest);
                }
            }
            Err(e) => l.check(name, Err(e.to_string())),
        }
    }
}

fn live_rung(l: &mut Ladder, addr: std::net::SocketAddr) {
    let mut conn = match LiveConn::connect(&addr.to_string()) {
        Ok(c) => c,
        Err(e) => return l.check("live", Err(e.to_string())),
    };
    let mut sessions: BTreeMap<usize, Session> = BTreeMap::new();
    for i in 0..l.steps.len() {
        let step = &l.steps[i];
        let Some(chain) = step.chain else { continue };
        let id = Json::Num(chain as f64);
        let dag = step.dag.clone();
        let options = &step.options;
        let t0 = Instant::now();
        let checked = match &step.delta {
            None => conn
                .open(&id, &step.dag, &step.options)
                .map_err(|e| e.to_string())
                .and_then(|(version, reply)| {
                    let cost = check::check_reply(&dag, options, &reply)?;
                    sessions.insert(chain, Session::new(id.clone(), version, &reply));
                    Ok(cost)
                }),
            Some((_, edit)) => conn
                .send_delta(&id, &edit.add, &edit.remove)
                .and_then(|()| conn.next_event(Some(Duration::from_secs(60))))
                .map_err(|e| e.to_string())
                .and_then(|event| match event {
                    Some((_, LiveEvent::Update(update))) => {
                        let session = sessions.get_mut(&chain).ok_or("no open session")?;
                        session.apply_update(&update)?;
                        check::check_session(&dag, options, session, update.height)
                    }
                    other => Err(format!("expected a push, got {other:?}")),
                }),
        };
        let t1 = Instant::now();
        let below = l.scheduler[i];
        l.live[i] = Some(l.span("live", i, t0, t1, below));
        l.check("live", checked);
    }
    for chain in sessions.keys() {
        let _ = conn.close(&Json::Num(*chain as f64));
    }
}

impl Ladder {
    fn self_times(&self, column: &Column, keep: impl Fn(&Step) -> bool) -> Vec<f64> {
        column
            .iter()
            .zip(&self.steps)
            .filter(|(_, s)| keep(s))
            .filter_map(|(c, _)| c.map(|i| self.rec.self_us(i)))
            .collect()
    }

    fn durations(&self, column: &Column, keep: impl Fn(&Step) -> bool) -> Vec<f64> {
        column
            .iter()
            .zip(&self.steps)
            .filter(|(_, s)| keep(s))
            .filter_map(|(c, _)| c.map(|i| self.rec.spans[i].us()))
            .collect()
    }

    /// Latencies of the end-to-end run's request/reply requests on the
    /// top rung they cross (`transport.line`).
    fn top_us(&self) -> Vec<f64> {
        self.durations(&self.line, |s| s.main)
    }

    /// Mean of [`Ladder::top_us`].
    pub fn top_mean_us(&self) -> f64 {
        mean(&self.top_us())
    }

    /// Median of [`Ladder::top_us`]: the traced run's end-to-end p50.
    pub fn top_p50_us(&self) -> f64 {
        median(&self.top_us())
    }

    /// The per-layer metrics the ladder measures, by name and unit. The
    /// request path's rungs are summarised over the requests the
    /// end-to-end run times as `p50_us`, the live rung over the pushed
    /// edits.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let main = |s: &Step| s.main;
        let edits = |s: &Step| s.delta.is_some() && !s.main;
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put =
            |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
        let c = &self.colony_stats;
        let colony_us = self.self_times(&self.colony, main);
        put("colony.solve_us", median(&colony_us), "us");
        put("colony.tours_per_solve", mean(&c.tours), "count");
        put("colony.seed_held_share", share(c.held, c.seeded), "share");
        put(
            "colony.tours_per_s",
            c.tours.iter().sum::<f64>() / (colony_us.iter().sum::<f64>() / 1e6).max(1e-9),
            "1/s",
        );
        put(
            "colony.stopped_early_share",
            share(c.stopped, c.tours.len()),
            "share",
        );
        put("colony.trail_mb_computed", c.trail_mb, "MB");
        put(
            "solver.solve_us",
            median(&self.durations(&self.solver, main)),
            "us",
        );
        put(
            "solver.self_us",
            median(&self.self_times(&self.solver, main)),
            "us",
        );
        for m in MEMBERS {
            let times = self.members.get(m).map_or(&[][..], Vec::as_slice);
            put(&format!("solver.member_us.{m}"), mean(times), "us");
        }
        let applies: Vec<f64> = self
            .rec
            .spans
            .iter()
            .filter(|s| s.name == "graph.delta_apply")
            .map(|s| s.us())
            .collect();
        put("graph.delta_apply_us", median(&applies), "us");
        put(
            "scheduler.wait_us",
            median(&self.durations(&self.scheduler, main)),
            "us",
        );
        put(
            "scheduler.self_us",
            median(&self.self_times(&self.scheduler, main)),
            "us",
        );
        put(
            "service_core.self_us",
            median(&self.self_times(&self.core, main)),
            "us",
        );
        put(
            "transport.line.self_us",
            median(&self.self_times(&self.line, main)),
            "us",
        );
        put(
            "transport.http.self_us",
            median(&self.self_times(&self.http, main)),
            "us",
        );
        let router = self.self_times(&self.router, main);
        put("router.self_us", median(&router), "us");
        put("router.tail_us", percentile(&router, 0.9), "us");
        put(
            "live.self_us",
            median(&self.self_times(&self.live, edits)),
            "us",
        );
        for (rung, mb) in &self.rss {
            put(&format!("proc.rss_mb.{rung}"), *mb, "MB");
        }
        out
    }
}
