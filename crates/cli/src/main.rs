//! `antlayer` — command-line front end.
//!
//! ```text
//! antlayer layer  [--algo NAME] [--nd-width F] [--seed N] [--threads N]
//!                 [--deadline-ms MS] [--warm-from JSON] [--json-out OUT] FILE
//!                                                                # print metrics + layers
//! antlayer draw   [--algo NAME] [--svg OUT] [--seed N] [--threads N] FILE
//!                                                                # render ASCII (and SVG)
//! antlayer gen    [--n N] [--seed S] [--gml]                     # emit a synthetic DAG as DOT/GML
//! antlayer suite  [--seed S] [--total N]                         # AT&T-like suite statistics
//! antlayer serve  [--addr HOST:PORT] [--http PORT] [--live PORT] [--threads N]
//!                 [--cache-cap N] [--cache-bytes B] [--cache-dir DIR]
//!                 [--queue-cap N] [--shards N] [--max-conns N]
//!                 [--refresh-every K]                            # batch layout server
//! antlayer route  --shards HOST:PORT,HOST:PORT[,...] [--addr HOST:PORT]
//!                 [--http PORT] [--vnodes N] [--probe-ms MS]
//!                 [--max-conns N] [--replicas N]                 # consistent-hash router
//! antlayer reshard --router HOST:PORT (--join ADDR | --drain ADDR)
//!                                                                # live fleet membership
//! ```
//!
//! `layout` is accepted as an alias of `layer`. `FILE` may be `-` for
//! stdin; `.gml` files (or `--gml`) are parsed as GML, anything else as
//! DOT. Algorithms: `lpl`, `lpl-pl`, `minwidth`, `minwidth-pl`, `cg`,
//! `ns`, `aco` (default `aco`), `exact` (certified optimum on small
//! graphs), `portfolio` (races every solver under one deadline and
//! reports the winner).
//!
//! `--deadline-ms MS` gives `layer` an anytime budget: the solver
//! returns its best incumbent when the clock runs out and the output
//! notes the truncation. Most useful with `aco` and `portfolio`.
//!
//! `--threads N` sets the colony's worker threads (`0` = all available,
//! capped at the ant count); results are identical for every thread count.
//!
//! `--warm-from JSON` warm-starts the colony (ACO only) from a previous
//! layering: the file holds `{"layers":[[ids…],…]}` — the `layers` member
//! of a server response, or the output of a previous `--json-out OUT` run.
//! The layering is repaired onto the (possibly edited) input graph and
//! installed as the colony's incumbent, so small edits converge in a few
//! repair tours instead of a cold search.
//!
//! `serve` starts the batch layout server of `antlayer-service`: it
//! answers newline-delimited JSON layout requests over TCP with
//! canonical-digest caching, in-flight dedup, admission control, and
//! per-request `deadline_ms` budgets (anytime ACO). `--http PORT` adds a
//! second, HTTP/1.1 listener (`POST /v2` with `Content-Length` bodies;
//! `GET /healthz` for probes, `GET /metrics` for Prometheus scrapes)
//! serving the identical protocol — handy where raw TCP is
//! firewall-hostile; `curl` examples live in the README.
//! `--cache-bytes B` sets a soft byte budget on the layout cache:
//! crossing it logs one warning (observability, not eviction — sizing
//! stays `--cache-cap`'s job). `--cache-dir DIR` makes the cache durable:
//! every computed layout is appended to a checksummed segment log in
//! `DIR` and replayed on the next boot, so a restarted shard serves its
//! pre-crash entries from disk instead of recomputing them.
//! `route` starts the `antlayer-router` front: it
//! consistent-hashes request digests across the given `antlayer serve`
//! shards, fails over past down shards, and aggregates `stats`; it takes
//! the same `--http PORT` for its client-facing side. `--replicas N`
//! write-throughs each fresh result to the next `N−1` ring candidates,
//! so a single shard death loses no cached work. Clients speak the
//! identical protocol to either; see `docs/PROTOCOL.md` for the wire
//! format (v1 lines and the v2 envelope) and `docs/ARCHITECTURE.md` for
//! the topology.
//! `reshard` changes a running router's fleet membership **live**:
//! `--join ADDR` enrolls a freshly started `antlayer serve` shard (its
//! keys' cache entries stream over from their old owners while requests
//! keep serving), `--drain ADDR` empties a shard into the rest of the
//! fleet and removes it — both with zero cached-work loss. The command
//! blocks until the handoff completes and prints the resulting
//! topology.

use antlayer_aco::AcoParams;
use antlayer_datasets::{att_like_graph, GraphSuite, Table};
use antlayer_graph::io::{dot, gml};
use antlayer_graph::DiGraph;
use antlayer_layering::{LayeringMetrics, Solution, WidthModel};
use antlayer_router::{Router, RouterConfig};
use antlayer_service::{AlgoSpec, SchedulerConfig, Server, ServerConfig};
use antlayer_sugiyama::{draw, PipelineOptions, SvgOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("antlayer: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  antlayer layer [--algo NAME] [--nd-width F] [--seed N] [--threads N]
                 [--deadline-ms MS] [--warm-from JSON] [--json-out OUT]
                 FILE                                       (alias: layout)
  antlayer draw  [--algo NAME] [--svg OUT]   [--seed N] [--threads N] FILE
  antlayer gen   [--n N] [--seed S] [--gml]
  antlayer suite [--seed S] [--total N]
  antlayer serve [--addr HOST:PORT] [--http PORT] [--live PORT]
                 [--threads N] [--cache-cap N] [--cache-bytes B]
                 [--cache-dir DIR] [--queue-cap N] [--shards N]
                 [--max-conns N] [--refresh-every K]
  antlayer route --shards HOST:PORT,HOST:PORT[,...] [--addr HOST:PORT]
                 [--http PORT] [--vnodes N] [--probe-ms MS] [--max-conns N]
                 [--replicas N]
  antlayer reshard --router HOST:PORT (--join ADDR | --drain ADDR)
algorithms: lpl, lpl-pl, minwidth, minwidth-pl, cg, ns, aco (default),
exact (certified optimum, small graphs), portfolio (race them all)
deadline-ms: anytime budget for layer; the best incumbent at the
deadline is returned and the truncation is noted
http: PORT (or HOST:PORT) of an additional HTTP/1.1 listener (POST /v2,
GET /healthz, GET /metrics for Prometheus scrapes)
live: PORT (or HOST:PORT) of the streaming edit-session listener
(session_open/session_delta/session_close; pushes session_update
frames; see docs/PROTOCOL.md)
refresh-every: cold-refresh a warm delta chain every K links (0 = off)
cache-bytes: soft budget on the layout cache's approximate byte size;
crossing it logs one warning (sizing stays --cache-cap's job)
cache-dir: durable cache: computed layouts are appended to a segment
log in DIR and replayed on the next boot
replicas: fleet-wide copies per cached layout (route); N >= 2 survives
any single shard death without losing cached work
threads: colony worker threads, 0 = all available (results are
thread-count independent)
warm-from: JSON layering ({\"layers\":[[ids...],...]}) used as the
colony's incumbent (aco only); write one with --json-out";

/// Minimal flag parser: `--key value` pairs plus positionals.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if valued.contains(&name) {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), v.clone()));
                    i += 2;
                } else {
                    switches.push(name.to_string());
                    i += 1;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Flags {
            pairs,
            switches,
            positional,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "layer" | "layout" => cmd_layer(rest),
        "draw" => cmd_draw(rest),
        "gen" => cmd_gen(rest),
        "suite" => cmd_suite(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "reshard" => cmd_reshard(rest),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_graph(path: &str, force_gml: bool) -> Result<(DiGraph, Vec<String>), String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    if force_gml || path.ends_with(".gml") {
        let g = gml::parse_gml(&text).map_err(|e| format!("GML parse: {e}"))?;
        let labels = g
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if l.is_empty() {
                    g.original_ids[i].to_string()
                } else {
                    l.clone()
                }
            })
            .collect();
        Ok((g.graph, labels))
    } else {
        let g = dot::parse_dot(&text).map_err(|e| format!("DOT parse: {e}"))?;
        let names = g.names.clone();
        Ok((g.graph, names))
    }
}

fn cli_algo_spec(name: &str, seed: u64, threads: usize) -> Result<AlgoSpec, String> {
    let mut spec = AlgoSpec::parse(name, seed)?;
    if let AlgoSpec::Aco(params) | AlgoSpec::Portfolio(params) = &mut spec {
        *params = cli_aco_params(seed, threads);
    }
    Ok(spec)
}

/// The colony parameters the CLI builds from its flags: `--seed` and
/// `--threads` (0 = all available cores, capped at the ant count by the
/// colony itself).
fn cli_aco_params(seed: u64, threads: usize) -> AcoParams {
    AcoParams::default().with_seed(seed).with_threads(threads)
}

fn cmd_layer(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "algo",
            "nd-width",
            "seed",
            "threads",
            "deadline-ms",
            "warm-from",
            "json-out",
        ],
    )?;
    let path = flags
        .positional
        .first()
        .ok_or("layer: missing input file")?;
    let (graph, labels) = load_graph(path, flags.has("gml"))?;
    let algo_name = flags.get("algo").unwrap_or("aco");
    let seed = flags.get_parsed("seed", 1u64)?;
    let threads = flags.get_parsed("threads", 1usize)?;
    let nd: f64 = flags.get_parsed("nd-width", 1.0)?;
    let widths = WidthModel::with_dummy_width(nd);
    let deadline = match flags.get("deadline-ms") {
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --deadline-ms"))?;
            Some(std::time::Instant::now() + std::time::Duration::from_millis(ms))
        }
        None => None,
    };

    // Route through the pipeline's cycle removal so cyclic inputs work.
    let oriented = antlayer_sugiyama::acyclic_orientation(&graph);
    if !oriented.reversed.is_empty() {
        println!(
            "note: reversed {} edge(s) to break cycles",
            oriented.reversed.len()
        );
    }
    let (name, layering) = match flags.get("warm-from") {
        Some(warm_path) => {
            // Warm start is a colony feature: the seed layering becomes
            // the incumbent of a fresh ACO run.
            if algo_name != "aco" {
                return Err(format!(
                    "layer: --warm-from only applies to the aco algorithm, not '{algo_name}'"
                ));
            }
            let text = std::fs::read_to_string(warm_path)
                .map_err(|e| format!("reading {warm_path}: {e}"))?;
            let hint = parse_layering_json(&text, oriented.dag.node_count())?;
            let seed_layering = hint.repaired(&oriented.dag);
            let colony = antlayer_aco::AcoLayering::new(cli_aco_params(seed, threads));
            let run = colony
                .run_seeded(&oriented.dag, &widths, &seed_layering)
                .map_err(|e| format!("layer: {e}"))?;
            match run.tours_to_match_seed {
                Some(t) => println!("warm start: colony matched the seed at tour {t}"),
                None => println!("warm start: kept the seed as the incumbent"),
            }
            ("AntColony (warm)".to_string(), run.layering)
        }
        None => {
            // The cold path runs through the anytime contract:
            // `--deadline-ms` bounds the search, `exact` certifies, and
            // `portfolio` reports its race.
            let algo = cli_algo_spec(algo_name, seed, threads)?.solver();
            let solution = algo.solve(&oriented.dag, &widths, deadline);
            report_solution(&solution);
            (algo.name().to_string(), solution.layering)
        }
    };
    let m = LayeringMetrics::compute(&oriented.dag, &layering, &widths);
    println!(
        "{}: height {}, width {:.2} (excl. dummies {:.2}), {} dummies, edge density {}",
        name, m.height, m.width, m.width_excl_dummies, m.dummy_count, m.edge_density
    );
    for (i, layer) in layering.layers().iter().enumerate().rev() {
        let names: Vec<&str> = layer.iter().map(|v| labels[v.index()].as_str()).collect();
        println!("  L{:<3} {}", i + 1, names.join(" "));
    }
    if let Some(out) = flags.get("json-out") {
        std::fs::write(out, layering_json(&layering)).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Prints the anytime-contract side of a cold solve: certification,
/// deadline truncation, and (for the portfolio) the per-member race.
fn report_solution(solution: &Solution) {
    if solution.stopped_early {
        println!("note: deadline reached, best incumbent returned");
    }
    if solution.certified {
        println!("certified: exact search proved this layering optimal");
    }
    if let Some(race) = &solution.race {
        println!(
            "portfolio: winner {} (cost {:.2})",
            race.winner, solution.cost
        );
        for m in &race.members {
            let mut notes = String::new();
            if m.certified {
                notes.push_str(" certified");
            }
            if m.stopped_early {
                notes.push_str(" truncated");
            }
            println!(
                "  {:<12} cost {:>8.2}  {:>8} µs{}",
                m.solver, m.cost, m.micros, notes
            );
        }
    }
}

/// Encodes a layering as the `{"layers":[[ids…],…]}` JSON the server
/// speaks, suitable for a later `--warm-from`. The codec itself lives in
/// the `antlayer-client` crate — the same bytes a saved server response
/// carries.
fn layering_json(layering: &antlayer_layering::Layering) -> String {
    antlayer_client::encode_layers_json(layering)
}

/// Decodes a `--warm-from` file via the client crate's codec: either a
/// bare `[[ids…],…]` array or any object with a `layers` member (e.g. a
/// saved server response).
fn parse_layering_json(
    text: &str,
    node_count: usize,
) -> Result<antlayer_layering::Layering, String> {
    antlayer_client::parse_layers_json(text, node_count).map_err(|e| format!("warm-from: {e}"))
}

fn cmd_draw(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["algo", "svg", "seed", "threads"])?;
    let path = flags.positional.first().ok_or("draw: missing input file")?;
    let (graph, labels) = load_graph(path, flags.has("gml"))?;
    let algo = cli_algo_spec(
        flags.get("algo").unwrap_or("aco"),
        flags.get_parsed("seed", 1u64)?,
        flags.get_parsed("threads", 1usize)?,
    )?
    .solver();
    let drawing = draw(&graph, algo.as_ref(), &PipelineOptions::default());
    println!("{}", drawing.to_ascii(|v| labels[v.index()].clone()));
    println!(
        "height {}, width {:.1}, {} dummies, {} crossings",
        drawing.metrics.height,
        drawing.metrics.width,
        drawing.metrics.dummy_count,
        drawing.crossings
    );
    if let Some(out) = flags.get("svg") {
        let svg = drawing.to_svg(|v| labels[v.index()].clone(), &SvgOptions::default());
        std::fs::write(out, svg).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["n", "seed"])?;
    let n: usize = flags.get_parsed("n", 30)?;
    if n < 2 {
        return Err("gen: --n must be at least 2".into());
    }
    let seed: u64 = flags.get_parsed("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = att_like_graph(n, &mut rng);
    if flags.has("gml") {
        print!("{}", gml::write_gml(&dag, |v| v.index().to_string()));
    } else {
        print!("{}", dot::write_dot_ids(&dag));
    }
    Ok(())
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["seed", "total"])?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let total: usize = flags.get_parsed("total", 190)?;
    let suite = GraphSuite::att_like_scaled(seed, total);
    let mut table = Table::new(&["n", "graphs", "mean_m", "mean_lpl_height"]);
    for (gi, (n, mean_m, depth)) in suite.group_summaries().iter().enumerate() {
        table.push_row(vec![
            (*n).into(),
            suite.groups[gi].graphs.len().into(),
            (*mean_m).into(),
            (*depth).into(),
        ]);
    }
    println!(
        "AT&T-like suite (seed {seed}): {} graphs, m/n = {:.3}\n",
        suite.len(),
        suite.mean_edge_node_ratio()
    );
    print!("{}", table.to_aligned());
    Ok(())
}

/// Resolves a `--http`/`--live` flag value: a bare port binds the main
/// listener's host; a full `HOST:PORT` is taken verbatim.
fn aux_addr_flag(flags: &Flags, name: &str, main_addr: &str) -> Option<String> {
    flags.get(name).map(|v| {
        if v.contains(':') {
            v.to_string()
        } else {
            let host = main_addr
                .rsplit_once(':')
                .map(|(h, _)| h)
                .unwrap_or("127.0.0.1");
            format!("{host}:{v}")
        }
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "http",
            "live",
            "threads",
            "cache-cap",
            "cache-bytes",
            "cache-dir",
            "queue-cap",
            "shards",
            "max-conns",
            "refresh-every",
        ],
    )?;
    // Defaults come from the library's Default impls; flags override.
    let base = ServerConfig::default();
    let sched = SchedulerConfig::default();
    let addr = flags.get("addr").unwrap_or(&base.addr).to_string();
    let config = ServerConfig {
        http_addr: aux_addr_flag(&flags, "http", &addr),
        live_addr: aux_addr_flag(&flags, "live", &addr),
        addr,
        scheduler: SchedulerConfig {
            threads: flags.get_parsed("threads", sched.threads)?,
            max_queue_depth: flags.get_parsed("queue-cap", sched.max_queue_depth)?,
            cache_capacity: flags.get_parsed("cache-cap", sched.cache_capacity)?,
            cache_shards: flags.get_parsed("shards", sched.cache_shards)?,
            cache_byte_budget: match flags.get("cache-bytes") {
                Some(v) => Some(v.parse().map_err(|e| format!("--cache-bytes: {e}"))?),
                None => sched.cache_byte_budget,
            },
            cache_dir: flags.get("cache-dir").map(std::path::PathBuf::from),
            refresh_every: flags.get_parsed("refresh-every", sched.refresh_every)?,
        },
        max_connections: flags.get_parsed("max-conns", base.max_connections)?,
        ..base
    };
    let server = Server::bind(config).map_err(|e| format!("serve: bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("serve: local addr: {e}"))?;
    let http_note = server
        .http_addr()
        .map(|a| format!(", HTTP on {a} (POST /v2, GET /metrics)"))
        .unwrap_or_default();
    let live_note = server
        .live_addr()
        .map(|a| format!(", live sessions on {a}"))
        .unwrap_or_default();
    eprintln!(
        "antlayer serve: listening on {addr}{http_note}{live_note} ({} worker threads); \
         send newline-delimited JSON, e.g. {{\"op\":\"ping\"}}",
        server.scheduler().threads()
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "http",
            "shards",
            "vnodes",
            "probe-ms",
            "max-conns",
            "replicas",
        ],
    )?;
    let shards: Vec<String> = flags
        .get("shards")
        .ok_or("route: --shards host:port,host:port[,...] is required")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err("route: --shards must name at least one backend".into());
    }
    let base = RouterConfig::default();
    let addr = flags.get("addr").unwrap_or(&base.addr).to_string();
    let config = RouterConfig {
        http_addr: aux_addr_flag(&flags, "http", &addr),
        addr,
        shards,
        vnodes: flags.get_parsed("vnodes", base.vnodes)?,
        probe_interval: std::time::Duration::from_millis(
            flags.get_parsed("probe-ms", base.probe_interval.as_millis() as u64)?,
        ),
        max_connections: flags.get_parsed("max-conns", base.max_connections)?,
        replicas: flags.get_parsed("replicas", base.replicas)?,
        ..base
    };
    let n_shards = config.shards.len();
    let shard_list = config.shards.join(", ");
    let router = Router::bind(config).map_err(|e| format!("route: bind failed: {e}"))?;
    let addr = router
        .local_addr()
        .map_err(|e| format!("route: local addr: {e}"))?;
    let http_note = router
        .http_addr()
        .map(|a| format!(", HTTP on {a} (POST /v2, GET /metrics)"))
        .unwrap_or_default();
    eprintln!(
        "antlayer route: listening on {addr}{http_note}, hashing across {n_shards} shard(s): {shard_list}"
    );
    router.run().map_err(|e| format!("route: {e}"))
}

fn cmd_reshard(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["router", "join", "drain"])?;
    let router = flags
        .get("router")
        .ok_or("reshard: --router HOST:PORT is required")?;
    let mut client = antlayer_client::Client::connect(router)
        .map_err(|e| format!("reshard: connecting to router {router}: {e}"))?;
    let (verb, reply) = match (flags.get("join"), flags.get("drain")) {
        (Some(addr), None) => (
            "joined",
            client
                .shard_join(addr)
                .map_err(|e| format!("reshard: shard_join {addr}: {e}"))?,
        ),
        (None, Some(addr)) => (
            "drained",
            client
                .shard_drain(addr)
                .map_err(|e| format!("reshard: shard_drain {addr}: {e}"))?,
        ),
        _ => return Err("reshard: exactly one of --join ADDR or --drain ADDR is required".into()),
    };
    println!(
        "antlayer reshard: {verb}; topology epoch {}, {} cache entr{} transferred",
        reply.epoch,
        reply.moved,
        if reply.moved == 1 { "y" } else { "ies" }
    );
    for (i, shard) in reply.shards.iter().enumerate() {
        println!("  shard {i}  {}  {}", shard.addr, shard.state);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_switches_positionals() {
        let f = Flags::parse(
            &s(&["--algo", "lpl", "--gml", "input.dot", "--seed", "9"]),
            &["algo", "seed"],
        )
        .unwrap();
        assert_eq!(f.get("algo"), Some("lpl"));
        assert_eq!(f.get("seed"), Some("9"));
        assert!(f.has("gml"));
        assert_eq!(f.positional, vec!["input.dot"]);
    }

    #[test]
    fn flags_missing_value_is_error() {
        assert!(Flags::parse(&s(&["--algo"]), &["algo"]).is_err());
    }

    #[test]
    fn flags_last_value_wins() {
        let f = Flags::parse(&s(&["--n", "1", "--n", "2"]), &["n"]).unwrap();
        assert_eq!(f.get_parsed::<usize>("n", 0).unwrap(), 2);
    }

    #[test]
    fn flags_parse_errors_on_bad_numbers() {
        let f = Flags::parse(&s(&["--n", "xyz"]), &["n"]).unwrap();
        assert!(f.get_parsed::<usize>("n", 0).is_err());
        let d = Flags::parse(&s(&[]), &["n"]).unwrap();
        assert_eq!(d.get_parsed::<usize>("n", 7).unwrap(), 7);
    }

    #[test]
    fn every_algorithm_name_is_constructible() {
        for name in [
            "lpl",
            "lpl-pl",
            "minwidth",
            "minwidth-pl",
            "cg",
            "ns",
            "aco",
            "exact",
            "portfolio",
        ] {
            assert!(cli_algo_spec(name, 1, 1).is_ok(), "{name}");
        }
        assert!(cli_algo_spec("nope", 1, 1).is_err());
    }

    #[test]
    fn threads_flag_reaches_the_colony_params() {
        // 0 = auto (the colony resolves it via default_threads); explicit
        // values pass through verbatim.
        assert_eq!(cli_aco_params(1, 0).threads, 0);
        assert_eq!(cli_aco_params(1, 3).threads, 3);
        assert_eq!(cli_aco_params(9, 3).seed, 9);
    }

    #[test]
    fn layering_json_round_trips() {
        let l = antlayer_layering::Layering::from_slice(&[3, 2, 1, 2]);
        let json = layering_json(&l);
        assert_eq!(json, "{\"layers\":[[2],[1,3],[0]]}\n");
        let back = parse_layering_json(&json, 4).unwrap();
        assert_eq!(back, l);
        // A bare array (without the object wrapper) is also accepted.
        let bare = parse_layering_json("[[2],[1,3],[0]]", 4).unwrap();
        assert_eq!(bare, l);
    }

    #[test]
    fn layering_json_rejects_malformed_input() {
        assert!(parse_layering_json("nonsense", 2).is_err());
        assert!(parse_layering_json("{\"other\":1}", 2).is_err());
        let dup = parse_layering_json("[[0],[0,1]]", 2).unwrap_err();
        assert!(dup.contains("two layers"), "{dup}");
        let out_of_range = parse_layering_json("[[0],[7]]", 2).unwrap_err();
        assert!(out_of_range.contains("out of range"), "{out_of_range}");
        let missing = parse_layering_json("[[0]]", 2).unwrap_err();
        assert!(missing.contains("no layer"), "{missing}");
    }

    #[test]
    fn unknown_subcommand_is_reported() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }
}
