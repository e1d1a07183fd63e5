//! End-to-end smoke tests for the `antlayer` binary: the subcommands are
//! exercised through a real process, exactly as a user would run them.

use std::process::Command;

fn antlayer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_antlayer"))
}

fn run_ok(args: &[&str]) -> String {
    let out = antlayer().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "antlayer {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn gen_emits_parsable_dot() {
    let dot = run_ok(&["gen", "--n", "20", "--seed", "5"]);
    assert!(dot.starts_with("digraph"));
    let parsed = antlayer_graph::io::dot::parse_dot(&dot).unwrap();
    assert_eq!(parsed.graph.node_count(), 20);
}

#[test]
fn gen_emits_parsable_gml() {
    let gml = run_ok(&["gen", "--n", "15", "--seed", "2", "--gml"]);
    let parsed = antlayer_graph::io::gml::parse_gml(&gml).unwrap();
    assert_eq!(parsed.graph.node_count(), 15);
}

#[test]
fn layer_reads_file_and_prints_metrics() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.dot");
    std::fs::write(&path, "digraph { a -> b -> c; a -> c; }").unwrap();
    // Each algorithm's metrics line starts with its display name.
    for (algo, display) in [
        ("lpl", "LPL:"),
        ("minwidth", "MinWidth:"),
        ("lpl-pl", "LPL+PL:"),
        ("minwidth-pl", "MinWidth+PL:"),
        ("cg", "CoffmanGraham:"),
        ("ns", "NetworkSimplex:"),
        ("aco", "AntColony:"),
        ("exact", "exact:"),
        ("portfolio", "portfolio:"),
    ] {
        let out = run_ok(&["layer", "--algo", algo, path.to_str().unwrap()]);
        assert!(out.contains("height"), "{algo}: {out}");
        assert!(out.contains("L1"), "{algo} missing layer listing");
        assert!(
            out.lines().any(|l| l.starts_with(display)),
            "{algo}: no line starts with {display:?}: {out}"
        );
    }
}

#[test]
fn layer_exact_certifies_and_portfolio_reports_its_race() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("solver.dot");
    std::fs::write(&path, "digraph { a -> b -> d; a -> c -> d; c -> e; }").unwrap();

    let exact = run_ok(&["layer", "--algo", "exact", path.to_str().unwrap()]);
    assert!(exact.contains("certified"), "{exact}");

    let race = run_ok(&[
        "layer",
        "--algo",
        "portfolio",
        "--deadline-ms",
        "2000",
        path.to_str().unwrap(),
    ]);
    assert!(race.contains("portfolio: winner"), "{race}");
    assert!(race.contains("lpl"), "member table missing: {race}");
}

#[test]
fn layer_handles_cyclic_input() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cyc.dot");
    std::fs::write(&path, "digraph { a -> b; b -> a; b -> c; }").unwrap();
    let out = run_ok(&["layer", "--algo", "lpl", path.to_str().unwrap()]);
    assert!(out.contains("reversed"), "cycle note missing: {out}");
}

#[test]
fn draw_writes_svg() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("d.dot");
    let svg = dir.join("d.svg");
    std::fs::write(&input, "digraph { a -> b; a -> c; b -> d; c -> d; }").unwrap();
    run_ok(&[
        "draw",
        "--algo",
        "lpl",
        "--svg",
        svg.to_str().unwrap(),
        input.to_str().unwrap(),
    ]);
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.starts_with("<svg"));
}

#[test]
fn layout_alias_and_json_round_trip_warm_start() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("warm.dot");
    let json = dir.join("warm.json");
    std::fs::write(&input, "digraph { a -> b -> c -> d; a -> c; b -> d; }").unwrap();

    // 1. Cold run through the `layout` alias, layering saved as JSON.
    let cold = run_ok(&[
        "layout",
        "--algo",
        "aco",
        "--json-out",
        json.to_str().unwrap(),
        input.to_str().unwrap(),
    ]);
    assert!(cold.contains("height"), "{cold}");
    let saved = std::fs::read_to_string(&json).unwrap();
    assert!(saved.contains("\"layers\""), "{saved}");

    // 2. Edit the graph (one extra edge) and warm-start from the save.
    std::fs::write(
        &input,
        "digraph { a -> b -> c -> d; a -> c; b -> d; a -> d; }",
    )
    .unwrap();
    let warm = run_ok(&[
        "layout",
        "--warm-from",
        json.to_str().unwrap(),
        input.to_str().unwrap(),
    ]);
    assert!(warm.contains("warm start"), "{warm}");
    assert!(warm.contains("AntColony (warm)"), "{warm}");
}

#[test]
fn warm_from_rejects_non_aco_and_bad_files() {
    let dir = std::env::temp_dir().join("antlayer-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("warm-bad.dot");
    let json = dir.join("warm-bad.json");
    std::fs::write(&input, "digraph { a -> b; }").unwrap();
    std::fs::write(&json, "{\"layers\":[[0],[1]]}").unwrap();
    let out = antlayer()
        .args([
            "layer",
            "--algo",
            "lpl",
            "--warm-from",
            json.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only applies to the aco"));

    std::fs::write(&json, "{\"layers\":[[0]]}").unwrap();
    let out = antlayer()
        .args([
            "layer",
            "--warm-from",
            json.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "incomplete layering must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no layer"));
}

#[test]
fn suite_prints_group_table() {
    let out = run_ok(&["suite", "--total", "38", "--seed", "3"]);
    assert!(out.contains("38 graphs"));
    assert!(out.contains("mean_lpl_height"));
}

#[test]
fn bad_usage_fails_with_message() {
    let out = antlayer().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("usage"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = antlayer()
        .args(["layer", "/nonexistent/nowhere.dot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn route_requires_shards() {
    let out = antlayer().arg("route").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shards"), "{err}");
}

#[test]
fn route_fronts_a_real_shard_process() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    // A real in-process shard server plus the `antlayer route` binary in
    // front of it, end to end over loopback.
    let shard = antlayer_service::Server::bind(antlayer_service::ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: antlayer_service::SchedulerConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap();

    // Reserve a free port for the router (bind-then-drop; the race
    // window on loopback is negligible for a smoke test).
    let router_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut router = antlayer()
        .args([
            "route",
            "--shards",
            &shard.addr().to_string(),
            "--addr",
            &router_addr,
        ])
        .spawn()
        .expect("route process starts");

    // Wait for the router to accept, then ping + layout through it.
    let mut attempt = 0;
    let stream = loop {
        match TcpStream::connect(&router_addr) {
            Ok(s) => break s,
            Err(e) => {
                attempt += 1;
                assert!(attempt < 100, "router never came up: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| -> String {
        let mut s = stream.try_clone().unwrap();
        writeln!(s, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let pong = send(r#"{"op":"ping"}"#);
    assert!(pong.contains("\"router\":true"), "{pong}");
    let layout = send(r#"{"op":"layout","nodes":3,"edges":[[0,1],[1,2]],"ants":2,"tours":2}"#);
    assert!(layout.contains("\"ok\":true"), "{layout}");
    assert!(layout.contains("\"source\":\"computed\""), "{layout}");

    router.kill().unwrap();
    let _ = router.wait();
    shard.shutdown();
}
