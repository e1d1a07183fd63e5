//! Output checks: every layering the benchmark receives is validated
//! against the graph it was requested for, its `H + W` is recomputed
//! and compared with what the program reported, and the digest it came
//! with is compared with the digest of the benchmark's own copy of the
//! request, so a layering of some other graph does not pass.

use antlayer_client::{LayoutOptions, LayoutReply, Request, Session};
use antlayer_graph::Dag;
use antlayer_layering::{solution_cost, Layering, LayeringAlgorithm, LongestPath, WidthModel};

/// Reported and recomputed costs may differ by float formatting only.
const COST_TOLERANCE: f64 = 1e-6;

/// Rebuilds a layering from bottom-up layer lists (list `i` is layer
/// `i + 1`), rejecting ids out of range, repeated or missing.
pub fn from_layers(layers: &[Vec<u32>], n: usize) -> Result<Layering, String> {
    let mut layer_of = vec![0u32; n];
    for (i, layer) in layers.iter().enumerate() {
        for &v in layer {
            let slot = layer_of
                .get_mut(v as usize)
                .ok_or_else(|| format!("node {v} out of range for {n} nodes"))?;
            if *slot != 0 {
                return Err(format!("node {v} appears in two layers"));
            }
            *slot = i as u32 + 1;
        }
    }
    if let Some(missing) = layer_of.iter().position(|&l| l == 0) {
        return Err(format!("node {missing} has no layer"));
    }
    Ok(Layering::from_slice(&layer_of))
}

/// Validates `layering` against `dag` and returns its `H + W`.
pub fn checked_cost(dag: &Dag, layering: &Layering) -> Result<f64, String> {
    layering
        .validate(dag)
        .map_err(|e| format!("invalid layering: {e:?}"))?;
    Ok(solution_cost(dag, layering, &WidthModel::unit()))
}

/// Checks `reported` (a cost the program returned) against the cost of
/// `layering` recomputed here.
pub fn check_cost(dag: &Dag, layering: &Layering, reported: f64) -> Result<f64, String> {
    let cost = checked_cost(dag, layering)?;
    if (cost - reported).abs() > COST_TOLERANCE {
        return Err(format!(
            "reported H+W {reported} but the layering costs {cost}"
        ));
    }
    Ok(cost)
}

/// The digest the program must answer a request for `dag` under
/// `options` with: the canonical digest of the request, as the service
/// computes it.
pub fn request_digest(dag: &Dag, options: &LayoutOptions) -> String {
    match options.layout_request(dag.graph()) {
        Ok(Request::Layout(r)) => r.digest().to_string(),
        _ => unreachable!("generated options are valid"),
    }
}

/// Checks that the program solved the graph the benchmark holds.
pub fn check_digest(dag: &Dag, options: &LayoutOptions, reported: &str) -> Result<(), String> {
    let expected = request_digest(dag, options);
    if reported != expected {
        return Err(format!(
            "reported digest {reported} but the request's is {expected}"
        ));
    }
    Ok(())
}

/// Checks a layout reply for `dag` under `options`: the request's
/// digest, and a valid layering whose `H + W` matches the reported
/// `height + width`. Returns the cost.
pub fn check_reply(dag: &Dag, options: &LayoutOptions, reply: &LayoutReply) -> Result<f64, String> {
    check_digest(dag, options, &reply.digest)?;
    let layering = from_layers(&reply.layers, dag.node_count())?;
    check_cost(dag, &layering, reply.height as f64 + reply.width)
}

/// Checks a live session after applying a push: the pushed digest is
/// the request's for `dag` under `options`, and the session's layers
/// are a valid layering of `dag` with the pushed height. Returns the
/// cost.
pub fn check_session(
    dag: &Dag,
    options: &LayoutOptions,
    session: &Session,
    height: u64,
) -> Result<f64, String> {
    check_digest(dag, options, session.digest())?;
    let layering = from_layers(session.layers(), dag.node_count())?;
    if layering.height() as u64 != height {
        return Err(format!(
            "pushed height {height} but the applied layers span {}",
            layering.height()
        ));
    }
    checked_cost(dag, &layering)
}

/// `H + W` of the longest-path layering: the base of `cost_ratio`.
pub fn lpl_cost(dag: &Dag) -> f64 {
    let wm = WidthModel::unit();
    solution_cost(dag, &LongestPath.layer(dag, &wm), &wm)
}

/// Proves the checks can fail: a correct reply must pass, and the same
/// reply with one node moved onto its successor's layer, with its cost
/// misreported, or with the digest of another graph, must be rejected.
/// Run before every measurement.
pub fn self_test() -> Result<(), String> {
    let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).expect("fixed DAG");
    let options = crate::gen::aco_options();
    let layering = LongestPath.layer(&dag, &WidthModel::unit());
    let layers: Vec<Vec<u32>> = layering
        .layers()
        .into_iter()
        .map(|l| l.into_iter().map(|v| v.index() as u32).collect())
        .collect();
    let cost = checked_cost(&dag, &layering)?;
    let reply = LayoutReply {
        digest: request_digest(&dag, &options),
        source: "computed".into(),
        height: layering.height() as u64,
        width: cost - layering.height() as f64,
        dummies: 0,
        reversed_edges: 0,
        stopped_early: false,
        seeded: false,
        certified: false,
        winner: None,
        members: Vec::new(),
        compute_micros: 0,
        layers,
    };
    check_reply(&dag, &options, &reply)
        .map_err(|e| format!("self-test: a correct reply failed: {e}"))?;

    // Node 1 sits one layer above its successor 2; move it down onto
    // node 2's layer, breaking the edge (1, 2).
    let mut corrupted = reply.clone();
    for layer in &mut corrupted.layers {
        layer.retain(|&v| v != 1);
    }
    let target = corrupted
        .layers
        .iter()
        .position(|l| l.contains(&2))
        .expect("node 2 is layered");
    corrupted.layers[target].push(1);
    if check_reply(&dag, &options, &corrupted).is_ok() {
        return Err("self-test: a corrupted layering passed the check".into());
    }
    let mut misreported = reply.clone();
    misreported.width += 1.0;
    if check_reply(&dag, &options, &misreported).is_ok() {
        return Err("self-test: a misreported cost passed the check".into());
    }
    // A reply that names another graph: its layering is still valid for
    // `dag`, so only the digest tells that the program solved the wrong
    // graph.
    let other = Dag::from_edges(4, &[(0, 1), (1, 2)]).expect("fixed DAG");
    let mut foreign = reply;
    foreign.digest = request_digest(&other, &options);
    if check_reply(&dag, &options, &foreign).is_ok() {
        return Err("self-test: a reply for another graph passed the check".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_layering_trips_the_check() {
        self_test().unwrap();
    }

    #[test]
    fn layer_lists_must_cover_every_node_once() {
        assert!(from_layers(&[vec![0], vec![1]], 2).is_ok());
        assert!(from_layers(&[vec![0], vec![0, 1]], 2).is_err());
        assert!(from_layers(&[vec![0]], 2).is_err());
        assert!(from_layers(&[vec![0, 5]], 2).is_err());
    }
}
