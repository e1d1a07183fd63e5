//! The first network-simplex implementation, kept as a test oracle.
//!
//! It follows the same textbook structure as the optimized module — a
//! feasible tight tree, then exchanges on negative cut values — but
//! recomputes every cut value from scratch for each exchange: it splits
//! the tree once per tree edge with a search that rescans all tree
//! edges, then rescans all edges, about `O(V³)` per pivot. That is far
//! too slow to serve, and simple enough to trust, so the tests check the
//! incremental implementation's dummy count against it.

use crate::Layering;
use antlayer_graph::{weak_components, Dag, NodeId};

/// Internal rank state: `rank[v]` grows along edges (`rank(v) ≥ rank(u)+1`
/// for each edge `(u, v)`), i.e. ranks count from the *source* side, the
/// reverse of the crate's layer indices. Converted back at the end.
struct Ranks {
    rank: Vec<i64>,
}

/// The minimum-total-span layering of `dag`, by the from-scratch method.
pub(super) fn layer(dag: &Dag) -> Layering {
    let n = dag.node_count();
    if n == 0 {
        return Layering::from_slice(&[]);
    }
    // Initial feasible ranks: longest path from the sources.
    let from_source = antlayer_graph::longest_path_from_source(dag, dag.topo_order());
    let mut ranks = Ranks {
        rank: dag.nodes().map(|v| from_source[v] as i64).collect(),
    };

    // Optimize each weakly connected component independently (cross
    // component ranks are unconstrained).
    for comp in weak_components(dag) {
        if comp.len() >= 2 {
            optimize_component(dag, &mut ranks, &comp);
        }
    }

    // Convert ranks (source side = 0, growing downstream) back to the
    // crate's layers (sinks at layer 1, growing upstream).
    let max_rank = ranks.rank.iter().copied().max().unwrap_or(0);
    let layers: Vec<u32> = ranks
        .rank
        .iter()
        .map(|&r| (max_rank - r + 1) as u32)
        .collect();
    let mut layering = Layering::from_slice(&layers);
    layering.normalize();
    debug_assert!(layering.validate(dag).is_ok());
    layering
}

/// Edges of the component, as indices into `dag.edges()` order.
fn component_edges(dag: &Dag, in_comp: &[bool]) -> Vec<(NodeId, NodeId)> {
    dag.edges().filter(|(u, _)| in_comp[u.index()]).collect()
}

fn slack(ranks: &Ranks, u: NodeId, v: NodeId) -> i64 {
    ranks.rank[v.index()] - ranks.rank[u.index()] - 1
}

fn optimize_component(dag: &Dag, ranks: &mut Ranks, comp: &[NodeId]) {
    let n_all = dag.node_count();
    let mut in_comp = vec![false; n_all];
    for &v in comp {
        in_comp[v.index()] = true;
    }
    let edges = component_edges(dag, &in_comp);
    if edges.is_empty() {
        return;
    }

    // --- Phase 1: feasible tight tree ------------------------------------
    // Grow a spanning tree of tight edges, shifting the tree's ranks to
    // make the closest incident edge tight whenever growth stalls.
    let mut in_tree_node = vec![false; n_all];
    let mut tree_edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(comp.len() - 1);
    in_tree_node[comp[0].index()] = true;
    let mut tree_size = 1usize;

    while tree_size < comp.len() {
        // Tight incident edges first.
        let mut grown = false;
        for &(u, v) in &edges {
            let tu = in_tree_node[u.index()];
            let tv = in_tree_node[v.index()];
            if tu != tv && slack(ranks, u, v) == 0 {
                tree_edges.push((u, v));
                in_tree_node[if tu { v.index() } else { u.index() }] = true;
                tree_size += 1;
                grown = true;
                break;
            }
        }
        if grown {
            continue;
        }
        // No tight incident edge: shift the tree to make the minimal-slack
        // incident edge tight.
        let mut best: Option<(i64, bool)> = None; // (slack, tree holds tail?)
        for &(u, v) in &edges {
            let tu = in_tree_node[u.index()];
            let tv = in_tree_node[v.index()];
            if tu != tv {
                let s = slack(ranks, u, v);
                debug_assert!(s > 0, "tight edges were handled above");
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, tu));
                }
            }
        }
        let (s, tree_holds_tail) = best.expect("component is connected");
        // If the tree holds the tail u, raising the tree's ranks by `s`
        // closes the gap; if it holds the head v, lowering them does.
        let delta = if tree_holds_tail { s } else { -s };
        for &w in comp {
            if in_tree_node[w.index()] {
                ranks.rank[w.index()] += delta;
            }
        }
    }

    // --- Phase 2: cut-value exchanges -------------------------------------
    // A generous cap guards against degenerate cycling; optimality is
    // verified against brute force in the tests.
    let max_iters = 4 * comp.len() * edges.len() + 32;
    for _ in 0..max_iters {
        let Some((edge_idx, head_side)) = find_negative_cut(dag, ranks, comp, &tree_edges) else {
            break; // optimal
        };
        // Replacement: the minimal-slack edge crossing head → tail.
        let mut best: Option<(i64, (NodeId, NodeId))> = None;
        for &(a, b) in &edges {
            if head_side[a.index()] && !head_side[b.index()] {
                let s = slack(ranks, a, b);
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, (a, b)));
                }
            }
        }
        let Some((delta, enter)) = best else {
            break; // cannot happen with a truly negative cut; stay safe
        };
        // Shift the head component down onto the entering edge.
        for &w in comp {
            if head_side[w.index()] {
                ranks.rank[w.index()] += delta;
            }
        }
        tree_edges[edge_idx] = enter;
    }
}

/// Finds a tree edge with negative cut value. Returns its index and the
/// membership mask of the *head* side (the side containing the edge's
/// target) of the split tree.
fn find_negative_cut(
    dag: &Dag,
    ranks: &Ranks,
    comp: &[NodeId],
    tree_edges: &[(NodeId, NodeId)],
) -> Option<(usize, Vec<bool>)> {
    let n_all = dag.node_count();
    for (i, &(tu, tv)) in tree_edges.iter().enumerate() {
        // Split the tree by removing edge i; collect the head side by BFS
        // over the remaining tree edges starting from tv.
        let mut head_side = vec![false; n_all];
        head_side[tv.index()] = true;
        let mut stack = vec![tv];
        while let Some(x) = stack.pop() {
            for (j, &(a, b)) in tree_edges.iter().enumerate() {
                if j == i {
                    continue;
                }
                let (y, z) = (a, b);
                if y == x && !head_side[z.index()] {
                    head_side[z.index()] = true;
                    stack.push(z);
                } else if z == x && !head_side[y.index()] {
                    head_side[y.index()] = true;
                    stack.push(y);
                }
            }
        }
        let _ = tu;
        // Cut value: edges tail→head count +1 (including the tree edge
        // itself), head→tail count −1.
        let mut cut = 0i64;
        for (a, b) in dag.edges() {
            if !comp.contains(&a) {
                continue;
            }
            match (head_side[a.index()], head_side[b.index()]) {
                (false, true) => cut += 1,
                (true, false) => cut -= 1,
                _ => {}
            }
        }
        let _ = ranks;
        if cut < 0 {
            return Some((i, head_side));
        }
    }
    None
}
