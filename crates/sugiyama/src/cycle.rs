//! Cycle removal: the first stage of the Sugiyama framework.
//!
//! Layering requires a DAG; arbitrary digraphs are first given an acyclic
//! orientation by *reversing* the edges of a small feedback set. We
//! implement the Eades–Lin–Smyth (GR) greedy heuristic, which guarantees a
//! feedback set of at most `m/2 − n/6` edges and runs in
//! `O((V + E) log V)`.

use antlayer_graph::{Dag, DiGraph, NodeId};
use std::collections::{BTreeSet, BinaryHeap};

/// Result of the acyclic orientation of a digraph.
#[derive(Clone, Debug)]
pub struct AcyclicOrientation {
    /// The acyclic graph (same node ids; some edges reversed).
    pub dag: Dag,
    /// The edges of the *input* graph that were reversed, as `(u, v)` pairs
    /// of the original direction.
    pub reversed: Vec<(NodeId, NodeId)>,
}

/// Computes a vertex sequence with few "backward" edges via the
/// Eades–Lin–Smyth greedy heuristic, then reverses those backward edges.
///
/// Self-loops are not representable in [`DiGraph`], so every input is
/// orientable. Multi-edges do not exist either (simple digraphs).
pub fn acyclic_orientation(g: &DiGraph) -> AcyclicOrientation {
    let order = greedy_sequence(g);
    let mut pos = vec![0usize; g.node_count()];
    for (i, v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut out = DiGraph::with_capacity(g.node_count(), g.edge_count());
    out.add_nodes(g.node_count());
    let mut reversed = Vec::new();
    for (u, v) in g.edges() {
        if pos[u.index()] < pos[v.index()] {
            let _ = out.add_edge(u, v);
        } else {
            // Backward edge: reverse it (skip silently if the reverse
            // already exists — the orientation stays acyclic).
            if out.add_edge(v, u).is_ok() {
                reversed.push((u, v));
            }
        }
    }
    AcyclicOrientation {
        dag: Dag::new(out).expect("all edges point forward in the sequence"),
        reversed,
    }
}

/// The Eades–Lin–Smyth vertex sequence: repeatedly peel sinks to the back
/// and sources to the front; when neither exists, move the vertex with the
/// largest `outdeg − indeg` to the front. Ties go to the smallest index
/// for sinks and sources and to the largest for `outdeg − indeg`, so the
/// sequence is a function of the graph alone.
fn greedy_sequence(g: &DiGraph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut peel = Peel::new(g);
    let mut front: Vec<usize> = Vec::new();
    let mut back: Vec<usize> = Vec::new();
    while front.len() + back.len() < n {
        while let Some(v) = peel.sinks.pop_first() {
            back.push(v);
            peel.remove(v);
        }
        while let Some(v) = peel.sources.pop_first() {
            front.push(v);
            peel.remove(v);
        }
        if front.len() + back.len() == n {
            break;
        }
        // All remaining vertices are on cycles.
        let v = peel.max_delta();
        front.push(v);
        peel.remove(v);
    }
    back.reverse();
    front.extend(back);
    front.into_iter().map(NodeId::new).collect()
}

/// The shrinking graph [`greedy_sequence`] peels: degrees counted over
/// the remaining vertices, the current sinks and sources, and a max-heap
/// of `(outdeg − indeg, index)` whose entries go stale as degrees change
/// and are skipped when popped.
struct Peel<'a> {
    g: &'a DiGraph,
    out_deg: Vec<isize>,
    in_deg: Vec<isize>,
    removed: Vec<bool>,
    sinks: BTreeSet<usize>,
    sources: BTreeSet<usize>,
    by_delta: BinaryHeap<(isize, usize)>,
}

impl<'a> Peel<'a> {
    fn new(g: &'a DiGraph) -> Peel<'a> {
        let out_deg: Vec<isize> = g.nodes().map(|v| g.out_degree(v) as isize).collect();
        let in_deg: Vec<isize> = g.nodes().map(|v| g.in_degree(v) as isize).collect();
        let n = g.node_count();
        Peel {
            g,
            sinks: (0..n).filter(|&v| out_deg[v] == 0).collect(),
            sources: (0..n).filter(|&v| in_deg[v] == 0).collect(),
            by_delta: (0..n).map(|v| (out_deg[v] - in_deg[v], v)).collect(),
            removed: vec![false; n],
            out_deg,
            in_deg,
        }
    }

    fn remove(&mut self, v: usize) {
        self.removed[v] = true;
        self.sinks.remove(&v);
        self.sources.remove(&v);
        let node = NodeId::new(v);
        for &w in self.g.out_neighbors(node) {
            let w = w.index();
            self.in_deg[w] -= 1;
            if !self.removed[w] {
                if self.in_deg[w] == 0 {
                    self.sources.insert(w);
                }
                self.by_delta.push((self.out_deg[w] - self.in_deg[w], w));
            }
        }
        for &u in self.g.in_neighbors(node) {
            let u = u.index();
            self.out_deg[u] -= 1;
            if !self.removed[u] {
                if self.out_deg[u] == 0 {
                    self.sinks.insert(u);
                }
                self.by_delta.push((self.out_deg[u] - self.in_deg[u], u));
            }
        }
    }

    /// The remaining vertex with the largest `outdeg − indeg`.
    fn max_delta(&mut self) -> usize {
        loop {
            let (delta, v) = self.by_delta.pop().expect("a vertex remains");
            if !self.removed[v] && delta == self.out_deg[v] - self.in_deg[v] {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::is_acyclic;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dag_input_reverses_nothing() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]).unwrap();
        let o = acyclic_orientation(&g);
        assert!(o.reversed.is_empty());
        assert_eq!(o.dag.edge_count(), 4);
    }

    #[test]
    fn two_cycle_reverses_one_edge() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        let o = acyclic_orientation(&g);
        // One direction survives; the duplicate reverse is dropped.
        assert!(o.dag.edge_count() >= 1);
        assert!(is_acyclic(&o.dag));
    }

    #[test]
    fn triangle_cycle_is_broken() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let o = acyclic_orientation(&g);
        assert!(is_acyclic(&o.dag));
        assert_eq!(o.dag.edge_count(), 3);
        assert_eq!(o.reversed.len(), 1);
    }

    #[test]
    fn random_digraphs_become_acyclic_with_bounded_reversals() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(5..40);
            let mut g = DiGraph::new();
            g.add_nodes(n);
            for _ in 0..(3 * n) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                if u != v {
                    let _ = g.add_edge(NodeId::from(u), NodeId::from(v));
                }
            }
            let m = g.edge_count() as f64;
            let o = acyclic_orientation(&g);
            assert!(is_acyclic(&o.dag));
            // ELS guarantee: |reversed| <= m/2 - n/6 (we allow the exact bound).
            assert!(
                (o.reversed.len() as f64) <= m / 2.0,
                "reversed {} of {} edges",
                o.reversed.len(),
                m
            );
            // Node ids are preserved.
            assert_eq!(o.dag.node_count(), n);
        }
    }

    #[test]
    fn reversed_edges_existed_in_input() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]).unwrap();
        let o = acyclic_orientation(&g);
        for (u, v) in &o.reversed {
            assert!(g.has_edge(*u, *v), "reversed edge not from input");
            assert!(o.dag.has_edge(*v, *u), "reverse not present in output");
        }
    }

    /// The sequence by rescanning every vertex for each pick: the
    /// quadratic reading of the heuristic, kept as the reference
    /// [`greedy_sequence`] must reproduce exactly.
    fn reference_sequence(g: &DiGraph) -> Vec<NodeId> {
        let n = g.node_count();
        let mut removed = vec![false; n];
        let live = |ns: &[NodeId], removed: &[bool]| {
            ns.iter().filter(|x| !removed[x.index()]).count() as isize
        };
        let (mut front, mut back) = (Vec::new(), Vec::new());
        while front.len() + back.len() < n {
            while let Some(v) = g
                .nodes()
                .find(|&v| !removed[v.index()] && live(g.out_neighbors(v), &removed) == 0)
            {
                back.push(v);
                removed[v.index()] = true;
            }
            while let Some(v) = g
                .nodes()
                .find(|&v| !removed[v.index()] && live(g.in_neighbors(v), &removed) == 0)
            {
                front.push(v);
                removed[v.index()] = true;
            }
            if front.len() + back.len() == n {
                break;
            }
            let v = g
                .nodes()
                .filter(|&v| !removed[v.index()])
                .max_by_key(|&v| {
                    live(g.out_neighbors(v), &removed) - live(g.in_neighbors(v), &removed)
                })
                .expect("a vertex remains");
            front.push(v);
            removed[v.index()] = true;
        }
        back.reverse();
        front.extend(back);
        front
    }

    #[test]
    fn sequence_matches_the_rescanning_reference() {
        let mut rng = StdRng::seed_from_u64(47);
        for round in 0..40 {
            let n = rng.gen_range(1..60);
            let mut g = DiGraph::new();
            g.add_nodes(n);
            // Even rounds stay acyclic (edges point up in index), odd
            // rounds get cycles.
            for _ in 0..(2 * n) {
                let (a, b) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
                let (u, v) = if round % 2 == 0 {
                    (a.min(b), a.max(b))
                } else {
                    (a, b)
                };
                if u != v {
                    let _ = g.add_edge(NodeId::from(u), NodeId::from(v));
                }
            }
            assert_eq!(greedy_sequence(&g), reference_sequence(&g), "round {round}");
        }
    }

    #[test]
    fn empty_graph() {
        let o = acyclic_orientation(&DiGraph::new());
        assert_eq!(o.dag.node_count(), 0);
        assert!(o.reversed.is_empty());
    }
}
