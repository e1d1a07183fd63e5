//! Seeded input generation. Every graph, edit and arrival time the
//! benchmark sends is a pure function of the workload seed; the program
//! under test only ever sees the generated inputs.

use antlayer_client::LayoutOptions;
use antlayer_graph::{generate, Dag, GraphDelta, NodeId};
use antlayer_layering::{LayeringAlgorithm, LongestPath, WidthModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The colony seed every request carries. It is part of the request's
/// identity, so one fixed value lets repeated graphs hit the cache.
pub const COLONY_SEED: u64 = 7;

/// A 64-bit mix of a seed and two stream indices (splitmix64 finaliser),
/// so that every generated object has its own independent stream.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random DAG with `n` nodes and `3n/2` edges from its own stream.
pub fn dag(n: usize, stream: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(stream);
    generate::random_dag_with_edges(n, n * 3 / 2, &mut rng)
}

/// A hierarchical DAG with `n` nodes over `n/10` ranks whose edges
/// mostly join nearby ranks (about `1.3n` edges), from its own stream.
/// Solver times vary less between such graphs than between uniform
/// random DAGs of the same size.
pub fn layered_dag(n: usize, stream: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(stream);
    generate::layered_dag(n, (n / 10).max(1), 0.02, 2, &mut rng)
}

/// Paper-default colony (10 ants × 10 tours), no deadline.
pub fn aco_options() -> LayoutOptions {
    LayoutOptions::aco(COLONY_SEED, 10, 10)
}

/// An edge edit: pairs to add and pairs to remove.
#[derive(Clone, Debug)]
pub struct Edit {
    /// Edges added.
    pub add: Vec<(u32, u32)>,
    /// Edges removed.
    pub remove: Vec<(u32, u32)>,
}

/// A seeded stream of 1–3-edge edits over one evolving DAG, shaped like
/// interactive edits: an added edge joins nodes whose longest-path ranks
/// in the base graph differ by 1 to 3, and each edit removes when the
/// graph has more edges than its base and adds when it has fewer, so the
/// graph keeps its size and shape over thousands of edits. Every edge
/// runs from a higher to a lower base rank, so the graph stays acyclic
/// and every layering the server returns can be checked against the
/// local copy.
pub struct EditStream {
    dag: Dag,
    rank: Vec<u32>,
    by_rank: Vec<Vec<u32>>,
    base_edges: usize,
    rng: StdRng,
}

impl EditStream {
    /// A stream over `base`, drawing edits from `stream`.
    pub fn new(base: Dag, stream: u64) -> EditStream {
        let lpl = LongestPath.layer(&base, &WidthModel::unit());
        let rank: Vec<u32> = base.nodes().map(|v| lpl.layer(v)).collect();
        let mut by_rank = vec![Vec::new(); lpl.max_layer() as usize + 1];
        for (v, &r) in rank.iter().enumerate() {
            by_rank[r as usize].push(v as u32);
        }
        EditStream {
            base_edges: base.edge_count(),
            dag: base,
            rank,
            by_rank,
            rng: StdRng::seed_from_u64(stream),
        }
    }

    /// The graph as of the last edit.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Draws the next edit and applies it to the local graph.
    pub fn next_edit(&mut self) -> Edit {
        let n = self.dag.node_count() as u32;
        let edges: Vec<(u32, u32)> = self
            .dag
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        let mut edit = Edit {
            add: Vec::new(),
            remove: Vec::new(),
        };
        for _ in 0..self.rng.gen_range(1..=3usize) {
            let count = edges.len() + edit.add.len() - edit.remove.len();
            let remove = match count.cmp(&self.base_edges) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => self.rng.gen_bool(0.5),
            };
            if remove {
                let e = edges[self.rng.gen_range(0..edges.len())];
                if !edit.remove.contains(&e) {
                    edit.remove.push(e);
                }
                continue;
            }
            for _ in 0..16 {
                let v = self.rng.gen_range(0..n);
                let above = self.rank[v as usize] as usize + self.rng.gen_range(1..=3usize);
                let Some(bucket) = self.by_rank.get(above).filter(|b| !b.is_empty()) else {
                    continue;
                };
                let u = bucket[self.rng.gen_range(0..bucket.len())];
                let fresh = !self
                    .dag
                    .has_edge(NodeId::new(u as usize), NodeId::new(v as usize))
                    && !edit.add.contains(&(u, v))
                    && !edit.remove.contains(&(u, v));
                if fresh {
                    edit.add.push((u, v));
                    break;
                }
            }
        }
        if edit.add.is_empty() && edit.remove.is_empty() {
            edit.remove.push(edges[0]);
        }
        self.dag = GraphDelta::new(edit.add.clone(), edit.remove.clone())
            .apply_to_dag(&self.dag)
            .expect("edges from higher to lower base ranks keep the graph acyclic");
        edit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let (a, b) = (layered_dag(500, 3), layered_dag(500, 3));
        assert!(a.edges().eq(b.edges()));
        let mut x = EditStream::new(dag(50, 1), 2);
        let mut y = EditStream::new(dag(50, 1), 2);
        for _ in 0..20 {
            let (ex, ey) = (x.next_edit(), y.next_edit());
            assert_eq!((ex.add, ex.remove), (ey.add, ey.remove));
        }
    }

    #[test]
    fn edits_keep_the_graph_acyclic() {
        let base = dag(30, 9);
        let edges = base.edge_count();
        let mut stream = EditStream::new(base, 4);
        for _ in 0..200 {
            let edit = stream.next_edit();
            assert!((1..=3).contains(&(edit.add.len() + edit.remove.len())));
        }
        assert_eq!(stream.dag().node_count(), 30);
        assert!(stream.dag().edge_count().abs_diff(edges) <= 3);
    }
}
