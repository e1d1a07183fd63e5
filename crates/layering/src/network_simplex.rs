//! Network-simplex layering (Gansner, Koutsofios, North & Vo, 1993).
//!
//! Finds a layering minimizing the **total edge span** `Σ_e span(e)` —
//! equivalently the number of dummy vertices, since
//! `DVC = Σ (span − 1) = Σ span − |E|`. This is the exact optimum that the
//! Promote Layering heuristic (the paper's PL, "an alternative to the
//! network simplex method of Gansner et al. but considerably easier to
//! implement") approximates. Included as an extension so PL's quality can
//! be measured against the true optimum; the portfolio races it as `ns`.
//!
//! The implementation follows the paper (graphviz's `ns.c` has the same
//! structure), one weakly connected component at a time, on local
//! indices with per-node incidence lists:
//!
//! 1. **Feasible tight tree.** From longest-path ranks, a DFS grows a
//!    spanning tree of *tight* edges (span exactly 1). When it stalls, one
//!    `O(E)` scan finds the minimum-slack edge leaving the tree, the tree
//!    is shifted to make that edge tight, and growth resumes from every
//!    tree node.
//! 2. **Cut values, once.** A postorder DFS gives each node its number
//!    `lim` and the smallest number `low` in its subtree, so "is `w` under
//!    `v`" is two comparisons and every subtree is a contiguous `lim`
//!    range. Each tree edge's cut value then follows in one postorder
//!    pass from the edges incident to its lower endpoint.
//! 3. **Pivots.** The leaving edge is a negative cut value, found by a
//!    cyclic search over the tree edges (the most negative of the first
//!    few). The entering edge is the minimum-slack edge crossing the split
//!    the other way, searched over the smaller side of the split. The
//!    update re-ranks that smaller side, corrects the cut values only on
//!    the two tree paths from the entering edge's endpoints up to their
//!    lowest common ancestor, and relabels `low`/`lim` only under it.
//!
//! Setup costs `O(V + E)` plus `O(E)` per stall of the tree growth; a
//! pivot costs the size of the smaller side, its incident edges, and the
//! ancestor's subtree, instead of the `O(V³)` of recomputing every cut
//! value. A cap on the pivot count guards against degenerate cycling.
//!
//! [`solve`](LayeringAlgorithm::solve) checks the clock once per pivot
//! and once per stall of the tree growth. The ranks are feasible at every
//! step, so a passed deadline returns the current ranking with
//! `stopped_early` set; components the clock never reached keep their
//! longest-path ranks. [`layer`](LayeringAlgorithm::layer) always runs to
//! the optimum.

use crate::{Layering, LayeringAlgorithm, Solution, WidthModel};
use antlayer_graph::{longest_path_from_source, weak_components, Dag, NodeId};
use std::time::Instant;

#[cfg(test)]
mod reference;

/// "No edge" in [`Simplex::par`] and [`Simplex::tree_pos`].
const NONE: u32 = u32::MAX;

/// How many negative cut values the leaving-edge search collects before
/// it settles for the most negative of them (graphviz's `Search_size`).
const SEARCH_SIZE: usize = 30;

/// The network-simplex layering algorithm (minimum total edge span).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetworkSimplex;

impl LayeringAlgorithm for NetworkSimplex {
    fn name(&self) -> &str {
        "NetworkSimplex"
    }

    fn layer(&self, dag: &Dag, _widths: &WidthModel) -> Layering {
        min_span_layering(dag, None).0
    }

    fn solve(&self, dag: &Dag, wm: &WidthModel, deadline: Option<Instant>) -> Solution {
        let (layering, stopped_early) = min_span_layering(dag, deadline);
        Solution {
            stopped_early,
            ..Solution::of(dag, wm, layering)
        }
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The minimum-total-span layering of `dag`, or the feasible one reached
/// when `deadline` passed (then the flag is `true`).
fn min_span_layering(dag: &Dag, deadline: Option<Instant>) -> (Layering, bool) {
    let n = dag.node_count();
    if n == 0 {
        return (Layering::from_slice(&[]), false);
    }
    // Ranks grow along edges (`rank(v) ≥ rank(u) + 1` for each edge
    // `(u, v)`): they count from the source side, the reverse of the
    // crate's layer indices. Longest path from the sources is feasible.
    let from_source = longest_path_from_source(dag, dag.topo_order());
    let mut rank: Vec<i64> = dag.nodes().map(|v| from_source[v] as i64).collect();
    let mut local = vec![0u32; n];
    let mut stopped_early = false;
    // Ranks in different weakly connected components are independent.
    for comp in weak_components(dag) {
        if stopped_early {
            break;
        }
        if comp.len() < 2 {
            continue;
        }
        let mut simplex = Simplex::new(dag, &comp, &rank, &mut local);
        stopped_early = !simplex.optimize(deadline);
        for (&v, &r) in comp.iter().zip(&simplex.rank) {
            rank[v.index()] = r;
        }
    }

    // Back to the crate's layers: sinks at layer 1, growing upstream.
    let max_rank = rank.iter().copied().max().unwrap_or(0);
    let layers: Vec<u32> = rank.iter().map(|&r| (max_rank - r + 1) as u32).collect();
    let mut layering = Layering::from_slice(&layers);
    layering.normalize();
    debug_assert!(layering.validate(dag).is_ok());
    (layering, stopped_early)
}

/// The simplex state of one weakly connected component, on local node
/// indices `0..m`. Node 0 is the root of the spanning tree.
#[cfg_attr(test, derive(Clone))]
struct Simplex {
    rank: Vec<i64>,
    /// Endpoints of each edge.
    tail: Vec<u32>,
    head: Vec<u32>,
    /// The edges incident to node `v`, both directions:
    /// `inc[inc_start[v]..inc_start[v + 1]]`.
    inc_start: Vec<u32>,
    inc: Vec<u32>,
    /// The tree edges, in the order the leaving-edge search cycles through.
    tree_edges: Vec<u32>,
    /// Each edge's index in `tree_edges`, `NONE` off the tree.
    tree_pos: Vec<u32>,
    /// The tree edges incident to each node.
    tree_adj: Vec<Vec<u32>>,
    /// Cut value of each tree edge: the edges crossing the split it makes
    /// from its tail side to its head side (itself included), minus the
    /// edges crossing back.
    cut: Vec<i64>,
    /// Each node's parent tree edge (`NONE` at the root).
    par: Vec<u32>,
    /// Each node's postorder number, and the smallest one in its subtree.
    lim: Vec<u32>,
    low: Vec<u32>,
    /// The node with each postorder number.
    by_lim: Vec<u32>,
    /// Where the next leaving-edge search starts in `tree_edges`.
    search_at: usize,
    /// The relabelling DFS stack, kept across pivots.
    stack: Vec<(u32, u32)>,
}

impl Simplex {
    /// The component `comp` of `dag` at the given global ranks; `local` is
    /// scratch space of `dag.node_count()` entries.
    fn new(dag: &Dag, comp: &[NodeId], rank: &[i64], local: &mut [u32]) -> Simplex {
        let m = comp.len();
        for (i, &v) in comp.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        let (mut tail, mut head) = (Vec::new(), Vec::new());
        let mut inc_start = vec![0u32; m + 1];
        for (i, &v) in comp.iter().enumerate() {
            for &w in dag.out_neighbors(v) {
                let j = local[w.index()];
                tail.push(i as u32);
                head.push(j);
                inc_start[i + 1] += 1;
                inc_start[j as usize + 1] += 1;
            }
        }
        for i in 0..m {
            inc_start[i + 1] += inc_start[i];
        }
        let mut fill = inc_start.clone();
        let mut inc = vec![0u32; 2 * tail.len()];
        for e in 0..tail.len() {
            for x in [tail[e], head[e]] {
                inc[fill[x as usize] as usize] = e as u32;
                fill[x as usize] += 1;
            }
        }
        let edges = tail.len();
        Simplex {
            rank: comp.iter().map(|v| rank[v.index()]).collect(),
            tail,
            head,
            inc_start,
            inc,
            tree_edges: Vec::with_capacity(m - 1),
            tree_pos: vec![NONE; edges],
            tree_adj: vec![Vec::new(); m],
            cut: vec![0; edges],
            par: vec![NONE; m],
            lim: vec![0; m],
            low: vec![0; m],
            by_lim: vec![0; m],
            search_at: 0,
            stack: Vec::new(),
        }
    }

    fn incident(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.inc[self.inc_start[v] as usize..self.inc_start[v + 1] as usize]
    }

    fn other(&self, e: u32, v: u32) -> u32 {
        let t = self.tail[e as usize];
        if t == v {
            self.head[e as usize]
        } else {
            t
        }
    }

    fn slack(&self, e: u32) -> i64 {
        self.rank[self.head[e as usize] as usize] - self.rank[self.tail[e as usize] as usize] - 1
    }

    /// Whether node `w` lies in the subtree under node `v`.
    fn under(&self, w: u32, v: u32) -> bool {
        let l = self.lim[w as usize];
        self.low[v as usize] <= l && l <= self.lim[v as usize]
    }

    /// The endpoint of tree edge `f` farther from the root, and whether it
    /// is the tail: the subtree under it is one side of the split `f`
    /// makes, the other side is the rest of the tree.
    fn lower_end(&self, f: u32) -> (u32, bool) {
        let (t, h) = (self.tail[f as usize], self.head[f as usize]);
        if self.lim[t as usize] < self.lim[h as usize] {
            (t, true)
        } else {
            (h, false)
        }
    }

    /// The `lim` ranges of the smaller side of the split `f` makes, and
    /// whether that side is the subtree under [`lower_end`](Self::lower_end).
    fn smaller_side(&self, f: u32) -> ([std::ops::Range<u32>; 2], bool) {
        let (v, _) = self.lower_end(f);
        let (lo, hi) = (self.low[v as usize], self.lim[v as usize]);
        let m = self.rank.len() as u32;
        if 2 * (hi - lo + 1) <= m {
            ([lo..hi + 1, 0..0], true)
        } else {
            ([0..lo, hi + 1..m], false)
        }
    }

    /// Runs pivots to optimality; `false` when the deadline cut the run
    /// short. The ranks are feasible either way.
    fn optimize(&mut self, deadline: Option<Instant>) -> bool {
        if !self.feasible_tree(deadline) {
            return false;
        }
        self.init_cut_values();
        let max_pivots = self.rank.len().saturating_mul(self.tail.len()).max(64);
        for _ in 0..max_pivots {
            let Some(leave) = self.leave_edge() else {
                return true;
            };
            if expired(deadline) {
                return false;
            }
            let enter = self.enter_edge(leave);
            self.update(leave, enter);
        }
        true
    }

    /// Grows a spanning tree of tight edges from node 0, shifting the
    /// tree's ranks onto the closest outside edge whenever growth stalls.
    fn feasible_tree(&mut self, deadline: Option<Instant>) -> bool {
        let m = self.rank.len();
        let mut in_tree = vec![false; m];
        in_tree[0] = true;
        let mut size = 1;
        let mut stack = vec![0u32];
        loop {
            while let Some(v) = stack.pop() {
                for k in self.inc_start[v as usize]..self.inc_start[v as usize + 1] {
                    let e = self.inc[k as usize];
                    let w = self.other(e, v);
                    if !in_tree[w as usize] && self.slack(e) == 0 {
                        in_tree[w as usize] = true;
                        size += 1;
                        self.add_tree_edge(e);
                        stack.push(w);
                    }
                }
            }
            if size == m {
                return true;
            }
            if expired(deadline) {
                return false;
            }
            let (e, s) = (0..self.tail.len() as u32)
                .filter(|&e| {
                    in_tree[self.tail[e as usize] as usize]
                        != in_tree[self.head[e as usize] as usize]
                })
                .map(|e| (e, self.slack(e)))
                .min_by_key(|&(_, s)| s)
                .expect("the component is connected");
            // Holding the tail, the tree's ranks rise by `s` to close the
            // gap; holding the head, they fall. No edge leaving the tree
            // has less slack than `s`, so every edge stays feasible.
            let delta = if in_tree[self.tail[e as usize] as usize] {
                s
            } else {
                -s
            };
            for (v, rank) in self.rank.iter_mut().enumerate() {
                if in_tree[v] {
                    *rank += delta;
                    stack.push(v as u32);
                }
            }
        }
    }

    /// Labels the tree from node 0 and computes every cut value, in
    /// postorder so that the tree edges below a node come before its own.
    fn init_cut_values(&mut self) {
        self.relabel(0, NONE, 0);
        for l in 0..self.rank.len() - 1 {
            let f = self.par[self.by_lim[l] as usize];
            self.cut[f as usize] = self.cut_value(f);
        }
    }

    fn add_tree_edge(&mut self, e: u32) {
        self.tree_pos[e as usize] = self.tree_edges.len() as u32;
        self.tree_edges.push(e);
        self.tree_adj[self.tail[e as usize] as usize].push(e);
        self.tree_adj[self.head[e as usize] as usize].push(e);
    }

    /// Numbers the subtree of `root`, whose parent edge is `par`, in
    /// postorder from `low`, setting `par`, `low`, `lim` and `by_lim`.
    fn relabel(&mut self, root: u32, par: u32, low: u32) {
        let mut next = low;
        self.par[root as usize] = par;
        self.low[root as usize] = low;
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (v, i) = *top;
            if let Some(&e) = self.tree_adj[v as usize].get(i as usize) {
                top.1 += 1;
                if e != self.par[v as usize] {
                    let w = self.other(e, v);
                    self.par[w as usize] = e;
                    self.low[w as usize] = next;
                    stack.push((w, 0));
                }
            } else {
                self.lim[v as usize] = next;
                self.by_lim[next as usize] = v;
                next += 1;
                stack.pop();
            }
        }
        self.stack = stack;
    }

    /// The cut value of tree edge `f`, from the cut values of the tree
    /// edges below it (graphviz's `x_cutval`): each edge incident to the
    /// lower endpoint `v` either crosses the split (±1 by direction) or
    /// stays under `v`, where it was already counted by the child edge it
    /// hangs under (its cut value minus itself, or −1 for a non-tree edge).
    fn cut_value(&self, f: u32) -> i64 {
        let (v, v_is_tail) = self.lower_end(f);
        self.incident(v)
            .iter()
            .map(|&e| {
                let w = self.other(e, v);
                let crosses = !self.under(w, v);
                let value = if crosses {
                    1
                } else if self.tree_pos[e as usize] != NONE {
                    self.cut[e as usize] - 1
                } else {
                    -1
                };
                let into_v = if v_is_tail {
                    self.head[e as usize] == v
                } else {
                    self.tail[e as usize] == v
                };
                if into_v == crosses {
                    -value
                } else {
                    value
                }
            })
            .sum()
    }

    /// A tree edge with a negative cut value: the most negative among the
    /// first [`SEARCH_SIZE`] found, cycling on from where the last search
    /// stopped. `None` means the tree is optimal.
    fn leave_edge(&mut self) -> Option<u32> {
        let k = self.tree_edges.len();
        let mut best: Option<u32> = None;
        let mut found = 0;
        for step in 0..k {
            let i = (self.search_at + step) % k;
            let f = self.tree_edges[i];
            if self.cut[f as usize] < 0 {
                if best.is_none_or(|b| self.cut[b as usize] > self.cut[f as usize]) {
                    best = Some(f);
                }
                found += 1;
                if found >= SEARCH_SIZE {
                    self.search_at = i;
                    break;
                }
            }
        }
        best
    }

    /// The minimum-slack edge crossing the split made by tree edge `f`
    /// from its head side to its tail side, found by scanning the edges
    /// incident to the smaller side. Tree edges never cross the split
    /// except `f`, which crosses the other way.
    fn enter_edge(&self, f: u32) -> u32 {
        let (v, tail_below) = self.lower_end(f);
        let (ranges, _) = self.smaller_side(f);
        let mut best: Option<(i64, u32)> = None;
        for l in ranges.into_iter().flatten() {
            for &e in self.incident(self.by_lim[l as usize]) {
                // `f`'s tail side is the subtree under `v` iff `tail_below`.
                let head_below = self.under(self.head[e as usize], v);
                if head_below == tail_below && self.under(self.tail[e as usize], v) != tail_below {
                    let s = self.slack(e);
                    if best.is_none_or(|(b, _)| s < b) {
                        if s == 0 {
                            return e;
                        }
                        best = Some((s, e));
                    }
                }
            }
        }
        best.expect("a negative cut value has an edge crossing back")
            .1
    }

    /// Exchanges tree edge `leave` for `enter`: tightens `enter` by
    /// shifting one side of the split, updates the cut values on the tree
    /// paths from `enter`'s endpoints to their lowest common ancestor, and
    /// relabels under that ancestor.
    fn update(&mut self, leave: u32, enter: u32) {
        let delta = self.slack(enter);
        if delta > 0 {
            // Lowering `leave`'s tail side by `delta` makes `enter` tight;
            // raising the head side instead is the same ranking shifted.
            let (_, tail_below) = self.lower_end(leave);
            let (ranges, below) = self.smaller_side(leave);
            let shift = if tail_below == below { -delta } else { delta };
            for l in ranges.into_iter().flatten() {
                self.rank[self.by_lim[l as usize] as usize] += shift;
            }
        }
        let cv = self.cut[leave as usize];
        let (t, h) = (self.tail[enter as usize], self.head[enter as usize]);
        let lca = self.update_path(t, h, cv, true);
        let lca_from_head = self.update_path(h, t, cv, false);
        debug_assert_eq!(lca, lca_from_head);
        self.cut[enter as usize] = -cv;
        self.cut[leave as usize] = 0;
        self.exchange(leave, enter);
        self.relabel(lca, self.par[lca as usize], self.low[lca as usize]);
    }

    /// Walks from `v` up the tree until the subtree holds `w`, adding `cv`
    /// to each edge passed (subtracting when the edge points against
    /// `forward`); returns where it stopped, the lowest common ancestor.
    fn update_path(&mut self, mut v: u32, w: u32, cv: i64, forward: bool) -> u32 {
        while !self.under(w, v) {
            let e = self.par[v as usize];
            let (t, h) = (self.tail[e as usize], self.head[e as usize]);
            if (v == t) == forward {
                self.cut[e as usize] += cv;
            } else {
                self.cut[e as usize] -= cv;
            }
            v = if self.lim[t as usize] > self.lim[h as usize] {
                t
            } else {
                h
            };
        }
        v
    }

    fn exchange(&mut self, leave: u32, enter: u32) {
        let i = self.tree_pos[leave as usize];
        self.tree_pos[leave as usize] = NONE;
        self.tree_pos[enter as usize] = i;
        self.tree_edges[i as usize] = enter;
        for x in [self.tail[leave as usize], self.head[leave as usize]] {
            let adj = &mut self.tree_adj[x as usize];
            let k = adj
                .iter()
                .position(|&g| g == leave)
                .expect("leave is a tree edge");
            adj.swap_remove(k);
        }
        for x in [self.tail[enter as usize], self.head[enter as usize]] {
            self.tree_adj[x as usize].push(enter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, LayeringAlgorithm, LongestPath, Promote, Refined};
    use antlayer_graph::generate;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit() -> WidthModel {
        WidthModel::unit()
    }

    /// Exhaustive minimum dummy count for tiny DAGs (layers 1..=n).
    fn brute_force_min_dummies(dag: &Dag) -> u64 {
        let n = dag.node_count();
        assert!(n <= 6, "brute force only for tiny graphs");
        let mut best = u64::MAX;
        let mut layers = vec![1u32; n];
        fn rec(dag: &Dag, layers: &mut Vec<u32>, i: usize, best: &mut u64) {
            let n = dag.node_count();
            if i == n {
                let l = Layering::from_slice(layers);
                if l.validate(dag).is_ok() {
                    *best = (*best).min(metrics::dummy_count(dag, &l));
                }
                return;
            }
            for v in 1..=n as u32 {
                layers[i] = v;
                rec(dag, layers, i + 1, best);
            }
        }
        rec(dag, &mut layers, 0, &mut best);
        best
    }

    #[test]
    fn chain_is_already_optimal() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let l = NetworkSimplex.layer(&dag, &unit());
        l.validate(&dag).unwrap();
        assert_eq!(metrics::dummy_count(&dag, &l), 0);
        assert_eq!(l.height(), 4);
    }

    #[test]
    fn pulls_shortcut_targets_up() {
        // 0→1→2→3 with shortcut 0→3: optimum has 2 dummies (the shortcut
        // cannot be shorter than span 3 without stretching the chain).
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let l = NetworkSimplex.layer(&dag, &unit());
        l.validate(&dag).unwrap();
        assert_eq!(
            metrics::dummy_count(&dag, &l),
            brute_force_min_dummies(&dag)
        );
    }

    #[test]
    fn dangling_sink_is_promoted() {
        // The PL motivating example: 0→1→2 chain plus 0→3; LPL drops 3 to
        // layer 1 (one dummy); the optimum parks it beside 1.
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let l = NetworkSimplex.layer(&dag, &unit());
        assert_eq!(metrics::dummy_count(&dag, &l), 0);
    }

    #[test]
    fn matches_brute_force_on_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..40 {
            let dag = generate::gnp_dag(6, 0.35, &mut rng);
            let l = NetworkSimplex.layer(&dag, &unit());
            l.validate(&dag).unwrap();
            assert_eq!(
                metrics::dummy_count(&dag, &l),
                brute_force_min_dummies(&dag),
                "suboptimal on {dag:?}"
            );
        }
    }

    #[test]
    fn never_worse_than_promote_heuristic() {
        // PL approximates exactly this objective, so the exact method must
        // dominate it on every input.
        let mut rng = StdRng::seed_from_u64(67);
        let lpl_pl = Refined::new(LongestPath, Promote::new());
        for i in 0..30 {
            let dag = generate::random_dag_with_edges(15 + i, 22 + i, &mut rng);
            let ns = NetworkSimplex.layer(&dag, &unit());
            let pl = lpl_pl.layer(&dag, &unit());
            ns.validate(&dag).unwrap();
            assert!(
                metrics::dummy_count(&dag, &ns) <= metrics::dummy_count(&dag, &pl),
                "NS lost to PL on graph {i}"
            );
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let l = NetworkSimplex.layer(&dag, &unit());
        l.validate(&dag).unwrap();
        assert_eq!(metrics::dummy_count(&dag, &l), 0);
    }

    #[test]
    fn handles_trivial_graphs() {
        assert!(NetworkSimplex
            .layer(&Dag::from_edges(0, &[]).unwrap(), &unit())
            .is_empty());
        let one = NetworkSimplex.layer(&Dag::from_edges(1, &[]).unwrap(), &unit());
        assert_eq!(one.height(), 1);
        let edgeless = NetworkSimplex.layer(&Dag::from_edges(4, &[]).unwrap(), &unit());
        edgeless
            .validate(&Dag::from_edges(4, &[]).unwrap())
            .unwrap();
    }

    #[test]
    fn output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..10 {
            let dag = generate::layered_dag(30, 8, 0.05, 2, &mut rng);
            let mut l = NetworkSimplex.layer(&dag, &unit());
            assert!(!l.normalize());
        }
    }

    /// Random DAGs of up to 40 nodes. Sparse `gnp` graphs are often
    /// disconnected; the third kind always is: two random DAGs side by
    /// side plus two isolated nodes.
    fn arb_small_dag() -> impl Strategy<Value = Dag> {
        (1usize..41, 0u64..1_000_000, 0u8..3).prop_map(|(n, seed, kind)| {
            let mut rng = StdRng::seed_from_u64(seed);
            match kind {
                0 => generate::gnp_dag(n, 0.1, &mut rng),
                1 => generate::random_dag_with_edges(n, n * 3 / 2, &mut rng),
                _ => {
                    let a = (n / 2).max(1);
                    let left = generate::random_dag_with_edges(a, a * 3 / 2, &mut rng);
                    let right = generate::gnp_dag(n - a + 1, 0.2, &mut rng);
                    let mut edges: Vec<(u32, u32)> = left
                        .edges()
                        .map(|(u, v)| (u.index() as u32, v.index() as u32))
                        .collect();
                    edges.extend(
                        right
                            .edges()
                            .map(|(u, v)| ((a + u.index()) as u32, (a + v.index()) as u32)),
                    );
                    Dag::from_edges(a + right.node_count() + 2, &edges).unwrap()
                }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_the_reference_optimum(dag in arb_small_dag()) {
            let mut l = NetworkSimplex.layer(&dag, &unit());
            prop_assert!(l.validate(&dag).is_ok());
            prop_assert!(!l.normalize(), "not normalized");
            prop_assert_eq!(
                metrics::dummy_count(&dag, &l),
                metrics::dummy_count(&dag, &reference::layer(&dag))
            );
        }
    }

    impl Simplex {
        /// Checks, against a recomputation from scratch, everything a
        /// pivot must maintain: feasible ranks, a tight spanning tree, its
        /// labels and its cut values.
        fn check(&self) {
            let m = self.rank.len();
            assert_eq!(self.tree_edges.len(), m - 1);
            for e in 0..self.tail.len() as u32 {
                assert!(self.slack(e) >= 0, "edge {e} infeasible");
            }
            for (i, &f) in self.tree_edges.iter().enumerate() {
                assert_eq!(self.slack(f), 0, "tree edge {f} not tight");
                assert_eq!(self.tree_pos[f as usize], i as u32);
            }
            let mut fresh = self.clone();
            fresh.relabel(0, NONE, 0);
            assert_eq!(fresh.par, self.par);
            assert_eq!(fresh.low, self.low);
            assert_eq!(fresh.lim, self.lim);
            assert_eq!(fresh.by_lim, self.by_lim);
            for &f in &self.tree_edges {
                let (v, tail_below) = self.lower_end(f);
                let mut cut = 0;
                for e in 0..self.tail.len() {
                    let tail_in = self.under(self.tail[e], v);
                    if tail_in != self.under(self.head[e], v) {
                        cut += if tail_in == tail_below { 1 } else { -1 };
                    }
                }
                assert_eq!(self.cut[f as usize], cut, "cut value of tree edge {f}");
            }
        }
    }

    #[test]
    fn incremental_updates_match_a_fresh_computation_after_every_pivot() {
        let mut rng = StdRng::seed_from_u64(73);
        let mut pivots = 0;
        for i in 0..30 {
            let dag = match i % 3 {
                0 => generate::gnp_dag(30, 0.15, &mut rng),
                1 => generate::random_dag_with_edges(40, 70, &mut rng),
                _ => generate::layered_dag(40, 8, 0.1, 2, &mut rng),
            };
            let from_source = antlayer_graph::longest_path_from_source(&dag, dag.topo_order());
            let rank: Vec<i64> = dag.nodes().map(|v| from_source[v] as i64).collect();
            let mut local = vec![0u32; dag.node_count()];
            for comp in weak_components(&dag) {
                if comp.len() < 2 {
                    continue;
                }
                let mut s = Simplex::new(&dag, &comp, &rank, &mut local);
                assert!(s.feasible_tree(None));
                s.init_cut_values();
                s.check();
                while let Some(leave) = s.leave_edge() {
                    let enter = s.enter_edge(leave);
                    s.update(leave, enter);
                    s.check();
                    pivots += 1;
                }
            }
        }
        assert!(
            pivots > 30,
            "only {pivots} pivots: the graphs test too little"
        );
    }

    #[test]
    fn an_expired_deadline_returns_a_feasible_ranking_marked_truncated() {
        let mut rng = StdRng::seed_from_u64(79);
        let dag = generate::random_dag_with_edges(60, 100, &mut rng);
        let cut_short = NetworkSimplex.solve(&dag, &unit(), Some(Instant::now()));
        cut_short.layering.validate(&dag).unwrap();
        assert!(cut_short.stopped_early);
        let full = NetworkSimplex.solve(&dag, &unit(), None);
        assert!(!full.stopped_early);
        assert_eq!(full.layering, NetworkSimplex.layer(&dag, &unit()));
        assert!(
            metrics::dummy_count(&dag, &full.layering)
                < metrics::dummy_count(&dag, &cut_short.layering)
        );
    }
}
