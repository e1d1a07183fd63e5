//! Edge diffs between two graphs sharing a node set.
//!
//! Interactive diagram editing changes a few edges at a time; re-sending
//! the whole graph for every keystroke wastes bandwidth and — worse —
//! discards the identity that lets the serving layer reuse the previous
//! layering as a warm start. [`GraphDelta`] captures exactly that edit:
//! a set of edges to remove and a set to add, applied to a [`DiGraph`]
//! with full validation (endpoints in bounds, removed edges present,
//! added edges absent, no self-loops) so a malformed client diff can
//! never corrupt a cached base graph.
//!
//! Deltas are invertible: [`GraphDelta::inverse`] swaps the two sets, and
//! `apply(delta)` followed by `apply(inverse(delta))` restores the
//! original graph bit for bit (the property tests pin this down). The
//! node set is deliberately fixed — node ids are the join key between a
//! delta, the base graph, and the base *layering*; growing the node set
//! is a full re-layout, not an edit.

use crate::{Dag, DiGraph, GraphError, NodeId};
use std::fmt;

/// An edge edit: remove `removed`, then add `added`.
///
/// Removal happens before addition, so a delta may move an edge by
/// listing it in `removed` and a replacement in `added` even when the
/// two overlap. Within each list, duplicates are invalid (the second
/// removal sees the edge already gone; the second addition sees it
/// already present).
///
/// # Example
/// ```
/// use antlayer_graph::{DiGraph, GraphDelta};
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let delta = GraphDelta::new(vec![(0, 2)], vec![(0, 1)]);
/// let edited = delta.apply(&g).unwrap();
/// assert!(edited.has_edge(0.into(), 2.into()));
/// assert!(!edited.has_edge(0.into(), 1.into()));
/// let restored = delta.inverse().apply(&edited).unwrap();
/// assert_eq!(restored.edge_count(), g.edge_count());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Edges to insert, as `(source, target)` index pairs.
    pub added: Vec<(u32, u32)>,
    /// Edges to delete, as `(source, target)` index pairs.
    pub removed: Vec<(u32, u32)>,
}

/// Why a delta could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge listed in `removed` is not present in the base graph.
    MissingEdge(u32, u32),
    /// Adding an edge failed (out of bounds, self-loop, or duplicate).
    BadAddition(GraphError),
    /// An endpoint of a removed edge is out of bounds.
    RemovedOutOfBounds(u32, u32),
    /// Applying the delta to a DAG produced a directed cycle.
    CreatesCycle(Vec<NodeId>),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::MissingEdge(u, v) => {
                write!(f, "cannot remove edge ({u}, {v}): not present")
            }
            DeltaError::BadAddition(e) => write!(f, "cannot add edge: {e}"),
            DeltaError::RemovedOutOfBounds(u, v) => {
                write!(f, "removed edge ({u}, {v}) has an out-of-bounds endpoint")
            }
            DeltaError::CreatesCycle(nodes) => {
                write!(f, "delta creates a directed cycle through [")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl GraphDelta {
    /// A delta adding `added` and removing `removed`.
    pub fn new(added: Vec<(u32, u32)>, removed: Vec<(u32, u32)>) -> Self {
        GraphDelta { added, removed }
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of edge edits (`added + removed`).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// The delta that undoes this one: added edges are removed and vice
    /// versa. `apply(d)` followed by `apply(d.inverse())` restores the
    /// original graph exactly (including edge insertion order up to the
    /// canonical sorted form the digests use).
    pub fn inverse(&self) -> GraphDelta {
        GraphDelta {
            added: self.removed.clone(),
            removed: self.added.clone(),
        }
    }

    /// The single delta with the net effect of applying `self` and then
    /// `next` — the coalescing step of a live edit session: a burst of
    /// deltas arriving while a solve is in flight folds into one edit,
    /// and one re-solve covers the burst.
    ///
    /// Per edge, the occurrences across both deltas are summed (`+1`
    /// add, `-1` remove, removals-first within each delta as
    /// [`apply`](Self::apply) orders them): a positive net is an
    /// addition, a negative net a removal, and zero — an edge added
    /// then removed, or removed then re-added — drops out entirely. For
    /// any base graph on which the two deltas apply in sequence,
    /// `d1.compose(&d2).apply(g)` equals `d2.apply(&d1.apply(g)?)` (the
    /// property tests pin this down). Edges are emitted in sorted
    /// order, so composition is canonical regardless of arrival order
    /// within the burst.
    pub fn compose(&self, next: &GraphDelta) -> GraphDelta {
        let mut net: std::collections::BTreeMap<(u32, u32), i32> =
            std::collections::BTreeMap::new();
        for delta in [self, next] {
            for &e in &delta.removed {
                *net.entry(e).or_insert(0) -= 1;
            }
            for &e in &delta.added {
                *net.entry(e).or_insert(0) += 1;
            }
        }
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for ((u, v), n) in net {
            match n.cmp(&0) {
                std::cmp::Ordering::Greater => added.push((u, v)),
                std::cmp::Ordering::Less => removed.push((u, v)),
                std::cmp::Ordering::Equal => {}
            }
        }
        GraphDelta { added, removed }
    }

    /// Applies the delta to `graph`, returning the edited graph.
    ///
    /// Validation is all-or-nothing: every removed edge must exist in
    /// `graph`, and every added edge must be addable *after* the
    /// removals (in bounds, no self-loop, not already present). The base
    /// graph is never mutated.
    pub fn apply(&self, graph: &DiGraph) -> Result<DiGraph, DeltaError> {
        let n = graph.node_count();
        // Set-based membership keeps application linear in E + delta
        // size: deltas run on the serving path against cached base
        // graphs, where a per-edge scan of the removal list would turn
        // one large request into minutes of CPU.
        let mut removed = std::collections::HashSet::with_capacity(self.removed.len());
        for &(u, v) in &self.removed {
            if u as usize >= n || v as usize >= n {
                return Err(DeltaError::RemovedOutOfBounds(u, v));
            }
            if !graph.has_edge(NodeId::new(u as usize), NodeId::new(v as usize)) {
                return Err(DeltaError::MissingEdge(u, v));
            }
            // A doubly-listed removal is a removal of an edge that is
            // (by then) gone — reject it like any other missing edge.
            if !removed.insert((u, v)) {
                return Err(DeltaError::MissingEdge(u, v));
            }
        }
        let mut edited =
            graph.filter_edges(|u, v| !removed.contains(&(u.index() as u32, v.index() as u32)));
        for &(u, v) in &self.added {
            edited
                .add_edge(NodeId::new(u as usize), NodeId::new(v as usize))
                .map_err(DeltaError::BadAddition)?;
        }
        Ok(edited)
    }

    /// Applies the delta to a [`Dag`], re-checking acyclicity.
    ///
    /// Edge additions can close a directed cycle; this re-runs the
    /// topological check (the same machinery [`Dag::new`] uses) and
    /// reports the witness cycle on failure.
    pub fn apply_to_dag(&self, dag: &Dag) -> Result<Dag, DeltaError> {
        let edited = self.apply(dag.graph())?;
        Dag::new(edited).map_err(|e| match e {
            GraphError::Cycle(nodes) => DeltaError::CreatesCycle(nodes),
            other => DeltaError::BadAddition(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn apply_adds_and_removes() {
        let g = diamond();
        let d = GraphDelta::new(vec![(0, 3)], vec![(0, 1), (1, 3)]);
        let e = d.apply(&g).unwrap();
        assert_eq!(e.edge_count(), 3);
        assert!(e.has_edge(NodeId::new(0), NodeId::new(3)));
        assert!(!e.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn removal_happens_before_addition() {
        // Re-adding a removed edge is a no-op delta overall but must be
        // accepted: remove-then-add.
        let g = diamond();
        let d = GraphDelta::new(vec![(0, 1)], vec![(0, 1)]);
        let e = d.apply(&g).unwrap();
        assert_eq!(e.edge_count(), 4);
        assert!(e.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn missing_removed_edge_is_rejected() {
        let g = diamond();
        let d = GraphDelta::new(vec![], vec![(3, 0)]);
        assert_eq!(d.apply(&g).unwrap_err(), DeltaError::MissingEdge(3, 0));
        let dup = GraphDelta::new(vec![], vec![(0, 1), (0, 1)]);
        assert_eq!(dup.apply(&g).unwrap_err(), DeltaError::MissingEdge(0, 1));
    }

    #[test]
    fn out_of_bounds_and_bad_additions_are_rejected() {
        let g = diamond();
        assert!(matches!(
            GraphDelta::new(vec![], vec![(9, 0)]).apply(&g),
            Err(DeltaError::RemovedOutOfBounds(9, 0))
        ));
        assert!(matches!(
            GraphDelta::new(vec![(2, 2)], vec![]).apply(&g),
            Err(DeltaError::BadAddition(GraphError::SelfLoop(_)))
        ));
        assert!(matches!(
            GraphDelta::new(vec![(0, 1)], vec![]).apply(&g),
            Err(DeltaError::BadAddition(GraphError::DuplicateEdge(_, _)))
        ));
        assert!(matches!(
            GraphDelta::new(vec![(0, 9)], vec![]).apply(&g),
            Err(DeltaError::BadAddition(GraphError::NodeOutOfBounds { .. }))
        ));
    }

    #[test]
    fn base_graph_is_untouched_on_failure() {
        let g = diamond();
        let d = GraphDelta::new(vec![(0, 1)], vec![]); // duplicate
        assert!(d.apply(&g).is_err());
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn inverse_round_trips() {
        let g = diamond();
        let d = GraphDelta::new(vec![(0, 3), (3, 1)], vec![(0, 2)]);
        let edited = d.apply(&g).unwrap();
        let restored = d.inverse().apply(&edited).unwrap();
        assert_eq!(restored.node_count(), g.node_count());
        assert_eq!(restored.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(restored.has_edge(u, v));
        }
    }

    #[test]
    fn dag_application_rechecks_cycles() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ok = GraphDelta::new(vec![(0, 2)], vec![]).apply_to_dag(&dag);
        assert_eq!(ok.unwrap().edge_count(), 3);
        let cycle = GraphDelta::new(vec![(2, 0)], vec![]).apply_to_dag(&dag);
        assert!(matches!(cycle, Err(DeltaError::CreatesCycle(_))));
    }

    #[test]
    fn compose_folds_two_edits_into_their_net_effect() {
        let g = diamond();
        // d1 removes (0,1) and adds (0,3); d2 re-adds (0,1) and removes
        // (0,3) again — the two cancel completely.
        let d1 = GraphDelta::new(vec![(0, 3)], vec![(0, 1)]);
        let d2 = GraphDelta::new(vec![(0, 1)], vec![(0, 3)]);
        let folded = d1.compose(&d2);
        assert!(folded.is_empty());
        let stepped = d2.apply(&d1.apply(&g).unwrap()).unwrap();
        assert_eq!(stepped.edge_count(), g.edge_count());

        // Non-cancelling edits survive, sorted.
        let d3 = GraphDelta::new(vec![(3, 1)], vec![(0, 2)]);
        let folded = d1.compose(&d3);
        assert_eq!(folded.added, vec![(0, 3), (3, 1)]);
        assert_eq!(folded.removed, vec![(0, 1), (0, 2)]);
        let via_compose = folded.apply(&g).unwrap();
        let via_steps = d3.apply(&d1.apply(&g).unwrap()).unwrap();
        assert_eq!(via_compose.edge_count(), via_steps.edge_count());
        for (u, v) in via_steps.edges() {
            assert!(via_compose.has_edge(u, v));
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = diamond();
        let d = GraphDelta::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        let e = d.apply(&g).unwrap();
        assert_eq!(e.edge_count(), g.edge_count());
    }
}
