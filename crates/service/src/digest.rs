//! Canonical request digests — the cache key of the serving layer.
//!
//! A layout result is identified by everything that determines its bits:
//! the digraph (dense node ids + exact edge list), the algorithm and its
//! parameters, and the width model. [`CanonicalHasher`] consumes a
//! canonical byte/word encoding of those and produces a 128-bit
//! [`Digest`]; two requests collide only if their canonical encodings
//! collide, so equal digests mean "the server may reuse the stored
//! result".
//!
//! Two deliberate non-goals:
//!
//! * **No graph canonization.** Isomorphic graphs with different node
//!   numberings hash differently. Diagram front ends re-send the same
//!   node numbering for the same document, which is the reuse pattern
//!   the cache targets; graph-isomorphism-strength keys would cost more
//!   than a cache miss.
//! * **No deadline.** The request deadline is quality-of-service, not
//!   identity (see `LayoutRequest::deadline`); digests of a request with
//!   and without a deadline are equal, and the scheduler refuses to cache
//!   deadline-truncated runs instead.

use antlayer_aco::{AcoParams, DepositStrategy, SelectionRule, StretchStrategy, VisitOrder};
use antlayer_graph::DiGraph;
use antlayer_layering::WidthModel;
use std::fmt;

/// A 128-bit content digest, printable as 32 hex digits.
///
/// # Examples
///
/// ```
/// use antlayer_service::Digest;
///
/// let d = Digest { hi: 0x0123, lo: 0xabcd };
/// let hex = d.to_string();
/// assert_eq!(hex.len(), 32);
/// assert_eq!(Digest::from_hex(&hex), Some(d)); // the wire round-trip
/// assert_eq!(Digest::from_hex("not hex"), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Digest {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Digest {
    /// The digest as one `u128`.
    pub fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Parses the 32-hex-digit form produced by [`Display`](fmt::Display);
    /// the wire format of `layout_delta`'s base reference.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(Digest {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Incremental 128-bit hasher over a canonical word stream.
///
/// Two independent 64-bit lanes absorb every word with different odd
/// multipliers and a xor-shift avalanche (the SplitMix64 finalizer), so
/// the lanes never agree by construction; the house style favours this
/// dependency-free scheme over pulling in a hashing crate.
///
/// # Examples
///
/// ```
/// use antlayer_service::CanonicalHasher;
///
/// let digest_of = |text: &str| {
///     let mut h = CanonicalHasher::new("example-v1");
///     h.write_str(text);
///     h.finish()
/// };
/// assert_eq!(digest_of("same input"), digest_of("same input"));
/// assert_ne!(digest_of("same input"), digest_of("other input"));
/// ```
pub struct CanonicalHasher {
    a: u64,
    b: u64,
    words: u64,
}

const LANE_A_SEED: u64 = 0x243F_6A88_85A3_08D3; // pi
const LANE_B_SEED: u64 = 0xB7E1_5162_8AED_2A6A; // e
const LANE_A_MULT: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B_MULT: u64 = 0xC2B2_AE3D_27D4_EB4F;

fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CanonicalHasher {
    /// A hasher domain-separated by `tag` (protocol/version string).
    pub fn new(tag: &str) -> Self {
        let mut h = CanonicalHasher {
            a: LANE_A_SEED,
            b: LANE_B_SEED,
            words: 0,
        };
        h.write_str(tag);
        h
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, w: u64) {
        self.a = avalanche(self.a ^ w).wrapping_mul(LANE_A_MULT);
        self.b = avalanche(self.b.rotate_left(29) ^ w).wrapping_mul(LANE_B_MULT);
        self.words += 1;
    }

    /// Absorbs a float by its bit pattern (`-0.0` and `0.0` thus differ;
    /// canonical encoders should not emit negative zero).
    pub fn write_f64(&mut self, f: f64) {
        self.write_u64(f.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// Absorbs an optional word with presence disambiguation.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u64(0),
            Some(w) => {
                self.write_u64(1);
                self.write_u64(w);
            }
        }
    }

    /// Finalizes into a digest; includes the absorbed word count so
    /// prefix-related streams differ.
    pub fn finish(mut self) -> Digest {
        let words = self.words;
        self.write_u64(words);
        Digest {
            hi: avalanche(self.a ^ self.b.rotate_left(17)),
            lo: avalanche(self.b ^ self.a.rotate_left(43)),
        }
    }
}

/// Version tag of the canonical encoding; bump when the encoding changes
/// so stale caches cannot alias new requests.
pub const DIGEST_TAG: &str = "antlayer-digest-v1";

/// Digest of a full layout request: graph + algorithm + width model.
///
/// # Examples
///
/// ```
/// use antlayer_graph::DiGraph;
/// use antlayer_layering::WidthModel;
/// use antlayer_service::request_digest;
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let wm = WidthModel::unit();
/// // Edge insertion order is canonicalized away…
/// let reordered = DiGraph::from_edges(3, &[(1, 2), (0, 1)]).unwrap();
/// assert_eq!(
///     request_digest(&g, "lpl", None, &wm),
///     request_digest(&reordered, "lpl", None, &wm)
/// );
/// // …but the algorithm is part of the identity.
/// assert_ne!(
///     request_digest(&g, "lpl", None, &wm),
///     request_digest(&g, "ns", None, &wm)
/// );
/// ```
pub fn request_digest(
    graph: &DiGraph,
    algo_canonical: &str,
    params: Option<&AcoParams>,
    wm: &WidthModel,
) -> Digest {
    let mut h = CanonicalHasher::new(DIGEST_TAG);
    write_graph(&mut h, graph);
    h.write_str(algo_canonical);
    match params {
        None => h.write_u64(0),
        Some(p) => {
            h.write_u64(1);
            write_aco_params(&mut h, p);
        }
    }
    write_width_model(&mut h, wm, graph);
    h.finish()
}

fn write_graph(h: &mut CanonicalHasher, graph: &DiGraph) {
    h.write_u64(graph.node_count() as u64);
    h.write_u64(graph.edge_count() as u64);
    // Node ids are dense indices, so the sorted edge list is canonical for
    // a given numbering regardless of insertion order.
    let mut edges: Vec<(u32, u32)> = graph
        .edges()
        .map(|(u, v)| (u.index() as u32, v.index() as u32))
        .collect();
    edges.sort_unstable();
    for (u, v) in edges {
        h.write_u64(((u as u64) << 32) | v as u64);
    }
}

fn write_width_model(h: &mut CanonicalHasher, wm: &WidthModel, graph: &DiGraph) {
    h.write_f64(wm.dummy_width);
    if wm.is_uniform() {
        h.write_u64(0);
    } else {
        h.write_u64(1);
        for v in graph.nodes() {
            h.write_f64(wm.node_width(v));
        }
    }
}

fn write_aco_params(h: &mut CanonicalHasher, p: &AcoParams) {
    h.write_u64(p.n_ants as u64);
    h.write_u64(p.n_tours as u64);
    h.write_f64(p.alpha);
    h.write_f64(p.beta);
    h.write_f64(p.rho);
    h.write_f64(p.tau0);
    h.write_f64(p.deposit_q);
    h.write_u64(p.seed);
    h.write_str(match p.stretch {
        StretchStrategy::Between => "between",
        StretchStrategy::Above => "above",
        StretchStrategy::Below => "below",
        StretchStrategy::Split => "split",
    });
    h.write_str(match p.selection {
        SelectionRule::ArgMax => "argmax",
        SelectionRule::Roulette => "roulette",
    });
    h.write_str(match p.visit_order {
        VisitOrder::Random => "random",
        VisitOrder::Bfs => "bfs",
        VisitOrder::Topological => "topo",
    });
    match p.deposit {
        DepositStrategy::TourBest => h.write_u64(0),
        DepositStrategy::RankBased(k) => {
            h.write_u64(1);
            h.write_u64(k as u64);
        }
    }
    match p.tau_bounds {
        None => h.write_u64(0),
        Some((lo, hi)) => {
            h.write_u64(1);
            h.write_f64(lo);
            h.write_f64(hi);
        }
    }
    h.write_opt_u64(p.target_layers.map(|t| t as u64));
    h.write_opt_u64(p.eta_floor.map(f64::to_bits));
    // threads intentionally omitted: QoS, not identity — the colony
    // is deterministic under any thread count.
    // trajectory_cap likewise: convergence telemetry never changes
    // which layering a run returns.
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::DiGraph;
    use std::collections::HashSet;

    fn g(n: usize, edges: &[(u32, u32)]) -> DiGraph {
        DiGraph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn digest_is_deterministic() {
        let a = request_digest(&g(3, &[(0, 1), (1, 2)]), "aco", None, &WidthModel::unit());
        let b = request_digest(&g(3, &[(0, 1), (1, 2)]), "aco", None, &WidthModel::unit());
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn edge_insertion_order_is_canonicalized() {
        let a = request_digest(&g(3, &[(0, 1), (1, 2)]), "lpl", None, &WidthModel::unit());
        let b = request_digest(&g(3, &[(1, 2), (0, 1)]), "lpl", None, &WidthModel::unit());
        assert_eq!(a, b);
    }

    #[test]
    fn all_small_graphs_get_distinct_digests() {
        // Every labelled digraph on 3 nodes (9 possible directed edges
        // minus self-loops = 6 arcs, 2^6 graphs) must hash distinctly.
        let arcs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
        let mut seen = HashSet::new();
        for mask in 0u32..64 {
            let edges: Vec<(u32, u32)> = arcs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let d = request_digest(&g(3, &edges), "lpl", None, &WidthModel::unit());
            assert!(seen.insert(d.as_u128()), "collision at mask {mask}");
        }
    }

    #[test]
    fn algo_params_and_widths_separate_digests() {
        let graph = g(4, &[(0, 1), (1, 2), (2, 3)]);
        let wm = WidthModel::unit();
        let base = request_digest(&graph, "aco", Some(&AcoParams::default()), &wm);
        let other_algo = request_digest(&graph, "lpl", None, &wm);
        assert_ne!(base, other_algo);
        let seeded = AcoParams::default().with_seed(99);
        assert_ne!(base, request_digest(&graph, "aco", Some(&seeded), &wm));
        let wide = WidthModel::with_dummy_width(0.5);
        assert_ne!(
            base,
            request_digest(&graph, "aco", Some(&AcoParams::default()), &wide)
        );
    }

    #[test]
    fn deadline_and_threads_do_not_change_identity() {
        let graph = g(4, &[(0, 1), (1, 2), (2, 3)]);
        let wm = WidthModel::unit();
        let p1 = AcoParams::default().with_threads(1);
        let p2 = AcoParams::default().with_threads(8);
        assert_eq!(
            request_digest(&graph, "aco", Some(&p1), &wm),
            request_digest(&graph, "aco", Some(&p2), &wm)
        );
    }

    #[test]
    fn trajectory_cap_does_not_change_identity() {
        // Convergence telemetry is QoS, not identity: caching must treat
        // instrumented and uninstrumented runs as the same request.
        let graph = g(4, &[(0, 1), (1, 2), (2, 3)]);
        let wm = WidthModel::unit();
        let p1 = AcoParams::default().with_trajectory_cap(0);
        let p2 = AcoParams::default().with_trajectory_cap(1024);
        assert_eq!(
            request_digest(&graph, "aco", Some(&p1), &wm),
            request_digest(&graph, "aco", Some(&p2), &wm)
        );
    }

    #[test]
    fn node_count_disambiguates_isolated_tails() {
        // Same edges, different node counts (trailing isolated vertices).
        let wm = WidthModel::unit();
        let a = request_digest(&g(3, &[(0, 1)]), "lpl", None, &wm);
        let b = request_digest(&g(4, &[(0, 1)]), "lpl", None, &wm);
        assert_ne!(a, b);
    }

    #[test]
    fn from_hex_round_trips_display() {
        let d = request_digest(&g(3, &[(0, 1)]), "aco", None, &WidthModel::unit());
        assert_eq!(Digest::from_hex(&d.to_string()), Some(d));
        assert_eq!(Digest::from_hex("short"), None);
        assert_eq!(Digest::from_hex(&"x".repeat(32)), None);
        // Mixed case is accepted (hex digits only).
        let upper = d.to_string().to_uppercase();
        assert_eq!(Digest::from_hex(&upper), Some(d));
    }

    #[test]
    fn hasher_separates_string_boundaries() {
        let mut h1 = CanonicalHasher::new("t");
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = CanonicalHasher::new("t");
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
