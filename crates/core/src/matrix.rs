//! The colony's pheromone trails, stored sparsely.
//!
//! The paper's initialisation fills a `|V| × H` matrix with `τ₀`, and
//! with the default stretch `H = |V|`, so a dense matrix grows as `V²`
//! (800 MB at 10⁴ vertices) although a tour deposits on only `|V|`
//! couplings. Every coupling that has never received a deposit goes
//! through the same float operations as every other (`x *= 1 − ρ`, then
//! `max(x, 1e-12)`, then the optional MAX–MIN clamp), so all of them hold
//! the same bits at any time. [`Trails`] keeps that shared value once, as
//! the `floor`, and stores only the deposited couplings, as a sorted
//! `(layer, value)` list per vertex. Stored entries get the same
//! operations one by one, and an entry whose bits fall back to the floor
//! is dropped. Reads are therefore bit-identical to the dense matrix,
//! while memory and evaporation cost scale with the stored couplings.

use antlayer_graph::NodeId;

/// Sparse `vertices × layers` pheromone trails.
///
/// Layer indices are 1-based throughout the crate (matching the paper's
/// `L1..Lh`).
#[derive(Clone, PartialEq, Debug)]
pub struct Trails {
    /// Value of every coupling absent from `rows`.
    floor: f64,
    layers: u32,
    /// Per vertex: the couplings whose value differs from `floor`,
    /// sorted by layer.
    rows: Vec<Vec<(u32, f64)>>,
}

impl Trails {
    /// Trails with every coupling at `tau0`; allocates one empty row per
    /// vertex and nothing per layer.
    pub fn new(vertices: usize, layers: usize, tau0: f64) -> Self {
        Trails {
            floor: tau0,
            layers: layers as u32,
            rows: vec![Vec::new(); vertices],
        }
    }

    /// Number of vertex rows.
    pub fn vertices(&self) -> usize {
        self.rows.len()
    }

    /// Number of couplings stored explicitly (the rest sit at the floor).
    pub fn stored(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    #[inline]
    fn check_layer(&self, layer: u32) {
        debug_assert!(
            (1..=self.layers).contains(&layer),
            "layer {layer} out of 1..={}",
            self.layers
        );
    }

    /// Entry for `(v, layer)`; `layer` is 1-based.
    pub fn get(&self, v: NodeId, layer: u32) -> f64 {
        self.check_layer(layer);
        let row = &self.rows[v.index()];
        match row.binary_search_by_key(&layer, |&(l, _)| l) {
            Ok(i) => row[i].1,
            Err(_) => self.floor,
        }
    }

    /// Adds `delta` to the entry for `(v, layer)` (a deposit).
    pub fn add(&mut self, v: NodeId, layer: u32, delta: f64) {
        self.check_layer(layer);
        let row = &mut self.rows[v.index()];
        match row.binary_search_by_key(&layer, |&(l, _)| l) {
            Ok(i) => row[i].1 += delta,
            Err(i) => row.insert(i, (layer, self.floor + delta)),
        }
    }

    /// Evaporation: multiplies every entry by `keep` (`1 − ρ`), then
    /// raises it to at least `min`, so `τ^α` never underflows to zero for
    /// every candidate.
    pub fn evaporate(&mut self, keep: f64, min: f64) {
        self.apply(|x| {
            let x = x * keep;
            if x < min {
                min
            } else {
                x
            }
        });
    }

    /// Clamps every entry into `[min, max]` (MAX–MIN ant system trail
    /// limits).
    pub fn clamp_range(&mut self, min: f64, max: f64) {
        debug_assert!(min <= max);
        self.apply(|x| x.clamp(min, max));
    }

    /// Applies `op` to the floor and to every stored entry, dropping the
    /// entries that land on the floor's bits.
    fn apply(&mut self, op: impl Fn(f64) -> f64) {
        self.floor = op(self.floor);
        let floor = self.floor.to_bits();
        for row in &mut self.rows {
            row.retain_mut(|(_, x)| {
                *x = op(*x);
                x.to_bits() != floor
            });
        }
    }

    /// Writes the entries of layers `lo..=hi` of vertex `v` into `buf`
    /// and returns them (index 0 is layer `lo`). Allocation-free once
    /// `buf` has grown to the widest window.
    pub fn window<'b>(&self, v: NodeId, lo: u32, hi: u32, buf: &'b mut Vec<f64>) -> &'b [f64] {
        self.check_layer(lo);
        self.check_layer(hi);
        buf.clear();
        buf.resize((hi - lo + 1) as usize, self.floor);
        let row = &self.rows[v.index()];
        let start = row.partition_point(|&(l, _)| l < lo);
        for &(l, x) in row[start..].iter().take_while(|&&(l, _)| l <= hi) {
            buf[(l - lo) as usize] = x;
        }
        buf
    }

    /// Sum of all entries (diagnostics).
    pub fn total(&self) -> f64 {
        let mut sum = 0.0;
        let mut stored = 0;
        for row in &self.rows {
            stored += row.len();
            sum += row.iter().map(|&(_, x)| x).sum::<f64>();
        }
        sum + self.floor * (self.vertices() * self.layers as usize - stored) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn get_set_add_roundtrip() {
        let mut m = Trails::new(3, 4, 1.0);
        assert_eq!(m.get(n(2), 4), 1.0);
        m.add(n(1), 2, 4.0);
        m.add(n(1), 2, 0.5);
        assert_eq!(m.get(n(1), 2), 5.5);
        assert_eq!(m.get(n(1), 3), 1.0, "neighbours untouched");
        assert_eq!(m.stored(), 1, "only the deposited coupling is stored");
    }

    #[test]
    fn scale_all_models_evaporation() {
        let mut m = Trails::new(2, 2, 2.0);
        m.add(n(1), 1, 2.0);
        m.evaporate(0.5, 0.0);
        assert_eq!(m.get(n(0), 1), 1.0);
        assert_eq!(m.get(n(1), 1), 2.0);
        assert_eq!(m.total(), 5.0);
    }

    #[test]
    fn clamp_min_floors_entries() {
        let mut m = Trails::new(1, 3, 1.0);
        m.add(n(0), 2, 1.0);
        m.evaporate(1e-12, 1e-6);
        assert!((1..=3).all(|l| m.get(n(0), l) == 1e-6));
        assert_eq!(m.stored(), 0, "an entry back on the floor is dropped");
    }

    #[test]
    fn rows_are_contiguous_per_vertex() {
        let mut m = Trails::new(2, 3, 0.0);
        m.add(n(0), 1, 1.0);
        m.add(n(0), 3, 3.0);
        m.add(n(1), 2, 2.0);
        let mut buf = Vec::new();
        assert_eq!(m.window(n(0), 1, 3, &mut buf), &[1.0, 0.0, 3.0]);
        assert_eq!(m.window(n(1), 1, 3, &mut buf), &[0.0, 2.0, 0.0]);
        assert_eq!(m.window(n(0), 2, 3, &mut buf), &[0.0, 3.0]);
        assert_eq!(m.window(n(1), 2, 2, &mut buf), &[2.0]);
    }

    #[test]
    fn clamp_range_drops_entries_that_meet_the_floor() {
        let mut m = Trails::new(2, 2, 0.0);
        m.add(n(0), 1, 5.0);
        m.add(n(1), 2, 0.25);
        m.clamp_range(0.125, 0.5);
        assert_eq!(m.get(n(0), 1), 0.5);
        assert_eq!(m.get(n(1), 2), 0.25);
        assert_eq!(m.get(n(1), 1), 0.125);
        m.clamp_range(0.5, 0.5);
        assert_eq!(m.stored(), 0);
        assert_eq!(m.total(), 2.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of 1..=")]
    fn layer_zero_is_rejected_in_debug() {
        let m = Trails::new(1, 2, 0.0);
        m.get(n(0), 0);
    }
}
