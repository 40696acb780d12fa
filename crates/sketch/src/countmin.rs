//! The count-min sketch proper.

use crate::hashing::RowHasher;

/// How increments are applied to the sketch rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Classic CM: every row cell is incremented.
    Plain,
    /// Conservative update (Estan & Varghese): only cells currently at the
    /// minimum are raised, which strictly reduces overestimation for the
    /// same space. Ablation benches compare the two (DESIGN.md §5).
    Conservative,
}

/// A count-min sketch over `u64` keys with `u32` counters.
///
/// ```
/// use adt_sketch::{CountMinSketch, UpdateStrategy};
/// let mut cms = CountMinSketch::new(1024, 4, UpdateStrategy::Conservative, 7);
/// cms.add(42, 3);
/// cms.add(42, 2);
/// assert!(cms.estimate(42) >= 5); // never undercounts
/// ```
///
/// With `width = ⌈e/ε⌉` and `depth = ⌈ln(1/δ)⌉`, the estimate satisfies
/// `v̂(k) ≤ v(k) + εN` with probability `1 − δ`, and never undercounts.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    strategy: UpdateStrategy,
    hashers: Vec<RowHasher>,
    /// Row-major `depth × width` counters.
    table: Vec<u32>,
    /// Total of all inserted values (the `N` in the error bound).
    total: u64,
}

impl CountMinSketch {
    /// Builds a sketch with explicit dimensions.
    pub fn new(width: usize, depth: usize, strategy: UpdateStrategy, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be positive");
        CountMinSketch {
            width,
            depth,
            strategy,
            hashers: (0..depth).map(|i| RowHasher::derive(seed, i)).collect(),
            table: vec![0; width * depth],
            total: 0,
        }
    }

    /// Builds a sketch meeting the `(ε, δ)` guarantee:
    /// `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
    pub fn with_error_bound(epsilon: f64, delta: f64, strategy: UpdateStrategy, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        CountMinSketch::new(width, depth, strategy, seed)
    }

    /// Builds a sketch whose table fits in `budget_bytes`, splitting the
    /// budget across `depth` rows. Used to hit the paper's "compress to X%
    /// of exact size" configurations (Figure 8(a)).
    pub fn with_byte_budget(
        budget_bytes: usize,
        depth: usize,
        strategy: UpdateStrategy,
        seed: u64,
    ) -> Self {
        let cells = (budget_bytes / 4).max(depth);
        let width = (cells / depth).max(1);
        CountMinSketch::new(width, depth, strategy, seed)
    }

    /// Sketch width (cells per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth (number of rows / hash functions).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total inserted value mass `N`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Size of the counter table in bytes.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Adds `value` to `key`'s count.
    pub fn add(&mut self, key: u64, value: u32) {
        self.total += value as u64;
        match self.strategy {
            UpdateStrategy::Plain => {
                for (row, h) in self.hashers.iter().enumerate() {
                    let idx = row * self.width + h.index(key, self.width);
                    self.table[idx] = self.table[idx].saturating_add(value);
                }
            }
            UpdateStrategy::Conservative => {
                let cur = self.estimate(key);
                let target = cur.saturating_add(value as u64).min(u32::MAX as u64) as u32;
                for (row, h) in self.hashers.iter().enumerate() {
                    let idx = row * self.width + h.index(key, self.width);
                    if self.table[idx] < target {
                        self.table[idx] = target;
                    }
                }
            }
        }
    }

    /// Point estimate `v̂(k) = min_i M[i, h_i(k)]`.
    pub fn estimate(&self, key: u64) -> u64 {
        let mut best = u64::MAX;
        for (row, h) in self.hashers.iter().enumerate() {
            let idx = row * self.width + h.index(key, self.width);
            best = best.min(self.table[idx] as u64);
        }
        best
    }

    /// The worst-case additive error bound `εN` implied by the current
    /// width and inserted mass.
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E / self.width as f64 * self.total as f64
    }

    /// Update strategy accessor (codec support).
    pub fn strategy(&self) -> UpdateStrategy {
        self.strategy
    }

    /// Hash family accessor (codec support).
    pub fn hashers(&self) -> &[RowHasher] {
        &self.hashers
    }

    /// Counter table accessor (codec support).
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Reassembles a sketch from its raw parts (codec support). The parts
    /// must be mutually consistent (`table.len() == width * depth`,
    /// `hashers.len() == depth`).
    pub fn from_parts(
        width: usize,
        depth: usize,
        strategy: UpdateStrategy,
        hashers: Vec<RowHasher>,
        table: Vec<u32>,
        total: u64,
    ) -> Self {
        assert_eq!(table.len(), width * depth, "table size mismatch");
        assert_eq!(hashers.len(), depth, "hasher count mismatch");
        CountMinSketch {
            width,
            depth,
            strategy,
            hashers,
            table,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_rng::rngs::StdRng;
    use adt_rng::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn exact_and_sketch(
        strategy: UpdateStrategy,
        width: usize,
        n_keys: usize,
    ) -> (HashMap<u64, u64>, CountMinSketch) {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut cms = CountMinSketch::new(width, 4, strategy, 99);
        for _ in 0..50_000 {
            // Zipf-ish key distribution.
            let k = (rng.random::<f64>().powi(3) * n_keys as f64) as u64;
            let v = rng.random_range(1..4u32);
            *exact.entry(k).or_default() += v as u64;
            cms.add(k, v);
        }
        (exact, cms)
    }

    #[test]
    fn never_undercounts_plain() {
        let (exact, cms) = exact_and_sketch(UpdateStrategy::Plain, 512, 5_000);
        for (&k, &v) in &exact {
            assert!(cms.estimate(k) >= v, "undercount for {k}");
        }
    }

    #[test]
    fn never_undercounts_conservative() {
        let (exact, cms) = exact_and_sketch(UpdateStrategy::Conservative, 512, 5_000);
        for (&k, &v) in &exact {
            assert!(cms.estimate(k) >= v, "undercount for {k}");
        }
    }

    #[test]
    fn conservative_no_worse_than_plain() {
        let (exact, plain) = exact_and_sketch(UpdateStrategy::Plain, 256, 5_000);
        let (_, cons) = exact_and_sketch(UpdateStrategy::Conservative, 256, 5_000);
        let err = |cms: &CountMinSketch| -> u64 {
            exact.iter().map(|(&k, &v)| cms.estimate(k) - v).sum()
        };
        assert!(err(&cons) <= err(&plain));
    }

    #[test]
    fn exact_when_ample_width() {
        // With width far above the number of keys, collisions are rare and
        // most estimates are exact.
        let (exact, cms) = exact_and_sketch(UpdateStrategy::Conservative, 1 << 18, 200);
        let exact_hits = exact.iter().filter(|(&k, &v)| cms.estimate(k) == v).count();
        assert!(exact_hits as f64 / exact.len() as f64 > 0.95);
    }

    #[test]
    fn error_bound_holds_in_aggregate() {
        let (exact, cms) = exact_and_sketch(UpdateStrategy::Plain, 1024, 10_000);
        let bound = cms.error_bound();
        let violations = exact
            .iter()
            .filter(|(&k, &v)| (cms.estimate(k) - v) as f64 > bound)
            .count();
        // delta = e^-4 with depth 4; allow slack on top.
        assert!(
            (violations as f64) < 0.05 * exact.len() as f64,
            "{violations}/{} beyond bound",
            exact.len()
        );
    }

    #[test]
    fn with_error_bound_dimensions() {
        let cms = CountMinSketch::with_error_bound(0.01, 0.01, UpdateStrategy::Plain, 0);
        assert_eq!(cms.width(), (std::f64::consts::E / 0.01).ceil() as usize);
        assert_eq!(cms.depth(), 5); // ln(100) ≈ 4.6 → 5
    }

    #[test]
    fn byte_budget_respected() {
        let cms = CountMinSketch::with_byte_budget(1 << 20, 4, UpdateStrategy::Plain, 0);
        assert!(cms.table_bytes() <= 1 << 20);
        assert!(cms.table_bytes() > (1 << 20) - 4 * 16);
    }

    #[test]
    fn unseen_key_estimate_is_small() {
        let (_, cms) = exact_and_sketch(UpdateStrategy::Conservative, 4096, 500);
        // A key far outside the inserted range should estimate near zero.
        let est = cms.estimate(u64::MAX - 12345);
        assert!(est < 100, "unseen estimate {est}");
    }

    #[test]
    fn total_tracks_mass() {
        let mut cms = CountMinSketch::new(16, 2, UpdateStrategy::Plain, 0);
        cms.add(1, 5);
        cms.add(2, 7);
        assert_eq!(cms.total(), 12);
    }
}
