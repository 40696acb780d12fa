//! Storage backends for occurrence and co-occurrence counts.

use crate::fxhash::FxHashMap;
use adt_patterns::PatternHash;
use adt_sketch::{CountMinSketch, UpdateStrategy};

/// Bytes per exact occurrence entry (u64 key + u32 count, padded).
pub const OCC_ENTRY_BYTES: usize = 16;
/// Bytes per exact co-occurrence entry (two u64 keys + u32 count, padded).
pub const COOC_ENTRY_BYTES: usize = 24;

/// Geometry of a count-min sketch backend.
#[derive(Debug, Clone, Copy)]
pub struct SketchSpec {
    /// Total counter-table budget in bytes.
    pub budget_bytes: usize,
    /// Number of rows (hash functions).
    pub depth: usize,
    /// Update strategy.
    pub strategy: UpdateStrategy,
    /// Seed for the hash family.
    pub seed: u64,
}

impl Default for SketchSpec {
    fn default() -> Self {
        SketchSpec {
            budget_bytes: 4 << 20,
            depth: 4,
            strategy: UpdateStrategy::Conservative,
            seed: 0xC0FFEE,
        }
    }
}

/// Co-occurrence counts: exact dictionary or count-min sketch (§3.4).
#[derive(Debug, Clone)]
pub enum CoocBackend {
    /// Exact ordered-pair dictionary.
    Exact(FxHashMap<(u64, u64), u32>),
    /// Count-min sketch over packed pair keys.
    Sketch(CountMinSketch),
}

impl CoocBackend {
    /// New exact backend.
    pub fn exact() -> Self {
        CoocBackend::Exact(FxHashMap::default())
    }

    /// Increments the count of the unordered pair `(a, b)`.
    pub fn add_pair(&mut self, a: PatternHash, b: PatternHash, count: u32) {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        match self {
            CoocBackend::Exact(map) => {
                *map.entry((lo, hi)).or_insert(0) += count;
            }
            CoocBackend::Sketch(cms) => {
                cms.add(adt_sketch::hashing::pair_key(lo, hi), count);
            }
        }
    }

    /// Reserves room for `additional` more exact entries (no-op for a
    /// sketch, whose table never grows).
    pub fn reserve(&mut self, additional: usize) {
        if let CoocBackend::Exact(map) = self {
            map.reserve(additional);
        }
    }

    /// Count estimate for the unordered pair `(a, b)`.
    ///
    /// Exact backends return the true count; sketch backends may
    /// overestimate (never underestimate).
    pub fn get(&self, a: PatternHash, b: PatternHash) -> u64 {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        match self {
            CoocBackend::Exact(map) => map.get(&(lo, hi)).copied().unwrap_or(0) as u64,
            CoocBackend::Sketch(cms) => cms.estimate(adt_sketch::hashing::pair_key(lo, hi)),
        }
    }

    /// Memory footprint in bytes (exact: per-entry accounting; sketch:
    /// counter table).
    pub fn bytes(&self) -> usize {
        match self {
            CoocBackend::Exact(map) => map.len() * COOC_ENTRY_BYTES,
            CoocBackend::Sketch(cms) => cms.table_bytes(),
        }
    }

    /// Number of distinct stored pairs (exact only; `None` for sketches).
    pub fn exact_entries(&self) -> Option<usize> {
        match self {
            CoocBackend::Exact(map) => Some(map.len()),
            CoocBackend::Sketch(_) => None,
        }
    }

    /// Converts an exact backend into a sketch of the given geometry by
    /// replaying all entries; no-op on an existing sketch.
    ///
    /// Entries are replayed in sorted key order, so the resulting sketch
    /// depends only on the map *contents* — never on hash-map iteration
    /// order. This matters for [`UpdateStrategy::Conservative`], whose
    /// updates are order-dependent: sorted replay makes sketch
    /// finalization reproducible across builds and thread counts (each
    /// key's full mass arrives as one add, which also gives conservative
    /// updates their tightest estimates).
    pub fn to_sketch(&self, spec: SketchSpec) -> CoocBackend {
        match self {
            CoocBackend::Exact(map) => {
                let mut cms = CountMinSketch::with_byte_budget(
                    spec.budget_bytes,
                    spec.depth,
                    spec.strategy,
                    spec.seed,
                );
                let mut entries: Vec<(u64, u64, u32)> =
                    map.iter().map(|(&(lo, hi), &cnt)| (lo, hi, cnt)).collect();
                entries.sort_unstable();
                for (lo, hi, cnt) in entries {
                    cms.add(adt_sketch::hashing::pair_key(lo, hi), cnt);
                }
                CoocBackend::Sketch(cms)
            }
            CoocBackend::Sketch(cms) => CoocBackend::Sketch(cms.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u64) -> PatternHash {
        PatternHash(x)
    }

    #[test]
    fn exact_pair_counts_symmetric() {
        let mut c = CoocBackend::exact();
        c.add_pair(h(5), h(9), 2);
        c.add_pair(h(9), h(5), 3);
        assert_eq!(c.get(h(5), h(9)), 5);
        assert_eq!(c.get(h(9), h(5)), 5);
        assert_eq!(c.get(h(5), h(6)), 0);
        assert_eq!(c.exact_entries(), Some(1));
    }

    #[test]
    fn sketch_pair_counts_never_undercount() {
        let mut c = CoocBackend::exact().to_sketch(SketchSpec {
            budget_bytes: 1 << 16,
            ..SketchSpec::default()
        });
        for i in 0..500u64 {
            c.add_pair(h(i), h(i + 1), 1);
        }
        for i in 0..500u64 {
            assert!(c.get(h(i), h(i + 1)) >= 1);
        }
        assert_eq!(c.exact_entries(), None);
    }

    #[test]
    fn exact_to_sketch_preserves_lower_bounds() {
        let mut exact = CoocBackend::exact();
        for i in 0..200u64 {
            exact.add_pair(h(i), h(i * 7 + 1), (i % 5 + 1) as u32);
        }
        let sk = exact.to_sketch(SketchSpec {
            budget_bytes: 1 << 18,
            ..SketchSpec::default()
        });
        for i in 0..200u64 {
            assert!(sk.get(h(i), h(i * 7 + 1)) >= exact.get(h(i), h(i * 7 + 1)));
        }
    }

    #[test]
    fn to_sketch_is_iteration_order_independent() {
        // Same entries inserted in opposite orders must produce identical
        // sketch tables (conservative updates are order-sensitive, so this
        // only holds because replay sorts).
        let spec = SketchSpec {
            budget_bytes: 1 << 10,
            ..SketchSpec::default()
        };
        let mut fwd = CoocBackend::exact();
        let mut rev = CoocBackend::exact();
        for i in 0..300u64 {
            fwd.add_pair(h(i), h(i * 3 + 1), (i % 4 + 1) as u32);
        }
        for i in (0..300u64).rev() {
            rev.add_pair(h(i), h(i * 3 + 1), (i % 4 + 1) as u32);
        }
        let (a, b) = (fwd.to_sketch(spec), rev.to_sketch(spec));
        match (a, b) {
            (CoocBackend::Sketch(sa), CoocBackend::Sketch(sb)) => {
                assert_eq!(sa.table(), sb.table());
                assert_eq!(sa.total(), sb.total());
            }
            _ => panic!("expected sketches"),
        }
    }

    #[test]
    fn bytes_accounting() {
        let mut exact = CoocBackend::exact();
        assert_eq!(exact.bytes(), 0);
        exact.add_pair(h(1), h(2), 1);
        exact.add_pair(h(1), h(3), 1);
        assert_eq!(exact.bytes(), 2 * COOC_ENTRY_BYTES);

        let sk = CoocBackend::exact().to_sketch(SketchSpec {
            budget_bytes: 1 << 12,
            depth: 4,
            strategy: UpdateStrategy::Plain,
            seed: 1,
        });
        assert!(sk.bytes() <= 1 << 12);
    }
}
