//! An arena-backed set of strings: the scan path's per-value table.
//!
//! Both per-value maps on the scan path — [`crate::PatternCache`]'s
//! value → pattern hashes and [`crate::ScanEngine::scan_csv`]'s
//! per-column value counts — key on the text of a value. A
//! `HashMap<String, _>` pays one heap allocation per new value and one
//! free per value when it is dropped or flushed. A [`ValueTable`] instead
//! appends every value to one text buffer and names it by a dense entry
//! id (`0, 1, 2, …` in insertion order), so callers keep their per-value
//! payload in flat vectors indexed by that id. A new value costs an
//! amortized append to four vectors; a flush clears them and keeps their
//! capacity.
//!
//! Lookups are exact: a key hash (FxHash of the bytes) selects the most
//! recent entry with that hash, older entries with the same hash follow
//! a collision chain, and every candidate is compared byte for byte.

use adt_stats::{FxHashMap, FxHasher};
use std::hash::Hasher;

/// Chain terminator: no older entry shares the key hash.
const NO_ENTRY: usize = usize::MAX;

/// An append-only set of distinct strings stored in one buffer, each
/// named by its insertion index.
#[derive(Debug, Default)]
pub(crate) struct ValueTable {
    /// Every entry's bytes, back to back in insertion order.
    text: String,
    /// `ends[id]` is the end offset of entry `id` in `text`; it starts
    /// where entry `id - 1` ends (entry 0 at offset 0).
    ends: Vec<usize>,
    /// Key hash → the newest entry with that hash.
    heads: FxHashMap<u64, usize>,
    /// `chain[id]` is the next older entry sharing entry `id`'s key
    /// hash, or [`NO_ENTRY`].
    chain: Vec<usize>,
    /// Test hook: hash every key to one value so every lookup walks the
    /// collision chain.
    #[cfg(test)]
    constant_key_hash: bool,
}

impl ValueTable {
    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of entry text held (the sum of every entry's length).
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }

    /// The key hash [`ValueTable::find`] and [`ValueTable::push`] expect
    /// for `value`. Callers that look up and then insert hash once.
    pub fn key_hash(&self, value: &str) -> u64 {
        #[cfg(test)]
        if self.constant_key_hash {
            return 0;
        }
        let mut h = FxHasher::default();
        h.write(value.as_bytes());
        // FxHash mixes upward: its high half depends on every byte, its
        // low bits only on the low bytes of the last word, so values that
        // differ late (`CUST-00000017`, `CUST-00000018`) share low bits.
        // `heads` picks buckets by low bits; fold the high half down.
        let h = h.finish();
        h ^ (h >> 32)
    }

    /// The entry whose text is `value`, given `key = key_hash(value)`.
    pub fn find(&self, key: u64, value: &str) -> Option<usize> {
        let mut id = self.heads.get(&key).copied().unwrap_or(NO_ENTRY);
        while id != NO_ENTRY {
            if self.get(id) == Some(value) {
                return Some(id);
            }
            id = self.chain.get(id).copied().unwrap_or(NO_ENTRY);
        }
        None
    }

    /// Appends `value` as a new entry and returns its id. `key` must be
    /// `key_hash(value)` and `value` must not be present yet (check with
    /// [`ValueTable::find`]); a duplicate would shadow the older entry.
    pub fn push(&mut self, key: u64, value: &str) -> usize {
        let id = self.ends.len();
        self.text.push_str(value);
        self.ends.push(self.text.len());
        self.chain
            .push(self.heads.insert(key, id).unwrap_or(NO_ENTRY));
        id
    }

    /// The id of `value`, appending it first when absent.
    pub fn intern(&mut self, value: &str) -> usize {
        let key = self.key_hash(value);
        match self.find(key, value) {
            Some(id) => id,
            None => self.push(key, value),
        }
    }

    /// The text of entry `id`, if present.
    pub fn get(&self, id: usize) -> Option<&str> {
        let start = match id.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => 0,
        };
        let end = *self.ends.get(id)?;
        self.text.get(start..end)
    }

    /// Every entry's text, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let value = self.text.get(start..end).unwrap_or_default();
            start = end;
            value
        })
    }

    /// Removes every entry, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.heads.clear();
        self.chain.clear();
    }

    /// Test hook: this table with every key hashed to one value.
    #[cfg(test)]
    pub(crate) fn with_constant_key_hash(mut self) -> Self {
        self.constant_key_hash = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_rng::prelude::*;

    /// Seeded values that share prefixes, span 1- to 4-byte characters,
    /// and include the empty string and 4 KiB runs.
    fn seeded_values(seed: u64, n: usize) -> Vec<String> {
        const PIECES: [&str; 9] = ["a", "ab", "\0", "é", "日本", "😀", "-", "7", "A"];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<String> = adt_patterns::multi::TRICKY_VALUES
            .iter()
            .map(|v| v.to_string())
            .collect();
        values.push("9".repeat(4096));
        values.push("ü".repeat(2048));
        for _ in 0..n {
            let v: String = (0..rng.random_range(0..=4usize))
                .map(|_| PIECES[rng.random_range(0..PIECES.len())])
                .collect();
            values.push(v);
        }
        values
    }

    /// Interns `values` into `table` and a `String` map in lockstep:
    /// ids, lengths and byte counts must agree after every step, and
    /// every entry must read back as its text.
    fn check_against_map(mut table: ValueTable, values: &[String]) {
        let mut oracle: FxHashMap<String, usize> = FxHashMap::default();
        let mut bytes = 0;
        for v in values {
            let next = oracle.len();
            let want = *oracle.entry(v.clone()).or_insert_with(|| {
                bytes += v.len();
                next
            });
            assert_eq!(table.intern(v), want, "{v:?}");
            assert_eq!(table.len(), oracle.len());
            assert_eq!(table.text_bytes(), bytes);
        }
        for (v, &id) in &oracle {
            assert_eq!(table.get(id), Some(v.as_str()));
            assert_eq!(table.find(table.key_hash(v), v), Some(id));
        }
        let mut by_id: Vec<(&String, &usize)> = oracle.iter().collect();
        by_id.sort_by_key(|&(_, &id)| id);
        assert!(table.iter().eq(by_id.iter().map(|(v, _)| v.as_str())));
        assert_eq!(table.get(oracle.len()), None);
        assert_eq!(table.find(table.key_hash("absent!"), "absent!"), None);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.text_bytes(), 0);
        assert_eq!(table.iter().count(), 0);
    }

    #[test]
    fn table_matches_a_string_map() {
        check_against_map(ValueTable::default(), &seeded_values(0x7ab1e, 2000));
    }

    #[test]
    fn colliding_keys_walk_the_chain_and_stay_exact() {
        let table = ValueTable::default().with_constant_key_hash();
        assert_eq!(table.key_hash("a"), table.key_hash("b"));
        check_against_map(table, &seeded_values(0xc0111de, 300));
    }

    #[test]
    fn key_hash_low_bits_spread_over_values_that_differ_late() {
        let table = ValueTable::default();
        let low: std::collections::BTreeSet<u64> = (0..4096)
            .map(|i| table.key_hash(&format!("CUST-{i:08}")) & 0xffff)
            .collect();
        assert!(low.len() > 3500, "{} distinct low halves", low.len());
    }

    #[test]
    fn empty_string_is_an_entry() {
        let mut table = ValueTable::default();
        assert_eq!(table.intern(""), 0);
        assert_eq!(table.intern("x"), 1);
        assert_eq!(table.intern(""), 0);
        assert_eq!(table.get(0), Some(""));
        assert_eq!(table.len(), 2);
    }
}
