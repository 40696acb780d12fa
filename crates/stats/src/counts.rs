//! The per-language accumulator the training pipeline counts into.
//!
//! Training counts all 144 candidate languages over the whole corpus,
//! but keeps the statistics of only the few it selects. [`LanguageCounts`]
//! is built for that: while it counts, it gives each pattern hash a
//! dense `u32` id (in first-counted order) and keeps `c(p)` in a `Vec`
//! indexed by id, and it counts each column pair under the packed key
//! `(lo_id << 32) | hi_id` in an `FxHashMap<u64, u32>` — an 8-byte key
//! instead of the two 8-byte pattern hashes [`LanguageStats`] keys its
//! pairs by. It answers [`LanguageCounts::occurrence`],
//! [`LanguageCounts::cooccurrence`], [`LanguageCounts::npmi_patterns`]
//! and [`LanguageCounts::size_bytes`] exactly as the statistics it
//! freezes into would, and [`LanguageCounts::npmi_ids`] scores by id
//! for callers that score many pairs of one language.
//!
//! [`LanguageCounts::freeze`] turns it into the hash-keyed
//! [`LanguageStats`] that models ship: only where statistics are kept
//! (model assembly, [`LanguageStats::build`],
//! [`crate::collect_stats_for_languages`]). The shipped type keeps its
//! hash keys because scans look patterns up by hash, and a model whose
//! pairs were keyed by dense ids would pay an id lookup per pair on load.

use crate::fxhash::FxHashMap;
use crate::language_stats::{LanguageStats, StatsConfig};
use crate::npmi::{npmi_from_counts, NpmiParams};
use crate::store::{CoocBackend, COOC_ENTRY_BYTES, OCC_ENTRY_BYTES};
use adt_corpus::Corpus;
use adt_patterns::{Language, Pattern, PatternHash};

/// Occurrence and co-occurrence counts of one language over one corpus,
/// keyed by dense per-language pattern ids while they are counted.
#[derive(Debug, Clone)]
pub struct LanguageCounts {
    /// The language the counts are taken under.
    pub language: Language,
    /// Number of corpus columns counted (`|C|` in Equations 1–2).
    pub n_columns: u64,
    /// Pattern hash → dense id.
    ids: FxHashMap<u64, u32>,
    /// Dense id → pattern hash.
    patterns: Vec<u64>,
    /// Dense id → `c(p)`; at least 1 for every id.
    occ: Vec<u32>,
    /// [`pair_key`] of two ids → `c(p1, p2)`.
    pairs: FxHashMap<u64, u32>,
    /// The ids of the column being counted (reused across columns).
    column: Vec<u32>,
}

/// The packed key of the unordered id pair `{a, b}`: the smaller id in
/// the high half, the larger in the low half.
#[inline]
fn pair_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    // adt-allow(unchecked-arithmetic): a u32 id shifted into the high half of a u64 loses no bits
    (u64::from(lo) << 32) | u64::from(hi)
}

impl LanguageCounts {
    /// Empty counts for `language`.
    pub fn new(language: Language) -> Self {
        LanguageCounts {
            language,
            n_columns: 0,
            ids: FxHashMap::default(),
            patterns: Vec::new(),
            occ: Vec::new(),
            pairs: FxHashMap::default(),
            column: Vec::new(),
        }
    }

    /// Scans `corpus` serially and counts it under `language`: the
    /// per-language reference the training pipeline (`crate::pipeline`)
    /// reproduces bit for bit at any thread count.
    pub fn build(language: Language, corpus: &Corpus, config: &StatsConfig) -> Self {
        let mut counts = LanguageCounts::new(language);
        // Memoize value -> pattern hash for this language; corpora repeat
        // values heavily (years, placeholders, common words).
        let mut memo: FxHashMap<&str, PatternHash> = FxHashMap::default();
        let mut hashes: Vec<PatternHash> = Vec::new();
        for col in corpus.columns() {
            hashes.clear();
            for v in col.distinct_values() {
                if v.is_empty() {
                    continue;
                }
                let h = *memo
                    .entry(v)
                    .or_insert_with(|| Pattern::hash_value(v, &language));
                hashes.push(h);
            }
            let kept = prepare_column_hashes(&mut hashes, config);
            counts.count_column(hashes.get(..kept).unwrap_or_default());
        }
        counts
    }

    /// Makes room for `pairs` more pair entries up front, so the pair
    /// table never rehashes while it is counted. Capacity changes no
    /// count.
    pub(crate) fn reserve_pairs(&mut self, pairs: usize) {
        self.pairs.reserve(pairs);
    }

    /// Counts one prepared column (the output of
    /// [`prepare_column_hashes`]: sorted, distinct pattern hashes): the
    /// column, each pattern's occurrence and each pattern pair's
    /// co-occurrence.
    pub(crate) fn count_column(&mut self, prepared: &[PatternHash]) {
        self.n_columns += 1;
        let mut column = std::mem::take(&mut self.column);
        column.clear();
        column.extend(prepared.iter().map(|&h| self.count_pattern(h)));
        let mut rest = column.as_slice();
        while let Some((&a, tail)) = rest.split_first() {
            for &b in tail {
                *self.pairs.entry(pair_key(a, b)).or_insert(0) += 1;
            }
            rest = tail;
        }
        self.column = column;
    }

    /// Counts one occurrence of `h`, giving it the next id on first
    /// sight, and returns its id.
    fn count_pattern(&mut self, h: PatternHash) -> u32 {
        // adt-allow(unchecked-arithmetic): distinct patterns never outnumber the corpus's distinct values, whose ids are u32 too
        let next = self.patterns.len() as u32;
        let id = *self.ids.entry(h.0).or_insert(next);
        if id == next {
            self.patterns.push(h.0);
            self.occ.push(0);
        }
        if let Some(c) = self.occ.get_mut(id as usize) {
            *c += 1;
        }
        id
    }

    /// The dense id of pattern `p`, if any counted column holds it.
    #[inline]
    pub fn pattern_id(&self, p: PatternHash) -> Option<u32> {
        self.ids.get(&p.0).copied()
    }

    /// `c(p)` of the pattern with id `id`; 0 for an id past
    /// [`LanguageCounts::distinct_patterns`].
    #[inline]
    fn occurrence_of_id(&self, id: u32) -> u64 {
        self.occ.get(id as usize).map_or(0, |&c| u64::from(c))
    }

    /// `c(p)` for a pattern hash.
    pub fn occurrence(&self, p: PatternHash) -> u64 {
        self.pattern_id(p).map_or(0, |id| self.occurrence_of_id(id))
    }

    /// `c(p1, p2)` for a pattern pair; `c(p)` on the diagonal, as
    /// [`LanguageStats::cooccurrence`].
    pub fn cooccurrence(&self, p1: PatternHash, p2: PatternHash) -> u64 {
        if p1 == p2 {
            return self.occurrence(p1);
        }
        match (self.pattern_id(p1), self.pattern_id(p2)) {
            (Some(a), Some(b)) => self.pair_count(a, b),
            _ => 0,
        }
    }

    #[inline]
    fn pair_count(&self, a: u32, b: u32) -> u64 {
        self.pairs.get(&pair_key(a, b)).map_or(0, |&c| u64::from(c))
    }

    /// NPMI of two pattern hashes, equal bit for bit to
    /// [`LanguageStats::npmi_patterns`] of the frozen statistics.
    pub fn npmi_patterns(&self, p1: PatternHash, p2: PatternHash, params: NpmiParams) -> f64 {
        if p1 == p2 {
            return 1.0;
        }
        match (self.pattern_id(p1), self.pattern_id(p2)) {
            (Some(a), Some(b)) => self.npmi_ids(a, b, params),
            (a, b) => npmi_from_counts(
                a.map_or(0, |id| self.occurrence_of_id(id)),
                b.map_or(0, |id| self.occurrence_of_id(id)),
                0,
                self.n_columns,
                params,
            ),
        }
    }

    /// NPMI of the patterns with ids `a` and `b`. An id at or past
    /// [`LanguageCounts::distinct_patterns`] stands for a pattern no
    /// counted column holds, so callers can give patterns the corpus
    /// lacks ids of their own: equal ids score 1, distinct ones as
    /// [`LanguageCounts::npmi_patterns`] scores their patterns.
    pub fn npmi_ids(&self, a: u32, b: u32, params: NpmiParams) -> f64 {
        if a == b {
            return 1.0;
        }
        npmi_from_counts(
            self.occurrence_of_id(a),
            self.occurrence_of_id(b),
            self.pair_count(a, b),
            self.n_columns,
            params,
        )
    }

    /// Number of distinct patterns counted; ids run from 0 to this.
    pub fn distinct_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Bytes the frozen statistics' exact pair table is accounted at.
    pub fn cooc_bytes(&self) -> usize {
        self.pairs.len() * COOC_ENTRY_BYTES
    }

    /// `size(L)` of the frozen statistics: the same per-entry accounting
    /// as [`LanguageStats::size_bytes`], so selection sees the same
    /// sizes.
    pub fn size_bytes(&self) -> usize {
        self.patterns.len() * OCC_ENTRY_BYTES + self.cooc_bytes()
    }

    /// Freezes the counts into the hash-keyed statistics models ship,
    /// with an exact pair table.
    pub fn freeze(self) -> LanguageStats {
        let mut occ: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(self.patterns.len(), Default::default());
        occ.extend(self.patterns.iter().copied().zip(self.occ.iter().copied()));
        let hash = |id: u64| self.patterns.get(id as usize).copied().unwrap_or_default();
        let mut cooc: FxHashMap<(u64, u64), u32> =
            FxHashMap::with_capacity_and_hasher(self.pairs.len(), Default::default());
        cooc.extend(self.pairs.iter().map(|(&key, &count)| {
            let (a, b) = (hash(key >> 32), hash(key & u64::from(u32::MAX)));
            (if a <= b { (a, b) } else { (b, a) }, count)
        }));
        LanguageStats::from_parts(self.language, self.n_columns, occ, CoocBackend::Exact(cooc))
    }
}

/// Prepares one column's pattern hashes in place for counting: sorts
/// and dedups them, then keeps a deterministic strided subsample when
/// more than `config.max_distinct_per_column` distinct patterns remain
/// (a cap of 0 keeps none). Returns the prepared length; the prepared
/// hashes are `hashes[..len]`, sorted and distinct.
pub(crate) fn prepare_column_hashes(hashes: &mut [PatternHash], config: &StatsConfig) -> usize {
    hashes.sort_unstable();
    // Dedup the sorted slice in place.
    let mut distinct = 0usize;
    let mut last = None;
    for i in 0..hashes.len() {
        let h = hashes[i];
        if last != Some(h) {
            hashes[distinct] = h;
            distinct += 1;
            last = Some(h);
        }
    }
    // Deterministic subsample when a column has too many distinct
    // patterns: keep a strided selection (compacted in place).
    let cap = config.max_distinct_per_column;
    if distinct <= cap {
        return distinct;
    }
    if cap == 0 {
        return 0;
    }
    let stride = (distinct / cap).saturating_add(1);
    let mut kept = 0usize;
    let mut next = 0usize;
    while next < distinct {
        hashes[kept] = hashes[next];
        kept += 1;
        next += stride;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{collect_stats_reference, extra_columns, generated_corpus};
    use crate::pipeline::{PipelineOptions, TrainPipeline};
    use adt_patterns::enumerate_coarse_languages;
    use adt_rng::Rng;

    /// Values no generated column holds, the empty value among them.
    const UNSEEN: [&str; 4] = ["", "~~unseen~~ 0x7F", "Ωmega-∞", "12:34:56.789 PM"];

    fn params() -> NpmiParams {
        NpmiParams::default()
    }

    adt_rng::properties! {
        cases = 24;

        /// The pipeline's counts answer every query as the statistics they
        /// freeze into and as the serial language-major reference do,
        /// under every coarse-space language: for every pair of the
        /// corpus's patterns (the prepared ones and those the strided
        /// subsample dropped) and of patterns no column holds.
        fn counts_answer_as_frozen_and_reference(
            g;
            seed in g.random::<u64>(),
            web_columns in g.random_range(0usize..24),
            extra in extra_columns(g),
            cap in g.random_range(2usize..16),
            threads in g.random_range(1usize..3),
        ) {
            let corpus = generated_corpus(seed, web_columns, &extra);
            let config = StatsConfig {
                max_distinct_per_column: cap,
            };
            let languages = enumerate_coarse_languages();
            let reference = collect_stats_reference(&languages, &corpus, &config);
            let opts = PipelineOptions {
                threads,
                ..PipelineOptions::default()
            };
            let mut pipe = TrainPipeline::new(&corpus, &[], &opts).unwrap();
            let counted = pipe.run(&languages, &config, |_, c, _| c).unwrap();
            let values: Vec<&str> = corpus
                .columns()
                .iter()
                .flat_map(|c| c.values.iter().map(String::as_str))
                .chain(UNSEEN)
                .collect();
            for ((lang, counts), reference) in languages.iter().zip(counted).zip(&reference) {
                let frozen = counts.clone().freeze();
                let id = lang.id();
                let mut patterns: Vec<PatternHash> =
                    values.iter().map(|v| frozen.pattern_of(v)).collect();
                patterns.sort_unstable();
                patterns.dedup();
                for s in [&frozen, reference] {
                    assert_eq!(counts.n_columns, s.n_columns, "{id}");
                    assert_eq!(counts.size_bytes(), s.size_bytes(), "{id}");
                    assert_eq!(counts.cooc_bytes(), s.cooc_bytes(), "{id}");
                    assert_eq!(counts.distinct_patterns(), s.distinct_patterns(), "{id}");
                    assert_eq!(Some(counts.pairs.len()), s.exact_cooc_entries(), "{id}");
                }
                for &p in &patterns {
                    let occ = counts.occurrence(p);
                    assert_eq!(occ, frozen.occurrence(p), "{id} c({p:?})");
                    assert_eq!(occ, reference.occurrence(p), "{id} c({p:?})");
                    assert_eq!(counts.pattern_id(p).is_some(), occ > 0, "{id} {p:?}");
                    for &q in &patterns {
                        let cooc = counts.cooccurrence(p, q);
                        assert_eq!(cooc, frozen.cooccurrence(p, q), "{id} c({p:?}, {q:?})");
                        assert_eq!(cooc, reference.cooccurrence(p, q), "{id} c({p:?}, {q:?})");
                        let npmi = counts.npmi_patterns(p, q, params()).to_bits();
                        assert_eq!(npmi, frozen.npmi_patterns(p, q, params()).to_bits(), "{id}");
                        assert_eq!(npmi, reference.npmi_patterns(p, q, params()).to_bits(), "{id}");
                    }
                }
            }
        }
    }

    /// `npmi_ids` scores a pair of ids as `npmi_patterns` scores their
    /// patterns, ids past the counted ones standing for unseen patterns.
    #[test]
    fn npmi_ids_match_npmi_patterns() {
        let corpus = generated_corpus(7, 40, &[]);
        let lang = Language::paper_l2();
        let counts = LanguageCounts::build(lang, &corpus, &StatsConfig::default());
        let n = counts.distinct_patterns() as u32;
        assert!(n > 3, "{n} patterns");
        let hash_of = |id: u32| {
            counts
                .patterns
                .get(id as usize)
                .map_or(PatternHash(u64::from(id)), |&h| PatternHash(h))
        };
        for a in 0..n + 2 {
            for b in 0..n + 2 {
                assert_eq!(
                    counts.npmi_ids(a, b, params()).to_bits(),
                    counts
                        .npmi_patterns(hash_of(a), hash_of(b), params())
                        .to_bits(),
                    "ids ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn packed_pair_keys_are_unordered_and_distinct() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(9, 9));
        assert_ne!(pair_key(0, u32::MAX), pair_key(u32::MAX, u32::MAX));
        assert_eq!(pair_key(1, 2), (1 << 32) | 2);
    }

    #[test]
    fn a_zero_cap_counts_columns_but_no_patterns() {
        let corpus = generated_corpus(3, 10, &[]);
        let config = StatsConfig {
            max_distinct_per_column: 0,
        };
        let counts = LanguageCounts::build(Language::leaf(), &corpus, &config);
        assert_eq!(counts.n_columns, corpus.len() as u64);
        assert_eq!(counts.distinct_patterns(), 0);
        assert!(counts.pairs.is_empty());
    }

    #[test]
    fn freezing_keeps_the_language_and_counts() {
        let corpus = generated_corpus(11, 30, &[]);
        let counts = LanguageCounts::build(Language::paper_l1(), &corpus, &StatsConfig::default());
        let (n, bytes) = (counts.n_columns, counts.size_bytes());
        let frozen = counts.freeze();
        assert_eq!(frozen.language, Language::paper_l1());
        assert_eq!((frozen.n_columns, frozen.size_bytes()), (n, bytes));
    }
}
