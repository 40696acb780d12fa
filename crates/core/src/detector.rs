//! The end-user detection API.
//!
//! A trained [`AutoDetect`] holds the selected generalization languages
//! with their corpus statistics and calibrations. Detection over a column
//! scores all distinct-value pairs; a pair is predicted incompatible when
//! any language fires (`s_k ≤ θ_k`, ST aggregation), ranked by the
//! max-confidence estimate `Q = max_k P_k(s_k)` (Appendix B).
//!
//! # The scan kernel
//!
//! NPMI is a function of *patterns*, not values: every value pair whose
//! members generalize identically under a language scores identically.
//! Real columns are duplicate-heavy at the pattern level (a thousand
//! distinct integers are a handful of digit-run patterns), so the scan
//! collapses the `d` distinct values of a column to `d′ ≤ d` distinct
//! pattern groups per language, computes one `d′×d′` NPMI matrix over
//! groups, and evaluates all pair decisions group-wise:
//! `O(K·d′²)` count probes plus `O(K·d·d′)` arithmetic instead of the
//! naive `O(K·d²)` probes. Every column goes through this one kernel.
//! Findings are byte-identical to the naive value-pair scan (kept as the
//! differential-test reference under `cfg(test)` / the `reference-kernel`
//! feature): matrix entries are bit-equal (`npmi_patterns(p, p)` is
//! exactly `1.0`, matching the group diagonal), flag degrees are exact
//! integer sums, and every tie-break the naive path takes is replayed
//! per-pair on the shapes where it can trigger.
//!
//! # The memo switch
//!
//! The per-worker [`PatternCache`] memoizes pattern-pair scores across
//! columns. That pays on duplicate-heavy columns; on dense ones
//! (`min_k d′_k / d ≥ 3/4`) the memo's lookups and inserts cost more than
//! its hits save (measured in DESIGN.md §13). The distinct-ratio cut
//! therefore decides one thing only: whether a column's matrices are
//! built through the memo. [`KernelChoices`] counts the columns on each
//! side.

use crate::aggregate::Aggregator;
use crate::calibrate::Calibration;
use crate::values::ValueTable;
use adt_corpus::Column;
use adt_patterns::{Language, MultiHasher, PatternHash};
use adt_stats::memo::DEFAULT_MEMO_CAPACITY;
use adt_stats::{FxHashMap, FxHasher, LanguageStats, NpmiMatrix, NpmiMemo, NpmiParams};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One selected language with its statistics and calibration.
#[derive(Debug, Clone)]
pub struct SelectedLanguage {
    /// Corpus statistics under this language.
    pub stats: LanguageStats,
    /// Calibrated threshold and precision curve.
    pub calibration: Calibration,
}

/// A trained Auto-Detect model.
#[derive(Debug, Clone)]
pub struct AutoDetect {
    /// The selected ensemble, in greedy pick order.
    pub languages: Vec<SelectedLanguage>,
    /// NPMI parameters used at both training and detection time.
    pub npmi: NpmiParams,
    /// The precision target the ensemble was calibrated for.
    pub precision_target: f64,
    /// Cap on distinct values per column considered during detection.
    pub max_distinct_values: usize,
}

/// Verdict on a single value pair.
#[derive(Debug, Clone)]
pub struct PairVerdict {
    /// True when at least one language fires (ST union).
    pub incompatible: bool,
    /// Max-confidence rank score `Q = max_k P_k(s_k)`.
    pub confidence: f64,
    /// Per-language NPMI scores `s_k(u, v)`.
    pub scores: Vec<f64>,
    /// Index of the most confident language.
    pub best_language: usize,
}

/// One ranked finding within a column.
#[derive(Debug, Clone)]
pub struct ColumnFinding {
    /// The value predicted to be an error.
    pub suspect: String,
    /// The in-column value it is most incompatible with.
    pub witness: String,
    /// Confidence `Q` of the witnessing pair.
    pub confidence: f64,
    /// The most negative firing NPMI score of the witnessing pair.
    pub score: f64,
}

/// Default cap on memoized values per [`PatternCache`]. A cache entry is
/// the value's text plus one hash per language; the text is bounded
/// separately by [`VALUE_BYTES_CAPACITY`].
pub const DEFAULT_VALUE_CAPACITY: usize = 65_536;

/// Cap on the value text one [`PatternCache`] holds: 16 MiB. A miss that
/// would take the cache past it flushes the cache first, and a value
/// longer than it is hashed but never cached. With [`DEFAULT_VALUE_CAPACITY`]
/// values of one hash per language, a cache stays in the tens of
/// megabytes whatever its traffic's value lengths.
pub const VALUE_BYTES_CAPACITY: usize = 16_777_216;

/// Per-worker scan memory: value → pattern hashes, plus one bounded
/// NPMI pair-score memo per selected language.
///
/// Generalizing a value is the per-value hot path of a scan (run-length
/// tokenization under every language). Values repeat heavily across the
/// columns of real tables, so workers keep one cache alive across the
/// columns they scan: each distinct value is generalized exactly once
/// under *all* languages by a [`MultiHasher`] (the kernel training
/// uses, built when the cache binds to a model), then shared for the
/// rest of the worker's life.
/// The per-language memos let the group kernel skip recomputing NPMI for
/// pattern pairs it has already scored in earlier columns.
///
/// Values live in one arena-backed value table (one text buffer, dense
/// entry ids) and their hashes in flat rows of one hash per language
/// indexed by entry id, so a miss allocates nothing per value and a flush clears
/// five buffers, keeping their capacity.
///
/// Both layers are bounded: at capacity (a value count, and
/// [`VALUE_BYTES_CAPACITY`] of value text) they flush wholesale
/// (deterministic generational eviction), so unbounded distinct traffic
/// — a long-lived serve worker fed adversarial columns — costs
/// recomputation, never memory. Cached hashes and memoized scores are
/// meaningful only for the model that produced them, so the cache stamps
/// itself with the model's [`AutoDetect::fingerprint`] on first use and
/// silently resets (counted in [`PatternCache::rebinds`]) when handed a
/// different model.
#[derive(Debug)]
pub struct PatternCache {
    values: ValueTable,
    /// Entry `id`'s hash under language `k` at `hashes[id * width + k]`.
    hashes: Vec<PatternHash>,
    /// Languages of the bound model: the width of a `hashes` row.
    width: usize,
    hasher: MultiHasher,
    memos: Vec<NpmiMemo>,
    fingerprint: Option<u64>,
    value_capacity: usize,
    memo_capacity: usize,
    value_flushes: u64,
    rebinds: u64,
}

impl Default for PatternCache {
    fn default() -> Self {
        PatternCache::with_capacity(DEFAULT_VALUE_CAPACITY, DEFAULT_MEMO_CAPACITY)
    }
}

impl PatternCache {
    /// An empty cache with default capacities.
    pub fn new() -> Self {
        PatternCache::default()
    }

    /// An empty cache holding at most `value_capacity` generalized values
    /// and `memo_capacity` pair scores per language (each min 1).
    pub fn with_capacity(value_capacity: usize, memo_capacity: usize) -> Self {
        PatternCache {
            values: ValueTable::default(),
            hashes: Vec::new(),
            width: 0,
            hasher: MultiHasher::new(&[]),
            memos: Vec::new(),
            fingerprint: None,
            value_capacity: value_capacity.max(1),
            memo_capacity: memo_capacity.max(1),
            value_flushes: 0,
            rebinds: 0,
        }
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes of memoized value text, at most [`VALUE_BYTES_CAPACITY`].
    pub fn bytes(&self) -> usize {
        self.values.text_bytes()
    }

    /// The cap on memoized values.
    pub fn value_capacity(&self) -> usize {
        self.value_capacity
    }

    /// Wholesale value-map evictions performed to stay under the cap.
    pub fn value_flushes(&self) -> u64 {
        self.value_flushes
    }

    /// Times the cache was handed a model other than the one it was
    /// stamped with (each reset the whole cache).
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    /// Fingerprint of the model this cache is bound to, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Total memoized NPMI pair scores across languages.
    pub fn memo_len(&self) -> usize {
        self.memos.iter().map(|m| m.len()).sum()
    }

    /// Lifetime NPMI memo hits across languages.
    pub fn memo_hits(&self) -> u64 {
        self.memos.iter().map(|m| m.hits()).sum()
    }

    /// Lifetime NPMI memo misses (fresh probes) across languages.
    pub fn memo_misses(&self) -> u64 {
        self.memos.iter().map(|m| m.misses()).sum()
    }

    /// Stamps the cache with `model`, resetting it first when it was
    /// bound to a different model (hashes and scores don't transfer), and
    /// builds the hasher for the model's languages.
    pub(crate) fn bind(&mut self, model: &AutoDetect) {
        let fp = model.fingerprint();
        if self.fingerprint != Some(fp) {
            if self.fingerprint.is_some() {
                self.rebinds += 1;
                self.clear_values();
            }
            let languages: Vec<Language> =
                model.languages.iter().map(|l| l.stats.language).collect();
            self.width = languages.len();
            self.hasher = MultiHasher::new(&languages);
            self.memos = (0..model.languages.len())
                .map(|_| NpmiMemo::with_capacity(self.memo_capacity))
                .collect();
            self.fingerprint = Some(fp);
        }
    }

    fn memo_mut(&mut self, k: usize) -> &mut NpmiMemo {
        &mut self.memos[k]
    }

    /// Drops every memoized value and its hashes.
    fn clear_values(&mut self) {
        self.values.clear();
        self.hashes.clear();
    }

    /// The hashes memoized for entry `id`, one per language.
    fn row(&self, id: usize) -> Option<&[PatternHash]> {
        let start = id.checked_mul(self.width)?;
        self.hashes.get(start..start.checked_add(self.width)?)
    }

    /// Appends `value`'s hash under every language of the bound model to
    /// the per-language columns of `out`, generalizing on first sight.
    fn append_hashes(&mut self, value: &str, out: &mut [Vec<PatternHash>]) {
        let key = self.values.key_hash(value);
        if let Some(hs) = self.values.find(key, value).and_then(|id| self.row(id)) {
            for (col, &h) in out.iter_mut().zip(hs) {
                col.push(h);
            }
            return;
        }
        let cacheable = value.len() <= VALUE_BYTES_CAPACITY;
        if cacheable
            && (self.values.len() >= self.value_capacity
                || self.values.text_bytes().saturating_add(value.len()) > VALUE_BYTES_CAPACITY)
        {
            self.clear_values();
            self.value_flushes += 1;
        }
        let hs = self.hasher.hash_value(value);
        for (col, &h) in out.iter_mut().zip(hs) {
            col.push(h);
        }
        if cacheable {
            self.values.push(key, value);
            self.hashes.extend_from_slice(hs);
        }
    }
}

/// Counters and per-stage timings accumulated by a column scan.
///
/// Merged across columns (and worker threads) into the totals a
/// [`crate::engine::ScanReport`] exposes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanStats {
    /// Distinct values actually scored (after the distinct-value cap).
    pub values_scored: u64,
    /// Value pairs scored under the ensemble.
    pub pairs_scored: u64,
    /// Scored pairs flagged incompatible by the aggregator.
    pub pairs_flagged: u64,
    /// Pairs skipped by the distinct-value cap (rare tail values beyond
    /// `max_distinct_values` never enter the d×d matrices).
    pub pairs_pruned: u64,
    /// Pattern pairs resolved without the memo (each probes the counts;
    /// pairs of rare, never co-occurring patterns share one NPMI
    /// evaluation per matrix). The group kernel needs at most `K·C(d′,2)`
    /// of these per column versus the naive `K·C(d,2)`; the memo reduces
    /// it further.
    pub npmi_probes: u64,
    /// NPMI scores answered from the per-worker pair-score memo.
    pub npmi_memo_hits: u64,
    /// Distinct pattern groups per language, summed over scanned columns
    /// (index = position in [`AutoDetect::languages`]). Together with
    /// `values_scored` this exposes the d′/d collapse ratio.
    pub groups_per_language: Vec<u64>,
    /// Surviving findings attributed to each language (index = position
    /// in [`AutoDetect::languages`]).
    pub findings_per_language: Vec<u64>,
    /// Nanoseconds spent getting each distinct value's pattern hashes:
    /// the per-language vectors' allocation, every `PatternCache`
    /// lookup and insert, and the hashing kernel on cache misses.
    pub hash_nanos: u64,
    /// Nanoseconds spent scoring pairs and attributing suspects.
    pub score_nanos: u64,
    /// Which side of the memo switch each column took (see
    /// [`KernelChoices`]).
    pub kernel_choices: KernelChoices,
}

/// Per-column memo-switch decisions (see the module docs). Every column
/// runs the same scan kernel; the `min_k d′_k / d ≥ 3/4` distinct-ratio
/// cut only decides whether its NPMI matrices go through the per-worker
/// memo. Columns with fewer than two distinct values never reach the
/// kernel and are counted by neither field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelChoices {
    /// Duplicate-heavy columns (some language collapses them below the
    /// cut), scored through the NPMI memo.
    pub group: u64,
    /// Dense columns (every language keeps at least ¾ of the values as
    /// distinct patterns), scored memo-free.
    pub direct: u64,
}

impl ScanStats {
    /// A zeroed stats block sized for `num_languages`.
    pub fn for_languages(num_languages: usize) -> Self {
        ScanStats {
            groups_per_language: vec![0; num_languages],
            findings_per_language: vec![0; num_languages],
            ..ScanStats::default()
        }
    }

    /// Accumulates `other` into `self` (element-wise sums).
    pub fn merge(&mut self, other: &ScanStats) {
        self.values_scored += other.values_scored;
        self.pairs_scored += other.pairs_scored;
        self.pairs_flagged += other.pairs_flagged;
        self.pairs_pruned += other.pairs_pruned;
        self.npmi_probes += other.npmi_probes;
        self.npmi_memo_hits += other.npmi_memo_hits;
        if self.groups_per_language.len() < other.groups_per_language.len() {
            self.groups_per_language
                .resize(other.groups_per_language.len(), 0);
        }
        for (a, b) in self
            .groups_per_language
            .iter_mut()
            .zip(&other.groups_per_language)
        {
            *a += b;
        }
        if self.findings_per_language.len() < other.findings_per_language.len() {
            self.findings_per_language
                .resize(other.findings_per_language.len(), 0);
        }
        for (a, b) in self
            .findings_per_language
            .iter_mut()
            .zip(&other.findings_per_language)
        {
            *a += b;
        }
        self.hash_nanos += other.hash_nanos;
        self.score_nanos += other.score_nanos;
        self.kernel_choices.group += other.kernel_choices.group;
        self.kernel_choices.direct += other.kernel_choices.direct;
    }
}

/// The memo switch as a ratio: a column's NPMI matrices are built
/// without the per-worker memo when `min_k d′_k / d ≥ NUM/DEN`, i.e. when
/// even the coarsest language keeps at least ¾ of the column's values as
/// distinct patterns. On such columns memo lookups and inserts cost more
/// than the hits save (DESIGN.md §13 has the perfbench numbers).
const MEMO_FREE_NUM: usize = 3;
const MEMO_FREE_DEN: usize = 4;

/// A flagged pair of joint pattern groups with its pair-level verdict
/// (identical for every member value pair).
struct FlaggedClassPair {
    a: usize,
    b: usize,
    confidence: f64,
    k: usize,
    score: f64,
}

/// Attribution candidate kept per suspect while replaying the naive
/// best-finding semantics: max confidence wins, confidence ties go to
/// the earliest-enumerated value pair (`enum_key = u·d + v`, `u < v`).
struct BestFinding {
    confidence: f64,
    enum_key: u64,
    witness: usize,
    k: usize,
    score: f64,
}

/// [`Calibration::precision_at`] evaluated once per distinct score. On a
/// dense column nearly every pair of a language shares one score (the
/// unseen-pair constant of [`LanguageStats::npmi_matrix`]), so pass 1
/// would otherwise repeat one curve search per flagged pair.
struct PrecisionMemo<'a> {
    calibration: &'a Calibration,
    by_score: FxHashMap<u64, f64>,
}

impl<'a> PrecisionMemo<'a> {
    fn new(calibration: &'a Calibration) -> Self {
        PrecisionMemo {
            calibration,
            by_score: FxHashMap::default(),
        }
    }

    fn at(&mut self, s: f64) -> f64 {
        let calibration = self.calibration;
        *self
            .by_score
            .entry(s.to_bits())
            .or_insert_with(|| calibration.precision_at(s))
    }
}

/// A `K·d` memo of one figure per (language, value) for pass 2's
/// tie-breaks, allocated on first use, so a column without degree ties
/// allocates nothing for it.
struct LanguageValueMemo<T> {
    values: usize,
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T: Copy> LanguageValueMemo<T> {
    fn new(languages: usize, values: usize) -> Self {
        LanguageValueMemo {
            values,
            slots: Vec::new(),
            len: languages.saturating_mul(values),
        }
    }

    /// The figure for value `i` under language `k`, computed by `f` on
    /// the first request (and on every request outside the `K·d` table).
    fn get_or_insert_with(&mut self, k: usize, i: usize, f: impl FnOnce() -> T) -> T {
        if self.slots.is_empty() {
            self.slots.resize(self.len, None);
        }
        let slot = k
            .checked_mul(self.values)
            .and_then(|row| row.checked_add(i))
            .and_then(|at| self.slots.get_mut(at));
        match slot {
            Some(Some(v)) => *v,
            Some(slot) => *slot.insert(f()),
            None => f(),
        }
    }
}

impl AutoDetect {
    /// Number of selected languages.
    pub fn num_languages(&self) -> usize {
        self.languages.len()
    }

    /// Total memory footprint of the ensemble in bytes.
    pub fn size_bytes(&self) -> usize {
        self.languages.iter().map(|l| l.stats.size_bytes()).sum()
    }

    /// Calibrations of the selected languages, in order.
    pub fn calibrations(&self) -> Vec<&Calibration> {
        self.languages.iter().map(|l| &l.calibration).collect()
    }

    /// A cheap structural fingerprint of the model, used to stamp
    /// [`PatternCache`]s: two models that fingerprint differently must
    /// not share cached hashes or memoized scores.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.languages.len().hash(&mut h);
        for l in &self.languages {
            l.stats.language.hash(&mut h);
            l.stats.n_columns.hash(&mut h);
            (l.stats.distinct_patterns() as u64).hash(&mut h);
            l.calibration
                .theta
                .unwrap_or(f64::NAN)
                .to_bits()
                .hash(&mut h);
            l.calibration.precision_at_theta.to_bits().hash(&mut h);
            l.calibration.curve.len().hash(&mut h);
            for &(s, p) in &l.calibration.curve {
                s.to_bits().hash(&mut h);
                p.to_bits().hash(&mut h);
            }
        }
        self.npmi.smoothing.to_bits().hash(&mut h);
        self.precision_target.to_bits().hash(&mut h);
        self.max_distinct_values.hash(&mut h);
        h.finish()
    }

    /// Scores one value pair under every selected language.
    pub fn score_pair(&self, u: &str, v: &str) -> PairVerdict {
        let scores: Vec<f64> = self
            .languages
            .iter()
            .map(|l| l.stats.score_values(u, v, self.npmi))
            .collect();
        self.verdict_from_scores(scores)
    }

    fn verdict_from_scores(&self, scores: Vec<f64>) -> PairVerdict {
        let mut incompatible = false;
        let mut confidence = 0.0;
        let mut best_language = 0;
        for (k, (&s, lang)) in scores.iter().zip(&self.languages).enumerate() {
            if lang.calibration.fires(s) {
                incompatible = true;
            }
            let p = lang.calibration.precision_at(s);
            if p > confidence {
                confidence = p;
                best_language = k;
            }
        }
        PairVerdict {
            incompatible,
            confidence,
            scores,
            best_language,
        }
    }

    /// Distinct values of a column, most frequent first, capped. Returns
    /// the capped list plus the uncapped distinct count.
    ///
    /// Counts by sorting rather than hashing: the sorted values fall into
    /// runs of equal strings, already in ascending order, and a *stable*
    /// sort on count descending keeps that order among equal counts — the
    /// lexicographic tie-break that makes the list deterministic.
    fn distinct_capped<'a>(&self, column: &'a Column) -> (Vec<(&'a str, usize)>, usize) {
        let mut values: Vec<&str> = column.non_empty_values().collect();
        values.sort_unstable();
        let mut out: Vec<(&str, usize)> = Vec::new();
        for v in values {
            match out.last_mut() {
                Some((last, n)) if *last == v => *n += 1,
                _ => out.push((v, 1)),
            }
        }
        let total = out.len();
        out.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        out.truncate(self.max_distinct_values);
        (out, total)
    }

    /// [`AutoDetect::distinct_capped`] for a column already tallied:
    /// `counts` yields each distinct value once, in any order. The same
    /// cap and tie-break (count descending, then value) apply, so the
    /// streamed and reference paths cap exactly as a materialized
    /// column does.
    fn counts_capped<'a>(
        &self,
        counts: impl Iterator<Item = (&'a str, usize)>,
    ) -> (Vec<(&'a str, usize)>, usize) {
        let mut distinct: Vec<(&str, usize)> = counts.collect();
        let total = distinct.len();
        distinct.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        distinct.truncate(self.max_distinct_values);
        (distinct, total)
    }

    /// Detects incompatible values in a column with the default
    /// (Auto-Detect) aggregation. Findings are deduplicated per suspect
    /// value and sorted by descending confidence.
    pub fn detect_column(&self, column: &Column) -> Vec<ColumnFinding> {
        self.detect_column_with(column, Aggregator::AutoDetect)
    }

    /// Detects incompatible values using an explicit aggregator
    /// (Figure 8(b) comparisons).
    pub fn detect_column_with(
        &self,
        column: &Column,
        aggregator: Aggregator,
    ) -> Vec<ColumnFinding> {
        let mut cache = PatternCache::new();
        self.scan_column(column, aggregator, &mut cache).0
    }

    /// The instrumented scan primitive behind every detection surface.
    ///
    /// Identical findings to [`AutoDetect::detect_column_with`], plus the
    /// scan's [`ScanStats`]. `cache` memoizes value generalization and
    /// pattern-pair scores across calls; [`crate::engine::ScanEngine`]
    /// keeps one per worker thread. Findings depend only on the column's
    /// contents, never on the cache's prior state or the calling thread —
    /// this is what makes parallel scans byte-identical to serial ones.
    pub fn scan_column(
        &self,
        column: &Column,
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        cache.bind(self);
        self.scan_column_bound(column, aggregator, cache)
    }

    /// [`AutoDetect::scan_column`] through a cache already bound to this
    /// model: the engine binds each worker's cache once, when the worker
    /// starts, rather than fingerprinting the model for every column.
    pub(crate) fn scan_column_bound(
        &self,
        column: &Column,
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        let (distinct, total_distinct) = self.distinct_capped(column);
        self.scan_pairs(&distinct, total_distinct, aggregator, cache)
    }

    /// Scans a column given its distinct-value counts — the streaming
    /// surface. `counts` must hold each distinct non-empty value exactly
    /// once with its multiplicity (any order); the same frequency cap and
    /// deterministic ordering as [`AutoDetect::scan_column`] are applied
    /// here, so a streamed column yields byte-identical findings to the
    /// materialized one.
    pub fn scan_value_counts(
        &self,
        counts: &[(String, usize)],
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        cache.bind(self);
        let (distinct, total_distinct) =
            self.counts_capped(counts.iter().map(|(v, c)| (v.as_str(), *c)));
        self.scan_pairs(&distinct, total_distinct, aggregator, cache)
    }

    /// [`AutoDetect::scan_value_counts`] for a column tallied in a
    /// [`ValueTable`] (`counts[id]` is entry `id`'s multiplicity), through
    /// a cache already bound to this model (see
    /// [`AutoDetect::scan_column_bound`]).
    pub(crate) fn scan_value_table_bound(
        &self,
        values: &ValueTable,
        counts: &[usize],
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        let (distinct, total_distinct) =
            self.counts_capped(values.iter().zip(counts.iter().copied()));
        self.scan_pairs(&distinct, total_distinct, aggregator, cache)
    }

    /// The pattern-group scoring kernel (see the module docs). Findings
    /// and pair counters are byte-identical to
    /// [`AutoDetect::scan_pairs_reference`]. `cache` must already be
    /// bound to this model.
    fn scan_pairs(
        &self,
        distinct: &[(&str, usize)],
        total_distinct: usize,
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        let d = distinct.len();
        let num_langs = self.languages.len();
        let mut stats = ScanStats::for_languages(num_langs);
        stats.values_scored = d as u64;
        stats.pairs_scored = (d * d.saturating_sub(1) / 2) as u64;
        stats.pairs_pruned =
            (total_distinct * total_distinct.saturating_sub(1) / 2) as u64 - stats.pairs_scored;
        if d < 2 {
            return (Vec::new(), stats);
        }

        // Generalize every distinct value once under all languages (cache
        // hits skip the work entirely), viewed per-language.
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let hash_start = Instant::now();
        let mut hashes: Vec<Vec<PatternHash>> =
            (0..num_langs).map(|_| Vec::with_capacity(d)).collect();
        for (v, _) in distinct {
            cache.append_hashes(v, &mut hashes);
        }
        stats.hash_nanos = hash_start.elapsed().as_nanos() as u64;
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let score_start = Instant::now();
        let calibrations: Vec<&Calibration> = self.calibrations();

        // Group stage: per language, collapse values to distinct-pattern
        // groups in first-seen order. `group_of[k][i]` is value i's group
        // under language k; `group_patterns[k]` the group representatives.
        let mut group_of: Vec<Vec<u32>> = Vec::with_capacity(num_langs);
        let mut group_patterns: Vec<Vec<PatternHash>> = Vec::with_capacity(num_langs);
        for hs in &hashes {
            let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
            let mut of = Vec::with_capacity(d);
            let mut pats: Vec<PatternHash> = Vec::new();
            for &h in hs {
                // adt-allow(unchecked-arithmetic): per-column distinct-pattern count, bounded by the column's value count — far below u32::MAX
                let next = pats.len() as u32;
                let g = *ids.entry(h.0).or_insert(next);
                if g == next {
                    pats.push(h);
                }
                of.push(g);
            }
            group_of.push(of);
            group_patterns.push(pats);
        }
        for (k, pats) in group_patterns.iter().enumerate() {
            stats.groups_per_language[k] += pats.len() as u64;
        }

        // Memo switch (see `MEMO_FREE_NUM`). The ratio is a pure function
        // of the column's contents, so the switch, the kernel-choice
        // counts and the findings are identical at any thread count. The
        // split of `npmi_probes` vs `npmi_memo_hits` is not: which columns
        // share a worker's warm memo depends on scheduling. Their sum is
        // fixed.
        let min_groups = group_patterns.iter().map(Vec::len).min().unwrap_or(0);
        let memo_free = min_groups * MEMO_FREE_DEN >= d * MEMO_FREE_NUM;
        if memo_free {
            stats.kernel_choices.direct += 1;
        } else {
            stats.kernel_choices.group += 1;
        }

        // Probe stage: one d′×d′ NPMI matrix per language over pattern
        // groups. Entries are bit-identical to the naive per-value
        // matrix, memo or not: each equals `npmi_patterns` of its pair,
        // and the diagonal 1.0 equals the identical-pattern early return.
        let mut matrices: Vec<NpmiMatrix> = Vec::with_capacity(num_langs);
        for (k, l) in self.languages.iter().enumerate() {
            let memo = if memo_free {
                None
            } else {
                Some(cache.memo_mut(k))
            };
            let m = l.stats.npmi_matrix(&group_patterns[k], self.npmi, memo);
            stats.npmi_probes += m.probes;
            stats.npmi_memo_hits += m.memo_hits;
            matrices.push(m);
        }

        // Joint groups: values equivalent under *every* language form one
        // equivalence class (successive partition refinement); flagging,
        // confidence, k* and score are pure functions of the class pair.
        // Refinement starts from the finest language's first-seen ids and
        // stops once every value is its own class, so a column some
        // language keeps all-distinct builds no remap at all.
        let finest = (0..num_langs).max_by_key(|&k| group_patterns[k].len());
        let (mut joint_of, mut n_joint) = match finest {
            Some(k) => (group_of[k].clone(), group_patterns[k].len()),
            None => (vec![0; d], 1),
        };
        for of in &group_of {
            if n_joint == d {
                break;
            }
            let mut remap: FxHashMap<(u32, u32), u32> = FxHashMap::default();
            let mut next = 0u32;
            for i in 0..d {
                let id = *remap.entry((joint_of[i], of[i])).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                joint_of[i] = id;
            }
            n_joint = next as usize;
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_joint];
        for (i, &jg) in joint_of.iter().enumerate() {
            members[jg as usize].push(i);
        }
        let joint_weight: Vec<f64> = members
            .iter()
            .map(|ms| ms.iter().map(|&i| distinct[i].1 as f64).sum())
            .collect();

        // An intra-class pair scores exactly [1.0; K] (identical patterns
        // under every language), so whether such pairs flag at all is one
        // global decision — false for any sane calibration, true only for
        // degenerate θ ≥ 1.0 thresholds.
        let ones = vec![1.0f64; num_langs];
        let intra_flags = aggregator.flags(&ones, &calibrations);

        // Pass 1 (group-wise): flag joint-class pairs and sum exact class
        // flag degrees — the count-weighted amount of the column each
        // member clashes with, then expanded per value. Degrees are
        // integer-valued f64 sums (all partial sums exactly
        // representable), so group-order accumulation is bit-identical to
        // the naive per-pair loop.
        let mut scores = vec![0.0f64; num_langs];
        let mut precision: Vec<PrecisionMemo> = calibrations
            .iter()
            .copied()
            .map(PrecisionMemo::new)
            .collect();
        let mut flagged: Vec<FlaggedClassPair> = Vec::new();
        let mut class_degree = vec![0.0f64; n_joint];
        for a in 0..n_joint {
            for b in a..n_joint {
                if a == b {
                    if !intra_flags || members[a].len() < 2 {
                        continue;
                    }
                    scores.iter_mut().for_each(|s| *s = 1.0);
                } else {
                    let (ra, rb) = (members[a][0], members[b][0]);
                    for (k, m) in matrices.iter().enumerate() {
                        scores[k] = m.at(group_of[k][ra] as usize, group_of[k][rb] as usize);
                    }
                    if !aggregator.flags(&scores, &calibrations) {
                        continue;
                    }
                }
                let confidence = match aggregator {
                    // `Aggregator::suspicion`'s fold, over memoized P_k(s).
                    Aggregator::AutoDetect => scores
                        .iter()
                        .zip(&mut precision)
                        .map(|(&s, p)| p.at(s))
                        .fold(0.0, f64::max),
                    _ => aggregator.suspicion(&scores, &calibrations),
                };
                let k = scores
                    .iter()
                    .enumerate()
                    .min_by(|x, y| x.1.total_cmp(y.1))
                    .map(|(k, _)| k)
                    .unwrap_or(0);
                let min_firing_score = scores
                    .iter()
                    .zip(calibrations.iter().copied())
                    .filter(|(&s, c)| c.fires(s))
                    .map(|(&s, _)| s)
                    .fold(f64::INFINITY, f64::min);
                let score = if min_firing_score.is_finite() {
                    min_firing_score
                } else {
                    scores.iter().copied().fold(f64::INFINITY, f64::min)
                };
                if a == b {
                    let n = members[a].len();
                    stats.pairs_flagged += (n * (n - 1) / 2) as u64;
                    class_degree[a] += joint_weight[a];
                } else {
                    stats.pairs_flagged += (members[a].len() * members[b].len()) as u64;
                    class_degree[a] += joint_weight[b];
                    class_degree[b] += joint_weight[a];
                }
                flagged.push(FlaggedClassPair {
                    a,
                    b,
                    confidence,
                    k,
                    score,
                });
            }
        }
        // A member of an intra-flagged class does not clash with itself.
        let degree: Vec<f64> = (0..d)
            .map(|i| {
                let c = joint_of[i] as usize;
                if intra_flags && members[c].len() >= 2 {
                    class_degree[c] - distinct[i].1 as f64
                } else {
                    class_degree[c]
                }
            })
            .collect();

        // Pass 2: attribute each flagged class pair. The suspect is the
        // member with the higher flag degree; with intra flagging off,
        // degrees are uniform within a class, so one comparison settles
        // all |A|·|B| member pairs and the witness is the class's
        // first-enumerated member. Degree ties (and the degenerate intra
        // case) replay the naive per-pair tie-breaks exactly: lower
        // rest-of-column compatibility under the pair's most negative
        // language, then corpus occurrence (the globally rarer pattern is
        // the likelier intruder). Compatibility is computed lazily in the
        // naive summation order so even its f64 rounding matches.
        let mut best: Vec<Option<BestFinding>> = std::iter::repeat_with(|| None).take(d).collect();
        let consider = |best: &mut [Option<BestFinding>],
                        suspect: usize,
                        witness: usize,
                        confidence: f64,
                        k: usize,
                        score: f64| {
            let (u, v) = if suspect < witness {
                (suspect, witness)
            } else {
                (witness, suspect)
            };
            let enum_key = (u * d + v) as u64;
            let Some(slot) = best.get_mut(suspect) else {
                return;
            };
            match slot {
                Some(prev)
                    if prev.confidence > confidence
                        || (prev.confidence == confidence && prev.enum_key <= enum_key) => {}
                _ => {
                    *slot = Some(BestFinding {
                        confidence,
                        enum_key,
                        witness,
                        k,
                        score,
                    });
                }
            }
        };
        let mut compat_memo: LanguageValueMemo<f64> = LanguageValueMemo::new(num_langs, d);
        let compat_at = |memo: &mut LanguageValueMemo<f64>, k: usize, i: usize| -> f64 {
            memo.get_or_insert_with(k, i, || {
                let m = &matrices[k];
                let gi = group_of[k][i] as usize;
                let mut sum = 0.0;
                let mut w = 0.0;
                for (j, &(_, cnt)) in distinct.iter().enumerate() {
                    if j != i {
                        sum += m.at(gi, group_of[k][j] as usize) * cnt as f64;
                        w += cnt as f64;
                    }
                }
                if w > 0.0 {
                    sum / w
                } else {
                    1.0
                }
            })
        };
        let mut occurrence_memo: LanguageValueMemo<u64> = LanguageValueMemo::new(num_langs, d);
        let occurrence_at = |memo: &mut LanguageValueMemo<u64>, k: usize, i: usize| -> u64 {
            memo.get_or_insert_with(k, i, || self.languages[k].stats.occurrence(hashes[k][i]))
        };
        for f in &flagged {
            if f.a != f.b && !intra_flags {
                let da = degree[members[f.a][0]];
                let db = degree[members[f.b][0]];
                if (da - db).abs() > 1e-9 {
                    let (sc, wc) = if da > db { (f.a, f.b) } else { (f.b, f.a) };
                    let w0 = members[wc][0];
                    for &i in &members[sc] {
                        consider(&mut best, i, w0, f.confidence, f.k, f.score);
                    }
                    continue;
                }
            }
            // Per-pair replay: degree ties (frequent on dense columns,
            // where every count is 1), or intra flagging making
            // within-class degrees non-uniform. An intra-class pair takes
            // each member with the members after it.
            let mut rest = members[f.a].as_slice();
            while let Some((&p, tail)) = rest.split_first() {
                rest = tail;
                let others = if f.a == f.b { tail } else { &members[f.b] };
                for &q in others {
                    let (i, j) = if p < q { (p, q) } else { (q, p) };
                    let (suspect, witness) = if (degree[i] - degree[j]).abs() > 1e-9 {
                        if degree[i] > degree[j] {
                            (i, j)
                        } else {
                            (j, i)
                        }
                    } else {
                        let ci = compat_at(&mut compat_memo, f.k, i);
                        let cj = compat_at(&mut compat_memo, f.k, j);
                        if (ci - cj).abs() > 1e-9 {
                            if ci < cj {
                                (i, j)
                            } else {
                                (j, i)
                            }
                        } else {
                            let oi = occurrence_at(&mut occurrence_memo, f.k, i);
                            let oj = occurrence_at(&mut occurrence_memo, f.k, j);
                            if oi <= oj {
                                (i, j)
                            } else {
                                (j, i)
                            }
                        }
                    };
                    consider(&mut best, suspect, witness, f.confidence, f.k, f.score);
                }
            }
        }
        let mut findings: Vec<ColumnFinding> = Vec::new();
        for (suspect_idx, bf) in best.into_iter().enumerate() {
            let Some(bf) = bf else {
                continue;
            };
            stats.findings_per_language[bf.k] += 1;
            findings.push(ColumnFinding {
                suspect: distinct[suspect_idx].0.to_string(),
                witness: distinct[bf.witness].0.to_string(),
                confidence: bf.confidence,
                score: bf.score,
            });
        }
        findings.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| a.score.total_cmp(&b.score))
                .then_with(|| a.suspect.cmp(&b.suspect))
        });
        stats.score_nanos = score_start.elapsed().as_nanos() as u64;
        (findings, stats)
    }

    /// The single most incompatible pair of a column, if any pair is
    /// flagged — the "just the most incompatible one for users to
    /// inspect" mode of §2.2.
    pub fn most_incompatible(&self, column: &Column) -> Option<ColumnFinding> {
        self.detect_column(column).into_iter().next()
    }

    /// Audits every column of a table; findings ranked by confidence
    /// across the whole table (the spreadsheet "spell-checker" surface).
    ///
    /// This is the serial reference path; [`crate::ScanEngine`] produces
    /// identical findings in parallel and adds per-scan reporting.
    pub fn detect_table(&self, table: &adt_corpus::Table) -> Vec<TableFinding> {
        let mut out = Vec::new();
        for (i, col) in table.columns.iter().enumerate() {
            for f in self.detect_column(col) {
                out.push(TableFinding {
                    column_index: i,
                    column_header: col.header.clone(),
                    finding: f,
                });
            }
        }
        rank_table_findings(&mut out);
        out
    }
}

/// The naive O(K·d²) value-pair scan, kept verbatim as the differential
/// reference for the pattern-group kernel. Compiled for tests and, via
/// the `reference-kernel` feature, for perfbench and adt-bench's timing
/// test; production builds carry only the group kernel.
#[cfg(any(test, feature = "reference-kernel"))]
impl AutoDetect {
    /// [`AutoDetect::scan_value_counts`] through the reference kernel.
    pub fn scan_value_counts_reference(
        &self,
        counts: &[(String, usize)],
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        let (distinct, total_distinct) =
            self.counts_capped(counts.iter().map(|(v, c)| (v.as_str(), *c)));
        self.scan_pairs_reference(&distinct, total_distinct, aggregator, cache)
    }

    /// The pre-group-kernel scan: full per-value d×d matrices, per-pair
    /// flagging and attribution. `groups_per_language` is left zero (the
    /// reference does no grouping); `npmi_probes` counts every computed
    /// entry and `npmi_memo_hits` stays zero (no memo).
    fn scan_pairs_reference(
        &self,
        distinct: &[(&str, usize)],
        total_distinct: usize,
        aggregator: Aggregator,
        cache: &mut PatternCache,
    ) -> (Vec<ColumnFinding>, ScanStats) {
        let d = distinct.len();
        let mut stats = ScanStats::for_languages(self.languages.len());
        stats.values_scored = d as u64;
        stats.pairs_scored = (d * d.saturating_sub(1) / 2) as u64;
        stats.pairs_pruned =
            (total_distinct * total_distinct.saturating_sub(1) / 2) as u64 - stats.pairs_scored;
        if d < 2 {
            return (Vec::new(), stats);
        }
        cache.bind(self);
        let hash_start = Instant::now();
        let mut hashes: Vec<Vec<PatternHash>> = (0..self.languages.len())
            .map(|_| Vec::with_capacity(d))
            .collect();
        for (v, _) in distinct {
            cache.append_hashes(v, &mut hashes);
        }
        stats.hash_nanos = hash_start.elapsed().as_nanos() as u64;
        let score_start = Instant::now();
        let calibrations: Vec<&Calibration> = self.calibrations();

        // Full per-language NPMI matrices over distinct values (flattened
        // d×d, symmetric, diagonal 1.0).
        let matrices: Vec<Vec<f64>> = self
            .languages
            .iter()
            .enumerate()
            .map(|(k, l)| {
                let mut m = vec![1.0f64; d * d];
                for i in 0..d {
                    for j in (i + 1)..d {
                        let s = l.stats.npmi_patterns(hashes[k][i], hashes[k][j], self.npmi);
                        stats.npmi_probes += 1;
                        m[i * d + j] = s;
                        m[j * d + i] = s;
                    }
                }
                m
            })
            .collect();

        // Per-language, per-value compatibility with the rest of the
        // column: count-weighted mean NPMI against every other distinct
        // value.
        let compat: Vec<Vec<f64>> = matrices
            .iter()
            .map(|m| {
                (0..d)
                    .map(|i| {
                        let mut sum = 0.0;
                        let mut w = 0.0;
                        for (j, &(_, cnt)) in distinct.iter().enumerate() {
                            if j != i {
                                sum += m[i * d + j] * cnt as f64;
                                w += cnt as f64;
                            }
                        }
                        if w > 0.0 {
                            sum / w
                        } else {
                            1.0
                        }
                    })
                    .collect()
            })
            .collect();

        // Pass 1: flag pairs and accumulate per-value flag degrees.
        let mut scores = vec![0.0f64; self.languages.len()];
        let mut flagged_pairs: Vec<(usize, usize, f64, usize)> = Vec::new();
        let mut degree = vec![0.0f64; d];
        for i in 0..d {
            for j in (i + 1)..d {
                for (k, m) in matrices.iter().enumerate() {
                    scores[k] = m[i * d + j];
                }
                if !aggregator.flags(&scores, &calibrations) {
                    continue;
                }
                let confidence = aggregator.suspicion(&scores, &calibrations);
                let k = scores
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(k, _)| k)
                    .unwrap_or(0);
                flagged_pairs.push((i, j, confidence, k));
                degree[i] += distinct[j].1 as f64;
                degree[j] += distinct[i].1 as f64;
            }
        }
        stats.pairs_flagged = flagged_pairs.len() as u64;

        // Pass 2: attribute each flagged pair.
        let mut best: FxHashMap<usize, (ColumnFinding, usize)> = FxHashMap::default();
        for &(i, j, confidence, k) in &flagged_pairs {
            let (suspect_idx, witness_idx) = if (degree[i] - degree[j]).abs() > 1e-9 {
                if degree[i] > degree[j] {
                    (i, j)
                } else {
                    (j, i)
                }
            } else if (compat[k][i] - compat[k][j]).abs() > 1e-9 {
                if compat[k][i] < compat[k][j] {
                    (i, j)
                } else {
                    (j, i)
                }
            } else {
                let oi = self.languages[k].stats.occurrence(hashes[k][i]);
                let oj = self.languages[k].stats.occurrence(hashes[k][j]);
                if oi <= oj {
                    (i, j)
                } else {
                    (j, i)
                }
            };
            let pair_scores: Vec<f64> = matrices.iter().map(|m| m[i * d + j]).collect();
            let min_firing_score = pair_scores
                .iter()
                .zip(calibrations.iter().copied())
                .filter(|(&s, c)| c.fires(s))
                .map(|(&s, _)| s)
                .fold(f64::INFINITY, f64::min);
            let score = if min_firing_score.is_finite() {
                min_firing_score
            } else {
                pair_scores.iter().copied().fold(f64::INFINITY, f64::min)
            };
            let finding = ColumnFinding {
                suspect: distinct[suspect_idx].0.to_string(),
                witness: distinct[witness_idx].0.to_string(),
                confidence,
                score,
            };
            match best.get(&suspect_idx) {
                Some((prev, _)) if prev.confidence >= finding.confidence => {}
                _ => {
                    best.insert(suspect_idx, (finding, k));
                }
            }
        }
        let mut findings: Vec<ColumnFinding> = Vec::with_capacity(best.len());
        for (finding, k) in best.into_values() {
            stats.findings_per_language[k] += 1;
            findings.push(finding);
        }
        findings.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| a.score.total_cmp(&b.score))
                .then_with(|| a.suspect.cmp(&b.suspect))
        });
        stats.score_nanos = score_start.elapsed().as_nanos() as u64;
        (findings, stats)
    }
}

/// A finding located within a table.
#[derive(Debug, Clone)]
pub struct TableFinding {
    /// Zero-based column index.
    pub column_index: usize,
    /// The column's header, when present.
    pub column_header: Option<String>,
    /// The column-level finding.
    pub finding: ColumnFinding,
}

/// Orders a table's findings the one way every surface reports them:
/// confidence descending, then column index, then suspect. The serial
/// reference ([`AutoDetect::detect_table`]), the [`crate::ScanEngine`]
/// and the server's ensemble path all call this.
pub fn rank_table_findings(findings: &mut [TableFinding]) {
    findings.sort_by(|a, b| {
        b.finding
            .confidence
            .total_cmp(&a.finding.confidence)
            .then_with(|| a.column_index.cmp(&b.column_index))
            .then_with(|| a.finding.suspect.cmp(&b.finding.suspect))
    });
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use adt_corpus::{Column, Corpus, SourceTag};
    use adt_patterns::Language;
    use adt_stats::StatsConfig;

    /// Builds a tiny model by hand: crude language over a corpus where ISO
    /// dates never mix with slash dates but ints mix with comma-ints.
    pub(crate) fn tiny_model() -> AutoDetect {
        let mut cols = Vec::new();
        for i in 0..40 {
            cols.push(Column::new(
                vec![
                    format!("{}", 1900 + i),
                    format!("{},000", i + 1),
                    format!("{}", i * 7),
                ],
                SourceTag::Web,
            ));
            cols.push(Column::new(
                vec![
                    format!("20{:02}-01-01", i % 30),
                    format!("20{:02}-02-02", (i + 1) % 30),
                ],
                SourceTag::Web,
            ));
            cols.push(Column::new(
                vec![
                    format!("20{:02}/01/01", i % 30),
                    format!("20{:02}/02/02", (i + 1) % 30),
                ],
                SourceTag::Web,
            ));
        }
        let corpus = Corpus::from_columns(cols);
        let stats = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &corpus,
            &StatsConfig::default(),
        );
        let calibration = Calibration {
            theta: Some(-0.4),
            precision_at_theta: 1.0,
            covered_negatives: vec![],
            covered_positives: 0,
            curve: vec![(-1.0, 0.99), (-0.4, 0.9), (0.0, 0.5), (1.0, 0.01)],
        };
        // A second language that only looks at symbols (L1): catches
        // separator mixes but is blind to letter/digit swaps.
        let stats_l1 = {
            let mut cols2 = Vec::new();
            for i in 0..40 {
                cols2.push(Column::new(
                    vec![format!("{}-{:02}", 2000 + i, i % 12 + 1)],
                    SourceTag::Web,
                ));
            }
            let c2 = Corpus::from_columns(cols2);
            LanguageStats::build(Language::paper_l1(), &c2, &StatsConfig::default())
        };
        let cal_l1 = Calibration {
            theta: Some(-0.5),
            precision_at_theta: 0.97,
            covered_negatives: vec![],
            covered_positives: 0,
            curve: vec![(-1.0, 0.97), (-0.5, 0.8), (1.0, 0.0)],
        };
        AutoDetect {
            languages: vec![
                SelectedLanguage { stats, calibration },
                SelectedLanguage {
                    stats: stats_l1,
                    calibration: cal_l1,
                },
            ],
            npmi: NpmiParams { smoothing: 0.1 },
            precision_target: 0.9,
            max_distinct_values: 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::tiny_model;
    use super::*;
    use adt_corpus::{Column, SourceTag};

    #[test]
    fn flags_mixed_date_formats() {
        let m = tiny_model();
        let verdict = m.score_pair("2011-01-01", "2011/02/02");
        assert!(verdict.incompatible);
        assert!(verdict.confidence > 0.5);
    }

    #[test]
    fn accepts_compatible_numbers() {
        let m = tiny_model();
        let verdict = m.score_pair("42", "7,000");
        assert!(!verdict.incompatible, "scores: {:?}", verdict.scores);
    }

    #[test]
    fn detect_column_finds_the_intruder() {
        let m = tiny_model();
        let col = Column::from_strs(
            &["2011-01-01", "2012-02-02", "2013-03-03", "2014/04/04"],
            SourceTag::Wiki,
        );
        let findings = m.detect_column(&col);
        assert!(!findings.is_empty());
        assert_eq!(findings[0].suspect, "2014/04/04");
        assert_ne!(findings[0].witness, "2014/04/04");
    }

    #[test]
    fn clean_column_yields_nothing() {
        let m = tiny_model();
        let col = Column::from_strs(&["2011-01-01", "2012-02-02", "2013-03-03"], SourceTag::Wiki);
        assert!(m.detect_column(&col).is_empty());
    }

    #[test]
    fn single_distinct_value_column_is_clean() {
        let m = tiny_model();
        let col = Column::from_strs(&["7", "7", "7"], SourceTag::Wiki);
        assert!(m.detect_column(&col).is_empty());
    }

    #[test]
    fn suspect_is_the_minority_value() {
        let m = tiny_model();
        let col = Column::from_strs(
            &[
                "2011-01-01",
                "2011-01-01",
                "2012-02-02",
                "2013-03-03",
                "2014/04/04",
            ],
            SourceTag::Wiki,
        );
        let findings = m.detect_column(&col);
        assert_eq!(findings[0].suspect, "2014/04/04");
    }

    #[test]
    fn most_incompatible_returns_top_finding() {
        let m = tiny_model();
        let col = Column::from_strs(&["2011-01-01", "2012-02-02", "2014/04/04"], SourceTag::Wiki);
        let top = m.most_incompatible(&col).unwrap();
        let all = m.detect_column(&col);
        assert_eq!(top.suspect, all[0].suspect);
        assert_eq!(top.confidence, all[0].confidence);
    }

    #[test]
    fn size_accounts_all_languages() {
        let m = tiny_model();
        let total = m.size_bytes();
        let sum: usize = m.languages.iter().map(|l| l.stats.size_bytes()).sum();
        assert_eq!(total, sum);
        assert!(total > 0);
        assert_eq!(m.num_languages(), 2);
    }

    #[test]
    fn detect_table_ranks_across_columns() {
        let m = tiny_model();
        let table = adt_corpus::Table::new(vec![
            Column::from_strs(
                &["2011-01-01", "2012-02-02", "2014/04/04"],
                SourceTag::Local,
            ),
            Column::from_strs(&["1", "2", "3"], SourceTag::Local),
        ]);
        let findings = m.detect_table(&table);
        assert!(!findings.is_empty());
        assert_eq!(findings[0].column_index, 0);
        assert_eq!(findings[0].finding.suspect, "2014/04/04");
        // The clean numeric column contributes nothing.
        assert!(findings.iter().all(|f| f.column_index == 0));
    }

    #[test]
    fn scan_column_counts_match_and_cache_reuse_is_transparent() {
        let m = tiny_model();
        let col = Column::from_strs(&["2011-01-01", "2012-02-02", "2014/04/04"], SourceTag::Wiki);
        let mut cache = PatternCache::new();
        let (findings, stats) = m.scan_column(&col, Aggregator::AutoDetect, &mut cache);
        assert_eq!(stats.values_scored, 3);
        assert_eq!(stats.pairs_scored, 3); // C(3, 2)
        assert_eq!(stats.pairs_pruned, 0);
        assert!(stats.pairs_flagged >= 1);
        assert_eq!(
            stats.findings_per_language.iter().sum::<u64>(),
            findings.len() as u64
        );
        assert_eq!(cache.len(), 3);
        // A warm cache must not change the findings, and detect_column
        // (fresh cache each call) must agree.
        let (again, warm) = m.scan_column(&col, Aggregator::AutoDetect, &mut cache);
        assert_eq!(format!("{again:?}"), format!("{findings:?}"));
        assert_eq!(
            format!("{:?}", m.detect_column(&col)),
            format!("{findings:?}")
        );
        // Second scan of the same column answers every probe from the
        // per-worker memo.
        assert_eq!(warm.npmi_probes, 0);
        assert_eq!(warm.npmi_memo_hits, stats.npmi_probes);
    }

    #[test]
    fn group_kernel_probes_at_most_pairwise() {
        let m = tiny_model();
        // Ten distinct 4-digit years: one pattern group per language, so
        // the kernel needs zero probes where the naive path needs
        // K·C(10,2).
        let values: Vec<String> = (0..10).map(|i| format!("{}", 1990 + i)).collect();
        let col = Column::new(values, SourceTag::Wiki);
        let mut cache = PatternCache::new();
        let (_, stats) = m.scan_column(&col, Aggregator::AutoDetect, &mut cache);
        assert_eq!(stats.pairs_scored, 45);
        assert_eq!(stats.npmi_probes, 0);
        assert_eq!(stats.groups_per_language, vec![1, 1]);
    }

    #[test]
    fn scan_counts_pruned_pairs_beyond_distinct_cap() {
        let mut m = tiny_model();
        m.max_distinct_values = 3;
        let values: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
        let col = Column::new(values, SourceTag::Wiki);
        let mut cache = PatternCache::new();
        let (_, stats) = m.scan_column(&col, Aggregator::AutoDetect, &mut cache);
        assert_eq!(stats.values_scored, 3);
        assert_eq!(stats.pairs_scored, 3);
        assert_eq!(stats.pairs_pruned, 45 - 3); // C(10, 2) − C(3, 2)
        assert_eq!(cache.len(), 3); // capped-out values never generalized
    }

    #[test]
    fn scan_stats_merge_sums_counters() {
        let mut a = ScanStats {
            values_scored: 2,
            pairs_scored: 1,
            pairs_flagged: 1,
            pairs_pruned: 0,
            npmi_probes: 4,
            npmi_memo_hits: 1,
            groups_per_language: vec![2, 1],
            findings_per_language: vec![1, 0],
            hash_nanos: 10,
            score_nanos: 20,
            kernel_choices: KernelChoices {
                group: 1,
                direct: 0,
            },
        };
        let b = ScanStats {
            values_scored: 3,
            pairs_scored: 3,
            pairs_flagged: 0,
            pairs_pruned: 2,
            npmi_probes: 2,
            npmi_memo_hits: 3,
            groups_per_language: vec![1, 3],
            findings_per_language: vec![0, 2],
            hash_nanos: 5,
            score_nanos: 5,
            kernel_choices: KernelChoices {
                group: 2,
                direct: 3,
            },
        };
        a.merge(&b);
        assert_eq!(a.values_scored, 5);
        assert_eq!(a.pairs_scored, 4);
        assert_eq!(a.pairs_flagged, 1);
        assert_eq!(a.pairs_pruned, 2);
        assert_eq!(a.npmi_probes, 6);
        assert_eq!(a.npmi_memo_hits, 4);
        assert_eq!(a.groups_per_language, vec![3, 4]);
        assert_eq!(a.findings_per_language, vec![1, 2]);
        assert_eq!(a.hash_nanos, 15);
        assert_eq!(a.score_nanos, 25);
        assert_eq!(
            a.kernel_choices,
            KernelChoices {
                group: 3,
                direct: 3
            }
        );
    }

    #[test]
    fn distinct_cap_respected() {
        let mut m = tiny_model();
        m.max_distinct_values = 3;
        let values: Vec<String> = (0..50).map(|i| format!("w{i}")).collect();
        let col = Column::new(values, SourceTag::Wiki);
        // Must not panic and must consider at most 3 distinct values.
        let findings = m.detect_column(&col);
        assert!(findings.len() <= 3);
    }

    #[test]
    fn pattern_cache_value_map_stays_under_capacity() {
        let m = tiny_model();
        let mut cache = PatternCache::with_capacity(8, 16);
        // Feed far more distinct values than the cap, across many scans,
        // as a long-lived serve worker would see.
        for batch in 0..40 {
            let values: Vec<String> = (0..10).map(|i| format!("v{batch}x{i}")).collect();
            let col = Column::new(values, SourceTag::Wiki);
            let _ = m.scan_column(&col, Aggregator::AutoDetect, &mut cache);
            assert!(
                cache.len() <= cache.value_capacity(),
                "cache grew to {} (cap {})",
                cache.len(),
                cache.value_capacity()
            );
        }
        assert!(cache.value_flushes() > 0);
    }

    #[test]
    fn pattern_cache_resets_when_handed_a_different_model() {
        let m1 = tiny_model();
        let mut m2 = tiny_model();
        m2.npmi.smoothing = 0.9; // same languages, different scoring
        assert_ne!(m1.fingerprint(), m2.fingerprint());

        let col = Column::from_strs(&["2011-01-01", "2012-02-02", "2014/04/04"], SourceTag::Wiki);
        let mut shared = PatternCache::new();
        let (f1, _) = m1.scan_column(&col, Aggregator::AutoDetect, &mut shared);
        assert_eq!(shared.fingerprint(), Some(m1.fingerprint()));
        assert_eq!(shared.rebinds(), 0);

        // Handing the cache to a different model must reset it (stale
        // hashes/scores never leak) and still produce the findings a
        // fresh cache would.
        let (f2_shared, s2) = m2.scan_column(&col, Aggregator::AutoDetect, &mut shared);
        assert_eq!(shared.rebinds(), 1);
        assert_eq!(shared.fingerprint(), Some(m2.fingerprint()));
        assert_eq!(s2.npmi_memo_hits, 0); // memos were rebuilt, not reused
        let (f2_fresh, _) = m2.scan_column(&col, Aggregator::AutoDetect, &mut PatternCache::new());
        assert_eq!(format!("{f2_shared:?}"), format!("{f2_fresh:?}"));
        // And back: the cache rebinds again rather than mixing models.
        let (f1_again, _) = m1.scan_column(&col, Aggregator::AutoDetect, &mut shared);
        assert_eq!(shared.rebinds(), 2);
        assert_eq!(format!("{f1_again:?}"), format!("{f1:?}"));
    }

    /// A model over `languages` whose statistics are empty: enough to bind
    /// a cache and compare hashes.
    fn model_over(languages: Vec<Language>) -> AutoDetect {
        AutoDetect {
            languages: languages
                .into_iter()
                .map(|language| SelectedLanguage {
                    stats: LanguageStats::empty(language),
                    calibration: Calibration {
                        theta: Some(-0.5),
                        precision_at_theta: 0.9,
                        covered_negatives: vec![],
                        covered_positives: 0,
                        curve: vec![],
                    },
                })
                .collect(),
            npmi: NpmiParams { smoothing: 0.1 },
            precision_target: 0.9,
            max_distinct_values: 50,
        }
    }

    /// Hashes `values` through `cache` (twice, so the second pass reads
    /// cache hits) and asserts both passes equal `pattern_of` under every
    /// language of `model`.
    fn assert_cache_hashes_match_pattern_of(
        model: &AutoDetect,
        cache: &mut PatternCache,
        values: &[String],
    ) {
        cache.bind(model);
        for pass in ["miss", "hit"] {
            let mut out: Vec<Vec<PatternHash>> = vec![Vec::new(); model.languages.len()];
            for v in values {
                cache.append_hashes(v, &mut out);
            }
            for (lang, hashes) in model.languages.iter().zip(&out) {
                let want: Vec<PatternHash> =
                    values.iter().map(|v| lang.stats.pattern_of(v)).collect();
                assert_eq!(
                    hashes,
                    &want,
                    "{pass} pass under {}",
                    lang.stats.language.id()
                );
            }
        }
    }

    #[test]
    fn pattern_cache_hashes_equal_pattern_of_under_every_language() {
        let mut values: Vec<String> = adt_patterns::multi::TRICKY_VALUES
            .iter()
            .map(|v| v.to_string())
            .collect();
        values.extend(
            [
                "",
                "é",
                "ÅÅÅÅÅ",
                "Ωmega-42",
                "--..--",
                "2011-01-01 12:00",
                "(425) 555-0123",
            ]
            .map(String::from),
        );
        values.push("9".repeat(4096));
        values.push("ü".repeat(300));
        values.push("-".repeat(513));

        let restricted = adt_patterns::enumerate_restricted_languages();
        assert!(restricted.iter().any(|l| l.id() == "U3l3d3s0"));
        let first = model_over(restricted);
        let mut cache = PatternCache::new();
        assert_cache_hashes_match_pattern_of(&first, &mut cache, &values);
        assert_eq!(cache.rebinds(), 0);

        // Rebinding to a model over other languages rebuilds the hasher.
        let mut others = adt_patterns::enumerate_coarse_languages();
        others.push(Language::paper_l1());
        others.push(adt_patterns::crude::crude_language());
        let second = model_over(others);
        assert_ne!(first.fingerprint(), second.fingerprint());
        assert_cache_hashes_match_pattern_of(&second, &mut cache, &values);
        assert_eq!(cache.rebinds(), 1);
    }

    /// Runs `values` through `cache` and, in lockstep, through the
    /// `String`-keyed map the arena-backed cache replaced, with the same
    /// count and byte flush rules. Every value's hashes must equal
    /// `pattern_of`, and the two must hold the same number of values and
    /// bytes and have flushed as often, after every step.
    fn assert_cache_matches_string_map(
        model: &AutoDetect,
        mut cache: PatternCache,
        values: &[String],
    ) -> u64 {
        cache.bind(model);
        let mut oracle: FxHashMap<String, Vec<PatternHash>> = FxHashMap::default();
        let (mut bytes, mut flushes) = (0, 0);
        for v in values {
            let mut out: Vec<Vec<PatternHash>> = vec![Vec::new(); model.languages.len()];
            cache.append_hashes(v, &mut out);
            let want: Vec<PatternHash> = model
                .languages
                .iter()
                .map(|l| l.stats.pattern_of(v))
                .collect();
            let got: Vec<PatternHash> = out.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(got, want, "{:?}", v.chars().take(16).collect::<String>());
            if !oracle.contains_key(v) && v.len() <= VALUE_BYTES_CAPACITY {
                if oracle.len() >= cache.value_capacity() || bytes + v.len() > VALUE_BYTES_CAPACITY
                {
                    oracle.clear();
                    bytes = 0;
                    flushes += 1;
                }
                oracle.insert(v.clone(), want);
                bytes += v.len();
            }
            assert_eq!(cache.len(), oracle.len());
            assert_eq!(cache.bytes(), bytes);
            assert_eq!(cache.value_flushes(), flushes);
        }
        flushes
    }

    #[test]
    fn pattern_cache_matches_a_string_map_oracle() {
        use adt_rng::prelude::*;
        let mut pool: Vec<String> = adt_patterns::multi::TRICKY_VALUES
            .iter()
            .map(|v| v.to_string())
            .collect();
        pool.extend(["", "é", "日本語", "😀😀-1", "Ωmega-42", "ü-ü"].map(String::from));
        pool.push("9".repeat(4096));
        pool.push("ab".repeat(2048));
        pool.push("ü".repeat(2048));
        let mut rng = StdRng::seed_from_u64(0xa7e4a);
        let values: Vec<String> = (0..600)
            .map(|_| pool[rng.random_range(0..pool.len())].clone())
            .collect();
        let mut languages = adt_patterns::enumerate_coarse_languages();
        languages.push(adt_patterns::crude::crude_language());
        let model = model_over(languages);

        // Across flushes: seven values fit, so the cache turns over often.
        let flushes =
            assert_cache_matches_string_map(&model, PatternCache::with_capacity(7, 16), &values);
        assert!(flushes > 10, "{flushes} flushes");
        // Every key hashing alike: each lookup walks the collision chain,
        // over at most seven entries and then over every distinct value.
        for capacity in [7, DEFAULT_VALUE_CAPACITY] {
            let mut cache = PatternCache::with_capacity(capacity, 16);
            cache.values = cache.values.with_constant_key_hash();
            assert_cache_matches_string_map(&model, cache, &values);
        }
    }

    #[test]
    fn pattern_cache_bytes_stay_under_the_byte_cap_for_megabyte_values() {
        const MIB: usize = 1 << 20;
        let model = tiny_model();
        let mut values: Vec<String> = (0..20)
            .map(|i| format!("{i:02}{}", "x".repeat(MIB - 2)))
            .collect();
        // Longer than the cap: hashed, never cached.
        values.push("7".repeat(VALUE_BYTES_CAPACITY + 1));
        let mut cache = PatternCache::new();
        cache.bind(&model);
        for v in &values {
            let mut out: Vec<Vec<PatternHash>> = vec![Vec::new(); model.languages.len()];
            cache.append_hashes(v, &mut out);
            for (lang, hashes) in model.languages.iter().zip(&out) {
                assert_eq!(hashes, &[lang.stats.pattern_of(v)]);
            }
            assert!(
                cache.bytes() <= VALUE_BYTES_CAPACITY,
                "{} bytes",
                cache.bytes()
            );
        }
        // Sixteen 1 MiB values fill the cap; the seventeenth flushed.
        assert_eq!(cache.value_flushes(), 1);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.bytes(), 4 * MIB);
    }

    /// The hash-map distinct counter the sort-based
    /// [`AutoDetect::distinct_capped`] replaced, kept as its oracle: count
    /// in a map, then sort by count descending, value ascending.
    fn distinct_capped_oracle(max_distinct: usize, column: &Column) -> (Vec<(&str, usize)>, usize) {
        let mut counts: FxHashMap<&str, usize> = FxHashMap::default();
        for v in column.non_empty_values() {
            *counts.entry(v).or_insert(0) += 1;
        }
        let total = counts.len();
        let mut out: Vec<(&str, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out.truncate(max_distinct);
        (out, total)
    }

    #[test]
    fn distinct_capped_matches_the_hash_map_oracle() {
        use adt_rng::prelude::*;
        // Pieces that make values share prefixes (`a`/`ab`), span 1- to
        // 4-byte characters and embed NUL; concatenations of up to three
        // of them give columns many near-duplicate distinct values.
        const PIECES: [&str; 10] = ["a", "b", "ab", "\0", "é", "日本", "😀", "-", " ", "A"];
        let mut rng = StdRng::seed_from_u64(0x5eed_d157);
        let mut model = model_over(Vec::new());
        for case in 0..400 {
            let pool_size = rng.random_range(1..=240usize);
            let pool: Vec<String> = (0..pool_size)
                .map(|_| {
                    (0..rng.random_range(0..=3usize))
                        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
                        .collect()
                })
                .collect();
            // A squared uniform skews picks toward the front of the pool:
            // heavy duplicates there, many count ties in the tail.
            let values: Vec<String> = (0..rng.random_range(0..=800usize))
                .map(|_| {
                    if rng.random_bool(0.1) {
                        return String::new();
                    }
                    let u: f64 = rng.random();
                    pool[((u * u) * pool_size as f64) as usize].clone()
                })
                .collect();
            model.max_distinct_values = rng.random_range(1..=120usize);
            let column = Column::new(values, SourceTag::Wiki);
            assert_eq!(
                model.distinct_capped(&column),
                distinct_capped_oracle(model.max_distinct_values, &column),
                "case {case}, cap {}",
                model.max_distinct_values
            );
        }
    }
}
