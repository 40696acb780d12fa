//! Per-language corpus statistics and NPMI scoring of value pairs.
//!
//! [`LanguageStats`] is the form statistics ship in: a model stores one
//! per selected language, keyed by pattern hash, because a scan looks
//! patterns up by hash and the `.bin` codec (`crate::codec`) decodes the
//! sorted hash keys straight into these maps. Nothing counts into it.
//! Training counts each candidate into a
//! [`LanguageCounts`](crate::LanguageCounts), keyed by dense
//! per-language ids, and freezes only the languages it keeps into this
//! type ([`LanguageCounts::freeze`]).

use crate::counts::LanguageCounts;
use crate::fxhash::FxHashMap;
use crate::memo::NpmiMemo;
use crate::npmi::{npmi_from_counts, NpmiParams};
use crate::store::{CoocBackend, SketchSpec, OCC_ENTRY_BYTES};
use adt_corpus::Corpus;
use adt_patterns::{Language, Pattern, PatternHash};

/// Construction parameters for [`LanguageStats`].
#[derive(Debug, Clone, Copy)]
pub struct StatsConfig {
    /// Cap on distinct patterns per column used for pair generation; a
    /// column with more distinct patterns contributes a deterministic
    /// subsample. Guards the quadratic pair blowup on fine languages.
    pub max_distinct_per_column: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            max_distinct_per_column: 24,
        }
    }
}

/// Occurrence and co-occurrence statistics of one generalization language
/// over one corpus.
#[derive(Debug, Clone)]
pub struct LanguageStats {
    /// The language the statistics were computed under.
    pub language: Language,
    /// Number of corpus columns scanned (`|C|` in Equations 1–2).
    pub n_columns: u64,
    /// `c(p)`: number of columns containing pattern `p`. Keyed through
    /// the deterministic fast hasher — pattern hashes are already
    /// well-mixed, so SipHash would only slow the probe hot path.
    occ: FxHashMap<u64, u32>,
    /// `c(p1, p2)`: number of columns containing both patterns.
    cooc: CoocBackend,
}

impl LanguageStats {
    /// Empty exact statistics for `language`.
    pub fn empty(language: Language) -> Self {
        LanguageStats {
            language,
            n_columns: 0,
            occ: FxHashMap::default(),
            cooc: CoocBackend::exact(),
        }
    }

    /// Scans `corpus` serially and builds the exact statistics for
    /// `language` ([`LanguageCounts::build`], frozen) — the per-language
    /// reference the training pipeline (`crate::pipeline`) reproduces
    /// bit for bit at any thread count. Compress afterwards with
    /// [`LanguageStats::compress_cooccurrence`].
    pub fn build(language: Language, corpus: &Corpus, config: &StatsConfig) -> Self {
        LanguageCounts::build(language, corpus, config).freeze()
    }

    /// `c(p)` for a pattern hash.
    pub fn occurrence(&self, p: PatternHash) -> u64 {
        self.occ.get(&p.0).copied().unwrap_or(0) as u64
    }

    /// `c(p1, p2)` for a pattern pair (estimate under a sketch backend).
    pub fn cooccurrence(&self, p1: PatternHash, p2: PatternHash) -> u64 {
        if p1 == p2 {
            // Diagonal: a pattern trivially co-occurs with itself in every
            // column it appears in; NPMI(p, p) = 1 falls out of this.
            return self.occurrence(p1);
        }
        self.cooc.get(p1, p2)
    }

    /// NPMI of two pattern hashes under this language's statistics.
    pub fn npmi_patterns(&self, p1: PatternHash, p2: PatternHash, params: NpmiParams) -> f64 {
        if p1 == p2 {
            return 1.0;
        }
        npmi_from_counts(
            self.occurrence(p1),
            self.occurrence(p2),
            self.cooccurrence(p1, p2),
            self.n_columns,
            params,
        )
    }

    /// Batched NPMI over a set of *distinct* pattern hashes: the flattened
    /// symmetric `d′×d′` matrix with diagonal `1.0` (a pattern is always
    /// compatible with itself), each off-diagonal entry equal bit for bit
    /// to [`LanguageStats::npmi_patterns`] of its pair. Each pattern's
    /// occurrence is looked up at most once per matrix, an exact table is
    /// not asked for a pair with a pattern it never counted, and the one
    /// score every never-co-occurring pair of rare patterns shares is
    /// computed once per matrix.
    ///
    /// This is the pattern-group scoring kernel's probe stage: callers
    /// dedupe a column's values into distinct patterns first, so the
    /// matrix is `d′×d′` instead of `d×d` (`d′ ≤ d`, typically ≪). With a
    /// `memo`, pair scores previously computed by the same worker — across
    /// columns and requests — are reused instead of recomputed; memo use
    /// never changes a score, only [`NpmiMatrix::probes`] vs
    /// [`NpmiMatrix::memo_hits`].
    pub fn npmi_matrix(
        &self,
        patterns: &[PatternHash],
        params: NpmiParams,
        mut memo: Option<&mut NpmiMemo>,
    ) -> NpmiMatrix {
        let dim = patterns.len();
        let mut values = vec![1.0f64; dim * dim];
        let mut probes = 0u64;
        let mut memo_hits = 0u64;
        // Each pattern's occurrence, looked up when a probe first needs
        // it: at most once per matrix instead of twice per probed pair.
        // Allocated on the first probe, so a matrix the memo answers
        // whole allocates nothing for it.
        let mut occ: Vec<Option<u64>> = Vec::new();
        let mut occurrence = |i: usize, p: PatternHash| {
            if occ.is_empty() {
                occ.resize(dim, None);
            }
            match occ.get_mut(i) {
                Some(Some(c)) => *c,
                Some(slot) => *slot.insert(self.occurrence(p)),
                None => self.occurrence(p),
            }
        };
        let exact = matches!(self.cooc, CoocBackend::Exact(_));
        // `npmi_from_counts` floors both counts at 1, so every probe with
        // `c12 == 0` and both counts at most 1 scores the same: computed
        // on the first such probe, reused by the rest. On a dense column
        // of patterns the corpus never saw, that is nearly every probe.
        let mut unseen_pair: Option<f64> = None;
        for (i, &a) in patterns.iter().enumerate() {
            for (j, &b) in patterns.iter().enumerate().skip(i + 1) {
                let memoized = memo.as_deref_mut().and_then(|m| m.lookup(a, b));
                let s = match memoized {
                    Some(s) => {
                        memo_hits += 1;
                        s
                    }
                    None => {
                        probes += 1;
                        let s = if a == b {
                            1.0
                        } else {
                            let (ca, cb) = (occurrence(i, a), occurrence(j, b));
                            // An exact table holds pairs of counted
                            // patterns only, so a pair with an unseen
                            // pattern is 0 by construction; a sketch can
                            // still estimate one above 0.
                            let c12 = if exact && (ca == 0 || cb == 0) {
                                0
                            } else {
                                self.cooc.get(a, b)
                            };
                            if c12 == 0 && ca <= 1 && cb <= 1 {
                                *unseen_pair.get_or_insert_with(|| {
                                    npmi_from_counts(ca, cb, 0, self.n_columns, params)
                                })
                            } else {
                                npmi_from_counts(ca, cb, c12, self.n_columns, params)
                            }
                        };
                        if let Some(m) = memo.as_deref_mut() {
                            m.insert(a, b, s);
                        }
                        s
                    }
                };
                if let Some(v) = values.get_mut(i * dim + j) {
                    *v = s;
                }
                if let Some(v) = values.get_mut(j * dim + i) {
                    *v = s;
                }
            }
        }
        NpmiMatrix {
            dim,
            values,
            probes,
            memo_hits,
        }
    }

    /// The paper's `s_k(u, v) = NPMI(L_k(u), L_k(v))`: generalizes both
    /// values under this language and scores the patterns.
    pub fn score_values(&self, u: &str, v: &str, params: NpmiParams) -> f64 {
        let pu = Pattern::hash_value(u, &self.language);
        let pv = Pattern::hash_value(v, &self.language);
        self.npmi_patterns(pu, pv, params)
    }

    /// Pattern hash of a value under this language.
    pub fn pattern_of(&self, v: &str) -> PatternHash {
        Pattern::hash_value(v, &self.language)
    }

    /// Number of distinct patterns seen.
    pub fn distinct_patterns(&self) -> usize {
        self.occ.len()
    }

    /// Memory footprint `size(L)` in bytes: occurrence dictionary plus the
    /// co-occurrence backend.
    pub fn size_bytes(&self) -> usize {
        self.occ.len() * OCC_ENTRY_BYTES + self.cooc.bytes()
    }

    /// Replaces the exact co-occurrence dictionary with a count-min sketch
    /// of the given geometry (Figure 8(a)'s compression configurations).
    /// Entries replay in sorted key order ([`CoocBackend::to_sketch`]),
    /// so even order-dependent conservative updates give a pure function
    /// of the counts.
    pub fn compress_cooccurrence(&mut self, spec: SketchSpec) {
        self.cooc = self.cooc.to_sketch(spec);
    }

    /// Number of exact co-occurrence entries, when exact.
    pub fn exact_cooc_entries(&self) -> Option<usize> {
        self.cooc.exact_entries()
    }

    /// Co-occurrence backend footprint in bytes — what the pipeline's
    /// `peak_cooc_bytes` sums (occurrence entries are linear and always
    /// exact).
    pub fn cooc_bytes(&self) -> usize {
        self.cooc.bytes()
    }

    /// Occurrence dictionary accessor (codec support).
    pub(crate) fn occ_map(&self) -> &FxHashMap<u64, u32> {
        &self.occ
    }

    /// Co-occurrence backend accessor (codec support).
    pub(crate) fn cooc_backend(&self) -> &CoocBackend {
        &self.cooc
    }

    /// Reassembles statistics from raw parts (codec support).
    pub(crate) fn from_parts(
        language: Language,
        n_columns: u64,
        occ: FxHashMap<u64, u32>,
        cooc: CoocBackend,
    ) -> Self {
        LanguageStats {
            language,
            n_columns,
            occ,
            cooc,
        }
    }
}

/// Result of [`LanguageStats::npmi_matrix`]: the flattened symmetric
/// score matrix plus the probe accounting that makes kernel wins
/// observable.
#[derive(Debug, Clone)]
pub struct NpmiMatrix {
    /// Matrix dimension (number of input patterns).
    pub dim: usize,
    /// Flattened row-major `dim×dim` scores; symmetric, diagonal `1.0`.
    pub values: Vec<f64>,
    /// Pairs resolved without the memo: `C(dim, 2) − memo_hits`. Each
    /// probes the counts; the NPMI arithmetic may be shared (see
    /// [`LanguageStats::npmi_matrix`]).
    pub probes: u64,
    /// Entries served from the memo without recomputation.
    pub memo_hits: u64,
}

impl NpmiMatrix {
    /// The score at `(i, j)`; NaN, which compares false with every
    /// threshold, outside the matrix.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values
            .get(i * self.dim + j)
            .copied()
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::{Column, SourceTag};

    fn corpus_of(cols: &[&[&str]]) -> Corpus {
        Corpus::from_columns(
            cols.iter()
                .map(|vals| Column::from_strs(vals, SourceTag::Web))
                .collect(),
        )
    }

    fn no_smooth() -> NpmiParams {
        NpmiParams { smoothing: 0.0 }
    }

    #[test]
    fn counts_are_column_level_not_cell_level() {
        // "5" appears twice in the first column but should count once.
        let c = corpus_of(&[&["5", "5", "7"], &["5", "9"]]);
        let stats = LanguageStats::build(Language::leaf(), &c, &StatsConfig::default());
        let p5 = stats.pattern_of("5");
        assert_eq!(stats.occurrence(p5), 2);
        let p7 = stats.pattern_of("7");
        assert_eq!(stats.occurrence(p7), 1);
        assert_eq!(stats.cooccurrence(p5, p7), 1);
        assert_eq!(stats.n_columns, 2);
    }

    #[test]
    fn same_pattern_values_score_one() {
        let c = corpus_of(&[&["2011-01-01", "2012-02-02"]]);
        let stats = LanguageStats::build(Language::paper_l2(), &c, &StatsConfig::default());
        // Under L2 both are \D[4]\S\D[2]\S\D[2]; identical patterns -> 1.
        assert_eq!(
            stats.score_values("1918-01-01", "2018-12-31", no_smooth()),
            1.0
        );
    }

    #[test]
    fn cooccurring_patterns_score_high_nonccurring_low() {
        // Corpus: ints and comma-numbers co-occur; iso and slash dates don't.
        let mut cols: Vec<&[&str]> = Vec::new();
        let int_cols: Vec<Vec<&str>> = vec![
            vec!["1", "1,000"],
            vec!["2", "2,000"],
            vec!["3", "3,000"],
            vec!["7", "9"],
        ];
        let date_cols: Vec<Vec<&str>> = vec![
            vec!["2011-01-01", "2012-02-02"],
            vec!["2011/01/01", "2012/02/02"],
        ];
        for c in &int_cols {
            cols.push(c);
        }
        for c in &date_cols {
            cols.push(c);
        }
        let corpus = corpus_of(&cols);
        let stats = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &corpus,
            &StatsConfig::default(),
        );
        let compat = stats.score_values("4", "4,000", no_smooth());
        let incompat = stats.score_values("2013-03-03", "2013/03/03", no_smooth());
        assert!(compat > 0.0, "compat={compat}");
        assert!(incompat <= -0.99, "incompat={incompat}");
    }

    #[test]
    fn distinct_cap_limits_pairs() {
        let values: Vec<String> = (0..100).map(|i| format!("word{i}x")).collect();
        let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
        let corpus = corpus_of(&[&refs]);
        let config = StatsConfig {
            max_distinct_per_column: 8,
        };
        let stats = LanguageStats::build(Language::leaf(), &corpus, &config);
        let entries = stats.exact_cooc_entries().unwrap();
        assert!(entries <= 8 * 7 / 2, "got {entries} pairs");
    }

    #[test]
    fn sketch_backend_scores_close_to_exact() {
        let mut cols: Vec<Vec<String>> = Vec::new();
        for i in 0..200 {
            cols.push(vec![format!("{i}"), format!("{},000", i)]);
        }
        let corpus = Corpus::from_columns(
            cols.iter()
                .map(|c| Column::new(c.clone(), SourceTag::Web))
                .collect(),
        );
        let exact = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &corpus,
            &StatsConfig::default(),
        );
        let mut sketched = exact.clone();
        sketched.compress_cooccurrence(SketchSpec {
            budget_bytes: 1 << 16,
            ..SketchSpec::default()
        });
        let se = exact.score_values("7", "7,000", no_smooth());
        let ss = sketched.score_values("7", "7,000", no_smooth());
        assert!((se - ss).abs() < 0.1, "exact {se} vs sketch {ss}");
    }

    #[test]
    fn compress_cooccurrence_shrinks_size() {
        let mut cols: Vec<Vec<String>> = Vec::new();
        for i in 0..500 {
            cols.push(vec![
                format!("a{i}"),
                format!("b{i}"),
                format!("c{i}"),
                format!("d{i}"),
            ]);
        }
        let corpus = Corpus::from_columns(
            cols.into_iter()
                .map(|c| Column::new(c, SourceTag::Web))
                .collect(),
        );
        let mut stats = LanguageStats::build(Language::leaf(), &corpus, &StatsConfig::default());
        let before = stats.size_bytes();
        stats.compress_cooccurrence(SketchSpec {
            budget_bytes: 1 << 12,
            ..SketchSpec::default()
        });
        let after = stats.size_bytes();
        assert!(after < before, "before {before} after {after}");
    }

    #[test]
    fn empty_values_ignored() {
        let c = corpus_of(&[&["", "x", ""]]);
        let stats = LanguageStats::build(Language::leaf(), &c, &StatsConfig::default());
        assert_eq!(stats.distinct_patterns(), 1);
    }

    #[test]
    fn npmi_matrix_matches_pairwise_scores() {
        let c = corpus_of(&[
            &["1", "1,000"],
            &["2", "2,000"],
            &["2011-01-01", "2012-02-02"],
            &["2011/01/01", "2012/02/02"],
        ]);
        let stats = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &c,
            &StatsConfig::default(),
        );
        let params = NpmiParams::default();
        let patterns = [
            stats.pattern_of("7"),
            stats.pattern_of("9,000"),
            stats.pattern_of("2013-03-03"),
        ];
        let m = stats.npmi_matrix(&patterns, params, None);
        assert_eq!(m.dim, 3);
        assert_eq!(m.probes, 3); // C(3, 2)
        assert_eq!(m.memo_hits, 0);
        for i in 0..3 {
            assert_eq!(m.at(i, i), 1.0);
            for j in 0..3 {
                assert_eq!(m.at(i, j), m.at(j, i));
                if i != j {
                    assert_eq!(
                        m.at(i, j),
                        stats.npmi_patterns(patterns[i], patterns[j], params)
                    );
                }
            }
        }
    }

    #[test]
    fn npmi_matrix_equals_pairwise_scores_bit_for_bit_on_unseen_patterns() {
        // `a*` occur in one column each, `b*` in ten, `shared` in all 30;
        // `c0` and `c1` occur once, together. `zz*` were never counted.
        let mut cols: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("a{i}"), format!("b{}", i % 3), "shared".to_string()])
            .collect();
        cols.push(vec!["c0".to_string(), "c1".to_string()]);
        let corpus = Corpus::from_columns(
            cols.into_iter()
                .map(|c| Column::new(c, SourceTag::Web))
                .collect(),
        );
        let exact = LanguageStats::build(Language::leaf(), &corpus, &StatsConfig::default());
        // A sketch this small estimates some never-seen pairs above 0.
        let mut sketched = exact.clone();
        sketched.compress_cooccurrence(SketchSpec {
            budget_bytes: 64,
            depth: 2,
            ..SketchSpec::default()
        });
        let unseen: Vec<String> = (0..12).map(|i| format!("zz{i}")).collect();
        let mixed: Vec<String> = [
            "a0", "a1", "a2", "b0", "b1", "shared", "c0", "c1", "zz0", "zz1",
        ]
        .iter()
        .map(|v| v.to_string())
        .collect();
        let params = NpmiParams::default();
        let mut sketch_saw_unseen_pair = false;
        for (backend, stats) in [("exact", &exact), ("sketched", &sketched)] {
            for (shape, values) in [("unseen", &unseen), ("mixed", &mixed)] {
                let patterns: Vec<PatternHash> =
                    values.iter().map(|v| stats.pattern_of(v)).collect();
                let dim = patterns.len();
                let m = stats.npmi_matrix(&patterns, params, None);
                assert_eq!(m.probes, (dim * (dim - 1) / 2) as u64, "{backend} {shape}");
                assert_eq!(m.memo_hits, 0);
                for i in 0..dim {
                    for j in 0..dim {
                        let want = if i == j {
                            1.0
                        } else {
                            stats.npmi_patterns(patterns[i], patterns[j], params)
                        };
                        assert_eq!(
                            m.at(i, j).to_bits(),
                            want.to_bits(),
                            "{backend} {shape} ({}, {})",
                            values[i],
                            values[j]
                        );
                        if backend == "sketched"
                            && i != j
                            && stats.occurrence(patterns[i]) == 0
                            && stats.cooccurrence(patterns[i], patterns[j]) > 0
                        {
                            sketch_saw_unseen_pair = true;
                        }
                    }
                }
            }
        }
        assert!(
            sketch_saw_unseen_pair,
            "the sketch estimated no unseen pair above 0"
        );
    }

    #[test]
    fn npmi_matrix_memo_reuses_scores_across_calls() {
        let c = corpus_of(&[&["1", "1,000"], &["2", "2,000"]]);
        let stats = LanguageStats::build(
            adt_patterns::crude::crude_language(),
            &c,
            &StatsConfig::default(),
        );
        let params = NpmiParams::default();
        let patterns = [
            stats.pattern_of("7"),
            stats.pattern_of("9,000"),
            stats.pattern_of("x"),
        ];
        let mut memo = crate::NpmiMemo::new();
        let cold = stats.npmi_matrix(&patterns, params, Some(&mut memo));
        assert_eq!(cold.probes, 3);
        assert_eq!(cold.memo_hits, 0);
        let warm = stats.npmi_matrix(&patterns, params, Some(&mut memo));
        assert_eq!(warm.probes, 0);
        assert_eq!(warm.memo_hits, 3);
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn coarser_language_fewer_patterns() {
        let c = corpus_of(&[
            &["2011-01-01", "2012-02-02", "abc", "XYZ"],
            &["1", "2", "3,000"],
        ]);
        let fine = LanguageStats::build(Language::leaf(), &c, &StatsConfig::default());
        let coarse = LanguageStats::build(Language::root(), &c, &StatsConfig::default());
        assert!(coarse.distinct_patterns() <= fine.distinct_patterns());
    }
}
