//! Streaming co-occurrence accumulation: bounded-memory sketch-backed
//! per-language accumulators with per-language auto-sizing.
//!
//! The default pipeline ([`CoocMode::Deferred`]) accumulates **exact**
//! pair dictionaries, one per language; training's `sketch_fraction`
//! compresses only the selected languages, at model assembly. Peak
//! memory is therefore O(distinct pairs) — fine for benchmark corpora,
//! fatal for the paper's 350M-column web regime. [`CoocMode::Streaming`]
//! instead gives each language's pipeline task a [`CountMinSketch`]
//! accumulator: pair counts stream straight into the counter table (the
//! exact table is never materialized), giving O(width × depth) memory
//! per language at any corpus size.
//!
//! Determinism: streaming sketches always use [`UpdateStrategy::Plain`].
//! Plain updates are commutative, associative cell additions (saturating
//! adds of non-negative counters), so a table is a pure function of the
//! multiset of inserted pairs. Conservative updates are order-dependent
//! and only safe in the sorted-replay compression of `sketch_fraction`.
//!
//! Geometry lives here and nowhere else: every sketch is `DEPTH` rows
//! over one seeded hash family, with a per-language width. Auto-sizing
//! (in place of the global `sketch_fraction` heuristic): per language,
//! the planner reads the distinct-pattern count off the
//! already-computed generalization matrix, bounds the insertable pair
//! mass from the per-column distinct-value layout, and fits the
//! power-law exponent `α` of pair counts on a deterministic strided
//! column sample ([`powerlaw_alpha`]). The width for the target
//! `ε = 1/1024` is the worst-case `⌈e/ε⌉` sharpened by the observed
//! skew — heavy-tailed count distributions concentrate mass on few
//! keys, so `(e/ε)^(1/α)` cells suffice in practice (§3.4's
//! observation) — then clamped to `[MIN_WIDTH, MAX_WIDTH]` and to the
//! exact table's own footprint so a streaming build never costs more
//! memory than the table it replaces. Every input to the plan is a pure
//! function of the interned corpus and the language, so plans (and
//! therefore results) are identical at any thread count or language
//! batch size.

use crate::fxhash::FxHashMap;
use crate::language_stats::{LanguageStats, StatsConfig};
use crate::store::{CoocBackend, COOC_ENTRY_BYTES};
use adt_patterns::{Language, PatternHash};
use adt_sketch::{powerlaw_alpha, CountMinSketch, UpdateStrategy};

/// How the pipeline accumulates co-occurrence counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoocMode {
    /// Accumulate exact pair dictionaries; peak memory is O(distinct
    /// pairs). Training's `sketch_fraction` compresses the selected
    /// languages into count-min sketches at model assembly (sorted
    /// replay); without it the model keeps exact counts.
    #[default]
    Deferred,
    /// Each language's task accumulates straight into a count-min
    /// sketch, auto-sized per batch; the exact pair table is never
    /// materialized. Peak memory is O(width × depth) per language per
    /// worker at any corpus size.
    Streaming,
}

/// Target additive-error fraction: estimates exceed true counts by at
/// most `ε·N` (N = inserted pair mass) with probability `1−δ`, before
/// power-law sharpening.
const EPSILON: f64 = 1.0 / 1024.0;
/// Sketch rows; `δ = e^−depth`.
pub(crate) const DEPTH: usize = 4;
/// Seed for the row-hash family.
const SEED: u64 = 0xC0FFEE;
/// Lower clamp on auto-sized widths.
pub(crate) const MIN_WIDTH: usize = 64;
/// Upper clamp on auto-sized widths.
pub(crate) const MAX_WIDTH: usize = 1_048_576;

/// Per-batch sketch widths chosen by [`plan_batch`], one per batch
/// language; every sketch is `DEPTH` rows deep.
#[derive(Debug, Clone)]
pub(crate) struct StreamingPlan {
    /// Counter-row width per batch language.
    pub widths: Vec<usize>,
    /// Fitted power-law exponent per batch language (`0.0` when the
    /// sample was too small to fit; the width then uses the worst-case
    /// exponent `1`).
    pub alphas: Vec<f64>,
}

/// Columns sampled (deterministic stride) for the power-law fit.
const MAX_SAMPLE_COLUMNS: usize = 128;

/// Bytes of a `width × depth` u32 counter table.
pub(crate) fn sketch_table_bytes(width: usize, depth: usize) -> usize {
    width
        .saturating_mul(depth)
        .saturating_mul(std::mem::size_of::<u32>())
}

fn clamp_width(raw: f64) -> usize {
    raw.clamp(MIN_WIDTH as f64, MAX_WIDTH as f64) as usize
}

/// A fresh streaming accumulator: empty occurrence dictionary
/// (occurrences stay exact — they are linear in distinct patterns, not
/// quadratic) over a plain-update sketch `width` cells wide.
pub(crate) fn accumulator(language: Language, width: usize) -> LanguageStats {
    let cms = CountMinSketch::new(width.max(1), DEPTH, UpdateStrategy::Plain, SEED);
    LanguageStats::from_parts(language, 0, FxHashMap::default(), CoocBackend::Sketch(cms))
}

/// Chooses auto-sized per-language sketch widths for one language
/// batch.
///
/// `matrix` is the phase-2 generalization matrix (`n_values × k`
/// row-major, `k = batch.len()`); `col_offsets`/`col_ids` are the
/// interned per-column distinct-value layout. Everything read here is
/// already deterministic, so the plan — and with it the streamed result
/// — is independent of thread count and batch partitioning.
pub(crate) fn plan_batch(
    batch: &[Language],
    matrix: &[PatternHash],
    n_values: usize,
    col_offsets: &[usize],
    col_ids: &[u32],
    config: &StatsConfig,
) -> StreamingPlan {
    let k = batch.len();
    // Upper bound on insertable pair mass, from column sizes alone: a
    // column with d distinct values contributes at most C(min(d, cap), 2)
    // pairs under any language (generalization only collapses values).
    let cap = config.max_distinct_per_column.max(2) as u64;
    let mut pair_mass = 0u64;
    for (&lo, &hi) in col_offsets.iter().zip(col_offsets.iter().skip(1)) {
        let d = (hi.saturating_sub(lo) as u64).min(cap);
        pair_mass = pair_mass.saturating_add(d.saturating_mul(d.saturating_sub(1)) / 2);
    }

    let samples = sample_pair_counts(batch, matrix, col_offsets, col_ids, config);
    let mut widths = Vec::with_capacity(k);
    let mut alphas = Vec::with_capacity(k);
    let mut column: Vec<PatternHash> = Vec::with_capacity(n_values);
    for j in 0..k {
        // Distinct patterns of language j: dedup its matrix column.
        column.clear();
        let mut cell = j;
        while let Some(&h) = matrix.get(cell) {
            column.push(h);
            cell = cell.saturating_add(k);
        }
        column.sort_unstable();
        column.dedup();
        let distinct = column.len() as u64;
        let alpha = samples
            .get(j)
            .and_then(|counts| powerlaw_alpha(counts, 2))
            .map(|a| a.clamp(1.0, 4.0));
        widths.push(auto_width(distinct, pair_mass, alpha));
        alphas.push(alpha.unwrap_or(0.0));
    }
    StreamingPlan { widths, alphas }
}

/// Width for one language: worst-case `e/ε` sharpened by the fitted
/// exponent, clamped to `[MIN_WIDTH, MAX_WIDTH]` and to the exact
/// table's own cell-equivalent footprint (a sketch wider than the exact
/// dictionary it replaces defeats the purpose).
fn auto_width(distinct: u64, pair_mass: u64, alpha: Option<f64>) -> usize {
    let base = std::f64::consts::E / EPSILON;
    let sharpened = base.powf(1.0 / alpha.unwrap_or(1.0).max(1.0));
    // Distinct pairs can't exceed C(distinct, 2) nor the corpus-level
    // pair mass; their exact dictionary would occupy `pairs × 24` bytes,
    // i.e. this many sketch cells:
    let pairs = distinct
        .saturating_mul(distinct.saturating_sub(1))
        .wrapping_div(2)
        .min(pair_mass)
        .max(1);
    let cells = sketch_table_bytes(1, DEPTH);
    let exact_equiv = pairs.saturating_mul(COOC_ENTRY_BYTES as u64) as f64 / cells as f64;
    clamp_width(sharpened.min(exact_equiv).ceil())
}

/// Exact pair counts of a deterministic strided column sample, one count
/// vector per batch language — the observations the power-law fit runs
/// on. Reuses the real absorb tail so the sample distribution matches
/// what the accumulators will actually see (cap subsampling included).
fn sample_pair_counts(
    batch: &[Language],
    matrix: &[PatternHash],
    col_offsets: &[usize],
    col_ids: &[u32],
    config: &StatsConfig,
) -> Vec<Vec<u64>> {
    let k = batch.len();
    let mut accs: Vec<LanguageStats> = batch.iter().map(|&l| LanguageStats::empty(l)).collect();
    let n_cols = col_offsets.len().saturating_sub(1);
    let stride = n_cols.div_ceil(MAX_SAMPLE_COLUMNS).max(1);
    let mut hashes: Vec<PatternHash> = Vec::new();
    let mut c = 0usize;
    while c < n_cols {
        let bounds = col_offsets
            .get(c)
            .copied()
            .zip(col_offsets.get(c.saturating_add(1)).copied());
        if let Some((lo, hi)) = bounds {
            for (j, acc) in accs.iter_mut().enumerate() {
                hashes.clear();
                for &id in col_ids.get(lo..hi).into_iter().flatten() {
                    let cell = (id as usize).saturating_mul(k).saturating_add(j);
                    if let Some(&h) = matrix.get(cell) {
                        hashes.push(h);
                    }
                }
                acc.absorb_column_hashes(&mut hashes, config);
            }
        }
        c = c.saturating_add(stride);
    }
    accs.iter()
        .map(|acc| match acc.exact_cooc_pairs() {
            Some(entries) => entries.iter().map(|&(_, _, n)| n as u64).collect(),
            None => Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_patterns::enumerate_coarse_languages;

    #[test]
    fn table_bytes_saturate() {
        assert_eq!(sketch_table_bytes(8, 4), 128);
        assert_eq!(sketch_table_bytes(usize::MAX, 2), usize::MAX);
    }

    #[test]
    fn accumulator_is_plain_sketch_of_planned_geometry() {
        let acc = accumulator(adt_patterns::Language::leaf(), 96);
        let cms = acc.cooc_sketch().expect("sketch backend");
        assert_eq!(cms.width(), 96);
        assert_eq!(cms.depth(), DEPTH);
        assert_eq!(cms.strategy(), UpdateStrategy::Plain);
        assert_eq!(acc.n_columns, 0);
        assert_eq!(acc.distinct_patterns(), 0);
    }

    #[test]
    fn auto_width_sharpens_with_alpha_and_caps_at_exact_footprint() {
        // Worst case (no fit) on a huge table: the full ⌈e/ε⌉ width.
        let worst = auto_width(100_000, u64::MAX, None);
        assert_eq!(worst, (std::f64::consts::E * 1024.0).ceil() as usize);
        assert!((MIN_WIDTH..=MAX_WIDTH).contains(&worst));
        // A steep power law shrinks the width.
        let sharp = auto_width(100_000, u64::MAX, Some(2.0));
        assert!(sharp < worst, "sharp {sharp} vs worst {worst}");
        assert!(sharp >= MIN_WIDTH);
        // Few distinct patterns: never wider than the exact dictionary's
        // cell-equivalent footprint — C(10,2) = 45 pairs × 24B over
        // 4 × 4B cells per width unit → ⌈67.5⌉ = 68 cells.
        let small = auto_width(10, u64::MAX, None);
        assert_eq!(small, 68);
        // And the min-width clamp catches the degenerate end.
        let degenerate = auto_width(2, u64::MAX, None);
        assert_eq!(degenerate, MIN_WIDTH);
    }

    #[test]
    fn plan_is_deterministic_and_batch_independent() {
        // Hand-built layout: 4 values, 2 columns each holding all 4.
        let langs = enumerate_coarse_languages();
        let batch = &langs[..2];
        let k = batch.len();
        let matrix: Vec<PatternHash> = (0..4usize)
            .flat_map(|v| (0..k).map(move |j| PatternHash((v as u64 + 1) * 31 + j as u64)))
            .collect();
        let col_offsets = [0usize, 4, 8];
        let col_ids = [0u32, 1, 2, 3, 0, 1, 2, 3];
        let config = StatsConfig::default();
        let a = plan_batch(batch, &matrix, 4, &col_offsets, &col_ids, &config);
        let b = plan_batch(batch, &matrix, 4, &col_offsets, &col_ids, &config);
        assert_eq!(a.widths, b.widths);
        assert_eq!(a.alphas, b.alphas);
        assert!(a.widths.iter().all(|&w| w >= MIN_WIDTH));
    }
}
