//! One-pass training pipeline: value-interned, multi-language statistics
//! construction with one worker per language.
//!
//! The per-language scan ([`LanguageStats::build`]) walks the whole corpus
//! once *per candidate language* — 144 full passes for the paper's
//! restricted space, each re-deduplicating every column and re-hashing
//! every value. This module inverts the loop to corpus-major order:
//!
//! 1. **Intern** (once per corpus): collect the distinct non-empty values
//!    corpus-wide and replace every column by a list of compact `u32`
//!    value ids, in one serial pass (a few milliseconds per train). The
//!    caller's *probe values* are interned after them: values the
//!    consumer wants pattern hashes of (training passes the training
//!    set's distinct values). No column references a probe, so probes
//!    change no statistic.
//! 2. **Generalize** (once per language batch): for a batch of `K`
//!    candidate languages, compute all `K` pattern hashes of every
//!    interned value in a single character traversal per value
//!    ([`MultiGeneralizer`]), filling an `n_values × K` hash matrix in
//!    parallel chunks. Work is proportional to *distinct* values, not
//!    value occurrences — corpora repeat values heavily, so this is the
//!    big algorithmic win over the per-column scan.
//! 3. **Accumulate and consume** (once per language batch): one task per
//!    batch language, claimed by workers from a shared cursor. A task
//!    reads the language's column of the hash matrix and first
//!    *prepares* every column (gather, sort, dedup, strided subsample)
//!    into one flat buffer, summing `k(k−1)/2` over the prepared
//!    columns; it then sizes the exact pair table once for that many
//!    pairs, so the table never rehashes while it grows, and *counts*
//!    every column in column order. Both steps are the
//!    [`LanguageStats::absorb_column_hashes`] tail the serial scan uses,
//!    split in two. No language has a second accumulator, so there is no
//!    merge phase, and the exact pair map is built in the serial build's
//!    order: the result is **bit-identical** to the serial per-language
//!    build at any thread count. The same task then hands the finished
//!    statistics, with the language's hashes of the probes, straight to
//!    the caller's consumer. Parallelism is capped at the batch size
//!    (see [`PipelineOptions::lang_batch`]).
//!
//! Memory is bounded by `lang_batch` and `threads`: the hash matrix
//! exists for one batch of languages at a time, and a consumer that
//! drops its statistics (training's calibration does) keeps at most one
//! accumulator per worker alive.
//!
//! Co-occurrence is always counted exactly here. Count-min compression
//! (§3.4) happens later, at model assembly, for the selected languages
//! only (`sketch_fraction` in training).

use crate::fxhash::FxHashMap;
use crate::language_stats::{prepare_column_hashes, LanguageStats, StatsConfig};
use adt_corpus::Corpus;
use adt_patterns::{Language, MultiGeneralizer, PatternHash};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Tuning knobs for the training pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Worker threads for every parallel phase; `0` means all available
    /// cores. Results are identical at any setting.
    pub threads: usize,
    /// Languages generalized and accumulated per batch. Bounds peak
    /// memory: the hash matrix is batch-sized, and so are the
    /// accumulators when the consumer keeps its statistics; a consumer
    /// that drops them keeps only one accumulator per worker alive.
    /// Results are independent of the batch size. The accumulate phase
    /// runs one task per batch language, so it uses at most `lang_batch`
    /// workers whatever `threads` says; the default of 12 covers every
    /// caller in the tree.
    pub lang_batch: usize,
}

/// How the pipeline accumulates co-occurrence counts. There is one
/// mode: exact pair dictionaries, compressed at model assembly when
/// training's `sketch_fraction` is set.
///
/// Kept only because the `perfbench/` train workload names it; the
/// benchmark-harness change (ROADMAP item 5) deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoocMode {
    /// Exact pair dictionaries; peak memory is O(distinct pairs).
    #[default]
    Deferred,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 0,
            lang_batch: 12,
        }
    }
}

/// Resolves a requested thread count: `0` means all available cores.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Observability counters for one pipeline run. Timing fields are
/// wall-clock diagnostics; every other field is a pure function of the
/// corpus, the language set, and the options.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineReport {
    /// Corpus columns scanned.
    pub columns: u64,
    /// Per-column distinct non-empty value entries (what the per-language
    /// scan would hash per language without a memo).
    pub value_occurrences: u64,
    /// Corpus-wide distinct non-empty values (what the pipeline actually
    /// generalizes per language, apart from probe values no column
    /// holds).
    pub interned_values: u64,
    /// Candidate languages processed.
    pub languages: u64,
    /// Language batches run.
    pub batches: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Value generalizations performed: hash-matrix rows × languages,
    /// where the rows are the interned corpus values plus any probe
    /// value no column holds.
    pub generalizations_performed: u64,
    /// Generalizations avoided versus a memo-less per-language scan
    /// (`(value_occurrences − interned_values) × languages`).
    pub generalizations_saved: u64,
    /// Wall-clock nanoseconds interning values.
    pub intern_nanos: u64,
    /// Wall-clock nanoseconds filling hash matrices.
    pub generalize_nanos: u64,
    /// Wall-clock nanoseconds of the accumulate phase: building every
    /// language's statistics over all columns *and* consuming them,
    /// since each language is consumed on the task that built it.
    pub accumulate_nanos: u64,
    /// Always 0: each language has one accumulator, so nothing merges.
    /// Kept only because the `perfbench/` train workload reads it; the
    /// benchmark-harness change (ROADMAP item 5) deletes it.
    pub merge_nanos: u64,
    /// Nanoseconds spent inside the consumer (training scores and
    /// calibrates each language there), measured per call and summed
    /// over workers: a share of `accumulate_nanos` per worker, so with
    /// several workers it can exceed that wall-clock figure.
    pub consume_nanos: u64,
    /// Largest per-batch sum of the batch's per-language co-occurrence
    /// accumulator bytes: an upper bound on the live accumulator bytes,
    /// reached when a consumer keeps every language of a batch (a
    /// consumer that drops them holds at most one per worker).
    /// Deterministic, and independent of the thread count.
    pub peak_cooc_bytes: u64,
}

impl PipelineReport {
    /// Folds the report of another pipeline run over the same corpus into
    /// this one (training's calibration and assembly passes). The corpus
    /// counts `columns`, `value_occurrences` and `interned_values`
    /// describe that one corpus, so they take the larger side (equal for
    /// two runs over it; a default report takes the other's) rather than
    /// counting it twice. Work counters add saturating — a report must
    /// never wrap into nonsense on pathological inputs; `threads` and
    /// the peak take the maximum.
    pub fn absorb(&mut self, other: &PipelineReport) {
        self.columns = self.columns.max(other.columns);
        self.value_occurrences = self.value_occurrences.max(other.value_occurrences);
        self.interned_values = self.interned_values.max(other.interned_values);
        self.languages = self.languages.saturating_add(other.languages);
        self.batches = self.batches.saturating_add(other.batches);
        self.threads = self.threads.max(other.threads);
        self.generalizations_performed = self
            .generalizations_performed
            .saturating_add(other.generalizations_performed);
        self.generalizations_saved = self
            .generalizations_saved
            .saturating_add(other.generalizations_saved);
        self.intern_nanos = self.intern_nanos.saturating_add(other.intern_nanos);
        self.generalize_nanos = self.generalize_nanos.saturating_add(other.generalize_nanos);
        self.accumulate_nanos = self.accumulate_nanos.saturating_add(other.accumulate_nanos);
        self.merge_nanos = self.merge_nanos.saturating_add(other.merge_nanos);
        self.consume_nanos = self.consume_nanos.saturating_add(other.consume_nanos);
        self.peak_cooc_bytes = self.peak_cooc_bytes.max(other.peak_cooc_bytes);
    }
}

/// Errors from the parallel training pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// A worker thread panicked during the named phase; partial results
    /// were discarded.
    WorkerPanicked(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::WorkerPanicked(phase) => {
                write!(f, "statistics worker panicked during {phase}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

fn clock() -> Instant {
    Instant::now() // adt-allow(determinism): wall-clock feeds pipeline timing counters only, never statistics
}

/// The corpus-major training pipeline: intern once, then run language
/// batches against the interned corpus. Construction performs the intern
/// pass; [`TrainPipeline::run`] (or [`TrainPipeline::run_batch`]) does
/// the per-language work.
pub struct TrainPipeline<'c> {
    threads: usize,
    lang_batch: usize,
    /// Interned values: the corpus-wide distinct non-empty values first,
    /// then the probe values no column holds.
    values: Vec<&'c str>,
    /// How many leading `values` come from the corpus.
    corpus_values: usize,
    /// Value id of each probe, in probe order.
    probe_ids: Vec<u32>,
    /// Per-column ranges into `col_ids` (`col_offsets[c]..col_offsets[c+1]`).
    col_offsets: Vec<usize>,
    /// Flattened per-column distinct value ids.
    col_ids: Vec<u32>,
    report: PipelineReport,
}

/// The id of `v` in `values`, appending it on first sight.
fn intern<'c>(map: &mut FxHashMap<&'c str, u32>, values: &mut Vec<&'c str>, v: &'c str) -> u32 {
    // adt-allow(unchecked-arithmetic): corpus-wide distinct-value count; 4 G distinct strings would exhaust memory long before the id wraps
    let next = values.len() as u32;
    *map.entry(v).or_insert_with(|| {
        values.push(v);
        next
    })
}

impl<'c> TrainPipeline<'c> {
    /// Interns the corpus (phase 1), then `probes`, and prepares the
    /// pipeline. Probes are values the consumer wants pattern hashes of
    /// (training calibrates on the training set's distinct values): they
    /// share the corpus's hash matrix, but no column references them, so
    /// they change no statistic. Pass `&[]` for none.
    pub fn new(
        corpus: &'c Corpus,
        probes: &[&'c str],
        opts: &PipelineOptions,
    ) -> Result<Self, StatsError> {
        let threads = effective_threads(opts.threads);
        let t0 = clock();
        let mut map: FxHashMap<&'c str, u32> = FxHashMap::default();
        let mut values: Vec<&'c str> = Vec::new();
        let mut col_offsets: Vec<usize> = Vec::with_capacity(corpus.len().saturating_add(1));
        col_offsets.push(0);
        let mut col_ids: Vec<u32> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        for col in corpus.columns() {
            seen.clear();
            for v in col.values.iter().filter(|v| !v.is_empty()) {
                seen.push(intern(&mut map, &mut values, v.as_str()));
            }
            // Dedup by id (= by value); the order within a column is
            // irrelevant because the absorb tail sorts anyway.
            seen.sort_unstable();
            seen.dedup();
            col_ids.extend_from_slice(&seen);
            col_offsets.push(col_ids.len());
        }
        let corpus_values = values.len();
        let probe_ids: Vec<u32> = probes
            .iter()
            .map(|&v| intern(&mut map, &mut values, v))
            .collect();
        drop(map);

        let report = PipelineReport {
            columns: corpus.len() as u64,
            value_occurrences: col_ids.len() as u64,
            interned_values: corpus_values as u64,
            threads: threads as u64,
            intern_nanos: t0.elapsed().as_nanos() as u64,
            ..PipelineReport::default()
        };
        Ok(TrainPipeline {
            threads,
            lang_batch: opts.lang_batch.max(1),
            values,
            corpus_values,
            probe_ids,
            col_offsets,
            col_ids,
            report,
        })
    }

    /// Counters accumulated so far.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// Effective language batch size.
    pub fn lang_batch(&self) -> usize {
        self.lang_batch
    }

    /// Runs every language in `languages` through the pipeline in batches
    /// of [`TrainPipeline::lang_batch`], consuming each finished
    /// [`LanguageStats`] with `f(global_index, stats, probe_hashes)`
    /// (indices into `languages`; `probe_hashes` are the language's
    /// pattern hashes of the probes, in probe order). Returns the results
    /// in input-language order.
    pub fn run<R, F>(
        &mut self,
        languages: &[Language],
        config: &StatsConfig,
        f: F,
    ) -> Result<Vec<R>, StatsError>
    where
        R: Send,
        F: Fn(usize, LanguageStats, &[PatternHash]) -> R + Sync,
    {
        let mut out = Vec::with_capacity(languages.len());
        let batch_size = self.lang_batch;
        for (bi, batch) in languages.chunks(batch_size).enumerate() {
            out.extend(self.run_batch(bi * batch_size, batch, config, &f)?);
        }
        Ok(out)
    }

    /// Runs one batch of languages: fills the hash matrix (phase 2), then
    /// runs one task per language that accumulates it over every column
    /// and consumes the result with
    /// `f(offset + batch_index, stats, probe_hashes)` (phase 3). Returns
    /// the results in batch order.
    pub fn run_batch<R, F>(
        &mut self,
        offset: usize,
        batch: &[Language],
        config: &StatsConfig,
        f: &F,
    ) -> Result<Vec<R>, StatsError>
    where
        R: Send,
        F: Fn(usize, LanguageStats, &[PatternHash]) -> R + Sync,
    {
        let k = batch.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        let n_values = self.values.len();

        // Phase 2: one character traversal per interned value (probes
        // included) emits the pattern hash under every language in the
        // batch.
        let t0 = clock();
        let generalizer = MultiGeneralizer::new(batch);
        let mut matrix: Vec<PatternHash> = vec![PatternHash(0); n_values * k];
        let chunk = n_values.div_ceil(self.threads).max(1);
        {
            let generalizer = &generalizer;
            let panicked = std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .values
                    .chunks(chunk)
                    .zip(matrix.chunks_mut(chunk * k))
                    .map(|(vals, out)| {
                        scope.spawn(move || {
                            let mut hasher = generalizer.hasher();
                            for (v, row) in vals.iter().zip(out.chunks_mut(k)) {
                                row.copy_from_slice(hasher.hash_value(v));
                            }
                        })
                    })
                    .collect();
                join_all(workers)
            });
            if panicked {
                return Err(StatsError::WorkerPanicked("generalize"));
            }
        }
        self.report.generalize_nanos += t0.elapsed().as_nanos() as u64;

        // Phase 3: one task per batch language. Each builds its
        // language's accumulator over every column in column order — the
        // order of the serial per-language build — so no second
        // accumulator exists, nothing merges, and the result is
        // byte-identical at any thread count. The task first prepares
        // every column into one flat buffer, so it knows the pair count
        // and sizes the exact pair table once, then counts, then hands
        // the finished statistics straight to `f`: when `f` drops them,
        // at most `min(threads, k)` accumulators are alive at once.
        let t1 = clock();
        let consume_nanos = AtomicU64::new(0);
        let done = {
            let matrix = &matrix;
            let col_offsets = &self.col_offsets;
            let col_ids = &self.col_ids;
            let probe_ids = &self.probe_ids;
            let consume_nanos = &consume_nanos;
            for_each_slot(batch.to_vec(), self.threads, "accumulate", |j, language| {
                let hash = |id: u32| matrix.get(id as usize * k + j).copied();
                let mut stats = LanguageStats::empty(language);
                accumulate_columns(&mut stats, hash, col_offsets, col_ids, config);
                let cooc_bytes = stats.cooc_bytes() as u64;
                let probe_hashes: Vec<PatternHash> =
                    probe_ids.iter().filter_map(|&id| hash(id)).collect();
                let t = clock();
                let r = f(offset + j, stats, &probe_hashes);
                consume_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                (r, cooc_bytes)
            })?
        };
        self.report.accumulate_nanos += t1.elapsed().as_nanos() as u64;
        self.report.consume_nanos += consume_nanos.into_inner();

        // The batch's accumulators summed: what phase 3 would hold if
        // every task ran at once, so an upper bound on the live bytes.
        let live: u64 = done.iter().map(|&(_, bytes)| bytes).sum();
        self.report.peak_cooc_bytes = self.report.peak_cooc_bytes.max(live);

        self.report.batches += 1;
        self.report.languages += k as u64;
        self.report.generalizations_performed += n_values as u64 * k as u64;
        self.report.generalizations_saved +=
            (self.col_ids.len() as u64).saturating_sub(self.corpus_values as u64) * k as u64;
        Ok(done.into_iter().map(|(r, _)| r).collect())
    }
}

/// Accumulates every column into `stats`, with `hash` giving a value
/// id's pattern hash under the language. Every column is prepared first,
/// into one flat buffer, so the exact pair table can be sized once for
/// the prepared columns' pairs; then the columns are counted in column
/// order, as the serial scan counts them.
fn accumulate_columns(
    stats: &mut LanguageStats,
    hash: impl Fn(u32) -> Option<PatternHash>,
    col_offsets: &[usize],
    col_ids: &[u32],
    config: &StatsConfig,
) {
    let mut prepared: Vec<PatternHash> = Vec::with_capacity(col_ids.len());
    let mut ends: Vec<usize> = Vec::with_capacity(col_offsets.len());
    let mut pairs = 0usize;
    for w in col_offsets.windows(2) {
        let start = prepared.len();
        let ids = col_ids.get(w[0]..w[1]).unwrap_or_default();
        prepared.extend(ids.iter().filter_map(|&id| hash(id)));
        let kept = prepare_column_hashes(prepared.get_mut(start..).unwrap_or_default(), config);
        prepared.truncate(start.saturating_add(kept));
        pairs = pairs.saturating_add(kept * kept.saturating_sub(1) / 2);
        ends.push(prepared.len());
    }
    stats.reserve_pairs(pairs);
    // Empty columns still count: each has an end, so it is counted with
    // no patterns, exactly like the serial scan.
    let mut start = 0usize;
    for &end in &ends {
        stats.count_prepared_column(prepared.get(start..end).unwrap_or_default());
        start = end;
    }
}

/// Runs `f(i, item)` over `items` on up to `threads` scoped workers that
/// claim items from a shared cursor, returning the results in item order.
/// A panic in `f` surfaces as [`StatsError::WorkerPanicked`] naming
/// `phase`.
fn for_each_slot<T, R, F>(
    items: Vec<T>,
    threads: usize,
    phase: &'static str,
    f: F,
) -> Result<Vec<R>, StatsError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(input) = inputs.get(i) else { break };
                    let Some(item) = lock(input).take() else {
                        continue;
                    };
                    let r = f(i, item);
                    if let Some(slot) = outputs.get(i) {
                        *lock(slot) = Some(r);
                    }
                })
            })
            .collect();
        join_all(workers)
    });
    if panicked {
        return Err(StatsError::WorkerPanicked(phase));
    }
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .ok_or(StatsError::WorkerPanicked(phase))
        })
        .collect()
}

/// Locks a work slot. A slot's `Option` is whole whether or not a worker
/// panicked while holding it, so poisoning is recovered from.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Joins every scoped worker and reports whether any panicked. Each one
/// is joined: `std::thread::scope` re-raises the panic of a thread left
/// unjoined.
pub fn join_all(workers: Vec<std::thread::ScopedJoinHandle<'_, ()>>) -> bool {
    workers
        .into_iter()
        .map(|w| w.join())
        .filter(Result::is_err)
        .count()
        > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::collect_stats_reference;
    use adt_corpus::{Column, SourceTag};
    use adt_patterns::{enumerate_coarse_languages, enumerate_restricted_languages};

    fn stats_bytes(s: &LanguageStats) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_binary(&mut buf).expect("in-memory write");
        buf
    }

    /// Pipeline output at several thread counts and batch sizes must be
    /// byte-identical (via the canonical sorted binary codec) to the
    /// serial per-language build.
    fn assert_differential(corpus: &Corpus, languages: &[Language], config: &StatsConfig) {
        let reference = collect_stats_reference(languages, corpus, config, 1).unwrap();
        let expect: Vec<Vec<u8>> = reference.iter().map(stats_bytes).collect();
        for threads in [1, 2, 4, 8] {
            for lang_batch in [1, 3, 64] {
                let opts = PipelineOptions {
                    threads,
                    lang_batch,
                };
                let mut pipe = TrainPipeline::new(corpus, &[], &opts).unwrap();
                let got = pipe.run(languages, config, |_, s, _| s).unwrap();
                assert_eq!(got.len(), languages.len());
                for ((lang, e), g) in languages.iter().zip(&expect).zip(&got) {
                    assert_eq!(g.language, *lang);
                    assert_eq!(
                        *e,
                        stats_bytes(g),
                        "diverged for {lang:?} (threads={threads}, lang_batch={lang_batch})"
                    );
                }
            }
        }
    }

    fn mixed_corpus() -> Corpus {
        let mut cols: Vec<Column> = Vec::new();
        for i in 0..40 {
            cols.push(Column::from_strs(
                &[&format!("{i}"), &format!("{i},000"), "x", ""],
                SourceTag::Web,
            ));
            cols.push(Column::from_strs(
                &[
                    &format!("{}-01-0{}", 1980 + i, i % 9 + 1),
                    &format!("{}/02/11", 1990 + i),
                    "café",
                    "naïve-Straße",
                ],
                SourceTag::PubXls,
            ));
        }
        // Duplicate-heavy columns exercise interning; an all-empty and a
        // zero-length column exercise the empty-absorb path.
        cols.push(Column::from_strs(&["x", "x", "x"], SourceTag::Web));
        cols.push(Column::from_strs(&["", "", ""], SourceTag::Web));
        cols.push(Column::from_strs(&[], SourceTag::Web));
        Corpus::from_columns(cols)
    }

    #[test]
    fn exact_backend_differential() {
        assert_differential(
            &mixed_corpus(),
            &enumerate_coarse_languages(),
            &StatsConfig::default(),
        );
    }

    /// More workers than batch languages: the idle workers must not
    /// change a byte (one language runs at up to 8 threads here).
    #[test]
    fn single_language_differential() {
        assert_differential(
            &mixed_corpus(),
            &[Language::paper_l1()],
            &StatsConfig::default(),
        );
    }

    /// One language per batch at 4 threads: every batch leaves three
    /// workers idle, and the result still matches the serial build.
    #[test]
    fn one_language_batches_differential() {
        let corpus = mixed_corpus();
        let langs = enumerate_coarse_languages();
        let config = StatsConfig::default();
        let reference = collect_stats_reference(&langs, &corpus, &config, 1).unwrap();
        let opts = PipelineOptions {
            threads: 4,
            lang_batch: 1,
        };
        let mut pipe = TrainPipeline::new(&corpus, &[], &opts).unwrap();
        let got = pipe.run(&langs, &config, |_, s, _| s).unwrap();
        assert_eq!(got.len(), langs.len());
        for (e, g) in reference.iter().zip(&got) {
            assert_eq!(
                stats_bytes(e),
                stats_bytes(g),
                "diverged for {:?}",
                e.language
            );
        }
        assert_eq!(pipe.report().batches, langs.len() as u64);
    }

    /// The exact (Deferred) peak no longer depends on how work splits
    /// over workers: it is the largest batch's sum of per-language
    /// accumulator bytes at every thread count.
    #[test]
    fn deferred_peak_is_thread_independent() {
        let corpus = mixed_corpus();
        let langs = enumerate_coarse_languages();
        let config = StatsConfig::default();
        let lang_batch = 4;
        let reference = collect_stats_reference(&langs, &corpus, &config, 1).unwrap();
        let expect = reference
            .chunks(lang_batch)
            .map(|batch| batch.iter().map(|s| s.cooc_bytes() as u64).sum::<u64>())
            .max()
            .unwrap();
        assert!(expect > 0);
        for threads in [1, 2, 4, 8] {
            let opts = PipelineOptions {
                threads,
                lang_batch,
            };
            let mut pipe = TrainPipeline::new(&corpus, &[], &opts).unwrap();
            let _ = pipe.run(&langs, &config, |_, s, _| s.n_columns).unwrap();
            assert_eq!(pipe.report().peak_cooc_bytes, expect, "threads={threads}");
            assert_eq!(pipe.report().merge_nanos, 0);
        }
    }

    #[test]
    fn stride_subsample_differential() {
        // Columns far over the distinct cap hit the strided subsample.
        let cols: Vec<Column> = (0..8)
            .map(|c| {
                let values: Vec<String> = (0..100)
                    .map(|i| format!("w{}-{}", c, "y".repeat(i % 17 + 1)))
                    .collect();
                Column::new(values, SourceTag::Web)
            })
            .collect();
        assert_differential(
            &Corpus::from_columns(cols),
            &enumerate_coarse_languages(),
            &StatsConfig {
                max_distinct_per_column: 6,
            },
        );
    }

    #[test]
    fn empty_corpus_differential() {
        assert_differential(
            &Corpus::new(),
            &enumerate_coarse_languages(),
            &StatsConfig::default(),
        );
    }

    /// Values chosen to stress the SWAR classifier underneath the whole
    /// pipeline: multibyte UTF-8 in every width, ASCII boundary bytes
    /// (0x00, 0x7F), empty values, and runs crossing 8-byte words — all
    /// must stay byte-identical to the serial reference at 1/2/4/8
    /// threads.
    #[test]
    fn utf8_heavy_corpus_differential() {
        let mut cols: Vec<Column> = Vec::new();
        for i in 0..24usize {
            cols.push(Column::from_strs(
                &[
                    &format!("日本語-{i:02}"),
                    &format!("café{}", "é".repeat(i % 5)),
                    &format!("naïve-Straße-{i}"),
                    &format!("😀{}😀", "x".repeat(i)),
                    "\u{0}\u{7f}\u{0}",
                    "",
                ],
                SourceTag::Web,
            ));
            cols.push(Column::from_strs(
                &[
                    &format!("{}{}", "A".repeat(i % 11), "7".repeat(17 - i % 11)),
                    &"-".repeat(i + 1),
                    "é日é",
                ],
                SourceTag::PubXls,
            ));
        }
        assert_differential(
            &Corpus::from_columns(cols),
            &enumerate_coarse_languages(),
            &StatsConfig::default(),
        );
    }

    /// Pins the stats-facing fast hash (`pattern_of`, i.e.
    /// `Pattern::hash_value`) to the scalar per-character reference so a
    /// classifier bug shared by both pipeline builds can't self-agree.
    #[test]
    fn pattern_of_matches_scalar_reference() {
        use adt_patterns::Pattern;
        let values = [
            "",
            "2011-01-01",
            "café",
            "naïve-Straße",
            "日本語123",
            "😀😀😀",
            "\u{0}\u{7f}",
            "AAAAAAAAAAAAAAAA7",
        ];
        for lang in enumerate_restricted_languages() {
            let stats = LanguageStats::empty(lang);
            for v in values {
                assert_eq!(
                    stats.pattern_of(v),
                    Pattern::generalize_reference(v, &lang).hash64(),
                    "value {v:?} under {}",
                    lang.id()
                );
            }
        }
    }

    /// Probe values: corpus values, values in no column, a duplicate
    /// and the empty string.
    const PROBES: [&str; 9] = [
        "x",
        "café",
        "1985-01-06",
        "never-in-the-corpus 42",
        "",
        "x",
        "日本語/12",
        "\u{0}\u{7f}",
        "9,999,999",
    ];

    /// A consumer receives its language's probe hashes from the hash
    /// matrix, equal to `Pattern::hash_value` of each probe, under every
    /// restricted-space language and at any thread count.
    #[test]
    fn probe_hashes_match_hash_value() {
        use adt_patterns::Pattern;
        let corpus = mixed_corpus();
        let langs = enumerate_restricted_languages();
        assert_eq!(langs.len(), 144);
        for threads in [1, 4] {
            let opts = PipelineOptions {
                threads,
                ..PipelineOptions::default()
            };
            let mut pipe = TrainPipeline::new(&corpus, &PROBES, &opts).unwrap();
            let got = pipe
                .run(&langs, &StatsConfig::default(), |_, _, hashes| {
                    hashes.to_vec()
                })
                .unwrap();
            for (lang, hashes) in langs.iter().zip(&got) {
                let expect: Vec<PatternHash> = PROBES
                    .iter()
                    .map(|v| Pattern::hash_value(v, lang))
                    .collect();
                assert_eq!(*hashes, expect, "{} at {threads} threads", lang.id());
            }
        }
    }

    /// Probes share the hash matrix but no column: every statistic is
    /// byte-identical to a run without them, and only the matrix rows
    /// of values absent from the corpus add generalizations.
    #[test]
    fn probes_change_no_statistics() {
        let corpus = mixed_corpus();
        let langs = enumerate_restricted_languages();
        let config = StatsConfig::default();
        let opts = PipelineOptions {
            threads: 2,
            ..PipelineOptions::default()
        };
        let mut plain = TrainPipeline::new(&corpus, &[], &opts).unwrap();
        let expect = plain
            .run(&langs, &config, |_, s, _| stats_bytes(&s))
            .unwrap();
        let mut probed = TrainPipeline::new(&corpus, &PROBES, &opts).unwrap();
        let got = probed
            .run(&langs, &config, |_, s, _| stats_bytes(&s))
            .unwrap();
        assert!(got == expect, "probes changed a statistic");
        let (p, q) = (plain.report(), probed.report());
        assert_eq!(q.interned_values, p.interned_values);
        assert_eq!(q.generalizations_saved, p.generalizations_saved);
        assert_eq!(q.peak_cooc_bytes, p.peak_cooc_bytes);
        // Five probe values are in no column: "never-in-the-corpus 42",
        // "", "日本語/12", "\u{0}\u{7f}" and "9,999,999".
        assert_eq!(
            q.generalizations_performed,
            (p.interned_values + 5) * langs.len() as u64
        );
    }

    #[test]
    fn full_restricted_space_small_corpus_differential() {
        let cols: Vec<Column> = (0..12)
            .map(|i| {
                Column::from_strs(
                    &[&format!("{}", 1900 + i), &format!("AbC{i}"), "#x?"],
                    SourceTag::Web,
                )
            })
            .collect();
        assert_differential(
            &Corpus::from_columns(cols),
            &enumerate_restricted_languages(),
            &StatsConfig::default(),
        );
    }

    #[test]
    fn report_counts_interning_wins() {
        let corpus = mixed_corpus();
        let langs = enumerate_coarse_languages();
        let opts = PipelineOptions {
            threads: 2,
            lang_batch: 4,
        };
        let mut pipe = TrainPipeline::new(&corpus, &[], &opts).unwrap();
        let _ = pipe
            .run(&langs, &StatsConfig::default(), |_, s, _| s.n_columns)
            .unwrap();
        let r = pipe.report();
        assert_eq!(r.columns, corpus.len() as u64);
        assert_eq!(r.languages, langs.len() as u64);
        assert_eq!(r.batches, langs.len().div_ceil(4) as u64);
        assert!(r.interned_values > 0);
        assert!(
            r.interned_values < r.value_occurrences,
            "duplicate-heavy corpus must intern fewer values than occurrences"
        );
        assert_eq!(r.generalizations_performed, r.interned_values * r.languages);
        assert_eq!(
            r.generalizations_saved,
            (r.value_occurrences - r.interned_values) * r.languages
        );
        assert_eq!(r.threads, 2);
    }

    #[test]
    fn report_absorb_adds_counts() {
        let mut a = PipelineReport {
            columns: 10,
            languages: 4,
            threads: 2,
            consume_nanos: 700,
            ..PipelineReport::default()
        };
        let b = PipelineReport {
            columns: 10,
            languages: 140,
            threads: 8,
            consume_nanos: 50,
            ..PipelineReport::default()
        };
        a.absorb(&b);
        // Two passes over one 10-column corpus still describe 10 columns.
        assert_eq!(a.columns, 10);
        assert_eq!(a.languages, 144);
        assert_eq!(a.threads, 8);
        assert_eq!(a.consume_nanos, 750);
    }

    #[test]
    fn report_absorb_saturates_and_keeps_the_peak() {
        let mut a = PipelineReport {
            languages: u64::MAX - 1,
            generalizations_saved: 3,
            peak_cooc_bytes: 10,
            ..PipelineReport::default()
        };
        let b = PipelineReport {
            languages: 5,
            generalizations_saved: u64::MAX,
            peak_cooc_bytes: 7,
            ..PipelineReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.languages, u64::MAX, "adds saturate instead of wrapping");
        assert_eq!(a.generalizations_saved, u64::MAX);
        assert_eq!(a.peak_cooc_bytes, 10, "peak takes the max");
        let mut c = PipelineReport::default();
        c.absorb(&b);
        assert_eq!(
            c.peak_cooc_bytes, 7,
            "a default report takes the other's peak"
        );
    }

    /// A consumer runs on the task that accumulates its language, so its
    /// panic surfaces as a typed error naming the accumulate phase.
    #[test]
    fn worker_panic_surfaces_as_error() {
        let corpus = mixed_corpus();
        let mut pipe = TrainPipeline::new(&corpus, &[], &PipelineOptions::default()).unwrap();
        let langs = [Language::paper_l1(), Language::paper_l2()];
        let err = pipe
            .run(&langs, &StatsConfig::default(), |i, _, _| {
                assert!(i < 10, "boom"); // never trips
                if i == 1 {
                    panic!("consume panic");
                }
                i
            })
            .unwrap_err();
        assert_eq!(err, StatsError::WorkerPanicked("accumulate"));
    }

    #[test]
    fn stats_error_displays() {
        let e = StatsError::WorkerPanicked("intern");
        assert!(e.to_string().contains("intern"));
    }
}
