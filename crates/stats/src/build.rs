//! Batch statistics construction across candidate languages.
//!
//! Language selection (§3.2) needs statistics for all 144 candidates.
//! These entry points run the corpus-major [`TrainPipeline`]: the corpus
//! (plus any probe values) is interned once, every interned value is
//! generalized under a whole batch of languages in one character
//! traversal, and each language accumulates over every column and is
//! consumed on its own task. Training's calibration and assembly
//! passes both run through [`for_each_language_stats`]. Results are
//! bit-identical to the per-language serial scan
//! ([`LanguageStats::build`]) at any thread count; the old
//! language-major fan-out survives as
//! [`collect_stats_reference`] behind `cfg(test)` for differential
//! tests.

use crate::language_stats::{LanguageStats, StatsConfig};
use crate::pipeline::{PipelineOptions, PipelineReport, StatsError, TrainPipeline};
use adt_corpus::Corpus;
use adt_patterns::{Language, PatternHash};

/// Builds statistics for every language in `languages` over `corpus`
/// through the pipeline, consuming each completed [`LanguageStats`] with
/// `f(language_index, stats, probe_hashes)` on the worker that built it
/// (`f` must be `Sync`). `probe_hashes` are the language's pattern
/// hashes of `probes`, in order, read from the pipeline's hash matrix —
/// equal to [`LanguageStats::pattern_of`] of each probe. The returned
/// results are in input-language order alongside the pipeline's counter
/// report.
pub fn for_each_language_stats<'c, R, F>(
    languages: &[Language],
    corpus: &'c Corpus,
    probes: &[&'c str],
    config: &StatsConfig,
    opts: &PipelineOptions,
    f: F,
) -> Result<(Vec<R>, PipelineReport), StatsError>
where
    R: Send,
    F: Fn(usize, LanguageStats, &[PatternHash]) -> R + Sync,
{
    let mut pipe = TrainPipeline::new(corpus, probes, opts)?;
    let out = pipe.run(languages, config, f)?;
    Ok((out, *pipe.report()))
}

/// Convenience: builds and collects statistics for all languages in
/// input order (memory-heavy; the whole language set's statistics are
/// alive at once).
pub fn collect_stats_for_languages(
    languages: &[Language],
    corpus: &Corpus,
    config: &StatsConfig,
    threads: usize,
) -> Result<Vec<LanguageStats>, StatsError> {
    let opts = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    Ok(for_each_language_stats(languages, corpus, &[], config, &opts, |_, s, _| s)?.0)
}

/// The pre-pipeline language-major build: one full corpus scan per
/// language, fanned out over scoped threads. Kept as the
/// ground truth for differential tests.
#[cfg(test)]
pub fn collect_stats_reference(
    languages: &[Language],
    corpus: &Corpus,
    config: &StatsConfig,
    threads: usize,
) -> Result<Vec<LanguageStats>, StatsError> {
    use crate::pipeline::join_all;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    let threads = threads.max(1).min(languages.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<LanguageStats>>> =
        (0..languages.len()).map(|_| Mutex::new(None)).collect();
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&lang) = languages.get(i) else { break };
                    let stats = LanguageStats::build(lang, corpus, config);
                    if let Some(slot) = slots.get(i) {
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(stats);
                    }
                })
            })
            .collect();
        join_all(workers)
    });
    if panicked {
        return Err(StatsError::WorkerPanicked("reference build"));
    }
    let mut out = Vec::with_capacity(languages.len());
    for slot in slots {
        let stats = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.push(stats.ok_or(StatsError::WorkerPanicked("reference build"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::{Column, SourceTag};
    use adt_patterns::enumerate_coarse_languages;

    fn small_corpus() -> Corpus {
        let cols: Vec<Column> = (0..50)
            .map(|i| {
                Column::from_strs(&[&format!("{i}"), &format!("{i},000"), "x"], SourceTag::Web)
            })
            .collect();
        Corpus::from_columns(cols)
    }

    fn stats_bytes(s: &LanguageStats) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_binary(&mut buf).expect("in-memory write");
        buf
    }

    #[test]
    fn pipeline_matches_reference_bit_for_bit() {
        let corpus = small_corpus();
        let langs = enumerate_coarse_languages();
        let config = StatsConfig::default();
        let reference = collect_stats_reference(&langs, &corpus, &config, 2).unwrap();
        for threads in [1, 2, 4, 8] {
            let pipeline = collect_stats_for_languages(&langs, &corpus, &config, threads).unwrap();
            assert_eq!(pipeline.len(), langs.len());
            for ((lang, r), p) in langs.iter().zip(&reference).zip(&pipeline) {
                assert_eq!(p.language, *lang);
                assert_eq!(
                    stats_bytes(r),
                    stats_bytes(p),
                    "stats diverged for {lang:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn for_each_indices_follow_input_order() {
        let corpus = small_corpus();
        let langs = enumerate_coarse_languages();
        let (indexed, report) = for_each_language_stats(
            &langs,
            &corpus,
            &[],
            &StatsConfig::default(),
            &PipelineOptions {
                threads: 2,
                lang_batch: 5, // force several batches
            },
            |i, s, _| (i, s.language),
        )
        .unwrap();
        let expect: Vec<(usize, adt_patterns::Language)> =
            langs.iter().copied().enumerate().collect();
        assert_eq!(indexed, expect);
        assert!(report.batches >= 2);
    }

    #[test]
    fn single_thread_works() {
        let corpus = small_corpus();
        let langs = [adt_patterns::Language::paper_l1()];
        let out = collect_stats_for_languages(&langs, &corpus, &StatsConfig::default(), 1).unwrap();
        assert_eq!(out.len(), 1);
    }
}
