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
//! language-major build survives, serial, as `collect_stats_reference`
//! behind `cfg(test)` for differential tests.

use crate::counts::LanguageCounts;
use crate::language_stats::{LanguageStats, StatsConfig};
use crate::pipeline::{PipelineOptions, PipelineReport, TrainPipeline};
use crate::pool::StatsError;
use adt_corpus::Corpus;
use adt_patterns::{Language, PatternHash};

/// Counts every language in `languages` over `corpus` through the
/// pipeline, consuming each language's finished [`LanguageCounts`] with
/// `f(language_index, counts, probe_hashes)` on the worker that counted
/// it (`f` must be `Sync`); a consumer that keeps statistics freezes
/// them ([`LanguageCounts::freeze`]). `probe_hashes` are the language's
/// pattern hashes of `probes`, in order, read from the pipeline's hash
/// matrix — equal to [`LanguageStats::pattern_of`] of each probe. The
/// returned results are in input-language order alongside the
/// pipeline's counter report.
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
    F: Fn(usize, LanguageCounts, &[PatternHash]) -> R + Sync,
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
    Ok(
        for_each_language_stats(languages, corpus, &[], config, &opts, |_, counts, _| {
            counts.freeze()
        })?
        .0,
    )
}

/// The pre-pipeline language-major build: one full serial corpus scan
/// per language ([`LanguageStats::build`]). Kept as the ground truth
/// for differential tests.
#[cfg(test)]
pub fn collect_stats_reference(
    languages: &[Language],
    corpus: &Corpus,
    config: &StatsConfig,
) -> Vec<LanguageStats> {
    languages
        .iter()
        .map(|&lang| LanguageStats::build(lang, corpus, config))
        .collect()
}

/// Value shapes the generated test corpora mix into WEB columns: shapes
/// that share patterns under coarse languages and differ under fine
/// ones, non-ASCII text and the empty value.
#[cfg(test)]
const EXTRA_SHAPES: [&str; 8] = [
    "[0-9]{1,4}",
    "[0-9]{1,2},[0-9]{3}",
    "[12][0-9]{3}-[01][0-9]-[0-3][0-9]",
    "[A-Z][a-z]{1,6}",
    "[a-z]{1,5}",
    "[A-Z]{2,3}-[0-9]{2}",
    "[é日x]{1,3}",
    "",
];

/// A generated corpus for differential tests: `web_columns` columns of a
/// small WEB profile drawn from `seed` (2–12 values each, some dirty),
/// then one column per entry of `extra`. Draw `extra` from
/// [`extra_columns`].
#[cfg(test)]
pub(crate) fn generated_corpus(seed: u64, web_columns: usize, extra: &[Vec<String>]) -> Corpus {
    use adt_corpus::{generate_corpus, Column, CorpusProfile, SourceTag};
    let mut profile = CorpusProfile::web(web_columns);
    profile.seed = seed;
    profile.min_len = 2;
    profile.max_len = 12;
    profile.dirty_rate = 0.3;
    let mut corpus = generate_corpus(&profile);
    for values in extra {
        corpus.push(Column::new(values.clone(), SourceTag::Web));
    }
    corpus
}

/// Up to five extra columns of [`EXTRA_SHAPES`] values for
/// [`generated_corpus`], empty columns and empty values among them.
#[cfg(test)]
pub(crate) fn extra_columns(g: &mut adt_rng::check::Gen) -> Vec<Vec<String>> {
    g.vec(0..6, |g| g.vec(0..14, |g| g.one_of(&EXTRA_SHAPES)))
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
        let reference = collect_stats_reference(&langs, &corpus, &config);
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
