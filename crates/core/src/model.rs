//! End-to-end training: distant supervision → per-candidate calibration →
//! greedy selection → final model assembly, plus binary persistence.

use crate::calibrate::{calibrate_language, Calibration};
use crate::config::AutoDetectConfig;
use crate::detector::{AutoDetect, SelectedLanguage};
use crate::error::AdtError;
use crate::selection::{greedy_select, CandidateSummary, SelectionResult};
use crate::training::{build_training_set, TrainingSet};
use adt_corpus::Corpus;
use adt_patterns::PatternHash;
use adt_stats::{LanguageStats, PipelineReport, StatsError};
use std::io;
use std::path::Path;

fn pipeline_error(e: StatsError) -> AdtError {
    let StatsError::WorkerPanicked(phase) = e;
    AdtError::Worker(phase)
}

/// Per-candidate training diagnostics.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Stable language id (see [`adt_patterns::Language::id`]).
    pub language_id: String,
    /// Exact statistics size in bytes.
    pub size_bytes: usize,
    /// Calibrated threshold, when one met the precision target.
    pub theta: Option<f64>,
    /// Covered incompatible examples at the threshold.
    pub coverage: usize,
    /// Training precision at the threshold.
    pub precision: f64,
}

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Training-set size.
    pub training_examples: usize,
    /// `|T⁺|`.
    pub positives: usize,
    /// `|T⁻|`.
    pub negatives: usize,
    /// Per-candidate diagnostics, in candidate order.
    pub candidates: Vec<CandidateReport>,
    /// Selection outcome.
    pub selection: SelectionResult,
    /// Ids of the selected languages, in pick order.
    pub selected_ids: Vec<String>,
    /// Final model size in bytes (after optional sketching).
    pub model_bytes: usize,
    /// Training-pipeline counters over the calibration and assembly
    /// passes: the corpus counts (`columns`, `value_occurrences`,
    /// `interned_values`) describe the corpus once, while the work
    /// counters (languages, batches, generalizations, phase times) are
    /// summed over both passes (see [`PipelineReport::absorb`]).
    pub pipeline: PipelineReport,
}

/// A training set interned for scoring: its distinct values once, each
/// example a pair of ids into them. Values repeat heavily across
/// examples, so scoring under a language hashes every distinct value
/// once and then scores examples by id.
pub(crate) struct InternedTrainingSet<'t> {
    values: Vec<&'t str>,
    pairs: Vec<(u32, u32)>,
}

impl<'t> InternedTrainingSet<'t> {
    /// Interns `training`'s values in first-seen order.
    pub(crate) fn new(training: &'t TrainingSet) -> Self {
        let mut ids: adt_stats::FxHashMap<&'t str, u32> = adt_stats::FxHashMap::default();
        let mut values: Vec<&'t str> = Vec::new();
        let mut intern = |v: &'t str| {
            let next = values.len() as u32;
            *ids.entry(v).or_insert_with(|| {
                values.push(v);
                next
            })
        };
        let pairs = training
            .examples
            .iter()
            .map(|e| (intern(&e.u), intern(&e.v)))
            .collect();
        InternedTrainingSet { values, pairs }
    }

    /// The distinct values, in id order.
    pub(crate) fn values(&self) -> &[&'t str] {
        &self.values
    }

    /// Scores every example under `stats`, in example order: exactly
    /// `stats.score_values(u, v, npmi)` per example, given
    /// `hashes[i] == stats.pattern_of(values()[i])`, as the training
    /// pipeline's probe hashes are.
    pub(crate) fn scores_from_hashes(
        &self,
        stats: &LanguageStats,
        hashes: &[PatternHash],
        npmi: adt_stats::NpmiParams,
    ) -> Vec<f64> {
        self.pairs
            .iter()
            .map(|&(u, v)| stats.npmi_patterns(hashes[u as usize], hashes[v as usize], npmi))
            .collect()
    }
}

/// Trains an Auto-Detect model on `corpus` under `config`.
///
/// Candidate statistics come from the corpus-major pipeline
/// (`adt_stats::TrainPipeline`): the corpus is interned once, every
/// distinct value is generalized under whole language batches in a
/// single traversal, and the languages of a batch accumulate on up to
/// `config.effective_train_threads()` workers, one language each. Each
/// worker calibrates the language it built and drops its statistics, so
/// at most one candidate's pair table per worker is alive; only the
/// selected languages are rebuilt for the final model.
///
/// Fails with [`AdtError::Config`] on an invalid configuration and
/// [`AdtError::Worker`] if a training worker thread panics.
pub fn train(
    corpus: &Corpus,
    config: &AutoDetectConfig,
) -> Result<(AutoDetect, TrainReport), AdtError> {
    config.validate()?;
    let (training, _crude) = build_training_set(corpus, config);
    train_with_training_set(corpus, config, &training)
}

/// One calibrated candidate language: the reusable product of training
/// phase 1 (stats scan + scoring + calibration).
#[derive(Debug, Clone)]
pub struct CalibratedCandidate {
    /// The candidate language.
    pub language: adt_patterns::Language,
    /// Exact statistics size in bytes (`size(L)`).
    pub size_bytes: usize,
    /// Calibration against the training set.
    pub calibration: Calibration,
}

/// Training phase 1: builds statistics for every candidate language
/// through the pipeline, scores the training set, and calibrates
/// thresholds. The expensive phase; its output can be reused across
/// memory budgets and aggregators (Figures 7 and 8(b)). Also returns the
/// pipeline's counter report.
pub fn calibrate_candidates_with_report(
    corpus: &Corpus,
    config: &AutoDetectConfig,
    training: &TrainingSet,
) -> Result<(Vec<CalibratedCandidate>, PipelineReport), AdtError> {
    config.validate()?;
    let languages = config.candidate_languages();
    let opts = config.train_pipeline_options();
    let interned = InternedTrainingSet::new(training);
    // The training set's distinct values ride along as pipeline probes,
    // so each candidate's hashes of them come from the hash matrix
    // instead of a second generalization pass per language.
    adt_stats::for_each_language_stats(
        &languages,
        corpus,
        interned.values(),
        &config.stats,
        &opts,
        |_, stats, hashes| {
            let scores = interned.scores_from_hashes(&stats, hashes, config.npmi);
            let calibration = calibrate_language(training, &scores, config.precision_target, 256);
            CalibratedCandidate {
                language: stats.language,
                size_bytes: stats.size_bytes(),
                calibration,
            }
        },
    )
    .map_err(pipeline_error)
}

/// [`calibrate_candidates_with_report`] without the counter report.
pub fn calibrate_candidates(
    corpus: &Corpus,
    config: &AutoDetectConfig,
    training: &TrainingSet,
) -> Result<Vec<CalibratedCandidate>, AdtError> {
    Ok(calibrate_candidates_with_report(corpus, config, training)?.0)
}

/// Training phases 2–3: greedy selection under the budget, then model
/// assembly: statistics for the selected languages only are rebuilt
/// through the pipeline, optionally compressed into sketches, and
/// packaged with their calibrations.
pub fn select_and_assemble(
    corpus: &Corpus,
    config: &AutoDetectConfig,
    training: &TrainingSet,
    pool: &[CalibratedCandidate],
) -> Result<(AutoDetect, TrainReport), AdtError> {
    // Phase 2: greedy selection under the memory budget.
    let summaries: Vec<CandidateSummary> = pool
        .iter()
        .enumerate()
        .map(|(i, c)| CandidateSummary {
            index: i,
            size_bytes: c.size_bytes,
            covered_negatives: c.calibration.covered_negatives.clone(),
        })
        .collect();
    let selection = greedy_select(&summaries, config.memory_budget);

    // Phase 3: rebuild stats for the selected languages (one pipeline
    // pass over the corpus), in pick order.
    let selected_languages: Vec<adt_patterns::Language> = selection
        .selected
        .iter()
        .filter_map(|&i| pool.get(i).map(|c| c.language))
        .collect();
    let opts = config.train_pipeline_options();
    let (rebuilt, pipeline) = adt_stats::for_each_language_stats(
        &selected_languages,
        corpus,
        &[],
        &config.stats,
        &opts,
        |_, s, _| s,
    )
    .map_err(pipeline_error)?;

    let reports: Vec<CandidateReport> = pool
        .iter()
        .map(|c| CandidateReport {
            language_id: c.language.id(),
            size_bytes: c.size_bytes,
            theta: c.calibration.theta,
            coverage: c.calibration.coverage(),
            precision: c.calibration.precision_at_theta,
        })
        .collect();

    let mut selected = Vec::with_capacity(selection.selected.len());
    for (&i, mut stats) in selection.selected.iter().zip(rebuilt) {
        if let Some(spec) = config.sketch_spec_for(stats.size_bytes()) {
            stats.compress_cooccurrence(spec);
        }
        let mut calibration: Calibration = pool
            .get(i)
            .map(|c| c.calibration.clone())
            .ok_or(AdtError::Worker("select_and_assemble"))?;
        // Coverage indices are a training artifact; drop them from the
        // shipped model to keep it small.
        calibration.covered_negatives = Vec::new();
        calibration.covered_negatives.shrink_to_fit();
        selected.push(SelectedLanguage { stats, calibration });
    }

    let model = AutoDetect {
        languages: selected,
        npmi: config.npmi,
        precision_target: config.precision_target,
        max_distinct_values: config.max_distinct_values,
    };
    let report = TrainReport {
        training_examples: training.len(),
        positives: training.positives(),
        negatives: training.negatives(),
        candidates: reports,
        selected_ids: selected_languages.iter().map(|l| l.id()).collect(),
        selection,
        model_bytes: model.size_bytes(),
        pipeline,
    };
    Ok((model, report))
}

/// Trains with a caller-provided training set (used by experiments that
/// reuse one training set across configurations). The report's pipeline
/// counters cover both the calibration and assembly passes.
pub fn train_with_training_set(
    corpus: &Corpus,
    config: &AutoDetectConfig,
    training: &TrainingSet,
) -> Result<(AutoDetect, TrainReport), AdtError> {
    let (pool, calibration_report) = calibrate_candidates_with_report(corpus, config, training)?;
    let (model, mut report) = select_and_assemble(corpus, config, training, &pool)?;
    report.pipeline.absorb(&calibration_report);
    Ok((model, report))
}

/// Maps a codec-layer error: structural validation failures surface as
/// [`AdtError::Corrupt`], everything else as I/O.
fn codec_error(e: io::Error) -> AdtError {
    if e.kind() == io::ErrorKind::InvalidData {
        AdtError::Corrupt(e.to_string())
    } else {
        AdtError::Io(e)
    }
}

/// Saves a model in the compact `ADM1` binary codec ([`codec`]), the one
/// model format, whatever the path's extension — relevant to the paper's
/// client-side deployment constraint.
///
/// The write is **atomic**: bytes go to a temporary file in the target
/// directory, which is renamed over `path` only after a successful
/// flush. A crash mid-train can never leave a truncated model where a
/// serving [`load_model`] (or a registry hot-reload) would find it —
/// readers see either the old complete file or the new complete file.
pub fn save_model<P: AsRef<Path>>(model: &AutoDetect, path: P) -> Result<(), AdtError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    // Same directory as the target so the rename cannot cross
    // filesystems (rename is only atomic within one).
    let tmp = path.with_file_name(format!(
        ".{}.tmp{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("model"),
        std::process::id()
    ));
    let result = (|| {
        let f = std::fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(f);
        codec::write_model(&mut w, model).map_err(codec_error)?;
        let f = w
            .into_inner()
            .map_err(|e| AdtError::Io(io::Error::other(e.to_string())))?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Loads a model saved by [`save_model`].
///
/// Errors are typed for callers that surface them to users or clients:
/// a missing file is [`AdtError::ModelNotFound`] and any unparsable file
/// is [`AdtError::ModelParse`] — both carry the offending path.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<AutoDetect, AdtError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let f = std::fs::File::open(path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            AdtError::ModelNotFound(display.clone())
        } else {
            AdtError::Io(e)
        }
    })?;
    codec::read_model(&mut io::BufReader::new(f)).map_err(|e| match codec_error(e) {
        // I/O failures while reading bytes stay I/O errors; everything
        // that means "the bytes are not a model" becomes ModelParse.
        AdtError::Io(io) if io.kind() != io::ErrorKind::UnexpectedEof => AdtError::Io(io),
        other => AdtError::ModelParse {
            path: display,
            detail: other.to_string(),
        },
    })
}

/// FNV-1a digest of a model's binary encoding; the golden-model tests
/// pin byte identity with it.
#[cfg(test)]
pub(crate) fn model_digest(model: &AutoDetect) -> u64 {
    let mut bytes = Vec::new();
    codec::write_model(&mut bytes, model).expect("in-memory write");
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Binary model codec (see `adt_stats::codec` for the statistics layer).
pub mod codec {
    use super::*;
    use crate::calibrate::Calibration;
    use crate::detector::SelectedLanguage;
    use adt_sketch::codec::{read_f64, read_varint, write_f64, write_varint, MAX_PREALLOC};
    use std::io::{Read, Write};

    /// Leading magic of the binary model format.
    pub const MODEL_MAGIC: &[u8; 4] = b"ADM1";

    fn write_calibration<W: Write>(w: &mut W, c: &Calibration) -> io::Result<()> {
        match c.theta {
            Some(t) => {
                w.write_all(&[1u8])?;
                write_f64(w, t)?;
            }
            None => w.write_all(&[0u8])?,
        }
        write_f64(w, c.precision_at_theta)?;
        write_varint(w, c.covered_positives as u64)?;
        // covered_negatives are a training artifact; the shipped model
        // clears them, so only the length (normally 0) is stored.
        write_varint(w, c.covered_negatives.len() as u64)?;
        for &i in &c.covered_negatives {
            write_varint(w, i as u64)?;
        }
        write_varint(w, c.curve.len() as u64)?;
        for &(s, p) in &c.curve {
            write_f64(w, s)?;
            write_f64(w, p)?;
        }
        Ok(())
    }

    fn read_calibration<R: Read>(r: &mut R) -> io::Result<Calibration> {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let theta = match tag[0] {
            0 => None,
            1 => Some(read_f64(r)?),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad theta tag")),
        };
        let precision_at_theta = read_f64(r)?;
        let covered_positives = read_varint(r)? as usize;
        let n_neg = read_varint(r)? as usize;
        if n_neg > (1 << 28) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "coverage too large",
            ));
        }
        let mut covered_negatives = Vec::with_capacity(n_neg.min(MAX_PREALLOC));
        for _ in 0..n_neg {
            covered_negatives.push(read_varint(r)? as u32);
        }
        let n_curve = read_varint(r)? as usize;
        if n_curve > (1 << 20) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "curve too large",
            ));
        }
        let mut curve = Vec::with_capacity(n_curve.min(MAX_PREALLOC));
        for _ in 0..n_curve {
            let s = read_f64(r)?;
            let p = read_f64(r)?;
            curve.push((s, p));
        }
        Ok(Calibration {
            theta,
            precision_at_theta,
            covered_negatives,
            covered_positives,
            curve,
        })
    }

    /// Writes a full model.
    pub fn write_model<W: Write>(w: &mut W, model: &AutoDetect) -> io::Result<()> {
        w.write_all(MODEL_MAGIC)?;
        write_f64(w, model.npmi.smoothing)?;
        write_f64(w, model.precision_target)?;
        write_varint(w, model.max_distinct_values as u64)?;
        write_varint(w, model.languages.len() as u64)?;
        for l in &model.languages {
            l.stats.write_binary(w)?;
            write_calibration(w, &l.calibration)?;
        }
        Ok(())
    }

    /// Reads a model written by [`write_model`].
    pub fn read_model<R: Read>(r: &mut R) -> io::Result<AutoDetect> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MODEL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad model magic",
            ));
        }
        let smoothing = read_f64(r)?;
        let precision_target = read_f64(r)?;
        let max_distinct_values = read_varint(r)? as usize;
        let n = read_varint(r)? as usize;
        if n > 4096 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many languages",
            ));
        }
        let mut languages = Vec::with_capacity(n);
        for _ in 0..n {
            let stats = LanguageStats::read_binary(r)?;
            let calibration = read_calibration(r)?;
            languages.push(SelectedLanguage { stats, calibration });
        }
        Ok(AutoDetect {
            languages,
            npmi: adt_stats::NpmiParams { smoothing },
            precision_target,
            max_distinct_values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::{generate_corpus, CorpusProfile};

    fn quick_config() -> AutoDetectConfig {
        AutoDetectConfig {
            training_examples: 3_000,
            threads: 2,
            ..AutoDetectConfig::small()
        }
    }

    // Large enough that language selection reliably includes a
    // symbol-sensitive member (at a few hundred columns the greedy can
    // collapse to a single length-only language and the date-separator
    // checks below become blind spots).
    fn quick_corpus() -> Corpus {
        let mut p = CorpusProfile::web(1_500);
        p.dirty_rate = 0.0;
        generate_corpus(&p)
    }

    /// Interned scoring must equal scoring each example's strings
    /// directly, bit for bit, under every restricted-space language:
    /// both from the pipeline's probe hashes (calibration's path) and
    /// from `pattern_of` hashes, including training values that no
    /// corpus column holds.
    #[test]
    fn interned_scores_match_score_values_bitwise() {
        use crate::training::{Example, Label};
        let mut p = CorpusProfile::web(150);
        p.seed = 0x1D_5C0E;
        let corpus = generate_corpus(&p);
        let cfg = AutoDetectConfig {
            training_examples: 600,
            ..AutoDetectConfig::small()
        };
        let (mut training, _) = build_training_set(&corpus, &cfg);
        assert!(training.len() >= 300, "got {}", training.len());
        let absent = ["1999/12/31 absent", "", "ZZ-0000-absent"];
        for (i, u) in absent.iter().enumerate() {
            let known = training.examples[i].u.clone();
            for (u, v) in [(u.to_string(), known.clone()), (known, u.to_string())] {
                training.examples.push(Example {
                    u,
                    v,
                    label: Label::Incompatible,
                });
            }
        }
        // The pipeline interns only non-empty corpus values, so "" is
        // absent by construction.
        let in_corpus: std::collections::HashSet<&str> = corpus
            .columns()
            .iter()
            .flat_map(|c| c.values.iter().map(String::as_str))
            .filter(|v| !v.is_empty())
            .collect();
        for v in absent {
            assert!(!in_corpus.contains(v), "{v:?} is in the corpus");
        }
        let interned = InternedTrainingSet::new(&training);
        assert!(interned.values.len() < 2 * training.len());
        let languages = adt_patterns::enumerate_restricted_languages();
        assert_eq!(languages.len(), 144);
        let opts = adt_stats::PipelineOptions {
            threads: 2,
            ..adt_stats::PipelineOptions::default()
        };
        let (scored, _) = adt_stats::for_each_language_stats(
            &languages,
            &corpus,
            interned.values(),
            &cfg.stats,
            &opts,
            |_, stats, hashes| {
                let from_matrix = interned.scores_from_hashes(&stats, hashes, cfg.npmi);
                let hashes: Vec<PatternHash> = interned
                    .values()
                    .iter()
                    .map(|v| stats.pattern_of(v))
                    .collect();
                let from_pattern_of = interned.scores_from_hashes(&stats, &hashes, cfg.npmi);
                let direct: Vec<f64> = training
                    .examples
                    .iter()
                    .map(|e| stats.score_values(&e.u, &e.v, cfg.npmi))
                    .collect();
                (stats.language, from_matrix, from_pattern_of, direct)
            },
        )
        .unwrap();
        for (lang, from_matrix, from_pattern_of, direct) in scored {
            assert_eq!(direct.len(), training.len());
            for (i, e) in training.examples.iter().enumerate() {
                let expect = direct[i].to_bits();
                assert_eq!(
                    from_matrix[i].to_bits(),
                    expect,
                    "matrix hashes: ({:?}, {:?}) under {}",
                    e.u,
                    e.v,
                    lang.id()
                );
                assert_eq!(
                    from_pattern_of[i].to_bits(),
                    expect,
                    "pattern_of: ({:?}, {:?}) under {}",
                    e.u,
                    e.v,
                    lang.id()
                );
            }
        }
    }

    #[test]
    fn train_selects_languages_and_meets_budget() {
        let corpus = quick_corpus();
        let cfg = quick_config();
        let (model, report) = train(&corpus, &cfg).unwrap();
        assert!(
            model.num_languages() >= 1,
            "no language selected: {:?}",
            report.selection
        );
        assert!(report.selection.total_bytes <= cfg.memory_budget);
        assert_eq!(report.candidates.len(), 36);
        assert_eq!(report.selected_ids.len(), model.num_languages());
    }

    #[test]
    fn trained_model_flags_obvious_incompatibility() {
        let corpus = quick_corpus();
        let (model, _) = train(&corpus, &quick_config()).unwrap();
        let verdict = model.score_pair("2011-01-01", "2011/01/02");
        assert!(verdict.incompatible, "scores {:?}", verdict.scores);
        // Compatible pair must not be flagged.
        let ok = model.score_pair("12", "3,000");
        assert!(!ok.incompatible, "scores {:?}", ok.scores);
    }

    #[test]
    fn training_precision_respected_on_candidates() {
        let corpus = quick_corpus();
        let cfg = quick_config();
        let (_, report) = train(&corpus, &cfg).unwrap();
        for c in &report.candidates {
            if c.theta.is_some() {
                assert!(
                    c.precision >= cfg.precision_target,
                    "{} precision {}",
                    c.language_id,
                    c.precision
                );
            }
        }
    }

    #[test]
    fn sketched_model_is_smaller_and_preserves_ordering() {
        let corpus = quick_corpus();
        let cfg = quick_config();
        let (exact_model, _) = train(&corpus, &cfg).unwrap();
        let sketch_cfg = AutoDetectConfig {
            sketch_fraction: Some(0.25),
            ..cfg
        };
        let (sketch_model, _) = train(&corpus, &sketch_cfg).unwrap();
        assert!(sketch_model.size_bytes() < exact_model.size_bytes());
        // Count-min never undercounts, so compatible pairs keep their high
        // scores; incompatible pairs may inflate under collisions (this is
        // the Figure 8(a) quality/size trade-off) but must stay below the
        // compatible pairs under every language.
        let bad = sketch_model.score_pair("2011-01-01", "2011/01/02");
        let good = sketch_model.score_pair("2011-01-01", "2012-03-04");
        for (b, g) in bad.scores.iter().zip(&good.scores) {
            assert!(b <= g, "sketched ordering broken: {b} > {g}");
        }
        // The compatible pair is never flagged (one-sided sketch error).
        assert!(!good.incompatible);
    }

    /// Golden digest of a deferred model compressed by `sketch_fraction`,
    /// recorded before the co-occurrence knobs were consolidated. Any
    /// change to sketch geometry, hashing or the sorted replay shows up
    /// here.
    #[test]
    fn sketched_models_match_golden_digests() {
        let fraction = AutoDetectConfig {
            sketch_fraction: Some(0.25),
            ..quick_config()
        };
        let (model, _) = train(&quick_corpus(), &fraction).unwrap();
        assert_eq!(
            model_digest(&model),
            0x34bd_a540_6001_6c8e,
            "sketch_fraction model drifted from the golden build"
        );
    }

    /// Golden digests of the default Deferred path: every candidate's
    /// calibration (selected or not) and the trained model. Any change
    /// to statistics, scoring or calibration of any candidate shows up
    /// here.
    #[test]
    fn deferred_calibration_matches_golden_digest() {
        let (model, report) = train(&quick_corpus(), &quick_config()).unwrap();
        let mut bytes: Vec<u8> = Vec::new();
        for c in &report.candidates {
            bytes.extend_from_slice(c.language_id.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&(c.size_bytes as u64).to_le_bytes());
            match c.theta {
                Some(t) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&t.to_bits().to_le_bytes());
                }
                None => bytes.push(0),
            }
            bytes.extend_from_slice(&(c.coverage as u64).to_le_bytes());
            bytes.extend_from_slice(&c.precision.to_bits().to_le_bytes());
        }
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(report.candidates.len(), 36);
        assert_eq!(
            digest, 0x2002_73b2_7134_287c,
            "candidate calibrations drifted from the golden build"
        );
        assert_eq!(
            model_digest(&model),
            0xbdf7_cdae_4a9c_32e3,
            "deferred model drifted from the golden build"
        );
    }

    #[test]
    fn binary_model_roundtrip_and_size() {
        let corpus = quick_corpus();
        let (model, _) = train(&corpus, &quick_config()).unwrap();
        let dir = std::env::temp_dir().join("adt_model_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut encoded = Vec::new();
        codec::write_model(&mut encoded, &model).unwrap();
        // The extension does not pick the format: both files hold exactly
        // the in-memory encoding.
        for name in ["model.bin", "model.json"] {
            let path = dir.join(name);
            save_model(&model, &path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), encoded, "{name}");
            let back = load_model(&path).unwrap();
            assert_eq!(back.num_languages(), model.num_languages());
            let a = model.score_pair("2011-01-01", "2011/01/02");
            let b = back.score_pair("2011-01-01", "2011/01/02");
            assert_eq!(a.scores, b.scores);
            assert_eq!(a.incompatible, b.incompatible);
            assert_eq!(a.confidence, b.confidence);
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn load_errors_are_typed_and_name_the_path() {
        let dir = std::env::temp_dir().join("adt_model_load_errors");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.bin");
        match load_model(&missing) {
            Err(AdtError::ModelNotFound(p)) => assert!(p.contains("missing.bin"), "{p}"),
            other => panic!("expected ModelNotFound, got {other:?}"),
        }
        let garbage = dir.join("garbage.bin");
        std::fs::write(&garbage, b"ADM1 but then nonsense").unwrap();
        match load_model(&garbage) {
            Err(AdtError::ModelParse { path, .. }) => {
                assert!(path.contains("garbage.bin"), "{path}")
            }
            other => panic!("expected ModelParse, got {other:?}"),
        }
        // Truncated mid-stream file: also a parse error, not a bare I/O.
        let truncated = dir.join("truncated.bin");
        std::fs::write(&truncated, &codec::MODEL_MAGIC[..]).unwrap();
        match load_model(&truncated) {
            Err(AdtError::ModelParse { path, .. }) => {
                assert!(path.contains("truncated.bin"), "{path}")
            }
            other => panic!("expected ModelParse, got {other:?}"),
        }
        // A file without the magic, such as a JSON model from an older
        // build, is not a model whatever its extension.
        let json = dir.join("old.json");
        std::fs::write(&json, br#"{"languages": []}"#).unwrap();
        match load_model(&json) {
            Err(AdtError::ModelParse { path, detail }) => {
                assert!(path.contains("old.json"), "{path}");
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected ModelParse, got {other:?}"),
        }
        std::fs::remove_file(garbage).ok();
        std::fs::remove_file(truncated).ok();
        std::fs::remove_file(json).ok();
    }

    #[test]
    fn hostile_calibration_lengths_fail_typed_without_preallocating() {
        // One valid language whose calibration claims 2^28 covered
        // negatives (the cap, 1 GiB of u32s) and then ends: decoding must
        // run out of input instead of reserving the claim up front.
        use adt_sketch::codec::{write_f64, write_varint};
        let model = crate::detector::testkit::tiny_model();
        let mut buf = codec::MODEL_MAGIC.to_vec();
        write_f64(&mut buf, 0.1).unwrap();
        write_f64(&mut buf, 0.9).unwrap();
        write_varint(&mut buf, 50).unwrap();
        write_varint(&mut buf, 1).unwrap();
        model.languages[0].stats.write_binary(&mut buf).unwrap();
        buf.push(0);
        write_f64(&mut buf, 1.0).unwrap();
        write_varint(&mut buf, 0).unwrap();
        write_varint(&mut buf, 1 << 28).unwrap();
        let err = codec::read_model(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn save_model_is_atomic_and_leaves_no_temp_files() {
        let corpus = quick_corpus();
        let (model, _) = train(&corpus, &quick_config()).unwrap();
        let dir = std::env::temp_dir().join("adt_model_atomic_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("m.bin");
        // Saving into a fresh directory creates it.
        save_model(&model, &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Overwrite in place: the file is replaced wholesale.
        save_model(&model, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        // A target that is an existing directory fails the final rename;
        // the save reports it and removes its temp file.
        let taken = dir.join("taken.bin");
        std::fs::create_dir(&taken).unwrap();
        assert!(save_model(&model, &taken).is_err());
        assert!(taken.is_dir());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_training() {
        let corpus = quick_corpus();
        let cfg = quick_config();
        let (_, r1) = train(&corpus, &cfg).unwrap();
        let (_, r2) = train(&corpus, &cfg).unwrap();
        assert_eq!(r1.selected_ids, r2.selected_ids);
        assert_eq!(r1.selection.union_coverage, r2.selection.union_coverage);
    }
}
