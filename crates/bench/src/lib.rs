//! Shared experiment context for the paper-reproduction binaries.
//!
//! Every `exp_*` binary regenerates one table or figure of the paper
//! (see DESIGN.md §4 and EXPERIMENTS.md). This library holds the common
//! scaffolding: scaled corpus profiles, the default training
//! configuration, model caching, method rosters, and result output.
//!
//! Sizes are scaled from the paper's corpora by ~10³ (DESIGN.md §1) and
//! can be adjusted with the `ADT_SCALE` environment variable (e.g.
//! `ADT_SCALE=0.2` for a quick smoke run, `ADT_SCALE=2` for a larger
//! run). Results are written to `results/*.json` next to the printed
//! tables.

pub mod reports;

use adt_baselines::{Baseline, DetectorId};
use adt_core::{AutoDetect, AutoDetectConfig, TrainingSet};
use adt_corpus::{generate_corpus, Corpus, CorpusProfile};
use adt_eval::testcases::crude_stats;
use adt_eval::{auto_eval_cases, TestCase};
use adt_stats::LanguageStats;
use std::path::PathBuf;

/// Global size multiplier from `ADT_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("ADT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(1.0)
}

fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(50)
}

/// Training corpus: WEB ∪ Pub-XLS, the paper's default (§4.2).
pub fn train_corpus() -> Corpus {
    let mut web = generate_corpus(&CorpusProfile::web(scaled(60_000)));
    let pub_xls = generate_corpus(&CorpusProfile::pub_xls(scaled(6_000)));
    web.extend_from(pub_xls);
    web
}

/// WIKI-profile corpus used as a clean source for auto-eval mixing and as
/// the Figure 8(c) alternative training corpus.
pub fn wiki_corpus() -> Corpus {
    let mut p = CorpusProfile::wiki(scaled(30_000));
    p.dirty_rate = 0.0;
    generate_corpus(&p)
}

/// Ent-XLS-profile corpus (clean; auto-eval source).
pub fn ent_corpus() -> Corpus {
    let mut p = CorpusProfile::ent_xls(scaled(12_000));
    p.dirty_rate = 0.0;
    generate_corpus(&p)
}

/// The default Auto-Detect training configuration for experiments.
pub fn default_config() -> AutoDetectConfig {
    AutoDetectConfig {
        training_examples: scaled(60_000),
        memory_budget: 64 << 20,
        ..AutoDetectConfig::default()
    }
}

/// Directory for cached artifacts and results.
pub fn data_dir() -> PathBuf {
    let d = PathBuf::from(std::env::var("ADT_DATA_DIR").unwrap_or_else(|_| "results".to_string()));
    std::fs::create_dir_all(&d).ok();
    d
}

/// Trains (or loads the cached) default model on WEB ∪ Pub-XLS.
///
/// The cache key includes the scale so different `ADT_SCALE` runs don't
/// collide.
pub fn default_model() -> (AutoDetect, Corpus, TrainingSet) {
    let corpus = train_corpus();
    let cfg = default_config();
    let (training, _) = adt_core::build_training_set(&corpus, &cfg);
    let cache = data_dir().join(format!("model_default_x{}.bin", scale()));
    if let Ok(model) = adt_core::load_model(&cache) {
        eprintln!("[ctx] loaded cached model from {}", cache.display());
        return (model, corpus, training);
    }
    eprintln!(
        "[ctx] training default model ({} candidates, {} training examples)…",
        cfg.candidate_languages().len(),
        training.len()
    );
    let t0 = std::time::Instant::now();
    let (model, report) =
        adt_core::train_with_training_set(&corpus, &cfg, &training).expect("training failed");
    eprintln!(
        "[ctx] trained in {:.1?}: {} languages {:?}, {} bytes",
        t0.elapsed(),
        model.num_languages(),
        report.selected_ids,
        report.model_bytes
    );
    adt_core::save_model(&model, &cache).ok();
    (model, corpus, training)
}

/// Crude statistics over a corpus (auto-eval oracle).
pub fn crude(corpus: &Corpus) -> LanguageStats {
    crude_stats(corpus, &adt_stats::StatsConfig::default())
}

/// Auto-eval cases from a source corpus at the given dirty:clean ratio
/// (§4.4; the paper uses 5K dirty and 1:1 / 1:5 / 1:10).
pub fn ratio_cases(
    source: &Corpus,
    crude: &LanguageStats,
    n_dirty: usize,
    ratio: usize,
    seed: u64,
) -> Vec<TestCase> {
    auto_eval_cases(
        source,
        crude,
        adt_stats::NpmiParams::default(),
        n_dirty,
        n_dirty * ratio,
        seed,
    )
}

/// The scaled "5K dirty" of Figures 5–8.
pub fn n_dirty() -> usize {
    scaled(2_000)
}

/// The k grid used by the auto-eval figures (paper: 50..5000, scaled).
pub fn auto_eval_ks() -> Vec<usize> {
    let n = n_dirty();
    vec![n / 40, n / 20, n / 4, n / 2, n]
}

/// The seven best-performing methods reported in Figures 5–6, in
/// legend order.
pub const FIGURE5: [DetectorId; 7] = [
    DetectorId::AutoDetect,
    DetectorId::Baseline(Baseline::FRegex),
    DetectorId::Baseline(Baseline::PotterWheel),
    DetectorId::Baseline(Baseline::Dboost),
    DetectorId::Baseline(Baseline::Svdd),
    DetectorId::Baseline(Baseline::Dbod),
    DetectorId::Baseline(Baseline::Lof),
];

/// The full twelve-method roster of Figure 4, in legend order (Linear
/// and LinearP come before F-Regex, unlike [`DetectorId::ALL`]).
pub const FIGURE4: [DetectorId; 12] = [
    DetectorId::AutoDetect,
    DetectorId::Baseline(Baseline::Linear),
    DetectorId::Baseline(Baseline::LinearP),
    DetectorId::Baseline(Baseline::FRegex),
    DetectorId::Baseline(Baseline::PotterWheel),
    DetectorId::Baseline(Baseline::Dboost),
    DetectorId::Baseline(Baseline::Cdm),
    DetectorId::Baseline(Baseline::Lsa),
    DetectorId::Baseline(Baseline::Svdd),
    DetectorId::Baseline(Baseline::Dbod),
    DetectorId::Baseline(Baseline::Lof),
    DetectorId::Union,
];

/// The baselines timed in Table 5 (Auto-Detect is its fifth row).
pub const TABLE5: [Baseline; 4] = [
    Baseline::FRegex,
    Baseline::PotterWheel,
    Baseline::Dboost,
    Baseline::Linear,
];

/// Prints a figure's table and saves the figure; a failed save names
/// the path and exits 1.
pub fn emit(fig: &adt_eval::report::Figure) {
    let path = data_dir().join(format!("{}.json", fig.id));
    println!("{}", fig.to_table());
    if let Err(e) = reports::save_figure(fig, &path) {
        eprintln!("FAIL: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_floors_at_50() {
        // Even extreme down-scaling keeps enough columns to be meaningful.
        assert!(scaled(60_000) >= 50);
    }

    #[test]
    fn method_rosters_have_paper_counts() {
        assert_eq!(FIGURE5.len(), 7);
        assert_eq!(FIGURE4.len(), 12);
        // Figure 4 shows every detector exactly once.
        for id in DetectorId::ALL {
            assert_eq!(FIGURE4.iter().filter(|&&f| f == id).count(), 1, "{id:?}");
        }
    }
}
