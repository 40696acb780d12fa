//! Ablation (DESIGN.md §5): sensitivity to the per-column distinct-
//! pattern cap used during statistics construction.
//!
//! Columns with more distinct patterns than the cap contribute a strided
//! subsample of pairs (guarding the quadratic blowup on fine languages).
//! This sweep measures what the approximation costs: statistics size,
//! training coverage, and auto-eval precision at caps 8 / 24 (default) /
//! 48.

use adt_bench::scale;
use adt_core::{build_training_set, train_with_training_set, AutoDetectConfig};
use adt_corpus::{generate_corpus, CorpusProfile};
use adt_eval::metrics::{pooled_predictions, precision_at_k};
use adt_eval::testcases::crude_stats;
use adt_eval::{auto_eval_cases, run_method};
use adt_stats::{NpmiParams, StatsConfig};

fn main() {
    let n = ((10_000f64 * scale()) as usize).max(1_000);
    let mut p = CorpusProfile::web(n);
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let mut wiki = CorpusProfile::wiki(n / 2);
    wiki.dirty_rate = 0.0;
    let source = generate_corpus(&wiki);
    let oracle = crude_stats(&source, &StatsConfig::default());
    let n_dirty = (n / 20).max(100);
    let cases = auto_eval_cases(
        &source,
        &oracle,
        NpmiParams::default(),
        n_dirty,
        n_dirty * 5,
        0xCA9,
    );
    let k = n_dirty / 2;

    println!("== Pair-cap sensitivity (distinct-pattern cap per column) ==");
    println!(
        "{:>5} {:>12} {:>10} {:>12} {:>12}",
        "cap", "model bytes", "langs", "train cov", "precision@k"
    );
    for cap in [8usize, 24, 48] {
        let cfg = AutoDetectConfig {
            training_examples: n,
            space: adt_core::config::LanguageSpace::Coarse36,
            stats: StatsConfig {
                max_distinct_per_column: cap,
            },
            ..AutoDetectConfig::default()
        };
        let (training, _) = build_training_set(&corpus, &cfg);
        let (model, report) =
            train_with_training_set(&corpus, &cfg, &training).expect("training failed");
        let preds = run_method(&model, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        println!(
            "{:>5} {:>12} {:>10} {:>12} {:>12.3}",
            cap,
            report.model_bytes,
            model.num_languages(),
            report.selection.union_coverage,
            precision_at_k(&pooled, k)
        );
    }
    println!(
        "\n(the default cap of 24 should sit within noise of 48 at a fraction of the pair volume)"
    );
}
