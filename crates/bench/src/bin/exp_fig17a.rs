//! Figure 17(a): sensitivity to the Jelinek–Mercer smoothing factor `f`.
//! Precision@1000-equivalent on Ent-XLS while sweeping `f` from 0 to 1
//! (paper: best and stable in [0.1, 0.3], degraded at f=0 and f→1).

use adt_bench::{crude, default_config, emit, ent_corpus, n_dirty, ratio_cases, train_corpus};
use adt_core::{build_training_set, train_with_training_set};
use adt_eval::metrics::{pooled_predictions, precision_at_k};
use adt_eval::report::Figure;
use adt_eval::run_method;
use adt_stats::NpmiParams;

fn main() {
    let corpus = train_corpus();
    let base_cfg = default_config();
    // One training set shared across the sweep (built with default f; the
    // compatibility oracle is crude-pattern based and barely sensitive).
    let (training, _) = build_training_set(&corpus, &base_cfg);
    let source = ent_corpus();
    let oracle = crude(&source);
    let cases = ratio_cases(&source, &oracle, n_dirty(), 10, 0xF17A);
    let k = n_dirty() / 2;

    let mut fig = Figure::new(
        "fig17a_smoothing",
        "precision@k(=half of dirty count) vs smoothing factor f on Ent-XLS 1:10 (paper Fig 17a)",
    );
    let mut points = Vec::new();
    for (i, f) in [0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0].iter().enumerate() {
        let cfg = adt_core::AutoDetectConfig {
            npmi: NpmiParams { smoothing: *f },
            ..base_cfg.clone()
        };
        let t0 = std::time::Instant::now();
        let (model, _) =
            train_with_training_set(&corpus, &cfg, &training).expect("training failed");
        let preds = run_method(&model, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        let p = precision_at_k(&pooled, k);
        eprintln!(
            "[fig17a] f={f}: precision@{k} = {p:.3} ({} languages, {:.1?})",
            model.num_languages(),
            t0.elapsed()
        );
        // Encode f*100 as the integer axis of the series.
        points.push(((f * 100.0) as usize, p));
        let _ = i;
    }
    fig.push("Auto-Detect", points);
    emit(&fig);
    println!("(x axis is f × 100)");
}
