//! Figure 8(a): impact of count-min-sketch compression of the
//! co-occurrence dictionaries, at 100% (no sketch), 10% and 1% of the
//! exact size, on Ent-XLS at dirty:clean = 1:10.

use adt_bench::{
    auto_eval_ks, crude, default_config, emit, ent_corpus, n_dirty, ratio_cases, train_corpus,
};
use adt_core::{build_training_set, calibrate_candidates, select_and_assemble};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::run_method;

fn main() {
    let corpus = train_corpus();
    let cfg = default_config();
    let (training, _) = build_training_set(&corpus, &cfg);
    eprintln!("[fig8a] calibrating candidate pool…");
    let pool = calibrate_candidates(&corpus, &cfg, &training).expect("calibration failed");

    let source = ent_corpus();
    let oracle = crude(&source);
    let cases = ratio_cases(&source, &oracle, n_dirty(), 10, 0xF8A);
    let ks = auto_eval_ks();

    let mut fig = Figure::new(
        "fig8a_sketch",
        "count-min sketch compression (fraction of exact size) on Ent-XLS 1:10 (paper Fig 8a)",
    );
    for (frac, label) in [(None, "100%"), (Some(0.10), "10%"), (Some(0.01), "1%")] {
        let sketch_cfg = adt_core::AutoDetectConfig {
            sketch_fraction: frac,
            ..cfg.clone()
        };
        let (model, report) =
            select_and_assemble(&corpus, &sketch_cfg, &training, &pool).expect("assembly failed");
        eprintln!(
            "[fig8a] {label}: model {} bytes ({} languages)",
            report.model_bytes,
            model.num_languages()
        );
        let preds = run_method(&model, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        fig.push(label, precision_series(&pooled, &ks));
    }
    emit(&fig);
}
