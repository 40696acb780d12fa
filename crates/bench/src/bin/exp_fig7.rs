//! Figure 7: precision@k under different memory budgets, on Ent-XLS at
//! the three dirty:clean ratios.
//!
//! The paper sweeps 1MB → 4GB against a 350M-column corpus; our corpora
//! are ~10³ smaller, so the scaled budgets are 64KB, 1MB and 8MB (the
//! shape to reproduce: tiny budgets select ~2 languages and stay precise
//! at low k; larger budgets add languages and win at high k).

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
    eprintln!(
        "[fig7] calibrating {} candidates once…",
        cfg.candidate_languages().len()
    );
    let t0 = std::time::Instant::now();
    let pool = calibrate_candidates(&corpus, &cfg, &training).expect("calibration failed");
    eprintln!("[fig7] pool ready in {:.1?}", t0.elapsed());

    let budgets: [(usize, &str); 3] = [(64 << 10, "64KB"), (1 << 20, "1MB"), (8 << 20, "8MB")];
    let mut models = Vec::new();
    for &(budget, label) in &budgets {
        let budget_cfg = adt_core::AutoDetectConfig {
            memory_budget: budget,
            ..cfg.clone()
        };
        let (model, report) =
            select_and_assemble(&corpus, &budget_cfg, &training, &pool).expect("assembly failed");
        eprintln!(
            "[fig7] budget {label}: {} languages {:?} ({} bytes)",
            model.num_languages(),
            report.selected_ids,
            report.model_bytes
        );
        models.push((label, model));
    }

    let source = ent_corpus();
    let oracle = crude(&source);
    let ks = auto_eval_ks();
    for ratio in [1usize, 5, 10] {
        let cases = ratio_cases(&source, &oracle, n_dirty(), ratio, 0xF17 + ratio as u64);
        let mut fig = Figure::new(
            &format!("fig7_memory_1to{ratio}"),
            &format!(
                "precision@k vs memory budget on Ent-XLS, dirty:clean = 1:{ratio} (paper Fig 7; budgets scaled /10^3)"
            ),
        );
        for (label, model) in &models {
            let preds = run_method(model, &cases);
            let pooled = pooled_predictions(&cases, &preds, 1);
            fig.push(label, precision_series(&pooled, &ks));
        }
        emit(&fig);
    }
}
