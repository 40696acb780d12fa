//! Figure 8(c): sensitivity to the training corpus — Auto-Detect trained
//! on the larger, more diverse WEB corpus vs the smaller, cleaner WIKI
//! corpus, both evaluated on Ent-XLS 1:10. The paper finds the bigger
//! WEB corpus wins despite WIKI being cleaner.

use adt_bench::{
    auto_eval_ks, crude, default_config, emit, ent_corpus, n_dirty, ratio_cases, train_corpus,
    wiki_corpus,
};
use adt_core::{build_training_set, train_with_training_set};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::run_method;

fn main() {
    let cfg = default_config();
    let source = ent_corpus();
    let oracle = crude(&source);
    let cases = ratio_cases(&source, &oracle, n_dirty(), 10, 0xF8C);
    let ks = auto_eval_ks();

    let mut fig = Figure::new(
        "fig8c_training_corpus",
        "training-corpus sensitivity (WIKI vs WEB), Ent-XLS 1:10 (paper Fig 8c)",
    );
    for (label, corpus) in [("WIKI", wiki_corpus()), ("WEB", train_corpus())] {
        eprintln!("[fig8c] training on {label} ({} columns)…", corpus.len());
        let (training, _) = build_training_set(&corpus, &cfg);
        let (model, report) =
            train_with_training_set(&corpus, &cfg, &training).expect("training failed");
        eprintln!(
            "[fig8c] {label}: {} languages, {} bytes",
            model.num_languages(),
            report.model_bytes
        );
        let preds = run_method(&model, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        fig.push(label, precision_series(&pooled, &ks));
    }
    emit(&fig);
}
