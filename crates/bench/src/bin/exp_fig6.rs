//! Figure 6: automatic evaluation on Ent-XLS at dirty:clean ratios 1:1,
//! 1:5 and 1:10 — the cross-corpus generalization test (trained on
//! WEB ∪ Pub-XLS, tested on enterprise-profile columns).

use adt_bench::{
    auto_eval_ks, crude, default_model, emit, ent_corpus, n_dirty, ratio_cases, FIGURE5,
};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::run_method;
use std::sync::Arc;

fn main() {
    let (model, _train_corpus, _training) = default_model();
    let model = Arc::new(model);
    let source = ent_corpus();
    let oracle = crude(&source);
    let ks = auto_eval_ks();
    for ratio in [1usize, 5, 10] {
        let cases = ratio_cases(&source, &oracle, n_dirty(), ratio, 0xF16 + ratio as u64);
        eprintln!(
            "[fig6 1:{ratio}] {} cases ({} dirty)",
            cases.len(),
            cases.iter().filter(|c| c.is_dirty()).count()
        );
        let mut fig = Figure::new(
            &format!("fig6_entxls_1to{ratio}"),
            &format!("auto-eval precision@k on Ent-XLS, dirty:clean = 1:{ratio} (paper Fig 6)"),
        );
        for id in FIGURE5 {
            let m = id.build(&model);
            let preds = run_method(m.as_ref(), &cases);
            let pooled = pooled_predictions(&cases, &preds, 1);
            fig.push(m.name(), precision_series(&pooled, &ks));
        }
        emit(&fig);
    }
}
