//! Figure 5: automatic evaluation on WIKI at dirty:clean ratios 1:1, 1:5
//! and 1:10 — precision@k for the seven best-performing methods.

use adt_bench::{
    auto_eval_ks, crude, default_model, emit, n_dirty, ratio_cases, wiki_corpus, FIGURE5,
};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::run_method;
use std::sync::Arc;

fn main() {
    let (model, _train_corpus, _training) = default_model();
    let model = Arc::new(model);
    let source = wiki_corpus();
    let oracle = crude(&source);
    let ks = auto_eval_ks();
    for ratio in [1usize, 5, 10] {
        let cases = ratio_cases(&source, &oracle, n_dirty(), ratio, 0xF15 + ratio as u64);
        let dirty = cases.iter().filter(|c| c.is_dirty()).count();
        eprintln!("[fig5 1:{ratio}] {} cases ({} dirty)", cases.len(), dirty);
        let mut fig = Figure::new(
            &format!("fig5_wiki_1to{ratio}"),
            &format!("auto-eval precision@k on WIKI, dirty:clean = 1:{ratio} (paper Fig 5)"),
        );
        for id in FIGURE5 {
            let m = id.build(&model);
            let t0 = std::time::Instant::now();
            let preds = run_method(m.as_ref(), &cases);
            let pooled = pooled_predictions(&cases, &preds, 1);
            fig.push(m.name(), precision_series(&pooled, &ks));
            eprintln!("[fig5 1:{ratio}] {} in {:.1?}", m.name(), t0.elapsed());
        }
        emit(&fig);
    }
}
