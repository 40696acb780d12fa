//! Figure 8(b): aggregation-function comparison on Ent-XLS 1:10 —
//! Auto-Detect's calibrated union + max-confidence against AvgNPMI,
//! MinNPMI, majority voting, weighted majority voting, and the best
//! single language (BestOne), all over the same selected languages.

use adt_bench::{auto_eval_ks, crude, default_model, emit, ent_corpus, n_dirty, ratio_cases};
use adt_core::{AggregatedAutoDetect, Aggregator};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::run_method;

fn main() {
    let (model, _corpus, _training) = default_model();
    // BestOne: the selected language with the largest training coverage
    // would need the training artifacts; the first greedy pick is the
    // highest-gain-per-byte language, which is the natural stand-in.
    let best_one = 0usize;

    let source = ent_corpus();
    let oracle = crude(&source);
    let cases = ratio_cases(&source, &oracle, n_dirty(), 10, 0xF8B);
    let ks = auto_eval_ks();

    let mut fig = Figure::new(
        "fig8b_aggregation",
        "aggregation functions on Ent-XLS 1:10 (paper Fig 8b)",
    );
    for (name, agg) in Aggregator::figure8b_suite(best_one) {
        let m = AggregatedAutoDetect {
            model: &model,
            aggregator: agg,
            name,
        };
        let t0 = std::time::Instant::now();
        let preds = run_method(&m, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        fig.push(name, precision_series(&pooled, &ks));
        eprintln!("[fig8b] {name} in {:.1?}", t0.elapsed());
    }
    emit(&fig);
}
