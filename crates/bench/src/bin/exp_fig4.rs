//! Figure 4: precision@k against labeled ground truth on (a) WIKI test
//! columns and (b) the CSV benchmark set, for all twelve methods.
//!
//! The paper's human judges are replaced by the generator's exact
//! injected-error labels (DESIGN.md §1).

use adt_bench::{default_model, emit, scale, FIGURE4};
use adt_corpus::{generate_labeled_columns, CorpusProfile};
use adt_eval::metrics::{pooled_predictions, precision_series};
use adt_eval::report::Figure;
use adt_eval::{cases_from_labeled, run_method};
use std::sync::Arc;

fn main() {
    let (model, _corpus, _training) = default_model();
    let model = Arc::new(model);

    // -- Figure 4(a): WIKI --
    let mut wiki = CorpusProfile::wiki(((30_000f64 * scale()) as usize).max(2_000));
    // The paper's WIKI test sample has ~2.2% dirty columns; keep that.
    let labeled = generate_labeled_columns(&wiki);
    let cases = cases_from_labeled(&labeled);
    let dirty = cases.iter().filter(|c| c.is_dirty()).count();
    eprintln!("[fig4a] {} WIKI columns, {} dirty", cases.len(), dirty);

    // The paper ranks 100K test columns and reports k up to 1000 (~1% of
    // columns). Our scaled sample keeps the same *relative* grid — k up
    // to 1% of the sample — plus the paper's absolute points for
    // reference (at 30K columns, k=1000 exceeds the ~675 available
    // errors, so precision there is capped by construction).
    let rel = (cases.len() / 100).max(10);
    let ks = [rel / 10, rel / 5, rel / 2, rel, 2 * rel, 500, 1000];
    let mut fig_a = Figure::new(
        "fig4a_wiki",
        "precision@k on WIKI-profile labeled columns (paper Fig 4a; k scaled to sample size)",
    );
    for id in FIGURE4 {
        let m = id.build(&model);
        let t0 = std::time::Instant::now();
        let preds = run_method(m.as_ref(), &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        fig_a.push(m.name(), precision_series(&pooled, &ks));
        eprintln!(
            "[fig4a] {} done in {:.1?} ({} predictions)",
            m.name(),
            t0.elapsed(),
            pooled.len()
        );
    }
    emit(&fig_a);

    // -- Figure 4(b): CSV --
    wiki.name = "unused".into();
    let csv_profile = CorpusProfile::csv_set();
    let labeled_csv = generate_labeled_columns(&csv_profile);
    let cases_csv = cases_from_labeled(&labeled_csv);
    eprintln!(
        "[fig4b] {} CSV columns, {} dirty",
        cases_csv.len(),
        cases_csv.iter().filter(|c| c.is_dirty()).count()
    );
    let ks_csv = [10usize, 20, 30, 40, 50];
    let mut fig_b = Figure::new(
        "fig4b_csv",
        "precision@k on the 441-column CSV benchmark (paper Fig 4b)",
    );
    for id in FIGURE4 {
        let m = id.build(&model);
        let preds = run_method(m.as_ref(), &cases_csv);
        let pooled = pooled_predictions(&cases_csv, &preds, 1);
        fig_b.push(m.name(), precision_series(&pooled, &ks_csv));
    }
    emit(&fig_b);
}
