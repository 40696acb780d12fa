//! Auto-Detect: data-driven single-column error detection (the paper's
//! primary contribution).
//!
//! Pipeline (§3):
//! 1. [`training`] — distant supervision (§3.1, Appendix F): build a large
//!    labeled training set `T = T⁺ ∪ T⁻` from the corpus itself, with no
//!    human labels;
//! 2. [`calibrate`] — per-language threshold calibration (Equations 7–8):
//!    find the loosest NPMI threshold keeping precision ≥ P on `T`, and
//!    retain the precision-vs-score curve for confidence estimates;
//! 3. [`selection`] — language selection (Definition 5, Algorithm 1):
//!    greedy budgeted max-coverage over incompatible-example coverage,
//!    with the ½(1−1/e) approximation guarantee;
//! 4. [`detector`] — the end-user API: score pairs and columns with the
//!    selected ensemble, union the per-language predictions
//!    (ST aggregation), and rank by max-confidence `Q` (Appendix B);
//! 5. [`aggregate`] — the alternative aggregators of Figure 8(b)
//!    (AvgNPMI, MinNPMI, majority voting, weighted voting, best-single);
//! 6. [`model`] — the trainer that wires it all together plus `.bin`
//!    persistence;
//! 7. [`engine`] — the parallel [`ScanEngine`]: fans columns over the
//!    one worker pool (`adt_stats::pool`, shared with training, the
//!    ensemble, evaluation and the server) with per-worker pattern
//!    caches, streams large CSV inputs in bounded memory, and reports
//!    per-stage counters/timings;
//! 8. [`api`] — the shared [`Detector`] trait every method (Auto-Detect
//!    and the baselines) implements, single-column and batch, so
//!    evaluation drivers, the ensemble, and services consume one trait
//!    object uniformly; the roster that names and builds every method
//!    is `adt_baselines::DetectorId`;
//! 9. [`ensemble`] — the [`EnsembleEngine`]: runs a detector set per
//!    scan with per-detector instrumentation and merges rankings under a
//!    [`MergePolicy`] (union / vote(k)), deterministically at any thread
//!    count; it is itself a [`Detector`] (the paper's Union baseline is
//!    one);
//! 10. [`online`] — the [`OnlineLearner`]: keeps a seeded, bounded
//!     reservoir of the columns it absorbs and retrains with [`train`]
//!     on them, byte-identical to an offline train on the same columns;
//! 11. [`error`] — the typed [`AdtError`] every fallible API returns.

pub mod aggregate;
pub mod api;
pub mod calibrate;
pub mod config;
pub mod detector;
pub mod dt;
pub mod engine;
pub mod ensemble;
pub mod error;
#[cfg(test)]
mod kernel_tests;
pub mod model;
pub mod online;
pub mod selection;
pub mod training;
mod values;

pub use aggregate::Aggregator;
pub use api::{
    finalize_predictions, findings_to_predictions, value_counts, AggregatedAutoDetect, Detector,
    Prediction,
};
pub use calibrate::{calibrate_language, Calibration};
pub use config::{AutoDetectConfig, AutoDetectConfigBuilder, LanguageSpace};
pub use detector::{
    rank_table_findings, AutoDetect, ColumnFinding, KernelChoices, PairVerdict, PatternCache,
    ScanStats, TableFinding,
};
pub use dt::{dt_optimize, DtProblem, DtSolution};
pub use engine::{CachePool, ColumnSummary, ScanEngine, ScanReport};
pub use ensemble::{DetectorLane, EnsembleEngine, EnsembleReport, MergePolicy};
pub use error::AdtError;
pub use model::{
    calibrate_candidates, calibrate_candidates_with_report, load_model, save_model,
    select_and_assemble, train, train_with_training_set, CalibratedCandidate, TrainReport,
};
pub use online::{OnlineLearner, OnlineReport};
pub use selection::{greedy_select, CandidateSummary, SelectionResult};
pub use training::{build_training_set, Example, Label, TrainingSet};
