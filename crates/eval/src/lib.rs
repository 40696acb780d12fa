//! Evaluation harness: test-case generation, ranked-prediction pooling,
//! precision@k, and experiment reporting.
//!
//! * [`testcases`] — the paper's two evaluation regimes: labeled columns
//!   with injected errors (standing in for the human-judged sets of §4.3)
//!   and the automatic evaluation of §4.4 (mix a dirty value from one
//!   compatible column into another, at dirty:clean ratios 1:1/1:5/1:10);
//! * [`runner`] — uniform driver over Auto-Detect, its aggregation
//!   variants, and every baseline;
//! * [`metrics`] — pooled precision@k over ranked predictions;
//! * [`matrix`] — detector × error-class scenario matrix (the runner
//!   behind `matrix_report` / `BENCH_matrix.json`), which also reports
//!   each detector's precision over all classes;
//! * [`report`] — experiment result structures, CDFs, and table printing.

pub mod matrix;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod testcases;

pub use matrix::{build_scenarios, run_matrix, MatrixCell, MatrixReport, Scenario};
pub use metrics::{pooled_predictions, precision_at_k, PooledPrediction};
pub use runner::run_method;
pub use testcases::{auto_eval_cases, cases_from_labeled, TestCase};
