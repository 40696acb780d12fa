//! Uniform method driver.
//!
//! Every method under evaluation — the §4.2 baselines and Auto-Detect
//! itself — is one [`Detector`] trait object, and [`run_method`] fans
//! the test cases over the worker pool (`adt_stats::parallel_map`).

use crate::testcases::TestCase;
use adt_core::api::{Detector, Prediction};
use adt_stats::parallel_map;

/// Runs a detector over all test cases in parallel (all cores);
/// `predictions[i]` are the ranked predictions for `cases[i]`, identical
/// to a serial run.
pub fn run_method(detector: &dyn Detector, cases: &[TestCase]) -> Vec<Vec<Prediction>> {
    run_method_threads(detector, cases, 0)
}

/// [`run_method`] with an explicit worker thread count (0 = all cores).
pub fn run_method_threads(
    detector: &dyn Detector,
    cases: &[TestCase],
    threads: usize,
) -> Vec<Vec<Prediction>> {
    parallel_map(cases, threads, "run_method", |_, c| {
        detector.detect(&c.column)
    })
    .expect("evaluation worker panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_baselines::FRegexDetector;
    use adt_corpus::{Column, SourceTag};

    #[test]
    fn baseline_method_runs() {
        let cases = vec![TestCase {
            column: Column::from_strs(&["1", "2", "3", "x"], SourceTag::Csv),
            errors: vec!["x".to_string()],
        }];
        let preds = run_method(&FRegexDetector::default(), &cases);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0][0].value, "x");
    }

    #[test]
    fn parallel_run_matches_serial() {
        let cases: Vec<TestCase> = (0..32)
            .map(|i| TestCase {
                column: Column::from_strs(&["1", "2", "3", &format!("x{i}")], SourceTag::Csv),
                errors: vec![format!("x{i}")],
            })
            .collect();
        let m = FRegexDetector::default();
        let serial = run_method_threads(&m, &cases, 1);
        let parallel = run_method_threads(&m, &cases, 8);
        assert_eq!(serial, parallel);
    }
}
