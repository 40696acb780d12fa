//! Uniform method driver.
//!
//! Every method under evaluation — the §4.2 baselines and Auto-Detect
//! itself — is one [`Detector`] trait object. [`Method`] only adds the
//! borrow plumbing (Auto-Detect variants borrow a trained model owned by
//! the caller), and [`run_method`] fans the test cases over worker
//! threads via the core scan engine's `parallel_map`.

use crate::testcases::TestCase;
use adt_core::api::{AggregatedAutoDetect, Detector, Prediction};
use adt_core::{parallel_map, Aggregator, AutoDetect};

/// A method under evaluation: any [`Detector`], possibly borrowing a
/// trained model.
pub struct Method<'a> {
    detector: Box<dyn Detector + 'a>,
}

impl<'a> Method<'a> {
    /// Wraps any detector (the §4.2 baselines and Union).
    pub fn baseline(detector: Box<dyn Detector>) -> Self {
        Method { detector }
    }

    /// Auto-Detect with its native ST aggregation.
    pub fn auto_detect(model: &'a AutoDetect) -> Self {
        Method {
            detector: Box::new(model),
        }
    }

    /// Auto-Detect scored through an alternative aggregator
    /// (Figure 8(b)), displayed under `name`.
    pub fn auto_detect_with(
        model: &'a AutoDetect,
        aggregator: Aggregator,
        name: &'static str,
    ) -> Self {
        Method {
            detector: Box::new(AggregatedAutoDetect {
                model,
                aggregator,
                name,
            }),
        }
    }

    /// Any detector with a non-static borrow (escape hatch for custom
    /// methods).
    pub fn from_detector(detector: Box<dyn Detector + 'a>) -> Self {
        Method { detector }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        self.detector.name()
    }

    /// Ranked predictions for one column.
    pub fn detect(&self, column: &adt_corpus::Column) -> Vec<Prediction> {
        self.detector.detect(column)
    }
}

/// Runs a method over all test cases in parallel (all cores);
/// `predictions[i]` are the ranked predictions for `cases[i]`, identical
/// to a serial run.
pub fn run_method(method: &Method<'_>, cases: &[TestCase]) -> Vec<Vec<Prediction>> {
    run_method_threads(method, cases, 0)
}

/// [`run_method`] with an explicit worker thread count (0 = all cores).
pub fn run_method_threads(
    method: &Method<'_>,
    cases: &[TestCase],
    threads: usize,
) -> Vec<Vec<Prediction>> {
    parallel_map(cases, threads, "run_method", |_, c| {
        method.detect(&c.column)
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
        let m = Method::baseline(Box::new(FRegexDetector::default()));
        assert_eq!(m.name(), "F-Regex");
        let preds = run_method(&m, &cases);
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
        let m = Method::baseline(Box::new(FRegexDetector::default()));
        let serial = run_method_threads(&m, &cases, 1);
        let parallel = run_method_threads(&m, &cases, 8);
        assert_eq!(serial, parallel);
    }
}
