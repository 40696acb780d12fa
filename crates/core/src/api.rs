//! The common detector interface — the single canonical surface every
//! detection method implements.
//!
//! Auto-Detect itself and every §4.2 baseline implement one
//! [`Detector`] trait, so evaluation drivers, the ensemble engine, and
//! services consume a uniform `dyn Detector` instead of special-casing
//! Auto-Detect. `detect_batch` has a default per-column implementation;
//! detectors with amortizable setup (Auto-Detect's pattern cache)
//! override it so whole CSV batches are scanned against one warm cache.
//!
//! Which detectors exist, and their configuration names, is the
//! roster's business: `adt_baselines::DetectorId`, the one crate that
//! can name every method.

use crate::aggregate::Aggregator;
use crate::detector::{AutoDetect, PatternCache};
use adt_corpus::Column;
use std::sync::Arc;

/// One predicted error within a column.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The value predicted to be an error.
    pub value: String,
    /// Method-specific confidence; higher means more suspicious. Only the
    /// ordering is comparable across columns of the *same* method.
    pub confidence: f64,
}

/// A single-column error detector.
pub trait Detector: Send + Sync {
    /// The method's display name (matching the paper's legend).
    fn name(&self) -> &'static str;

    /// Ranked error predictions for one column, most confident first.
    /// An empty vector means "column looks clean".
    fn detect(&self, column: &Column) -> Vec<Prediction>;

    /// Ranked predictions for a whole batch of columns, one vector per
    /// input column. `detect_batch(cols)[i]` is always identical to
    /// `detect(&cols[i])` — the batch form exists so detectors with
    /// amortizable setup (Auto-Detect's pattern cache) pay it once per
    /// batch instead of once per column.
    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        columns.iter().map(|c| self.detect(c)).collect()
    }
}

/// A shared model (the roster builds Auto-Detect around an
/// `Arc<AutoDetect>`) is itself a detector.
impl<T: Detector + ?Sized> Detector for Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        (**self).detect(column)
    }

    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        (**self).detect_batch(columns)
    }
}

/// Auto-Detect is itself a [`Detector`]: native ST aggregation with
/// max-confidence ranking.
impl Detector for AutoDetect {
    fn name(&self) -> &'static str {
        "Auto-Detect"
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        findings_to_predictions(self.detect_column(column))
    }

    /// One [`PatternCache`] serves the whole batch: every distinct value
    /// is generalized once per language and pair scores are memoized
    /// across the batch's columns. Findings are unaffected (the cache
    /// only memoizes pure functions).
    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        let mut cache = PatternCache::new();
        columns
            .iter()
            .map(|c| {
                findings_to_predictions(self.scan_column(c, Aggregator::AutoDetect, &mut cache).0)
            })
            .collect()
    }
}

/// Auto-Detect scored through an alternative aggregator (the Figure 8(b)
/// comparisons), adapted to the [`Detector`] interface.
pub struct AggregatedAutoDetect<'a> {
    /// The underlying trained model.
    pub model: &'a AutoDetect,
    /// The aggregation strategy to apply.
    pub aggregator: Aggregator,
    /// Display name (e.g. `"AvgNPMI"`).
    pub name: &'static str,
}

impl Detector for AggregatedAutoDetect<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        findings_to_predictions(self.model.detect_column_with(column, self.aggregator))
    }
}

/// Converts ranked column findings into the cross-method prediction
/// shape.
pub fn findings_to_predictions(findings: Vec<crate::detector::ColumnFinding>) -> Vec<Prediction> {
    findings
        .into_iter()
        .map(|f| Prediction {
            value: f.suspect,
            confidence: f.confidence,
        })
        .collect()
}

/// Sorts predictions by descending confidence with a deterministic
/// tie-break, truncating to `limit`.
pub fn finalize_predictions(mut preds: Vec<Prediction>, limit: usize) -> Vec<Prediction> {
    preds.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then_with(|| a.value.cmp(&b.value))
    });
    preds.truncate(limit);
    preds
}

/// Tallies distinct values with their multiplicities, sorted by frequency
/// (ascending — rare values first) then value.
pub fn value_counts(column: &Column) -> Vec<(String, usize)> {
    let mut counts: adt_stats::FxHashMap<&str, usize> = adt_stats::FxHashMap::default();
    for v in column.non_empty_values() {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut out: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(v, c)| (v.to_string(), c))
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::SourceTag;

    #[test]
    fn finalize_sorts_and_truncates() {
        let preds = vec![
            Prediction {
                value: "b".into(),
                confidence: 0.5,
            },
            Prediction {
                value: "a".into(),
                confidence: 0.9,
            },
            Prediction {
                value: "c".into(),
                confidence: 0.5,
            },
        ];
        let out = finalize_predictions(preds, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, "a");
        assert_eq!(out[1].value, "b"); // tie broken lexicographically
    }

    #[test]
    fn value_counts_rare_first() {
        let col = Column::from_strs(&["x", "y", "x", "", "x"], SourceTag::Csv);
        let counts = value_counts(&col);
        assert_eq!(counts, vec![("y".to_string(), 1), ("x".to_string(), 3)]);
    }

    #[test]
    fn default_detect_batch_matches_per_column() {
        struct Rare;
        impl Detector for Rare {
            fn name(&self) -> &'static str {
                "Rare"
            }
            fn detect(&self, column: &Column) -> Vec<Prediction> {
                value_counts(column)
                    .into_iter()
                    .filter(|(_, c)| *c == 1)
                    .map(|(value, _)| Prediction {
                        value,
                        confidence: 1.0,
                    })
                    .collect()
            }
        }
        let cols = vec![
            Column::from_strs(&["a", "a", "b"], SourceTag::Csv),
            Column::from_strs(&["x", "x"], SourceTag::Csv),
        ];
        let batch = Rare.detect_batch(&cols);
        assert_eq!(batch.len(), 2);
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(batch[i], Rare.detect(col));
        }
    }

    #[test]
    fn autodetect_batch_matches_per_column() {
        let model = crate::detector::testkit::tiny_model();
        let cols = vec![
            Column::from_strs(
                &["2019-03-01", "2019-03-02", "2019/03/04", "2019-03-05"],
                SourceTag::Csv,
            ),
            Column::from_strs(&["12", "95", "130", "88"], SourceTag::Csv),
        ];
        let batch = model.detect_batch(&cols);
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(batch[i], model.detect(col), "column {i} diverged");
        }
    }
}
