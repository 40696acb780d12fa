//! Union: pools the predictions of all baseline methods (§4.2).
//!
//! Each member method contributes its ranked predictions; scores are
//! rank-normalized (method scales are incomparable) and the pooled
//! prediction takes each value's best normalized rank across methods.
//! That is [`EnsembleEngine`] under [`MergePolicy::Union`], which
//! reproduces the historical rank pooling byte for byte (see the
//! differential test below); this module builds the roster's
//! [`crate::DetectorId::Union`] entry.

use adt_core::ensemble::{EnsembleEngine, MergePolicy};

/// The Union meta-detector: an engine over the ten baselines under
/// [`MergePolicy::Union`], which keeps 16 predictions per column and is
/// displayed as "Union".
///
/// One worker thread: Union is routinely driven from inside an
/// already-parallel evaluation loop, and the historical implementation
/// was serial.
pub fn union() -> EnsembleEngine {
    EnsembleEngine::new(crate::all_baselines())
        .with_merge(MergePolicy::Union)
        .with_threads(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::api::{finalize_predictions, Detector, Prediction};
    use adt_corpus::{Column, SourceTag};
    use std::collections::HashMap;

    /// The pre-ensemble rank-pooling implementation, preserved verbatim
    /// as the reference for the differential test.
    fn reference_union(
        members: &[Box<dyn Detector>],
        limit: usize,
        column: &Column,
    ) -> Vec<Prediction> {
        let mut pooled: HashMap<String, f64> = HashMap::new();
        for m in members {
            let preds = m.detect(column);
            let n = preds.len();
            for (rank, p) in preds.into_iter().enumerate() {
                // Normalized rank score in (0, 1]: top prediction of any
                // method scores 1, the last scores 1/n.
                let score = (n - rank) as f64 / n as f64;
                let e = pooled.entry(p.value).or_insert(0.0);
                if score > *e {
                    *e = score;
                }
            }
        }
        let preds: Vec<Prediction> = pooled
            .into_iter()
            .map(|(value, confidence)| Prediction { value, confidence })
            .collect();
        finalize_predictions(preds, limit)
    }

    fn mixed_columns() -> Vec<Column> {
        let mut cols = Vec::new();
        // 19 ISO dates + intruder.
        let mut vals: Vec<String> = (1..20)
            .map(|i| format!("2011-{:02}-{:02}", (i % 12) + 1, (i % 27) + 1))
            .collect();
        vals.push("not a date at all!!".to_string());
        cols.push(Column::new(vals, SourceTag::Csv));
        // Numbers with a thousands-separator intruder.
        let mut vals: Vec<String> = (0..18).map(|i| format!("{}", 100 + i * 7)).collect();
        vals.push("3,000".to_string());
        cols.push(Column::new(vals, SourceTag::Csv));
        // Clean short codes (many methods stay silent here).
        let vals: Vec<String> = (0..15).map(|i| format!("AB-{i:03}")).collect();
        cols.push(Column::new(vals, SourceTag::Csv));
        cols
    }

    /// The ensemble-backed Union must be byte-identical to the historical
    /// rank-pooling implementation on every prediction.
    #[test]
    fn differential_against_rank_pooling_reference() {
        let u = union();
        let reference_members = crate::all_baselines();
        for (i, col) in mixed_columns().iter().enumerate() {
            let new = u.detect(col);
            let old = reference_union(&reference_members, 16, col);
            assert_eq!(new.len(), old.len(), "column {i}: prediction count");
            for (n, o) in new.iter().zip(&old) {
                assert_eq!(n.value, o.value, "column {i}: value order diverged");
                assert!(
                    n.confidence.to_bits() == o.confidence.to_bits(),
                    "column {i}: confidence diverged for {}: {} vs {}",
                    n.value,
                    n.confidence,
                    o.confidence
                );
            }
        }
    }

    #[test]
    fn union_pools_member_predictions() {
        let mut vals: Vec<String> = (0..20).map(|i| format!("20{i:02}-01-01")).collect();
        vals.push("not a date".to_string());
        let col = Column::new(vals, SourceTag::Csv);
        let u = union();
        let preds = u.detect(&col);
        assert!(!preds.is_empty());
        assert_eq!(preds[0].value, "not a date");
        assert_eq!(u.name(), "Union");
    }

    #[test]
    fn union_predictions_come_from_the_column() {
        // Noisy members (Linear fires on almost anything) mean the union
        // is rarely silent; its predictions must at least be real column
        // values with normalized-rank confidences in (0, 1].
        let vals: Vec<String> = (0..20).map(|i| format!("20{i:02}-01-01")).collect();
        let col = Column::new(vals.clone(), SourceTag::Csv);
        let preds = union().detect(&col);
        for p in &preds {
            assert!(vals.contains(&p.value));
            assert!(p.confidence > 0.0 && p.confidence <= 1.0);
        }
    }
}
