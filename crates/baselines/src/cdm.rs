//! CDM: compression-based dissimilarity measure (Keogh et al., KDD'04).
//!
//! `CDM(x, y) = C(xy) / (C(x) + C(y))` with `C` an off-the-shelf
//! compressor — here the `adt-compress` LZSS/entropy pipeline standing in
//! for zip. Values are first generalized to patterns (as §4.2 describes),
//! and each value's outlier score is its nearest-neighbour CDM distance
//! to the other values' patterns. Values sharing a pattern share a
//! score, so the distances are computed once per pair of distinct
//! patterns.

use adt_compress::cdm_distance;
use adt_core::api::{finalize_predictions, value_counts, Detector, Prediction};
use adt_corpus::Column;
use adt_patterns::crude_generalize;
use std::collections::HashMap;

/// The CDM detector.
#[derive(Debug, Clone)]
pub struct CdmDetector {
    /// Maximum predictions per column.
    pub limit: usize,
    /// Minimum excess of a value's nearest-neighbour CDM over its
    /// self-similarity floor for it to be reported.
    pub min_distance: f64,
}

impl Default for CdmDetector {
    fn default() -> Self {
        CdmDetector {
            limit: 16,
            min_distance: 0.05,
        }
    }
}

impl Detector for CdmDetector {
    fn name(&self) -> &'static str {
        "CDM"
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        let values = value_counts(column);
        if values.len() < 3 {
            return Vec::new();
        }
        let patterns: Vec<String> = values
            .iter()
            .map(|(v, _)| crude_generalize(v).to_string())
            .collect();
        // The distinct patterns, whether two or more values share each,
        // and each value's pattern index.
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut distinct: Vec<&[u8]> = Vec::new();
        let mut shared: Vec<bool> = Vec::new();
        let of_value: Vec<usize> = patterns
            .iter()
            .map(|p| match index.get(p.as_str()) {
                Some(&k) => {
                    shared[k] = true;
                    k
                }
                None => {
                    index.insert(p, distinct.len());
                    distinct.push(p.as_bytes());
                    shared.push(false);
                    distinct.len() - 1
                }
            })
            .collect();
        // Nearest-neighbour CDM: a value's score is its smallest CDM
        // distance to any other value's pattern, which is the other
        // distinct patterns plus its own when another value shares it.
        // Comparing same-length inputs keeps CDM in its meaningful
        // regime (a value against the whole concatenated column would be
        // dominated by the column's own redundancy). The self-similarity
        // floor CDM(p, p) is subtracted so identical-pattern columns
        // score ~0. CDM is not symmetric, so the value's own pattern
        // stays the first argument.
        let scores: Vec<f64> = (0..distinct.len())
            .map(|a| {
                let self_floor = cdm_distance(distinct[a], distinct[a]);
                let nearest = (0..distinct.len())
                    .filter(|&b| b != a)
                    .map(|b| cdm_distance(distinct[a], distinct[b]))
                    .chain(shared[a].then_some(self_floor))
                    .fold(f64::INFINITY, f64::min);
                nearest - self_floor
            })
            .collect();
        let preds = values
            .iter()
            .zip(&of_value)
            .filter(|&(_, &k)| scores[k] >= self.min_distance)
            .map(|((value, _), &k)| Prediction {
                value: value.clone(),
                confidence: scores[k],
            })
            .collect();
        finalize_predictions(preds, self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::SourceTag;

    #[test]
    fn outlier_compresses_worst() {
        let mut vals: Vec<String> = (0..20).map(|i| format!("20{i:02}-01-01")).collect();
        vals.push("WTA International $50.000".to_string());
        let col = Column::new(vals, SourceTag::Csv);
        let preds = CdmDetector::default().detect(&col);
        assert!(!preds.is_empty());
        assert_eq!(preds[0].value, "WTA International $50.000");
    }

    #[test]
    fn homogeneous_column_scores_low() {
        let vals: Vec<String> = (0..20).map(|i| format!("20{i:02}-01-01")).collect();
        let col = Column::new(vals, SourceTag::Csv);
        let preds = CdmDetector::default().detect(&col);
        // Identical patterns compress perfectly against each other.
        assert!(preds.is_empty(), "got {preds:?}");
    }

    /// The per-value scan the distinct-pattern one replaced, before
    /// the `min_distance` cut: every value against every other value's
    /// pattern.
    fn per_value_oracle(column: &Column) -> Vec<Prediction> {
        let values = value_counts(column);
        let patterns: Vec<String> = values
            .iter()
            .map(|(v, _)| crude_generalize(v).to_string())
            .collect();
        let mut preds = Vec::new();
        for i in 0..values.len() {
            let self_floor = cdm_distance(patterns[i].as_bytes(), patterns[i].as_bytes());
            let nearest = (0..values.len())
                .filter(|&j| j != i)
                .map(|j| cdm_distance(patterns[i].as_bytes(), patterns[j].as_bytes()))
                .fold(f64::INFINITY, f64::min);
            preds.push(Prediction {
                value: values[i].0.clone(),
                confidence: nearest - self_floor,
            });
        }
        preds
    }

    #[test]
    fn distinct_pattern_scan_matches_the_per_value_oracle() {
        use adt_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xCD11);
        let pool: Vec<&str> = "2011-01-01|2011/01/01|12:30|N/A|July 4|$1,200.00|1200|x|\
                               WTA International $50.000|ab-12|AB 12| lead|tail |é-ü|"
            .split('|')
            .collect();
        for case in 0..20 {
            let n = rng.random_range(3..25usize);
            let vals: Vec<String> = (0..n)
                .map(|i| {
                    let base = *pool.choose(&mut rng).unwrap_or(&"x");
                    if rng.random_bool(0.3) {
                        format!("{base}{i}")
                    } else {
                        base.to_string()
                    }
                })
                .collect();
            let column = Column::new(vals, SourceTag::Csv);
            let scored = per_value_oracle(&column);
            for min_distance in [f64::NEG_INFINITY, -0.1, 0.0, 0.05, 0.2] {
                let detector = CdmDetector {
                    limit: 64,
                    min_distance,
                };
                let kept = scored.iter().filter(|p| p.confidence >= min_distance);
                let want = if scored.len() < 3 {
                    Vec::new()
                } else {
                    finalize_predictions(kept.cloned().collect(), detector.limit)
                };
                assert_eq!(
                    detector.detect(&column),
                    want,
                    "case {case}, min_distance {min_distance}"
                );
            }
        }
    }

    #[test]
    fn tiny_columns_silent() {
        let col = Column::from_strs(&["a", "b"], SourceTag::Csv);
        assert!(CdmDetector::default().detect(&col).is_empty());
    }
}
