//! The common detector interface — the single canonical surface every
//! detection method implements.
//!
//! Moved here from `adt-baselines` so that Auto-Detect itself and every
//! baseline implement one trait: evaluation drivers, the ensemble
//! engine, and services consume a uniform `dyn Detector` instead of
//! special-casing Auto-Detect. `adt-baselines` re-exports these items
//! for compatibility.
//!
//! Three layers:
//!
//! * [`Detector`] — per-column and batch detection. `detect_batch` has a
//!   default per-column implementation; detectors with amortizable setup
//!   (Auto-Detect's pattern cache) override it so whole CSV batches are
//!   scanned against one warm cache.
//! * [`DetectorInfo`] — a static descriptor (name, [`DetectorKind`],
//!   [`CostClass`]) so engines can schedule and report without
//!   downcasting.
//! * [`DetectorRegistry`] / [`DetectorSpec`] — typed construction of
//!   detectors by configuration name (`"autodetect"`, `"fregex"`, …),
//!   with unknown names surfacing as [`AdtError::Config`].

use crate::aggregate::Aggregator;
use crate::detector::{AutoDetect, PatternCache};
use crate::error::AdtError;
use adt_corpus::Column;
use std::collections::BTreeMap;
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

/// What a detector's signal is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Corpus-trained co-occurrence statistics (Auto-Detect).
    CorpusStatistics,
    /// Purely local single-column heuristics (the §4.2 baselines).
    SingleColumn,
    /// Composition of other detectors (Union, ensembles).
    Meta,
}

/// Rough per-column cost, for scheduling and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostClass {
    /// Linear-ish in distinct values (regex matchers, counters).
    Cheap,
    /// Pairwise in distinct values or model probes.
    Moderate,
    /// Superquadratic / iterative refinement (LSA, LOF, compression).
    Expensive,
}

/// Static descriptor of a detector, surfaced in reports and `/v1/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorInfo {
    /// Display name (matching the paper's legend).
    pub name: &'static str,
    /// Signal provenance.
    pub kind: DetectorKind,
    /// Rough per-column cost.
    pub cost: CostClass,
}

/// A single-column error detector.
pub trait Detector: Send + Sync {
    /// The method's display name (matching the paper's legend).
    fn name(&self) -> &'static str;

    /// Ranked error predictions for one column, most confident first.
    /// An empty vector means "column looks clean".
    fn detect(&self, column: &Column) -> Vec<Prediction>;

    /// Static descriptor. The default assumes a cheap local method;
    /// override where the engine should know better.
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: self.name(),
            kind: DetectorKind::SingleColumn,
            cost: CostClass::Cheap,
        }
    }

    /// Ranked predictions for a whole batch of columns, one vector per
    /// input column. `detect_batch(cols)[i]` is always identical to
    /// `detect(&cols[i])` — the batch form exists so detectors with
    /// amortizable setup (Auto-Detect's pattern cache) pay it once per
    /// batch instead of once per column.
    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        columns.iter().map(|c| self.detect(c)).collect()
    }
}

impl<T: Detector + ?Sized> Detector for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        (**self).detect(column)
    }

    fn info(&self) -> DetectorInfo {
        (**self).info()
    }

    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        (**self).detect_batch(columns)
    }
}

impl<T: Detector + ?Sized> Detector for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        (**self).detect(column)
    }

    fn info(&self) -> DetectorInfo {
        (**self).info()
    }

    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        (**self).detect_batch(columns)
    }
}

impl<T: Detector + ?Sized> Detector for Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        (**self).detect(column)
    }

    fn info(&self) -> DetectorInfo {
        (**self).info()
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

    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: self.name(),
            kind: DetectorKind::CorpusStatistics,
            cost: CostClass::Moderate,
        }
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

/// Canonical configuration names for every detector the workspace ships,
/// lowercase, in the paper's presentation order. Configuration layers
/// validate against this list so an unknown `--detectors` entry fails
/// fast with a typed error even before a registry is assembled.
pub const KNOWN_DETECTORS: [&str; 12] = [
    "autodetect",
    "fregex",
    "pwheel",
    "dboost",
    "linear",
    "linearp",
    "cdm",
    "lsa",
    "svdd",
    "dbod",
    "lof",
    "union",
];

/// Checks `name` against [`KNOWN_DETECTORS`], returning a typed
/// [`AdtError::Config`] naming the offender and the valid choices.
pub fn validate_detector_name(name: &str) -> Result<(), AdtError> {
    if KNOWN_DETECTORS.contains(&name) {
        Ok(())
    } else {
        Err(AdtError::Config(format!(
            "unknown detector '{name}' (known: {})",
            KNOWN_DETECTORS.join(", ")
        )))
    }
}

/// A typed, validated request for one detector by configuration name.
///
/// Parsing lowercases and trims, so `" F-Regex "` and `"fregex"` both
/// resolve to the canonical `fregex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Canonical lowercase name, guaranteed to be in [`KNOWN_DETECTORS`].
    name: String,
}

impl DetectorSpec {
    /// Parses one detector name, normalizing case/whitespace/punctuation
    /// and validating against [`KNOWN_DETECTORS`].
    pub fn parse(raw: &str) -> Result<Self, AdtError> {
        let name: String = raw
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        validate_detector_name(&name)?;
        Ok(DetectorSpec { name })
    }

    /// Parses a comma-separated detector list (`"autodetect,fregex,cdm"`),
    /// rejecting empties, duplicates, and unknown names through
    /// [`crate::ensemble::parse_ensemble`].
    pub fn parse_list(raw: &str) -> Result<Vec<Self>, AdtError> {
        crate::ensemble::parse_ensemble(raw.split(','), None).map(|(specs, _)| specs)
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

type DetectorFactory = Box<dyn Fn() -> Box<dyn Detector> + Send + Sync>;

/// Constructs detectors by canonical configuration name.
///
/// `adt-core` registers `"autodetect"` (it owns the model); the baseline
/// crate layers its ten methods plus `"union"` on top via its
/// `standard_registry` helper. Factories are stored in a `BTreeMap` so
/// `names()` iteration order is deterministic.
pub struct DetectorRegistry {
    factories: BTreeMap<String, DetectorFactory>,
}

impl DetectorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DetectorRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry with the core `"autodetect"` detector backed by
    /// `model`.
    pub fn with_model(model: Arc<AutoDetect>) -> Self {
        let mut reg = DetectorRegistry::new();
        reg.register("autodetect", move || Box::new(Arc::clone(&model)));
        reg
    }

    /// Registers (or replaces) the factory for `name`.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn() -> Box<dyn Detector> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Box::new(factory));
    }

    /// Whether `name` has a registered factory.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(|k| k.as_str()).collect()
    }

    /// Builds the detector registered under `spec`, or a typed
    /// [`AdtError::Config`] naming the offender.
    pub fn build(&self, spec: &DetectorSpec) -> Result<Box<dyn Detector>, AdtError> {
        match self.factories.get(spec.name()) {
            Some(f) => Ok(f()),
            None => Err(AdtError::Config(format!(
                "detector '{}' is not registered (available: {})",
                spec.name(),
                self.names().join(", ")
            ))),
        }
    }

    /// Builds one detector per spec, preserving order.
    pub fn build_set(&self, specs: &[DetectorSpec]) -> Result<Vec<Box<dyn Detector>>, AdtError> {
        specs.iter().map(|s| self.build(s)).collect()
    }
}

impl Default for DetectorRegistry {
    fn default() -> Self {
        DetectorRegistry::new()
    }
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
    fn detector_spec_normalizes_and_validates() {
        assert_eq!(DetectorSpec::parse(" F-Regex ").unwrap().name(), "fregex");
        assert_eq!(
            DetectorSpec::parse("Auto_Detect").unwrap().name(),
            "autodetect"
        );
        let err = DetectorSpec::parse("nope").unwrap_err();
        assert!(matches!(err, AdtError::Config(ref m) if m.contains("nope")));
    }

    #[test]
    fn detector_spec_list_rejects_dupes_and_empties() {
        let specs = DetectorSpec::parse_list("autodetect,fregex,cdm").unwrap();
        assert_eq!(
            specs.iter().map(|s| s.name()).collect::<Vec<_>>(),
            vec!["autodetect", "fregex", "cdm"]
        );
        assert!(DetectorSpec::parse_list("fregex,,cdm").is_err());
        assert!(DetectorSpec::parse_list("fregex,fregex").is_err());
        assert!(DetectorSpec::parse_list("").is_err());
    }

    #[test]
    fn registry_builds_by_name_and_reports_unregistered() {
        let model = Arc::new(crate::detector::testkit::tiny_model());
        let reg = DetectorRegistry::with_model(Arc::clone(&model));
        assert!(reg.contains("autodetect"));
        let spec = DetectorSpec::parse("autodetect").unwrap();
        let det = reg.build(&spec).unwrap();
        assert_eq!(det.name(), "Auto-Detect");
        assert_eq!(det.info().kind, DetectorKind::CorpusStatistics);

        let missing = DetectorSpec::parse("lof").unwrap();
        match reg.build(&missing) {
            Err(AdtError::Config(m)) => assert!(m.contains("lof")),
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("building an unregistered detector succeeded"),
        }
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
