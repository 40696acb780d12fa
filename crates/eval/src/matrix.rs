//! Detector × error-class evaluation matrix.
//!
//! The scenario runner behind `matrix_report` / `BENCH_matrix.json`: for
//! each error class in the corpus generator's taxonomy it builds a
//! scenario of columns carrying exactly that error (plus untouched clean
//! columns), runs every requested detector over each scenario, and
//! scores pooled precision@k per (detector, class) cell, plus each
//! detector's precision micro-averaged across all classes. These
//! per-detector priors are reported only; no merge policy reads them.

use crate::metrics::{pooled_predictions, precision_at_k};
use crate::runner::run_method_threads;
use crate::testcases::TestCase;
use adt_core::api::Detector;
use adt_corpus::{corrupt_value, Column, CorpusGenerator, CorpusProfile, ErrorKind};
use adt_rng::rngs::StdRng;
use adt_rng::{Rng, SeedableRng};
use std::time::Instant;

/// One evaluation scenario: every dirty case carries one error of the
/// same class.
pub struct Scenario {
    /// The injected error class.
    pub kind: ErrorKind,
    /// Dirty cases first, then clean cases.
    pub cases: Vec<TestCase>,
}

impl Scenario {
    /// Number of dirty cases (the per-cell `k`).
    pub fn n_dirty(&self) -> usize {
        self.cases.iter().filter(|c| c.is_dirty()).count()
    }
}

/// Builds one scenario per error class in [`ErrorKind::ALL`], with
/// per-class derived seeds so scenarios are independent but the whole
/// matrix is deterministic for a given `seed`.
pub fn build_scenarios(
    profile: &CorpusProfile,
    n_dirty: usize,
    n_clean: usize,
    seed: u64,
) -> Vec<Scenario> {
    ErrorKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| Scenario {
            kind,
            cases: class_cases(
                profile,
                kind,
                n_dirty,
                n_clean,
                seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
        })
        .collect()
}

/// Cases for one error class: clean generator columns with one value
/// corrupted by `kind` (rows the kind cannot apply to are re-sampled),
/// plus `n_clean` untouched columns. Some classes do not apply to every
/// domain, so fewer than `n_dirty` dirty cases may come back; callers
/// score against [`Scenario::n_dirty`], not the request.
pub fn class_cases(
    profile: &CorpusProfile,
    kind: ErrorKind,
    n_dirty: usize,
    n_clean: usize,
    seed: u64,
) -> Vec<TestCase> {
    let generator = CorpusGenerator::new(profile.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::with_capacity(n_dirty + n_clean);
    let mut guard = 0usize;
    while cases.len() < n_dirty && guard < n_dirty * 200 {
        guard += 1;
        let gid = generator.sample_group(&mut rng);
        let len = generator.sample_len(&mut rng);
        let col = generator.clean_column(gid, len, &mut rng);
        if col.is_empty() {
            continue;
        }
        let domain = generator.groups()[gid].dominant_domain();
        let row = rng.random_range(0..col.len());
        let bad = match corrupt_value(&col.values[row], domain, kind, &mut rng) {
            Some(v) => v,
            None => continue,
        };
        // A "corrupted" value that legitimately appears elsewhere in the
        // column would be an unfair label.
        if col.values.iter().any(|v| v == &bad) {
            continue;
        }
        let mut values = col.values.clone();
        values[row] = bad.clone();
        cases.push(TestCase {
            column: Column::new(values, col.source),
            errors: vec![bad],
        });
    }
    for _ in 0..n_clean {
        let gid = generator.sample_group(&mut rng);
        let len = generator.sample_len(&mut rng);
        cases.push(TestCase {
            column: generator.clean_column(gid, len, &mut rng),
            errors: Vec::new(),
        });
    }
    cases
}

/// One (detector, error class) cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Canonical configuration name (`fregex`).
    pub detector: String,
    /// Display name (`F-Regex`).
    pub display: String,
    /// Error-class name (`format_swap`).
    pub class: &'static str,
    /// k used for precision@k (= the scenario's dirty-case count).
    pub k: usize,
    /// Pooled precision@k.
    pub precision: f64,
    /// Correct predictions within the top k.
    pub hits: usize,
    /// Total pooled predictions for the scenario.
    pub predictions: usize,
    /// Wall time for the scenario's detection pass.
    pub wall_nanos: u64,
}

/// The full matrix plus each detector's precision over all classes.
#[derive(Debug)]
pub struct MatrixReport {
    /// Cells in (detector, class) order — detectors as requested,
    /// classes in [`ErrorKind::ALL`] order.
    pub cells: Vec<MatrixCell>,
    /// Per-detector precision micro-averaged over all classes
    /// (`Σ hits / Σ k`), floored at 0.05. Reported only: no merge
    /// policy reads it.
    pub priors: Vec<(String, f64)>,
}

impl MatrixReport {
    /// Cells for one detector, in class order.
    pub fn row(&self, detector: &str) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| c.detector == detector)
            .collect()
    }
}

/// Runs every detector, paired with its configuration name, over every
/// scenario. Detection within a scenario fans over `threads` workers
/// (0 = all cores) on the worker pool (`adt_stats::parallel_map`), so
/// cells are identical at any thread count.
pub fn run_matrix(
    detectors: &[(&str, &dyn Detector)],
    scenarios: &[Scenario],
    threads: usize,
) -> MatrixReport {
    let mut cells = Vec::with_capacity(detectors.len() * scenarios.len());
    let mut priors = Vec::with_capacity(detectors.len());
    for &(name, detector) in detectors {
        let mut hits_total = 0usize;
        let mut k_total = 0usize;
        for scenario in scenarios {
            // adt-allow(determinism): wall-clock feeds MatrixCell timing fields only, never detection results
            let t0 = Instant::now();
            let predictions = run_method_threads(detector, &scenario.cases, threads);
            let wall_nanos = t0.elapsed().as_nanos() as u64;
            let pooled = pooled_predictions(&scenario.cases, &predictions, 1);
            let k = scenario.n_dirty();
            let hits = pooled.iter().take(k).filter(|p| p.correct).count();
            hits_total += hits;
            k_total += k;
            cells.push(MatrixCell {
                detector: name.to_string(),
                display: detector.name().to_string(),
                class: scenario.kind.name(),
                k,
                precision: precision_at_k(&pooled, k),
                hits,
                predictions: pooled.len(),
                wall_nanos,
            });
        }
        let prior = if k_total == 0 {
            0.05
        } else {
            (hits_total as f64 / k_total as f64).max(0.05)
        };
        priors.push((name.to_string(), prior));
    }
    MatrixReport { cells, priors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_baselines::{DboostDetector, FRegexDetector};

    #[test]
    fn class_cases_label_the_target_kind() {
        let mut profile = CorpusProfile::web(1);
        profile.dirty_rate = 0.0;
        let cases = class_cases(&profile, ErrorKind::TrailingDot, 10, 5, 42);
        let dirty: Vec<&TestCase> = cases.iter().filter(|c| c.is_dirty()).collect();
        assert!(!dirty.is_empty());
        for c in &dirty {
            assert_eq!(c.errors.len(), 1);
            assert!(c.errors[0].ends_with('.'), "{:?}", c.errors[0]);
            assert!(c.column.values.iter().any(|v| v == &c.errors[0]));
        }
        assert_eq!(cases.iter().filter(|c| !c.is_dirty()).count(), 5);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let mut profile = CorpusProfile::web(1);
        profile.dirty_rate = 0.0;
        let a = build_scenarios(&profile, 4, 4, 7);
        let b = build_scenarios(&profile, 4, 4, 7);
        assert_eq!(a.len(), ErrorKind::ALL.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.cases.len(), y.cases.len());
            for (cx, cy) in x.cases.iter().zip(&y.cases) {
                assert_eq!(cx.column.values, cy.column.values);
                assert_eq!(cx.errors, cy.errors);
            }
        }
    }

    #[test]
    fn matrix_covers_every_detector_class_pair() {
        let mut profile = CorpusProfile::web(1);
        profile.dirty_rate = 0.0;
        let scenarios = build_scenarios(&profile, 3, 3, 11);
        let detectors: [(&str, &dyn Detector); 2] = [
            ("fregex", &FRegexDetector::default()),
            ("dboost", &DboostDetector::default()),
        ];
        let report = run_matrix(&detectors, &scenarios, 1);
        assert_eq!(report.cells.len(), 2 * ErrorKind::ALL.len());
        assert_eq!(report.row("fregex").len(), ErrorKind::ALL.len());
        for cell in &report.cells {
            assert!(cell.precision >= 0.0 && cell.precision <= 1.0);
            assert!(cell.hits <= cell.k);
        }
        assert_eq!(report.priors.len(), 2);
        for (name, prior) in &report.priors {
            assert!(detectors.iter().any(|(d, _)| d == name));
            assert!(*prior >= 0.05 && *prior <= 1.0, "{name}: {prior}");
        }
    }

    #[test]
    fn matrix_is_thread_invariant() {
        let mut profile = CorpusProfile::web(1);
        profile.dirty_rate = 0.0;
        let scenarios = build_scenarios(&profile, 3, 3, 13);
        let detectors: [(&str, &dyn Detector); 1] = [("fregex", &FRegexDetector::default())];
        let serial = run_matrix(&detectors, &scenarios, 1);
        let parallel = run_matrix(&detectors, &scenarios, 4);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.precision.to_bits(), b.precision.to_bits());
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.predictions, b.predictions);
        }
    }
}
