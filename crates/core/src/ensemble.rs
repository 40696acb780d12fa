//! Multi-detector orchestration: run a configurable detector set over a
//! column batch in parallel and merge their rankings.
//!
//! The paper evaluates Auto-Detect against a bench of baseline detectors
//! whose union is itself a meta-detector (§4.2). [`EnsembleEngine`]
//! turns that evaluation harness into an orchestration feature:
//!
//! * every member implements the canonical [`Detector`] trait and is
//!   driven through `detect_batch`, so setup cost (Auto-Detect's pattern
//!   cache) is amortized per chunk rather than per column;
//! * work is fanned over the worker pool ([`parallel_map`]) as
//!   (detector × column-chunk) items whose chunk width is a pure
//!   function of the **column count** (never the thread count), so the
//!   work decomposition — and therefore every detector's output — is
//!   independent of the thread count; batches too small to amortize the
//!   fan-out run serially, which changes scheduling only, not
//!   decomposition, and a panicking member is [`AdtError::Worker`] on
//!   either path;
//! * per-detector wall time and prediction counts are recorded as
//!   [`DetectorLane`]s in the [`EnsembleReport`];
//! * rankings are merged by a pluggable [`MergePolicy`], deduping by
//!   (column, value) with the deterministic confidence-then-value
//!   ordering of [`finalize_predictions`].
//!
//! Determinism argument: chunk boundaries depend only on the column
//! count; the serial fallback depends only on detector and column
//! counts; `parallel_map` preserves item order regardless of which
//! worker ran which item; merging folds detectors in their configured
//! order with order-insensitive max/count pooling; and the final sort
//! breaks confidence ties lexicographically. Wall-clock readings feed
//! timing lanes only, never findings, so merged output is byte-identical
//! at any thread count.
//!
//! The engine is itself a [`Detector`]: the paper's Union baseline is an
//! engine over the ten §4.2 baselines under [`MergePolicy::Union`]
//! (`adt_baselines::DetectorId::Union`).

use crate::api::{finalize_predictions, Detector, Prediction};
use crate::error::AdtError;
use adt_corpus::Column;
use adt_stats::parallel_map;
use std::collections::BTreeMap;
use std::time::Instant;

/// How per-detector rankings are combined into one ranking per column.
///
/// All policies first rank-normalize each member's predictions — the
/// top prediction of any method scores 1, the last 1/n — because raw
/// confidences are incomparable across methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MergePolicy {
    /// Max-pool the normalized ranks across members (the paper's §4.2
    /// Union baseline).
    #[default]
    Union,
    /// Keep only values predicted by at least `k` members; confidence is
    /// the best normalized rank among them.
    Vote(usize),
}

impl MergePolicy {
    /// Parses the configuration syntax: `union` or `vote:k` (k ≥ 1).
    /// Anything else is a typed [`AdtError::Config`].
    pub fn parse(raw: &str) -> Result<Self, AdtError> {
        let s = raw.trim().to_ascii_lowercase();
        if s == "union" {
            return Ok(MergePolicy::Union);
        }
        if let Some(k) = s.strip_prefix("vote:") {
            return match k.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(MergePolicy::Vote(k)),
                _ => Err(AdtError::Config(format!(
                    "malformed merge policy '{raw}': vote:k needs an integer k >= 1"
                ))),
            };
        }
        if s == "vote" {
            return Err(AdtError::Config(format!(
                "malformed merge policy '{raw}': vote needs a threshold, e.g. vote:2"
            )));
        }
        Err(AdtError::Config(format!(
            "unknown merge policy '{raw}' (known: union, vote:k)"
        )))
    }

    /// The policy a requested ensemble of `members` detectors runs
    /// under: `merge` parsed as by [`MergePolicy::parse`] (`None` means
    /// `union`). An empty ensemble and a `vote:k` threshold above the
    /// member count, which could never fire, are typed
    /// [`AdtError::Config`] errors too.
    pub fn for_ensemble(merge: Option<&str>, members: usize) -> Result<Self, AdtError> {
        if members == 0 {
            return Err(AdtError::Config(
                "an ensemble needs at least one detector".into(),
            ));
        }
        let merge = MergePolicy::parse(merge.unwrap_or("union"))?;
        if let MergePolicy::Vote(k) = merge {
            if k > members {
                return Err(AdtError::Config(format!(
                    "merge vote:{k} needs at least {k} detectors, got {members}"
                )));
            }
        }
        Ok(merge)
    }

    /// The configuration spelling (`union`, `vote:2`).
    pub fn label(&self) -> String {
        match self {
            MergePolicy::Union => "union".to_string(),
            MergePolicy::Vote(k) => format!("vote:{k}"),
        }
    }
}

/// One detector's share of an ensemble scan: wall time and output
/// volume, accumulated across columns and worker threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectorLane {
    /// The detector's display name.
    pub name: String,
    /// Nanoseconds of wall time spent inside this detector's
    /// `detect_batch` calls (summed across chunks, so with multiple
    /// workers this can exceed the scan's elapsed time).
    pub wall_nanos: u64,
    /// Predictions emitted before merging.
    pub predictions: u64,
    /// Columns this detector scanned.
    pub columns: u64,
}

/// The merged result of one ensemble scan.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// Merged, ranked predictions per input column.
    pub predictions: Vec<Vec<Prediction>>,
    /// One [`DetectorLane`] per member, in member order.
    pub lanes: Vec<DetectorLane>,
    /// Nanoseconds spent merging rankings (single-threaded tail).
    pub merge_nanos: u64,
    /// End-to-end wall nanoseconds for the whole run.
    pub elapsed_nanos: u64,
}

/// Below this many detector × column work units the fan-out runs
/// serially: worker spawn and cache-cold chunks cost more than they
/// save. Measured on three detectors (Auto-Detect, F-Regex, CDM) over
/// duplicate-heavy columns: 48 columns (144 units) ran at 0.83× the
/// serial speed under parallel dispatch, while 192 columns (576 units)
/// amortized the dispatch.
/// Scheduling only — the work decomposition is unchanged, so merged
/// output stays byte-identical.
const SERIAL_CUTOFF_UNITS: usize = 256;

/// Columns per work item: about 16 chunks per detector on large batches
/// so the worker queue never starves, clamped to [8, 32] so chunks keep
/// enough columns to amortize per-chunk detector setup. A pure function
/// of the column count — never the thread count — so the work
/// decomposition (and each detector's `detect_batch` grouping) is
/// identical at any parallelism.
fn chunk_width(columns: usize) -> usize {
    columns.div_ceil(16).clamp(8, 32)
}

/// Merged predictions kept per column: the paper-parity cap of the
/// historical Union baseline.
const LIMIT: usize = 16;

/// Runs a detector set over column batches and merges their rankings.
pub struct EnsembleEngine {
    detectors: Vec<Box<dyn Detector>>,
    merge: MergePolicy,
    threads: usize,
}

impl EnsembleEngine {
    /// An engine over `detectors` with union merging and all cores.
    pub fn new(detectors: Vec<Box<dyn Detector>>) -> Self {
        EnsembleEngine {
            detectors,
            merge: MergePolicy::Union,
            threads: 0,
        }
    }

    /// Sets the merge policy.
    pub fn with_merge(mut self, merge: MergePolicy) -> Self {
        self.merge = merge;
        self
    }

    /// Sets the worker thread count (0 = all cores). Affects wall time
    /// only, never the merged output.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Scans `columns` with every member and merges the rankings.
    ///
    /// Work items are (detector, column-chunk) pairs over a fixed chunk
    /// width, pulled by [`parallel_map`] workers; a member's
    /// `detect_batch` sees each chunk whole, so batch-amortized
    /// detectors keep their warm caches. Returns [`AdtError::Worker`]
    /// if a detector panics, [`AdtError::Config`] if the engine has no
    /// members.
    pub fn run(&self, columns: &[Column]) -> Result<EnsembleReport, AdtError> {
        if self.detectors.is_empty() {
            return Err(AdtError::Config("ensemble has no detectors".into()));
        }
        // adt-allow(determinism): wall-clock feeds EnsembleReport timing fields only, never detection results
        let run_start = Instant::now();

        let chunks: Vec<&[Column]> = columns.chunks(chunk_width(columns.len())).collect();
        let mut items: Vec<(usize, usize)> =
            Vec::with_capacity(self.detectors.len() * chunks.len());
        for d in 0..self.detectors.len() {
            for c in 0..chunks.len() {
                items.push((d, c));
            }
        }

        let units = self.detectors.len() * columns.len();
        let threads = if units < SERIAL_CUTOFF_UNITS {
            1
        } else {
            self.threads
        };
        let outputs = parallel_map(&items, threads, "ensemble", |_, &(d, c)| {
            let det = &self.detectors[d];
            let chunk = chunks[c];
            // adt-allow(determinism): wall-clock feeds DetectorLane timing fields only, never detection results
            let start = Instant::now();
            let preds = det.detect_batch(chunk);
            (start.elapsed().as_nanos() as u64, preds)
        })?;

        // Reassemble: items were emitted detector-major and parallel_map
        // preserves item order, so per-detector outputs concatenate back
        // into column order.
        let mut per_detector: Vec<Vec<Vec<Prediction>>> = (0..self.detectors.len())
            .map(|_| Vec::with_capacity(columns.len()))
            .collect();
        let mut lanes: Vec<DetectorLane> = self
            .detectors
            .iter()
            .map(|det| DetectorLane {
                name: det.name().to_string(),
                ..DetectorLane::default()
            })
            .collect();
        for (&(d, _), (nanos, preds)) in items.iter().zip(outputs) {
            if let Some(lane) = lanes.get_mut(d) {
                lane.wall_nanos += nanos;
                lane.predictions += preds.iter().map(|p| p.len() as u64).sum::<u64>();
                lane.columns += preds.len() as u64;
            }
            if let Some(dest) = per_detector.get_mut(d) {
                dest.extend(preds);
            }
        }

        // adt-allow(determinism): wall-clock feeds EnsembleReport timing fields only, never detection results
        let merge_start = Instant::now();
        let mut merged: Vec<Vec<Prediction>> = Vec::with_capacity(columns.len());
        for col in 0..columns.len() {
            let ranked: Vec<&[Prediction]> = per_detector
                .iter()
                .map(|cols| cols.get(col).map(|v| v.as_slice()).unwrap_or(&[]))
                .collect();
            merged.push(merge_column(&ranked, self.merge, LIMIT));
        }
        let merge_nanos = merge_start.elapsed().as_nanos() as u64;

        Ok(EnsembleReport {
            predictions: merged,
            lanes,
            merge_nanos,
            elapsed_nanos: run_start.elapsed().as_nanos() as u64,
        })
    }
}

/// An engine is a detector whose ranking is its merged ranking; under
/// [`MergePolicy::Union`] it is the paper's Union.
impl Detector for EnsembleEngine {
    fn name(&self) -> &'static str {
        match self.merge {
            MergePolicy::Union => "Union",
            MergePolicy::Vote(_) => "Vote",
        }
    }

    fn detect(&self, column: &Column) -> Vec<Prediction> {
        let mut batch = self.detect_batch(std::slice::from_ref(column));
        batch.pop().unwrap_or_default()
    }

    fn detect_batch(&self, columns: &[Column]) -> Vec<Vec<Prediction>> {
        match self.run(columns) {
            Ok(report) => report.predictions,
            // Only an empty member set or a panicking member gets here;
            // a detector degrades to "no predictions" rather than
            // panicking.
            Err(_) => columns.iter().map(|_| Vec::new()).collect(),
        }
    }
}

/// Merges one column's per-detector rankings under `policy`.
///
/// Every policy rank-normalizes first: within one detector, the
/// prediction at `rank` out of `n` scores `(n - rank) / n` ∈ (0, 1] —
/// exactly the historical Union rank pooling, which the `Union` policy
/// reproduces byte-for-byte (`adt-baselines`' union differential test). Pooling is max-based and detectors
/// are folded in configured order, but max and vote-counting are
/// order-insensitive, so the result is independent of scheduling.
fn merge_column(ranked: &[&[Prediction]], policy: MergePolicy, limit: usize) -> Vec<Prediction> {
    let threshold = match policy {
        MergePolicy::Union => 1,
        MergePolicy::Vote(k) => k,
    };
    let mut pooled: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for preds in ranked {
        let n = preds.len();
        for (rank, p) in preds.iter().enumerate() {
            let score = (n - rank) as f64 / n as f64;
            let entry = pooled.entry(p.value.as_str()).or_insert((0.0, 0));
            if score > entry.0 {
                entry.0 = score;
            }
            entry.1 += 1;
        }
    }
    let preds: Vec<Prediction> = pooled
        .into_iter()
        .filter(|(_, (_, votes))| *votes >= threshold)
        .map(|(value, (confidence, _))| Prediction {
            value: value.to_string(),
            confidence,
        })
        .collect();
    finalize_predictions(preds, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::SourceTag;

    struct Fixed {
        name: &'static str,
        preds: Vec<(&'static str, f64)>,
    }

    impl Detector for Fixed {
        fn name(&self) -> &'static str {
            self.name
        }
        fn detect(&self, _column: &Column) -> Vec<Prediction> {
            self.preds
                .iter()
                .map(|(v, c)| Prediction {
                    value: v.to_string(),
                    confidence: *c,
                })
                .collect()
        }
    }

    /// Flags every value whose byte length is below the column median —
    /// column-dependent, cheap, and deterministic.
    struct ShortValues;

    impl Detector for ShortValues {
        fn name(&self) -> &'static str {
            "Short"
        }
        fn detect(&self, column: &Column) -> Vec<Prediction> {
            let mut lens: Vec<usize> = column.non_empty_values().map(|v| v.len()).collect();
            lens.sort_unstable();
            let median = lens.get(lens.len() / 2).copied().unwrap_or(0);
            let preds = crate::api::value_counts(column)
                .into_iter()
                .filter(|(v, _)| v.len() < median)
                .map(|(value, _)| Prediction {
                    confidence: 1.0 / (value.len() + 1) as f64,
                    value,
                })
                .collect();
            finalize_predictions(preds, 16)
        }
    }

    fn cols(n: usize) -> Vec<Column> {
        (0..n)
            .map(|i| {
                let vals: Vec<String> = (0..12)
                    .map(|j| {
                        if j == 7 && i % 3 == 0 {
                            "x".to_string()
                        } else {
                            format!("value-{i}-{j}")
                        }
                    })
                    .collect();
                Column::new(vals, SourceTag::Csv)
            })
            .collect()
    }

    fn engine() -> EnsembleEngine {
        EnsembleEngine::new(vec![
            Box::new(ShortValues),
            Box::new(Fixed {
                name: "A",
                preds: vec![("x", 9.0), ("value-0-0", 3.0)],
            }),
        ])
    }

    #[test]
    fn merge_policy_parse_round_trips() {
        assert_eq!(MergePolicy::parse("union").unwrap(), MergePolicy::Union);
        assert_eq!(MergePolicy::parse("VOTE:2").unwrap(), MergePolicy::Vote(2));
        assert_eq!(MergePolicy::parse("vote:2").unwrap().label(), "vote:2");
        for bad in [
            "vote",
            "vote:0",
            "vote:x",
            "vote:",
            "intersect",
            "calibrated",
            "",
        ] {
            let err = MergePolicy::parse(bad).unwrap_err();
            assert!(
                matches!(err, AdtError::Config(_)),
                "{bad:?} should be a Config error"
            );
        }
    }

    fn p(value: &str, confidence: f64) -> Prediction {
        Prediction {
            value: value.to_string(),
            confidence,
        }
    }

    #[test]
    fn union_matches_rank_pooling_reference() {
        let a = vec![p("x", 9.0), p("y", 5.0)];
        let b = vec![p("y", 0.1)];
        let merged = merge_column(&[&a, &b], MergePolicy::Union, 16);
        // A: x → 2/2 = 1.0, y → 1/2 = 0.5; B: y → 1/1 = 1.0 (max pool).
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value, "x"); // 1.0, tie broken by value
        assert_eq!(merged[1].value, "y"); // 1.0
        assert!((merged[0].confidence - 1.0).abs() < 1e-12);
        assert!((merged[1].confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vote_filters_by_member_count() {
        let a = vec![p("x", 9.0), p("y", 5.0)];
        let b = vec![p("y", 0.1)];
        let merged = merge_column(&[&a, &b], MergePolicy::Vote(2), 16);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, "y");
    }

    #[test]
    fn ensemble_requests_are_validated_in_one_place() {
        assert_eq!(
            MergePolicy::for_ensemble(Some("vote:2"), 3).unwrap(),
            MergePolicy::Vote(2)
        );
        // No policy means union; a lone member is a valid ensemble.
        assert_eq!(
            MergePolicy::for_ensemble(None, 1).unwrap(),
            MergePolicy::Union
        );
        assert_eq!(
            MergePolicy::for_ensemble(Some("vote:2"), 2).unwrap(),
            MergePolicy::Vote(2)
        );

        let config_error = |merge: Option<&str>, members: usize| -> String {
            match MergePolicy::for_ensemble(merge, members) {
                Err(AdtError::Config(m)) => m,
                other => panic!("{merge:?} over {members} should be a Config error, got {other:?}"),
            }
        };
        assert_eq!(
            config_error(None, 0),
            "an ensemble needs at least one detector"
        );
        assert!(config_error(Some("vote:0"), 2).contains("vote:k"));
        assert_eq!(
            config_error(Some("vote:3"), 2),
            "merge vote:3 needs at least 3 detectors, got 2"
        );
        assert_eq!(
            config_error(Some("calibrated"), 2),
            "unknown merge policy 'calibrated' (known: union, vote:k)"
        );
    }

    #[test]
    fn chunk_width_is_bounded_and_column_driven() {
        assert_eq!(chunk_width(1), 8); // floor: tiny batches stay whole-ish
        assert_eq!(chunk_width(48), 8);
        assert_eq!(chunk_width(192), 12); // ~16 chunks per detector
        assert_eq!(chunk_width(10_000), 32); // ceiling: batch amortization
        for n in 1..2000 {
            let w = chunk_width(n);
            assert!((8..=32).contains(&w), "chunk_width({n}) = {w}");
        }
    }

    #[test]
    fn lanes_record_time_and_volume() {
        let columns = cols(67); // 9 chunks at width 8
        let report = engine().run(&columns).unwrap();
        assert_eq!(report.predictions.len(), columns.len());
        let lanes = &report.lanes;
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].name, "Short");
        assert_eq!(lanes[1].name, "A");
        for lane in lanes {
            assert_eq!(lane.columns, columns.len() as u64);
            assert!(lane.predictions > 0, "{} emitted nothing", lane.name);
        }
    }

    #[test]
    fn engine_detects_as_its_merged_ranking() {
        let columns = cols(10);
        let merged = engine().run(&columns).unwrap().predictions;
        let det = engine();
        assert_eq!(det.name(), "Union");
        assert_eq!(det.detect_batch(&columns), merged);
        assert_eq!(det.detect(&columns[3]), merged[3]);
        assert_eq!(det.with_merge(MergePolicy::Vote(2)).name(), "Vote");
        // A member panic or an empty member set degrades to silence.
        assert_eq!(EnsembleEngine::new(Vec::new()).detect(&columns[0]), []);
    }

    /// Panics on every column.
    struct Panics;

    impl Detector for Panics {
        fn name(&self) -> &'static str {
            "Panics"
        }
        fn detect(&self, _column: &Column) -> Vec<Prediction> {
            panic!("planted member panic")
        }
    }

    /// A panicking member is a typed error on the serial path (a batch
    /// under `SERIAL_CUTOFF_UNITS`) and on the threaded one, and the
    /// engine used as a detector degrades to no predictions.
    #[test]
    fn panicking_member_is_a_worker_error_at_every_batch_size() {
        for (n, threads) in [(3, 4), (200, 1), (200, 4)] {
            let columns = cols(n);
            let mut members = engine().detectors;
            members.push(Box::new(Panics));
            let e = EnsembleEngine::new(members).with_threads(threads);
            let err = e.run(&columns).err();
            assert!(
                matches!(err, Some(AdtError::Worker("ensemble"))),
                "{n} columns, {threads} threads: {err:?}"
            );
            let batch = e.detect_batch(&columns);
            assert_eq!(batch.len(), n);
            assert!(batch.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn empty_engine_is_a_config_error() {
        let e = EnsembleEngine::new(Vec::new());
        assert!(matches!(e.run(&cols(1)), Err(AdtError::Config(_))));
    }

    #[test]
    fn merged_findings_identical_at_any_thread_count() {
        // 2 detectors × 200 columns = 400 units: above SERIAL_CUTOFF_UNITS,
        // so the multi-thread runs genuinely dispatch in parallel.
        let columns = cols(200);
        assert!(2 * columns.len() >= SERIAL_CUTOFF_UNITS);
        let reference = engine()
            .with_threads(1)
            .with_merge(MergePolicy::Vote(2))
            .run(&columns)
            .unwrap();
        for threads in [2, 4, 8] {
            let got = engine()
                .with_threads(threads)
                .with_merge(MergePolicy::Vote(2))
                .run(&columns)
                .unwrap();
            assert_eq!(
                got.predictions, reference.predictions,
                "ensemble output diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn small_batches_merge_identically_to_large_chunking() {
        // The serial fallback and auto chunk width must be invisible in
        // the merged output: running the same columns through a small
        // (serial, 1-chunk) batch and slicing them out of a large
        // (parallel) batch gives identical predictions.
        let columns = cols(260);
        let big = engine().with_threads(4).run(&columns).unwrap();
        for (i, col) in columns.iter().take(9).enumerate() {
            let small = engine().run(std::slice::from_ref(col)).unwrap();
            assert_eq!(
                small.predictions[0], big.predictions[i],
                "column {i} diverged between batch sizes"
            );
        }
    }
}
