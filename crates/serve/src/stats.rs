//! Cumulative server counters: request/scan totals, latency quantiles,
//! and per-model hit counts — the `ScanReport`-style observability layer
//! behind `GET /v1/stats`.
//!
//! Counters are lock-free atomics; latency is a fixed log-linear
//! histogram over microseconds (each power-of-two octave split into 8
//! linear sub-buckets, covering the whole `u64` range), so p50/p99 are
//! bucket-resolution estimates that never undershoot and overshoot by
//! under 12.5%, never a sorted-vector scan on the hot path. Per-model
//! hits take a short mutex — one map bump per request, negligible next
//! to a scan.

use crate::json::Json;
use adt_core::{ColumnSummary, DetectorLane};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Linear sub-buckets per power-of-two octave (as a shift: 2^3 = 8).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every octave above
/// them, up to `2^63`, gets `SUB` buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket holding `v`: exact below `SUB`, then `SUB` equal-width
/// buckets per octave `[2^e, 2^(e+1))`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// The largest value bucket `i` holds.
fn bucket_max(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    // Saturates only for the top bucket, whose true bound is u64::MAX.
    ((SUB as u64 + sub + 1) << shift).wrapping_sub(1)
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.5` = p50) as the largest value of the bucket
    /// the quantile falls in, in microseconds; `None` when empty.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_max(i));
            }
        }
        Some(u64::MAX)
    }
}

/// Cumulative counters for one server lifetime.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    /// Every request that reached the router.
    pub requests: AtomicU64,
    /// Successful `POST /v1/scan` requests.
    pub scans_ok: AtomicU64,
    /// Requests answered with a 4xx.
    pub client_errors: AtomicU64,
    /// Requests answered with a 5xx.
    pub server_errors: AtomicU64,
    /// Connections rejected `503` because the accept queue was full.
    pub rejected_busy: AtomicU64,
    /// Distinct values scored across all scans.
    pub values_scored: AtomicU64,
    /// Columns scanned across all scans.
    pub columns_scanned: AtomicU64,
    /// Findings returned across all scans.
    pub findings: AtomicU64,
    /// Engine dispatches: one per single-model scan, each on the HTTP
    /// worker that decoded the request.
    pub batches: AtomicU64,
    /// NPMI scores computed from count probes across all scans.
    pub npmi_probes: AtomicU64,
    /// NPMI scores answered from the server's long-lived cache pool;
    /// `npmi_memo_hits / (npmi_probes + npmi_memo_hits)` is the memo hit
    /// rate steady traffic converges to.
    pub npmi_memo_hits: AtomicU64,
    /// Columns whose NPMI matrices the scan built through the memo
    /// (duplicate-heavy, d' < ¾·d under some language).
    pub kernel_group_columns: AtomicU64,
    /// Columns the scan scored memo-free (dense, d' ≥ ¾·d under every
    /// language).
    pub kernel_direct_columns: AtomicU64,
    /// Successful ensemble scans (requests that passed `detectors`).
    pub ensemble_scans: AtomicU64,
    /// `POST /v1/learn` requests accepted (answered `202`).
    pub learn_requests: AtomicU64,
    /// Columns queued for the learner (endpoint + scan tap).
    pub learn_ingested_columns: AtomicU64,
    /// Columns dropped because the learn queue was full or closed.
    pub learn_dropped_columns: AtomicU64,
    /// Batches the learner offered to its column reservoir.
    pub learn_absorbs: AtomicU64,
    /// Retrains completed.
    pub learn_retrains: AtomicU64,
    /// Retrained models swapped into the live registry.
    pub learn_swaps: AtomicU64,
    /// Retrains skipped because the model selected zero languages.
    pub learn_skipped: AtomicU64,
    /// Learner failures (start, retrain, or persist); the previous
    /// generation keeps serving through every one of them.
    pub learn_errors: AtomicU64,
    /// Gauge: columns absorbed but not yet retrained on.
    pub learn_pending_columns: AtomicU64,
    /// Gauge: wall milliseconds of the most recent retrain.
    pub learn_last_retrain_ms: AtomicU64,
    /// Cumulative nanoseconds of successful single-model scans spent
    /// decoding the request (UTF-8 check, JSON parse, request decode).
    pub scan_decode_nanos: AtomicU64,
    /// Cumulative nanoseconds of the same scans spent in the engine.
    pub scan_engine_nanos: AtomicU64,
    /// Cumulative nanoseconds of the same scans spent encoding the
    /// response (JSON tree and its text).
    pub scan_encode_nanos: AtomicU64,
    /// End-to-end scan-request latency, decode through encode.
    pub latency: LatencyHistogram,
    per_model: Mutex<HashMap<String, u64>>,
    /// Cumulative per-detector lanes from ensemble scans:
    /// name → (wall_nanos, predictions, columns).
    per_detector: Mutex<HashMap<String, (u64, u64, u64)>>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            scans_ok: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            values_scored: AtomicU64::new(0),
            columns_scanned: AtomicU64::new(0),
            findings: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            npmi_probes: AtomicU64::new(0),
            npmi_memo_hits: AtomicU64::new(0),
            kernel_group_columns: AtomicU64::new(0),
            kernel_direct_columns: AtomicU64::new(0),
            ensemble_scans: AtomicU64::new(0),
            learn_requests: AtomicU64::new(0),
            learn_ingested_columns: AtomicU64::new(0),
            learn_dropped_columns: AtomicU64::new(0),
            learn_absorbs: AtomicU64::new(0),
            learn_retrains: AtomicU64::new(0),
            learn_swaps: AtomicU64::new(0),
            learn_skipped: AtomicU64::new(0),
            learn_errors: AtomicU64::new(0),
            learn_pending_columns: AtomicU64::new(0),
            learn_last_retrain_ms: AtomicU64::new(0),
            scan_decode_nanos: AtomicU64::new(0),
            scan_engine_nanos: AtomicU64::new(0),
            scan_encode_nanos: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            per_model: Mutex::new(HashMap::new()),
            per_detector: Mutex::new(HashMap::new()),
        }
    }
}

impl ServerStats {
    /// Counts one successful scan by `model` that reported `findings`
    /// over the per-column outcomes `columns`.
    pub fn record_scan(&self, model: &str, findings: usize, columns: &[ColumnSummary]) {
        self.scans_ok.fetch_add(1, Ordering::Relaxed);
        self.findings.fetch_add(findings as u64, Ordering::Relaxed);
        self.columns_scanned
            .fetch_add(columns.len() as u64, Ordering::Relaxed);
        self.values_scored.fetch_add(
            columns.iter().map(|c| c.values_scored).sum(),
            Ordering::Relaxed,
        );
        self.record_model_hit(model);
    }

    /// Counts one served scan against `model`.
    pub fn record_model_hit(&self, model: &str) {
        // Counters stay valid under poison (increments are atomic with
        // respect to the guard), so recover instead of panicking the
        // worker that merely wanted to bump a stat.
        let mut map = self
            .per_model
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *map.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Accumulates one ensemble scan's per-detector lanes.
    pub fn record_detector_lanes(&self, lanes: &[DetectorLane]) {
        let mut map = self
            .per_detector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for lane in lanes {
            let entry = map.entry(lane.name.clone()).or_insert((0, 0, 0));
            entry.0 += lane.wall_nanos;
            entry.1 += lane.predictions;
            entry.2 += lane.columns;
        }
    }

    /// Sorted cumulative `(name, wall_nanos, predictions, columns)` rows.
    pub fn detector_lanes(&self) -> Vec<(String, u64, u64, u64)> {
        let map = self
            .per_detector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut rows: Vec<(String, u64, u64, u64)> = map
            .iter()
            .map(|(k, (w, p, c))| (k.clone(), *w, *p, *c))
            .collect();
        rows.sort();
        rows
    }

    /// Sorted `(model, hits)` pairs.
    pub fn model_hits(&self) -> Vec<(String, u64)> {
        let map = self
            .per_model
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut hits: Vec<(String, u64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        hits.sort();
        hits
    }

    /// Snapshot as the `/v1/stats` JSON body.
    pub fn to_json(&self) -> Json {
        let get = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64);
        let micros = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64 / 1e3);
        let quant = |q: f64| {
            self.latency
                .quantile_micros(q)
                .map_or(Json::Null, |v| Json::num(v as f64))
        };
        let per_model = self
            .model_hits()
            .into_iter()
            .map(|(name, hits)| (name, Json::num(hits as f64)))
            .collect();
        Json::obj(vec![
            (
                "uptime_ms",
                Json::num(self.started.elapsed().as_millis() as f64),
            ),
            ("requests", get(&self.requests)),
            ("scans_ok", get(&self.scans_ok)),
            ("client_errors", get(&self.client_errors)),
            ("server_errors", get(&self.server_errors)),
            ("rejected_busy", get(&self.rejected_busy)),
            ("values_scored", get(&self.values_scored)),
            ("columns_scanned", get(&self.columns_scanned)),
            ("findings", get(&self.findings)),
            ("batches", get(&self.batches)),
            ("npmi_probes", get(&self.npmi_probes)),
            ("npmi_memo_hits", get(&self.npmi_memo_hits)),
            (
                "kernel_choices",
                Json::obj(vec![
                    ("group", get(&self.kernel_group_columns)),
                    ("direct", get(&self.kernel_direct_columns)),
                ]),
            ),
            ("ensemble_scans", get(&self.ensemble_scans)),
            (
                "learn",
                Json::obj(vec![
                    ("requests", get(&self.learn_requests)),
                    ("ingested_columns", get(&self.learn_ingested_columns)),
                    ("dropped_columns", get(&self.learn_dropped_columns)),
                    ("absorbs", get(&self.learn_absorbs)),
                    ("retrains", get(&self.learn_retrains)),
                    ("swaps", get(&self.learn_swaps)),
                    ("skipped", get(&self.learn_skipped)),
                    ("errors", get(&self.learn_errors)),
                    ("pending_columns", get(&self.learn_pending_columns)),
                    ("last_retrain_ms", get(&self.learn_last_retrain_ms)),
                ]),
            ),
            (
                "scan_phases",
                Json::obj(vec![
                    ("decode_us", micros(&self.scan_decode_nanos)),
                    ("scan_us", micros(&self.scan_engine_nanos)),
                    ("encode_us", micros(&self.scan_encode_nanos)),
                ]),
            ),
            ("scan_latency_p50_us", quant(0.5)),
            ("scan_latency_p99_us", quant(0.99)),
            ("model_hits", Json::Obj(per_model)),
            (
                "detectors",
                Json::Obj(
                    self.detector_lanes()
                        .into_iter()
                        .map(|(name, wall, preds, cols)| {
                            (
                                name,
                                Json::obj(vec![
                                    ("wall_nanos", Json::num(wall as f64)),
                                    ("predictions", Json::num(preds as f64)),
                                    ("columns", Json::num(cols as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), None);
        for micros in [10u64, 20, 40, 80, 5000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_micros(0.5).unwrap();
        assert!((32..=64).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_micros(0.99).unwrap();
        assert!(p99 >= 4096, "p99 {p99}");
        // Quantiles never undershoot: the p0+ε bucket bound is ≥ the
        // smallest sample.
        assert!(h.quantile_micros(0.01).unwrap() >= 10);
    }

    #[test]
    fn histogram_quantiles_land_within_an_eighth() {
        // 1..=20_000 µs, each once, plus a slow tail: exact p50 is
        // 10_050 and exact p99 is 20_000 (the tail is 100 of 20_100).
        let h = LatencyHistogram::default();
        let mut samples: Vec<u64> = (1..=20_000).collect();
        samples.extend(std::iter::repeat_n(250_000, 100));
        for &micros in &samples {
            h.record(Duration::from_micros(micros));
        }
        samples.sort_unstable();
        for q in [0.5, 0.99] {
            let rank = ((samples.len() as f64) * q).ceil() as usize;
            let exact = samples[rank - 1] as f64;
            let estimate = h.quantile_micros(q).unwrap() as f64;
            assert!(estimate >= exact, "q{q}: {estimate} undershoots {exact}");
            assert!(
                (estimate - exact) / exact <= 0.125,
                "q{q}: {estimate} is over 12.5% above {exact}"
            );
        }
        // Every bucket bound is within an eighth of the values it holds.
        for v in [8u64, 9, 15, 16, 1000, 4095, 4096, 123_456_789, u64::MAX] {
            let max = bucket_max(bucket_of(v));
            assert!(max >= v, "{v} above its bucket bound {max}");
            assert!((max - v) as f64 / v as f64 <= 0.125, "{v} → {max}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn stats_json_has_all_counters() {
        let s = ServerStats::default();
        s.requests.fetch_add(3, Ordering::Relaxed);
        s.record_model_hit("prod");
        s.record_model_hit("prod");
        s.latency.record(Duration::from_micros(100));
        let v = s.to_json();
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("model_hits").unwrap().get("prod").unwrap().as_u64(),
            Some(2)
        );
        assert!(v.get("scan_latency_p50_us").unwrap().as_u64().is_some());
        assert!(v.get("uptime_ms").is_some());
        let phases = v.get("scan_phases").expect("scan_phases missing");
        for key in ["decode_us", "scan_us", "encode_us"] {
            assert!(phases.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }

    #[test]
    fn kernel_choices_surface_as_a_nested_object() {
        let s = ServerStats::default();
        s.kernel_group_columns.fetch_add(5, Ordering::Relaxed);
        s.kernel_direct_columns.fetch_add(7, Ordering::Relaxed);
        let v = s.to_json();
        let kernels = v.get("kernel_choices").expect("kernel_choices missing");
        assert_eq!(kernels.get("group").and_then(Json::as_u64), Some(5));
        assert_eq!(kernels.get("direct").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn learn_counters_surface_as_a_nested_object() {
        let s = ServerStats::default();
        s.learn_ingested_columns.fetch_add(40, Ordering::Relaxed);
        s.learn_retrains.fetch_add(2, Ordering::Relaxed);
        s.learn_swaps.fetch_add(1, Ordering::Relaxed);
        s.learn_pending_columns.store(8, Ordering::Relaxed);
        let v = s.to_json();
        let learn = v.get("learn").expect("learn object missing");
        assert_eq!(
            learn.get("ingested_columns").and_then(Json::as_u64),
            Some(40)
        );
        assert_eq!(learn.get("retrains").and_then(Json::as_u64), Some(2));
        assert_eq!(learn.get("swaps").and_then(Json::as_u64), Some(1));
        assert_eq!(learn.get("pending_columns").and_then(Json::as_u64), Some(8));
        for key in [
            "requests",
            "dropped_columns",
            "absorbs",
            "skipped",
            "errors",
            "last_retrain_ms",
        ] {
            assert!(learn.get(key).is_some(), "missing learn.{key}");
        }
    }

    #[test]
    fn detector_lanes_accumulate_by_name() {
        let s = ServerStats::default();
        let lane = |name: &str, wall, preds, cols| DetectorLane {
            name: name.into(),
            wall_nanos: wall,
            predictions: preds,
            columns: cols,
        };
        s.record_detector_lanes(&[lane("Auto-Detect", 100, 2, 1), lane("F-Regex", 10, 1, 1)]);
        s.record_detector_lanes(&[lane("Auto-Detect", 50, 1, 1)]);
        let rows = s.detector_lanes();
        assert_eq!(
            rows,
            vec![
                ("Auto-Detect".to_string(), 150, 3, 2),
                ("F-Regex".to_string(), 10, 1, 1),
            ]
        );
        let v = s.to_json();
        let det = v.get("detectors").unwrap();
        assert_eq!(
            det.get("Auto-Detect")
                .unwrap()
                .get("wall_nanos")
                .unwrap()
                .as_u64(),
            Some(150)
        );
        assert!(v.get("ensemble_scans").is_some());
    }
}
