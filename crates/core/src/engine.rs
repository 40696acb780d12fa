//! The parallel scan engine.
//!
//! [`ScanEngine`] is the production scan surface: it holds a shared
//! trained model (`Arc<AutoDetect>`) and fans the columns of a table or
//! streamed CSV over the one worker pool, [`adt_stats::parallel_map_with`]
//! (the pool the training pipeline's language tasks run on). Each worker
//! keeps a private [`PatternCache`] so every distinct value is
//! generalized once under all languages and reused across the columns
//! that worker scans. A panicking worker surfaces as
//! [`AdtError::Worker`] at every thread count, one included.
//!
//! **Determinism.** Per-column detection is a pure function of the
//! column's contents — caches only memoize, results are collected into
//! per-index slots, and cross-column ranking uses total orders — so a
//! scan produces byte-identical findings at any thread count, including
//! the streamed-CSV path versus the materialized one.
//!
//! **Bounded memory.** [`ScanEngine::scan_csv`] never materializes the
//! file: it streams records and keeps only per-column distinct-value
//! counts (detection consumes nothing else), so memory scales with the
//! number of distinct values, not rows.

use crate::aggregate::Aggregator;
use crate::detector::{
    rank_table_findings, AutoDetect, ColumnFinding, PatternCache, ScanStats, TableFinding,
};
use crate::error::AdtError;
use crate::values::ValueTable;
use adt_corpus::{Column, CsvRecords, Table};
use adt_stats::{parallel_map_with, resolve_threads};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A shared pool of [`PatternCache`]s checked out by scan workers and
/// returned when a parallel section ends.
///
/// Without a pool every engine run starts its workers cold: values are
/// re-generalized and pattern-pair NPMI scores re-probed. A long-lived
/// owner — the detection server holds one for its whole life and shares
/// it with every HTTP worker — passes the pool via
/// [`ScanEngine::with_cache_pool`] so each worker resumes some earlier
/// worker's cache, amortizing both layers across runs. Concurrent scans
/// each check out their own cache, so the pool holds about as many as
/// ran at once. Caches are model-stamped (see [`PatternCache`]), so
/// pooling across model swaps is safe: a mismatched cache resets itself.
#[derive(Debug, Default)]
pub struct CachePool {
    caches: Mutex<Vec<PatternCache>>,
}

impl CachePool {
    /// An empty shareable pool.
    pub fn new() -> Arc<CachePool> {
        Arc::new(CachePool::default())
    }

    /// The checked-in caches. A worker that panicked while holding the
    /// lock left the list intact, so poisoning is recovered from.
    fn caches(&self) -> MutexGuard<'_, Vec<PatternCache>> {
        self.caches.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a cache out of the pool, or starts a fresh one.
    fn checkout(&self) -> PatternCache {
        self.caches().pop().unwrap_or_default()
    }

    /// Returns a cache for future workers.
    fn restore(&self, cache: PatternCache) {
        self.caches().push(cache);
    }

    /// Number of caches currently checked in.
    pub fn size(&self) -> usize {
        self.caches().len()
    }

    /// Lifetime NPMI memo hits summed over checked-in caches.
    pub fn memo_hits(&self) -> u64 {
        self.caches().iter().map(|c| c.memo_hits()).sum()
    }

    /// Lifetime NPMI memo misses summed over checked-in caches.
    pub fn memo_misses(&self) -> u64 {
        self.caches().iter().map(|c| c.memo_misses()).sum()
    }

    /// Generalized values held, summed over checked-in caches.
    pub fn values(&self) -> usize {
        self.caches().iter().map(|c| c.len()).sum()
    }

    /// Bytes of value text held, summed over checked-in caches; at most
    /// [`crate::detector::VALUE_BYTES_CAPACITY`] per cache.
    pub fn bytes(&self) -> usize {
        self.caches().iter().map(|c| c.bytes()).sum()
    }
}

/// Worker-thread cache state: pooled when the engine has a [`CachePool`]
/// (checked out at worker start, restored on drop), private otherwise.
/// The cache is bound to the engine's model once, at worker start, so
/// the worker's columns skip the per-call bind; a pooled cache last bound
/// to another model resets here.
struct WorkerCache {
    cache: Option<PatternCache>,
    pool: Option<Arc<CachePool>>,
}

impl WorkerCache {
    fn new(pool: Option<Arc<CachePool>>, model: &AutoDetect) -> Self {
        let mut cache = match &pool {
            Some(p) => p.checkout(),
            None => PatternCache::new(),
        };
        cache.bind(model);
        WorkerCache {
            cache: Some(cache),
            pool,
        }
    }

    fn cache_mut(&mut self) -> &mut PatternCache {
        // adt-allow(panic-safety): the Option is only emptied by Drop; a None here is an impossible state worth a loud failure
        self.cache.as_mut().expect("cache present until drop")
    }
}

impl Drop for WorkerCache {
    fn drop(&mut self) {
        if let (Some(pool), Some(cache)) = (&self.pool, self.cache.take()) {
            pool.restore(cache);
        }
    }
}

/// One streamed column's tally: its distinct values and, at each entry
/// id, how often that value occurred.
#[derive(Debug, Default)]
struct ColumnCounts {
    values: ValueTable,
    counts: Vec<usize>,
}

impl ColumnCounts {
    /// Counts one occurrence of `value`.
    fn add(&mut self, value: &str) {
        let id = self.values.intern(value);
        match self.counts.get_mut(id) {
            Some(n) => *n += 1,
            // A new entry's id is the next index.
            None => self.counts.push(1),
        }
    }
}

/// Per-column outcome in input order, for surfaces that report column by
/// column (the CLI prints one line per column from these).
#[derive(Debug, Clone)]
pub struct ColumnSummary {
    /// Zero-based column index.
    pub index: usize,
    /// The column's header, when present.
    pub header: Option<String>,
    /// Distinct values actually scored for this column.
    pub values_scored: u64,
    /// Number of findings in this column.
    pub num_findings: usize,
}

/// Everything a scan produced: ranked findings, per-column outcomes, and
/// the merged counters/timings of every worker.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Findings ranked across the whole input (confidence descending,
    /// then column index, then suspect).
    pub findings: Vec<TableFinding>,
    /// Per-column outcomes in input order.
    pub columns: Vec<ColumnSummary>,
    /// Counters and per-stage CPU timings merged across workers.
    pub stats: ScanStats,
    /// Worker threads the scan ran with.
    pub threads: usize,
    /// Wall time spent ingesting the input (zero for in-memory scans).
    pub read_wall: Duration,
    /// Wall time of the parallel scan section.
    pub scan_wall: Duration,
    /// End-to-end wall time.
    pub wall: Duration,
}

impl ScanReport {
    /// Scan throughput in columns per second (over the scan section).
    pub fn columns_per_sec(&self) -> f64 {
        self.columns.len() as f64 / self.scan_wall.as_secs_f64().max(1e-9)
    }

    /// One human-readable line summarizing the scan.
    pub fn summary(&self) -> String {
        format!(
            "scanned {} columns in {:.1} ms on {} thread{} ({:.0} cols/s): \
             {} findings; {} values scored, {} pairs scored, {} flagged, {} pruned; \
             {} npmi probes ({} memoized); kernels: {} group / {} direct",
            self.columns.len(),
            self.wall.as_secs_f64() * 1e3,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.columns_per_sec(),
            self.findings.len(),
            self.stats.values_scored,
            self.stats.pairs_scored,
            self.stats.pairs_flagged,
            self.stats.pairs_pruned,
            self.stats.npmi_probes,
            self.stats.npmi_memo_hits,
            self.stats.kernel_choices.group,
            self.stats.kernel_choices.direct,
        )
    }
}

/// The parallel scan engine: a shared trained model plus a thread count,
/// scanning with the paper's native ST aggregation
/// ([`Aggregator::AutoDetect`]).
///
/// ```no_run
/// use std::sync::Arc;
/// use adt_core::{load_model, ScanEngine};
///
/// let model = Arc::new(load_model("model.bin")?);
/// let report = ScanEngine::new(model)
///     .with_threads(8)
///     .scan_csv_path("big.csv", ',', true)?;
/// for f in &report.findings {
///     println!("{}: {}", f.column_index, f.finding.suspect);
/// }
/// # Ok::<(), adt_core::AdtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScanEngine {
    model: Arc<AutoDetect>,
    threads: usize,
    cache_pool: Option<Arc<CachePool>>,
}

impl ScanEngine {
    /// An engine over a shared model, scanning with all available cores.
    pub fn new(model: Arc<AutoDetect>) -> Self {
        ScanEngine {
            model,
            threads: 0,
            cache_pool: None,
        }
    }

    /// Convenience constructor taking ownership of a model.
    pub fn from_model(model: AutoDetect) -> Self {
        ScanEngine::new(Arc::new(model))
    }

    /// Sets the worker thread count; `0` means all available cores.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Draws worker caches from `pool` instead of starting cold, so
    /// generalization work and memoized NPMI scores persist across
    /// engine runs that share the pool. Findings are unaffected.
    pub fn with_cache_pool(mut self, pool: Arc<CachePool>) -> Self {
        self.cache_pool = Some(pool);
        self
    }

    /// The underlying model.
    pub fn model(&self) -> &AutoDetect {
        &self.model
    }

    /// Scans a set of columns in parallel.
    pub fn scan_columns(&self, columns: &[Column]) -> Result<ScanReport, AdtError> {
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let start = Instant::now();
        let model = &*self.model;
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let scan_start = Instant::now();
        let results = parallel_map_with(
            columns,
            self.threads,
            "scan_columns",
            || WorkerCache::new(self.cache_pool.clone(), model),
            |worker, _, col| {
                model.scan_column_bound(col, Aggregator::AutoDetect, worker.cache_mut())
            },
        )?;
        let scan_wall = scan_start.elapsed();
        let headers = columns.iter().map(|c| c.header.clone()).collect();
        Ok(self.assemble(headers, results, Duration::ZERO, scan_wall, start.elapsed()))
    }

    /// Scans every column of a table.
    pub fn scan_table(&self, table: &Table) -> Result<ScanReport, AdtError> {
        self.scan_columns(&table.columns)
    }

    /// Streams a CSV and scans its columns without materializing the
    /// file: the ingest pass keeps only per-column distinct-value counts
    /// (all detection ever consumes), so memory is bounded by distinct
    /// values, not rows. Findings are byte-identical to loading the same
    /// CSV into memory and calling [`ScanEngine::scan_columns`].
    pub fn scan_csv<R: io::BufRead>(
        &self,
        reader: R,
        delim: char,
        has_header: bool,
    ) -> Result<ScanReport, AdtError> {
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let start = Instant::now();
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let read_start = Instant::now();
        let mut records = CsvRecords::new(reader, delim);
        let mut headers: Option<Vec<String>> = None;
        if has_header {
            match records.next() {
                Some(Ok(h)) => headers = Some(h),
                Some(Err(e)) => return Err(AdtError::Csv(e.to_string())),
                None => {}
            }
        }
        // Columns appear lazily as wider data rows arrive — the same
        // width rule as the in-memory loader (max over data rows), where
        // short rows pad with empty values that detection ignores. Each
        // column tallies into its own value table, so a value's bytes are
        // appended once, on its first occurrence in its column.
        let mut inputs: Vec<ColumnCounts> = Vec::new();
        while let Some(record) = records.next_fields(|i, value| {
            if i >= inputs.len() {
                inputs.resize_with(i + 1, ColumnCounts::default);
            }
            if value.is_empty() {
                return;
            }
            if let Some(column) = inputs.get_mut(i) {
                column.add(value);
            }
        }) {
            record.map_err(|e| AdtError::Csv(e.to_string()))?;
        }
        let read_wall = read_start.elapsed();
        let model = &*self.model;
        // adt-allow(determinism): wall-clock feeds ScanStats timing fields only, never detection results
        let scan_start = Instant::now();
        let results = parallel_map_with(
            &inputs,
            self.threads,
            "scan_csv",
            || WorkerCache::new(self.cache_pool.clone(), model),
            |worker, _, column| {
                model.scan_value_table_bound(
                    &column.values,
                    &column.counts,
                    Aggregator::AutoDetect,
                    worker.cache_mut(),
                )
            },
        )?;
        let scan_wall = scan_start.elapsed();
        let headers_by_index = (0..inputs.len())
            .map(|i| headers.as_ref().and_then(|h| h.get(i).cloned()))
            .collect();
        Ok(self.assemble(
            headers_by_index,
            results,
            read_wall,
            scan_wall,
            start.elapsed(),
        ))
    }

    /// Streams a CSV file from disk (see [`ScanEngine::scan_csv`]).
    pub fn scan_csv_path<P: AsRef<Path>>(
        &self,
        path: P,
        delim: char,
        has_header: bool,
    ) -> Result<ScanReport, AdtError> {
        let file = std::fs::File::open(path)?;
        self.scan_csv(io::BufReader::new(file), delim, has_header)
    }

    fn assemble(
        &self,
        headers: Vec<Option<String>>,
        results: Vec<(Vec<ColumnFinding>, ScanStats)>,
        read_wall: Duration,
        scan_wall: Duration,
        wall: Duration,
    ) -> ScanReport {
        let mut stats = ScanStats::for_languages(self.model.num_languages());
        let mut findings = Vec::new();
        let mut columns = Vec::with_capacity(results.len());
        for (index, ((column_findings, column_stats), header)) in
            results.into_iter().zip(headers).enumerate()
        {
            stats.merge(&column_stats);
            columns.push(ColumnSummary {
                index,
                header: header.clone(),
                values_scored: column_stats.values_scored,
                num_findings: column_findings.len(),
            });
            for finding in column_findings {
                findings.push(TableFinding {
                    column_index: index,
                    column_header: header.clone(),
                    finding,
                });
            }
        }
        rank_table_findings(&mut findings);
        ScanReport {
            findings,
            columns,
            stats,
            threads: resolve_threads(self.threads),
            read_wall,
            scan_wall,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testkit::tiny_model;
    use adt_corpus::SourceTag;

    fn findings_repr(findings: &[TableFinding]) -> String {
        findings
            .iter()
            .map(|f| {
                format!(
                    "{}|{}|{}|{}|{}\n",
                    f.column_index,
                    f.finding.suspect,
                    f.finding.witness,
                    f.finding.confidence,
                    f.finding.score
                )
            })
            .collect()
    }

    fn mixed_columns(n: usize) -> Vec<Column> {
        (0..n)
            .map(|i| {
                let mut c = if i % 3 == 0 {
                    Column::from_strs(
                        &["2011-01-01", "2012-02-02", "2013-03-03", "2014/04/04"],
                        SourceTag::Local,
                    )
                } else if i % 3 == 1 {
                    Column::from_strs(&["1", "2", "3,000"], SourceTag::Local)
                } else {
                    Column::from_strs(&["2011-01-01", "2012-02-02"], SourceTag::Local)
                };
                c.header = Some(format!("col{i}"));
                c
            })
            .collect()
    }

    #[test]
    fn engine_matches_serial_detect_table() {
        let model = tiny_model();
        let table = Table::new(mixed_columns(7));
        let serial = model.detect_table(&table);
        let report = ScanEngine::from_model(model)
            .with_threads(4)
            .scan_table(&table)
            .unwrap();
        assert_eq!(findings_repr(&report.findings), findings_repr(&serial));
        assert_eq!(report.columns.len(), 7);
        assert_eq!(report.columns[0].header.as_deref(), Some("col0"));
        assert!(report.stats.pairs_scored > 0);
    }

    #[test]
    fn thread_counts_agree() {
        let engine = ScanEngine::from_model(tiny_model());
        let cols = mixed_columns(13);
        let one = engine.clone().with_threads(1).scan_columns(&cols).unwrap();
        let eight = engine.with_threads(8).scan_columns(&cols).unwrap();
        assert_eq!(findings_repr(&one.findings), findings_repr(&eight.findings));
        assert_eq!(one.threads, 1);
        assert_eq!(eight.threads, 8);
        assert_eq!(one.stats.pairs_scored, eight.stats.pairs_scored);
        assert_eq!(one.stats.pairs_flagged, eight.stats.pairs_flagged);
        assert_eq!(
            one.stats.findings_per_language,
            eight.stats.findings_per_language
        );
    }

    #[test]
    fn streamed_csv_matches_in_memory_scan() {
        let engine = ScanEngine::from_model(tiny_model()).with_threads(2);
        let csv = "date,amount\n2011-01-01,1\n2012-02-02,2\n2014/04/04,3,stray\n";
        let in_memory = adt_corpus::csv::columns_from_csv_text(csv, ',', true);
        let memory_report = engine.scan_columns(&in_memory).unwrap();
        let stream_report = engine.scan_csv(io::Cursor::new(csv), ',', true).unwrap();
        assert_eq!(
            findings_repr(&stream_report.findings),
            findings_repr(&memory_report.findings)
        );
        assert_eq!(stream_report.columns.len(), memory_report.columns.len());
        assert_eq!(stream_report.columns[0].header.as_deref(), Some("date"));
        // The stray third field appeared in a data row, so it is a column
        // (headerless), same as the in-memory loader's width rule.
        assert_eq!(stream_report.columns[2].header, None);
        assert!(!stream_report.findings.is_empty());
        assert_eq!(stream_report.findings[0].finding.suspect, "2014/04/04");

        // Past the model's distinct-value cap (50): an all-distinct table,
        // where the cap keeps the lexicographically first values, and a
        // column whose one value repeats more often than the cap, so its
        // count orders it first.
        use std::fmt::Write;
        let mut all_distinct = String::from("date,amount,code\n");
        for i in 0..200 {
            let sep = if i % 37 == 5 { '/' } else { '-' };
            writeln!(
                all_distinct,
                "{}{sep}{:02}{sep}{:02},{},c{i}",
                1800 + i,
                i % 12 + 1,
                i % 28 + 1,
                i * 7,
            )
            .unwrap();
        }
        let mut repeated = String::from("date,amount\n");
        for i in 0..240 {
            match i % 4 {
                0 | 1 => writeln!(repeated, "2011-01-01,1"),
                2 => writeln!(repeated, "{}-02-02,{i}", 1900 + i),
                _ => writeln!(repeated, "{}/03/03,{}", 1900 + i % 60, i % 9),
            }
            .unwrap();
        }
        for csv in [&all_distinct, &repeated] {
            let in_memory = adt_corpus::csv::columns_from_csv_text(csv, ',', true);
            let memory_report = engine.scan_columns(&in_memory).unwrap();
            let stream_report = engine.scan_csv(csv.as_bytes(), ',', true).unwrap();
            assert!(memory_report.columns.iter().all(|c| c.values_scored == 50));
            assert_eq!(
                findings_repr(&stream_report.findings),
                findings_repr(&memory_report.findings)
            );
            let (a, b) = (&stream_report.stats, &memory_report.stats);
            assert_eq!(
                (a.pairs_scored, a.pairs_flagged, a.pairs_pruned),
                (b.pairs_scored, b.pairs_flagged, b.pairs_pruned)
            );
        }
    }

    #[test]
    fn invalid_utf8_mid_stream_is_a_typed_csv_error() {
        let engine = ScanEngine::from_model(tiny_model()).with_threads(2);
        let mut csv = b"date,amount\n2011-01-01,1\n2012-02-02,2\n".to_vec();
        csv.extend_from_slice(b"2014/04/04,\xFF3\n2015-05-05,4\n");
        match engine.scan_csv(&csv[..], ',', true) {
            Err(AdtError::Csv(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_csv_shapes_scan_like_the_in_memory_loader() {
        let engine = ScanEngine::from_model(tiny_model()).with_threads(2);
        let big = "9".repeat(1 << 20);
        let cases = [
            // Unterminated quote at end of input.
            "date,amount\n2011-01-01,1\n2012-02-02,\"2\n2014/04/04,3\n".to_string(),
            // `\r`-only and blank lines.
            "\r\n\ndate\r\n\r\n2011-01-01\r\n\n\r\n2012-02-02\r\n2014/04/04\r".to_string(),
            // One 1 MiB field.
            format!("date,blob\n2011-01-01,{big}\n2012-02-02,1\n2014/04/04,2\n"),
            // A stray mid-field quote folds the next line into its record.
            "date,note\n2011-01-01,a\"b\n2012-02-02,c\"\n2013-03-03,d\n2014/04/04,e\n".to_string(),
        ];
        for csv in &cases {
            let in_memory = adt_corpus::csv::columns_from_csv_text(csv, ',', true);
            let memory_report = engine.scan_columns(&in_memory).unwrap();
            let stream_report = engine.scan_csv(csv.as_bytes(), ',', true).unwrap();
            assert_eq!(
                findings_repr(&stream_report.findings),
                findings_repr(&memory_report.findings),
                "{:?}",
                &csv[..csv.len().min(80)]
            );
            assert_eq!(stream_report.columns.len(), memory_report.columns.len());
        }
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let engine = ScanEngine::from_model(tiny_model());
        let report = engine.scan_columns(&[]).unwrap();
        assert!(report.findings.is_empty());
        assert!(report.columns.is_empty());
        let report = engine.scan_csv(io::Cursor::new(""), ',', true).unwrap();
        assert!(report.columns.is_empty());
    }

    #[test]
    fn report_summary_mentions_throughput() {
        let engine = ScanEngine::from_model(tiny_model()).with_threads(2);
        let report = engine.scan_columns(&mixed_columns(4)).unwrap();
        let line = report.summary();
        assert!(line.contains("4 columns"), "{line}");
        assert!(line.contains("cols/s"), "{line}");
        assert!(line.contains("kernels:"), "{line}");
        // Every scored column picked some kernel.
        let chosen = report.stats.kernel_choices.group + report.stats.kernel_choices.direct;
        assert!(chosen > 0, "no kernel choices recorded: {line}");
        assert!(report.columns_per_sec() > 0.0);
    }

    #[test]
    fn cache_pool_amortizes_probes_across_engine_runs() {
        let pool = CachePool::new();
        let engine = ScanEngine::from_model(tiny_model())
            .with_threads(1)
            .with_cache_pool(Arc::clone(&pool));
        let cols = mixed_columns(6);
        let cold = engine.scan_columns(&cols).unwrap();
        assert_eq!(pool.size(), 1, "worker cache returned to the pool");
        assert!(cold.stats.npmi_probes > 0);
        // The second run resumes the pooled cache: every pattern pair it
        // needs was memoized by the first run, and findings are
        // unchanged.
        let warm = engine.scan_columns(&cols).unwrap();
        assert_eq!(warm.stats.npmi_probes, 0, "warm run recomputed scores");
        assert_eq!(
            warm.stats.npmi_memo_hits,
            cold.stats.npmi_probes + cold.stats.npmi_memo_hits
        );
        assert_eq!(findings_repr(&warm.findings), findings_repr(&cold.findings));
        assert_eq!(pool.size(), 1);
        assert!(pool.memo_hits() >= warm.stats.npmi_memo_hits);
        // An engine without a pool stays cold every run.
        let solo = ScanEngine::from_model(tiny_model()).with_threads(1);
        let a = solo.scan_columns(&cols).unwrap();
        let b = solo.scan_columns(&cols).unwrap();
        assert_eq!(a.stats.npmi_probes, b.stats.npmi_probes);
        assert!(b.stats.npmi_probes > 0);
    }

    #[test]
    fn cache_pool_reports_the_values_and_bytes_it_holds() {
        let pool = CachePool::new();
        assert_eq!((pool.values(), pool.bytes()), (0, 0));
        let engine = ScanEngine::from_model(tiny_model())
            .with_threads(1)
            .with_cache_pool(Arc::clone(&pool));
        let cols = mixed_columns(6);
        engine.scan_columns(&cols).unwrap();
        // Every column has at least two distinct values, so each value was
        // generalized and cached once.
        let distinct: std::collections::BTreeSet<&str> =
            cols.iter().flat_map(|c| c.non_empty_values()).collect();
        assert_eq!(pool.values(), distinct.len());
        assert_eq!(
            pool.bytes(),
            distinct.iter().map(|v| v.len()).sum::<usize>()
        );
        // A warm rerun finds them all and adds nothing.
        engine.scan_columns(&cols).unwrap();
        assert_eq!(pool.values(), distinct.len());
    }

    #[test]
    fn pooled_cache_rebinds_once_when_the_engine_model_changes() {
        let model_a = Arc::new(tiny_model());
        let mut b = tiny_model();
        b.npmi.smoothing = 0.9; // same languages, different scores
        let model_b = Arc::new(b);
        assert_ne!(model_a.fingerprint(), model_b.fingerprint());
        let rebinds = |pool: &CachePool| -> u64 { pool.caches().iter().map(|c| c.rebinds()).sum() };
        let cols = mixed_columns(6);

        // Warm the pool under model A.
        let pool = CachePool::new();
        ScanEngine::new(Arc::clone(&model_a))
            .with_threads(1)
            .with_cache_pool(Arc::clone(&pool))
            .scan_columns(&cols)
            .unwrap();
        assert_eq!(pool.size(), 1);
        assert_eq!(rebinds(&pool), 0);

        // A hot reload: the next engine runs model B over the same pool.
        // The worker's one bind resets the cache (once, not per column),
        // and nothing memoized under A reaches B's findings.
        let warm = ScanEngine::new(Arc::clone(&model_b))
            .with_threads(1)
            .with_cache_pool(Arc::clone(&pool))
            .scan_columns(&cols)
            .unwrap();
        assert_eq!(rebinds(&pool), 1);
        let cold = ScanEngine::new(model_b)
            .with_threads(1)
            .scan_columns(&cols)
            .unwrap();
        assert_eq!(findings_repr(&warm.findings), findings_repr(&cold.findings));
        assert_eq!(warm.stats.npmi_probes, cold.stats.npmi_probes);
        assert_eq!(warm.stats.npmi_memo_hits, cold.stats.npmi_memo_hits);
    }

    /// The engine's fan-out: pooled worker caches, results in input
    /// order, and a panicking column a typed error at every thread count,
    /// one included, with each worker's cache back in the pool after the
    /// unwind.
    #[test]
    fn parallel_map_preserves_order_and_reports_panics() {
        let model = tiny_model();
        let pool = CachePool::new();
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let run = |planted: Option<usize>| -> Result<Vec<usize>, AdtError> {
                Ok(parallel_map_with(
                    &items,
                    threads,
                    "scan_columns",
                    || WorkerCache::new(Some(Arc::clone(&pool)), &model),
                    |_, _, &x| {
                        assert!(Some(x) != planted, "planted panic");
                        x * 2
                    },
                )?)
            };
            let out = run(None).unwrap();
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
            let err = run(Some(50)).unwrap_err();
            assert!(matches!(err, AdtError::Worker("scan_columns")), "{err}");
            assert!((1..=threads).contains(&pool.size()), "{threads} threads");
        }
    }
}
