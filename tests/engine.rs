//! Integration tests for the parallel scan engine and the unified
//! Detector API, through the public `auto_detect` surface.

use adt_rng::check::{check, Gen, DEFAULT_CASES};
use adt_rng::Rng;
use auto_detect::core::{
    load_model, save_model, train, AdtError, AutoDetect, AutoDetectConfig, Detector, ScanEngine,
    ScanReport,
};
use auto_detect::corpus::{
    generate_corpus, inject_error, Column, CorpusGenerator, CorpusProfile, SourceTag, Table,
};
use std::sync::OnceLock;

/// One small coarse-space model shared across tests (training dominates
/// test wall time).
fn model() -> &'static AutoDetect {
    static MODEL: OnceLock<AutoDetect> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut p = CorpusProfile::web(3_000);
        p.dirty_rate = 0.0;
        let corpus = generate_corpus(&p);
        let cfg = AutoDetectConfig::builder()
            .training_examples(6_000)
            .space(auto_detect::core::LanguageSpace::Coarse36)
            .build()
            .expect("valid config");
        let (model, _) = train(&corpus, &cfg).expect("training failed");
        model
    })
}

fn dirty_columns(n: usize) -> Vec<Column> {
    let mut p = CorpusProfile::ent_xls(n);
    p.dirty_rate = 0.4;
    generate_corpus(&p).columns().to_vec()
}

/// Findings rendered to a canonical string (ColumnFinding has no
/// PartialEq; timings in the report legitimately differ between runs).
fn repr(report: &ScanReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&format!(
            "{} {:?} {:?} {:.6}\n",
            f.column_index, f.finding.suspect, f.finding.witness, f.finding.confidence
        ));
    }
    s
}

#[test]
fn findings_identical_across_thread_counts() {
    let columns = dirty_columns(120);
    let engine = ScanEngine::from_model(model().clone());
    let serial = engine
        .clone()
        .with_threads(1)
        .scan_columns(&columns)
        .unwrap();
    let parallel = engine.with_threads(8).scan_columns(&columns).unwrap();
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 8);
    assert_eq!(repr(&serial), repr(&parallel));
    assert_eq!(serial.stats.values_scored, parallel.stats.values_scored);
    assert_eq!(serial.stats.pairs_scored, parallel.stats.pairs_scored);
    assert_eq!(serial.stats.pairs_flagged, parallel.stats.pairs_flagged);
    assert!(
        !serial.findings.is_empty(),
        "dirty corpus produced no findings"
    );
}

/// Which columns share a worker's warm NPMI memo depends on scheduling,
/// so above one thread the split between fresh probes and memo hits can
/// differ from run to run. The findings and the number of pair scores
/// the probe stage answers (probes + memo hits) cannot.
#[test]
fn probe_stage_total_is_thread_independent() {
    let columns = dirty_columns(60);
    let engine = ScanEngine::from_model(model().clone());
    let one = engine
        .clone()
        .with_threads(1)
        .scan_columns(&columns)
        .unwrap();
    let four = engine.with_threads(4).scan_columns(&columns).unwrap();
    assert_eq!(repr(&one), repr(&four));
    let answered = |r: &ScanReport| r.stats.npmi_probes + r.stats.npmi_memo_hits;
    assert_eq!(answered(&one), answered(&four));
    assert!(
        one.stats.npmi_memo_hits > 0,
        "the table never reached the memo"
    );
}

#[test]
fn streamed_csv_matches_in_memory() {
    let columns = dirty_columns(40);
    let rows = columns.iter().map(|c| c.len()).max().unwrap();
    let mut csv = String::from(
        &columns
            .iter()
            .enumerate()
            .map(|(i, _)| format!("c{i}"))
            .collect::<Vec<_>>()
            .join("\t"),
    );
    csv.push('\n');
    for r in 0..rows {
        let row: Vec<&str> = columns
            .iter()
            .map(|c| c.values.get(r).map(|v| v.as_str()).unwrap_or(""))
            .collect();
        csv.push_str(&row.join("\t"));
        csv.push('\n');
    }
    let engine = ScanEngine::from_model(model().clone());
    let streamed = engine.scan_csv(csv.as_bytes(), '\t', true).unwrap();
    // Equivalent in-memory columns: same values, headers attached.
    let mem_columns: Vec<Column> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut col = Column::from_strs(
                &c.values.iter().map(|v| v.as_str()).collect::<Vec<_>>(),
                SourceTag::Csv,
            );
            col.header = Some(format!("c{i}"));
            col
        })
        .collect();
    let in_memory = engine.scan_columns(&mem_columns).unwrap();
    assert_eq!(repr(&streamed), repr(&in_memory));
    assert_eq!(streamed.columns.len(), in_memory.columns.len());
    for (s, m) in streamed.columns.iter().zip(&in_memory.columns) {
        assert_eq!(s.header, m.header);
        assert_eq!(s.num_findings, m.num_findings);
    }
}

/// A seeded spreadsheet table, one error injected per column where the
/// column's domain admits one, and a permutation of its rows.
fn table_and_row_permutation(g: &mut Gen, generator: &CorpusGenerator) -> (Table, Vec<usize>) {
    let rows = g.random_range(2usize..60);
    let columns = (0..g.random_range(1usize..6))
        .map(|_| {
            let gid = generator.sample_group(g);
            let clean = generator.clean_column(gid, rows, g);
            let domain = generator.groups()[gid].dominant_domain();
            match inject_error(&clean, domain, g) {
                Some((labeled, _kind)) => labeled.column,
                None => clean,
            }
        })
        .collect();
    let mut permutation: Vec<usize> = (0..rows).collect();
    for i in (1..rows).rev() {
        permutation.swap(i, g.random_range(0..=i));
    }
    (Table::new(columns), permutation)
}

/// A column is a multiset of values, so permuting a table's rows leaves
/// its findings byte-identical: same suspects, witnesses, confidences
/// and scores, in the same order.
#[test]
fn findings_are_invariant_under_row_permutation() {
    let engine = ScanEngine::from_model(model().clone()).with_threads(1);
    let generator = CorpusGenerator::new(CorpusProfile::ent_xls(0));
    check(
        "findings_are_invariant_under_row_permutation",
        DEFAULT_CASES,
        |g| table_and_row_permutation(g, &generator),
        |(table, permutation)| {
            let permuted = Table::new(
                table
                    .columns
                    .iter()
                    .map(|c| {
                        let values = permutation.iter().map(|&r| c.values[r].clone()).collect();
                        Column::new(values, c.source)
                    })
                    .collect(),
            );
            let original = engine.scan_table(&table).unwrap();
            let shuffled = engine.scan_table(&permuted).unwrap();
            assert_eq!(
                format!("{:?}", original.findings),
                format!("{:?}", shuffled.findings)
            );
        },
    );
}

#[test]
fn autodetect_is_a_detector() {
    let det: &dyn Detector = model();
    assert_eq!(det.name(), "Auto-Detect");
    let col = Column::from_strs(
        &["2011-01-01", "2012-02-02", "2013-03-03", "2014/04/04"],
        SourceTag::Csv,
    );
    let preds = det.detect(&col);
    assert!(!preds.is_empty());
    assert_eq!(preds[0].value, "2014/04/04");
}

#[test]
fn model_roundtrips_through_binary_codec() {
    let dir = std::env::temp_dir().join("adt_engine_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    save_model(model(), &path).unwrap();
    let loaded = load_model(&path).unwrap();
    let columns = dirty_columns(20);
    let a = ScanEngine::from_model(model().clone())
        .scan_columns(&columns)
        .unwrap();
    let b = ScanEngine::from_model(loaded)
        .scan_columns(&columns)
        .unwrap();
    assert_eq!(repr(&a), repr(&b));
}

#[test]
fn errors_are_typed() {
    // Missing model file surfaces as a typed error naming the path.
    match load_model("/nonexistent/adt/model.bin") {
        Err(AdtError::ModelNotFound(path)) => {
            assert!(path.contains("/nonexistent/adt/model.bin"), "{path}")
        }
        other => panic!("expected AdtError::ModelNotFound, got {other:?}"),
    }
    // Invalid configs are rejected at build time.
    assert!(matches!(
        AutoDetectConfig::builder().precision_target(1.5).build(),
        Err(AdtError::Config(_))
    ));
    assert!(matches!(
        AutoDetectConfig::builder().max_distinct_values(1).build(),
        Err(AdtError::Config(_))
    ));
}
