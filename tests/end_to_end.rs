//! End-to-end integration: corpus generation → training → detection →
//! evaluation, across all workspace crates.

use auto_detect::core::{train, AutoDetectConfig};
use auto_detect::corpus::{generate_corpus, Column, CorpusProfile, SourceTag};
use auto_detect::eval::metrics::{pooled_predictions, precision_at_k};
use auto_detect::eval::testcases::crude_stats;
use auto_detect::eval::{auto_eval_cases, run_method};
use auto_detect::stats::{NpmiParams, StatsConfig};

fn trained_model() -> (auto_detect::core::AutoDetect, auto_detect::corpus::Corpus) {
    let mut p = CorpusProfile::web(3_000);
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let cfg = AutoDetectConfig {
        training_examples: 6_000,
        ..AutoDetectConfig::small()
    };
    let (model, report) = train(&corpus, &cfg).expect("training failed");
    assert!(model.num_languages() >= 1, "selection failed: {report:?}");
    (model, corpus)
}

#[test]
fn trained_model_meets_precision_on_auto_eval() {
    let (model, _corpus) = trained_model();
    // Independent clean source for test mixing.
    let mut p = CorpusProfile::wiki(2_000);
    p.dirty_rate = 0.0;
    let source = generate_corpus(&p);
    let crude = crude_stats(&source, &StatsConfig::default());
    let cases = auto_eval_cases(&source, &crude, NpmiParams::default(), 150, 750, 42);
    assert!(cases.iter().filter(|c| c.is_dirty()).count() >= 100);

    let preds = run_method(&model, &cases);
    let pooled = pooled_predictions(&cases, &preds, 1);
    let p50 = precision_at_k(&pooled, 50);
    // The paper holds >0.9 at low k even under 1:10 mixes; at this small
    // scale we require a clearly-high bar.
    assert!(p50 >= 0.8, "precision@50 = {p50}");
    // And meaningful recall: at least half the planted errors are found
    // somewhere in the pool.
    let found = pooled.iter().filter(|pp| pp.correct).count();
    assert!(found >= 50, "only {found} planted errors recovered");
}

#[test]
fn detects_paper_figure1_style_errors() {
    let (model, _) = trained_model();
    // Figure 1(b): mixed date separators.
    let cases = [
        (
            vec!["2011-01-01", "2012-02-02", "2013-03-03", "2014/04/04"],
            "2014/04/04",
        ),
        // Figure 1(a)-style: trailing dot on a number.
        (vec!["1865", "1874", "1890", "1901."], "1901."),
        // Figure 2(b): mixed phone formats.
        (
            vec![
                "(425) 555-0101",
                "(425) 555-0192",
                "(425) 555-0147",
                "425-555-0170",
            ],
            "425-555-0170",
        ),
    ];
    for (values, expected) in cases {
        let col = Column::from_strs(&values, SourceTag::Local);
        let findings = model.detect_column(&col);
        assert!(
            findings.first().map(|f| f.suspect.as_str()) == Some(expected),
            "expected {expected:?} flagged in {values:?}, got {findings:?}"
        );
    }
}

#[test]
fn does_not_flag_globally_compatible_mixes() {
    let (model, _) = trained_model();
    // The paper's Col-1 and Col-2: ints + separated ints + floats.
    for values in [
        vec!["0", "17", "342", "999", "1,000"],
        vec!["0", "5", "42", "99", "1.99"],
    ] {
        let col = Column::from_strs(&values, SourceTag::Local);
        let findings = model.detect_column(&col);
        assert!(
            findings.is_empty(),
            "globally compatible column {values:?} was flagged: {findings:?}"
        );
    }
}

#[test]
fn model_roundtrip_preserves_detection() {
    let (model, _) = trained_model();
    let dir = std::env::temp_dir().join("adt_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    auto_detect::core::model::save_model(&model, &path).unwrap();
    let back = auto_detect::core::model::load_model(&path).unwrap();
    let col = Column::from_strs(
        &["2011-01-01", "2012-02-02", "2014/04/04"],
        SourceTag::Local,
    );
    let a = model.detect_column(&col);
    let b = back.detect_column(&col);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.suspect, y.suspect);
        assert!((x.confidence - y.confidence).abs() < 1e-12);
    }
    std::fs::remove_file(path).ok();
}
