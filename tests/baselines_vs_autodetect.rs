//! Integration: the paper's qualitative claims about local vs global
//! methods, exercised across crates.

use auto_detect::baselines::PotterWheelDetector;
use auto_detect::core::api::Detector;
use auto_detect::core::{train, AutoDetectConfig};
use auto_detect::corpus::{generate_corpus, Column, CorpusProfile, SourceTag};
use auto_detect::eval::metrics::{pooled_predictions, precision_at_k};
use auto_detect::eval::testcases::crude_stats;
use auto_detect::eval::{auto_eval_cases, run_method};
use auto_detect::stats::{NpmiParams, StatsConfig};

/// Potter's Wheel incorrectly flags the paper's Col-1 ("1,000" among
/// 0..999) while Auto-Detect does not — the introduction's key contrast.
#[test]
fn col1_contrast_between_local_and_global() {
    let mut vals: Vec<String> = (0..60).map(|i| format!("{}", (i * 17) % 1000)).collect();
    vals.push("1,000".to_string());
    let col = Column::new(vals, SourceTag::Local);

    let pw = PotterWheelDetector::default();
    let pw_preds = pw.detect(&col);
    assert!(
        pw_preds.iter().any(|p| p.value == "1,000"),
        "PWheel should (incorrectly) flag 1,000 — the MDL weakness"
    );

    let mut p = CorpusProfile::web(3_000);
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let cfg = AutoDetectConfig {
        training_examples: 6_000,
        ..AutoDetectConfig::small()
    };
    let (model, _) = train(&corpus, &cfg).expect("training failed");
    let ad_findings = model.detect_column(&col);
    assert!(
        !ad_findings.iter().any(|f| f.suspect == "1,000"),
        "Auto-Detect must not flag 1,000: {ad_findings:?}"
    );
}

/// The 50-50 format mix (Col-3): local MDL is silent, Auto-Detect flags.
#[test]
fn col3_balanced_mix_detected_only_globally() {
    let mut vals: Vec<String> = (0..8).map(|i| format!("201{i}-01-0{}", i + 1)).collect();
    vals.extend((0..8).map(|i| format!("201{i}/01/0{}", i + 1)));
    let col = Column::new(vals, SourceTag::Local);

    let pw_preds = PotterWheelDetector::default().detect(&col);
    assert!(
        pw_preds.is_empty(),
        "PWheel sees two regular patterns and stays silent: {pw_preds:?}"
    );

    let mut p = CorpusProfile::web(3_000);
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let cfg = AutoDetectConfig {
        training_examples: 6_000,
        ..AutoDetectConfig::small()
    };
    let (model, _) = train(&corpus, &cfg).expect("training failed");
    let findings = model.detect_column(&col);
    assert!(
        !findings.is_empty(),
        "Auto-Detect must flag the balanced format mix"
    );
}

/// On pooled auto-eval, Auto-Detect's precision at moderate k beats each
/// local baseline's — the Figure 5 ordering at our scale.
#[test]
fn autodetect_beats_local_baselines_on_auto_eval() {
    let mut p = CorpusProfile::web(3_000);
    p.dirty_rate = 0.0;
    let corpus = generate_corpus(&p);
    let cfg = AutoDetectConfig {
        training_examples: 6_000,
        ..AutoDetectConfig::small()
    };
    let (model, _) = train(&corpus, &cfg).expect("training failed");

    let mut wp = CorpusProfile::wiki(2_500);
    wp.dirty_rate = 0.0;
    let source = generate_corpus(&wp);
    let crude = crude_stats(&source, &StatsConfig::default());
    let cases = auto_eval_cases(&source, &crude, NpmiParams::default(), 200, 1_000, 77);

    let score = |m: &dyn Detector| {
        let preds = run_method(m, &cases);
        let pooled = pooled_predictions(&cases, &preds, 1);
        precision_at_k(&pooled, 100)
    };
    let ad = score(&model);
    let pw = score(&PotterWheelDetector::default());
    let linear = score(&auto_detect::baselines::LinearDetector::default());
    assert!(ad >= pw, "Auto-Detect p@100 {ad} should be >= PWheel {pw}");
    assert!(
        ad > linear,
        "Auto-Detect p@100 {ad} should beat Linear {linear}"
    );
    assert!(ad >= 0.7, "Auto-Detect p@100 too low: {ad}");
}
