//! Machine-readable detector × error-class precision matrix.
//!
//! Trains a small coarse-space model on a clean synthetic web corpus,
//! builds one scenario per injected error class, runs each requested
//! detector over every scenario, and writes `BENCH_matrix.json` with
//! per-cell pooled precision@k plus each detector's micro-averaged
//! precision prior (reported only; no merge policy reads it), through
//! `adt_serve::json` (which writes any non-finite number as `null`).
//!
//!   matrix_report [--quick] [--threads N] [--out PATH]
//!
//! `--quick` shrinks the training corpus, the scenario sizes, and the
//! detector set to four methods — the CI smoke configuration
//! (`scripts/matrix_report.sh quick`). Quick-mode precision numbers are
//! noisy; use the full run for per-detector precision worth reading.

use adt_baselines::{Baseline, DetectorId};
use adt_bench::reports::rounded;
use adt_core::config::LanguageSpace;
use adt_core::{train, AutoDetectConfig, Detector};
use adt_corpus::{generate_corpus, CorpusProfile, ErrorKind};
use adt_eval::matrix::{build_scenarios, run_matrix};
use adt_serve::Json;
use std::sync::Arc;

const SEED: u64 = 0xAD7_0001;

/// The quick mode's four detectors; the full mode runs [`DetectorId::ALL`].
const QUICK: [DetectorId; 4] = [
    DetectorId::AutoDetect,
    DetectorId::Baseline(Baseline::FRegex),
    DetectorId::Baseline(Baseline::Dboost),
    DetectorId::Baseline(Baseline::Cdm),
];

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next(),
            "--threads" => {
                threads = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "usage: matrix_report [--quick] [--threads N] [--out PATH] (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let (corpus_columns, examples, n_dirty, n_clean) = if quick {
        (800, 2_000, 6, 12)
    } else {
        (4_000, 10_000, 40, 80)
    };
    let ids: &[DetectorId] = if quick { &QUICK } else { &DetectorId::ALL };

    eprintln!("[matrix_report] training {corpus_columns}-column coarse model…");
    let mut train_profile = CorpusProfile::web(corpus_columns);
    train_profile.dirty_rate = 0.0;
    let corpus = generate_corpus(&train_profile);
    let config = AutoDetectConfig::builder()
        .training_examples(examples)
        .space(LanguageSpace::Coarse36)
        .build()
        .expect("static config is valid");
    let (model, _) = train(&corpus, &config).unwrap_or_else(|e| {
        eprintln!("FAIL: training: {e}");
        std::process::exit(1);
    });
    let model = Arc::new(model);
    let built: Vec<Box<dyn Detector>> = ids.iter().map(|id| id.build(&model)).collect();
    let detectors: Vec<(&str, &dyn Detector)> = ids
        .iter()
        .zip(&built)
        .map(|(id, d)| (id.name(), d.as_ref()))
        .collect();

    let mut eval_profile = CorpusProfile::web(1);
    eval_profile.dirty_rate = 0.0;
    let scenarios = build_scenarios(&eval_profile, n_dirty, n_clean, SEED);
    eprintln!(
        "[matrix_report] {} detector(s) × {} error class(es), {} case(s) per scenario…",
        ids.len(),
        scenarios.len(),
        scenarios.first().map_or(0, |s| s.cases.len())
    );
    let report = run_matrix(&detectors, &scenarios, threads);

    // Console table: one row per detector, one column per class, prior
    // at the end.
    print!("{:<12}", "detector");
    for kind in ErrorKind::ALL {
        let name = kind.name();
        print!(" {:>5}", &name[..name.len().min(5)]);
    }
    println!(" {:>6}", "prior");
    for (id, (_, prior)) in ids.iter().zip(&report.priors) {
        print!("{:<12}", id.name());
        for cell in report.row(id.name()) {
            print!(" {:>5.2}", cell.precision);
        }
        println!(" {prior:>6.2}");
    }

    let json = json_report(mode, ids, &report).to_text() + "\n";
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("FAIL: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("[matrix_report] wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn json_report(mode: &str, ids: &[DetectorId], report: &adt_eval::MatrixReport) -> Json {
    let cells = report
        .cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("detector", Json::str(&c.detector)),
                ("class", Json::str(c.class)),
                ("k", Json::num(c.k as f64)),
                ("precision", rounded(c.precision, 4)),
                ("hits", Json::num(c.hits as f64)),
                ("predictions", Json::num(c.predictions as f64)),
                ("wall_ms", rounded(c.wall_nanos as f64 / 1e6, 3)),
            ])
        })
        .collect();
    let priors = report
        .priors
        .iter()
        .map(|(name, p)| (name.clone(), rounded(*p, 4)))
        .collect();
    Json::obj(vec![
        ("bench", Json::str("detector_matrix")),
        ("mode", Json::str(mode)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            }),
        ),
        (
            "classes",
            Json::Arr(ErrorKind::ALL.iter().map(|k| Json::str(k.name())).collect()),
        ),
        (
            "detectors",
            Json::Arr(ids.iter().map(|id| Json::str(id.name())).collect()),
        ),
        ("cells", Json::Arr(cells)),
        ("priors", Json::Obj(priors)),
    ])
}
