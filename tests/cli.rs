//! End-to-end CLI tests: gen-corpus → train → scan → check through the
//! `autodetect` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_autodetect")
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join("adt_cli_tests").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn usage_on_no_args() {
    let out = Command::new(bin()).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("autodetect train"));
}

#[test]
fn unknown_option_value_errors() {
    let out = Command::new(bin())
        .args(["train", "--out"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expects a value"));
}

#[test]
fn scan_requires_model() {
    let dir = tmp_dir("scan_requires_model");
    let csv = dir.join("x.csv");
    std::fs::write(&csv, "a\n1\n2\n").unwrap();
    let out = Command::new(bin())
        .args(["scan", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}

/// The findings portion of a scan's stdout: everything up to the total
/// line, excluding the timing summary (which varies run to run).
fn findings_part(stdout: &str) -> String {
    stdout
        .lines()
        .take_while(|l| !l.contains("suspicious value(s)"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The full pipeline at miniature scale: generate a corpus, train a
/// coarse-space model (binary codec), scan a CSV with a planted
/// date-format mix — serial and parallel — and check a value pair.
#[test]
fn full_pipeline_detects_planted_error() {
    let dir = tmp_dir("full_pipeline");
    let corpus = dir.join("corpus.txt");
    let model = dir.join("model.bin");
    let csv = dir.join("data.csv");

    let out = Command::new(bin())
        .args([
            "gen-corpus",
            "--profile",
            "web",
            "--columns",
            "2500",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(bin())
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--examples",
            "5000",
            "--space",
            "coarse",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    std::fs::write(
        &csv,
        "when,amount\n2019-03-01,120\n2019-03-02,95\n2019/03/04,130\n2019-03-05,88\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            "scan",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2019/03/04"),
        "scan should flag the slash date:\n{stdout}"
    );
    assert!(
        stdout.contains("[amount] ok"),
        "clean column flagged:\n{stdout}"
    );

    // The engine guarantees identical findings at any thread count; only
    // the timing summary may differ.
    for extra in [&["--threads", "1"][..], &["--threads", "8"]] {
        let rerun = Command::new(bin())
            .args([
                "scan",
                csv.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            rerun.status.success(),
            "{}",
            String::from_utf8_lossy(&rerun.stderr)
        );
        assert_eq!(
            findings_part(&stdout),
            findings_part(&String::from_utf8_lossy(&rerun.stdout)),
            "scan findings changed under {extra:?}"
        );
    }

    let out = Command::new(bin())
        .args([
            "check",
            "2011-01-01",
            "2011/01/02",
            "--model",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INCOMPATIBLE"));

    let out = Command::new(bin())
        .args(["check", "12", "3,000", "--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("compatible"));
}

/// `train` without `--out` writes `model.bin` in the working directory,
/// in the binary model format, and `scan` loads it.
#[test]
fn default_train_output_is_a_loadable_model_bin() {
    let dir = tmp_dir("default_train_output");
    for name in ["model.bin", "model.json"] {
        std::fs::remove_file(dir.join(name)).ok();
    }
    std::fs::write(dir.join("data.csv"), "when\n2019-03-01\n2019-03-02\n").unwrap();
    for args in [
        &["gen-corpus", "--columns", "300", "--out", "corpus.txt"][..],
        &[
            "train",
            "--corpus",
            "corpus.txt",
            "--examples",
            "1000",
            "--space",
            "coarse",
        ],
        &["scan", "data.csv", "--model", "model.bin"],
    ] {
        let out = Command::new(bin())
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let bytes = std::fs::read(dir.join("model.bin")).unwrap();
    assert!(
        bytes.starts_with(b"ADM1"),
        "model.bin is not a binary model"
    );
    assert!(!dir.join("model.json").exists());
}

/// `scan --detectors` runs the ensemble engine: findings are
/// byte-identical at any thread count, the lane summary names every
/// member, and the flag-validation errors fire before any work.
#[test]
fn ensemble_scan_is_thread_invariant_and_validates_flags() {
    let dir = tmp_dir("ensemble_scan");
    let corpus = dir.join("corpus.txt");
    let model = dir.join("model.bin");
    let csv = dir.join("data.csv");

    for args in [
        vec![
            "gen-corpus",
            "--profile",
            "web",
            "--columns",
            "1500",
            "--out",
            corpus.to_str().unwrap(),
        ],
        vec![
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--examples",
            "3000",
            "--space",
            "coarse",
            "--out",
            model.to_str().unwrap(),
        ],
    ] {
        let out = Command::new(bin()).args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::write(
        &csv,
        "when,amount\n2019-03-01,120\n2019-03-02,95\n2019/03/04,130\n2019-03-05,88\n",
    )
    .unwrap();

    let scan = |extra: &[&str]| {
        Command::new(bin())
            .args([
                "scan",
                csv.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
                "--detectors",
                "autodetect,fregex",
            ])
            .args(extra)
            .output()
            .unwrap()
    };

    let out = scan(&["--threads", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("2019/03/04"),
        "ensemble union should keep the slash date:\n{stdout}"
    );
    assert!(stdout.contains("merge union"), "{stdout}");
    assert!(stdout.contains("Auto-Detect"), "{stdout}");
    assert!(stdout.contains("F-Regex"), "{stdout}");

    // Byte-identical findings at any thread count; only timings differ.
    let rerun = scan(&["--threads", "8"]);
    assert!(
        rerun.status.success(),
        "{}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    assert_eq!(
        findings_part(&stdout),
        findings_part(&String::from_utf8_lossy(&rerun.stdout)),
        "ensemble findings changed with --threads 8"
    );

    // A vote merge also runs (both members must agree).
    let out = scan(&["--merge", "vote:2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("merge vote:2"));

    // Flag validation: --merge without --detectors, unknown detector
    // names, a vote threshold above the member count.
    let bad = |args: &[&str], needle: &str| {
        let out = Command::new(bin())
            .args(["scan", csv.to_str().unwrap(), "--model"])
            .arg(model.to_str().unwrap())
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    };
    bad(&["--merge", "vote:2"], "--detectors");
    bad(
        &["--detectors", "autodetect,x"],
        "error: invalid configuration: unknown detector 'x' (known: autodetect, fregex, \
         pwheel, dboost, linear, linearp, cdm, lsa, svdd, dbod, lof, union)\n",
    );
    bad(
        &["--detectors", "autodetect", "--merge", "vote:9"],
        "vote:9",
    );
}
