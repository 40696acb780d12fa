//! Fixture-driven end-to-end tests: a miniature workspace under
//! `tests/fixtures/ws/` seeds one-or-more violations per rule (plus a
//! suppressed case for each), and the assertions pin the exact
//! `file:line: rule` surface the analyzer reports. A final meta-test
//! holds the live workspace itself to `--deny` cleanliness.

use adt_analyze::{analyze_workspace, Analysis, Finding};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn run_fixture() -> Analysis {
    analyze_workspace(&fixture_root(), &[]).expect("fixture workspace analyzes")
}

fn has(findings: &[Finding], file: &str, line: u32, rule: &str) -> bool {
    findings
        .iter()
        .any(|f| f.file == file && f.line == line && f.rule == rule)
}

#[test]
fn seeded_violations_reported_with_file_and_line() {
    let a = run_fixture();
    let f = &a.findings;
    // determinism: std maps and wall clock in scoped files.
    assert!(
        has(f, "crates/core/src/engine.rs", 3, "determinism"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/engine.rs", 7, "determinism"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/engine.rs", 9, "determinism"),
        "{f:#?}"
    );
    // panic-safety: unwrap, panicking macro, computed slice index.
    assert!(
        has(f, "crates/core/src/detector.rs", 4, "panic-safety"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/detector.rs", 6, "panic-safety"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/detector.rs", 8, "panic-safety"),
        "{f:#?}"
    );
    // The online learner joined the kernel scopes: unwrap, computed
    // index, and a wall-clock read are all reported there.
    assert!(
        has(f, "crates/core/src/online.rs", 5, "panic-safety"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 6, "determinism"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 7, "panic-safety"),
        "{f:#?}"
    );
    // panic-safety + determinism in the widened stats-build scope: the
    // sharded training pipeline is held to the same kernel rules.
    assert!(
        has(f, "crates/stats/src/pipeline.rs", 4, "determinism"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/stats/src/pipeline.rs", 8, "panic-safety"),
        "{f:#?}"
    );
    // panic-safety in the patterns class-table scope: the hashing
    // hot path is held to the same kernel rules (computed index, unwrap).
    assert!(
        has(f, "crates/patterns/src/classify.rs", 4, "panic-safety"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/patterns/src/classify.rs", 8, "panic-safety"),
        "{f:#?}"
    );
    // unchecked-arithmetic: raw shift, literal multiply, truncating cast
    // in the pattern kernel, plus literal adds in the other kernel files.
    assert!(
        has(
            f,
            "crates/patterns/src/pattern.rs",
            4,
            "unchecked-arithmetic"
        ),
        "{f:#?}"
    );
    assert!(
        has(
            f,
            "crates/patterns/src/pattern.rs",
            8,
            "unchecked-arithmetic"
        ),
        "{f:#?}"
    );
    assert!(
        has(
            f,
            "crates/patterns/src/pattern.rs",
            12,
            "unchecked-arithmetic"
        ),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/detector.rs", 8, "unchecked-arithmetic"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/stats/src/pipeline.rs", 8, "unchecked-arithmetic"),
        "{f:#?}"
    );
    // error-path: discarded Results via `let _ =` and statement-final
    // `.ok();` across the serve and online-learner scopes.
    assert!(
        has(f, "crates/serve/src/server.rs", 13, "error-path"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/serve/src/server.rs", 31, "error-path"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 24, "error-path"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 48, "error-path"),
        "{f:#?}"
    );
    // lock-discipline: blocking send under a guard, and both sides of an
    // inconsistent cross-file acquisition order.
    assert!(
        has(f, "crates/serve/src/server.rs", 13, "lock-discipline"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/serve/src/server.rs", 19, "lock-discipline"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/serve/src/registry.rs", 11, "lock-discipline"),
        "{f:#?}"
    );
    // lock-discipline v2: the PR 9 scope widening reaches the ensemble
    // lanes and the online learner's feed queue.
    assert!(
        has(f, "crates/core/src/ensemble.rs", 11, "lock-discipline"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 48, "lock-discipline"),
        "{f:#?}"
    );
    // allow-audit: stale, unknown-rule, and reason-less markers.
    assert!(
        has(f, "crates/core/src/audit.rs", 3, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/audit.rs", 8, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/audit.rs", 14, "allow-audit"),
        "{f:#?}"
    );
    // allow-audit for the new rules: stale error-path marker, misspelled
    // rule name, reason-less arithmetic/error-path suppressions, and a
    // stale unchecked-arithmetic marker.
    assert!(
        has(f, "crates/core/src/audit.rs", 19, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/audit.rs", 24, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/patterns/src/pattern.rs", 21, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/patterns/src/pattern.rs", 25, "allow-audit"),
        "{f:#?}"
    );
    assert!(
        has(f, "crates/core/src/online.rs", 53, "allow-audit"),
        "{f:#?}"
    );
}

#[test]
fn per_rule_counts_are_exact() {
    let a = run_fixture();
    let count = |rule: &str| a.findings.iter().filter(|f| f.rule == rule).count();
    assert_eq!(count("determinism"), 5, "{:#?}", a.findings);
    assert_eq!(count("panic-safety"), 8, "{:#?}", a.findings);
    assert_eq!(count("lock-discipline"), 6, "{:#?}", a.findings);
    assert_eq!(count("unchecked-arithmetic"), 5, "{:#?}", a.findings);
    assert_eq!(count("error-path"), 4, "{:#?}", a.findings);
    assert_eq!(count("allow-audit"), 8, "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 36, "{:#?}", a.findings);
    assert_eq!(a.files_scanned, 10);
}

#[test]
fn justified_markers_suppress_their_findings() {
    let a = run_fixture();
    let f = &a.findings;
    // Suppressed: HashSet under a reasoned marker.
    assert!(
        !has(f, "crates/core/src/engine.rs", 11, "determinism"),
        "{f:#?}"
    );
    // Suppressed: expect under a reasoned marker.
    assert!(
        !has(f, "crates/core/src/detector.rs", 13, "panic-safety"),
        "{f:#?}"
    );
    // Suppressed: non-empty expect in the online-learner scope.
    assert!(
        !has(f, "crates/core/src/online.rs", 13, "panic-safety"),
        "{f:#?}"
    );
    // Suppressed: worker-slot expect in the stats pipeline scope.
    assert!(
        !has(f, "crates/stats/src/pipeline.rs", 13, "panic-safety"),
        "{f:#?}"
    );
    // Suppressed: nonzero-diff expect in the patterns classifier scope.
    assert!(
        !has(f, "crates/patterns/src/classify.rs", 14, "panic-safety"),
        "{f:#?}"
    );
    // Suppressed: recv-under-guard handoff under a reasoned marker, and
    // the drained value's discard under a same-line error-path marker.
    assert!(
        !has(f, "crates/serve/src/server.rs", 25, "lock-discipline"),
        "{f:#?}"
    );
    assert!(
        !has(f, "crates/serve/src/server.rs", 25, "error-path"),
        "{f:#?}"
    );
    // Suppressed: literal add under a reasoned unchecked-arithmetic marker.
    assert!(
        !has(
            f,
            "crates/patterns/src/pattern.rs",
            17,
            "unchecked-arithmetic"
        ),
        "{f:#?}"
    );
    // Suppressed: best-effort checkpoint under a reasoned error-path marker.
    assert!(
        !has(f, "crates/core/src/online.rs", 37, "error-path"),
        "{f:#?}"
    );
    // Suppressed: indirect blocking call under a reasoned marker.
    assert!(
        !has(f, "crates/serve/src/server.rs", 42, "lock-discipline"),
        "{f:#?}"
    );
    // Suppressed: send-under-guard in the widened ensemble scope.
    assert!(
        !has(f, "crates/core/src/ensemble.rs", 18, "lock-discipline"),
        "{f:#?}"
    );
    // A discard whose callee is known NOT to return Result is clean: the
    // call graph proves `version` infallible, so `tick` carries nothing.
    assert!(
        !has(f, "crates/core/src/online.rs", 32, "error-path"),
        "{f:#?}"
    );
    // The reason-less marker still suppresses (line 15) but is itself
    // reported at its own line (14, asserted above).
    assert!(
        !has(f, "crates/core/src/audit.rs", 15, "determinism"),
        "{f:#?}"
    );
    // Test-gated code is exempt: the unwrap inside #[cfg(test)] mod.
    assert!(
        !f.iter()
            .any(|x| x.file == "crates/core/src/detector.rs" && x.line > 15),
        "{f:#?}"
    );
}

/// The tentpole acceptance case: a guard held across a call to a helper
/// that itself blocks is caught only by propagating effects through the
/// call graph — the pre-PR per-file engine cannot see it. The finding
/// names the helper and cites the blocking site inside it.
#[test]
fn indirect_blocking_is_caught_through_the_call_graph() {
    let a = run_fixture();
    let f = a
        .findings
        .iter()
        .find(|f| {
            f.file == "crates/serve/src/server.rs" && f.line == 36 && f.rule == "lock-discipline"
        })
        .unwrap_or_else(|| panic!("{:#?}", a.findings));
    assert!(f.message.contains("`forward` may block"), "{}", f.message);
    assert!(
        f.message
            .contains("`.send()` at crates/serve/src/server.rs:31"),
        "{}",
        f.message
    );
}

/// Dropped-Result findings cite the callee's definition site when the
/// call graph resolves it to a fn with a Result return type.
#[test]
fn dropped_result_findings_cite_the_definition_site() {
    let a = run_fixture();
    let f = a
        .findings
        .iter()
        .find(|f| f.file == "crates/core/src/online.rs" && f.line == 24 && f.rule == "error-path")
        .unwrap_or_else(|| panic!("{:#?}", a.findings));
    assert!(
        f.message
            .contains("`save_state` (defined at crates/core/src/online.rs:16)"),
        "{}",
        f.message
    );
}

#[test]
fn path_filter_restricts_the_run() {
    let a = analyze_workspace(&fixture_root(), &["detector.rs".to_string()])
        .expect("filtered run analyzes");
    assert_eq!(a.files_scanned, 1);
    assert!(a.findings.iter().all(|f| f.file.ends_with("detector.rs")));
    assert_eq!(a.findings.len(), 4, "{:#?}", a.findings);
}

#[test]
fn json_report_is_stable_and_structured() {
    let first = run_fixture().to_json();
    let second = run_fixture().to_json();
    assert_eq!(first, second, "JSON report must be byte-stable across runs");
    assert!(first.contains("\"version\": 1"));
    assert!(first.contains("\"files_scanned\": 10"));
    assert!(first.contains("\"determinism\": 5"));
    assert!(first.contains("\"panic-safety\": 8"));
    assert!(first.contains("\"lock-discipline\": 6"));
    assert!(first.contains("\"unchecked-arithmetic\": 5"));
    assert!(first.contains("\"error-path\": 4"));
    assert!(first.contains("\"allow-audit\": 8"));
    // One JSON row per finding.
    assert_eq!(first.matches("{\"file\": ").count(), 36);
}

/// S1: two binary invocations of `--json` produce byte-identical output,
/// and the findings array is sorted by (file, line, rule).
#[test]
fn cli_json_output_is_byte_stable_and_sorted() {
    let bin = env!("CARGO_BIN_EXE_adt-analyze");
    let root = fixture_root();
    let run = || {
        let out = std::process::Command::new(bin)
            .args(["--json", "--root"])
            .arg(&root)
            .output()
            .expect("analyzer binary runs");
        assert!(out.status.success());
        out.stdout
    };
    let first = run();
    assert_eq!(first, run(), "two --json runs must be byte-identical");

    // Every findings row carries (file, line, rule), and rows arrive in
    // lexicographic (file, line) order.
    let text = String::from_utf8(first).expect("json output is utf-8");
    let mut keys = Vec::new();
    for row in text
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"file\": "))
    {
        let field = |name: &str| {
            let tag = format!("\"{name}\": ");
            let at = row.find(&tag).unwrap_or_else(|| panic!("{row}")) + tag.len();
            row[at..]
                .split([',', '}'])
                .next()
                .unwrap()
                .trim_matches('"')
                .to_string()
        };
        assert!(!field("rule").is_empty(), "{row}");
        keys.push((field("file"), field("line").parse::<u32>().expect("line")));
    }
    assert_eq!(keys.len(), 36);
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:#?}");
}

#[test]
fn cli_deny_fails_on_fixture_and_json_goes_to_stdout() {
    let bin = env!("CARGO_BIN_EXE_adt-analyze");
    let root = fixture_root();
    let out = std::process::Command::new(bin)
        .args(["--deny", "--root"])
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    assert!(!out.status.success(), "--deny must fail on seeded fixtures");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/detector.rs:4: panic-safety:"),
        "{stdout}"
    );

    let out = std::process::Command::new(bin)
        .args(["--json", "--root"])
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    assert!(out.status.success(), "--json without --deny exits zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\n  \"version\": 1"), "{stdout}");
}

/// `perfbench/` is exempt from the wall-clock rule like the bench crate:
/// the same timer is clean there and still a finding in `adt-core`.
#[test]
fn perfbench_timers_are_exempt_from_the_wall_clock_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clock_ws");
    let a = analyze_workspace(&root, &[]).expect("clock fixture analyzes");
    assert_eq!(a.files_scanned, 2);
    assert!(
        !a.findings.iter().any(|f| f.file.starts_with("perfbench/")),
        "{:#?}",
        a.findings
    );
    assert!(
        has(&a.findings, "crates/core/src/train.rs", 6, "determinism"),
        "{:#?}",
        a.findings
    );
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
}

/// The acceptance gate: the live workspace itself carries no findings —
/// every violation has been fixed or carries a justified marker.
#[test]
fn live_workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let a = analyze_workspace(&root, &[]).expect("live workspace analyzes");
    assert!(
        a.findings.is_empty(),
        "live tree must be clean under --deny:\n{}",
        a.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
