//! `adt-analyze`: the repo-invariant lint engine.
//!
//! PRs 1–8 rest on invariants the compiler does not check: scans are
//! byte-identical across thread counts and hash-map iteration orders, a
//! panic never escapes a serve worker, no lock is held across blocking
//! I/O, the kernels' bit-packing never silently wraps, and no `Result` is
//! dropped on the model-swap path. This crate machine-checks them with a
//! hand-rolled, std-only token analyzer (no `syn`: the workspace depends
//! on path crates only). Since PR 9 the engine is *interprocedural*: a
//! workspace-wide function index and call graph ([`callgraph`]) lets
//! rules see through one or more layers of helper functions. Six rules:
//!
//! - **determinism** — no seed-randomized `HashMap`/`HashSet` in
//!   `adt-core`/`adt-stats`, no wall-clock reads outside the serve stats
//!   layer, the bench crate and the `perfbench/` benchmark.
//! - **panic-safety** — no `unwrap`/`expect`/panicking macros/computed
//!   slice indices in the scan kernel, the training pipeline
//!   (`adt-stats` build path), or serve request handlers.
//! - **lock-discipline** — consistent lock acquisition order, and no
//!   guard held across blocking I/O — including a call to a helper whose
//!   call closure blocks (v2, call-graph-powered).
//! - **unchecked-arithmetic** — no raw `+`/`*`/`<<`/narrowing `as` in
//!   the kernel files whose math is the product ([`arith`]).
//! - **error-path** — no discarded `Result` (`let _ =`, bare `.ok();`)
//!   in the serve/learn/online scopes; the call graph proves discards of
//!   known-infallible helpers clean ([`errorpath`]).
//! - **allow-audit** — suppression markers must carry a reason and must
//!   actually suppress something.
//!
//! Findings are suppressed inline with a justified marker comment (see
//! [`allow`]); `DESIGN.md` §9 and §14 document the protocol.

pub mod allow;
pub mod arith;
pub mod callgraph;
pub mod errorpath;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod scopes;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// A finding not yet attached to a file.
#[derive(Debug)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a file, derived from its repo-relative path.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// `HashMap`/`HashSet` are flagged (core/stats determinism scope).
    pub determinism_hash: bool,
    /// Wall-clock reads are allowed (serve stats layer, the bench crate,
    /// and the `perfbench/` benchmark package).
    pub time_exempt: bool,
    /// Panic-safety rules apply (scan kernel, worker pool, serve handlers).
    pub panic_scope: bool,
    /// Lock-discipline rules apply (adt-serve, ensemble/online threads).
    pub lock_scope: bool,
    /// Unchecked-arithmetic rules apply (the pattern-hash/memo/intern kernels).
    pub arith_scope: bool,
    /// Error-path rules apply (serve handlers, the learn/online loop).
    pub errorpath_scope: bool,
}

/// The default path → rule-scope mapping for this repository.
pub fn classify(rel: &str) -> FileClass {
    let serve_src = rel.starts_with("crates/serve/src/");
    let serve_handler = serve_src && !rel.ends_with("/testutil.rs") && !rel.ends_with("/client.rs");
    FileClass {
        determinism_hash: rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/stats/src/"),
        time_exempt: rel == "crates/serve/src/stats.rs"
            || rel.starts_with("crates/bench/")
            || rel.starts_with("perfbench/"),
        panic_scope: rel == "crates/core/src/detector.rs"
            || rel == "crates/core/src/engine.rs"
            || rel == "crates/core/src/values.rs"
            || rel == "crates/core/src/ensemble.rs"
            || rel == "crates/core/src/online.rs"
            || rel == "crates/stats/src/build.rs"
            || rel == "crates/stats/src/codec.rs"
            || rel == "crates/stats/src/counts.rs"
            || rel == "crates/stats/src/language_stats.rs"
            || rel == "crates/stats/src/pipeline.rs"
            || rel == "crates/stats/src/pool.rs"
            || rel == "crates/stats/src/store.rs"
            || rel == "crates/patterns/src/classify.rs"
            || rel == "crates/patterns/src/multi.rs"
            || serve_handler,
        lock_scope: serve_src
            || rel == "crates/core/src/ensemble.rs"
            || rel == "crates/core/src/online.rs",
        arith_scope: rel == "crates/patterns/src/classify.rs"
            || rel == "crates/patterns/src/multi.rs"
            || rel == "crates/patterns/src/pattern.rs"
            || rel == "crates/core/src/detector.rs"
            || rel == "crates/core/src/values.rs"
            || rel == "crates/stats/src/counts.rs"
            || rel == "crates/stats/src/pipeline.rs",
        errorpath_scope: serve_handler || rel == "crates/core/src/online.rs",
    }
}

/// A production-tier file lexed and scaffolded once, shared by the call
/// graph build and every per-file rule (phase 1 of the two-phase run).
pub struct PreparedFile {
    pub rel: String,
    pub class: FileClass,
    pub lexed: lexer::Lexed,
    pub braces: scopes::Braces,
    pub skip: Vec<(usize, usize)>,
    pub fns: Vec<scopes::FnSpan>,
    pub markers: Vec<allow::Marker>,
}

/// Lexes and scaffolds one file for the workspace passes.
pub fn prepare_file(rel: &str, source: &str, class: FileClass) -> PreparedFile {
    let lexed = lexer::lex(source);
    let braces = scopes::Braces::build(&lexed.tokens);
    let skip = scopes::test_spans(&lexed.tokens, &braces);
    let skip_lines: Vec<(u32, u32)> = skip
        .iter()
        .map(|&(a, b)| (lexed.tokens[a].line, lexed.tokens[b].line))
        .collect();
    let markers = allow::collect_markers(&lexed.comments, &skip_lines);
    let fns = scopes::fn_spans(&lexed.tokens, &braces);
    PreparedFile {
        rel: rel.to_string(),
        class,
        lexed,
        braces,
        skip,
        fns,
        markers,
    }
}

/// The combined result of a workspace run.
#[derive(Debug)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Analysis {
    /// Stable machine-readable report.
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = allow::RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        let mut out = String::from("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"counts\": {");
        let mut first = true;
        for (rule, n) in &counts {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", json_str(rule), n));
        }
        out.push_str("\n  },\n  \"findings\": [");
        let mut first = true;
        for f in &self.findings {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Tests, benches and examples are outside every rule's scope.
fn is_testish(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
        || Path::new(rel)
            .file_stem()
            .and_then(|s| s.to_str())
            .is_some_and(|s| s.contains("test"))
}

const SKIP_DIRS: [&str; 5] = [".git", "target", "devstubs", "results", "fixtures"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes the workspace rooted at `root`. `only` (when non-empty)
/// restricts analysis to files whose repo-relative path contains one of
/// the given substrings — handy for focused runs; cross-file checks then
/// see only that subset.
pub fn analyze_workspace(root: &Path, only: &[String]) -> std::io::Result<Analysis> {
    // Phase 1: walk, read, lex, and scaffold every production file once.
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut prepared: Vec<PreparedFile> = Vec::new();
    let mut files_scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let filtered_out = !only.is_empty() && !only.iter().any(|o| rel.contains(o.as_str()));
        if filtered_out || is_testish(&rel) {
            continue;
        }
        let source = std::fs::read_to_string(path)?;
        files_scanned += 1;
        prepared.push(prepare_file(&rel, &source, classify(&rel)));
    }

    // Phase 2: the workspace call graph, from the prepared files.
    let file_fns: Vec<callgraph::FileFns> = prepared
        .iter()
        .map(|pf| callgraph::FileFns {
            rel: &pf.rel,
            tokens: &pf.lexed.tokens,
            skip: &pf.skip,
            fns: &pf.fns,
        })
        .collect();
    let graph = callgraph::CallGraph::build(&file_fns);
    drop(file_fns);

    // Phase 3: the per-file rules. Findings are sorted before they are
    // returned, so the order they are collected in does not matter.
    let mut raw: Vec<(usize, RawFinding)> = Vec::new();
    let mut buf = Vec::new();
    for (idx, pf) in prepared.iter().enumerate() {
        let tokens = &pf.lexed.tokens;
        rules::determinism(tokens, &pf.skip, &pf.class, &mut buf);
        rules::panic_safety(tokens, &pf.braces, &pf.skip, &pf.class, &mut buf);
        arith::unchecked_arithmetic(tokens, &pf.skip, &pf.class, &mut buf);
        errorpath::error_path(tokens, &pf.braces, &pf.skip, &pf.class, &graph, &mut buf);
        raw.extend(buf.drain(..).map(|rf| (idx, rf)));
    }

    // Lock discipline: per-file (graph-aware) plus the cross-file order
    // check.
    let mut all_pairs: Vec<locks::OrderedPair> = Vec::new();
    for (idx, pf) in prepared.iter().enumerate() {
        if !pf.class.lock_scope {
            continue;
        }
        let mut buf = Vec::new();
        all_pairs.extend(locks::collect(
            &pf.rel,
            &pf.lexed.tokens,
            &pf.braces,
            &pf.skip,
            &pf.fns,
            &graph,
            &mut buf,
        ));
        raw.extend(buf.into_iter().map(|rf| (idx, rf)));
    }
    let order = locks::order_findings(&all_pairs);

    // Attach, suppress, audit.
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(idx, rf)| Finding {
            file: prepared[idx].rel.clone(),
            line: rf.line,
            rule: rf.rule,
            message: rf.message,
        })
        .collect();
    let mut marker_sets: BTreeMap<String, Vec<allow::Marker>> = prepared
        .into_iter()
        .map(|pf| (pf.rel, pf.markers))
        .collect();
    for (file, rf) in order {
        findings.push(Finding {
            file,
            line: rf.line,
            rule: rf.rule,
            message: rf.message,
        });
    }

    findings.retain(|f| {
        let Some(markers) = marker_sets.get_mut(&f.file) else {
            return true;
        };
        match allow::find_marker(markers, f.rule, f.line) {
            Some(i) => {
                markers[i].used = true;
                false
            }
            None => true,
        }
    });

    for (file, markers) in &marker_sets {
        for m in markers {
            if !allow::RULES.contains(&m.rule.as_str()) {
                findings.push(Finding {
                    file: file.clone(),
                    line: m.line,
                    rule: "allow-audit",
                    message: format!(
                        "unknown rule `{}` in suppression marker (rules: {})",
                        m.rule,
                        allow::RULES.join(", ")
                    ),
                });
                continue;
            }
            if m.reason.is_empty() {
                findings.push(Finding {
                    file: file.clone(),
                    line: m.line,
                    rule: "allow-audit",
                    message: format!(
                        "suppression of `{}` without a reason; write `: <why>` after the marker",
                        m.rule
                    ),
                });
            }
            if !m.used {
                findings.push(Finding {
                    file: file.clone(),
                    line: m.line,
                    rule: "allow-audit",
                    message: format!(
                        "stale marker: no `{}` finding on this or the next line — remove it",
                        m.rule
                    ),
                });
            }
        }
    }

    // Deterministic output order: (file, line, rule, message) — the
    // derived `Ord` on `Finding` — so `--json` reports are byte-stable
    // across platforms and runs.
    findings.sort();
    findings.dedup();
    Ok(Analysis {
        findings,
        files_scanned,
    })
}
