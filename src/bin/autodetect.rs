//! `autodetect` — command-line interface to the Auto-Detect library.
//!
//! ```bash
//! autodetect gen-corpus --profile web --columns 20000 --out corpus.txt
//! autodetect train --corpus corpus.txt --out model.bin
//! autodetect scan data.csv --model model.bin
//! autodetect check "2011-01-01" "2011/01/02" --model model.bin
//! ```

use auto_detect::core::model::{load_model, save_model};
use auto_detect::core::{train, AutoDetect, AutoDetectConfig, ScanEngine};
use auto_detect::corpus::csv::load_csv;
use auto_detect::corpus::{generate_corpus, Corpus, CorpusProfile};
use std::process::ExitCode;

mod cli {
    //! Minimal argument parsing: positional arguments plus `--flag value`
    //! and boolean `--flag` options.

    use std::collections::HashMap;

    /// Parsed command line: positionals and options.
    #[derive(Debug, Default, PartialEq)]
    pub struct Args {
        pub positional: Vec<String>,
        pub options: HashMap<String, String>,
        pub flags: Vec<String>,
    }

    /// Options that take a value; everything else starting with `--` is a
    /// boolean flag.
    pub const VALUED: [&str; 24] = [
        "--out",
        "--model",
        "--corpus",
        "--profile",
        "--columns",
        "--examples",
        "--budget",
        "--precision",
        "--delimiter",
        "--top",
        "--space",
        "--threads",
        "--train-threads",
        "--models",
        "--addr",
        "--workers",
        "--queue",
        "--detectors",
        "--merge",
        "--learn-model",
        "--learn-absorb",
        "--learn-interval",
        "--learn-queue",
        "--learn-seed",
    ];

    /// Boolean flags (present or absent, no value).
    pub const FLAGS: [&str; 2] = ["--no-header", "--learn"];

    /// Parses raw arguments (without the program name).
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").map(|_| a.as_str()) {
                if VALUED.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("option {name} expects a value"))?;
                    args.options.insert(name.to_string(), v.clone());
                } else if FLAGS.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    return Err(format!("unknown option {name}"));
                }
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    impl Args {
        /// Option value with a default.
        pub fn opt_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
            self.options
                .get(name)
                .map(|s| s.as_str())
                .unwrap_or(default)
        }

        /// Parsed numeric option.
        pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
            match self.options.get(name) {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("invalid value for {name}: {v}")),
                None => Ok(default),
            }
        }

        /// Boolean flag presence.
        pub fn has(&self, flag: &str) -> bool {
            self.flags.iter().any(|f| f == flag)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn raw(s: &[&str]) -> Vec<String> {
            s.iter().map(|x| x.to_string()).collect()
        }

        #[test]
        fn parses_positionals_options_flags() {
            let a = parse(&raw(&["scan", "f.csv", "--model", "m.bin", "--no-header"])).unwrap();
            assert_eq!(a.positional, vec!["scan", "f.csv"]);
            assert_eq!(a.opt_or("--model", ""), "m.bin");
            assert!(a.has("--no-header"));
            assert!(!a.has("--quiet"));
        }

        #[test]
        fn missing_value_is_an_error() {
            assert!(parse(&raw(&["train", "--out"])).is_err());
        }

        #[test]
        fn unknown_option_is_an_error() {
            let err = parse(&raw(&["scan", "f.csv", "--theads", "4"])).unwrap_err();
            assert!(err.contains("--theads"), "{err}");
        }

        #[test]
        fn numeric_options() {
            let a = parse(&raw(&["train", "--columns", "500"])).unwrap();
            assert_eq!(a.num("--columns", 10usize).unwrap(), 500);
            assert_eq!(a.num("--top", 7usize).unwrap(), 7);
            let bad = parse(&raw(&["train", "--columns", "x"])).unwrap();
            assert!(bad.num::<usize>("--columns", 1).is_err());
        }

        #[test]
        fn defaults_apply() {
            let a = parse(&raw(&["scan", "f.csv"])).unwrap();
            assert_eq!(a.opt_or("--delimiter", ","), ",");
        }
    }
}

const USAGE: &str = "\
autodetect — data-driven single-column error detection (SIGMOD'18 reproduction)

USAGE:
  autodetect gen-corpus [--profile web|wiki|pubxls|entxls] [--columns N] --out FILE
  autodetect train [--corpus FILE] [--columns N] [--examples N]
                   [--budget BYTES] [--precision P] [--space full|coarse]
                   [--train-threads N] [--out MODEL.bin]
  autodetect scan FILE.csv --model MODEL.bin [--delimiter C] [--no-header]
                  [--top N] [--threads N]
                  [--detectors NAME,NAME,…] [--merge union|vote:K]
  autodetect check VALUE1 VALUE2 --model MODEL.bin
  autodetect serve --models DIR [--addr HOST:PORT] [--threads N]
                   [--workers N] [--queue N]
                   [--learn] [--learn-model NAME] [--learn-absorb N]
                   [--learn-interval SECS] [--learn-queue N]
                   [--learn-seed CORPUS] [--space full|coarse] [--examples N]
  autodetect query FILE.csv --addr HOST:PORT [--model NAME]
                   [--delimiter C] [--no-header] [--top N] [--learn]
                   [--detectors NAME,NAME,…] [--merge union|vote:K]
  autodetect stop --addr HOST:PORT

Without --corpus, `train` generates a synthetic web-table corpus
(--columns, default 20000) reproducing the paper's co-occurrence
structure. Training runs the corpus-major pipeline (--train-threads,
default all cores, one worker per language of a 12-language batch);
the trained model is identical at any thread count and is written to
--out (default model.bin) in the binary model format that `scan`,
`check` and `serve` read. Training counts pattern pairs exactly; its
`pipeline:` report line gives the largest batch's pair-table bytes.

`scan` audits every column of a delimited file through the parallel
scan engine (--threads, default all cores) and prints ranked
findings. It streams the file in bounded memory rather than loading it
whole, and its findings are identical at any thread count. Models use
the binary model format whatever the file's extension.

--detectors runs an ensemble instead of the single Auto-Detect engine:
a comma-separated subset of autodetect, fregex, pwheel, dboost, linear,
linearp, cdm, lsa, svdd, dbod, lof, union, merged by --merge (default
union; vote:K keeps values flagged by at least K detectors). --merge
requires --detectors. An ensemble scan loads the file whole, since its
detectors read entire columns. Ensemble findings are rank-pooled
confidences without witness pairs, identical at any thread count.

`serve` loads every model in --models DIR (name = file stem) and answers
POST /v1/scan, GET /v1/healthz, GET /v1/stats, GET /v1/models, and
POST /v1/shutdown on --addr (default 127.0.0.1:7171; port 0 picks an
ephemeral one, printed as `listening on HOST:PORT`). Each of --workers
HTTP workers (default all cores) scans its requests itself with
--threads engine threads (default: the cores divided evenly among the
workers, at least one). Models hot-reload when their file changes. `query` round-trips a CSV through a running
server and prints findings in `scan`'s format; `stop` shuts a server
down gracefully, draining in-flight requests.

--learn turns on the online learning loop: the server also answers
POST /v1/learn and keeps a seeded uniform sample of at most 4096 of the
columns it receives, retraining on it with `train`'s trainer once
--learn-absorb columns arrived (default 256) or the oldest pending
column is --learn-interval seconds old (default 60), then atomically
swapping the new model over --learn-model (default: the registry
default). Retrains use --space (default coarse for serve) and
--examples (default 4000); --learn-seed pre-loads the corpus the serving
model was trained on into the sample first, so the first retrain builds
on it rather than on the new columns alone. `query --learn` scans as usual and additionally feeds the
uploaded columns to the learner (best-effort; incompatible with
--detectors). Progress is visible under `learn` in GET /v1/stats.";

fn profile_by_name(name: &str, columns: usize) -> Result<CorpusProfile, String> {
    let mut p = match name {
        "web" => CorpusProfile::web(columns),
        "wiki" => CorpusProfile::wiki(columns),
        "pubxls" => CorpusProfile::pub_xls(columns),
        "entxls" => CorpusProfile::ent_xls(columns),
        other => return Err(format!("unknown profile {other:?}")),
    };
    p.dirty_rate = 0.0;
    p.n_columns = columns;
    Ok(p)
}

fn cmd_gen_corpus(args: &cli::Args) -> Result<(), String> {
    let columns = args.num("--columns", 20_000usize)?;
    let profile = profile_by_name(args.opt_or("--profile", "web"), columns)?;
    let out = args
        .options
        .get("--out")
        .ok_or("gen-corpus requires --out FILE")?;
    let corpus = generate_corpus(&profile);
    corpus.save(out).map_err(|e| e.to_string())?;
    eprintln!("wrote {} columns to {out}", corpus.len());
    Ok(())
}

fn cmd_train(args: &cli::Args) -> Result<(), String> {
    let corpus = match args.options.get("--corpus") {
        Some(path) => Corpus::load(path).map_err(|e| format!("loading {path}: {e}"))?,
        None => {
            let columns = args.num("--columns", 20_000usize)?;
            eprintln!("generating synthetic web corpus ({columns} columns)…");
            generate_corpus(&profile_by_name("web", columns)?)
        }
    };
    let space = match args.opt_or("--space", "full") {
        "full" | "144" => auto_detect::core::config::LanguageSpace::Restricted144,
        "coarse" | "36" => auto_detect::core::config::LanguageSpace::Coarse36,
        other => return Err(format!("unknown --space {other:?} (full|coarse)")),
    };
    let config = AutoDetectConfig::builder()
        .training_examples(args.num("--examples", 40_000usize)?)
        .memory_budget(args.num("--budget", 64usize << 20)?)
        .precision_target(args.num("--precision", 0.95f64)?)
        .space(space)
        .train_threads(args.num("--train-threads", 0usize)?)
        .build()
        .map_err(|e| e.to_string())?;
    eprintln!(
        "training on {} columns ({} candidate languages, {} pipeline threads)…",
        corpus.len(),
        config.candidate_languages().len(),
        config.effective_train_threads()
    );
    let (model, report) = train(&corpus, &config).map_err(|e| e.to_string())?;
    let p = &report.pipeline;
    eprintln!(
        "pipeline: {} columns, {} distinct values interned ({} occurrences), \
         {} generalizations performed, {} saved vs per-column rescan, \
         largest batch's pairs at {} B each {} KB (model-size accounting, not live memory)",
        p.columns,
        p.interned_values,
        p.value_occurrences,
        p.generalizations_performed,
        p.generalizations_saved,
        auto_detect::stats::store::COOC_ENTRY_BYTES,
        p.peak_cooc_bytes / 1024
    );
    // Each language is consumed on the task that accumulates it, so the
    // accumulate figure includes consumption; the consumer's own time is
    // summed over workers and can exceed wall-clock.
    eprintln!(
        "pipeline wall-clock: intern {:.2}s, generalize {:.2}s, accumulate + consume {:.2}s \
         (consumer {:.2}s summed over workers)",
        p.intern_nanos as f64 / 1e9,
        p.generalize_nanos as f64 / 1e9,
        p.accumulate_nanos as f64 / 1e9,
        p.consume_nanos as f64 / 1e9
    );
    eprintln!(
        "selected {} languages {:?}, model {} KB, training precision target {}",
        model.num_languages(),
        report.selected_ids,
        report.model_bytes / 1024,
        config.precision_target
    );
    let out = args.opt_or("--out", "model.bin");
    save_model(&model, out).map_err(|e| e.to_string())?;
    eprintln!("saved {out}");
    Ok(())
}

fn require_model(args: &cli::Args) -> Result<AutoDetect, String> {
    let path = args
        .options
        .get("--model")
        .ok_or("a trained model is required: pass --model MODEL.bin (see `autodetect train`)")?;
    load_model(path).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_scan(args: &cli::Args) -> Result<(), String> {
    let file = args
        .positional
        .get(1)
        .ok_or("scan requires a FILE.csv argument")?;
    if args.options.contains_key("--merge") && !args.options.contains_key("--detectors") {
        return Err(
            "--merge requires --detectors (e.g. --detectors autodetect,fregex --merge vote:2)"
                .into(),
        );
    }
    let model = require_model(args)?;
    let delim = args
        .opt_or("--delimiter", ",")
        .chars()
        .next()
        .unwrap_or(',');
    let has_header = !args.has("--no-header");
    let top = args.num("--top", 5usize)?;
    let threads = args.num("--threads", 0usize)?;
    if let Some(detectors) = args.options.get("--detectors") {
        let merge = args.options.get("--merge").map(|s| s.as_str());
        return cmd_scan_ensemble(
            file, model, delim, has_header, top, threads, detectors, merge,
        );
    }
    let report = ScanEngine::from_model(model)
        .with_threads(threads)
        .scan_csv_path(file, delim, has_header)
        .map_err(|e| format!("scanning {file}: {e}"))?;
    let mut total = 0usize;
    for summary in &report.columns {
        let header = summary
            .header
            .clone()
            .unwrap_or_else(|| format!("column {}", summary.index + 1));
        if summary.num_findings == 0 {
            println!("[{header}] ok");
        } else {
            println!("[{header}] {} finding(s):", summary.num_findings);
            for f in report
                .findings
                .iter()
                .filter(|f| f.column_index == summary.index)
                .take(top)
            {
                println!(
                    "    {:?} clashes with {:?} (confidence {:.2})",
                    f.finding.suspect, f.finding.witness, f.finding.confidence
                );
            }
            total += summary.num_findings;
        }
    }
    println!(
        "\n{total} suspicious value(s) across {} columns",
        report.columns.len()
    );
    println!("{}", report.summary());
    Ok(())
}

/// `scan --detectors …`: runs the named detector set through the
/// ensemble engine and prints merged findings plus per-detector lanes.
#[allow(clippy::too_many_arguments)]
fn cmd_scan_ensemble(
    file: &str,
    model: AutoDetect,
    delim: char,
    has_header: bool,
    top: usize,
    threads: usize,
    detectors: &str,
    merge: Option<&str>,
) -> Result<(), String> {
    use auto_detect::baselines::parse_ensemble;
    use auto_detect::core::EnsembleEngine;
    let (ids, merge) = parse_ensemble(detectors.split(','), merge).map_err(|e| e.to_string())?;
    let model = std::sync::Arc::new(model);
    let members = ids.iter().map(|id| id.build(&model)).collect();
    let columns = load_csv(file, delim, has_header).map_err(|e| format!("loading {file}: {e}"))?;
    let label = merge.label();
    let report = EnsembleEngine::new(members)
        .with_merge(merge)
        .with_threads(threads)
        .run(&columns)
        .map_err(|e| format!("scanning {file}: {e}"))?;
    let mut total = 0usize;
    for (i, (col, preds)) in columns.iter().zip(&report.predictions).enumerate() {
        let header = col
            .header
            .clone()
            .unwrap_or_else(|| format!("column {}", i + 1));
        if preds.is_empty() {
            println!("[{header}] ok");
        } else {
            println!("[{header}] {} finding(s):", preds.len());
            for p in preds.iter().take(top) {
                println!("    {:?} (confidence {:.2})", p.value, p.confidence);
            }
            total += preds.len();
        }
    }
    println!(
        "\n{total} suspicious value(s) across {} columns",
        columns.len()
    );
    println!(
        "ensemble: {} detector(s), merge {label}, {:.1} ms scan + {:.1} ms merge",
        report.lanes.len(),
        (report.elapsed_nanos.saturating_sub(report.merge_nanos)) as f64 / 1e6,
        report.merge_nanos as f64 / 1e6
    );
    for lane in &report.lanes {
        println!(
            "    {:<12} {:>9.1} ms  {:>6} prediction(s)",
            lane.name,
            lane.wall_nanos as f64 / 1e6,
            lane.predictions
        );
    }
    Ok(())
}

/// Builds the serve learn loop's configuration from `--learn-*` (and the
/// shared `--space` / `--examples` training knobs).
fn learn_config(args: &cli::Args) -> Result<Option<auto_detect::serve::LearnConfig>, String> {
    use auto_detect::serve::LearnConfig;
    let tuned = [
        "--learn-model",
        "--learn-absorb",
        "--learn-interval",
        "--learn-queue",
        "--learn-seed",
    ]
    .iter()
    .find(|k| args.options.contains_key(**k));
    if !args.has("--learn") {
        if let Some(k) = tuned {
            return Err(format!("{k} requires --learn"));
        }
        return Ok(None);
    }
    let space = match args.opt_or("--space", "coarse") {
        "full" | "144" => auto_detect::core::config::LanguageSpace::Restricted144,
        "coarse" | "36" => auto_detect::core::config::LanguageSpace::Coarse36,
        other => return Err(format!("unknown --space {other:?} (full|coarse)")),
    };
    let train = AutoDetectConfig::builder()
        .space(space)
        .training_examples(args.num("--examples", 4_000usize)?)
        .build()
        .map_err(|e| e.to_string())?;
    let mut learn = LearnConfig::new(train);
    learn.model = args.options.get("--learn-model").cloned();
    learn.absorb_columns = args.num("--learn-absorb", learn.absorb_columns)?;
    learn.absorb_interval = std::time::Duration::from_secs(
        args.num("--learn-interval", learn.absorb_interval.as_secs())?,
    );
    learn.queue_capacity = args.num("--learn-queue", 64usize)?;
    if let Some(path) = args.options.get("--learn-seed") {
        learn.seed_corpus =
            Some(Corpus::load(path).map_err(|e| format!("loading seed corpus {path}: {e}"))?);
    }
    Ok(Some(learn))
}

fn cmd_serve(args: &cli::Args) -> Result<(), String> {
    use auto_detect::serve::{ModelRegistry, ServeConfig, Server};
    let dir = args
        .options
        .get("--models")
        .ok_or("serve requires --models DIR (a directory of trained *.bin models)")?;
    let learn = learn_config(args)?;
    let learning = learn.is_some();
    let config = ServeConfig {
        addr: args.opt_or("--addr", "127.0.0.1:7171").to_string(),
        engine_threads: args.num("--threads", 0usize)?,
        workers: args.num("--workers", 0usize)?,
        queue_capacity: args.num("--queue", 128usize)?,
        learn,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} model(s) from {dir}: {:?}",
        registry.names().len(),
        registry.names()
    );
    let server = Server::bind(config, registry).map_err(|e| e.to_string())?;
    if learning {
        eprintln!("online learning enabled (POST /v1/learn, scan tap via \"learn\": true)");
    }
    // To stdout, and flushed: smoke tests and orchestrators parse this
    // line to discover an ephemeral port.
    println!("listening on {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())?;
    eprintln!("shut down cleanly");
    Ok(())
}

fn cmd_query(args: &cli::Args) -> Result<(), String> {
    use auto_detect::serve::Client;
    let file = args
        .positional
        .get(1)
        .ok_or("query requires a FILE.csv argument")?;
    let addr = args
        .options
        .get("--addr")
        .ok_or("query requires --addr HOST:PORT of a running `autodetect serve`")?;
    let delim = args
        .opt_or("--delimiter", ",")
        .chars()
        .next()
        .unwrap_or(',');
    let has_header = !args.has("--no-header");
    let top = args.num("--top", 5usize)?;
    if args.options.contains_key("--merge") && !args.options.contains_key("--detectors") {
        return Err(
            "--merge requires --detectors (e.g. --detectors autodetect,fregex --merge vote:2)"
                .into(),
        );
    }
    if args.has("--learn") && args.options.contains_key("--detectors") {
        return Err(
            "--learn is incompatible with --detectors (the learner absorbs \
                    plain scans only)"
                .into(),
        );
    }
    let columns = load_csv(file, delim, has_header).map_err(|e| format!("loading {file}: {e}"))?;
    let client = Client::new(addr).map_err(|e| e.to_string())?;
    let model = args.options.get("--model").map(|s| s.as_str());
    let response = match args.options.get("--detectors") {
        Some(raw) => {
            let detectors: Vec<String> = raw.split(',').map(|s| s.trim().to_string()).collect();
            client.scan_ensemble(
                model,
                &columns,
                &detectors,
                args.options.get("--merge").map(|s| s.as_str()),
            )
        }
        None if args.has("--learn") => client.scan_and_learn(model, &columns),
        None => client.scan(model, &columns),
    }
    .map_err(|e| format!("querying {addr}: {e}"))?;
    let mut total = 0usize;
    for col in &response.columns {
        let header = col
            .header
            .clone()
            .unwrap_or_else(|| format!("column {}", col.index + 1));
        if col.findings == 0 {
            println!("[{header}] ok");
        } else {
            println!("[{header}] {} finding(s):", col.findings);
            for f in response
                .findings
                .iter()
                .filter(|f| f.column == col.index)
                .take(top)
            {
                if f.witness.is_empty() {
                    // Ensemble findings are rank-pooled across detectors
                    // and carry no single witness value.
                    println!("    {:?} (confidence {:.2})", f.suspect, f.confidence);
                } else {
                    println!(
                        "    {:?} clashes with {:?} (confidence {:.2})",
                        f.suspect, f.witness, f.confidence
                    );
                }
            }
            total += col.findings;
        }
    }
    println!(
        "\n{total} suspicious value(s) across {} columns",
        response.columns.len()
    );
    println!(
        "served by model {:?} (generation {})",
        response.model, response.generation
    );
    if let Some(ensemble) = &response.ensemble {
        println!("ensemble: merge {}", ensemble.merge);
        for lane in &ensemble.detectors {
            println!(
                "    {:<12} {:>9.1} ms  {:>6} prediction(s)",
                lane.name,
                lane.wall_nanos as f64 / 1e6,
                lane.predictions
            );
        }
    }
    Ok(())
}

fn cmd_stop(args: &cli::Args) -> Result<(), String> {
    use auto_detect::serve::Client;
    let addr = args
        .options
        .get("--addr")
        .ok_or("stop requires --addr HOST:PORT of a running `autodetect serve`")?;
    let client = Client::new(addr).map_err(|e| e.to_string())?;
    client
        .shutdown()
        .map_err(|e| format!("stopping {addr}: {e}"))?;
    eprintln!("asked {addr} to shut down");
    Ok(())
}

fn cmd_check(args: &cli::Args) -> Result<(), String> {
    let v1 = args.positional.get(1).ok_or("check requires two values")?;
    let v2 = args.positional.get(2).ok_or("check requires two values")?;
    let model = require_model(args)?;
    let verdict = model.score_pair(v1, v2);
    println!(
        "{} — confidence {:.3}, per-language NPMI {:?}",
        if verdict.incompatible {
            "INCOMPATIBLE"
        } else {
            "compatible"
        },
        verdict.confidence,
        verdict
            .scores
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(|s| s.as_str()) {
        Some("gen-corpus") => cmd_gen_corpus(&args),
        Some("train") => cmd_train(&args),
        Some("scan") => cmd_scan(&args),
        Some("check") => cmd_check(&args),
        Some("serve") => cmd_serve(&args),
        Some("query") => cmd_query(&args),
        Some("stop") => cmd_stop(&args),
        _ => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
