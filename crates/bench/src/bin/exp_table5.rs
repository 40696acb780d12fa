//! Table 5: average error-detection time per column (seconds) for
//! F-Regex, PWheel, dBoost, Linear and Auto-Detect, printed as the
//! paper's one-row table.

use adt_bench::{crude, default_model, ent_corpus, n_dirty, ratio_cases, TABLE5};
use adt_core::api::Detector;
use std::time::Instant;

fn main() {
    let (model, _corpus, _training) = default_model();
    let source = ent_corpus();
    let oracle = crude(&source);
    let cases = ratio_cases(&source, &oracle, (n_dirty() / 4).max(100), 3, 0x7AB5);
    eprintln!("[table5] timing over {} Ent-XLS columns", cases.len());

    let mut rows: Vec<(String, f64)> = Vec::new();
    for baseline in TABLE5 {
        let m = baseline.build();
        let t0 = Instant::now();
        for c in &cases {
            std::hint::black_box(m.detect(&c.column));
        }
        rows.push((
            m.name().to_string(),
            t0.elapsed().as_secs_f64() / cases.len() as f64,
        ));
    }
    let t0 = Instant::now();
    for c in &cases {
        std::hint::black_box(model.detect(&c.column));
    }
    rows.push((
        "Auto-Detect".to_string(),
        t0.elapsed().as_secs_f64() / cases.len() as f64,
    ));

    println!("== Table 5: average running time per column (seconds) ==");
    print!("{:<10}", "method");
    for (name, _) in &rows {
        print!(" {name:>12}");
    }
    println!();
    print!("{:<10}", "time(s)");
    for (_, t) in &rows {
        print!(" {t:>12.6}");
    }
    println!();
    println!("\npaper (server-class 2012 hardware): F-Regex 0.11, PWheel 0.21, dBoost 0.16, Linear 1.67, Auto-Detect 0.29");
}
