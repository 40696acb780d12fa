//! Timing gate for the memo-free side of the scan kernel: on the shape
//! built to take it, the kernel stays within 10% of the naive value-pair
//! reference.
//!
//! An all-distinct column (every value its own pattern under every
//! language, d′ = d) gains nothing from the NPMI memo, so the kernel
//! scores it memo-free; a regression there (say, a redundant probe per
//! pair) shows up as a slowdown against the reference. This is the only
//! test in its binary, so no sibling test shares the CPU while it times.
//! It runs in whatever profile `cargo test` builds (debug in `ci.sh`).

use adt_core::{train, Aggregator, AutoDetect, AutoDetectConfig, LanguageSpace, PatternCache};
use adt_corpus::{generate_corpus, CorpusProfile};
use std::hint::black_box;
use std::time::Instant;

/// Cold-cache scans per kernel, run in alternating pairs; the gate
/// takes the median of the pairs' kernel/reference ratios. A pair's two
/// scans run back to back, so a slow stretch of the machine (a
/// descheduling, or a shared core running at about two thirds of its
/// usual speed for many milliseconds) lands on both halves and cancels
/// in the ratio; the median then drops the few pairs that straddle such
/// a switch. Comparing each side's own median or minimum instead lets
/// one side's lucky or unlucky runs decide the gate.
const ITERS: usize = 9;
/// Median kernel/reference pair ratio, at most.
const BOUND: f64 = 1.10;

/// A small Coarse36 model on 1,000 clean WEB columns, trained in
/// seconds. The distinct-value cap is raised so the column below is
/// scored in full rather than pruned.
fn bench_model() -> AutoDetect {
    let mut cp = CorpusProfile::web(1_000);
    cp.dirty_rate = 0.0;
    let corpus = generate_corpus(&cp);
    let cfg = AutoDetectConfig::builder()
        .training_examples(2_000)
        .space(LanguageSpace::Coarse36)
        .max_distinct_values(512)
        .build()
        .expect("valid config");
    let (model, _) = train(&corpus, &cfg).expect("training failed");
    model
}

/// `d` values with unique run-length shapes (`x7`, `xx77`, …): every
/// value is its own pattern group under the length-preserving languages.
fn all_distinct(d: usize) -> Vec<(String, usize)> {
    (0..d)
        .map(|i| (format!("{}{}", "x".repeat(i + 1), "7".repeat(i)), 1))
        .collect()
}

#[test]
fn memo_free_scan_within_ten_percent_of_reference() {
    let model = bench_model();
    let counts = all_distinct(40);

    let (findings, stats) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    let (reference, _) = model.scan_value_counts_reference(
        &counts,
        Aggregator::AutoDetect,
        &mut PatternCache::new(),
    );
    assert_eq!(
        stats.kernel_choices.direct, 1,
        "the all-distinct shape must take the memo-free side"
    );
    assert_eq!(format!("{findings:?}"), format!("{reference:?}"));

    // Alternate the two kernels, pairing each kernel scan with the
    // reference scan right after it; every scan starts from a cold
    // cache.
    let mut kernel_ns = Vec::with_capacity(ITERS);
    let mut reference_ns = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let mut cache = PatternCache::new();
        let t0 = Instant::now();
        black_box(model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut cache));
        kernel_ns.push(t0.elapsed().as_nanos());
        let mut cache = PatternCache::new();
        let t0 = Instant::now();
        black_box(model.scan_value_counts_reference(&counts, Aggregator::AutoDetect, &mut cache));
        reference_ns.push(t0.elapsed().as_nanos());
    }
    let mut ratios: Vec<f64> = kernel_ns
        .iter()
        .zip(&reference_ns)
        .map(|(&k, &r)| k as f64 / r as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ITERS / 2];
    eprintln!("memo-free scan / reference: median pair ratio {ratio:.2}x of {ratios:.2?}");
    assert!(
        ratio <= BOUND,
        "memo-free scan / reference: median pair ratio {ratio:.2}x of {ratios:.2?} exceeds {BOUND}x \
         (kernel {kernel_ns:?} ns, reference {reference_ns:?} ns)"
    );
}
