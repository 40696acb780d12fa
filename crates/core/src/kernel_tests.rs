//! Differential tests: the scan kernel versus the naive value-pair
//! reference scan.
//!
//! The kernel's contract is *byte-identical findings* — same suspects,
//! witnesses, confidences, scores, ordering — and identical pair
//! counters, on every column shape and on both sides of the memo switch:
//! duplicate-heavy (memo) and dense (memo-free) columns, degree-tied,
//! degenerate calibrations, exact and sketched co-occurrence backends,
//! warm and cold caches. Randomized shapes use a fixed-seed RNG so
//! failures replay.

use crate::aggregate::Aggregator;
use crate::detector::testkit::tiny_model;
use crate::detector::{AutoDetect, KernelChoices, PatternCache, ScanStats};
use adt_rng::rngs::StdRng;
use adt_rng::{Rng, SeedableRng};

/// Families of values that collide heavily at the pattern level under
/// the tiny model's languages.
fn random_value(rng: &mut StdRng) -> String {
    match rng.random_range(0..7u32) {
        0 => format!("{}", 1900 + rng.random_range(0..120u32)),
        1 => format!(
            "{},{:03}",
            1 + rng.random_range(0..9u32),
            rng.random_range(0..1000u32)
        ),
        2 => format!(
            "20{:02}-{:02}-{:02}",
            rng.random_range(0..30u32),
            1 + rng.random_range(0..12u32),
            1 + rng.random_range(0..28u32)
        ),
        3 => format!(
            "20{:02}/{:02}/{:02}",
            rng.random_range(0..30u32),
            1 + rng.random_range(0..12u32),
            1 + rng.random_range(0..28u32)
        ),
        4 => format!("w{}", rng.random_range(0..50u32)),
        5 => format!("{}", rng.random_range(0..10_000u32)),
        // All-distinct tail: unique shapes, one pattern group each.
        _ => {
            let len = 1 + rng.random_range(0..6u32);
            let mut s = String::new();
            for _ in 0..len {
                let c = match rng.random_range(0..3u32) {
                    0 => char::from(b'a' + (rng.random_range(0..26u32) as u8)),
                    1 => char::from(b'0' + (rng.random_range(0..10u32) as u8)),
                    _ => ['-', '/', ',', '.'][rng.random_range(0..4u32) as usize],
                };
                s.push(c);
            }
            s
        }
    }
}

/// A random distinct-value multiset: `d` values with counts 1..=4.
/// Duplicate value strings are merged (scan_value_counts requires each
/// distinct value once).
fn random_counts(rng: &mut StdRng, d: usize) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    while counts.len() < d {
        let v = random_value(rng);
        let c = 1 + rng.random_range(0..4u32) as usize;
        match counts.iter_mut().find(|(u, _)| *u == v) {
            Some((_, existing)) => *existing += c,
            None => counts.push((v, c)),
        }
    }
    counts
}

fn assert_counters_match(group: &ScanStats, reference: &ScanStats, ctx: &str) {
    assert_eq!(group.values_scored, reference.values_scored, "{ctx}");
    assert_eq!(group.pairs_scored, reference.pairs_scored, "{ctx}");
    assert_eq!(group.pairs_flagged, reference.pairs_flagged, "{ctx}");
    assert_eq!(group.pairs_pruned, reference.pairs_pruned, "{ctx}");
    assert_eq!(
        group.findings_per_language, reference.findings_per_language,
        "{ctx}"
    );
    // The kernel's whole point: never more probes than the naive path.
    assert!(
        group.npmi_probes + group.npmi_memo_hits <= reference.npmi_probes,
        "{ctx}: group demanded {} + {} scores, reference probed {}",
        group.npmi_probes,
        group.npmi_memo_hits,
        reference.npmi_probes
    );
}

/// Runs the kernel and the reference on `counts` and asserts
/// byte-identical output. `warm_cache` lets callers thread one cache
/// across many columns, proving memo reuse never leaks into findings.
fn assert_kernels_agree(
    model: &AutoDetect,
    counts: &[(String, usize)],
    aggregator: Aggregator,
    warm_cache: &mut PatternCache,
    ctx: &str,
) {
    let (got, got_stats) = model.scan_value_counts(counts, aggregator, warm_cache);
    let mut ref_cache = PatternCache::new();
    let (want, want_stats) = model.scan_value_counts_reference(counts, aggregator, &mut ref_cache);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{ctx}: findings diverged"
    );
    assert_counters_match(&got_stats, &want_stats, ctx);
    // And a cold cache agrees with the warm one.
    let (cold, _) = model.scan_value_counts(counts, aggregator, &mut PatternCache::new());
    assert_eq!(
        format!("{cold:?}"),
        format!("{got:?}"),
        "{ctx}: cache state leaked into findings"
    );
}

#[test]
fn random_columns_match_reference_exact_backend() {
    let model = tiny_model();
    let mut rng = StdRng::seed_from_u64(0xAD7_0001);
    let mut warm = PatternCache::new();
    for case in 0..60 {
        let d = rng.random_range(0..40u32) as usize;
        let counts = random_counts(&mut rng, d);
        assert_kernels_agree(
            &model,
            &counts,
            Aggregator::AutoDetect,
            &mut warm,
            &format!("exact case {case} (d={d})"),
        );
    }
    assert!(warm.memo_hits() > 0, "warm cache never amortized anything");
}

#[test]
fn random_columns_match_reference_sketch_backend() {
    let mut model = tiny_model();
    for l in &mut model.languages {
        l.stats.compress_cooccurrence(adt_stats::SketchSpec {
            budget_bytes: 1 << 14,
            ..adt_stats::SketchSpec::default()
        });
    }
    let mut rng = StdRng::seed_from_u64(0xAD7_0002);
    let mut warm = PatternCache::new();
    for case in 0..40 {
        let d = rng.random_range(0..32u32) as usize;
        let counts = random_counts(&mut rng, d);
        assert_kernels_agree(
            &model,
            &counts,
            Aggregator::AutoDetect,
            &mut warm,
            &format!("sketch case {case} (d={d})"),
        );
    }
}

#[test]
fn random_columns_match_reference_across_aggregators() {
    let model = tiny_model();
    for (ai, aggregator) in [
        Aggregator::AvgNpmi,
        Aggregator::MinNpmi,
        Aggregator::MajorityVote,
        Aggregator::WeightedMajorityVote,
        Aggregator::BestOne(0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xAD7_0100 + ai as u64);
        let mut warm = PatternCache::new();
        for case in 0..12 {
            let d = rng.random_range(0..24u32) as usize;
            let counts = random_counts(&mut rng, d);
            assert_kernels_agree(
                &model,
                &counts,
                aggregator,
                &mut warm,
                &format!("aggregator {aggregator:?} case {case} (d={d})"),
            );
        }
    }
}

#[test]
fn all_distinct_worst_case_matches_reference() {
    // Every value its own pattern group: d′ = d, the kernel degrades to
    // the reference's probe count but must stay byte-identical.
    let model = tiny_model();
    let mut counts: Vec<(String, usize)> = Vec::new();
    for i in 0..20usize {
        // Unique run-length shapes: i+1 letters then i digits.
        let v = format!("{}{}", "x".repeat(i + 1), "7".repeat(i));
        counts.push((v, 1));
    }
    let mut warm = PatternCache::new();
    assert_kernels_agree(
        &model,
        &counts,
        Aggregator::AutoDetect,
        &mut warm,
        "all-distinct",
    );
    let (_, stats) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    // Crude language sees 20 distinct patterns; L1's \A[2i+1] run
    // lengths are distinct too, so d′ = d under every language and the
    // scan takes the memo-free side of the switch here.
    assert_eq!(stats.groups_per_language.len(), 2);
    assert!(stats.groups_per_language[0] >= 19);
    assert_eq!(stats.kernel_choices.direct, 1);
    assert_eq!(stats.kernel_choices.group, 0);
}

#[test]
fn adaptive_threshold_is_min_over_languages() {
    // Constant total length: L1 collapses every value to \A[21] (one
    // group) while the crude language keeps all 20 distinct. The
    // threshold takes the min ratio, so one collapsing language is
    // enough to keep the memo side — and its single-group probe
    // savings.
    let model = tiny_model();
    let counts: Vec<(String, usize)> = (0..20usize)
        .map(|i| (format!("{}{}", "x".repeat(i + 1), "7".repeat(20 - i)), 1))
        .collect();
    let mut warm = PatternCache::new();
    assert_kernels_agree(
        &model,
        &counts,
        Aggregator::AutoDetect,
        &mut warm,
        "min-over-languages",
    );
    let (_, stats) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    assert_eq!(stats.groups_per_language[1], 1);
    assert_eq!(stats.kernel_choices.group, 1);
    assert_eq!(stats.kernel_choices.direct, 0);
}

#[test]
fn adaptive_kernel_choice_is_data_driven() {
    let model = tiny_model();
    // Unique symbol-run length per value: even L1 (symbols literal)
    // keeps every value a distinct pattern, so d′ = d under every
    // language and the scan must take the memo-free side.
    let distinct: Vec<(String, usize)> = (0..12usize)
        .map(|i| (format!("{}{}", "x".repeat(i + 1), "-".repeat(i + 1)), 1))
        .collect();
    let mut warm = PatternCache::new();
    assert_kernels_agree(
        &model,
        &distinct,
        Aggregator::AutoDetect,
        &mut warm,
        "direct shape",
    );
    let (_, stats) =
        model.scan_value_counts(&distinct, Aggregator::AutoDetect, &mut PatternCache::new());
    assert_eq!(
        (stats.kernel_choices.direct, stats.kernel_choices.group),
        (1, 0),
        "all-languages-distinct shape must score directly"
    );
    // A duplicate-heavy column (one pattern group per language) keeps
    // the memo side.
    let dupes: Vec<(String, usize)> = (0..12usize).map(|i| (format!("{}", 1990 + i), 2)).collect();
    let (_, stats) =
        model.scan_value_counts(&dupes, Aggregator::AutoDetect, &mut PatternCache::new());
    assert_eq!(
        (stats.kernel_choices.direct, stats.kernel_choices.group),
        (0, 1),
        "duplicate-heavy shape must keep the group kernel"
    );
    // The exact cut, d = 12: nine pattern groups (9·4 == 12·3) sit on the
    // memo-free side, eight on the memo side. Letters generalize to one
    // class under L1, so an `x` and a `y` value with the same symbol run
    // share a group there.
    for (groups, want, ctx) in [
        (9usize, (1, 0), "cut: 9 of 12"),
        (8, (0, 1), "cut: 8 of 12"),
    ] {
        let boundary: Vec<(String, usize)> = (0..12usize)
            .map(|i| {
                let letter = if i < groups { "x" } else { "y" };
                (format!("{letter}{}", "-".repeat(i % groups + 1)), 1)
            })
            .collect();
        assert_kernels_agree(&model, &boundary, Aggregator::AutoDetect, &mut warm, ctx);
        let (_, stats) =
            model.scan_value_counts(&boundary, Aggregator::AutoDetect, &mut PatternCache::new());
        assert_eq!(
            stats.groups_per_language.iter().min(),
            Some(&(groups as u64)),
            "{ctx}"
        );
        assert_eq!(
            (stats.kernel_choices.direct, stats.kernel_choices.group),
            want,
            "{ctx}"
        );
    }
}

#[test]
fn dense_columns_bypass_the_npmi_memo() {
    // Warm the memo on a duplicate-heavy column that holds every pattern
    // of the dense column below, so a memo-consulting scan of the dense
    // column would hit on every pair.
    let model = tiny_model();
    let dense: Vec<(String, usize)> = (0..12usize)
        .map(|i| (format!("{}{}", "x".repeat(i + 1), "-".repeat(i + 1)), 1))
        .collect();
    let mut heavy = dense.clone();
    heavy.extend((0..30usize).map(|i| (format!("{}", 1990 + i), 2)));
    let mut cache = PatternCache::new();
    let (_, warm) = model.scan_value_counts(&heavy, Aggregator::AutoDetect, &mut cache);
    assert_eq!(warm.kernel_choices.group, 1);
    let memo_len = cache.memo_len();
    assert!(memo_len > 0, "duplicate-heavy scan left the memo empty");

    let (_, stats) = model.scan_value_counts(&dense, Aggregator::AutoDetect, &mut cache);
    assert_eq!(stats.kernel_choices.direct, 1);
    assert_eq!(stats.npmi_memo_hits, 0);
    assert!(stats.npmi_probes > 0);
    assert_eq!(cache.memo_len(), memo_len, "dense scan wrote to the memo");
}

#[test]
fn direct_kernel_matches_reference_across_aggregators() {
    // Shapes engineered so every language keeps d′ = d (unique symbol-run
    // length per value), pinning the scan onto the memo-free side under
    // each aggregator — findings must stay byte-identical.
    let model = tiny_model();
    for (ai, aggregator) in [
        Aggregator::AutoDetect,
        Aggregator::AvgNpmi,
        Aggregator::MinNpmi,
        Aggregator::MajorityVote,
        Aggregator::WeightedMajorityVote,
        Aggregator::BestOne(0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xAD7_0200 + ai as u64);
        let mut warm = PatternCache::new();
        for case in 0..8 {
            let d = 4 + rng.random_range(0..16u32) as usize;
            let counts: Vec<(String, usize)> = (0..d)
                .map(|i| {
                    let letters = 1 + rng.random_range(0..3u32) as usize;
                    let digits = 1 + rng.random_range(0..3u32) as usize;
                    let count = 1 + rng.random_range(0..4u32) as usize;
                    (
                        format!(
                            "{}{}{}",
                            "x".repeat(letters),
                            "-".repeat(i + 1),
                            "7".repeat(digits)
                        ),
                        count,
                    )
                })
                .collect();
            let ctx = format!("direct {aggregator:?} case {case} (d={d})");
            assert_kernels_agree(&model, &counts, aggregator, &mut warm, &ctx);
            let (_, stats) = model.scan_value_counts(&counts, aggregator, &mut PatternCache::new());
            assert_eq!(stats.kernel_choices.direct, 1, "{ctx}");
        }
    }
}

#[test]
fn direct_kernel_handles_pattern_collisions_and_ties() {
    // Distinct strings that generalize identically under every language:
    // the memo-free side serves their pair from the matrix diagonal
    // (exact 1.0, matching the reference's identical-pattern early
    // return), and their symmetric counts force the compat/occurrence
    // tie-break path.
    let model = tiny_model();
    let mut counts: Vec<(String, usize)> = (0..10usize)
        .map(|i| (format!("{}-{}", "x".repeat(i + 2), "7".repeat(i + 2)), 1))
        .collect();
    counts.push(("ab-12".into(), 2));
    counts.push(("cd-34".into(), 2));
    let mut warm = PatternCache::new();
    assert_kernels_agree(
        &model,
        &counts,
        Aggregator::AutoDetect,
        &mut warm,
        "direct collisions",
    );
    let (_, stats) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    assert_eq!(stats.kernel_choices.direct, 1);
}

#[test]
fn degree_ties_take_reference_tiebreaks() {
    // Two equally-weighted pattern classes flag each other: every degree
    // ties, forcing the compat/occurrence fallback path.
    let model = tiny_model();
    let mut warm = PatternCache::new();
    for (ctx, counts) in [
        (
            "2v2",
            vec![("2011-01-01".to_string(), 2), ("2014/04/04".to_string(), 2)],
        ),
        (
            "balanced classes",
            vec![
                ("2011-01-01".to_string(), 1),
                ("2012-02-02".to_string(), 1),
                ("2014/04/04".to_string(), 1),
                ("2015/05/05".to_string(), 1),
            ],
        ),
        (
            "self-symmetric",
            vec![
                ("2011-01-01".to_string(), 3),
                ("2014/04/04".to_string(), 3),
                ("2015/05/05".to_string(), 3),
            ],
        ),
    ] {
        assert_kernels_agree(&model, &counts, Aggregator::AutoDetect, &mut warm, ctx);
    }
}

#[test]
fn degenerate_threshold_flags_intra_class_pairs_identically() {
    // θ ≥ 1.0 fires on *every* pair, including identical-pattern ones —
    // the intra-class path where per-value degrees stop being uniform
    // within a class. The kernel must fall back to per-pair attribution
    // and still match the reference exactly.
    let mut model = tiny_model();
    for l in &mut model.languages {
        l.calibration.theta = Some(1.5);
    }
    let mut rng = StdRng::seed_from_u64(0xAD7_0003);
    let mut warm = PatternCache::new();
    for case in 0..15 {
        let d = rng.random_range(0..16u32) as usize;
        let counts = random_counts(&mut rng, d);
        assert_kernels_agree(
            &model,
            &counts,
            Aggregator::AutoDetect,
            &mut warm,
            &format!("degenerate case {case} (d={d})"),
        );
    }
}

#[test]
fn distinct_cap_prunes_identically() {
    let mut model = tiny_model();
    model.max_distinct_values = 8;
    let mut rng = StdRng::seed_from_u64(0xAD7_0004);
    let mut warm = PatternCache::new();
    for case in 0..10 {
        let counts = random_counts(&mut rng, 30);
        assert_kernels_agree(
            &model,
            &counts,
            Aggregator::AutoDetect,
            &mut warm,
            &format!("capped case {case}"),
        );
    }
}

#[test]
fn duplicate_heavy_columns_collapse_probes() {
    // The headline claim: on wide duplicate-pattern columns the kernel
    // needs a small fraction of the reference's probes (≥3× fewer as
    // demanded, typically far better).
    let model = tiny_model();
    let counts: Vec<(String, usize)> = (0..48)
        .map(|i| (format!("{}", 1900 + i), 1usize))
        .chain((0..2).map(|i| (format!("20{i:02}/01/01"), 1usize)))
        .collect();
    let (_, group) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    let (_, reference) = model.scan_value_counts_reference(
        &counts,
        Aggregator::AutoDetect,
        &mut PatternCache::new(),
    );
    assert_eq!(reference.npmi_probes, 2 * (50 * 49 / 2));
    assert!(
        group.npmi_probes * 3 <= reference.npmi_probes,
        "group {} vs reference {}",
        group.npmi_probes,
        reference.npmi_probes
    );
}

/// Separators between the words of a free-text value.
const SEPARATORS: [&str; 7] = [" ", ", ", "; ", " - ", ": ", ". ", " / "];

/// A word of 1–9 characters, mostly lower-case, sometimes capitalized or
/// with a digit.
fn word(rng: &mut StdRng) -> String {
    let len = 1 + rng.random_range(0..9u32);
    (0..len)
        .map(|i| match rng.random_range(0..12u32) {
            0 => char::from(b'0' + rng.random_range(0..10u32) as u8),
            1 if i == 0 => char::from(b'A' + rng.random_range(0..26u32) as u8),
            _ => char::from(b'a' + rng.random_range(0..26u32) as u8),
        })
        .collect()
}

/// A free-text column of `d` distinct values of 20–300 characters (words
/// joined by varied punctuation, cut to a drawn length), one of them
/// replaced by a structured intruder.
fn free_text_column(rng: &mut StdRng, d: usize) -> Vec<(String, usize)> {
    const INTRUDERS: [&str; 4] = ["2011-01-01", "1,000", "2014/04/04", "1977"];
    let mut values: Vec<String> = Vec::new();
    while values.len() < d {
        let len = rng.random_range(20..=300usize);
        let mut v = word(rng);
        while v.len() < len {
            v.push_str(SEPARATORS[rng.random_range(0..SEPARATORS.len())]);
            v.push_str(&word(rng));
        }
        v.truncate(len);
        if !values.contains(&v) {
            values.push(v);
        }
    }
    let row = rng.random_range(0..d);
    values[row] = INTRUDERS[rng.random_range(0..INTRUDERS.len())].to_string();
    values.into_iter().map(|v| (v, 1)).collect()
}

#[test]
fn free_text_columns_match_reference_under_every_aggregator() {
    // The dense free-text shape: every value is its own pattern group
    // under every language and almost no pattern was ever counted, so
    // nearly every pair scores the shared unseen-pair NPMI. The raised
    // thresholds make that score fire under both languages: nearly every
    // pair flags, every count is 1 and every flag degree ties, so each
    // pair goes through the compatibility and occurrence tie-breaks.
    let mut exact = tiny_model();
    for l in &mut exact.languages {
        l.calibration.theta = Some(-0.1);
    }
    let mut sketched = exact.clone();
    for l in &mut sketched.languages {
        l.stats.compress_cooccurrence(adt_stats::SketchSpec {
            budget_bytes: 1 << 14,
            ..adt_stats::SketchSpec::default()
        });
    }
    for (backend, model) in [("exact", &exact), ("sketched", &sketched)] {
        for (ai, aggregator) in [
            Aggregator::AutoDetect,
            Aggregator::AvgNpmi,
            Aggregator::MinNpmi,
            Aggregator::MajorityVote,
            Aggregator::WeightedMajorityVote,
            Aggregator::BestOne(0),
            Aggregator::BestOne(1),
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(0xAD7_0300 + ai as u64);
            let mut warm = PatternCache::new();
            for case in 0..4 {
                let d = 20 + rng.random_range(0..21u32) as usize;
                let counts = free_text_column(&mut rng, d);
                let ctx = format!("free text, {backend}, {aggregator:?}, case {case} (d={d})");
                assert_kernels_agree(model, &counts, aggregator, &mut warm, &ctx);
                let (_, got) =
                    model.scan_value_counts(&counts, aggregator, &mut PatternCache::new());
                let (_, want) = model.scan_value_counts_reference(
                    &counts,
                    aggregator,
                    &mut PatternCache::new(),
                );
                assert_eq!(got.groups_per_language, vec![d as u64; 2], "{ctx}");
                // The reference kernel has no memo switch and leaves
                // `kernel_choices` zero; the kernel must take its dense side.
                assert_eq!(
                    got.kernel_choices,
                    KernelChoices {
                        group: 0,
                        direct: 1
                    },
                    "{ctx}"
                );
                assert_eq!(
                    got.npmi_probes + got.npmi_memo_hits,
                    want.npmi_probes,
                    "{ctx}"
                );
                assert!(
                    got.pairs_flagged * 10 >= got.pairs_scored * 9,
                    "{ctx}: only {} of {} pairs flagged",
                    got.pairs_flagged,
                    got.pairs_scored
                );
            }
        }
    }
}

#[test]
fn crossing_language_partitions_refine_to_joint_classes() {
    // L1 keeps only symbols and the second language only digits, so
    // neither partition refines the other: `1-1` and `1/1` share a digit
    // pattern but not a symbol one, `1-1` and `2-2` the reverse. The
    // joint classes are the values themselves, finer than either
    // language's groups; stopping the refinement at one language would
    // merge values that clash under the other.
    use adt_corpus::{Column, Corpus, SourceTag};
    use adt_patterns::{Language, Level};
    let mut model = tiny_model();
    let digits_only = Language::new(Level::Root, Level::Root, Level::Leaf, Level::Root)
        .expect("a legal language");
    let corpus = Corpus::from_columns(
        (0..40)
            .map(|i| {
                Column::new(
                    vec![format!("{}-{}", i % 4, i % 4), format!("{}-x", i % 3)],
                    SourceTag::Web,
                )
            })
            .collect(),
    );
    model.languages[0].stats =
        adt_stats::LanguageStats::build(digits_only, &corpus, &adt_stats::StatsConfig::default());
    let mut rng = StdRng::seed_from_u64(0xAD7_0400);
    for (ai, aggregator) in [Aggregator::AutoDetect, Aggregator::MinNpmi]
        .into_iter()
        .enumerate()
    {
        let mut warm = PatternCache::new();
        for case in 0..8 {
            let mut counts: Vec<(String, usize)> = Vec::new();
            for digit in 0..3 {
                for sep in ["-", "/", "."] {
                    if rng.random_range(0..4u32) > 0 {
                        let count = 1 + rng.random_range(0..3u32) as usize;
                        counts.push((format!("{digit}{sep}{digit}"), count));
                    }
                }
            }
            let ctx = format!("crossing partitions, {aggregator:?} ({ai}), case {case}");
            assert_kernels_agree(&model, &counts, aggregator, &mut warm, &ctx);
        }
    }
    let counts: Vec<(String, usize)> = ["1-1", "1/1", "2-2", "2/2"]
        .iter()
        .map(|v| (v.to_string(), 1))
        .collect();
    let (_, stats) =
        model.scan_value_counts(&counts, Aggregator::AutoDetect, &mut PatternCache::new());
    assert_eq!(stats.groups_per_language, vec![2, 2]);
    assert!(stats.pairs_flagged > 0, "no clash under either language");
}
