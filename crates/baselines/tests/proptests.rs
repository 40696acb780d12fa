//! Property tests across all baselines: structural guarantees that hold
//! for arbitrary columns.

use adt_baselines::all_baselines;
use adt_baselines::union::union;
use adt_core::api::Detector;
use adt_corpus::{Column, SourceTag};
use adt_rng::check::Gen;
use adt_rng::Rng;

fn arb_column(g: &mut Gen) -> Column {
    let values = g.vec(0..25, |g| {
        g.one_of(&[
            "[0-9]{1,5}",
            "[0-9]{4}-[0-9]{2}-[0-9]{2}",
            "[a-z]{2,8}",
            "[A-Z][a-z]{2,6}",
            "\\$[0-9]{1,3}\\.[0-9]{2}",
            "[ -~]{0,12}",
        ])
    });
    Column::new(values, SourceTag::Csv)
}

/// No baseline panics, and every prediction is (a) a real value of the
/// column, (b) finite-confidence, (c) unique per value, and (d) the list
/// is sorted by descending confidence.
fn assert_well_formed(col: &Column) {
    for det in all_baselines() {
        let preds = det.detect(col);
        let mut seen = std::collections::HashSet::new();
        for w in preds.windows(2) {
            assert!(
                w[0].confidence >= w[1].confidence,
                "{} unsorted",
                det.name()
            );
        }
        for p in &preds {
            assert!(
                col.values.iter().any(|v| v == &p.value),
                "{} predicted a value not in the column: {:?}",
                det.name(),
                p.value
            );
            assert!(p.confidence.is_finite());
            assert!(
                seen.insert(p.value.clone()),
                "{} duplicated {:?}",
                det.name(),
                p.value
            );
        }
    }
}

/// Row order never changes the prediction *set* (single-column methods
/// see a bag of values). Confidences may differ only by floating-point
/// association, so compare the value sets.
fn assert_row_order_invariant(col: &Column, seed: u64) {
    let mut shuffled = col.values.clone();
    // Deterministic Fisher-Yates from the seed.
    let mut s = seed | 1;
    for i in (1..shuffled.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        shuffled.swap(i, (s as usize) % (i + 1));
    }
    let col2 = Column::new(shuffled, SourceTag::Csv);
    for det in all_baselines() {
        let a: std::collections::BTreeSet<String> =
            det.detect(col).into_iter().map(|p| p.value).collect();
        let b: std::collections::BTreeSet<String> =
            det.detect(&col2).into_iter().map(|p| p.value).collect();
        assert_eq!(&a, &b, "{} not order-invariant", det.name());
    }
}

/// Detection is deterministic.
fn assert_deterministic(col: &Column) {
    for det in all_baselines() {
        assert_eq!(det.detect(col), det.detect(col));
    }
}

/// The union only predicts values some member predicted.
fn assert_union_is_subset_of_members(col: &Column) {
    let union_vals: std::collections::BTreeSet<String> =
        union().detect(col).into_iter().map(|p| p.value).collect();
    let mut member_vals = std::collections::BTreeSet::new();
    for det in all_baselines() {
        for p in det.detect(col) {
            member_vals.insert(p.value);
        }
    }
    assert!(union_vals.is_subset(&member_vals));
}

/// Columns (`|`-separated) that properties of this file once failed on,
/// the row-order one at the seed below. Each runs through every property.
#[test]
fn past_failures_stay_fixed() {
    for values in [
        "Mutm|2846-89-88|$0.99|0884-94-70|b{_:s=||20",
        "oerj|amlf|Dyhryzb|Jmxkgmg|zceagvz|5726-00-81|djhu|$702.99|120|bxycwvlc|$1.96|$3.99|dnfsp",
        "$093.41|Zteb|9|Aefoe|Bgurtj|7828-57-91|6824-07-73|Dkprsa|$135.04|Kkgtz|507|yrjfycqk|\
         =mYI_|}5{|6171-03-89|$59.14|mx|$89.22",
    ] {
        let col = Column::from_strs(&values.split('|').collect::<Vec<_>>(), SourceTag::Csv);
        assert_well_formed(&col);
        assert_deterministic(&col);
        assert_row_order_invariant(&col, 9264381705268038087);
        assert_union_is_subset_of_members(&col);
    }
}

adt_rng::properties! {
    cases = 48;

    /// See [`assert_well_formed`].
    fn predictions_are_well_formed(g; col in arb_column(g)) {
        assert_well_formed(&col);
    }

    /// See [`assert_deterministic`].
    fn detection_is_deterministic(g; col in arb_column(g)) {
        assert_deterministic(&col);
    }

    /// See [`assert_row_order_invariant`].
    fn row_order_invariance(g; col in arb_column(g), seed in g.random::<u64>()) {
        assert_row_order_invariant(&col, seed);
    }

    /// See [`assert_union_is_subset_of_members`].
    fn union_is_subset_of_members(g; col in arb_column(g)) {
        assert_union_is_subset_of_members(&col);
    }
}
