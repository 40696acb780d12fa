//! Baseline single-column error detectors (§4.2 of the paper).
//!
//! All ten comparison methods, each implementing
//! [`adt_core::api::Detector`]:
//!
//! | Module | Method | Signal |
//! |---|---|---|
//! | [`fregex`] | F-Regex | predefined data-type matchers; non-conforming values |
//! | [`pwheel`] | Potter's Wheel | MDL pattern inference; values outside inferred patterns |
//! | [`dboost`] | dBoost | tuple expansion + per-feature distribution outliers |
//! | [`linear`] | Linear / LinearP | Arning-style deviation detection (raw / pattern level) |
//! | [`cdm`] | CDM | compression-based dissimilarity |
//! | [`lsa`] | LSA | entropy-reduction local search |
//! | [`svdd`] | SVDD | minimum-cost ball over pattern distance |
//! | [`dbod`] | DBOD | distance to nearest neighbour |
//! | [`lof`] | LOF | local outlier factor |
//! | [`union`] | Union | rank-normalized union of all baselines |
//!
//! These are *local* methods: they see only the input column, which is
//! exactly the contrast the paper draws against corpus-driven detection.
//!
//! This crate is the one place that can name every detector, so it
//! holds the roster ([`api`]): [`DetectorId`] (Auto-Detect, each
//! [`Baseline`], Union) with its configuration names and one exhaustive
//! constructor `match`; and ([`config`]) [`parse_ensemble`], the one
//! validation of a requested detector set and merge policy.

pub mod api;
pub mod cdm;
pub mod config;
pub mod dbod;
pub mod dboost;
pub mod fregex;
pub mod linear;
pub mod lof;
pub mod lsa;
pub mod pwheel;
pub mod svdd;
pub mod union;

pub use cdm::CdmDetector;
pub use dbod::DbodDetector;
pub use dboost::DboostDetector;
pub use fregex::FRegexDetector;
pub use linear::{LinearDetector, LinearPDetector};
pub use lof::LofDetector;
pub use lsa::LsaDetector;
pub use pwheel::PotterWheelDetector;
pub use svdd::SvddDetector;

pub use api::{Baseline, DetectorId};
pub use config::parse_ensemble;

use adt_core::api::Detector;

/// All ten baselines (excluding Union), in configuration order.
pub fn all_baselines() -> Vec<Box<dyn Detector>> {
    Baseline::ALL.map(Baseline::build).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_corpus::{Column, SourceTag};

    /// Every baseline should rank the planted intruder first on an easy
    /// column (19 ISO dates + 1 free-text intruder).
    #[test]
    fn all_baselines_catch_an_easy_intruder() {
        let mut values: Vec<String> = (1..20)
            .map(|i| format!("2011-{:02}-{:02}", (i % 12) + 1, (i % 27) + 1))
            .collect();
        values.push("not a date at all!!".to_string());
        let col = Column::new(values, SourceTag::Csv);
        for det in all_baselines() {
            let preds = det.detect(&col);
            assert!(!preds.is_empty(), "{} produced no predictions", det.name());
            assert_eq!(
                preds[0].value,
                "not a date at all!!",
                "{} top prediction was {:?}",
                det.name(),
                preds[0]
            );
        }
    }

    #[test]
    fn baseline_names_are_unique() {
        let mut names: Vec<&str> = all_baselines().iter().map(|d| d.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(n, 10);
    }

    /// The roster covers every detector exactly once: Auto-Detect, each
    /// baseline [`all_baselines`] builds, in order, and Union.
    #[test]
    fn register_baselines_covers_every_known_detector() {
        let built: Vec<&str> = all_baselines().iter().map(|d| d.name()).collect();
        let listed: Vec<&str> = Baseline::ALL.map(|b| b.build().name()).into();
        assert_eq!(built, listed);
        let mut expected = vec![DetectorId::AutoDetect];
        expected.extend(Baseline::ALL.map(DetectorId::Baseline));
        expected.push(DetectorId::Union);
        assert_eq!(DetectorId::ALL.to_vec(), expected);
        let mut names = DetectorId::ALL.map(DetectorId::name);
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "{names:?}");
    }
}
