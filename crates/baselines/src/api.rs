//! The detector roster: every detector the workspace ships, by
//! configuration name, and the one constructor `match` that builds
//! each around a shared Auto-Detect model.
//!
//! [`adt_core::api`] defines the [`Detector`] trait every method
//! implements; this module names and builds them. Adding a detector is
//! one enum variant and one match arm, and the compiler checks that the
//! match covers every variant.

use crate::{
    CdmDetector, DbodDetector, DboostDetector, FRegexDetector, LinearDetector, LinearPDetector,
    LofDetector, LsaDetector, PotterWheelDetector, SvddDetector,
};
use adt_core::api::Detector;
use adt_core::{AdtError, AutoDetect};
use std::sync::Arc;

/// The ten §4.2 baselines, in configuration order. Each variant builds
/// the detector type of the same name (`FRegex` is [`FRegexDetector`],
/// `PotterWheel` is [`PotterWheelDetector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    FRegex,
    PotterWheel,
    Dboost,
    Linear,
    LinearP,
    Cdm,
    Lsa,
    Svdd,
    Dbod,
    Lof,
}

impl Baseline {
    /// Every baseline, in configuration order.
    pub const ALL: [Baseline; 10] = [
        Baseline::FRegex,
        Baseline::PotterWheel,
        Baseline::Dboost,
        Baseline::Linear,
        Baseline::LinearP,
        Baseline::Cdm,
        Baseline::Lsa,
        Baseline::Svdd,
        Baseline::Dbod,
        Baseline::Lof,
    ];

    /// The canonical configuration name (`fregex`).
    pub fn name(self) -> &'static str {
        match self {
            Baseline::FRegex => "fregex",
            Baseline::PotterWheel => "pwheel",
            Baseline::Dboost => "dboost",
            Baseline::Linear => "linear",
            Baseline::LinearP => "linearp",
            Baseline::Cdm => "cdm",
            Baseline::Lsa => "lsa",
            Baseline::Svdd => "svdd",
            Baseline::Dbod => "dbod",
            Baseline::Lof => "lof",
        }
    }

    /// A fresh detector with the method's default parameters.
    pub fn build(self) -> Box<dyn Detector> {
        match self {
            Baseline::FRegex => Box::new(FRegexDetector::default()),
            Baseline::PotterWheel => Box::new(PotterWheelDetector::default()),
            Baseline::Dboost => Box::new(DboostDetector::default()),
            Baseline::Linear => Box::new(LinearDetector::default()),
            Baseline::LinearP => Box::new(LinearPDetector::default()),
            Baseline::Cdm => Box::new(CdmDetector::default()),
            Baseline::Lsa => Box::new(LsaDetector::default()),
            Baseline::Svdd => Box::new(SvddDetector::default()),
            Baseline::Dbod => Box::new(DbodDetector::default()),
            Baseline::Lof => Box::new(LofDetector::default()),
        }
    }
}

/// Every detector the workspace ships: Auto-Detect, the ten baselines,
/// and their Union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorId {
    /// Auto-Detect over a trained model.
    AutoDetect,
    /// One of the ten local baselines.
    Baseline(Baseline),
    /// The rank-pooled union of the ten baselines ([`crate::union::union`]).
    Union,
}

impl DetectorId {
    /// Every detector, in configuration order (the order error messages
    /// list them in): Auto-Detect, [`Baseline::ALL`], Union.
    pub const ALL: [DetectorId; 12] = {
        let mut all = [DetectorId::Union; 12];
        all[0] = DetectorId::AutoDetect;
        let mut i = 0;
        while i < Baseline::ALL.len() {
            all[i + 1] = DetectorId::Baseline(Baseline::ALL[i]);
            i += 1;
        }
        all
    };

    /// The canonical configuration name (`autodetect`, `fregex`, …).
    pub fn name(self) -> &'static str {
        match self {
            DetectorId::AutoDetect => "autodetect",
            DetectorId::Baseline(b) => b.name(),
            DetectorId::Union => "union",
        }
    }

    /// Parses one configuration name, ignoring case, surrounding
    /// whitespace, `-` and `_` (`" F-Regex "` is `fregex`). An unknown
    /// name is an [`AdtError::Config`] listing every known one.
    pub fn parse(raw: &str) -> Result<Self, AdtError> {
        let name: String = raw
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|id| id.name() == name)
            .ok_or_else(|| {
                AdtError::Config(format!(
                    "unknown detector '{name}' (known: {})",
                    Self::ALL.map(DetectorId::name).join(", ")
                ))
            })
    }

    /// Builds the detector; Auto-Detect shares `model`.
    pub fn build(self, model: &Arc<AutoDetect>) -> Box<dyn Detector> {
        match self {
            DetectorId::AutoDetect => Box::new(Arc::clone(model)),
            DetectorId::Baseline(b) => b.build(),
            DetectorId::Union => Box::new(crate::union::union()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_ensemble;

    fn model() -> Arc<AutoDetect> {
        Arc::new(AutoDetect {
            languages: Vec::new(),
            npmi: Default::default(),
            precision_target: 0.95,
            max_distinct_values: 64,
        })
    }

    #[test]
    fn detector_spec_normalizes_and_validates() {
        assert_eq!(
            DetectorId::parse(" F-Regex ").unwrap(),
            DetectorId::Baseline(Baseline::FRegex)
        );
        assert_eq!(
            DetectorId::parse("Auto_Detect").unwrap(),
            DetectorId::AutoDetect
        );
        let err = DetectorId::parse("nope").unwrap_err();
        assert!(matches!(err, AdtError::Config(ref m) if m.contains("nope")));
        assert_eq!(
            DetectorId::parse("x").unwrap_err().to_string(),
            "invalid configuration: unknown detector 'x' (known: autodetect, fregex, \
             pwheel, dboost, linear, linearp, cdm, lsa, svdd, dbod, lof, union)"
        );
    }

    #[test]
    fn detector_spec_list_rejects_dupes_and_empties() {
        let (ids, _) = parse_ensemble("autodetect,fregex,cdm".split(','), None).unwrap();
        assert_eq!(
            ids.iter().map(|id| id.name()).collect::<Vec<_>>(),
            vec!["autodetect", "fregex", "cdm"]
        );
        assert!(parse_ensemble("fregex,,cdm".split(','), None).is_err());
        assert!(parse_ensemble("fregex,fregex".split(','), None).is_err());
        assert!(parse_ensemble("".split(','), None).is_err());
    }

    #[test]
    fn registry_builds_by_name_and_reports_unregistered() {
        let model = model();
        let det = DetectorId::parse("autodetect").unwrap().build(&model);
        assert_eq!(det.name(), "Auto-Detect");
        let det = DetectorId::parse("lof").unwrap().build(&model);
        assert_eq!(det.name(), "LOF");
        // A name outside the roster is reported before anything is built.
        match DetectorId::parse("isolationforest") {
            Err(AdtError::Config(m)) => assert!(m.contains("isolationforest"), "{m}"),
            other => panic!("an unknown detector parsed: {other:?}"),
        }
    }

    /// Every roster entry parses from its own name and from a case- or
    /// punctuation-changed spelling, and builds the detector the paper's
    /// legends name.
    #[test]
    fn every_roster_entry_parses_builds_and_names_itself() {
        let model = model();
        let legend = [
            "Auto-Detect",
            "F-Regex",
            "PWheel",
            "dBoost",
            "Linear",
            "LinearP",
            "CDM",
            "LSA",
            "SVDD",
            "DBOD",
            "LOF",
            "Union",
        ];
        for (id, display) in DetectorId::ALL.into_iter().zip(legend) {
            let name = id.name();
            assert_eq!(DetectorId::parse(name).unwrap(), id);
            let respelled = format!(" {}-{} ", &name[..1].to_uppercase(), &name[1..]);
            assert_eq!(DetectorId::parse(&respelled).unwrap(), id, "{respelled:?}");
            assert_eq!(id.build(&model).name(), display, "{name}");
        }
    }
}
