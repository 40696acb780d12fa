//! Ensemble configuration: the one validation of a requested detector
//! set and merge policy, run by every ensemble surface (`autodetect
//! scan --detectors`, `/v1/scan`) before anything is built.

use crate::DetectorId;
use adt_core::{AdtError, MergePolicy};

/// Validates an ensemble request: a detector set by configuration name
/// and a merge policy spelling (`None` means `union`). The one check
/// every ensemble surface (`autodetect scan`, `/v1/scan`) runs before
/// building detectors: unknown names, duplicates (`fregex` and
/// `f-regex` are one detector), an empty set, a malformed policy, and a
/// `vote:k` threshold above the member count are all typed
/// [`AdtError::Config`] errors naming the offending input. The last
/// three are [`MergePolicy::for_ensemble`]'s checks.
pub fn parse_ensemble<I, S>(
    detectors: I,
    merge: Option<&str>,
) -> Result<(Vec<DetectorId>, MergePolicy), AdtError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut ids: Vec<DetectorId> = Vec::new();
    for name in detectors {
        let id = DetectorId::parse(name.as_ref())?;
        if ids.contains(&id) {
            return Err(AdtError::Config(format!(
                "duplicate detector '{}'",
                id.name()
            )));
        }
        ids.push(id);
    }
    let merge = MergePolicy::for_ensemble(merge, ids.len())?;
    Ok((ids, merge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Baseline;

    // The detector set and merge policy were once fields of
    // `AutoDetectConfig`, checked by its builder; these tests pin the
    // same guarantees on their one home.

    #[test]
    fn builder_accepts_valid_detector_sets() {
        let (ids, merge) = parse_ensemble(["autodetect", "fregex", "cdm"], Some("vote:2")).unwrap();
        assert_eq!(
            ids,
            [
                DetectorId::AutoDetect,
                DetectorId::Baseline(Baseline::FRegex),
                DetectorId::Baseline(Baseline::Cdm)
            ]
        );
        assert_eq!(merge, MergePolicy::Vote(2));
        let (ids, _) = parse_ensemble(DetectorId::ALL.map(DetectorId::name), None).unwrap();
        assert_eq!(ids, DetectorId::ALL);
    }

    #[test]
    fn builder_rejects_unknown_detector_name() {
        let err = parse_ensemble(["autodetect", "nonesuch"], None).unwrap_err();
        assert!(
            matches!(err, AdtError::Config(ref m) if m.starts_with("unknown detector 'nonesuch'")),
            "{err}"
        );
        let err = parse_ensemble(["fregex", "", "cdm"], None).unwrap_err();
        assert!(
            matches!(err, AdtError::Config(ref m) if m.starts_with("unknown detector ''")),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_bad_detector_sets_and_merges() {
        let config_error = |detectors: &[&str], merge: Option<&str>| -> String {
            match parse_ensemble(detectors, merge) {
                Err(AdtError::Config(m)) => m,
                other => panic!("{detectors:?} {merge:?} should be a Config error, got {other:?}"),
            }
        };
        // Duplicate member, however it is spelled.
        assert_eq!(
            config_error(&["fregex", "f-regex"], None),
            "duplicate detector 'fregex'"
        );
        // Empty set.
        assert!(config_error(&[], None).contains("at least one detector"));
        // Malformed vote threshold.
        assert!(config_error(&["autodetect", "fregex"], Some("vote:0")).contains("vote:k"));
        // Vote threshold above the member count can never fire.
        assert!(config_error(&["autodetect", "fregex"], Some("vote:3")).contains("vote:3"));
        // `calibrated` is no longer a policy.
        let m = config_error(&["autodetect", "fregex"], Some("calibrated"));
        assert!(
            m.contains("calibrated") && m.contains("union") && m.contains("vote:k"),
            "{m}"
        );
    }

    #[test]
    fn default_detector_set_is_autodetect_union() {
        let (ids, merge) = parse_ensemble(["autodetect"], None).unwrap();
        assert_eq!(ids, [DetectorId::AutoDetect]);
        assert_eq!(merge, MergePolicy::Union);
    }
}
