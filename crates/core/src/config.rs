//! Training and detection configuration.

use crate::api::DetectorSpec;
use crate::ensemble::MergePolicy;
use crate::error::AdtError;
use adt_stats::{CoocMode, NpmiParams, PipelineOptions, SketchSpec, StatsConfig};

/// Which candidate language space to optimize over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanguageSpace {
    /// The paper's 144 restricted languages.
    Restricted144,
    /// The 36-language ablation space (letters tied).
    Coarse36,
}

/// Full training configuration (the knobs of Definition 3).
///
/// Prefer [`AutoDetectConfig::builder`] over struct-literal construction:
/// the builder validates every knob and fills derived defaults, so an
/// invalid combination surfaces as a typed [`AdtError::Config`] instead
/// of a silent mis-train.
#[derive(Debug, Clone)]
pub struct AutoDetectConfig {
    /// Precision requirement `P` (the paper targets ≥ 0.95).
    pub precision_target: f64,
    /// Memory budget `M` in bytes for the selected ensemble.
    pub memory_budget: usize,
    /// NPMI parameters (smoothing factor `f`).
    pub npmi: NpmiParams,
    /// Statistics construction parameters.
    pub stats: StatsConfig,
    /// Candidate language space.
    pub space: LanguageSpace,
    /// Number of training examples to generate (split roughly evenly
    /// between `T⁺` and `T⁻`).
    pub training_examples: usize,
    /// Crude-NPMI threshold above which a column counts as compatible
    /// (`C⁺` membership). Appendix F uses 0 against a 350M-column corpus;
    /// at our ~10³-smaller scale legitimate same-column pairs with rare
    /// pattern combinations (IP octet-length mixes, e-mail name lengths)
    /// score slightly negative from sparsity alone, and excluding them
    /// from `T⁺` would let per-language thresholds drift above the
    /// smoothing floor of unseen pairs. −0.2 keeps those sparse positives
    /// in `T⁺` while still rejecting genuinely mixed columns (true format
    /// mixes score below the −0.3 negative-pruning threshold).
    pub compat_threshold: f64,
    /// Crude-NPMI threshold for pruning accidental-compatible negatives
    /// (Appendix F uses −0.3: drop `C₂ ∪ {u}` if any `v ∈ C₂` has
    /// `NPMI(G(u), G(v)) ≥ −0.3`).
    pub negative_prune_threshold: f64,
    /// Worker threads for per-language scans.
    pub threads: usize,
    /// Worker threads for the training pipeline; `0` defers to
    /// [`AutoDetectConfig::threads`]. Training results are identical at
    /// any setting (each language accumulates on one worker, in column
    /// order), so this only tunes wall-clock; the accumulate phase uses
    /// at most one worker per language of a batch.
    pub train_threads: usize,
    /// Cap on distinct values per column considered during detection
    /// (carried into the trained model).
    pub max_distinct_values: usize,
    /// Seed for training-set sampling.
    pub seed: u64,
    /// When set, the *final* selected languages store co-occurrence in a
    /// count-min sketch with this fraction of their exact size
    /// (Figure 8(a): 1%, 10%, 100%=None). This is the only sketching:
    /// the training pipeline always counts pairs exactly, and only the
    /// assembled model is compressed, as in the paper's §3.4.
    pub sketch_fraction: Option<f64>,
    /// Detector set for ensemble scans, as canonical configuration names
    /// validated against [`crate::api::KNOWN_DETECTORS`]. The default
    /// single-member set runs Auto-Detect alone (no ensemble engine).
    pub detectors: Vec<String>,
    /// How per-detector rankings are merged when more than one detector
    /// is configured.
    pub merge: MergePolicy,
    /// Online learning: retrain once this many columns have been
    /// absorbed since the last retrain (the serve learn loop's count
    /// threshold).
    pub online_absorb_columns: usize,
    /// Online learning: retrain after this many seconds with at least
    /// one absorbed-but-untrained column (the serve learn loop's time
    /// threshold).
    pub online_interval_secs: u64,
}

impl Default for AutoDetectConfig {
    fn default() -> Self {
        AutoDetectConfig {
            precision_target: 0.95,
            memory_budget: 64 << 20,
            npmi: NpmiParams::default(),
            stats: StatsConfig::default(),
            space: LanguageSpace::Restricted144,
            training_examples: 100_000,
            compat_threshold: -0.2,
            negative_prune_threshold: -0.3,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            train_threads: 0,
            max_distinct_values: 64,
            seed: 0xAD7_7EA1,
            sketch_fraction: None,
            detectors: vec!["autodetect".to_string()],
            merge: MergePolicy::default(),
            online_absorb_columns: 256,
            online_interval_secs: 60,
        }
    }
}

impl AutoDetectConfig {
    /// A validating builder seeded with the default configuration.
    pub fn builder() -> AutoDetectConfigBuilder {
        AutoDetectConfigBuilder {
            config: AutoDetectConfig::default(),
        }
    }

    /// A small configuration for tests and examples: coarse language
    /// space, few training examples, tight budget.
    pub fn small() -> Self {
        AutoDetectConfig {
            training_examples: 4_000,
            space: LanguageSpace::Coarse36,
            memory_budget: 16 << 20,
            ..AutoDetectConfig::default()
        }
    }

    /// The candidate languages implied by [`AutoDetectConfig::space`].
    pub fn candidate_languages(&self) -> Vec<adt_patterns::Language> {
        match self.space {
            LanguageSpace::Restricted144 => adt_patterns::enumerate_restricted_languages(),
            LanguageSpace::Coarse36 => adt_patterns::enumerate_coarse_languages(),
        }
    }

    /// Worker threads the training pipeline will actually use:
    /// [`AutoDetectConfig::train_threads`] when set, otherwise
    /// [`AutoDetectConfig::threads`] (floored at 1).
    pub fn effective_train_threads(&self) -> usize {
        if self.train_threads > 0 {
            self.train_threads
        } else {
            self.threads.max(1)
        }
    }

    /// Pipeline options for offline training passes: the effective
    /// thread count.
    pub fn train_pipeline_options(&self) -> PipelineOptions {
        PipelineOptions {
            threads: self.effective_train_threads(),
            ..PipelineOptions::default()
        }
    }

    /// The sketch spec for a language whose exact size is `exact_bytes`,
    /// honoring [`AutoDetectConfig::sketch_fraction`].
    pub fn sketch_spec_for(&self, exact_bytes: usize) -> Option<SketchSpec> {
        self.sketch_fraction.map(|frac| SketchSpec {
            budget_bytes: ((exact_bytes as f64 * frac) as usize).max(4096),
            ..SketchSpec::default()
        })
    }

    /// Validates every knob, returning the first violation.
    pub fn validate(&self) -> Result<(), AdtError> {
        fn fail(msg: String) -> Result<(), AdtError> {
            Err(AdtError::Config(msg))
        }
        if !(self.precision_target > 0.0 && self.precision_target <= 1.0) {
            return fail(format!(
                "precision_target must be in (0, 1], got {}",
                self.precision_target
            ));
        }
        if self.memory_budget == 0 {
            return fail("memory_budget must be positive".into());
        }
        if self.training_examples == 0 {
            return fail("training_examples must be positive".into());
        }
        if self.max_distinct_values < 2 {
            return fail(format!(
                "max_distinct_values must be at least 2 (pairs), got {}",
                self.max_distinct_values
            ));
        }
        if self.compat_threshold <= self.negative_prune_threshold {
            return fail(format!(
                "compat_threshold ({}) must exceed negative_prune_threshold ({})",
                self.compat_threshold, self.negative_prune_threshold
            ));
        }
        if let Some(f) = self.sketch_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return fail(format!("sketch_fraction must be in (0, 1], got {f}"));
            }
        }
        if self.online_absorb_columns == 0 {
            return fail("online_absorb_columns must be positive".into());
        }
        if self.online_interval_secs == 0 {
            return fail("online_interval_secs must be positive".into());
        }
        let mut specs: Vec<DetectorSpec> = Vec::with_capacity(self.detectors.len());
        for name in &self.detectors {
            let spec = DetectorSpec::parse(name)?;
            if specs.contains(&spec) {
                return fail(format!("duplicate detector '{}'", spec.name()));
            }
            specs.push(spec);
        }
        if specs.is_empty() {
            return fail("detectors must name at least one detector".into());
        }
        match &self.merge {
            MergePolicy::Union => {}
            MergePolicy::Vote(k) => {
                if *k < 1 {
                    return fail("vote merge threshold must be at least 1".into());
                }
                if *k > specs.len() {
                    return fail(format!(
                        "vote merge threshold {k} exceeds the {} configured detector(s)",
                        specs.len()
                    ));
                }
            }
            MergePolicy::Calibrated(priors) => {
                for (name, weight) in priors {
                    DetectorSpec::parse(name)?;
                    if !(weight.is_finite() && *weight > 0.0) {
                        return fail(format!(
                            "calibrated prior for '{name}' must be a positive finite weight, got {weight}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The validated, normalized detector specs this configuration names.
    pub fn detector_specs(&self) -> Result<Vec<DetectorSpec>, AdtError> {
        self.detectors
            .iter()
            .map(|n| DetectorSpec::parse(n))
            .collect()
    }
}

/// Validating builder for [`AutoDetectConfig`].
///
/// ```
/// use adt_core::AutoDetectConfig;
///
/// let config = AutoDetectConfig::builder()
///     .precision_target(0.9)
///     .memory_budget(32 << 20)
///     .threads(4)
///     .build()
///     .unwrap();
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct AutoDetectConfigBuilder {
    config: AutoDetectConfig,
}

impl AutoDetectConfigBuilder {
    /// Precision requirement `P` in `(0, 1]`.
    pub fn precision_target(mut self, p: f64) -> Self {
        self.config.precision_target = p;
        self
    }

    /// Memory budget in bytes for the selected ensemble.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = bytes;
        self
    }

    /// Worker threads for parallel scans; `0` means all available cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Worker threads for the training pipeline; `0` defers to the scan
    /// thread count.
    pub fn train_threads(mut self, threads: usize) -> Self {
        self.config.train_threads = threads;
        self
    }

    /// Cap on distinct values per column considered during detection.
    pub fn max_distinct_values(mut self, cap: usize) -> Self {
        self.config.max_distinct_values = cap;
        self
    }

    /// Number of training examples to generate.
    pub fn training_examples(mut self, n: usize) -> Self {
        self.config.training_examples = n;
        self
    }

    /// Candidate language space.
    pub fn space(mut self, space: LanguageSpace) -> Self {
        self.config.space = space;
        self
    }

    /// Seed for training-set sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Co-occurrence sketch compression fraction in `(0, 1]`, or `None`
    /// for exact counts.
    pub fn sketch_fraction(mut self, fraction: Option<f64>) -> Self {
        self.config.sketch_fraction = fraction;
        self
    }

    /// Changes nothing: [`CoocMode`] has the one exact mode. Kept only
    /// because the `perfbench/` train workload calls it; the
    /// benchmark-harness change (ROADMAP item 5) deletes it.
    pub fn cooc_mode(self, _mode: CoocMode) -> Self {
        self
    }

    /// Detector set for ensemble scans by canonical configuration name
    /// (`"autodetect"`, `"fregex"`, …). Unknown names, duplicates, and
    /// an empty set are [`AdtError::Config`] errors at [`Self::build`].
    pub fn detectors<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.config.detectors = names.into_iter().map(Into::into).collect();
        self
    }

    /// Merge policy pooling per-detector rankings. A `vote:k` threshold
    /// larger than the detector set is an [`AdtError::Config`] error at
    /// [`Self::build`].
    pub fn merge_policy(mut self, merge: MergePolicy) -> Self {
        self.config.merge = merge;
        self
    }

    /// Online learning: columns absorbed since the last retrain that
    /// trigger the next one. Zero is an [`AdtError::Config`] error at
    /// [`Self::build`].
    pub fn online_absorb_columns(mut self, columns: usize) -> Self {
        self.config.online_absorb_columns = columns;
        self
    }

    /// Online learning: seconds of pending-column age that trigger a
    /// retrain. Zero is an [`AdtError::Config`] error at [`Self::build`].
    pub fn online_interval_secs(mut self, secs: u64) -> Self {
        self.config.online_interval_secs = secs;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<AutoDetectConfig, AdtError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_knobs() {
        let c = AutoDetectConfig::default();
        assert_eq!(c.precision_target, 0.95);
        assert_eq!(c.npmi.smoothing, 0.1);
        // Scaled-corpus relaxation of Appendix F's 0 threshold (see the
        // field docs); stays above the negative-pruning threshold.
        assert_eq!(c.compat_threshold, -0.2);
        assert!(c.compat_threshold > c.negative_prune_threshold);
        assert_eq!(c.candidate_languages().len(), 144);
        assert_eq!(c.max_distinct_values, 64);
        c.validate().unwrap();
    }

    #[test]
    fn small_config_uses_coarse_space() {
        assert_eq!(AutoDetectConfig::small().candidate_languages().len(), 36);
    }

    #[test]
    fn sketch_spec_scales_with_fraction() {
        let mut c = AutoDetectConfig {
            sketch_fraction: Some(0.01),
            ..AutoDetectConfig::default()
        };
        let spec = c.sketch_spec_for(10 << 20).unwrap();
        assert_eq!(spec.budget_bytes, (10 << 20) / 100);
        c.sketch_fraction = None;
        assert!(c.sketch_spec_for(10 << 20).is_none());
    }

    #[test]
    fn builder_validates_and_builds() {
        let c = AutoDetectConfig::builder()
            .precision_target(0.9)
            .memory_budget(1 << 20)
            .threads(3)
            .max_distinct_values(10)
            .training_examples(500)
            .space(LanguageSpace::Coarse36)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(c.precision_target, 0.9);
        assert_eq!(c.threads, 3);
        assert_eq!(c.max_distinct_values, 10);
        assert_eq!(c.space, LanguageSpace::Coarse36);
    }

    #[test]
    fn builder_rejects_bad_knobs() {
        assert!(AutoDetectConfig::builder()
            .precision_target(0.0)
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .precision_target(1.5)
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .memory_budget(0)
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .max_distinct_values(1)
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .sketch_fraction(Some(0.0))
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .training_examples(0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_accepts_valid_detector_sets() {
        let c = AutoDetectConfig::builder()
            .detectors(["autodetect", "fregex", "cdm"])
            .merge_policy(MergePolicy::Vote(2))
            .build()
            .unwrap();
        assert_eq!(c.detectors, vec!["autodetect", "fregex", "cdm"]);
        assert_eq!(c.merge, MergePolicy::Vote(2));
        let specs = c.detector_specs().unwrap();
        assert_eq!(specs[1].name(), "fregex");
    }

    #[test]
    fn builder_rejects_unknown_detector_name() {
        let err = AutoDetectConfig::builder()
            .detectors(["autodetect", "nonesuch"])
            .build()
            .unwrap_err();
        assert!(
            matches!(err, AdtError::Config(ref m) if m.contains("nonesuch")),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_bad_detector_sets_and_merges() {
        // Duplicate member.
        assert!(AutoDetectConfig::builder()
            .detectors(["fregex", "fregex"])
            .build()
            .is_err());
        // Empty set.
        assert!(AutoDetectConfig::builder()
            .detectors(Vec::<String>::new())
            .build()
            .is_err());
        // Malformed vote threshold (programmatic construction can bypass
        // MergePolicy::parse).
        assert!(AutoDetectConfig::builder()
            .detectors(["autodetect", "fregex"])
            .merge_policy(MergePolicy::Vote(0))
            .build()
            .is_err());
        // Vote threshold above the member count can never fire.
        assert!(AutoDetectConfig::builder()
            .detectors(["autodetect", "fregex"])
            .merge_policy(MergePolicy::Vote(3))
            .build()
            .is_err());
        // Calibrated priors must name known detectors with sane weights.
        assert!(AutoDetectConfig::builder()
            .merge_policy(MergePolicy::Calibrated(vec![("nonesuch".into(), 0.5)]))
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .merge_policy(MergePolicy::Calibrated(vec![("fregex".into(), 0.0)]))
            .build()
            .is_err());
    }

    #[test]
    fn default_detector_set_is_autodetect_union() {
        let c = AutoDetectConfig::default();
        assert_eq!(c.detectors, vec!["autodetect"]);
        assert_eq!(c.merge, MergePolicy::Union);
        c.validate().unwrap();
    }

    #[test]
    fn online_knobs_default_and_validate() {
        let c = AutoDetectConfig::default();
        assert_eq!(c.online_absorb_columns, 256);
        assert_eq!(c.online_interval_secs, 60);
        let c = AutoDetectConfig::builder()
            .online_absorb_columns(32)
            .online_interval_secs(5)
            .build()
            .unwrap();
        assert_eq!(c.online_absorb_columns, 32);
        assert_eq!(c.online_interval_secs, 5);
        assert!(AutoDetectConfig::builder()
            .online_absorb_columns(0)
            .build()
            .is_err());
        assert!(AutoDetectConfig::builder()
            .online_interval_secs(0)
            .build()
            .is_err());
    }

    /// Deferred training (the only mode) takes any `sketch_fraction`
    /// in `(0, 1]`, and `cooc_mode` leaves the configuration as it was.
    #[test]
    fn sketch_fraction_builds_and_cooc_mode_is_a_no_op() {
        let c = AutoDetectConfig::builder()
            .sketch_fraction(Some(0.5))
            .cooc_mode(CoocMode::Deferred)
            .train_threads(3)
            .build()
            .unwrap();
        assert_eq!(c.sketch_fraction, Some(0.5));
        assert_eq!(c.train_pipeline_options().threads, 3);
    }

    #[test]
    fn builder_zero_threads_means_available_parallelism() {
        let c = AutoDetectConfig::builder().threads(0).build().unwrap();
        assert!(c.threads >= 1);
    }

    #[test]
    fn train_threads_defers_to_scan_threads_when_zero() {
        let c = AutoDetectConfig::builder()
            .threads(3)
            .train_threads(0)
            .build()
            .unwrap();
        assert_eq!(c.effective_train_threads(), 3);
        let c = AutoDetectConfig::builder()
            .threads(3)
            .train_threads(7)
            .build()
            .unwrap();
        assert_eq!(c.effective_train_threads(), 7);
    }
}
