//! Typed errors for the Auto-Detect public API.
//!
//! Replaces the stringly `io::Error::other` / `InvalidData` returns that
//! model persistence used to produce, and the `expect(...)` panics on
//! worker-thread joins in training and scanning.

use adt_stats::StatsError;
use std::fmt;
use std::io;

/// Everything that can go wrong in the Auto-Detect public API.
#[derive(Debug)]
pub enum AdtError {
    /// An underlying I/O failure (file open, read, write).
    Io(io::Error),
    /// A binary model file failed structural validation.
    Corrupt(String),
    /// A configuration value failed validation (see
    /// [`crate::AutoDetectConfig::builder`]).
    Config(String),
    /// A CSV input could not be parsed/streamed.
    Csv(String),
    /// A worker thread panicked inside the named parallel section.
    Worker(&'static str),
    /// No model file exists at the path given to
    /// [`crate::model::load_model`].
    ModelNotFound(String),
    /// A model file exists but could not be read as a model (truncated,
    /// corrupt, or not a model at all). Carries the offending path so
    /// servers can surface it to clients.
    ModelParse {
        /// The file that failed to parse.
        path: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for AdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdtError::Io(e) => write!(f, "I/O error: {e}"),
            AdtError::Corrupt(m) => write!(f, "corrupt model: {m}"),
            AdtError::Config(m) => write!(f, "invalid configuration: {m}"),
            AdtError::Csv(m) => write!(f, "CSV error: {m}"),
            AdtError::Worker(section) => write!(f, "worker thread panicked in {section}"),
            AdtError::ModelNotFound(path) => write!(f, "model file not found: {path}"),
            AdtError::ModelParse { path, detail } => {
                write!(f, "model file {path} could not be parsed: {detail}")
            }
        }
    }
}

impl std::error::Error for AdtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AdtError {
    fn from(e: io::Error) -> Self {
        AdtError::Io(e)
    }
}

/// A panic in the worker pool or the training pipeline.
impl From<StatsError> for AdtError {
    fn from(e: StatsError) -> Self {
        let StatsError::WorkerPanicked(section) = e;
        AdtError::Worker(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AdtError::Config("precision_target must be in (0, 1]".into());
        assert!(e.to_string().contains("precision_target"));
        let e = AdtError::Worker("scan_columns");
        assert!(e.to_string().contains("scan_columns"));
    }

    #[test]
    fn model_errors_name_the_path() {
        let e = AdtError::ModelNotFound("/models/prod.bin".into());
        assert!(e.to_string().contains("/models/prod.bin"));
        assert!(e.to_string().contains("not found"));
        let e = AdtError::ModelParse {
            path: "/models/prod.bin".into(),
            detail: "bad model magic".into(),
        };
        let text = e.to_string();
        assert!(text.contains("/models/prod.bin"), "{text}");
        assert!(text.contains("bad model magic"), "{text}");
    }

    #[test]
    fn io_conversion_preserves_source() {
        let e: AdtError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, AdtError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
