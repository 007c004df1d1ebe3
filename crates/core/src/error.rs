//! Error type for the adaptive-fingerprinting pipeline.

use std::fmt;

/// Errors produced by provisioning, classification and adaptation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying neural-network substrate reported an error.
    Nn(tlsfp_nn::NnError),
    /// A dataset was unusable for the requested operation.
    BadDataset(String),
    /// A configuration value was out of range (e.g. `k = 0`).
    BadConfig(String),
    /// A class id was out of range.
    ClassOutOfRange {
        /// The offending class.
        class: usize,
        /// Number of known classes.
        n_classes: usize,
    },
    /// (De)serialization of a deployment failed.
    Serialization(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "model error: {e}"),
            CoreError::BadDataset(msg) => write!(f, "unusable dataset: {msg}"),
            CoreError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::ClassOutOfRange { class, n_classes } => {
                write!(f, "class {class} out of range ({n_classes} classes)")
            }
            CoreError::Serialization(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tlsfp_nn::NnError> for CoreError {
    fn from(e: tlsfp_nn::NnError) -> Self {
        CoreError::Nn(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::Nn(tlsfp_nn::NnError::EmptyInput("pairs".into()));
        assert!(e.to_string().contains("pairs"));
        assert!(e.source().is_some());
        let b = CoreError::BadDataset("no samples".into());
        assert!(b.source().is_none());
    }
}
