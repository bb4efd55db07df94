//! Structured cache configuration errors.

use std::fmt;

/// Why a [`crate::CacheSpec`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// The capacity must hold at least one entry.
    ZeroCapacity,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::ZeroCapacity => {
                write!(f, "cache capacity must be at least 1 entry")
            }
        }
    }
}

impl std::error::Error for CacheError {}
