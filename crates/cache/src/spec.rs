//! Cache configuration: a plain serde-round-trippable spec, validated
//! up front like every other spec in this workspace.

use crate::CacheError;
use serde::{Deserialize, Serialize};

/// Configuration for the decision cache behind a query service.
///
/// A spec is inert data — build one, [`validate`](CacheSpec::validate)
/// it, then hand it to the service layer, which gives every transport
/// worker its own [`crate::FrontedLru`] of this capacity: zero locking
/// on the hot path, at the cost of one warm-up (and one capacity) per
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Entries each worker's cache holds.
    pub capacity: usize,
}

impl CacheSpec {
    /// A per-worker cache of `capacity` entries.
    pub fn per_worker(capacity: usize) -> Self {
        Self { capacity }
    }

    /// Rejects a zero capacity.
    pub fn validate(&self) -> Result<(), CacheError> {
        if self.capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        Ok(())
    }
}

impl Default for CacheSpec {
    /// Per-worker, 4096 entries — a whole 64×64 grid per worker.
    fn default() -> Self {
        Self::per_worker(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_each_bad_shape() {
        assert!(CacheSpec::default().validate().is_ok());
        assert!(CacheSpec::per_worker(1).validate().is_ok());
        assert_eq!(
            CacheSpec::per_worker(0).validate(),
            Err(CacheError::ZeroCapacity)
        );
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [CacheSpec::default(), CacheSpec::per_worker(1024)] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: CacheSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }
}
