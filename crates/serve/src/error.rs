//! Error type for the serving subsystem.
//!
//! [`ServeError`] wraps [`fsi_pipeline::PipelineError`] with
//! source-chaining and is itself wrapped by the workspace-wide
//! `fsi::FsiError` — the one error type the `fsi` facade returns. Match
//! on `FsiError` in application code; match here only when working
//! against this crate directly.

use fsi_pipeline::PipelineError;
use std::fmt;

/// Errors produced while compiling, querying or rebuilding a served index.
#[derive(Debug)]
pub enum ServeError {
    /// The index, snapshot or partition was built over a different grid.
    GridMismatch {
        /// Grid shape `(rows, cols)` the index expects.
        expected: (usize, usize),
        /// Grid shape that was supplied.
        got: (usize, usize),
    },
    /// The model snapshot does not cover the index's leaves.
    SnapshotMismatch {
        /// Number of leaves in the spatial structure.
        leaves: usize,
        /// Number of leaves in the snapshot.
        snapshot: usize,
    },
    /// An index would exceed the compiled leaf-id capacity.
    TooManyLeaves {
        /// Requested number of leaves.
        leaves: usize,
        /// Maximum representable number of leaves.
        max: usize,
    },
    /// A batch lookup hit a point outside the index bounds.
    PointOutOfBounds {
        /// Index of the offending point within the batch.
        index: usize,
        /// The offending coordinates.
        point: (f64, f64),
    },
    /// A shard router was asked for a degenerate shard grid.
    InvalidShards {
        /// Requested shard rows.
        rows: usize,
        /// Requested shard columns.
        cols: usize,
    },
    /// A topology spec (or a clip rectangle derived from one) failed
    /// validation.
    InvalidTopology(String),
    /// A remote shard backend failed to answer.
    Remote {
        /// The remote shard's address.
        addr: String,
        /// What went wrong.
        detail: String,
    },
    /// A rebuild commit arrived with no staged index to publish.
    NotStaged,
    /// A decision-cache spec failed validation.
    Cache(fsi_cache::CacheError),
    /// A streaming-ingestion component (delta buffer, drift detector,
    /// merge, maintenance policy) failed.
    Ingest(fsi_ingest::IngestError),
    /// A maintenance pass was requested on a service built without
    /// streaming ingestion.
    IngestUnavailable,
    /// A rebuild (manual, or a drift-triggered maintenance pass) failed
    /// to publish, or was refused.
    Maintenance(String),
    /// The underlying pipeline run failed.
    Pipeline(PipelineError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::GridMismatch { expected, got } => write!(
                f,
                "grid shape mismatch: index expects {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            ServeError::SnapshotMismatch { leaves, snapshot } => write!(
                f,
                "model snapshot covers {snapshot} leaves but the index has {leaves}"
            ),
            ServeError::TooManyLeaves { leaves, max } => {
                write!(f, "index has {leaves} leaves; at most {max} are supported")
            }
            ServeError::PointOutOfBounds { index, point } => write!(
                f,
                "point #{index} at ({}, {}) is outside the index bounds",
                point.0, point.1
            ),
            ServeError::InvalidShards { rows, cols } => write!(
                f,
                "shard grid must have at least one row and one column, got {rows}x{cols}"
            ),
            ServeError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            ServeError::Remote { addr, detail } => {
                write!(f, "remote shard {addr}: {detail}")
            }
            ServeError::NotStaged => {
                write!(f, "rebuild commit received with no staged index")
            }
            ServeError::Cache(e) => write!(f, "cache error: {e}"),
            ServeError::Ingest(e) => write!(f, "ingest error: {e}"),
            ServeError::IngestUnavailable => write!(
                f,
                "streaming ingestion is not configured on this service; \
                 construct it with a training dataset and `with_ingest`"
            ),
            ServeError::Maintenance(msg) => {
                write!(f, "rebuild failed: {msg}")
            }
            ServeError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Cache(e) => Some(e),
            ServeError::Ingest(e) => Some(e),
            ServeError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<fsi_cache::CacheError> for ServeError {
    fn from(e: fsi_cache::CacheError) -> Self {
        ServeError::Cache(e)
    }
}

impl From<fsi_ingest::IngestError> for ServeError {
    fn from(e: fsi_ingest::IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ServeError::GridMismatch {
            expected: (64, 64),
            got: (16, 16),
        };
        assert!(e.to_string().contains("64x64"));
        let e = ServeError::PointOutOfBounds {
            index: 7,
            point: (2.0, -1.0),
        };
        assert!(e.to_string().contains("#7"));
        let e = ServeError::TooManyLeaves {
            leaves: 70000,
            max: 65535,
        };
        assert!(e.to_string().contains("70000"));
        let e = ServeError::InvalidTopology("shard 3: bad address".into());
        assert!(e.to_string().contains("shard 3"));
        let e = ServeError::Remote {
            addr: "10.0.0.7:7878".into(),
            detail: "connection refused".into(),
        };
        assert!(e.to_string().contains("10.0.0.7:7878"));
        assert!(ServeError::NotStaged.to_string().contains("staged"));
        let e = ServeError::Ingest(fsi_ingest::IngestError::MissingDataset);
        assert!(e.to_string().contains("dataset"));
        assert!(ServeError::IngestUnavailable
            .to_string()
            .contains("with_ingest"));
        let e = ServeError::Maintenance("shard 2 failed to prepare".into());
        assert!(e.to_string().contains("shard 2"));
    }
}
