//! # fsi-ingest — streaming ingestion + drift-triggered maintenance
//!
//! Everything below this crate is batch: full dataset in, full retrain,
//! atomic hot-swap. This crate opens the *online* scenario — a write
//! path that keeps the frozen index honest as points stream in:
//!
//! * [`DeltaBuffer`] — a concurrent, cell-sharded buffer of accepted
//!   points ([`IngestRecord`]s), maintaining live per-cell count /
//!   label / group-count deltas ([`CellDelta`]) on top of the frozen
//!   snapshot's statistics. One mutex shard per write, atomics for
//!   occupancy.
//! * [`DriftDetector`] — scores how far the buffered deltas have pushed
//!   any subtree's statistics past the frozen baseline, using the
//!   `CellStats`/summed-area-table machinery (one O(grid) pass, then
//!   O(1) per subtree), against a baseline built by [`baseline_stats`].
//! * [`MaintenanceSpec`] — the policy: drift threshold, occupancy
//!   bound, SLA-style staleness bound. [`MaintenanceSpec::due`] decides
//!   when a background pass should fold the buffer in.
//! * [`merge_dataset`] — the deterministic merge that appends drained
//!   records to the seed dataset in global accept order, so every shard
//!   that retrains from the same `(seed, delta)` pair builds a
//!   bit-identical index.
//!
//! The serving layer (`fsi-serve`) wires these into `Request::Ingest` /
//! `Request::IngestBatch` dispatch, owner-shard routing, and the
//! existing two-phase `RebuildPrepare`/`RebuildCommit` barrier — the
//! generation bump invalidates the decision cache implicitly, so
//! streaming writes compose with every layer above with zero new
//! invalidation protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod drift;
pub mod error;
pub mod merge;
pub mod policy;
pub mod record;

pub use buffer::{CellDelta, DeltaBuffer};
pub use drift::{baseline_stats, DriftDetector, DriftReport};
pub use error::IngestError;
pub use merge::merge_dataset;
pub use policy::{MaintenanceSpec, MaintenanceTrigger};
pub use record::IngestRecord;
