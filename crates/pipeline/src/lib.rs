//! # fsi-pipeline — the end-to-end fair spatial indexing pipeline
//!
//! Wires the workspace together: datasets (`fsi-data`) are encoded into
//! design matrices, classifiers (`fsi-ml`) produce confidence scores,
//! per-cell aggregates feed the index builders (`fsi-core`), and the
//! resulting partitions are scored with the fairness metrics
//! (`fsi-fairness`).
//!
//! The central entry point is [`run_spec`], which executes one
//! [`PipelineSpec`] — a serde-round-trippable `(task, method, height,
//! config)` cell of the paper's evaluation matrix — and returns a
//! [`MethodRun`] with the partition, the final model's scores and an
//! [`EvalReport`]. [`run_multi_spec`] covers the two-task experiments of
//! Figure 10 via [`MultiObjectiveSpec`]. Every spec is validated before
//! any work runs.
//!
//! Most callers should not use this crate directly: the `fsi` facade
//! crate wraps these entry points in a fluent `Pipeline` builder that
//! carries the run through freezing (`fsi-serve`) and serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod eval;
pub mod methods;
pub mod retrainer;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod trainer;

pub use error::PipelineError;
pub use eval::EvalReport;
pub use methods::Method;
pub use runner::{run_multi_spec, run_spec, MethodRun, MultiObjectiveRun, RunConfig, TaskSpec};
pub use snapshot::{snapshot_for_partition, ModelSnapshot, PartitionModel};
pub use spec::{MultiObjectiveSpec, PipelineSpec};
pub use trainer::ModelKind;
