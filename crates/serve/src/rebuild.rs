//! Index builds: run the training pipeline for one spec and compile the
//! result into a servable [`FrozenIndex`]. Publishing is the service's
//! job: every rebuild goes through [`crate::QueryService`]'s two-phase
//! barrier, which stages the index on each shard before any serves it.

use crate::error::ServeError;
use crate::frozen::FrozenIndex;
use fsi_data::SpatialDataset;
use fsi_pipeline::{run_spec, MethodRun, ModelSnapshot, PipelineSpec};

/// Builds a [`FrozenIndex`] from scratch for one [`PipelineSpec`]: runs
/// the full training pipeline, extracts the model snapshot, and compiles
/// the index. Returns the index together with the pipeline run (for its
/// evaluation report).
pub fn build_index(
    dataset: &SpatialDataset,
    spec: &PipelineSpec,
) -> Result<(FrozenIndex, MethodRun), ServeError> {
    let run = run_spec(dataset, spec)?;
    let index = compile_run(&run, dataset)?;
    Ok((index, run))
}

/// Compiles an already finished pipeline run into a [`FrozenIndex`].
///
/// Tree-backed methods (`MedianKd`, `FairKd`, `IterativeFairKd`)
/// compile their KD-tree into the flat branchless backend; the other
/// methods fall back to the per-cell partition backend
/// ([`FrozenIndex::from_partition`]), which the differential tests prove
/// lookup-equivalent wherever both exist.
pub fn compile_run(run: &MethodRun, dataset: &SpatialDataset) -> Result<FrozenIndex, ServeError> {
    let snapshot: ModelSnapshot = run.model_snapshot()?;
    match run.tree.as_ref() {
        Some(tree) => FrozenIndex::compile(tree, dataset.grid(), &snapshot),
        None => FrozenIndex::from_partition(&run.partition, dataset.grid(), &snapshot),
    }
}

/// What a finished rebuild did.
///
/// Lives in `fsi-proto` (as the body of a `Rebuild` response) and is
/// re-exported here, so the wire protocol and the library rebuild APIs
/// share one serializable representation.
pub use fsi_proto::RebuildReport;

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};
    use fsi_pipeline::{Method, TaskSpec};

    fn small_dataset() -> SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 250,
            grid_side: 16,
            seed: 11,
            ..CityConfig::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    fn spec(method: Method, height: usize) -> PipelineSpec {
        PipelineSpec::new(TaskSpec::act(), method, height)
    }

    #[test]
    fn build_index_serves_the_run_partition() {
        let d = small_dataset();
        let (index, run) = build_index(&d, &spec(Method::MedianKd, 3)).unwrap();
        assert_eq!(index.num_leaves(), run.partition.num_regions());
        for (i, p) in d.locations().iter().enumerate().take(50) {
            let expected = run.partition.region_of(d.cells()[i]);
            assert_eq!(index.lookup(p).unwrap().leaf_id, expected);
        }
    }

    #[test]
    fn non_tree_methods_fall_back_to_the_cells_backend() {
        let d = small_dataset();
        let (index, run) = build_index(&d, &spec(Method::ZipCode, 3)).unwrap();
        assert_eq!(index.backend_name(), "cells");
        assert_eq!(index.num_leaves(), run.partition.num_regions());
        for (i, p) in d.locations().iter().enumerate().take(50) {
            let expected = run.partition.region_of(d.cells()[i]);
            assert_eq!(index.lookup(p).unwrap().leaf_id, expected);
        }
        // Tree-backed methods still get the flat tree backend.
        let (index, _) = build_index(&d, &spec(Method::MedianKd, 3)).unwrap();
        assert_eq!(index.backend_name(), "tree");
    }

    #[test]
    fn rebuild_publishes_a_new_generation() {
        use crate::{IndexHandle, QueryService, Topology};
        use fsi_proto::{Request, Response};
        use std::sync::Arc;

        let d = small_dataset();
        let (initial, _) = build_index(&d, &spec(Method::MedianKd, 2)).unwrap();
        let handle = IndexHandle::new(initial);
        let mut reader = handle.reader();
        assert_eq!(reader.snapshot().num_leaves(), 4);

        let mut service =
            QueryService::new(Topology::single(handle.clone())).with_rebuild(Arc::new(d));
        let fair = spec(Method::FairKd, 4);
        let Response::Rebuilt { report } =
            service.dispatch(&Request::Rebuild { spec: fair.clone() })
        else {
            panic!("expected a rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, 16);
        assert_eq!(report.spec, fair);
        assert!(report.total_time >= report.build_time);
        // The reader sees the fair index on its next snapshot call.
        assert_eq!(reader.snapshot().num_leaves(), 16);
        assert!(reader
            .snapshot()
            .lookup(&fsi_geo::Point::new(0.5, 0.5))
            .is_some());
    }
}
