//! The fluent pipeline builder: dataset → fair index → decisions.
//!
//! [`Pipeline`] assembles a validated [`PipelineSpec`] step by step and
//! executes it; the resulting [`Run`] carries the evaluation, exposes
//! the partition, and continues into the serving layer
//! ([`Run::freeze`], [`Run::serve`]) or onto disk ([`Run::save_report`]).

use crate::error::FsiError;
use fsi_core::TieBreak;
use fsi_data::{LocationEncoding, SpatialDataset};
use fsi_geo::Partition;
use fsi_pipeline::{
    run_spec, EvalReport, Method, MethodRun, ModelKind, ModelSnapshot, PipelineSpec, RunConfig,
    TaskSpec,
};
use fsi_proto::{ErrorCode, Request, Response};
use fsi_serve::{
    compile_run, CacheSpec, FrozenIndex, IndexHandle, IndexReader, MaintenanceHandle,
    MaintenanceSpec, QueryService, RebuildReport, ServeError, Topology, TopologySpec,
};
use serde::{Deserialize, Serialize};
use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;

/// Fluent builder for one pipeline execution.
///
/// Starts from a dataset with the paper's defaults (ACT task, Fair
/// KD-tree, height 6, logistic regression, seed 7) and lets each call
/// override one knob. [`Pipeline::run`] validates the assembled
/// [`PipelineSpec`] before any work happens.
///
/// ```
/// use fsi::{Method, ModelKind, Pipeline, TaskSpec};
///
/// let dataset = fsi_data::synth::city::CityGenerator::new(
///     fsi_data::synth::city::CityConfig {
///         n_individuals: 200,
///         grid_side: 16,
///         seed: 1,
///         ..Default::default()
///     },
/// )
/// .unwrap()
/// .generate()
/// .unwrap();
///
/// let run = Pipeline::on(&dataset)
///     .task(TaskSpec::act())
///     .method(Method::FairKd)
///     .height(4)
///     .model(ModelKind::Logistic)
///     .seed(7)
///     .run()
///     .unwrap();
/// assert!(run.eval().full.ence.is_finite());
/// let index = run.freeze().unwrap();
/// assert_eq!(index.num_leaves(), run.partition().num_regions());
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<'d> {
    dataset: &'d SpatialDataset,
    spec: PipelineSpec,
}

impl<'d> Pipeline<'d> {
    /// Starts a pipeline over `dataset` with the paper's defaults.
    pub fn on(dataset: &'d SpatialDataset) -> Self {
        Self {
            dataset,
            spec: PipelineSpec::new(TaskSpec::act(), Method::FairKd, 6),
        }
    }

    /// Starts a pipeline from a fully assembled spec (e.g. one restored
    /// from JSON).
    pub fn from_spec(dataset: &'d SpatialDataset, spec: PipelineSpec) -> Self {
        Self { dataset, spec }
    }

    /// Sets the classification task.
    pub fn task(mut self, task: TaskSpec) -> Self {
        self.spec.task = task;
        self
    }

    /// Sets the partitioning method.
    pub fn method(mut self, method: Method) -> Self {
        self.spec.method = method;
        self
    }

    /// Sets the tree height (region budget `2^height`).
    pub fn height(mut self, height: usize) -> Self {
        self.spec.height = height;
        self
    }

    /// Sets the classifier family.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.spec.config.model = model;
        self
    }

    /// Sets the seed for the train/test split and zip-code seeds.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.config.seed = seed;
        self
    }

    /// Sets the held-out fraction (must lie in `[0, 1)`).
    pub fn test_fraction(mut self, fraction: f64) -> Self {
        self.spec.config.test_fraction = fraction;
        self
    }

    /// Sets the neighborhood encoding fed to the classifier.
    pub fn encoding(mut self, encoding: LocationEncoding) -> Self {
        self.spec.config.encoding = encoding;
        self
    }

    /// Sets the tie-break rule for split plateaus.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.spec.config.tie_break = tie_break;
        self
    }

    /// Sets the number of Voronoi seeds for the zip-code baseline.
    pub fn zip_seeds(mut self, seeds: usize) -> Self {
        self.spec.config.zip_seeds = seeds;
        self
    }

    /// Overrides the `(rows, cols)` block shape of the
    /// [`Method::GridReweight`] baseline (rejected for other methods).
    pub fn reweight_blocks(mut self, rows: usize, cols: usize) -> Self {
        self.spec.reweight_blocks = Some((rows, cols));
        self
    }

    /// Replaces the whole shared [`RunConfig`] at once.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// The spec assembled so far.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Validates the assembled spec without running anything.
    pub fn validate(&self) -> Result<(), FsiError> {
        self.spec.validate().map_err(FsiError::from)
    }

    /// Executes the pipeline: validate, build the partition, train the
    /// final model, evaluate.
    pub fn run(self) -> Result<Run<'d>, FsiError> {
        let inner = run_spec(self.dataset, &self.spec)?;
        Ok(Run {
            dataset: self.dataset,
            spec: self.spec,
            inner,
        })
    }
}

/// A finished pipeline execution.
///
/// Dereferences to the underlying [`MethodRun`], so every field of the
/// raw run (`scores`, `labels`, `importances`, `build_time`, …) remains
/// reachable. On top of that it carries the spec it was built from and
/// the downstream transitions: [`Run::freeze`] compiles the run into an
/// immutable [`FrozenIndex`], [`Run::serve`] additionally wires it into
/// a hot-swappable [`IndexHandle`] that rebuilds retrain into, and
/// [`Run::save_report`] persists the whole cell as one JSON value.
#[derive(Debug, Clone)]
pub struct Run<'d> {
    dataset: &'d SpatialDataset,
    spec: PipelineSpec,
    inner: MethodRun,
}

impl std::ops::Deref for Run<'_> {
    type Target = MethodRun;

    fn deref(&self) -> &MethodRun {
        &self.inner
    }
}

/// A whole experiment cell as one serializable value: the spec that
/// produced it, the evaluation, and the generated partition. This is the
/// persistence format behind [`Run::save_report`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// The spec the run executed.
    pub spec: PipelineSpec,
    /// The run's full evaluation.
    pub eval: EvalReport,
    /// The generated neighborhoods.
    pub partition: Partition,
}

impl<'d> Run<'d> {
    /// The evaluation report (metrics over full/train/test slices and
    /// per neighborhood).
    pub fn eval(&self) -> &EvalReport {
        &self.inner.eval
    }

    /// The generated neighborhoods.
    pub fn partition(&self) -> &Partition {
        &self.inner.partition
    }

    /// The spec this run executed.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The dataset the run was built over.
    pub fn dataset(&self) -> &'d SpatialDataset {
        self.dataset
    }

    /// The underlying pipeline run.
    pub fn inner(&self) -> &MethodRun {
        &self.inner
    }

    /// Consumes the facade wrapper, returning the raw [`MethodRun`].
    pub fn into_inner(self) -> MethodRun {
        self.inner
    }

    /// The per-leaf model snapshot of this run (serving state).
    pub fn snapshot(&self) -> Result<ModelSnapshot, FsiError> {
        self.inner.model_snapshot().map_err(FsiError::from)
    }

    /// Compiles the run into an immutable [`FrozenIndex`].
    ///
    /// Tree-backed methods (`MedianKd`, `FairKd`, `IterativeFairKd`)
    /// compile the KD-tree directly — bit-identical to calling
    /// [`FrozenIndex::compile`] by hand; the other methods use the
    /// per-cell partition backend ([`FrozenIndex::from_partition`]).
    /// The same rule applies to rebuilds, so every served method can
    /// hot-rebuild with its own spec.
    pub fn freeze(&self) -> Result<FrozenIndex, FsiError> {
        compile_run(&self.inner, self.dataset).map_err(FsiError::from)
    }

    /// Freezes the run and wires it for online serving: a hot-swappable
    /// [`IndexHandle`] that [`Serving::rebuild`] and every service the
    /// deployment builds publish into.
    pub fn serve(&self) -> Result<Serving<'d>, FsiError> {
        Ok(Serving {
            dataset: self.dataset,
            shared_dataset: std::sync::OnceLock::new(),
            spec: self.spec.clone(),
            handle: IndexHandle::new(self.freeze()?),
            cache_spec: None,
            ingest_policy: None,
        })
    }

    /// [`Run::serve`] with a decision cache in front of every service
    /// the deployment builds ([`Serving::service`],
    /// [`Serving::service_over`], [`Serving::listen`]). The cache
    /// spec is validated here, up front; decisions are keyed by (cell,
    /// generation), so hot-swap rebuilds invalidate cached entries
    /// implicitly.
    pub fn serve_with_cache(&self, cache: CacheSpec) -> Result<Serving<'d>, FsiError> {
        cache
            .validate()
            .map_err(|e| FsiError::from(fsi_serve::ServeError::Cache(e)))?;
        let mut serving = self.serve()?;
        serving.cache_spec = Some(cache);
        Ok(serving)
    }

    /// [`Run::serve`] with streaming ingestion enabled on every
    /// coordinator service the deployment builds ([`Serving::service`],
    /// [`Serving::service_over`], [`Serving::listen`]): appended points
    /// land in a delta buffer over the served snapshot, and the
    /// `policy` — validated here, up front — decides when drift,
    /// occupancy or staleness warrants folding them in through a
    /// hot-swap rebuild. Drive maintenance explicitly with
    /// [`QueryService::maintain`], or in the background via
    /// [`Serving::spawn_maintenance`]. Shard services
    /// ([`Serving::service_shard`]) stay write-free: they merge
    /// coordinator-shipped deltas during two-phase rebuilds without any
    /// ingestion state of their own.
    pub fn serve_with_ingest(&self, policy: MaintenanceSpec) -> Result<Serving<'d>, FsiError> {
        policy
            .validate()
            .map_err(|e| FsiError::from(fsi_serve::ServeError::Ingest(e)))?;
        let mut serving = self.serve()?;
        serving.ingest_policy = Some(policy);
        Ok(serving)
    }

    /// The whole cell as a serializable [`RunReport`].
    pub fn report(&self) -> RunReport {
        RunReport {
            spec: self.spec.clone(),
            eval: self.inner.eval.clone(),
            partition: self.inner.partition.clone(),
        }
    }

    /// Writes the [`RunReport`] as pretty-printed JSON to `path`,
    /// creating parent directories as needed.
    pub fn save_report<P: AsRef<Path>>(&self, path: P) -> Result<(), FsiError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let json = serde_json::to_string_pretty(&self.report())?;
        std::fs::write(path, json)?;
        Ok(())
    }
}

/// A live serving deployment produced by [`Run::serve`]: the handle
/// readers query, and the services that retrain and hot-swap into it.
pub struct Serving<'d> {
    dataset: &'d SpatialDataset,
    /// Lazily materialized shared copy of `dataset` handed to
    /// [`QueryService`]s, so building N services (REPL + HTTP + shards)
    /// deep-clones the dataset once, not N times.
    shared_dataset: std::sync::OnceLock<Arc<SpatialDataset>>,
    spec: PipelineSpec,
    handle: IndexHandle,
    /// Cache configuration applied to every service this deployment
    /// builds; `None` serves uncached. Always validated before it lands
    /// here ([`Run::serve_with_cache`]).
    cache_spec: Option<CacheSpec>,
    /// Maintenance policy enabling streaming ingestion on every
    /// coordinator service this deployment builds; `None` serves
    /// read-only. Always validated before it lands here
    /// ([`Run::serve_with_ingest`]).
    ingest_policy: Option<MaintenanceSpec>,
}

impl Serving<'_> {
    /// The hot-swappable handle serving the compiled index.
    pub fn handle(&self) -> &IndexHandle {
        &self.handle
    }

    /// A per-thread reader over the live index (one atomic load per
    /// snapshot check).
    pub fn reader(&self) -> IndexReader {
        self.handle.reader()
    }

    /// The spec rebuilds re-execute by default.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Retrains with the original spec on the original dataset and
    /// hot-swaps the result in. Readers never block.
    ///
    /// With the original (immutable) dataset this reproduces the served
    /// index bit-identically; a new spec goes through
    /// [`Serving::rebuild_with`], and fresh data arrives through
    /// ingestion ([`Run::serve_with_ingest`]).
    pub fn rebuild(&self) -> Result<RebuildReport, FsiError> {
        self.rebuild_with(&self.spec)
    }

    /// Retrains with a different spec (e.g. a new height after data
    /// drift) and hot-swaps the result in: a `Rebuild` request to
    /// [`Serving::service`], so it publishes through the same two-phase
    /// barrier as every other rebuild.
    ///
    /// # Errors
    ///
    /// An invalid spec is [`FsiError::InvalidSpec`]. A deployment
    /// created via [`Run::serve_with_ingest`] refuses outright: its
    /// served index holds streamed points this path would drop, so it
    /// rebuilds through `Request::Rebuild` on its ingesting service.
    pub fn rebuild_with(&self, spec: &PipelineSpec) -> Result<RebuildReport, FsiError> {
        if self.ingest_policy.is_some() {
            return Err(FsiError::Serve(ServeError::Maintenance(
                "this deployment ingests streamed points; rebuild through \
                 `Request::Rebuild` on its ingesting service, which folds them in"
                    .into(),
            )));
        }
        let error = match self
            .service()
            .dispatch(&Request::Rebuild { spec: spec.clone() })
        {
            Response::Rebuilt { report } => return Ok(*report),
            Response::Error { error } => error,
            other => unreachable!("a rebuild answers `Rebuilt` or `Error`, got {other:?}"),
        };
        Err(match error.code {
            ErrorCode::InvalidSpec => FsiError::InvalidSpec(error.message),
            _ => FsiError::Serve(ServeError::Maintenance(error.message)),
        })
    }

    /// A [`QueryService`] over this deployment's live handle: the typed
    /// request/response surface every transport (REPL, HTTP, tests)
    /// dispatches through. Rebuild requests retrain on this deployment's
    /// dataset; hot-swaps through [`Serving::rebuild`] and through the
    /// service are visible to each other because they share the handle.
    ///
    /// With ingestion configured, each call owns its own ingest log:
    /// a service and its clones share one buffer and log, but two calls
    /// build two independent logs, and a rebuild through one publishes
    /// over whatever the other folded in.
    pub fn service(&self) -> QueryService {
        self.apply_ingest(
            self.apply_cache(
                QueryService::new(Topology::single(self.handle.clone()))
                    .with_rebuild(self.shared_dataset()),
            ),
        )
    }

    /// The decision-cache configuration services are built with, when
    /// the deployment was created via [`Run::serve_with_cache`].
    pub fn cache_spec(&self) -> Option<&CacheSpec> {
        self.cache_spec.as_ref()
    }

    /// The maintenance policy coordinator services are built with, when
    /// the deployment was created via [`Run::serve_with_ingest`].
    pub fn ingest_policy(&self) -> Option<&MaintenanceSpec> {
        self.ingest_policy.as_ref()
    }

    /// Spawns a background maintenance thread over a clone of
    /// `service`: clones share the delta buffer and index handles, so a
    /// rebuild published by the thread is served by `service` (and any
    /// other clone) immediately. Returns the handle that stops the
    /// thread; dropping it stops the thread too.
    ///
    /// # Errors
    ///
    /// Fails when the deployment was not created via
    /// [`Run::serve_with_ingest`], or when `service` itself has no
    /// ingestion state (e.g. a shard service).
    pub fn spawn_maintenance(&self, service: &QueryService) -> Result<MaintenanceHandle, FsiError> {
        let Some(policy) = &self.ingest_policy else {
            return Err(FsiError::from(fsi_serve::ServeError::IngestUnavailable));
        };
        MaintenanceHandle::spawn(service.clone(), policy.clone(), self.spec.clone())
            .map_err(FsiError::from)
    }

    /// Attaches the deployment's cache spec (if any) to a service.
    fn apply_cache(&self, service: QueryService) -> QueryService {
        match self.cache_spec {
            Some(spec) => service
                .with_cache(spec)
                .expect("cache spec validated when the deployment was created"),
            None => service,
        }
    }

    /// Enables streaming ingestion on a coordinator service when the
    /// deployment was configured for it.
    fn apply_ingest(&self, service: QueryService) -> QueryService {
        match &self.ingest_policy {
            Some(_) => service
                .with_ingest(self.spec.task.clone())
                .expect("every deployment service carries its rebuild dataset"),
            None => service,
        }
    }

    /// The dataset copy services rebuild on — deep-cloned at most once
    /// per deployment, then shared by `Arc`.
    fn shared_dataset(&self) -> Arc<SpatialDataset> {
        self.shared_dataset
            .get_or_init(|| Arc::new(self.dataset.clone()))
            .clone()
    }

    /// The canonical sharded deployment path: a coordinator
    /// [`QueryService`] over the [`Topology`] a validated
    /// [`TopologySpec`] describes. `local` slots serve **partial
    /// indexes** clipped from the current snapshot
    /// ([`fsi_serve::FrozenIndex::compile_clipped`]), so per-shard heap
    /// scales down with shard count; `http://host:port` slots are dialed
    /// eagerly with the keep-alive [`crate::http::RemoteShard`] client.
    /// The shards are detached from [`Serving::handle`] — a deployment
    /// that shards its serving plane rebuilds *through the service*
    /// (one-box `Rebuild`, or the two-phase `RebuildPrepare` /
    /// `RebuildCommit` pair over remote fleets), not through
    /// [`Serving::rebuild`].
    pub fn service_over(&self, spec: &TopologySpec) -> Result<QueryService, FsiError> {
        let index = self.handle.load().as_ref().clone();
        let topology = Topology::from_spec(spec, index, crate::http::RemoteShard::connector())
            .map_err(FsiError::from)?;
        Ok(self.apply_ingest(
            self.apply_cache(QueryService::new(topology).with_rebuild(self.shared_dataset())),
        ))
    }

    /// [`Serving::service_over`] with a resilience `policy`: topology
    /// slots of the `{"replicas": [...]}` form are wrapped in an
    /// [`fsi_resil::ReplicaSet`] (retries, hedging, per-replica circuit
    /// breakers — see [`crate::http::ResilientConnector`]), and every
    /// HTTP member dials through a [`crate::http::RemoteShard`] whose
    /// reconnect budget follows the policy's attempt budget. Specs
    /// without replica slots build identically to
    /// [`Serving::service_over`].
    pub fn service_over_with(
        &self,
        spec: &TopologySpec,
        policy: fsi_resil::ResiliencePolicy,
    ) -> Result<QueryService, FsiError> {
        let reconnects = policy.max_attempts.max(1);
        let connector =
            crate::http::ResilientConnector::new(policy).with_reconnect_attempts(reconnects);
        let index = self.handle.load().as_ref().clone();
        let topology = Topology::from_spec(spec, index, connector).map_err(FsiError::from)?;
        Ok(self.apply_ingest(
            self.apply_cache(QueryService::new(topology).with_rebuild(self.shared_dataset())),
        ))
    }

    /// The service a **shard server** runs for slot `shard` of the
    /// topology `spec` describes: a single-shard service over the
    /// partial index clipped to that slot's sub-rectangle. A coordinator
    /// built by [`Serving::service_over`] (here or on another machine)
    /// routes this slot's traffic — including two-phase rebuilds — to
    /// it over HTTP.
    pub fn service_shard(
        &self,
        spec: &TopologySpec,
        shard: usize,
    ) -> Result<QueryService, FsiError> {
        spec.validate().map_err(FsiError::from)?;
        let index = self.handle.load();
        let topology = Topology::partial(index.as_ref(), spec.rows, spec.cols, shard)
            .map_err(FsiError::from)?;
        Ok(self.apply_cache(QueryService::new(topology).with_rebuild(self.shared_dataset())))
    }

    /// Attaches the HTTP/1.1 JSON transport to this deployment: binds
    /// `addr` (use port `0` for an ephemeral port) and serves
    /// [`Serving::service`] from a small worker thread pool. This is the
    /// network frontend plug-in point the roadmap designates.
    pub fn listen(&self, addr: impl ToSocketAddrs) -> Result<crate::http::HttpServer, FsiError> {
        crate::http::HttpServer::bind(self.service(), addr).map_err(FsiError::from)
    }

    /// [`Serving::listen`] with an explicit worker-thread count (= the
    /// maximum number of concurrently served keep-alive connections).
    pub fn listen_with(
        &self,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> Result<crate::http::HttpServer, FsiError> {
        crate::http::HttpServer::bind_with(self.service(), addr, workers).map_err(FsiError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};
    use fsi_geo::Point;

    fn dataset() -> SpatialDataset {
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

    #[test]
    fn builder_chain_runs_and_derefs() {
        let d = dataset();
        let run = Pipeline::on(&d)
            .task(TaskSpec::act())
            .method(Method::MedianKd)
            .height(3)
            .model(ModelKind::Logistic)
            .seed(7)
            .run()
            .unwrap();
        // Facade accessors and Deref both reach the run.
        assert_eq!(run.eval().full.n, d.len());
        assert_eq!(run.scores.len(), d.len());
        assert_eq!(run.partition().num_regions(), run.eval.num_regions);
        assert_eq!(run.spec().method, Method::MedianKd);
    }

    #[test]
    fn invalid_chains_fail_on_run_without_work() {
        let d = dataset();
        assert!(Pipeline::on(&d).height(0).run().is_err());
        assert!(Pipeline::on(&d).test_fraction(1.0).validate().is_err());
        assert!(Pipeline::on(&d)
            .method(Method::FairKd)
            .reweight_blocks(4, 4)
            .run()
            .is_err());
    }

    #[test]
    fn freeze_serves_the_run_partition_for_every_method() {
        let d = dataset();
        for method in [Method::FairKd, Method::GridReweight, Method::ZipCode] {
            let run = Pipeline::on(&d).method(method).height(3).run().unwrap();
            let index = run.freeze().unwrap();
            assert_eq!(index.num_leaves(), run.partition().num_regions());
            for (i, p) in d.locations().iter().enumerate().take(40) {
                let expected = run.partition().region_of(d.cells()[i]);
                assert_eq!(index.lookup(p).unwrap().leaf_id, expected, "{method:?}");
            }
        }
    }

    #[test]
    fn non_tree_deployments_can_rebuild_with_their_own_spec() {
        let d = dataset();
        let serving = Pipeline::on(&d)
            .method(Method::GridReweight)
            .height(4)
            .run()
            .unwrap()
            .serve()
            .unwrap();
        assert_eq!(serving.handle().load().backend_name(), "cells");
        let report = serving.rebuild().unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, 16);
        assert!(serving
            .reader()
            .snapshot()
            .lookup(&Point::new(0.5, 0.5))
            .is_some());
    }

    #[test]
    fn serve_wires_a_rebuilder_over_the_same_spec() {
        let d = dataset();
        let run = Pipeline::on(&d).height(3).run().unwrap();
        let serving = run.serve().unwrap();
        assert_eq!(serving.handle().generation(), 1);
        let before = serving.handle().load().num_leaves();
        let report = serving.rebuild().unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, before);
        assert_eq!(&report.spec, serving.spec());
        // A different spec hot-swaps a different shape in.
        let taller = PipelineSpec {
            height: 4,
            ..serving.spec().clone()
        };
        let report = serving.rebuild_with(&taller).unwrap();
        assert_eq!(report.generation, 3);
        assert!(report.num_leaves > before);
        assert!(serving
            .reader()
            .snapshot()
            .lookup(&Point::new(0.5, 0.5))
            .is_some());
    }

    #[test]
    fn ingested_fresh_data_changes_the_served_scores() {
        use fsi_proto::{IngestBody, Request, Response};
        let d = dataset();
        let serving = Pipeline::on(&d)
            .height(3)
            .run()
            .unwrap()
            .serve_with_ingest(MaintenanceSpec::default())
            .unwrap();
        let p = Point::new(0.5, 0.5);
        let before = serving.handle().load().lookup(&p).unwrap();
        // Fresh data over the same grid shape: a different city draw,
        // streamed in and folded by a rebuild on the ingesting service.
        let drifted = CityGenerator::new(CityConfig {
            n_individuals: 250,
            grid_side: 16,
            seed: 12,
            ..CityConfig::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let task = TaskSpec::act();
        let labels = drifted
            .threshold_labels(&task.outcome, task.threshold)
            .unwrap();
        let points = drifted
            .locations()
            .iter()
            .zip(&labels)
            .enumerate()
            .map(|(i, (q, &label))| IngestBody::new(q.x, q.y, (i % 2) as u32, label))
            .collect();
        let mut service = serving.service();
        assert!(matches!(
            service.dispatch(&Request::IngestBatch { points }),
            Response::Ingested { accepted: 250, .. }
        ));
        let Response::Rebuilt { report } = service.dispatch(&Request::Rebuild {
            spec: serving.spec().clone(),
        }) else {
            panic!("expected a rebuild report");
        };
        assert_eq!(report.generation, 2);
        let after = serving.handle().load().lookup(&p).unwrap();
        assert_ne!(before.raw_score, after.raw_score);
    }

    /// On an ingesting deployment the seed-only rebuild would publish
    /// over the points maintenance folded in; it must refuse instead.
    #[test]
    fn ingesting_deployments_refuse_seed_only_rebuilds() {
        use fsi_proto::{IngestBody, Request};
        let d = dataset();
        let serving = Pipeline::on(&d)
            .height(3)
            .run()
            .unwrap()
            .serve_with_ingest(MaintenanceSpec::default())
            .unwrap();
        let probes: Vec<Point> = d.locations().iter().take(64).copied().collect();
        let decide = || -> Vec<_> {
            let index = serving.handle().load();
            probes.iter().map(|p| index.lookup(p).unwrap()).collect()
        };
        let seed_only = decide();
        let mut service = serving.service();
        let points = (0..64u32)
            .map(|i| {
                let t = f64::from(i) / 64.0;
                IngestBody::new(0.1 + 0.3 * t, 0.6 + 0.3 * t, i % 2, i % 3 != 0)
            })
            .collect();
        service.dispatch(&Request::IngestBatch { points });
        let policy = MaintenanceSpec {
            max_buffered: 1,
            ..MaintenanceSpec::default()
        };
        assert_eq!(service.maintain(&policy, serving.spec()).unwrap(), Some(2));
        let folded = decide();
        assert_ne!(folded, seed_only, "maintenance must fold the points in");
        let err = serving.rebuild().unwrap_err();
        assert!(err.to_string().contains("Request::Rebuild"), "{err}");
        assert!(serving.rebuild_with(serving.spec()).is_err());
        assert_eq!(serving.handle().generation(), 2);
        assert_eq!(decide(), folded);
    }

    #[test]
    fn serve_with_cache_caches_every_service_and_answers_identically() {
        use fsi_proto::{Request, Response};
        let d = dataset();
        let run = Pipeline::on(&d).height(3).run().unwrap();
        let cached_serving = run.serve_with_cache(CacheSpec::per_worker(256)).unwrap();
        assert_eq!(cached_serving.cache_spec().unwrap().capacity, 256);
        let mut cached = cached_serving.service();
        let mut uncached = run.serve().unwrap().service();
        assert!(cached.cache_spec().is_some());
        assert!(uncached.cache_spec().is_none());
        // Two passes over the same points: identical answers, and the
        // second pass is served from the cache.
        for _pass in 0..2 {
            for p in d.locations().iter().take(32) {
                let req = Request::Lookup { x: p.x, y: p.y };
                assert_eq!(cached.dispatch(&req), uncached.dispatch(&req));
            }
        }
        let Response::Stats { stats } = cached.dispatch(&Request::Stats) else {
            panic!("stats must answer");
        };
        let cache = stats.cache.expect("cached service must report cache stats");
        assert!(cache.hits >= 32, "{cache:?}");
        assert_eq!(cache.hits + cache.misses, 64, "{cache:?}");
        let Response::Stats { stats } = uncached.dispatch(&Request::Stats) else {
            panic!("stats must answer");
        };
        assert!(stats.cache.is_none());
        // The sharded service plane inherits the same cache spec.
        let mut sharded = cached_serving
            .service_over(&TopologySpec::local(2, 2))
            .unwrap();
        assert_eq!(sharded.cache_spec().unwrap().capacity, 256);
        for p in d.locations().iter().take(8) {
            let req = Request::Lookup { x: p.x, y: p.y };
            assert_eq!(sharded.dispatch(&req), uncached.dispatch(&req));
        }
    }

    /// A shard server over `Topology::partial` answers its own slot's
    /// points exactly like the coordinator's local shards would.
    #[test]
    fn shard_service_serves_its_slot_of_the_topology() {
        use fsi_proto::{Request, Response};
        let d = dataset();
        let serving = Pipeline::on(&d).height(3).run().unwrap().serve().unwrap();
        let spec = TopologySpec::local(2, 2);
        let mut whole = serving.service();
        let mut shard = serving.service_shard(&spec, 0).unwrap();
        // Shard 0 owns the south-west quadrant.
        match (
            shard.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }),
            whole.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }),
        ) {
            (Response::Decision { decision: got }, Response::Decision { decision: want }) => {
                assert_eq!(got, want)
            }
            other => panic!("expected decisions, got {other:?}"),
        }
        // The opposite corner is outside its clip.
        match shard.dispatch(&Request::Lookup { x: 0.95, y: 0.95 }) {
            Response::Error { error } => {
                assert_eq!(error.code, fsi_proto::ErrorCode::OutOfBounds)
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(serving.service_shard(&spec, 4).is_err());
    }

    #[test]
    fn invalid_cache_specs_fail_at_serve_time() {
        let d = dataset();
        let run = Pipeline::on(&d).height(3).run().unwrap();
        let err = run
            .serve_with_cache(CacheSpec::per_worker(0))
            .err()
            .expect("zero capacity must be rejected");
        assert!(err.to_string().contains("cache"), "{err}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let d = dataset();
        let run = Pipeline::on(&d).height(3).run().unwrap();
        let json = serde_json::to_string(&run.report()).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spec, *run.spec());
        assert_eq!(back.partition, *run.partition());
        assert_eq!(back.eval.full.n, run.eval().full.n);
    }
}
