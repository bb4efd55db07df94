//! The transport-agnostic query service: every serving surface — text
//! REPL, HTTP, future RPC — decodes to an [`fsi_proto::Request`], calls
//! [`QueryService::dispatch`], and encodes the returned
//! [`fsi_proto::Response`]. Nothing else in the system answers queries.
//!
//! A service coordinates a [`Topology`] of
//! [`ShardBackend`](crate::topology::ShardBackend)s: point
//! lookups route to exactly one shard (answered in-process for local
//! shards, forwarded for remote ones), range queries scatter-gather
//! across the intersected shards and merge, stats report a per-shard
//! breakdown, and (when constructed with a dataset via
//! [`QueryService::with_rebuild`]) rebuilds run a **two-phase
//! generation barrier**: every shard stages the retrained index before
//! any shard publishes, so no client ever observes a mixed-generation
//! fleet mid-rebuild.
//!
//! The service is **cheap to clone and single-threaded by design**:
//! each clone owns its per-shard [`IndexReader`]s and its reusable batch
//! buffers, while the topology (and thus the live indexes and remote
//! connections) stays shared. A transport spawns one clone per worker
//! thread and dispatches without any locking on the local hot path.

use crate::frozen::{Decision, FrozenIndex};
use crate::obs::{
    code_index, kind_index, saturating_nanos, MetricsFold, ServiceMetrics, SlowQueryLog,
    SlowQuerySink, KINDS, K_LOOKUP,
};
use crate::rebuild::build_index;
use crate::topology::Topology;
use crate::{IndexReader, RebuildReport, ServeError};
use fsi_cache::{CacheKey, CacheSpec, FrontedLru};
use fsi_core::CellStats;
use fsi_data::SpatialDataset;
use fsi_geo::{Point, Rect};
use fsi_ingest::{
    baseline_stats, merge_dataset, DeltaBuffer, DriftDetector, IngestError, IngestRecord,
    MaintenanceSpec,
};
use fsi_obs::{Recorder, Registry};
use fsi_pipeline::{MethodRun, PipelineSpec, TaskSpec};
use fsi_proto::{
    CacheStatsBody, DecisionBody, ErrorBody, ErrorCode, ErrorCountBody, HealthBody, IngestBody,
    MetricsBody, PreparedBody, RebuildObsBody, Request, RequestKindMetrics, Response,
    ShardHealthBody, ShardObsBody, ShardStatsBody, StatsBody, WirePoint,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default lookup latency sampling: one in 256 point lookups is timed
/// (counts stay exact — see [`QueryService::with_lookup_sampling`]).
/// 256 keeps the amortized clock reads under the obs bench suite's
/// ≤ 1.10x instrumented-dispatch budget.
const DEFAULT_SAMPLE_MASK: u64 = 255;

impl From<Decision> for DecisionBody {
    fn from(d: Decision) -> Self {
        DecisionBody {
            leaf_id: d.leaf_id,
            group: d.group,
            raw_score: d.raw_score,
            calibrated_score: d.calibrated_score,
        }
    }
}

impl From<DecisionBody> for Decision {
    fn from(d: DecisionBody) -> Self {
        Decision {
            leaf_id: d.leaf_id,
            group: d.group,
            raw_score: d.raw_score,
            calibrated_score: d.calibrated_score,
        }
    }
}

/// The optional decision cache of one service clone: the validated spec
/// (clones build their own empty cache from it) plus this clone's
/// cache, with a direct-mapped front over the exact LRU (see
/// [`FrontedLru`]).
///
/// Decisions are deterministic per (shard, cell, generation), and a
/// shard's generation uniquely identifies its published index, so a
/// cached decision can never go stale: a hot-swap bumps the generation,
/// which changes every key, and the orphaned entries age out of the LRU.
struct CacheLayer {
    spec: CacheSpec,
    store: FrontedLru<Decision>,
}

impl CacheLayer {
    fn new(spec: CacheSpec) -> Result<Self, ServeError> {
        Ok(Self {
            spec,
            store: FrontedLru::new(spec.capacity)?,
        })
    }

    /// The cache counters `Stats` and `Metrics` both report. `folded`
    /// carries the hit/miss totals summed over every worker clone's
    /// telemetry — each clone's cache sees only its own traffic — and is
    /// `None` only with telemetry off, when this clone's own counters
    /// are all there is. Evictions, occupancy and capacity are this
    /// clone's.
    fn body(&self, folded: Option<(u64, u64)>) -> CacheStatsBody {
        let s = self.store.stats();
        let (hits, misses) = folded.unwrap_or((s.hits, s.misses));
        CacheStatsBody {
            hits,
            misses,
            evictions: s.evictions,
            entries: s.len,
            capacity: s.capacity,
        }
    }
}

/// The streaming-ingestion state of a service, shared by every clone
/// (transport workers ingest concurrently; the buffer is internally
/// sharded, everything else sits behind its own lock or atomic).
///
/// The **cumulative log** is the heart of the distributed story: remote
/// shards retrain from their own seed copy during a two-phase rebuild
/// and tree splits are global, so every maintenance pass merges the
/// seed with the *full* accept-ordered log and ships that same log to
/// every shard in [`Request::RebuildPrepare`]'s `delta` — each shard
/// merges it deterministically and the fleet stays bit-identical. The
/// log is never truncated on the coordinator; the buffer holds only the
/// records accepted since the last drain.
struct IngestState {
    /// The task ingested labels are interpreted under.
    task: TaskSpec,
    /// Concurrent cell-sharded buffer of records accepted since the
    /// last maintenance drain.
    buffer: DeltaBuffer,
    /// Every record ever accepted, in global accept order — the delta
    /// every maintenance rebuild merges and ships.
    log: Mutex<Vec<IngestRecord>>,
    /// Per-cell statistics of the currently *published* dataset (seed
    /// plus every folded-in record) — what drift is measured against.
    baseline: Mutex<CellStats>,
    /// Baseline awaiting the commit of an in-flight delta prepare (the
    /// shard-role half of the two-phase barrier); an abort drops it.
    pending: Mutex<Option<CellStats>>,
    /// Bit pattern of the last measured drift score, refreshed by
    /// maintenance polls and metrics scrapes.
    drift_bits: AtomicU64,
    /// Serializes maintenance/rebuild passes across service clones.
    maintenance: Mutex<()>,
}

impl IngestState {
    fn drift_score(&self) -> f64 {
        f64::from_bits(self.drift_bits.load(Ordering::Relaxed))
    }

    fn store_drift(&self, score: f64) {
        self.drift_bits.store(score.to_bits(), Ordering::Relaxed);
    }

    /// Undoes a failed maintenance pass: the `drained_len` records most
    /// recently appended to the log go back into the buffer (they are
    /// re-accepted, so they get fresh sequence numbers — the canonical
    /// global order is simply re-decided, identically for every shard,
    /// by whichever pass eventually publishes).
    fn restore_unmerged(&self, drained_len: usize) {
        let tail: Vec<IngestRecord> = {
            let mut log = self.log.lock().expect("ingest log lock poisoned");
            let keep = log.len().saturating_sub(drained_len);
            log.split_off(keep)
        };
        for r in tail {
            let _ = self.buffer.accept(r.x, r.y, r.group, r.label);
        }
    }
}

/// What one shard slot looks like from this service clone: a private
/// [`IndexReader`] over the local shard's handle (the lock-free hot
/// path), or a marker that queries must be forwarded through the
/// topology's boxed backend.
enum ShardSlot {
    Local(IndexReader),
    Remote,
}

/// Which rebuild histogram a shard-phase duration lands in.
#[derive(Clone, Copy)]
enum RebuildPhase {
    Prepare,
    Commit,
    Abort,
}

/// The out-of-bounds error a batch lookup answers, naming the offending
/// point by its index *within the batch* regardless of which shard
/// (local or remote) rejected it.
fn batch_oob(index: usize, wp: &WirePoint) -> Response {
    Response::error(
        ErrorCode::OutOfBounds,
        format!(
            "point #{index} at ({}, {}) is outside the index bounds",
            wp.x, wp.y
        ),
    )
}

/// Dispatches typed protocol requests against a topology of shard
/// backends. See the module docs for the design.
pub struct QueryService {
    topology: Arc<Topology>,
    slots: Vec<ShardSlot>,
    rebuild_dataset: Option<Arc<SpatialDataset>>,
    /// Reusable scratch for batch lookups (converted query points).
    points: Vec<Point>,
    /// Reusable scratch for batch lookups (decisions out).
    decisions: Vec<Decision>,
    /// Optional generation-keyed decision cache over point lookups.
    cache: Option<CacheLayer>,
    /// Optional streaming-ingestion state, shared across clones.
    ingest: Option<Arc<IngestState>>,
    /// This clone's telemetry shard in the registry every clone shares;
    /// `None` only when metrics were explicitly disabled
    /// ([`QueryService::with_metrics`]).
    obs: Option<Recorder<ServiceMetrics>>,
    /// Dispatch counter driving lookup latency sampling; also the
    /// high-water mark the batched lookup count is derived from
    /// (`tick - flushed_tick`), so the fast path pays exactly one
    /// counter bump per lookup.
    tick: u64,
    /// `tick` as of the last counter flush.
    flushed_tick: u64,
    /// `tick & sample_mask == 0` selects the lookups that are timed
    /// (and flush the pending count); always a power of two minus one.
    sample_mask: u64,
    /// Threshold-gated slow-query log; off by default.
    slow: Option<SlowQueryLog>,
}

impl QueryService {
    /// Creates a service over a [`Topology`], without rebuild support:
    /// `Rebuild` requests answer a structured
    /// [`ErrorCode::RebuildUnavailable`] error.
    pub fn new(topology: Topology) -> Self {
        Self::over(Arc::new(topology), None)
    }

    /// Enables spec-driven rebuilds: a `Rebuild{spec}` request retrains
    /// the pipeline on `dataset` and publishes the compiled index to
    /// every shard through the two-phase barrier, and the
    /// `RebuildPrepare` / `RebuildCommit` pair lets an upstream
    /// coordinator drive this service as one shard of *its* fleet.
    #[must_use]
    pub fn with_rebuild(mut self, dataset: Arc<SpatialDataset>) -> Self {
        self.rebuild_dataset = Some(dataset);
        self
    }

    /// Puts a decision cache in front of point lookups, validating the
    /// spec first. Every clone (one per transport worker) owns its own
    /// cache of `spec.capacity` entries. Decisions are keyed by (shard,
    /// cell, generation), so hot-swap rebuilds invalidate implicitly.
    /// Only local shards are cached; remote shards answer behind their
    /// own caches.
    pub fn with_cache(mut self, spec: CacheSpec) -> Result<Self, ServeError> {
        self.cache = Some(CacheLayer::new(spec)?);
        Ok(self)
    }

    /// The cache configuration, when one is attached.
    pub fn cache_spec(&self) -> Option<&CacheSpec> {
        self.cache.as_ref().map(|layer| &layer.spec)
    }

    /// Enables streaming ingestion: `Ingest` / `IngestBatch` requests
    /// append to a concurrent delta buffer (with live per-cell drift
    /// statistics against the `task` baseline), and
    /// [`QueryService::maintain`] folds the buffer into a full
    /// two-phase rebuild when the policy triggers. Requires a training
    /// dataset ([`QueryService::with_rebuild`] first) — the buffer
    /// validates points against its grid, and maintenance merges into
    /// it.
    pub fn with_ingest(mut self, task: TaskSpec) -> Result<Self, ServeError> {
        let dataset = self
            .rebuild_dataset
            .as_ref()
            .ok_or(ServeError::Ingest(IngestError::MissingDataset))?;
        let baseline = baseline_stats(dataset, &task)?;
        let buffer = DeltaBuffer::new(dataset.grid().clone());
        self.ingest = Some(Arc::new(IngestState {
            task,
            buffer,
            log: Mutex::new(Vec::new()),
            baseline: Mutex::new(baseline),
            pending: Mutex::new(None),
            drift_bits: AtomicU64::new(0),
            maintenance: Mutex::new(()),
        }));
        Ok(self)
    }

    /// Whether streaming ingestion is configured
    /// ([`QueryService::with_ingest`]).
    pub fn ingest_enabled(&self) -> bool {
        self.ingest.is_some()
    }

    /// Telemetry is **on by default** — it is cheap enough to leave on
    /// (the `serving/obs_*` bench suite pins instrumented dispatch at
    /// ≤ 1.10× the uninstrumented path). `false` strips the recorder
    /// entirely: the service dispatches exactly as it did before the
    /// observability layer existed and `Metrics` requests answer the
    /// all-zero snapshot.
    #[must_use]
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        if !enabled {
            self.obs = None;
        } else if self.obs.is_none() {
            let n_shards = self.slots.len();
            self.obs = Some(Registry::new(move || ServiceMetrics::new(n_shards)).recorder());
        }
        self
    }

    /// Times one in `every` point lookups (rounded up to a power of
    /// two; the default is 256). A lookup costs tens of nanoseconds and
    /// two clock reads would dwarf it, so lookup *latency* is sampled
    /// while lookup *counts* stay exact — they are batched locally and
    /// flushed on every sampled lookup, on every non-lookup request,
    /// and on every scrape. `1` times every lookup (the concurrency
    /// tests use this so histogram totals equal request counts).
    #[must_use]
    pub fn with_lookup_sampling(mut self, every: u64) -> Self {
        self.sample_mask = every.max(1).next_power_of_two() - 1;
        self
    }

    /// Installs a slow-query log: any request whose dispatch takes at
    /// least `threshold` is counted (`fsi_slow_queries_total`) and
    /// handed to `sink` as a structured
    /// [`SlowQueryRecord`](crate::SlowQueryRecord). Off by default.
    /// Enabling it forces every lookup to be timed — sampling would
    /// miss slow outliers, which are the whole point of the log.
    #[must_use]
    pub fn with_slow_query_log(mut self, threshold: Duration, sink: SlowQuerySink) -> Self {
        self.slow = Some(SlowQueryLog::new(threshold, sink));
        self.sample_mask = 0;
        self
    }

    fn over(topology: Arc<Topology>, rebuild_dataset: Option<Arc<SpatialDataset>>) -> Self {
        let slots: Vec<ShardSlot> = topology
            .backends()
            .iter()
            .map(|b| match b.as_local() {
                Some(local) => ShardSlot::Local(local.reader()),
                None => ShardSlot::Remote,
            })
            .collect();
        let n_shards = slots.len();
        Self {
            topology,
            slots,
            rebuild_dataset,
            points: Vec::new(),
            decisions: Vec::new(),
            cache: None,
            ingest: None,
            obs: Some(Registry::new(move || ServiceMetrics::new(n_shards)).recorder()),
            tick: 0,
            flushed_tick: 0,
            sample_mask: DEFAULT_SAMPLE_MASK,
            slow: None,
        }
    }

    /// The topology behind this service.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Answers one request. Never panics and never fails at the Rust
    /// level: every failure becomes a [`Response::Error`] with a
    /// machine-readable [`ErrorCode`], so transports can stay thin.
    ///
    /// `#[inline]` so a caller with a statically known request shape
    /// (the benches, the batch loops) folds the variant match away and
    /// builds the `Response` in place instead of memcpying it twice —
    /// without LTO this call is otherwise an opaque cross-crate boundary
    /// on the lookup hot path.
    #[inline]
    pub fn dispatch(&mut self, request: &Request) -> Response {
        if self.obs.is_none() {
            return self.dispatch_inner(request);
        }
        self.dispatch_observed(request)
    }

    /// The raw dispatch match — what [`QueryService::with_metrics`]
    /// `(false)` services run directly.
    #[inline]
    fn dispatch_inner(&mut self, request: &Request) -> Response {
        match request {
            Request::Lookup { x, y } => self.lookup(*x, *y),
            Request::LookupBatch { points } => self.lookup_batch(points),
            Request::RangeQuery { rect } => self.range_query(rect),
            Request::Ingest { x, y, group, label } => self.ingest(*x, *y, *group, *label),
            Request::IngestBatch { points } => self.ingest_batch(points),
            Request::Stats => self.stats(),
            Request::Rebuild { spec } => match self.rebuild(spec) {
                Ok(report) => Response::Rebuilt {
                    report: Box::new(report),
                },
                Err(error) => Response::Error { error },
            },
            Request::RebuildPrepare { spec, delta } => self.rebuild_prepare(spec, delta.as_deref()),
            Request::RebuildCommit => self.rebuild_commit(),
            Request::RebuildAbort => self.rebuild_abort(),
            Request::Metrics => self.metrics(),
            Request::Health => self.health(),
        }
    }

    /// Instrumented dispatch. Point lookups keep the hot path cheap by
    /// batching their count and sampling their latency; every other
    /// kind is counted and timed per request. The writer order — count
    /// added **before** the histogram records — pairs with the scrape's
    /// histogram-before-counter read, so a torn concurrent scrape can
    /// only under-report latencies relative to counts, never the
    /// reverse.
    #[inline]
    fn dispatch_observed(&mut self, request: &Request) -> Response {
        if let Request::Lookup { x, y } = request {
            if self.slow.is_none() {
                self.tick = self.tick.wrapping_add(1);
                if self.tick & self.sample_mask != 0 {
                    // Tail call: inspecting the returned `Response` here
                    // would force it through a local (one large-enum
                    // memcpy per lookup, ~25% of the whole dispatch), so
                    // the error counting rides inside `lookup_with`'s
                    // cold arms instead.
                    return self.lookup_with(*x, *y, true);
                }
                return self.sampled_lookup(*x, *y);
            }
        }
        self.dispatch_timed(request)
    }

    /// The error-count side channel of the unsampled lookup fast path.
    /// `#[cold]` keeps it (and the recorder deref) out of the inlined
    /// hot loop — the bench gate holds instrumented dispatch at ≤ 1.10x
    /// the uninstrumented path, and every instruction on the fast path
    /// counts against that budget.
    #[cold]
    fn count_error(&self, code: ErrorCode) {
        if let Some(obs) = &self.obs {
            obs.errors[code_index(code)].inc();
        }
    }

    /// The 1-in-`sample_mask+1` timed lookup: records the latency sample
    /// and flushes the batched count. Out of line for the same reason as
    /// [`Self::count_error`].
    #[inline(never)]
    fn sampled_lookup(&mut self, x: f64, y: f64) -> Response {
        let started = Instant::now();
        let response = self.lookup(x, y);
        let nanos = saturating_nanos(started.elapsed());
        let pend = self.take_pending();
        let obs = self.obs.as_ref().expect("dispatch checked obs");
        obs.requests[K_LOOKUP].add(pend);
        obs.latency[K_LOOKUP].record(nanos);
        if let Response::Error { error } = &response {
            obs.errors[code_index(error.code)].inc();
        }
        response
    }

    /// Per-request counting and timing for every non-fast-path request
    /// (all non-lookup kinds, and every request once a slow-query log
    /// forces full timing).
    #[inline(never)]
    fn dispatch_timed(&mut self, request: &Request) -> Response {
        let kind = kind_index(request);
        let started = Instant::now();
        let response = self.dispatch_inner(request);
        let nanos = saturating_nanos(started.elapsed());
        let pend = self.take_pending();
        let obs = self.obs.as_ref().expect("dispatch checked obs");
        if pend > 0 {
            obs.requests[K_LOOKUP].add(pend);
        }
        obs.requests[kind].inc();
        obs.latency[kind].record(nanos);
        if let Response::Error { error } = &response {
            obs.errors[code_index(error.code)].inc();
        }
        if let Some(slow) = &self.slow {
            if nanos >= slow.threshold_nanos {
                obs.slow_queries.inc();
                slow.emit(KINDS[kind], nanos);
            }
        }
        response
    }

    /// Flushes the batched lookup count into the recorder, so a scrape
    /// reads exact totals.
    fn flush_pending(&mut self) {
        let pend = self.take_pending();
        if pend > 0 {
            if let Some(obs) = &self.obs {
                obs.requests[K_LOOKUP].add(pend);
            }
        }
    }

    /// Lookups dispatched since the last flush (the `tick` delta),
    /// resetting the window.
    #[inline]
    fn take_pending(&mut self) -> u64 {
        let pend = self.tick.wrapping_sub(self.flushed_tick);
        self.flushed_tick = self.tick;
        pend
    }

    /// Forwards one request to the backend of a remote shard slot: a
    /// one-job [`Self::remote_fanout`].
    fn remote_dispatch(&self, shard: usize, request: &Request) -> Response {
        let (_, response) = self
            .remote_fanout(&[(shard, request)])
            .pop()
            .expect("one job, one answer");
        response
    }

    /// The scatter every fan-out to remote shards goes through: sends
    /// each `(shard, request)` job to its shard's backend and returns
    /// `(shard, response, elapsed)` in job order. Two or more jobs run
    /// concurrently on scoped threads, one per job, so the shards'
    /// round trips overlap; zero or one job runs inline, so a
    /// single-remote fan-out pays no thread-spawn cost. Telemetry is
    /// left to the caller (see [`Self::remote_fanout`]).
    fn scatter(&self, jobs: &[(usize, &Request)]) -> Vec<(usize, Response, Duration)> {
        let backends = self.topology.backends();
        let call = |&(shard, request): &(usize, &Request)| {
            let started = Instant::now();
            let response = backends[shard].dispatch(request);
            (shard, response, started.elapsed())
        };
        if jobs.len() <= 1 {
            return jobs.iter().map(call).collect();
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = jobs
                .iter()
                .map(|job| scope.spawn(move || call(job)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("scatter worker panicked"))
                .collect()
        })
    }

    /// [`Self::scatter`] with [`Self::remote_answer`] applied to every
    /// answer: returns each shard's response paired with its slot index,
    /// in job order.
    fn remote_fanout(&self, jobs: &[(usize, &Request)]) -> Vec<(usize, Response)> {
        self.scatter(jobs)
            .into_iter()
            .map(|(shard, response, elapsed)| (shard, self.remote_answer(shard, response, elapsed)))
            .collect()
    }

    /// The per-shard telemetry of one remote round trip: counts the
    /// request, records its round-trip time, and counts a transport
    /// failure. An `internal`-code failure additionally gains the shard
    /// index and address in its message, so a multi-shard fleet's
    /// transport errors are attributable from the error body alone;
    /// every other code (out-of-bounds, not-prepared, …) passes through
    /// untouched — those are the shard's own answers, not transport
    /// context. With telemetry off the response passes through as-is.
    fn remote_answer(&self, shard: usize, response: Response, elapsed: Duration) -> Response {
        let Some(obs) = &self.obs else {
            return response;
        };
        let sm = &obs.shards[shard];
        sm.requests.inc();
        sm.round_trip.record(saturating_nanos(elapsed));
        match response {
            Response::Error { error } if error.code == ErrorCode::Internal => {
                sm.failures.inc();
                let addr = self.topology.backends()[shard]
                    .descriptor()
                    .addr
                    .unwrap_or_else(|| "<no addr>".into());
                Response::error(
                    ErrorCode::Internal,
                    format!("shard {shard} at {addr}: {}", error.message),
                )
            }
            other => other,
        }
    }

    #[inline]
    fn lookup(&mut self, x: f64, y: f64) -> Response {
        self.lookup_with(x, y, false)
    }

    /// Point lookup. `count_errors` additionally bumps the per-code
    /// error counter in the (cold) error arms — the instrumented fast
    /// path passes `true` so its caller can return this tail call
    /// as-is instead of inspecting (and memcpying) the response; every
    /// other caller passes `false` and counts at its own layer. The
    /// flag is a compile-time constant at each inlined call site.
    #[inline]
    fn lookup_with(&mut self, x: f64, y: f64, count_errors: bool) -> Response {
        let p = Point::new(x, y);
        // Single-shard fast path: the index's (or the remote's) own
        // bounds check makes the routing step redundant.
        let shard = if self.slots.len() == 1 {
            Some(0)
        } else {
            self.topology.shard_of(&p)
        };
        let decision = match shard {
            Some(shard) => {
                if matches!(self.slots[shard], ShardSlot::Remote) {
                    let response = self.remote_dispatch(shard, &Request::Lookup { x, y });
                    if count_errors {
                        if let Response::Error { error } = &response {
                            self.count_error(error.code);
                        }
                    }
                    return response;
                }
                self.local_decision(shard, &p)
            }
            None => None,
        };
        match decision {
            Some(decision) => Response::Decision {
                decision: decision.into(),
            },
            None => {
                if count_errors {
                    self.count_error(ErrorCode::OutOfBounds);
                }
                Response::error(
                    ErrorCode::OutOfBounds,
                    format!("point ({x}, {y}) is outside the served map bounds"),
                )
            }
        }
    }

    /// The decision for `p` from the local `shard`, through the cache
    /// when one is attached; `None` means out of bounds.
    #[inline]
    fn local_decision(&mut self, shard: usize, p: &Point) -> Option<Decision> {
        if self.cache.is_some() {
            return self.cached_decision(shard, p);
        }
        match &mut self.slots[shard] {
            ShardSlot::Local(reader) => reader.snapshot().lookup(p),
            ShardSlot::Remote => None,
        }
    }

    /// The decision for `p` through the cache; `None` means out of
    /// bounds. Only called with a cache configured and a local `shard`.
    ///
    /// A hit costs the cell computation (the same two divisions the
    /// uncached path pays) plus one hash probe — the tree traversal and
    /// decision assembly are skipped. A miss additionally resolves the
    /// cell through the index and fills the entry, so cold traffic pays
    /// one probe over the uncached path.
    #[inline]
    fn cached_decision(&mut self, shard: usize, p: &Point) -> Option<Decision> {
        let ShardSlot::Local(reader) = &mut self.slots[shard] else {
            // Callers forward remote shards before the cache layer.
            return None;
        };
        let (index, generation) = reader.snapshot_with_generation();
        let cell = index.cell_index(p)?;
        // The shard id rides in the key's high bits: each shard's handle
        // numbers its own generations, so (cell, generation) alone could
        // collide across shards that published different indexes.
        debug_assert!(cell < 1 << 48, "cell id exceeds the shard-packing range");
        let key = CacheKey::new((shard as u64) << 48 | cell, generation);
        let cache = self.cache.as_mut().expect("caller checked cache.is_some()");
        if let Some(decision) = cache.store.get(key) {
            if let Some(obs) = &self.obs {
                obs.cache_hits.inc();
            }
            return Some(decision);
        }
        let decision = index.lookup_cell(cell)?;
        cache.store.insert(key, decision);
        if let Some(obs) = &self.obs {
            obs.cache_misses.inc();
        }
        Some(decision)
    }

    fn lookup_batch(&mut self, points: &[WirePoint]) -> Response {
        // Single local shard, no cache: feed the whole batch through the
        // frozen index's buffer-reusing batch path.
        if self.slots.len() == 1 && self.cache.is_none() {
            if let ShardSlot::Local(reader) = &mut self.slots[0] {
                self.points.clear();
                self.points
                    .extend(points.iter().map(|p| Point::new(p.x, p.y)));
                let index = reader.snapshot();
                return match index.lookup_batch(&self.points, &mut self.decisions) {
                    Ok(()) => Response::Decisions {
                        decisions: self.decisions.iter().map(|&d| d.into()).collect(),
                    },
                    Err(e) => Response::error(ErrorCode::OutOfBounds, e.to_string()),
                };
            }
        }
        // Scatter-gather: local points answer inline — through the same
        // per-point path as single lookups, cache included, so batch and
        // single answers (and counters) cannot diverge — while remote
        // points are bucketed per shard and forwarded as one sub-batch
        // each, and every answer lands back at its original position.
        let mut out: Vec<Option<DecisionBody>> = vec![None; points.len()];
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (i, wp) in points.iter().enumerate() {
            let p = Point::new(wp.x, wp.y);
            let shard = if self.slots.len() == 1 {
                Some(0)
            } else {
                self.topology.shard_of(&p)
            };
            let Some(shard) = shard else {
                return batch_oob(i, wp);
            };
            if matches!(self.slots[shard], ShardSlot::Remote) {
                buckets[shard].push(i);
                continue;
            }
            match self.local_decision(shard, &p) {
                Some(d) => out[i] = Some(d.into()),
                None => return batch_oob(i, wp),
            }
        }
        let requests: Vec<(usize, Request)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(shard, bucket)| {
                let sub: Vec<WirePoint> = bucket.iter().map(|&i| points[i]).collect();
                (shard, Request::LookupBatch { points: sub })
            })
            .collect();
        let jobs: Vec<(usize, &Request)> = requests.iter().map(|(s, r)| (*s, r)).collect();
        for (shard, response) in self.remote_fanout(&jobs) {
            let bucket = &buckets[shard];
            match response {
                Response::Decisions { decisions } if decisions.len() == bucket.len() => {
                    for (&i, d) in bucket.iter().zip(decisions) {
                        out[i] = Some(d);
                    }
                }
                Response::Error { error } if error.code == ErrorCode::OutOfBounds => {
                    // The remote names the offender by its *sub-batch*
                    // index; re-localize to the original batch position
                    // by probing the bucket point-wise.
                    for &i in bucket {
                        let wp = &points[i];
                        if matches!(
                            self.remote_dispatch(shard, &Request::Lookup { x: wp.x, y: wp.y }),
                            Response::Error { .. }
                        ) {
                            return batch_oob(i, wp);
                        }
                    }
                    return Response::Error { error };
                }
                Response::Error { error } => return Response::Error { error },
                _ => {
                    return Response::error(
                        ErrorCode::Internal,
                        format!("shard {shard} answered an unexpected batch response"),
                    )
                }
            }
        }
        Response::Decisions {
            decisions: out
                .into_iter()
                .map(|d| d.expect("every routed point was answered"))
                .collect(),
        }
    }

    /// The error an ingest answers on a service built without
    /// [`QueryService::with_ingest`].
    fn ingest_unavailable() -> Response {
        Response::error(
            ErrorCode::RebuildUnavailable,
            "this service was built without streaming ingestion; \
             construct it with a training dataset and task",
        )
    }

    /// The `Ingested` acknowledgement: this request's accept count, the
    /// coordinator buffer's occupancy, and the newest generation of the
    /// *local* shards (remote generations would cost a round-trip per
    /// write; they move in lockstep under the two-phase barrier anyway).
    fn ingested(&self, state: &IngestState, accepted: u64) -> Response {
        let mut generation = 0;
        for backend in self.topology.backends() {
            if let Some(local) = backend.as_local() {
                generation = generation.max(local.handle().generation());
            }
        }
        Response::Ingested {
            accepted,
            buffered: state.buffer.occupancy(),
            generation,
        }
    }

    /// One streamed observation. Out-of-bounds points are a structured
    /// error (mirroring `Lookup`); accepted points land in the
    /// coordinator's buffer *and* are forwarded to the owning remote
    /// shard so its own occupancy and drift telemetry see the traffic.
    /// The forward is advisory — the coordinator's log is the one
    /// source of truth for maintenance, so a shard without ingestion
    /// configured simply declines without affecting the accept.
    fn ingest(&mut self, x: f64, y: f64, group: u32, label: bool) -> Response {
        let Some(state) = self.ingest.as_ref().map(Arc::clone) else {
            return Self::ingest_unavailable();
        };
        if state.buffer.accept(x, y, group, label).is_none() {
            return Response::error(
                ErrorCode::OutOfBounds,
                format!("point ({x}, {y}) is outside the served map bounds"),
            );
        }
        if self.slots.len() > 1 {
            if let Some(shard) = self.topology.shard_of(&Point::new(x, y)) {
                if matches!(self.slots[shard], ShardSlot::Remote) {
                    let _ = self.remote_dispatch(shard, &Request::Ingest { x, y, group, label });
                }
            }
        }
        self.ingested(&state, 1)
    }

    /// The bulk write path: accepts in request order (so the global
    /// sequence matches the batch), buckets remote-owned points per
    /// shard and scatters the sub-batches — the same shape as
    /// [`Self::lookup_batch`], minus the gather (the coordinator's own
    /// buffer already holds every point). Out-of-bounds points are
    /// skipped, not fatal: `accepted` reports how many landed and the
    /// rejected tally is scraped via the ingest telemetry.
    fn ingest_batch(&mut self, points: &[IngestBody]) -> Response {
        let Some(state) = self.ingest.as_ref().map(Arc::clone) else {
            return Self::ingest_unavailable();
        };
        let mut accepted = 0u64;
        let mut buckets: Vec<Vec<IngestBody>> = vec![Vec::new(); self.slots.len()];
        for b in points {
            if state.buffer.accept(b.x, b.y, b.group, b.label).is_none() {
                continue;
            }
            accepted += 1;
            if self.slots.len() > 1 {
                if let Some(shard) = self.topology.shard_of(&Point::new(b.x, b.y)) {
                    if matches!(self.slots[shard], ShardSlot::Remote) {
                        buckets[shard].push(*b);
                    }
                }
            }
        }
        let requests: Vec<(usize, Request)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(shard, points)| (shard, Request::IngestBatch { points }))
            .collect();
        let jobs: Vec<(usize, &Request)> = requests.iter().map(|(s, r)| (*s, r)).collect();
        self.remote_fanout(&jobs);
        self.ingested(&state, accepted)
    }

    fn range_query(&mut self, rect: &fsi_proto::WireRect) -> Response {
        let query = match Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y) {
            Ok(query) => query,
            Err(e) => return Response::error(ErrorCode::MalformedRequest, e.to_string()),
        };
        let shards = self.topology.covering(&query);
        let mut ids: Vec<usize> = Vec::new();
        let mut remote: Vec<usize> = Vec::new();
        for shard in shards {
            if let ShardSlot::Local(reader) = &mut self.slots[shard] {
                ids.extend(reader.snapshot().range_query(&query));
            } else {
                remote.push(shard);
            }
        }
        let request = Request::RangeQuery { rect: *rect };
        let jobs: Vec<(usize, &Request)> = remote.iter().map(|&s| (s, &request)).collect();
        for (shard, response) in self.remote_fanout(&jobs) {
            match response {
                Response::Regions { ids: shard_ids } => ids.extend(shard_ids),
                Response::Error { error } => return Response::Error { error },
                _ => {
                    return Response::error(
                        ErrorCode::Internal,
                        format!("shard {shard} answered an unexpected range response"),
                    )
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Response::Regions { ids }
    }

    fn stats(&mut self) -> Response {
        self.flush_pending();
        // The answering worker's merged local snapshot (no remote
        // scatter-gather — that is what `Metrics` is for); absent when
        // metrics are disabled, exactly like a pre-observability peer's
        // stats. Its cache block is the one `Stats` reports, so the two
        // can never disagree.
        let metrics = self.obs.is_some().then(|| Box::new(self.snapshot_body()));
        let cache = match &metrics {
            Some(metrics) => metrics.cache,
            None => self.cache.as_ref().map(|layer| layer.body(None)),
        };
        let mut per_shard: Vec<Option<ShardStatsBody>> = Vec::with_capacity(self.slots.len());
        let mut remote: Vec<usize> = Vec::new();
        for shard in 0..self.slots.len() {
            let d = self.topology.backends()[shard].descriptor();
            if let ShardSlot::Local(reader) = &mut self.slots[shard] {
                let (index, generation) = reader.snapshot_with_generation();
                per_shard.push(Some(ShardStatsBody {
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    generation,
                    num_leaves: index.num_leaves(),
                    heap_bytes: index.heap_bytes(),
                    backend: index.backend_name().to_string(),
                    unreachable: None,
                    error: None,
                }));
            } else {
                per_shard.push(None);
                remote.push(shard);
            }
        }
        let jobs: Vec<(usize, &Request)> = remote.iter().map(|&s| (s, &Request::Stats)).collect();
        for (shard, response) in self.remote_fanout(&jobs) {
            let d = self.topology.backends()[shard].descriptor();
            per_shard[shard] = Some(match response {
                Response::Stats { stats } => ShardStatsBody {
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    generation: stats.generations.first().copied().unwrap_or(0),
                    num_leaves: stats.num_leaves,
                    heap_bytes: stats.heap_bytes,
                    backend: stats.backend,
                    unreachable: None,
                    error: None,
                },
                // Graceful degradation: a dead shard marks its own row
                // instead of failing the whole scatter-gather, so the
                // live part of the fleet still reports.
                other => ShardStatsBody {
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    generation: 0,
                    num_leaves: 0,
                    heap_bytes: 0,
                    backend: "unreachable".to_string(),
                    unreachable: Some(true),
                    error: Some(match other {
                        Response::Error { error } => error.message,
                        _ => format!("shard {shard} answered an unexpected stats response"),
                    }),
                },
            });
        }
        let per_shard: Vec<ShardStatsBody> = per_shard
            .into_iter()
            .map(|body| body.expect("every shard slot answered stats"))
            .collect();
        let generations = per_shard.iter().map(|s| s.generation).collect();
        // Shard-0 convention for the flat summary fields, kept from the
        // replica era so v1 clients keep decoding something sensible;
        // topology-aware clients read `per_shard`.
        let first = &per_shard[0];
        Response::Stats {
            stats: Box::new(StatsBody {
                shards: self.slots.len(),
                generations,
                num_leaves: first.num_leaves,
                heap_bytes: first.heap_bytes,
                backend: first.backend.clone(),
                cache,
                per_shard: Some(per_shard),
                metrics,
                health: Some(Box::new(self.health_body())),
            }),
        }
    }

    /// The fleet health picture, answered entirely from
    /// coordinator-local state — replica-set breaker atomics for
    /// resilient slots, a synthesized `"up"` row for plain backends —
    /// with **no** scatter-gather, so it stays cheap enough to poll
    /// aggressively during the very outage it is reporting on.
    fn health_body(&self) -> HealthBody {
        let shards = self
            .topology
            .backends()
            .iter()
            .enumerate()
            .map(|(shard, b)| match b.health() {
                Some(mut h) => {
                    h.shard = shard;
                    h
                }
                None => {
                    let d = b.descriptor();
                    ShardHealthBody {
                        shard,
                        kind: d.kind.to_string(),
                        addr: d.addr,
                        state: "up".to_string(),
                        replicas: Vec::new(),
                    }
                }
            })
            .collect();
        HealthBody { shards }
    }

    /// Answer to [`Request::Health`].
    fn health(&mut self) -> Response {
        Response::Health {
            health: Box::new(self.health_body()),
        }
    }

    /// Answer to [`Request::Metrics`]: the worker-merged snapshot of
    /// this service's registry, with each remote shard's own snapshot
    /// scatter-gathered into
    /// [`ShardObsBody::remote`](fsi_proto::ShardObsBody) so one scrape
    /// of the coordinator sees the whole fleet.
    fn metrics(&mut self) -> Response {
        self.flush_pending();
        let mut body = self.snapshot_body();
        if self.obs.is_some() {
            let jobs: Vec<(usize, &Request)> = (0..self.slots.len())
                .filter(|&shard| matches!(self.slots[shard], ShardSlot::Remote))
                .map(|shard| (shard, &Request::Metrics))
                .collect();
            for (shard, response) in self.remote_fanout(&jobs) {
                if let Response::Metrics { metrics } = response {
                    body.shards[shard].remote = Some(metrics);
                }
            }
        }
        Response::Metrics {
            metrics: Box::new(body),
        }
    }

    /// The merged telemetry snapshot of every worker clone sharing this
    /// service's registry — counts summed, histograms merged, the
    /// generation gauge folded with the live local shard generations.
    /// Purely local: remote shards appear with the coordinator-side
    /// view only (`remote: None`); dispatch a [`Request::Metrics`] for
    /// the scatter-gathered fleet snapshot. Unflushed batched lookup
    /// counts from *other* clones may lag by up to the sampling
    /// interval; this clone's are flushed first.
    pub fn metrics_snapshot(&mut self) -> MetricsBody {
        self.flush_pending();
        self.snapshot_body()
    }

    fn snapshot_body(&self) -> MetricsBody {
        let Some(obs) = &self.obs else {
            return MetricsBody::empty();
        };
        let fold = MetricsFold::collect(obs.registry(), self.slots.len());
        let mut generation = fold.generation;
        for backend in self.topology.backends() {
            if let Some(local) = backend.as_local() {
                generation = generation.max(local.handle().generation());
            }
        }
        let cache = self
            .cache
            .as_ref()
            .map(|layer| layer.body(Some((fold.cache_hits, fold.cache_misses))));
        // A scrape re-measures drift so the gauge is live even when no
        // maintenance thread is polling; the stored bits are the
        // fallback if the baseline shape ever disagrees mid-swap.
        let ingest = self.ingest.as_ref().map(|state| {
            let score = {
                let baseline = state.baseline.lock().expect("baseline lock poisoned");
                DriftDetector::new()
                    .measure(&baseline, &state.buffer)
                    .map(|r| r.score)
                    .unwrap_or_else(|_| state.drift_score())
            };
            state.store_drift(score);
            fsi_proto::IngestObsBody {
                accepted: state.buffer.accepted(),
                rejected: state.buffer.rejected(),
                buffered: state.buffer.occupancy(),
                drift_score: score,
                maintenance: fold.maintenance.clone(),
            }
        });
        let shards = fold
            .shards
            .into_iter()
            .enumerate()
            .map(|(shard, sf)| {
                let backend = &self.topology.backends()[shard];
                let d = backend.descriptor();
                let transport = backend.transport_stats().unwrap_or_default();
                ShardObsBody {
                    shard,
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    requests: sf.requests,
                    failures: sf.failures,
                    reconnects: transport.reconnects,
                    round_trip: sf.round_trip,
                    remote: None,
                    replicas: backend.health().map(|h| h.replicas),
                }
            })
            .collect();
        MetricsBody {
            requests: KINDS
                .iter()
                .zip(fold.requests)
                .zip(fold.latency)
                .map(|((kind, count), latency)| RequestKindMetrics {
                    kind: (*kind).to_string(),
                    count,
                    latency,
                })
                .collect(),
            errors: crate::obs::CODES
                .iter()
                .zip(fold.errors)
                .filter(|(_, count)| *count > 0)
                .map(|(code, count)| ErrorCountBody { code: *code, count })
                .collect(),
            slow_queries: fold.slow_queries,
            generation,
            cache,
            shards,
            rebuild: RebuildObsBody {
                prepare: fold.prepare,
                commit: fold.commit,
                abort: fold.abort,
            },
            http: None,
            ingest,
        }
    }

    /// The one retrain step behind every rebuild: trains `spec` on the
    /// seed dataset — merged with `delta` when one is given — and
    /// returns the compiled global index with its pipeline run. Without
    /// a delta it trains on the seed itself, so a plain rebuild pays no
    /// dataset copy. The merge reads labels under
    /// `spec.task`, as every remote shard merging the same delta does.
    /// An ingesting service given a delta also gets the drift baseline
    /// of the dataset it trained on, which becomes current when the
    /// index commits.
    fn train(
        &self,
        spec: &PipelineSpec,
        delta: Option<&[IngestRecord]>,
    ) -> Result<(FrozenIndex, MethodRun, Option<CellStats>), ErrorBody> {
        let Some(seed) = self.rebuild_dataset.as_deref() else {
            return Err(ErrorBody::new(
                ErrorCode::RebuildUnavailable,
                "this service was built without a training dataset; rebuilds are disabled",
            ));
        };
        let merged = delta
            .map(|records| merge_dataset(seed, &spec.task, records))
            .transpose()
            .map_err(|e| ErrorBody::new(ErrorCode::Internal, format!("delta merge failed: {e}")))?;
        let dataset = merged.as_ref().unwrap_or(seed);
        let (index, run) = build_index(dataset, spec).map_err(|e| match e {
            ServeError::Pipeline(fsi_pipeline::PipelineError::InvalidConfig(msg)) => {
                ErrorBody::new(ErrorCode::InvalidSpec, msg)
            }
            e => ErrorBody::new(ErrorCode::Internal, e.to_string()),
        })?;
        let baseline = match (&self.ingest, delta) {
            (Some(state), Some(_)) => Some(
                baseline_stats(dataset, &state.task)
                    .map_err(|e| ErrorBody::new(ErrorCode::Internal, e.to_string()))?,
            ),
            _ => None,
        };
        Ok((index, run, baseline))
    }

    /// Phase one on every shard: stage `index` on every local shard
    /// (re-clipped for partial shards), then scatter one
    /// `RebuildPrepare` to every remote shard — remote prepares retrain
    /// and pay real wall-clock, so they run concurrently. Each shard's
    /// prepare lands in the rebuild-prepare histogram. Any failure
    /// aborts all staged state and answers the structured error; success
    /// returns the `(num_leaves, heap_bytes)` footprint the last local
    /// shard staged, if any.
    fn prepare_all(
        &self,
        index: &FrozenIndex,
        spec: &PipelineSpec,
        delta: Option<&[IngestBody]>,
    ) -> Result<Option<(usize, usize)>, ErrorBody> {
        let backends = self.topology.backends();
        let mut staged = None;
        let mut remotes = Vec::new();
        for (i, b) in backends.iter().enumerate() {
            let Some(local) = b.as_local() else {
                remotes.push(i);
                continue;
            };
            let started = Instant::now();
            let result = local.stage(index);
            self.record_rebuild_phase(RebuildPhase::Prepare, started);
            match result {
                Ok(report) => staged = Some(report),
                Err(e) => {
                    self.abort_all();
                    return Err(ErrorBody::new(
                        ErrorCode::Internal,
                        format!("shard {i} failed to stage: {e}"),
                    ));
                }
            }
        }
        if remotes.is_empty() {
            return Ok(staged);
        }
        let request = Request::RebuildPrepare {
            spec: spec.clone(),
            delta: delta.map(<[IngestBody]>::to_vec),
        };
        let jobs: Vec<(usize, &Request)> = remotes.iter().map(|&i| (i, &request)).collect();
        for (i, response, elapsed) in self.scatter(&jobs) {
            if let Some(obs) = &self.obs {
                obs.rebuild_prepare.record(saturating_nanos(elapsed));
            }
            let failure = match response {
                Response::Prepared { .. } => continue,
                Response::Error { error } => ErrorBody::new(
                    error.code,
                    format!("shard {i} failed to prepare: {}", error.message),
                ),
                _ => ErrorBody::new(
                    ErrorCode::Internal,
                    format!("shard {i} answered an unexpected prepare response"),
                ),
            };
            self.abort_all();
            return Err(failure);
        }
        Ok(staged)
    }

    /// Phase two on every shard, in order: publish whatever the last
    /// prepare staged — locals directly, remotes via
    /// [`Request::RebuildCommit`] — and raise the generation gauge to
    /// the newest generation. A local shard with nothing staged fails
    /// with `unstaged`.
    fn commit_all(&self, unstaged: ErrorCode) -> Result<u64, ErrorBody> {
        let mut newest = 0;
        for (i, b) in self.topology.backends().iter().enumerate() {
            let started = Instant::now();
            let generation = match b.as_local() {
                Some(local) => {
                    let committed = local.commit();
                    self.record_rebuild_phase(RebuildPhase::Commit, started);
                    committed.map_err(|e| {
                        ErrorBody::new(unstaged, format!("shard {i} failed to commit: {e}"))
                    })?
                }
                None => {
                    let response = b.dispatch(&Request::RebuildCommit);
                    self.record_rebuild_phase(RebuildPhase::Commit, started);
                    match response {
                        Response::Committed { generation } => generation,
                        Response::Error { error } => {
                            return Err(ErrorBody::new(
                                error.code,
                                format!("shard {i} failed to commit: {}", error.message),
                            ))
                        }
                        _ => {
                            return Err(ErrorBody::new(
                                ErrorCode::Internal,
                                format!("shard {i} answered an unexpected commit response"),
                            ))
                        }
                    }
                }
            };
            newest = newest.max(generation);
        }
        if let Some(obs) = &self.obs {
            obs.generation.raise(newest);
        }
        Ok(newest)
    }

    /// Records one shard-phase duration into the rebuild histograms.
    fn record_rebuild_phase(&self, phase: RebuildPhase, started: Instant) {
        if let Some(obs) = &self.obs {
            let nanos = saturating_nanos(started.elapsed());
            match phase {
                RebuildPhase::Prepare => obs.rebuild_prepare.record(nanos),
                RebuildPhase::Commit => obs.rebuild_commit.record(nanos),
                RebuildPhase::Abort => obs.rebuild_abort.record(nanos),
            }
        }
    }

    /// Best-effort abort fan-out, timed per shard into the rebuild
    /// telemetry: drops staged rebuild state on every shard — locals
    /// directly, remotes via [`Request::RebuildAbort`]. Abort is
    /// idempotent and an unreachable remote is skipped (it has nothing
    /// durable to publish anyway), so a coordinator can always call this
    /// after a partial prepare failure without leaving a stale staged
    /// index behind a live shard.
    fn abort_all(&self) {
        for backend in self.topology.backends() {
            let started = Instant::now();
            match backend.as_local() {
                Some(local) => local.abort(),
                None => {
                    let _ = backend.dispatch(&Request::RebuildAbort);
                }
            }
            self.record_rebuild_phase(RebuildPhase::Abort, started);
        }
    }

    /// Retrains and publishes through the two-phase barrier — the one
    /// path behind `Rebuild` and [`Self::maintain`]: stage the global
    /// index on every shard ([`Self::prepare_all`]) and commit only once
    /// every shard holds it, so a failed prepare leaves the old
    /// generation serving everywhere. With ingestion configured every
    /// rebuild folds the buffer in — drain into the cumulative log,
    /// retrain on `seed + log`, ship the full log as every remote
    /// shard's delta, and make the merged dataset the drift baseline —
    /// otherwise the published index would silently forget every
    /// streamed point. On failure the drained records are restored:
    /// nothing accepted is ever lost.
    fn rebuild(&self, spec: &PipelineSpec) -> Result<RebuildReport, ErrorBody> {
        let started = Instant::now();
        let state = self.ingest.as_deref();
        let _guard =
            state.map(|state| state.maintenance.lock().expect("maintenance lock poisoned"));
        let mut drained_len = 0;
        let log: Option<Vec<IngestRecord>> = state.map(|state| {
            let drained = state.buffer.drain();
            drained_len = drained.len();
            let mut log = state.log.lock().expect("ingest log lock poisoned");
            log.extend(drained);
            log.clone()
        });
        let published = self
            .train(spec, log.as_deref())
            .and_then(|(index, run, baseline)| {
                let delta: Option<Vec<IngestBody>> =
                    log.map(|log| log.iter().map(IngestRecord::to_wire).collect());
                self.prepare_all(&index, spec, delta.as_deref())?;
                let report = RebuildReport {
                    spec: spec.clone(),
                    generation: self.commit_all(ErrorCode::Internal)?,
                    num_leaves: index.num_leaves(),
                    ence: run.eval.full.ence,
                    build_time: run.build_time,
                    total_time: started.elapsed(),
                };
                Ok((report, baseline))
            });
        match published {
            Ok((report, baseline)) => {
                if let (Some(state), Some(baseline)) = (state, baseline) {
                    *state.baseline.lock().expect("baseline lock poisoned") = baseline;
                    state.store_drift(0.0);
                }
                Ok(report)
            }
            Err(error) => {
                if let Some(state) = state {
                    state.restore_unmerged(drained_len);
                }
                Err(error)
            }
        }
    }

    /// One maintenance poll: measure drift against the frozen baseline,
    /// check the policy's triggers, and — when one fires — fold the
    /// buffer into a full two-phase rebuild. Returns the new generation
    /// when a rebuild published, `None` when nothing was due. The
    /// background driver ([`crate::MaintenanceHandle`]) calls this on
    /// the policy's poll cadence; callers can also invoke it directly
    /// for deterministic tests.
    pub fn maintain(
        &mut self,
        policy: &MaintenanceSpec,
        spec: &PipelineSpec,
    ) -> Result<Option<u64>, ServeError> {
        let Some(state) = self.ingest.as_ref().map(Arc::clone) else {
            return Err(ServeError::IngestUnavailable);
        };
        let report = {
            let baseline = state.baseline.lock().expect("baseline lock poisoned");
            DriftDetector::new().measure(&baseline, &state.buffer)?
        };
        state.store_drift(report.score);
        if policy
            .due(report.score, report.buffered, state.buffer.oldest_age())
            .is_none()
        {
            return Ok(None);
        }
        match self.rebuild(spec) {
            Ok(report) => {
                if let Some(obs) = &self.obs {
                    obs.maintenance.record(saturating_nanos(report.total_time));
                }
                Ok(Some(report.generation))
            }
            Err(error) => {
                // Keep the failure visible in the scrape even though no
                // transport dispatched this pass.
                self.count_error(error.code);
                Err(ServeError::Maintenance(error.message))
            }
        }
    }

    /// Phase one when *this* service is a shard (or mid-tier
    /// coordinator) of an upstream fleet: retrain, stage on every local
    /// shard (re-clipped for partial shards), and forward the prepare to
    /// any nested remotes. Nothing is served until the commit.
    ///
    /// A `delta` (a maintenance coordinator's full ingest log) is
    /// merged into this shard's own seed dataset before retraining —
    /// the merge is deterministic, so every shard that receives the
    /// same `(spec, delta)` stages a bit-identical index. The task the
    /// labels are interpreted under rides in `spec.task`, so a shard
    /// needs no ingestion configuration of its own to participate.
    fn rebuild_prepare(&mut self, spec: &PipelineSpec, delta: Option<&[IngestBody]>) -> Response {
        let records: Option<Vec<IngestRecord>> = delta.map(|points| {
            points
                .iter()
                .enumerate()
                .map(|(i, b)| IngestRecord::from_wire(i as u64, b))
                .collect()
        });
        let (index, run, baseline) = match self.train(spec, records.as_deref()) {
            Ok(trained) => trained,
            Err(error) => return Response::Error { error },
        };
        // This shard's drift baseline moves with the commit: stage the
        // statistics of the dataset this prepare trained on — or none,
        // for a delta-less prepare — replacing whatever a superseded
        // prepare staged.
        if let Some(state) = &self.ingest {
            *state.pending.lock().expect("pending lock poisoned") = baseline;
        }
        // The staged footprint reported back: the clipped footprint for
        // the common single-shard server, the global index's otherwise.
        let report = match self.prepare_all(&index, spec, delta) {
            Ok(Some(staged)) if self.slots.len() == 1 => staged,
            Ok(_) => (index.num_leaves(), index.heap_bytes()),
            Err(error) => return Response::Error { error },
        };
        Response::Prepared {
            prepared: Box::new(PreparedBody {
                num_leaves: report.0,
                heap_bytes: report.1,
                ence: run.eval.full.ence,
                build_time: run.build_time,
            }),
        }
    }

    /// Abandons any staged rebuild on every shard — locals directly,
    /// remotes via the abort fan-out. Idempotent: aborting with nothing
    /// staged changes nothing, so it always answers
    /// [`Response::Aborted`]. A baseline staged by a delta prepare is
    /// dropped with the index it described.
    fn rebuild_abort(&mut self) -> Response {
        if let Some(state) = &self.ingest {
            *state.pending.lock().expect("pending lock poisoned") = None;
        }
        self.abort_all();
        Response::Aborted
    }

    /// Phase two: publish whatever the last prepare staged, on every
    /// shard. A commit with no staged index answers
    /// [`ErrorCode::NotPrepared`] without touching anything.
    fn rebuild_commit(&mut self) -> Response {
        let newest = match self.commit_all(ErrorCode::NotPrepared) {
            Ok(newest) => newest,
            Err(error) => return Response::Error { error },
        };
        // A delta prepare staged a refreshed drift baseline; committing
        // the merged index makes it current. The local buffer and log
        // are superseded — every point this shard accepted was also
        // logged by the coordinator whose delta just published.
        if let Some(state) = &self.ingest {
            if let Some(refreshed) = state.pending.lock().expect("pending lock poisoned").take() {
                *state.baseline.lock().expect("baseline lock poisoned") = refreshed;
                state.buffer.drain();
                state.log.lock().expect("ingest log lock poisoned").clear();
                state.store_drift(0.0);
            }
        }
        Response::Committed { generation: newest }
    }
}

impl Clone for QueryService {
    /// Clones share the topology (and thus the live, hot-swappable
    /// indexes and remote connections) but get fresh readers and empty
    /// scratch buffers — one clone per transport worker thread. The
    /// cache is re-created empty from its spec. The telemetry recorder clones
    /// into a **fresh shard of the same registry** (per-worker
    /// placement, merged on scrape), carrying the sampling and
    /// slow-query configuration along.
    fn clone(&self) -> Self {
        let mut fresh = Self::over(Arc::clone(&self.topology), self.rebuild_dataset.clone());
        fresh.cache = self
            .cache
            .as_ref()
            .map(|layer| CacheLayer::new(layer.spec).expect("spec validated at construction"));
        fresh.ingest = self.ingest.clone();
        fresh.obs = self.obs.clone();
        fresh.sample_mask = self.sample_mask;
        fresh.slow = self.slow.clone();
        fresh
    }
}

/// Convenience: a single-shard service over a freshly frozen index.
impl From<FrozenIndex> for QueryService {
    fn from(index: FrozenIndex) -> Self {
        QueryService::new(Topology::single(crate::IndexHandle::new(index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{BackendSpec, ShardBackend, ShardDescriptor, TopologySpec};
    use crate::IndexHandle;
    use fsi_geo::{Grid, Partition};
    use fsi_pipeline::ModelSnapshot;
    use fsi_proto::WireRect;
    use std::sync::Mutex;

    fn index() -> FrozenIndex {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot =
            ModelSnapshot::new(vec![0.2, 0.4, 0.6, 0.8], vec![0.0; 4], vec![0, 1, 2, 3]).unwrap();
        FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap()
    }

    fn service(shards: (usize, usize)) -> QueryService {
        QueryService::new(Topology::partitioned(index(), shards.0, shards.1).unwrap())
    }

    fn dataset() -> Arc<SpatialDataset> {
        Arc::new(
            fsi_data::synth::city::CityGenerator::new(fsi_data::synth::city::CityConfig {
                n_individuals: 200,
                grid_side: 8,
                seed: 5,
                ..Default::default()
            })
            .unwrap()
            .generate()
            .unwrap(),
        )
    }

    /// An in-process stand-in for a remote shard: owns a full
    /// [`QueryService`] (typically over a [`Topology::partial`] clip)
    /// behind a mutex and forwards requests to it — exactly what the
    /// HTTP backend does over a socket, minus the socket.
    struct StubRemote {
        addr: String,
        inner: Mutex<QueryService>,
    }

    impl ShardBackend for StubRemote {
        fn dispatch(&self, request: &Request) -> Response {
            self.inner.lock().unwrap().dispatch(request)
        }

        fn descriptor(&self) -> ShardDescriptor {
            ShardDescriptor {
                kind: "http",
                addr: Some(self.addr.clone()),
            }
        }

        fn generation(&self) -> u64 {
            match self.inner.lock().unwrap().dispatch(&Request::Stats) {
                Response::Stats { stats } => stats.generations.first().copied().unwrap_or(0),
                _ => 0,
            }
        }
    }

    /// A 2×2 coordinator whose NE and SW slots are "remote" shard
    /// servers over partial indexes (stubbed in-process), with the other
    /// two slots local partial indexes.
    fn mixed(rebuild: Option<Arc<SpatialDataset>>) -> QueryService {
        let spec = TopologySpec {
            rows: 2,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("shard:1".into()),
                BackendSpec::Http("shard:2".into()),
                BackendSpec::Local,
            ],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            let slot: usize = addr.strip_prefix("shard:").unwrap().parse().unwrap();
            let mut inner = QueryService::new(Topology::partial(&index(), 2, 2, slot).unwrap());
            if let Some(dataset) = &rebuild {
                inner = inner.with_rebuild(Arc::clone(dataset));
            }
            Ok(Box::new(StubRemote {
                addr: addr.to_string(),
                inner: Mutex::new(inner),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology);
        if let Some(dataset) = rebuild {
            svc = svc.with_rebuild(dataset);
        }
        svc
    }

    #[test]
    fn lookup_routes_to_the_right_decision_on_any_shard_count() {
        let reference = index();
        for shape in [(1, 1), (2, 2), (1, 4), (3, 2)] {
            let mut svc = service(shape);
            for p in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5), (1.0, 1.0), (0.0, 0.9)] {
                let expected: DecisionBody =
                    reference.lookup(&Point::new(p.0, p.1)).unwrap().into();
                match svc.dispatch(&Request::Lookup { x: p.0, y: p.1 }) {
                    Response::Decision { decision } => {
                        assert_eq!(decision, expected, "{shape:?} at {p:?}")
                    }
                    other => panic!("expected decision, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_lookups_answer_structured_errors() {
        let mut svc = service((2, 2));
        match svc.dispatch(&Request::Lookup { x: 5.0, y: 0.5 }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn batch_matches_singles_and_reports_offending_index() {
        for shape in [(1, 1), (2, 2)] {
            let mut svc = service(shape);
            let points: Vec<WirePoint> = (0..40)
                .map(|i| WirePoint::new((i as f64 * 0.13) % 1.0, (i as f64 * 0.37) % 1.0))
                .collect();
            let Response::Decisions { decisions } = svc.dispatch(&Request::LookupBatch {
                points: points.clone(),
            }) else {
                panic!("expected decisions");
            };
            assert_eq!(decisions.len(), points.len());
            for (p, d) in points.iter().zip(&decisions) {
                match svc.dispatch(&Request::Lookup { x: p.x, y: p.y }) {
                    Response::Decision { decision } => assert_eq!(decision, *d),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            let mut bad = points.clone();
            bad[17] = WirePoint::new(9.0, 9.0);
            match svc.dispatch(&Request::LookupBatch { points: bad }) {
                Response::Error { error } => {
                    assert_eq!(error.code, ErrorCode::OutOfBounds);
                    assert!(error.message.contains("17"), "{}", error.message);
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn range_query_merges_shards_to_the_single_index_answer() {
        let reference = index();
        for shape in [(1, 1), (2, 2), (4, 1)] {
            let mut svc = service(shape);
            for rect in [
                WireRect::new(0.0, 0.0, 1.0, 1.0),
                WireRect::new(0.1, 0.1, 0.2, 0.2),
                WireRect::new(0.1, 0.1, 0.9, 0.2),
                WireRect::new(2.0, 2.0, 3.0, 3.0),
            ] {
                let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap();
                let expected = reference.range_query(&query);
                match svc.dispatch(&Request::RangeQuery { rect }) {
                    Response::Regions { ids } => assert_eq!(ids, expected, "{shape:?} {rect:?}"),
                    other => panic!("expected regions, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn stats_report_shards_generations_and_footprint() {
        let mut svc = service((2, 2));
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generations, vec![1, 1, 1, 1]);
        assert_eq!(stats.num_leaves, 4);
        assert_eq!(stats.backend, "cells");
        assert!(stats.heap_bytes > 0);
        let per_shard = stats
            .per_shard
            .expect("coordinators report per-shard stats");
        assert_eq!(per_shard.len(), 4);
        for shard in &per_shard {
            assert_eq!(shard.kind, "local");
            assert_eq!(shard.addr, None);
            assert_eq!(shard.generation, 1);
            assert!(shard.num_leaves > 0);
        }
    }

    #[test]
    fn scatter_gather_over_mixed_backends_matches_the_single_box() {
        let reference = index();
        let mut svc = mixed(None);
        // Point lookups: every grid cell center plus the shard edges.
        let mut points: Vec<(f64, f64)> = (0..64)
            .map(|i| (((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        points.extend([(0.5, 0.5), (0.5, 0.1), (0.1, 0.5), (0.0, 0.0), (1.0, 1.0)]);
        for &(x, y) in &points {
            let expected: DecisionBody = reference.lookup(&Point::new(x, y)).unwrap().into();
            match svc.dispatch(&Request::Lookup { x, y }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "({x}, {y})"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
        // Batches route through remote sub-batches and come back in
        // original order.
        let wire: Vec<WirePoint> = points.iter().map(|&(x, y)| WirePoint::new(x, y)).collect();
        let Response::Decisions { decisions } = svc.dispatch(&Request::LookupBatch {
            points: wire.clone(),
        }) else {
            panic!("expected decisions");
        };
        for (&(x, y), d) in points.iter().zip(&decisions) {
            let expected: DecisionBody = reference.lookup(&Point::new(x, y)).unwrap().into();
            assert_eq!(*d, expected, "batch at ({x}, {y})");
        }
        let mut bad = wire;
        bad[13] = WirePoint::new(7.0, 7.0);
        match svc.dispatch(&Request::LookupBatch { points: bad }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::OutOfBounds);
                assert!(error.message.contains("13"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
        // Ranges scatter-gather across local and remote shards.
        for rect in [
            WireRect::new(0.0, 0.0, 1.0, 1.0),
            WireRect::new(0.6, 0.1, 0.9, 0.4),
            WireRect::new(0.1, 0.1, 0.9, 0.9),
        ] {
            let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap();
            let expected = reference.range_query(&query);
            match svc.dispatch(&Request::RangeQuery { rect }) {
                Response::Regions { ids } => assert_eq!(ids, expected, "{rect:?}"),
                other => panic!("expected regions, got {other:?}"),
            }
        }
        // Stats carry the backend kind and address per shard.
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generations, vec![1, 1, 1, 1]);
        let per_shard = stats.per_shard.unwrap();
        let kinds: Vec<&str> = per_shard.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["local", "http", "http", "local"]);
        assert_eq!(per_shard[1].addr.as_deref(), Some("shard:1"));
        assert_eq!(per_shard[2].addr.as_deref(), Some("shard:2"));
        for shard in &per_shard {
            assert!(shard.num_leaves > 0, "{shard:?}");
        }
    }

    #[test]
    fn two_phase_rebuild_raises_every_shard_in_lockstep() {
        let dataset = dataset();
        let mut svc = mixed(Some(Arc::clone(&dataset)));
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild { spec: spec.clone() })
        else {
            panic!("expected rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, 8);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // Every shard now answers from the retrained index: compare
        // against a reference built from the same dataset and spec.
        let (reference, _run) = build_index(&dataset, &spec).unwrap();
        for p in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.5, 0.5)] {
            let expected: DecisionBody = reference.lookup(&Point::new(p.0, p.1)).unwrap().into();
            match svc.dispatch(&Request::Lookup { x: p.0, y: p.1 }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "{p:?}"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
        // A commit with nothing staged is a structured protocol error.
        let mut fresh = mixed(Some(dataset));
        match fresh.dispatch(&Request::RebuildCommit) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::NotPrepared),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn prepare_stages_without_serving_until_the_commit() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let before = match svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => decision,
            other => panic!("expected decision, got {other:?}"),
        };
        let Response::Prepared { prepared } =
            svc.dispatch(&Request::RebuildPrepare { spec, delta: None })
        else {
            panic!("expected prepared");
        };
        assert!(prepared.num_leaves > 0);
        assert!(prepared.heap_bytes > 0);
        // Staged but not live: generation 1 everywhere, old answers.
        assert_eq!(svc.topology().generations(), vec![1, 1, 1, 1]);
        match svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => assert_eq!(decision, before),
            other => panic!("expected decision, got {other:?}"),
        }
        let Response::Committed { generation } = svc.dispatch(&Request::RebuildCommit) else {
            panic!("expected committed");
        };
        assert_eq!(generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn rebuild_without_a_dataset_is_a_structured_error() {
        let mut svc = service((1, 1));
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            2,
        );
        match svc.dispatch(&Request::Rebuild { spec: spec.clone() }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::RebuildUnavailable),
            other => panic!("expected error, got {other:?}"),
        }
        match svc.dispatch(&Request::RebuildPrepare { spec, delta: None }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::RebuildUnavailable),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn rebuild_with_a_dataset_publishes_to_every_shard() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild { spec: spec.clone() })
        else {
            panic!("expected rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(report.spec, spec);
        assert_eq!(report.num_leaves, 8);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // Invalid specs come back as structured spec errors.
        let bad = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::FairKd,
            0,
        );
        match svc.dispatch(&Request::Rebuild { spec: bad }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::InvalidSpec);
                assert!(error.message.contains("height"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn rebuild_reclips_partial_shards() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let (full, _) = build_index(&dataset(), &spec).unwrap();
        let full_heap = full.heap_bytes();
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild { spec }) else {
            panic!("expected rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        for b in svc.topology().backends() {
            let served = b.as_local().unwrap().handle().load();
            assert!(
                served.clip_rect().is_some(),
                "a rebuild must keep shards partial"
            );
            assert!(served.heap_bytes() < full_heap);
        }
    }

    /// Every shape: cached answers must be bit-identical to the uncached
    /// reference, and the counters must add up.
    #[test]
    fn cached_lookups_match_uncached_and_count_hits() {
        let reference = index();
        let points: Vec<(f64, f64)> = (0..64)
            .map(|i| (((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        for shape in [(1, 1), (2, 2)] {
            let spec = CacheSpec::per_worker(64);
            let mut svc = service(shape).with_cache(spec).unwrap();
            assert_eq!(svc.cache_spec(), Some(&spec));
            for pass in 0..2 {
                for &(x, y) in &points {
                    let expected: DecisionBody =
                        reference.lookup(&Point::new(x, y)).unwrap().into();
                    match svc.dispatch(&Request::Lookup { x, y }) {
                        Response::Decision { decision } => {
                            assert_eq!(decision, expected, "{shape:?} pass {pass}")
                        }
                        other => panic!("expected decision, got {other:?}"),
                    }
                }
            }
            let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
                panic!("expected stats");
            };
            let cache = stats.cache.expect("cache stats must be reported");
            // 64 points over a 4-leaf/64-cell grid: the first pass
            // populates each distinct cell once, the second hits.
            assert_eq!(cache.hits + cache.misses, 128);
            assert_eq!(cache.misses, 64, "{shape:?}");
            assert_eq!(cache.capacity, spec.capacity);
            assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_batches_match_singles_and_report_out_of_bounds() {
        let mut plain = service((2, 2));
        let mut cached = service((2, 2))
            .with_cache(CacheSpec::per_worker(16))
            .unwrap();
        let points: Vec<WirePoint> = (0..40)
            .map(|i| WirePoint::new((i as f64 * 0.13) % 1.0, (i as f64 * 0.37) % 1.0))
            .collect();
        let expected = plain.dispatch(&Request::LookupBatch {
            points: points.clone(),
        });
        let got = cached.dispatch(&Request::LookupBatch {
            points: points.clone(),
        });
        assert_eq!(format!("{expected:?}"), format!("{got:?}"));
        let mut bad = points;
        bad[11] = WirePoint::new(-3.0, 0.5);
        match cached.dispatch(&Request::LookupBatch { points: bad }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::OutOfBounds);
                assert!(error.message.contains("11"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_cache_specs_are_rejected_up_front() {
        let svc = service((1, 1));
        match svc.with_cache(CacheSpec::per_worker(0)) {
            Err(crate::ServeError::Cache(fsi_cache::CacheError::ZeroCapacity)) => {}
            Err(other) => panic!("expected ZeroCapacity, got {other:?}"),
            Ok(_) => panic!("zero-capacity spec must be rejected"),
        }
    }

    #[test]
    fn publish_invalidates_cached_decisions_via_the_generation_key() {
        let handle = IndexHandle::new(index());
        let mut svc = QueryService::new(Topology::single(handle.clone()))
            .with_cache(CacheSpec::per_worker(64))
            .unwrap();
        let (x, y) = (0.1, 0.1);
        let Response::Decision { decision: before } = svc.dispatch(&Request::Lookup { x, y })
        else {
            panic!("expected decision");
        };
        // Same point again: served from cache.
        svc.dispatch(&Request::Lookup { x, y });
        // Publish an index with different scores; the very next lookup
        // must reflect it even though the old entry is still resident.
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot =
            ModelSnapshot::new(vec![0.9, 0.9, 0.9, 0.9], vec![0.0; 4], vec![0, 1, 2, 3]).unwrap();
        handle.publish(FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap());
        let Response::Decision { decision: after } = svc.dispatch(&Request::Lookup { x, y }) else {
            panic!("expected decision");
        };
        assert!((before.raw_score - 0.2).abs() < 1e-12);
        assert!(
            (after.raw_score - 0.9).abs() < 1e-12,
            "stale cache entry served"
        );
    }

    #[test]
    fn stats_and_metrics_agree_on_cache_counters_across_clones() {
        let svc = service((1, 1))
            .with_cache(CacheSpec::per_worker(64))
            .unwrap();
        let mut traffic = svc.clone();
        let mut scraper = svc.clone();
        for _ in 0..2 {
            traffic.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }); // miss, then hit
        }
        let Response::Stats { stats } = scraper.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        let Response::Metrics { metrics } = scraper.dispatch(&Request::Metrics) else {
            panic!("expected metrics");
        };
        let from_stats = stats.cache.expect("cache stats must be reported");
        let from_metrics = metrics.cache.expect("cache metrics must be reported");
        assert_eq!((from_stats.hits, from_stats.misses), (1, 1));
        assert_eq!(
            (from_stats.hits, from_stats.misses),
            (from_metrics.hits, from_metrics.misses)
        );
        // Each clone still owns its cache: the scraper's is empty.
        assert_eq!(from_stats.entries, 0);
        // With telemetry off there is nothing to fold: a clone reports
        // its own counters.
        let mut local = service((1, 1))
            .with_metrics(false)
            .with_cache(CacheSpec::per_worker(64))
            .unwrap();
        local.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        let Response::Stats { stats } = local.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        let cache = stats.cache.unwrap();
        assert_eq!((cache.hits, cache.misses, cache.entries), (0, 1, 1));
    }

    #[test]
    fn cached_coordinator_sends_one_sub_batch_per_remote_shard() {
        let reference = index();
        let mut plain = mixed(None);
        let mut cached = mixed(None).with_cache(CacheSpec::per_worker(64)).unwrap();
        // 64 cell centers: all four quadrants, two of them remote.
        let points: Vec<WirePoint> = (0..64)
            .map(|i| WirePoint::new(((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        let remote_requests = |svc: &mut QueryService| -> Vec<u64> {
            let body = svc.metrics_snapshot();
            vec![body.shards[1].requests, body.shards[2].requests]
        };
        let batch = Request::LookupBatch {
            points: points.clone(),
        };
        let before = remote_requests(&mut cached);
        for pass in 0..2 {
            let Response::Decisions { decisions } = cached.dispatch(&batch) else {
                panic!("expected decisions");
            };
            assert_eq!(
                plain.dispatch(&batch),
                Response::Decisions {
                    decisions: decisions.clone()
                }
            );
            for (wp, d) in points.iter().zip(&decisions) {
                let expected: DecisionBody =
                    reference.lookup(&Point::new(wp.x, wp.y)).unwrap().into();
                assert_eq!(*d, expected, "pass {pass} at ({}, {})", wp.x, wp.y);
            }
        }
        let after = remote_requests(&mut cached);
        assert_eq!(after, vec![before[0] + 2, before[1] + 2], "one per batch");
        // The local half went through the cache: 32 misses, then 32 hits.
        let cache = cached.metrics_snapshot().cache.unwrap();
        assert_eq!((cache.hits, cache.misses), (32, 32));
        // Out-of-bounds points are named by the same batch index on both
        // paths, whether they precede or follow the remote points.
        for at in [0, 13, 63] {
            let mut bad = points.clone();
            bad[at] = WirePoint::new(7.0, 7.0);
            let bad = Request::LookupBatch { points: bad };
            let got = cached.dispatch(&bad);
            assert_eq!(got, plain.dispatch(&bad));
            match got {
                Response::Error { error } => {
                    assert_eq!(error.code, ErrorCode::OutOfBounds);
                    assert!(
                        error.message.contains(&format!("#{at} ")),
                        "{}",
                        error.message
                    );
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn instrumented_dispatch_counts_requests_latency_and_errors() {
        let mut svc = service((2, 2)).with_lookup_sampling(1);
        for p in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5)] {
            svc.dispatch(&Request::Lookup { x: p.0, y: p.1 });
        }
        svc.dispatch(&Request::Lookup { x: 5.0, y: 0.5 }); // out of bounds
        svc.dispatch(&Request::RangeQuery {
            rect: WireRect::new(0.1, 0.1, 0.4, 0.4),
        });
        svc.dispatch(&Request::Stats);
        let body = svc.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 4);
        assert_eq!(body.count_for("range_query"), 1);
        assert_eq!(body.count_for("stats"), 1);
        assert_eq!(body.generation, 1);
        let lookup = body
            .requests
            .iter()
            .find(|r| r.kind == "lookup")
            .expect("every kind is listed");
        // Sampling is 1-in-1, so every lookup also lands in the
        // latency histogram.
        assert_eq!(lookup.latency.count(), 4);
        let oob = body
            .errors
            .iter()
            .find(|e| e.code == ErrorCode::OutOfBounds)
            .expect("out-of-bounds error counted");
        assert_eq!(oob.count, 1);
    }

    #[test]
    fn unsampled_lookups_still_count_once_flushed() {
        // Default sampling is 1-in-256: ten lookups won't all be timed,
        // but the request counter must still reach ten on snapshot.
        let mut svc = service((1, 1));
        for i in 0..10 {
            let x = (i as f64 * 0.09) % 1.0;
            svc.dispatch(&Request::Lookup { x, y: x });
        }
        let body = svc.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 10);
        let lookup = body.requests.iter().find(|r| r.kind == "lookup").unwrap();
        assert!(lookup.latency.count() <= 10);
    }

    #[test]
    fn metrics_scatter_gather_collects_remote_snapshots() {
        let mut svc = mixed(None).with_lookup_sampling(1);
        // One lookup per quadrant so every shard sees traffic.
        for p in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)] {
            svc.dispatch(&Request::Lookup { x: p.0, y: p.1 });
        }
        let Response::Metrics { metrics } = svc.dispatch(&Request::Metrics) else {
            panic!("expected metrics");
        };
        assert_eq!(metrics.count_for("lookup"), 4);
        assert_eq!(metrics.shards.len(), 4);
        let kinds: Vec<&str> = metrics.shards.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["local", "http", "http", "local"]);
        for shard in &metrics.shards {
            assert_eq!(shard.failures, 0, "{shard:?}");
            if shard.kind == "http" {
                assert!(shard.addr.is_some());
                assert_eq!(shard.requests, 1, "{shard:?}");
                assert_eq!(shard.round_trip.count(), 1);
                let remote = shard.remote.as_ref().expect("remote snapshot gathered");
                assert_eq!(remote.count_for("lookup"), 1, "{shard:?}");
            } else {
                assert!(shard.remote.is_none());
            }
        }
    }

    #[test]
    fn disabling_metrics_reports_an_empty_body_and_no_stats_metrics() {
        let mut svc = service((1, 1)).with_metrics(false);
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        let body = svc.metrics_snapshot();
        assert_eq!(body.total_requests(), 0);
        assert!(body.requests.is_empty());
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert!(stats.metrics.is_none());
    }

    #[test]
    fn stats_embed_a_metrics_body_when_telemetry_is_on() {
        let mut svc = service((1, 1)).with_lookup_sampling(1);
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        let metrics = stats.metrics.expect("telemetry on by default");
        assert_eq!(metrics.count_for("lookup"), 1);
    }

    #[test]
    fn cache_counters_flow_into_the_metrics_body() {
        let mut svc = service((1, 1))
            .with_cache(CacheSpec::per_worker(64))
            .unwrap();
        for _ in 0..2 {
            for i in 0..8 {
                let x = (i as f64 + 0.5) / 8.0;
                svc.dispatch(&Request::Lookup { x, y: x });
            }
        }
        let body = svc.metrics_snapshot();
        let cache = body.cache.expect("cache stats in the metrics body");
        assert_eq!(cache.misses, 8);
        assert_eq!(cache.hits, 8);
        assert_eq!(cache.capacity, 64);
    }

    #[test]
    fn slow_query_log_emits_records_and_bumps_the_counter() {
        let records: Arc<Mutex<Vec<crate::obs::SlowQueryRecord>>> =
            Arc::new(Mutex::new(Vec::new()));
        let sink_records = Arc::clone(&records);
        let mut svc = service((1, 1)).with_slow_query_log(
            Duration::ZERO,
            Arc::new(move |r| sink_records.lock().unwrap().push(r.clone())),
        );
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        svc.dispatch(&Request::Stats);
        let seen = records.lock().unwrap().clone();
        assert!(seen.len() >= 2, "{seen:?}");
        assert!(seen.iter().any(|r| r.kind == "lookup"), "{seen:?}");
        assert!(seen.iter().any(|r| r.kind == "stats"), "{seen:?}");
        assert_eq!(seen[0].threshold_nanos, 0);
        let body = svc.metrics_snapshot();
        assert!(body.slow_queries >= 2, "{}", body.slow_queries);
    }

    #[test]
    fn rebuild_phases_record_durations_and_raise_the_generation_gauge() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { .. } = svc.dispatch(&Request::Rebuild { spec }) else {
            panic!("expected rebuild report");
        };
        let body = svc.metrics_snapshot();
        assert_eq!(body.generation, 2);
        // One prepare and one commit sample per shard, no aborts.
        assert_eq!(body.rebuild.prepare.count(), 4);
        assert_eq!(body.rebuild.commit.count(), 4);
        assert_eq!(body.rebuild.abort.count(), 0);
    }

    /// Satellite 1: a failing remote transport must surface the shard
    /// index and address, not a context-free `Internal`.
    #[test]
    fn remote_transport_failures_name_the_shard_and_address() {
        struct DownRemote {
            addr: String,
        }
        impl ShardBackend for DownRemote {
            fn dispatch(&self, _request: &Request) -> Response {
                Response::error(
                    ErrorCode::Internal,
                    format!("remote shard {}: connection refused", self.addr),
                )
            }
            fn descriptor(&self) -> ShardDescriptor {
                ShardDescriptor {
                    kind: "http",
                    addr: Some(self.addr.clone()),
                }
            }
            fn generation(&self) -> u64 {
                0
            }
        }
        let spec = TopologySpec {
            rows: 1,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("10.0.0.9:4000".into()),
            ],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            Ok(Box::new(DownRemote {
                addr: addr.to_string(),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology);
        match svc.dispatch(&Request::Lookup { x: 0.9, y: 0.5 }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::Internal);
                assert!(
                    error.message.contains("shard 1 at 10.0.0.9:4000"),
                    "{}",
                    error.message
                );
                assert!(
                    error.message.contains("connection refused"),
                    "{}",
                    error.message
                );
            }
            other => panic!("expected error, got {other:?}"),
        }
        let body = svc.metrics_snapshot();
        let shard = &body.shards[1];
        assert_eq!(shard.failures, 1, "{shard:?}");
        assert_eq!(shard.requests, 1);
    }

    #[test]
    fn recorder_clones_merge_into_one_scrape() {
        let svc = service((1, 1)).with_lookup_sampling(1);
        let mut a = svc.clone();
        let mut b = svc.clone();
        a.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        b.dispatch(&Request::Lookup { x: 0.9, y: 0.9 });
        b.dispatch(&Request::Stats);
        // Either clone's snapshot folds every worker's shard.
        let body = a.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 2);
        assert_eq!(body.count_for("stats"), 1);
    }

    #[test]
    fn clones_share_swaps_but_not_buffers() {
        let handle = IndexHandle::new(index());
        let svc = QueryService::new(Topology::single(handle.clone()));
        let mut a = svc.clone();
        let mut b = svc;
        handle.publish(index());
        for svc in [&mut a, &mut b] {
            let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
                panic!("expected stats");
            };
            assert_eq!(stats.generations, vec![2]);
        }
    }

    fn ingest_spec() -> PipelineSpec {
        PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        )
    }

    fn ingest_service(shards: (usize, usize)) -> QueryService {
        QueryService::new(Topology::partitioned(index(), shards.0, shards.1).unwrap())
            .with_rebuild(dataset())
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .unwrap()
    }

    #[test]
    fn ingest_without_configuration_is_a_structured_error() {
        let mut svc = service((1, 1));
        match svc.dispatch(&Request::Ingest {
            x: 0.5,
            y: 0.5,
            group: 0,
            label: true,
        }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::RebuildUnavailable);
                assert!(error.message.contains("ingestion"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_requires_a_rebuild_dataset() {
        let err = service((1, 1))
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .err()
            .expect("with_ingest without a dataset must fail");
        assert!(matches!(err, ServeError::Ingest(_)), "{err}");
    }

    #[test]
    fn ingest_accepts_in_bounds_and_rejects_out_of_bounds() {
        let mut svc = ingest_service((2, 2));
        match svc.dispatch(&Request::Ingest {
            x: 0.25,
            y: 0.75,
            group: 1,
            label: true,
        }) {
            Response::Ingested {
                accepted,
                buffered,
                generation,
            } => {
                assert_eq!(accepted, 1);
                assert_eq!(buffered, 1);
                assert_eq!(generation, 1);
            }
            other => panic!("expected ingested, got {other:?}"),
        }
        match svc.dispatch(&Request::Ingest {
            x: 7.0,
            y: 0.5,
            group: 0,
            label: false,
        }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_batch_counts_only_landed_points() {
        let mut svc = ingest_service((1, 1));
        let points = vec![
            fsi_proto::IngestBody::new(0.1, 0.2, 0, true),
            fsi_proto::IngestBody::new(9.0, 9.0, 1, false), // out of bounds
            fsi_proto::IngestBody::new(0.8, 0.9, 1, true),
        ];
        match svc.dispatch(&Request::IngestBatch { points }) {
            Response::Ingested {
                accepted, buffered, ..
            } => {
                assert_eq!(accepted, 2);
                assert_eq!(buffered, 2);
            }
            other => panic!("expected ingested, got {other:?}"),
        }
    }

    #[test]
    fn manual_rebuild_merges_the_buffer_and_resets_it() {
        let mut svc = ingest_service((2, 2)).with_metrics(true);
        for i in 0..6u32 {
            let response = svc.dispatch(&Request::Ingest {
                x: 0.05 + 0.15 * f64::from(i),
                y: 0.35,
                group: i % 2,
                label: i % 2 == 0,
            });
            assert!(matches!(response, Response::Ingested { .. }));
        }
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild {
            spec: ingest_spec(),
        }) else {
            panic!("expected rebuilt");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        let ingest = svc
            .metrics_snapshot()
            .ingest
            .expect("ingest telemetry missing");
        assert_eq!(ingest.accepted, 6);
        assert_eq!(ingest.buffered, 0, "rebuild must drain the buffer");
        assert_eq!(ingest.drift_score, 0.0);
        // The next ingest stacks on the new generation.
        match svc.dispatch(&Request::Ingest {
            x: 0.5,
            y: 0.5,
            group: 0,
            label: true,
        }) {
            Response::Ingested { generation, .. } => assert_eq!(generation, 2),
            other => panic!("expected ingested, got {other:?}"),
        }
    }

    /// A delta-less prepare supersedes the baseline an earlier delta
    /// prepare staged: its commit must not drain points the committed
    /// index never folded in.
    #[test]
    fn delta_less_prepare_supersedes_a_staged_delta_baseline() {
        let mut svc = ingest_service((1, 1)).with_metrics(true);
        let point = fsi_proto::IngestBody::new(0.5, 0.5, 0, true);
        assert!(matches!(
            svc.dispatch(&Request::Ingest {
                x: point.x,
                y: point.y,
                group: point.group,
                label: point.label,
            }),
            Response::Ingested { .. }
        ));
        for delta in [Some(vec![point]), None] {
            let response = svc.dispatch(&Request::RebuildPrepare {
                spec: ingest_spec(),
                delta,
            });
            assert!(
                matches!(response, Response::Prepared { .. }),
                "{response:?}"
            );
        }
        assert_eq!(
            svc.dispatch(&Request::RebuildCommit),
            Response::Committed { generation: 2 }
        );
        let ingest = svc.metrics_snapshot().ingest.expect("ingest telemetry");
        assert_eq!(ingest.buffered, 1, "the committed index never folded it");
    }

    #[test]
    fn maintain_without_ingest_is_an_error() {
        let mut svc = service((1, 1));
        let err = svc
            .maintain(&fsi_ingest::MaintenanceSpec::default(), &ingest_spec())
            .expect_err("maintain without ingest must fail");
        assert!(matches!(err, ServeError::IngestUnavailable), "{err}");
    }

    #[test]
    fn maintain_publishes_on_occupancy_and_idles_when_quiet() {
        let mut svc = ingest_service((2, 2)).with_metrics(true);
        let policy = fsi_ingest::MaintenanceSpec {
            drift_threshold: 1e18,
            max_buffered: 4,
            max_staleness_ms: 0,
            poll_interval_ms: 1,
        };
        // Empty buffer: nothing due.
        assert!(svc.maintain(&policy, &ingest_spec()).unwrap().is_none());
        for i in 0..5u32 {
            svc.dispatch(&Request::Ingest {
                x: 0.1 + 0.18 * f64::from(i),
                y: 0.6,
                group: i % 2,
                label: i % 2 == 1,
            });
        }
        let generation = svc
            .maintain(&policy, &ingest_spec())
            .unwrap()
            .expect("occupancy past max_buffered must trigger");
        assert_eq!(generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // The trigger consumed the buffer; the next poll idles.
        assert!(svc.maintain(&policy, &ingest_spec()).unwrap().is_none());
        let body = svc.metrics_snapshot();
        let ingest = body.ingest.expect("ingest telemetry missing");
        assert_eq!(ingest.buffered, 0);
        assert_eq!(
            ingest.maintenance.count(),
            1,
            "maintenance histogram must record the pass"
        );
    }

    #[test]
    fn mixed_topology_ingest_keeps_the_coordinator_authoritative() {
        let mut svc = mixed(Some(dataset()))
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .unwrap();
        // One point per quadrant: two land on local slots, two are
        // forwarded (advisorily) to the stub remotes, which decline —
        // the coordinator's buffer still accepts all four.
        let quadrants = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
        for (i, (x, y)) in quadrants.into_iter().enumerate() {
            match svc.dispatch(&Request::Ingest {
                x,
                y,
                group: (i % 2) as u32,
                label: i % 2 == 0,
            }) {
                Response::Ingested {
                    accepted, buffered, ..
                } => {
                    assert_eq!(accepted, 1);
                    assert_eq!(buffered, i as u64 + 1);
                }
                other => panic!("expected ingested, got {other:?}"),
            }
        }
        // A manual rebuild ships the merged delta through the two-phase
        // barrier; the stub remotes merge the same log and commit.
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild {
            spec: ingest_spec(),
        }) else {
            panic!("expected rebuilt");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
    }
}
