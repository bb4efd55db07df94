//! The three deployments, each built exactly as an application would
//! build it through the `fsi` facade, and bound to loopback ports.

use crate::util::{BoxResult, Rng};
use fsi::{
    BackendSpec, CacheSpec, FrozenIndex, HttpClient, HttpServer, MaintenanceSpec, Method, Pipeline,
    PipelineSpec, QueryService, Request, ResiliencePolicy, Response, Serving, SpatialDataset,
    TaskSpec, TopologySpec,
};
use fsi_data::synth::city::CityGenerator;
use fsi_data::synth::edgap::los_angeles;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    EdgeUniform,
    FleetHotspot,
    IngestDrift,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        [
            Workload::EdgeUniform,
            Workload::FleetHotspot,
            Workload::IngestDrift,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeUniform => "edge_uniform",
            Workload::FleetHotspot => "fleet_hotspot",
            Workload::IngestDrift => "ingest_drift",
        }
    }

    /// Base-grid side of the city: 128 × 128 cells are 4× the default
    /// 4,096-entry cache, 64 × 64 fit it exactly.
    pub fn grid_side(self) -> usize {
        match self {
            Workload::EdgeUniform => 128,
            Workload::FleetHotspot | Workload::IngestDrift => 64,
        }
    }

    /// Points per `IngestBatch` and batches per hotspot wave. On the
    /// read-mostly workloads each wave is followed by a `Rebuild`, one
    /// wave per round, kept small so the log (and the rebuild cost)
    /// grows little over the run.
    pub fn write_shape(self) -> (usize, usize) {
        match self {
            Workload::IngestDrift => (256, 4),
            Workload::EdgeUniform => (16, 2),
            Workload::FleetHotspot => (64, 4),
        }
    }

    /// Rounds of an end-to-end run. Many short rounds sample the host's
    /// speed, which drifts over seconds, all through the run; the fleet
    /// keeps fewer, because each of its write waves retrains all eight
    /// shard servers.
    pub fn rounds(self) -> usize {
        match self {
            Workload::EdgeUniform | Workload::IngestDrift => 30,
            Workload::FleetHotspot => 10,
        }
    }

    /// Open-loop lookup-traffic rate over both connections (requests/s),
    /// about a quarter of the measured saturation rate.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::EdgeUniform => 6_000.0,
            Workload::FleetHotspot => 1_500.0,
            Workload::IngestDrift => 3_000.0,
        }
    }
}

/// The paper's tree height, task and method.
pub const HEIGHT: usize = 10;

/// The ingest workload's maintenance policy: retrain when a subtree's
/// statistics drift by 5 %, or at the latest once 4,096 points wait.
pub fn maintenance_policy() -> MaintenanceSpec {
    MaintenanceSpec {
        drift_threshold: 0.05,
        max_buffered: 4096,
        max_staleness_ms: 0,
        poll_interval_ms: 25,
    }
}

/// The paper-scale Los Angeles city (1,153 individuals) on a
/// `side × side` base grid.
pub fn city(side: usize) -> BoxResult<SpatialDataset> {
    let mut config = los_angeles();
    config.grid_side = side;
    Ok(CityGenerator::new(config)?.generate()?)
}

pub struct Deployment {
    pub workload: Workload,
    /// An in-process clone of the front service: shares its indexes,
    /// cache registry and ingest buffer.
    pub service: QueryService,
    /// Held for the run: dropping a server stops it.
    #[allow(dead_code)]
    front: HttpServer,
    /// Shard servers behind the fleet coordinator (empty otherwise).
    #[allow(dead_code)]
    shards: Vec<HttpServer>,
    pub dataset: &'static SpatialDataset,
    pub serving: Serving<'static>,
    pub spec: PipelineSpec,
    /// The index trained at setup: the reference every answer is
    /// compared against until the first write.
    pub reference: FrozenIndex,
    /// ENCE of that index on the held-out split.
    pub ence: f64,
}

/// Builds, binds and warms one deployment, returning it with the two
/// load connections the run then uses.
pub fn setup(workload: Workload) -> BoxResult<(Deployment, [HttpClient; 2])> {
    // Leaked: a deployment borrows its dataset for the life of the run.
    let dataset: &'static SpatialDataset = Box::leak(Box::new(city(workload.grid_side())?));
    let spec = PipelineSpec::new(TaskSpec::act(), Method::FairKd, HEIGHT);
    let run = Pipeline::from_spec(dataset, spec.clone()).run()?;
    let reference = run.freeze()?;
    let ence = run.eval.test.ence;

    let mut shards = Vec::new();
    let (serving, service) = match workload {
        Workload::EdgeUniform => {
            let serving = run.serve_with_cache(CacheSpec::default())?;
            // Ingest is enabled so the closing write probe can measure
            // appends and rebuilds; lookups never touch the buffer.
            let service = serving.service().with_ingest(TaskSpec::act())?;
            (serving, service)
        }
        Workload::FleetHotspot => {
            // The caches sit in the shard services. The coordinator has
            // none: a cached coordinator forwards remote batch points one
            // round trip at a time.
            let cached = run.serve_with_cache(CacheSpec::default())?;
            let serving = run.serve()?;
            let quad = TopologySpec::local(2, 2);
            let mut slots = Vec::new();
            for slot in 0..4 {
                let mut members = Vec::new();
                for _ in 0..2 {
                    let server =
                        HttpServer::bind(cached.service_shard(&quad, slot)?, "127.0.0.1:0")?;
                    members.push(BackendSpec::Http(server.addr().to_string()));
                    shards.push(server);
                }
                slots.push(BackendSpec::Replicas(members));
            }
            let fleet = TopologySpec {
                rows: 2,
                cols: 2,
                shards: slots,
            };
            let service = serving
                .service_over_with(&fleet, ResiliencePolicy::default())?
                .with_ingest(TaskSpec::act())?;
            (serving, service)
        }
        Workload::IngestDrift => {
            let serving = run.serve_with_ingest(maintenance_policy())?;
            let service = serving.service();
            (serving, service)
        }
    };
    let front = HttpServer::bind(service.clone(), "127.0.0.1:0")?;
    let mut clients = [
        HttpClient::connect(front.addr())?,
        HttpClient::connect(front.addr())?,
    ];
    warm_up(&mut clients, dataset)?;
    Ok((
        Deployment {
            workload,
            service,
            front,
            shards,
            dataset,
            serving,
            spec,
            reference,
            ence,
        },
        clients,
    ))
}

/// 1,500 lookups per connection spread over the whole map, so every
/// worker, shard connection and cache has seen traffic before timing.
fn warm_up(clients: &mut [HttpClient; 2], dataset: &SpatialDataset) -> BoxResult<()> {
    let b = *dataset.grid().bounds();
    let mut rng = Rng::new(0, 0x3a7);
    for client in clients.iter_mut() {
        for _ in 0..1500 {
            let request = Request::Lookup {
                x: b.min_x + rng.unit() * b.width(),
                y: b.min_y + rng.unit() * b.height(),
            };
            match client.call(&request)? {
                Response::Decision { .. } => {}
                other => return Err(format!("warm-up lookup answered {other:?}").into()),
            }
        }
    }
    Ok(())
}
