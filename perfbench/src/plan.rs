//! What each workload sends, generated from `--seed`, and the phases
//! both the end-to-end and the traced run share.

use crate::deploy::{Deployment, Workload};
use crate::drive::{self, Log, Pace, ScrapeClock, Walk, WriteLog};
use crate::trace::Tracer;
use crate::traffic::{expected, hotspot_batch, same, Kind, Oracle, Points, Query, Spread};
use crate::util::{micros, BoxResult};
use fsi::{FrozenIndex, HttpClient, IngestBody, Pipeline, Request, Response, WirePoint};
use fsi_ingest::{merge_dataset, IngestRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Points per `LookupBatch`.
pub const LOOKUP_BATCH: usize = 64;
/// Batch and range requests in the probe pools of workloads whose main
/// traffic has none; probes walk them round after round, wrapping.
pub const PROBES: usize = 1000;

/// Share of the run each phase of a read-mostly round takes; the rest
/// is left for the round's untimed write wave, its oracle and the
/// set-ups timed between rounds.
pub const OPEN_SHARE: f64 = 0.38;
pub const CLOSED_SHARE: f64 = 0.3;
pub const PROBE_SHARE: f64 = 0.12;
/// Share of each of `ingest_drift`'s rounds around its stream each
/// phase takes; the rest is left for the set-ups timed between rounds.
pub const DRIFT_CLOSED_SHARE: f64 = 0.5;
pub const DRIFT_PROBE_SHARE: f64 = 0.35;

/// Seconds between streamed ingest batches on `ingest_drift`.
pub const STREAM_INTERVAL: Duration = Duration::from_millis(500);
/// The longest ingest stream: 42 batches, long enough for the growing
/// ingest log to set `rebuild_p50_ms`.
const STREAM_MAX_SECONDS: f64 = 21.0;

/// How long `ingest_drift` streams in a run of `seconds`: 70 % of the
/// run, at most `STREAM_MAX_SECONDS`, so longer runs spend the rest on
/// the rounds around the stream.
pub fn stream_seconds(seconds: f64) -> f64 {
    (0.7 * seconds).min(STREAM_MAX_SECONDS)
}

pub struct Traffic {
    /// The open- and closed-loop request sequence.
    pub mix: Vec<Query>,
    pub batches: Vec<Query>,
    pub ranges: Vec<Query>,
    /// Ingest batches, in send order; the hotspot moves every `wave`.
    pub writes: Vec<Vec<IngestBody>>,
    pub wave: usize,
    /// Fixed lookup probe set compared after the last write.
    pub probe: Vec<Query>,
}

impl Traffic {
    pub fn new(dep: &Deployment, seed: u64, seconds: f64) -> Self {
        let bounds = *dep.dataset.grid().bounds();
        let w = dep.workload;
        let spread = match w {
            Workload::FleetHotspot => Spread::Zipf { side: 64, s: 1.1 },
            _ => Spread::Uniform,
        };
        let mut points = Points::new(seed, 1, bounds, spread);
        let lookup = |p: WirePoint| Query::new(Request::Lookup { x: p.x, y: p.y });
        let mix: Vec<Query> = match w {
            Workload::FleetHotspot => (0..16_384)
                .map(|_| {
                    let u = points.rng().unit();
                    if u < 0.85 {
                        lookup(points.point())
                    } else if u < 0.95 {
                        Query::new(Request::LookupBatch {
                            points: points.points(LOOKUP_BATCH),
                        })
                    } else {
                        Query::new(Request::RangeQuery {
                            rect: points.rect(),
                        })
                    }
                })
                .collect(),
            _ => (0..65_536).map(|_| lookup(points.point())).collect(),
        };
        let mut side = Points::new(seed, 2, bounds, spread);
        let batches = (0..PROBES)
            .map(|_| {
                Query::new(Request::LookupBatch {
                    points: side.points(LOOKUP_BATCH),
                })
            })
            .collect();
        let ranges = (0..PROBES)
            .map(|_| Query::new(Request::RangeQuery { rect: side.rect() }))
            .collect();

        let (batch_points, wave) = w.write_shape();
        let n_writes = match w {
            Workload::IngestDrift => {
                (stream_seconds(seconds) / STREAM_INTERVAL.as_secs_f64()).round() as usize
            }
            _ => w.rounds() * wave,
        };
        let mut rng = crate::util::Rng::new(seed, 3);
        let mut centre = (0.5, 0.5);
        let writes = (0..n_writes.max(wave))
            .map(|k| {
                if k % wave == 0 {
                    centre = (0.15 + 0.7 * rng.unit(), 0.15 + 0.7 * rng.unit());
                }
                hotspot_batch(&mut rng, &bounds, centre, batch_points)
            })
            .collect();
        let mut fixed = Points::new(0x9e0b, 4, bounds, Spread::Uniform);
        let probe = (0..1024).map(|_| lookup(fixed.point())).collect();
        Traffic {
            mix,
            batches,
            ranges,
            writes,
            wave,
            probe,
        }
    }
}

impl Traffic {
    /// Points in the first `batches` ingest batches.
    pub fn points_in(&self, batches: usize) -> usize {
        self.writes.iter().take(batches).map(Vec::len).sum()
    }
}

pub fn expect_all(index: &FrozenIndex, pool: &[Query]) -> Vec<Response> {
    pool.iter().map(|q| expected(index, &q.request)).collect()
}

/// Open loop over both connections at `rate` for `seconds`, walking
/// the pool from position `base`; connection 0 also scrapes `/metrics`
/// on `clock`. With `traced`, each connection records spans into its
/// own tracer.
#[allow(clippy::too_many_arguments)]
pub fn open_phase(
    clients: &mut [HttpClient; 2],
    pool: &[Query],
    oracle: &Oracle,
    base: usize,
    rate: f64,
    seconds: f64,
    clock: &mut ScrapeClock,
    traced: bool,
) -> (Log, Option<Tracer>) {
    let interval = Duration::from_secs_f64(2.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let stop = move |due: Instant| due >= end;
    let [c0, c1] = clients;
    let mut tracers = [Tracer::new(start), Tracer::new(start)];
    let [t0, t1] = &mut tracers;
    let run = |client: &mut HttpClient,
               c: usize,
               tracer: &mut Tracer,
               clock: Option<&mut ScrapeClock>| {
        let pace = Pace {
            start,
            offset: interval * c as u32 / 2,
            interval,
        };
        let walk = Walk {
            first: base + c,
            stride: 2,
        };
        drive::open_loop(
            client,
            pool,
            oracle,
            walk,
            pace,
            clock,
            traced.then_some(tracer),
            &stop,
        )
    };
    let (a, b) = std::thread::scope(|s| {
        let run = &run;
        let h = s.spawn(move || run(c1, 1, t1, None));
        let a = run(c0, 0, t0, Some(clock));
        (a, h.join().expect("load thread panicked"))
    });
    let mut log = a;
    log.absorb(b);
    let tracer = traced.then(|| Tracer::merged(tracers));
    (log, tracer)
}

/// Closed loop over both connections for `seconds`, walking the pool
/// from position `base`, connection 0 scraping on `clock`; answers the
/// log and the phase's length in seconds, from its start until both
/// connections have their last answer.
pub fn closed_phase(
    clients: &mut [HttpClient; 2],
    pool: &[Query],
    oracle: &Oracle,
    base: usize,
    seconds: f64,
    clock: &mut ScrapeClock,
) -> (Log, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let [c0, c1] = clients;
    let walk = |c: usize| Walk {
        first: base + c,
        stride: 2,
    };
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| drive::closed_loop(c1, pool, oracle, walk(1), end, None));
        let a = drive::closed_loop(c0, pool, oracle, walk(0), end, Some(clock));
        (a, h.join().expect("load thread panicked"))
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut log = a;
    log.absorb(b);
    (log, elapsed)
}

/// Expected answers to the probe pools: batches, then ranges.
pub fn expect_probes(index: &FrozenIndex, traffic: &Traffic) -> [Vec<Response>; 2] {
    [
        expect_all(index, &traffic.batches),
        expect_all(index, &traffic.ranges),
    ]
}

/// Closed batch and range probes, alternating on one connection for
/// `seconds` from pool position `*next` on; adds the round trips of
/// each kind to `batch` and `range`, and advances `*next`.
#[allow(clippy::too_many_arguments)]
pub fn probe_phase(
    client: &mut HttpClient,
    traffic: &Traffic,
    want: &[Vec<Response>; 2],
    seconds: f64,
    next: &mut usize,
    log: &mut Log,
    (batch, range): (&mut Vec<f64>, &mut Vec<f64>),
) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let i = *next % PROBES;
        *next += 1;
        let probes = [
            (&traffic.batches[i], &want[0][i], &mut *batch),
            (&traffic.ranges[i], &want[1][i], &mut *range),
        ];
        for (q, expect, out) in probes {
            let t = Instant::now();
            let got = client.call(&q.request);
            out.push(micros(t.elapsed()));
            let ok = got.is_ok_and(|g| same(&g, expect));
            log.attempted += 1;
            log.failed += u64::from(!ok);
        }
    }
}

/// The stream of `ingest_drift`: the writer (connection 0) streams the
/// hotspot batches and runs a maintenance pass after each, while
/// connection 1 keeps sending open-loop lookups until the stream ends.
pub fn stream_phase(
    dep: &Deployment,
    clients: &mut [HttpClient; 2],
    traffic: &Traffic,
    seconds: f64,
    traced: bool,
) -> (WriteLog, Log, Option<Tracer>) {
    let rate = dep.workload.open_rate();
    let start = Instant::now() + Duration::from_millis(5);
    let min_end = start + Duration::from_secs_f64(seconds);
    let done = AtomicBool::new(false);
    let policy = crate::deploy::maintenance_policy();
    let [c0, c1] = clients;
    let mut writer_service = dep.service.clone();
    let mut tracers = [Tracer::new(start), Tracer::new(start)];
    let [t0, t1] = &mut tracers;
    let (writes, reads) = std::thread::scope(|s| {
        let done = &done;
        let h = s.spawn(move || {
            let stop = |due: Instant| due >= min_end && done.load(Ordering::Acquire);
            let pace = Pace {
                start,
                offset: Duration::ZERO,
                interval: Duration::from_secs_f64(1.0 / rate),
            };
            drive::open_loop(
                c1,
                &traffic.mix,
                &Oracle::Shape,
                Walk {
                    first: 0,
                    stride: 1,
                },
                pace,
                None,
                traced.then_some(t1),
                &stop,
            )
        });
        let writes = drive::ingest_stream(
            c0,
            &mut writer_service,
            &traffic.writes,
            &policy,
            &dep.spec,
            start,
            STREAM_INTERVAL,
            traced.then_some(t0),
        );
        done.store(true, Ordering::Release);
        (writes, h.join().expect("reader thread panicked"))
    });
    let tracer = traced.then(|| Tracer::merged(tracers));
    (writes, reads, tracer)
}

/// One slice of the write probe of the read-mostly workloads: the
/// ingest batches `batches` (whole waves), each wave followed by one
/// `Rebuild` request. Adds ingest round trips (µs) and
/// rebuild round trips (ms) with the log size each folded in, and
/// answers the largest buffered count seen.
pub fn write_probe(
    client: &mut HttpClient,
    dep: &Deployment,
    traffic: &Traffic,
    batches: std::ops::Range<usize>,
    log: &mut Log,
    (ingest, rebuilds): (&mut Vec<f64>, &mut Vec<(f64, usize)>),
) -> u64 {
    let mut buffered_max = 0;
    for k in batches {
        let batch = &traffic.writes[k];
        let t = Instant::now();
        let got = client.call(&Request::IngestBatch {
            points: batch.clone(),
        });
        ingest.push(micros(t.elapsed()));
        let ok = match got {
            Ok(Response::Ingested {
                accepted, buffered, ..
            }) => {
                buffered_max = buffered_max.max(buffered);
                accepted == batch.len() as u64
            }
            _ => false,
        };
        log.attempted += 1;
        log.failed += u64::from(!ok);
        if (k + 1) % traffic.wave == 0 {
            let t = Instant::now();
            let got = client.call(&Request::Rebuild {
                spec: dep.spec.clone(),
            });
            rebuilds.push((t.elapsed().as_secs_f64() * 1e3, traffic.points_in(k + 1)));
            log.attempted += 1;
            log.failed += u64::from(!matches!(got, Ok(Response::Rebuilt { .. })));
        }
    }
    buffered_max
}

/// The streamed points in send order as ingest records: with a single
/// writer, accept order is send order.
pub fn records(writes: &[Vec<IngestBody>], n: usize) -> Vec<IngestRecord> {
    writes
        .iter()
        .flatten()
        .take(n)
        .enumerate()
        .map(|(i, b)| IngestRecord::from_wire(i as u64, b))
        .collect()
}

/// The write oracle: retrain on seed ∪ the first `n` streamed points
/// with the deployment's own spec, then compare the fixed probe set bit
/// for bit against the served index. Answers the retrained index.
pub fn write_oracle(
    client: &mut HttpClient,
    dep: &Deployment,
    traffic: &Traffic,
    n: usize,
    log: &mut Log,
) -> BoxResult<FrozenIndex> {
    let all = records(&traffic.writes, n);
    let merged = merge_dataset(dep.dataset, &dep.spec.task, &all)?;
    let index = Pipeline::from_spec(&merged, dep.spec.clone())
        .run()?
        .freeze()?;
    let mut wrong = 0;
    for q in &traffic.probe {
        let ok = client
            .call(&q.request)
            .is_ok_and(|got| same(&got, &expected(&index, &q.request)));
        log.attempted += 1;
        if !ok {
            log.failed += 1;
            wrong += 1;
        }
    }
    if wrong > 0 {
        eprintln!("perfbench: {wrong} probe answers differ from the retrained reference");
    }
    Ok(index)
}

/// Timings of one replayed rebuild: merge, train, freeze (ms).
pub fn replay(dep: &Deployment, traffic: &Traffic, log_points: usize) -> BoxResult<[f64; 3]> {
    let recs = records(&traffic.writes, log_points);
    let t = Instant::now();
    let merged = merge_dataset(dep.dataset, &dep.spec.task, &recs)?;
    let merge = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let run = Pipeline::from_spec(&merged, dep.spec.clone()).run()?;
    let train = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    std::hint::black_box(run.freeze()?);
    let freeze = t.elapsed().as_secs_f64() * 1e3;
    Ok([merge, train, freeze])
}

/// Lookup latencies of a log.
pub fn lookups(log: &Log) -> Vec<f64> {
    log.of(Kind::Lookup)
}
