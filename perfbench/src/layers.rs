//! The two kinds of run: `end_to_end` (what a caller sees, untraced)
//! and `run` (the traced run: per-layer metrics and the ladder).

use crate::deploy::{setup, Deployment, Workload};
use crate::drive::{self, http_phases, Log, ScrapeClock};
use crate::plan::{
    closed_phase, expect_all, expect_probes, lookups, open_phase, probe_phase, replay,
    stream_phase, stream_seconds, write_oracle, write_probe, Traffic, CLOSED_SHARE,
    DRIFT_CLOSED_SHARE, DRIFT_PROBE_SHARE, OPEN_SHARE, PROBE_SHARE,
};
use crate::trace::{codec_ns, ladder, per_call_ns, RUNGS};
use crate::traffic::{expected, Kind, Oracle, Query};
use crate::util::{mean, median, micros, peak_rss_mb, quantile, BoxResult};
use crate::{Args, Outcome};
use fsi::{
    CacheStatsBody, HttpClient, MaintenanceSpec, MetricsBody, Point, QueryService, Rect, Request,
    Response, ShardBackend, TaskSpec,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Besides the deployment that serves an end-to-end run, one more is
/// built and torn down after every `SETUP_EVERY`-th round, so that
/// `setup_s`, the median of all of them, samples the host through the
/// whole run.
const SETUP_EVERY: usize = 3;
/// Percentile reported as `lookup_tail_us`.
pub const TAIL: f64 = 0.75;
/// A run whose generator sent its p99 request later than this after it
/// could have is invalid: the lag would be charged to the server.
const MAX_GEN_LAG_P99_US: f64 = 2000.0;

fn generator_ok(lag_us: &[f64]) -> bool {
    let p99 = quantile(lag_us, 0.99);
    if p99 > MAX_GEN_LAG_P99_US {
        eprintln!(
            "perfbench: invalid run: generator lag p99 {p99:.0} us exceeds {MAX_GEN_LAG_P99_US} us"
        );
        return false;
    }
    true
}

fn rebuilt(client: &mut HttpClient, dep: &Deployment, log: &mut Log) {
    let got = client.call(&Request::Rebuild {
        spec: dep.spec.clone(),
    });
    log.attempted += 1;
    log.failed += u64::from(!matches!(got, Ok(Response::Rebuilt { .. })));
}

/// What the closed phases and probes of a run's rounds add up to.
#[derive(Default)]
struct Closed {
    /// Requests answered in closed phases, and those phases' seconds.
    answered: u64,
    seconds: f64,
    batch_us: Vec<f64>,
    range_us: Vec<f64>,
    next_probe: usize,
}

impl Closed {
    /// A closed phase of `seconds` over both connections from pool
    /// position `base`, then, given `probes` (expected answers and
    /// seconds), batch and range probes on connection 0.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        clients: &mut [HttpClient; 2],
        traffic: &Traffic,
        oracle: &Oracle,
        base: usize,
        seconds: f64,
        probes: Option<(&[Vec<Response>; 2], f64)>,
        clock: &mut ScrapeClock,
        log: &mut Log,
    ) {
        let (closed, secs) = closed_phase(clients, &traffic.mix, oracle, base, seconds, clock);
        self.answered += closed.completed;
        self.seconds += secs;
        log.absorb(closed);
        if let Some((want, probe_s)) = probes {
            let out = (&mut self.batch_us, &mut self.range_us);
            probe_phase(
                &mut clients[0],
                traffic,
                want,
                probe_s,
                &mut self.next_probe,
                log,
                out,
            );
        }
    }
}

pub fn end_to_end(args: &Args) -> BoxResult<Outcome> {
    let w = args.workload;
    let s = args.seconds;
    let rounds = w.rounds();
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> BoxResult<_> {
        let t = Instant::now();
        let built = setup(w)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(built)
    };
    let (dep, mut clients) = timed_setup()?;
    // Each round takes its share of the time left (less `reserve`
    // seconds kept for later), so that untimed work running long on a
    // slow host does not stretch the run much; a quarter of an even
    // share at least, so that every phase is timed.
    let run_end = Instant::now() + Duration::from_secs_f64(s);
    let round_s = |round: usize, reserve: f64| {
        let left = run_end
            .saturating_duration_since(Instant::now())
            .as_secs_f64()
            - reserve;
        (left / (rounds - round) as f64).max(s / rounds as f64 / 4.0)
    };
    let traffic = Traffic::new(&dep, args.seed, s);
    let mut log = Log::default();
    let mut closed = Closed::default();
    let mut ingest_us = Vec::new();
    let mut clock = ScrapeClock::new();
    let (mut lookup_us, mut lag_us, mut rebuild_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (batch_us, range_us);
    if w == Workload::IngestDrift {
        // Half the rounds run before the stream, on the set-up index,
        // and half after it, on the retrained one, so that they sample
        // the host at both ends of the run.
        let stream_s = stream_seconds(s);
        let half = rounds / 2;
        let mut index = dep.reference.clone();
        for part in [0..half, half..rounds] {
            if part.start == half {
                let (writes, reads, _) =
                    stream_phase(&dep, &mut clients, &traffic, stream_s, false);
                lookup_us = lookups(&reads);
                lag_us = reads.lag_us.clone();
                log.absorb(reads);
                ingest_us = writes.ingest_us;
                rebuild_ms = writes
                    .passes
                    .iter()
                    .filter(|p| p.published_log.is_some())
                    .map(|p| p.ms)
                    .collect();
                eprintln!(
                    "perfbench: {} batches, {} publishing passes, rebuild ms first {:.0} last {:.0}",
                    traffic.writes.len(),
                    rebuild_ms.len(),
                    rebuild_ms.first().copied().unwrap_or(0.0),
                    rebuild_ms.last().copied().unwrap_or(0.0)
                );
                log.absorb(writes.log);
                // Fold every accepted point in, so the served index must
                // equal the retrained reference.
                rebuilt(&mut clients[0], &dep, &mut log);
                index = write_oracle(&mut clients[0], &dep, &traffic, usize::MAX, &mut log)?;
            }
            let want = expect_all(&index, &traffic.mix);
            let oracle = Oracle::Exact(&want);
            let probes = expect_probes(&index, &traffic);
            let reserve = if part.start == 0 { stream_s } else { 0.0 };
            for round in part {
                let t = round_s(round, reserve);
                closed.round(
                    &mut clients,
                    &traffic,
                    &oracle,
                    round * traffic.mix.len() / rounds,
                    t * DRIFT_CLOSED_SHARE,
                    Some((&probes, t * DRIFT_PROBE_SHARE)),
                    &mut clock,
                    &mut log,
                );
                if round % SETUP_EVERY == SETUP_EVERY - 1 {
                    drop(timed_setup()?);
                }
            }
        }
        (batch_us, range_us) = (closed.batch_us, closed.range_us);
    } else {
        let mut index = dep.reference.clone();
        let mut open = Log::default();
        let mut rebuilds = Vec::new();
        for round in 0..rounds {
            let t = round_s(round, 0.0);
            let want = expect_all(&index, &traffic.mix);
            let oracle = Oracle::Exact(&want);
            let base = round * traffic.mix.len() / rounds;
            let (o, _) = open_phase(
                &mut clients,
                &traffic.mix,
                &oracle,
                base,
                w.open_rate(),
                t * OPEN_SHARE,
                &mut clock,
                false,
            );
            open.absorb(o);
            let probes = (w == Workload::EdgeUniform)
                .then(|| (expect_probes(&index, &traffic), t * PROBE_SHARE));
            closed.round(
                &mut clients,
                &traffic,
                &oracle,
                base,
                t * CLOSED_SHARE,
                probes.as_ref().map(|(want, secs)| (want, *secs)),
                &mut clock,
                &mut log,
            );
            // This round's writes; the oracle then follows the served
            // index to its new generation.
            let batches = round * traffic.wave..(round + 1) * traffic.wave;
            let out = (&mut ingest_us, &mut rebuilds);
            write_probe(
                &mut clients[0],
                &dep,
                &traffic,
                batches.clone(),
                &mut log,
                out,
            );
            index = write_oracle(
                &mut clients[0],
                &dep,
                &traffic,
                traffic.points_in(batches.end),
                &mut log,
            )?;
            if round % SETUP_EVERY == SETUP_EVERY - 1 {
                drop(timed_setup()?);
            }
        }
        (batch_us, range_us) = match w {
            Workload::FleetHotspot => (open.of(Kind::Batch), open.of(Kind::Range)),
            _ => (closed.batch_us, closed.range_us),
        };
        rebuild_ms = rebuilds.iter().map(|r| r.0).collect();
        lookup_us = lookups(&open);
        lag_us = open.lag_us.clone();
        log.absorb(open);
    }
    let valid = generator_ok(&lag_us) && !rebuild_ms.is_empty();
    eprintln!(
        "perfbench: {} attempted, {} failed, generator lag p99 {:.1} us, {} lookups timed",
        log.attempted,
        log.failed,
        quantile(&lag_us, 0.99),
        lookup_us.len()
    );
    let ok_frac = (log.attempted - log.failed) as f64 / log.attempted.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("lookup_p50_us", median(&lookup_us), "us"),
        ("lookup_tail_us", quantile(&lookup_us, TAIL), "us"),
        ("ok_frac", ok_frac, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("ence", dep.ence, "ence"),
        ("closed_rps", closed.answered as f64 / closed.seconds, "1/s"),
        ("batch_p50_us", median(&batch_us), "us"),
        ("range_p50_us", median(&range_us), "us"),
        ("ingest_p50_us", median(&ingest_us), "us"),
        ("rebuild_p50_ms", median(&rebuild_ms), "ms"),
    ];
    drop(clients);
    drop(dep);
    Ok(Outcome {
        correct: valid && log.failed == 0,
        attempted: log.attempted,
        failed: log.failed,
        metrics,
    })
}

fn typed_metrics(client: &mut HttpClient, log: &mut Log) -> MetricsBody {
    log.attempted += 1;
    match client.call(&Request::Metrics) {
        Ok(Response::Metrics { metrics }) => *metrics,
        _ => {
            log.failed += 1;
            MetricsBody::empty()
        }
    }
}

/// Hits, misses and evictions of every cache serving the front: its
/// own, or the remote shards' behind a coordinator.
fn cache_counts(m: &MetricsBody) -> (f64, f64, f64) {
    let mut caches: Vec<&CacheStatsBody> = m.cache.iter().collect();
    for shard in &m.shards {
        if let Some(c) = shard.remote.as_ref().and_then(|r| r.cache.as_ref()) {
            caches.push(c);
        }
    }
    caches.iter().fold((0.0, 0.0, 0.0), |(h, mi, e), c| {
        (
            h + c.hits as f64,
            mi + c.misses as f64,
            e + c.evictions as f64,
        )
    })
}

fn point_of(q: &Query) -> Option<Point> {
    match q.request {
        Request::Lookup { x, y } => Some(Point::new(x, y)),
        _ => None,
    }
}

/// Shards of `service`'s topology a batch or range request touches.
fn fanout(service: &QueryService, q: &Query) -> usize {
    let topology = service.topology();
    match &q.request {
        Request::LookupBatch { points } => points
            .iter()
            .filter_map(|p| topology.shard_of(&Point::new(p.x, p.y)))
            .collect::<BTreeSet<_>>()
            .len(),
        Request::RangeQuery { rect } => Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
            .map_or(0, |r| topology.covering(&r).len()),
        _ => 1,
    }
}

/// The traced run: the same seeded inputs, with spans around every
/// call the benchmark makes, then the per-layer ladder and the layer
/// probes. Prints per-layer metrics only.
pub fn run(args: &Args) -> BoxResult<Outcome> {
    let w = args.workload;
    let s = args.seconds;
    let (dep, mut clients) = setup(w)?;
    let traffic = Traffic::new(&dep, args.seed, s);
    let mut log = Log::default();
    let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut clock = ScrapeClock::new();

    // Untraced, then traced, over the same inputs; the server's phase
    // histograms are read around the traced window.
    let want = expect_all(&dep.reference, &traffic.mix);
    let oracle = Oracle::Exact(&want);
    let window = if w == Workload::IngestDrift { 0.1 } else { 0.2 };
    let (plain, _) = open_phase(
        &mut clients,
        &traffic.mix,
        &oracle,
        0,
        w.open_rate(),
        s * window,
        &mut clock,
        false,
    );
    let m0 = typed_metrics(&mut clients[0], &mut log);
    let text0 = drive::scrape(&mut clients[0], &mut log, None);
    let (traced, tracer) = open_phase(
        &mut clients,
        &traffic.mix,
        &oracle,
        0,
        w.open_rate(),
        s * window,
        &mut clock,
        true,
    );
    let text1 = drive::scrape(&mut clients[0], &mut log, None);
    let m1 = typed_metrics(&mut clients[0], &mut log);
    let mut tracer = tracer.expect("traced phase records spans");
    let overhead = median(&lookups(&traced)) - median(&lookups(&plain));
    let gen_ok = generator_ok(&traced.lag_us) && generator_ok(&plain.lag_us);
    out.push(("trace.overhead_us", overhead, "us"));
    out.push(("gen.lag_p99_us", quantile(&traced.lag_us, 0.99), "us"));
    out.push(("gen.sent", traced.lag_us.len() as f64, "count"));
    let mut scrape_us = plain.scrape_us.clone();
    scrape_us.extend(&traced.scrape_us);
    log.absorb(plain);
    log.absorb(traced);

    let (p0, p1) = (http_phases(&text0), http_phases(&text1));
    let phase_us = |i: usize| {
        let n = p1[i].1 - p0[i].1;
        if n > 0.0 {
            (p1[i].0 - p0[i].0) / n * 1e6
        } else {
            0.0
        }
    };
    let (read, handle, write) = (phase_us(0), phase_us(1), phase_us(2));
    let post = mean(tracer.self_times().get("post").map_or(&[][..], |v| v));
    out.push(("http.roundtrip_us", post, "us"));
    out.push(("http.server_read_us", read, "us"));
    out.push(("http.server_handle_us", handle, "us"));
    out.push(("http.server_write_us", write, "us"));
    out.push(("http.wire_us", post - read - handle - write, "us"));

    let (h0, mi0, e0) = cache_counts(&m0);
    let (h1, mi1, e1) = cache_counts(&m1);
    let (hits, misses) = (h1 - h0, mi1 - mi0);
    out.push((
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    ));
    out.push(("cache.evictions", e1 - e0, "count"));

    // The ladder and the layer probes run against the setup index,
    // before any write changes what is served.
    let rungs = ladder(&dep, &mut clients[0], &traffic.mix, 15)?;
    let mut prev = 0.0;
    for (i, (name, ns)) in RUNGS.iter().zip(rungs).enumerate() {
        let scale = if name.ends_with("_us") { 1e-3 } else { 1.0 };
        out.push((name, ns * scale, if scale == 1.0 { "ns" } else { "us" }));
        const DELTAS: [&str; 8] = [
            "ladder.d1_frozen_ns",
            "ladder.d2_bare_ns",
            "ladder.d3_obs_ns",
            "ladder.d4_cache_ns",
            "ladder.d5_resil_ns",
            "ladder.d6_coord_ns",
            "ladder.d7_proto_ns",
            "ladder.d8_http_ns",
        ];
        out.push((DELTAS[i], ns - prev, "ns"));
        prev = ns;
    }

    // Codec cost per request kind, on the workload's own requests.
    let pools: [(Kind, &[Query]); 3] = [
        (Kind::Lookup, &traffic.mix),
        (Kind::Batch, &traffic.batches),
        (Kind::Range, &traffic.ranges),
    ];
    for (kind, pool) in pools {
        let reqs: Vec<&Request> = pool
            .iter()
            .filter(|q| q.kind == kind)
            .take(2048)
            .map(|q| &q.request)
            .collect();
        let answers: Vec<Response> = reqs.iter().map(|r| expected(&dep.reference, r)).collect();
        let (enc, dec, _, _) = codec_ns(&reqs, &answers, 7);
        let (en, dn) = match kind {
            Kind::Lookup => ("proto.encode_request_ns", "proto.decode_response_ns"),
            Kind::Batch => ("proto.encode_batch_ns", "proto.decode_batch_ns"),
            Kind::Range => ("proto.encode_range_ns", "proto.decode_range_ns"),
        };
        out.push((en, enc, "ns"));
        out.push((dn, dec, "ns"));
    }
    let ingest_reqs: Vec<Request> = traffic
        .writes
        .iter()
        .take(16)
        .map(|b| Request::IngestBatch { points: b.clone() })
        .collect();
    let ingest_refs: Vec<&Request> = ingest_reqs.iter().collect();
    let (enc, _, _, _) = codec_ns(&ingest_refs, &[], 7);
    out.push(("proto.encode_ingest_ns", enc, "ns"));
    let mix: Vec<&Request> = traffic.mix.iter().take(4096).map(|q| &q.request).collect();
    let mix_answers: Vec<Response> = mix.iter().map(|r| expected(&dep.reference, r)).collect();
    let (_, _, req_bytes, resp_bytes) = codec_ns(&mix, &mix_answers, 1);
    out.push(("proto.request_bytes", req_bytes, "bytes"));
    out.push(("proto.response_bytes", resp_bytes, "bytes"));

    // Coordinator cost per kind on a local 2×2, and how many of its
    // shards each of the workload's batch and range requests touches.
    let mut coord = dep.serving.service_over(&fsi::TopologySpec::local(2, 2))?;
    let batch_us = per_call_ns(&traffic.batches, 5, |q| {
        usize::from(!coord.dispatch(&q.request).is_error())
    }) / 1e3;
    let range_us = per_call_ns(&traffic.ranges, 5, |q| {
        usize::from(!coord.dispatch(&q.request).is_error())
    }) / 1e3;
    out.push(("topology.coord_batch_us", batch_us, "us"));
    out.push(("topology.coord_range_us", range_us, "us"));
    let multi: Vec<&Query> = match w {
        Workload::FleetHotspot => traffic
            .mix
            .iter()
            .filter(|q| q.kind != Kind::Lookup)
            .collect(),
        _ => traffic.batches.iter().chain(&traffic.ranges).collect(),
    };
    let touched: Vec<f64> = multi.iter().map(|q| fanout(&coord, q) as f64).collect();
    out.push(("topology.fanout_shards", mean(&touched), "shards"));

    // The fleet's real replica sets: dispatch straight at the slot's
    // set (HTTP members), and the counters from `Health`. Only the
    // fleet has them, so only the fleet reports them.
    if w == Workload::FleetHotspot {
        let topology = Arc::clone(dep.service.topology());
        let pts: Vec<Point> = traffic.mix.iter().filter_map(point_of).take(512).collect();
        let remote_us = per_call_ns(&pts, 3, |p| {
            let slot = topology.shard_of(p).expect("points lie inside the map");
            let backend: &dyn ShardBackend = topology.backends()[slot].as_ref();
            usize::from(
                !backend
                    .dispatch(&Request::Lookup { x: p.x, y: p.y })
                    .is_error(),
            )
        }) / 1e3;
        out.push(("resil.set_dispatch_remote_us", remote_us, "us"));
        let mut counts = [0.0; 4];
        log.attempted += 1;
        match clients[0].call(&Request::Health) {
            Ok(Response::Health { health }) => {
                for r in health.shards.iter().flat_map(|s| &s.replicas) {
                    counts[0] += r.attempts as f64;
                    counts[1] += r.retries as f64;
                    counts[2] += r.hedges as f64;
                    counts[3] += r.failures as f64;
                }
            }
            _ => log.failed += 1,
        }
        let names = [
            "resil.attempts",
            "resil.retries",
            "resil.hedges",
            "resil.failures",
        ];
        for (name, count) in names.into_iter().zip(counts) {
            out.push((name, count, "count"));
        }
    }

    // The workload's writes: the stream on ingest_drift, the closing
    // write probe elsewhere. Each publishing rebuild is replayed
    // afterwards through the public pipeline calls to split its time.
    let (ingest_log_points, buffered_max, passes): (usize, u64, Vec<(f64, usize)>);
    if w == Workload::IngestDrift {
        let (writes, reads, stream_tracer) =
            stream_phase(&dep, &mut clients, &traffic, stream_seconds(s), true);
        tracer.absorb(stream_tracer.expect("traced stream records spans"));
        scrape_us.extend(&writes.log.scrape_us);
        log.absorb(reads);
        ingest_log_points = writes.accepted as usize;
        buffered_max = writes.buffered_max;
        passes = writes
            .passes
            .iter()
            .filter_map(|p| p.published_log.map(|n| (p.ms, n)))
            .collect();
        log.absorb(writes.log);
        rebuilt(&mut clients[0], &dep, &mut log);
    } else {
        let (mut ingest, mut rebuilds) = (Vec::new(), Vec::new());
        let all = 0..traffic.writes.len();
        let out = (&mut ingest, &mut rebuilds);
        buffered_max = write_probe(&mut clients[0], &dep, &traffic, all, &mut log, out);
        ingest_log_points = rebuilds.last().map_or(0, |r| r.1);
        passes = rebuilds;
    }
    write_oracle(&mut clients[0], &dep, &traffic, usize::MAX, &mut log)?;
    out.push(("ingest.log_points", ingest_log_points as f64, "count"));
    out.push(("ingest.buffered_max", buffered_max as f64, "count"));
    out.push(("ingest.rebuilds", passes.len() as f64, "count"));
    let sampled: Vec<&(f64, usize)> = if passes.len() <= 5 {
        passes.iter().collect()
    } else {
        (0..5)
            .map(|i| &passes[i * (passes.len() - 1) / 4])
            .collect()
    };
    let mut split: [Vec<f64>; 4] = Default::default();
    for (pass_ms, n) in sampled {
        let [merge, train, freeze] = replay(&dep, &traffic, *n)?;
        split[0].push(merge);
        split[1].push(train);
        split[2].push(freeze);
        split[3].push(pass_ms - merge - train - freeze);
    }
    out.push(("pipeline.merge_ms", median(&split[0]), "ms"));
    out.push(("pipeline.train_ms", median(&split[1]), "ms"));
    out.push(("pipeline.freeze_ms", median(&split[2]), "ms"));
    out.push(("rebuild.publish_ms", median(&split[3]), "ms"));
    out.push(("obs.scrape_us", median(&scrape_us), "us"));

    // In-process append and drift-check cost on a fresh ingest-enabled
    // service, so the served buffer is left alone.
    let mut fresh = QueryService::from(dep.reference.clone())
        .with_rebuild(Arc::new(dep.dataset.clone()))
        .with_ingest(TaskSpec::act())?;
    let mut append = Vec::new();
    for batch in traffic.writes.iter().take(8) {
        let t = Instant::now();
        let got = fresh.dispatch(&Request::IngestBatch {
            points: batch.clone(),
        });
        append.push(micros(t.elapsed()));
        log.attempted += 1;
        log.failed += u64::from(!matches!(got, Response::Ingested { .. }));
    }
    let never = MaintenanceSpec {
        drift_threshold: 0.0,
        max_buffered: 0,
        max_staleness_ms: 0,
        poll_interval_ms: 25,
    };
    let mut drift = Vec::new();
    for _ in 0..8 {
        let t = Instant::now();
        let pass = fresh.maintain(&never, &dep.spec);
        drift.push(micros(t.elapsed()));
        log.attempted += 1;
        log.failed += u64::from(!matches!(pass, Ok(None)));
    }
    out.push(("ingest.append_us", median(&append), "us"));
    out.push(("ingest.drift_check_us", median(&drift), "us"));

    // Self time per span name.
    let selfs = tracer.self_times();
    for (name, span, unit, scale) in [
        ("span.request_self_us", "request", "us", 1.0),
        ("span.encode_us", "encode", "us", 1.0),
        ("span.post_us", "post", "us", 1.0),
        ("span.decode_us", "decode", "us", 1.0),
        ("span.check_us", "check", "us", 1.0),
        ("span.maintain_ms", "maintain", "ms", 1e-3),
    ] {
        let us = median(selfs.get(span).map_or(&[][..], |v| v));
        out.push((name, us * scale, unit));
    }
    let path = std::path::PathBuf::from(".perfbench").join(format!(
        "spans-{}-seed{}.csv",
        w.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    out.sort_by(|a, b| a.0.cmp(b.0));
    drop(clients);
    drop(dep);
    Ok(Outcome {
        correct: gen_ok && log.failed == 0,
        attempted: log.attempted,
        failed: log.failed,
        metrics: out,
    })
}
