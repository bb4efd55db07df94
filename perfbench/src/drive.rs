//! Load generation over the two keep-alive connections: an open loop at
//! a fixed rate, a closed loop, the ingest stream, and the 1 Hz
//! `/metrics` scrape that rides on one connection.

use crate::trace::Tracer;
use crate::traffic::{Kind, Oracle, Query};
use crate::util::{micros, wait_until};
use fsi::{
    decode_response, encode_request, HttpClient, IngestBody, MaintenanceSpec, PipelineSpec,
    QueryService, Request, Response,
};
use std::time::{Duration, Instant};

/// When connection 0 next scrapes `/metrics`: once a second, kept
/// across phases so short phases still scrape at that rate.
pub struct ScrapeClock(Instant);

impl ScrapeClock {
    pub fn new() -> Self {
        ScrapeClock(Instant::now() + Duration::from_secs(1))
    }

    /// Whether a scrape is due at `now`; if so, schedules the next one.
    fn due(&mut self, now: Instant) -> bool {
        if now < self.0 {
            return false;
        }
        self.0 = (self.0 + Duration::from_secs(1)).max(now);
        true
    }
}

/// What one connection saw during one phase.
#[derive(Default)]
pub struct Log {
    /// Open loop: due time → answer.
    pub latency_us: Vec<(Kind, f64)>,
    /// How late the generator itself sent each open-loop request: send
    /// time minus the later of its due time and the previous answer.
    pub lag_us: Vec<f64>,
    pub scrape_us: Vec<f64>,
    /// Closed loop: requests answered (scrapes not counted).
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Log {
    pub fn absorb(&mut self, other: Log) {
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        self.scrape_us.extend(other.scrape_us);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn of(&self, kind: Kind) -> Vec<f64> {
        self.latency_us
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, v)| v)
            .collect()
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Which slice of a request pool a connection walks: positions
/// `first, first + stride, …`, wrapping around.
#[derive(Clone, Copy)]
pub struct Walk {
    pub first: usize,
    pub stride: usize,
}

impl Walk {
    pub fn at(self, i: usize, len: usize) -> usize {
        (self.first + i * self.stride) % len
    }
}

/// Sends one pooled request; traced calls split it into encode, post
/// and decode spans under one root span.
fn send(
    client: &mut HttpClient,
    query: &Query,
    tracer: Option<&mut Tracer>,
) -> (Option<Response>, Instant, Option<u32>) {
    match tracer {
        None => {
            let got = client.call(&query.request).ok();
            (got, Instant::now(), None)
        }
        Some(tracer) => {
            let id = tracer.next_id();
            let t0 = Instant::now();
            let body = encode_request(&query.request);
            let t1 = Instant::now();
            let posted = client.post(&body);
            let t2 = Instant::now();
            let got = match posted {
                Ok((200, text)) => decode_response(&text).ok(),
                _ => None,
            };
            let t3 = Instant::now();
            tracer.span(id, "encode", t0, t1);
            tracer.span(id, "post", t1, t2);
            tracer.span(id, "decode", t2, t3);
            (got, t3, Some(id))
        }
    }
}

/// Checks an answer, inside a `check` span and closing the request's
/// root span when traced.
fn judge(
    oracle: &Oracle,
    pos: usize,
    query: &Query,
    got: Option<Response>,
    sent: Instant,
    traced: Option<(&mut Tracer, u32)>,
) -> bool {
    let t = Instant::now();
    let ok = got.is_some_and(|r| oracle.check(pos, query, &r));
    if let Some((tracer, id)) = traced {
        let end = Instant::now();
        tracer.span(id, "check", t, end);
        tracer.span(id, "request", sent, end);
    }
    ok
}

/// `GET /metrics` over a load connection; answers the body.
pub fn scrape(client: &mut HttpClient, log: &mut Log, tracer: Option<&mut Tracer>) -> String {
    let t = Instant::now();
    let got = client.get("/metrics");
    let end = Instant::now();
    log.scrape_us.push(micros(end - t));
    if let Some(tracer) = tracer {
        let id = tracer.next_id();
        tracer.span(id, "scrape", t, end);
    }
    match got {
        Ok((200, text)) => {
            log.record(true);
            text
        }
        _ => {
            log.record(false);
            String::new()
        }
    }
}

/// An open-loop schedule for one connection: request `i` is due at
/// `start + offset + i × interval`.
#[derive(Clone, Copy)]
pub struct Pace {
    pub start: Instant,
    pub offset: Duration,
    pub interval: Duration,
}

/// Sends `pool` requests on schedule until `stop(due)` says so. Each
/// latency is timed from the request's due time, so a stall is charged
/// to every request it delays.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    client: &mut HttpClient,
    pool: &[Query],
    oracle: &Oracle,
    walk: Walk,
    pace: Pace,
    mut scrapes: Option<&mut ScrapeClock>,
    mut tracer: Option<&mut Tracer>,
    stop: &dyn Fn(Instant) -> bool,
) -> Log {
    let mut log = Log::default();
    let mut prev_done = pace.start;
    for i in 0.. {
        let due = pace.start + pace.offset + pace.interval * i as u32;
        if stop(due) {
            break;
        }
        if scrapes.as_mut().is_some_and(|c| c.due(due)) {
            scrape(client, &mut log, tracer.as_deref_mut());
        }
        wait_until(due);
        let sent = Instant::now();
        log.lag_us.push(micros(sent - due.max(prev_done)));
        let pos = walk.at(i, pool.len());
        let query = &pool[pos];
        let (got, done, id) = send(client, query, tracer.as_deref_mut());
        prev_done = done;
        let traced = id.and_then(|id| tracer.as_deref_mut().map(|t| (t, id)));
        let ok = judge(oracle, pos, query, got, sent, traced);
        log.record(ok);
        log.latency_us.push((query.kind, micros(done - due)));
    }
    log
}

/// Sends `pool` requests back to back until `end`, counting the
/// answered ones (nothing per request, so memory does not grow with
/// throughput).
pub fn closed_loop(
    client: &mut HttpClient,
    pool: &[Query],
    oracle: &Oracle,
    walk: Walk,
    end: Instant,
    mut scrapes: Option<&mut ScrapeClock>,
) -> Log {
    let mut log = Log::default();
    for i in 0.. {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        if scrapes.as_mut().is_some_and(|c| c.due(sent)) {
            scrape(client, &mut log, None);
            continue;
        }
        let pos = walk.at(i, pool.len());
        let query = &pool[pos];
        let (got, _, _) = send(client, query, None);
        log.record(judge(oracle, pos, query, got, sent, None));
        log.completed += 1;
    }
    log
}

/// One maintenance pass of the ingest stream.
pub struct Pass {
    pub ms: f64,
    /// Points folded into the ingest log when the pass published.
    pub published_log: Option<usize>,
}

/// What the writer connection saw.
#[derive(Default)]
pub struct WriteLog {
    pub log: Log,
    pub ingest_us: Vec<f64>,
    pub passes: Vec<Pass>,
    pub buffered_max: u64,
    pub accepted: u64,
}

/// The ingest stream: batch `k` is sent at `start + k × interval` (or
/// as soon as the previous pass allows), then the writer runs one
/// `QueryService::maintain` pass on its in-process service clone.
#[allow(clippy::too_many_arguments)]
pub fn ingest_stream(
    client: &mut HttpClient,
    service: &mut QueryService,
    batches: &[Vec<IngestBody>],
    policy: &MaintenanceSpec,
    spec: &PipelineSpec,
    start: Instant,
    interval: Duration,
    mut tracer: Option<&mut Tracer>,
) -> WriteLog {
    let mut out = WriteLog::default();
    let mut scrapes = ScrapeClock::new();
    for (k, batch) in batches.iter().enumerate() {
        let due = start + interval * k as u32;
        if scrapes.due(Instant::now()) {
            scrape(client, &mut out.log, tracer.as_deref_mut());
        }
        wait_until(due);
        let sent = Instant::now();
        let id = tracer.as_deref_mut().map(Tracer::next_id);
        let got = client.call(&Request::IngestBatch {
            points: batch.clone(),
        });
        let done = Instant::now();
        out.ingest_us.push(micros(done - sent));
        let ok = match got {
            Ok(Response::Ingested {
                accepted, buffered, ..
            }) => {
                out.accepted += accepted;
                out.buffered_max = out.buffered_max.max(buffered);
                accepted == batch.len() as u64
            }
            _ => false,
        };
        out.log.record(ok);
        let pass = service.maintain(policy, spec);
        let end = Instant::now();
        if let (Some(tracer), Some(id)) = (tracer.as_deref_mut(), id) {
            tracer.span(id, "ingest_post", sent, done);
            tracer.span(id, "maintain", done, end);
            tracer.span(id, "write", sent, end);
        }
        out.log.record(pass.is_ok());
        out.passes.push(Pass {
            ms: (end - done).as_secs_f64() * 1e3,
            published_log: matches!(pass, Ok(Some(_))).then_some(out.accepted as usize),
        });
    }
    out
}

/// Sums and counts of the server's read/handle/write phase histograms
/// in a Prometheus scrape, in that order.
pub fn http_phases(text: &str) -> [(f64, f64); 3] {
    let mut out = [(0.0, 0.0); 3];
    for line in text.lines() {
        for (i, phase) in ["read", "handle", "write"].iter().enumerate() {
            let label = format!("{{phase=\"{phase}\"}} ");
            let value = |prefix: &str| {
                line.strip_prefix(prefix)
                    .and_then(|rest| rest.strip_prefix(label.as_str()))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            };
            if let Some(v) = value("fsi_http_phase_seconds_sum") {
                out[i].0 = v;
            }
            if let Some(v) = value("fsi_http_phase_seconds_count") {
                out[i].1 = v;
            }
        }
    }
    out
}
