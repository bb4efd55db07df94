//! Tracing for the per-layer run: spans recorded by this benchmark
//! around the public calls it makes (nothing is added inside the
//! program), and the interleaved per-layer ladder.

use crate::deploy::Deployment;
use crate::traffic::Query;
use crate::util::median;
use fsi::{
    decode_request, decode_response, encode_request, encode_response, CacheSpec, FrozenIndex,
    HttpClient, IndexHandle, LocalShard, Point, QueryService, ReplicaSet, Request,
    ResiliencePolicy, Response, ShardBackend, TopologySpec,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Span names that open a request; every other span with the same id
/// is one of its children.
const ROOTS: [&str; 3] = ["request", "write", "scrape"];

/// Spans written to the CSV file per run, which keeps it near 3 MB.
const MAX_WRITTEN: usize = 1 << 16;

pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; written out once, at the end of the run.
pub struct Tracer {
    epoch: Instant,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn next_id(&mut self) -> u32 {
        self.next += 1;
        self.next
    }

    pub fn span(&mut self, id: u32, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// One connection's spans and another's, ids kept apart.
    pub fn merged([mut first, second]: [Tracer; 2]) -> Tracer {
        first.absorb(second);
        first
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            ..s
        }));
        self.next += other.next;
    }

    /// Self time per span name, in µs: a root's duration minus the part
    /// of it its children cover; a child's whole duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_id: HashMap<u32, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            by_id.entry(s.id).or_default().push(s);
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for spans in by_id.values() {
            for root in spans.iter().filter(|s| ROOTS.contains(&s.name)) {
                let mut children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|s| !ROOTS.contains(&s.name))
                    .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                children.sort_unstable();
                let (mut covered, mut reach) = (0u64, root.start_ns);
                for (a, b) in children {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                let own = (root.end_ns - root.start_ns).saturating_sub(covered);
                out.entry(root.name).or_default().push(own as f64 / 1e3);
            }
            for child in spans.iter().filter(|s| !ROOTS.contains(&s.name)) {
                out.entry(child.name)
                    .or_default()
                    .push((child.end_ns - child.start_ns) as f64 / 1e3);
            }
        }
        out
    }

    /// Writes the first `MAX_WRITTEN` spans as CSV
    /// (`id,name,start_ns,end_ns`); every span counts in the metrics.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns")?;
        for s in self.spans.iter().take(MAX_WRITTEN) {
            writeln!(out, "{},{},{},{}", s.id, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Per-call cost of each ladder rung, in ns, in rung order.
pub const RUNGS: [&str; 8] = [
    "frozen.lookup_ns",
    "service.dispatch_bare_ns",
    "service.dispatch_obs_ns",
    "service.dispatch_cache_ns",
    "resil.set_dispatch_us",
    "topology.coord_dispatch_us",
    "proto.codec_dispatch_us",
    "http.call_us",
];

fn lookup(p: &Point) -> Request {
    Request::Lookup { x: p.x, y: p.y }
}

fn leaf(response: &Response) -> usize {
    match response {
        Response::Decision { decision } => decision.leaf_id,
        other => panic!("ladder lookup answered {other:?}"),
    }
}

/// The interleaved ladder. Every round sweeps a fresh window of the
/// workload's own lookup points through each rung in turn: the same
/// points, the same process, one rung right after the other, so drift
/// in the host's speed hits every rung alike. Returns each rung's
/// median per-call cost in ns.
pub fn ladder(
    dep: &Deployment,
    client: &mut HttpClient,
    pool: &[Query],
    rounds: usize,
) -> Result<[f64; 8], String> {
    const WINDOW: usize = 4096;
    const HTTP_WINDOW: usize = 256;
    let index: &FrozenIndex = &dep.reference;
    let mut bare = QueryService::from(index.clone()).with_metrics(false);
    let mut obs = QueryService::from(index.clone());
    let mut cached = QueryService::from(index.clone())
        .with_cache(CacheSpec::default())
        .map_err(|e| e.to_string())?;
    let member =
        || Box::new(LocalShard::new(IndexHandle::new(index.clone()))) as Box<dyn ShardBackend>;
    let set = ReplicaSet::new(vec![member(), member()], ResiliencePolicy::default())
        .map_err(|e| e.to_string())?;
    let mut coord = dep
        .serving
        .service_over(&TopologySpec::local(2, 2))
        .map_err(|e| e.to_string())?;
    let lookups: Vec<(Point, &Query)> = pool
        .iter()
        .filter_map(|q| match q.request {
            Request::Lookup { x, y } => Some((Point::new(x, y), q)),
            _ => None,
        })
        .collect();
    if lookups.len() < WINDOW {
        return Err(format!(
            "ladder needs {WINDOW} lookups, pool has {}",
            lookups.len()
        ));
    }

    let mut per_rung: Vec<Vec<f64>> = vec![Vec::new(); 8];
    for round in 0..rounds {
        let start = (round * WINDOW) % (lookups.len() - WINDOW + 1);
        let window = &lookups[start..start + WINDOW];
        let http_window = &window[..HTTP_WINDOW];
        let mut time = |rung: usize, n: usize, f: &mut dyn FnMut() -> usize| {
            let t = Instant::now();
            black_box(f());
            per_rung[rung].push(t.elapsed().as_nanos() as f64 / n as f64);
        };
        time(0, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| index.lookup(black_box(p)).map_or(0, |d| d.leaf_id))
                .sum()
        });
        time(1, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| leaf(&bare.dispatch(&lookup(p))))
                .sum()
        });
        time(2, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| leaf(&obs.dispatch(&lookup(p))))
                .sum()
        });
        time(3, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| leaf(&cached.dispatch(&lookup(p))))
                .sum()
        });
        time(4, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| leaf(&set.dispatch(&lookup(p))))
                .sum()
        });
        time(5, WINDOW, &mut || {
            window
                .iter()
                .map(|(p, _)| leaf(&coord.dispatch(&lookup(p))))
                .sum()
        });
        time(6, WINDOW, &mut || {
            window
                .iter()
                .map(|(_, q)| {
                    let request = decode_request(black_box(&q.body)).expect("own encoding decodes");
                    let wire = encode_response(&coord.dispatch(&request));
                    leaf(&decode_response(&wire).expect("own encoding decodes"))
                })
                .sum()
        });
        let mut failed = false;
        time(7, HTTP_WINDOW, &mut || {
            http_window
                .iter()
                .map(|(_, q)| match client.post(&q.body) {
                    Ok((200, text)) => decode_response(&text).map_or(0, |r| leaf(&r)),
                    _ => {
                        failed = true;
                        0
                    }
                })
                .sum()
        });
        if failed {
            return Err("ladder HTTP rung failed".into());
        }
    }
    let mut out = [0.0; 8];
    for (rung, samples) in per_rung.iter().enumerate() {
        out[rung] = median(samples);
    }
    Ok(out)
}

/// Median per-call ns of `f` over `items`, repeated `rounds` times.
pub fn per_call_ns<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T) -> usize) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let mut acc = 0usize;
        for item in items {
            acc = acc.wrapping_add(f(black_box(item)));
        }
        black_box(acc);
        samples.push(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    median(&samples)
}

/// Encode/decode cost of one request kind: `proto.encode_request` of
/// the requests and `proto.decode_response` of their reference answers.
pub fn codec_ns(
    requests: &[&Request],
    answers: &[Response],
    rounds: usize,
) -> (f64, f64, f64, f64) {
    let wires: Vec<String> = answers.iter().map(encode_response).collect();
    let encode = per_call_ns(requests, rounds, |r| encode_request(r).len());
    let decode = per_call_ns(&wires, rounds, |w| usize::from(decode_response(w).is_ok()));
    let req_bytes = crate::util::mean(
        &requests
            .iter()
            .map(|r| encode_request(r).len() as f64)
            .collect::<Vec<_>>(),
    );
    let resp_bytes = crate::util::mean(&wires.iter().map(|w| w.len() as f64).collect::<Vec<_>>());
    (encode, decode, req_bytes, resp_bytes)
}
