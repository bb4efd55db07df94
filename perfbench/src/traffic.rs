//! Seeded request pools and the answer oracle.
//!
//! Everything a run sends is generated here from `--seed`; the program
//! under test only ever sees the generated requests. Expected answers
//! come from one reference `FrozenIndex`, and every answer is compared
//! bit for bit (scores by their IEEE-754 bits, not by `==`).

use crate::util::Rng;
use fsi::{
    encode_request, DecisionBody, FrozenIndex, IngestBody, Point, Rect, Request, Response,
    WirePoint, WireRect,
};

/// The read request kinds the pools hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Batch,
    Range,
}

impl Kind {
    pub fn of(request: &Request) -> Kind {
        match request {
            Request::Lookup { .. } => Kind::Lookup,
            Request::LookupBatch { .. } => Kind::Batch,
            Request::RangeQuery { .. } => Kind::Range,
            other => panic!("request pools hold only reads, got {other:?}"),
        }
    }
}

/// One request with its wire body encoded up front (the traced run and
/// the ladder post pre-encoded bodies).
pub struct Query {
    pub kind: Kind,
    pub request: Request,
    pub body: String,
}

impl Query {
    pub fn new(request: Request) -> Self {
        Query {
            kind: Kind::of(&request),
            body: encode_request(&request),
            request,
        }
    }
}

/// Where generated points fall.
#[derive(Clone, Copy)]
pub enum Spread {
    /// Uniform over the map.
    Uniform,
    /// Zipf(`s`) over the cells of a `side × side` grid (`side` even),
    /// ranks scattered over the map by a seeded permutation.
    Zipf { side: usize, s: f64 },
}

/// A seeded point source over the map's bounds.
pub struct Points {
    rng: Rng,
    bounds: Rect,
    spread: Spread,
    /// Zipf CDF over ranks and the rank → cell permutation.
    cdf: Vec<f64>,
    cells: Vec<usize>,
}

impl Points {
    pub fn new(seed: u64, stream: u64, bounds: Rect, spread: Spread) -> Self {
        let mut rng = Rng::new(seed, stream);
        let (mut cdf, mut cells) = (Vec::new(), Vec::new());
        if let Spread::Zipf { side, s } = spread {
            let n = side * side;
            let mut acc = 0.0;
            for rank in 0..n {
                acc += 1.0 / ((rank + 1) as f64).powf(s);
                cdf.push(acc);
            }
            for c in &mut cdf {
                *c /= acc;
            }
            // Ranks are dealt round-robin to the four quadrants, so every
            // shard of a 2×2 topology carries the same share of traffic
            // whatever the seed; within a quadrant, cells are shuffled.
            let half = side / 2;
            let mut quadrants: Vec<Vec<usize>> = vec![Vec::new(); 4];
            for cell in 0..n {
                let (row, col) = (cell / side, cell % side);
                quadrants[2 * usize::from(row >= half) + usize::from(col >= half)].push(cell);
            }
            for q in &mut quadrants {
                for i in (1..q.len()).rev() {
                    q.swap(i, rng.below(i + 1));
                }
            }
            cells = (0..n).map(|rank| quadrants[rank % 4][rank / 4]).collect();
        }
        Points {
            rng,
            bounds,
            spread,
            cdf,
            cells,
        }
    }

    pub fn point(&mut self) -> WirePoint {
        let b = self.bounds;
        let (fx, fy) = match self.spread {
            Spread::Uniform => (self.rng.unit(), self.rng.unit()),
            Spread::Zipf { side, .. } => {
                let u = self.rng.unit();
                let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
                let cell = self.cells[rank];
                let (row, col) = (cell / side, cell % side);
                (
                    (col as f64 + self.rng.unit()) / side as f64,
                    (row as f64 + self.rng.unit()) / side as f64,
                )
            }
        };
        WirePoint::new(b.min_x + fx * b.width(), b.min_y + fy * b.height())
    }

    pub fn points(&mut self, n: usize) -> Vec<WirePoint> {
        (0..n).map(|_| self.point()).collect()
    }

    /// A rectangle of 2–12 % of the map per side around a drawn point,
    /// kept inside the map.
    pub fn rect(&mut self) -> WireRect {
        let b = self.bounds;
        let c = self.point();
        let w = b.width() * (0.02 + 0.1 * self.rng.unit());
        let h = b.height() * (0.02 + 0.1 * self.rng.unit());
        let x0 = (c.x - w / 2.0).clamp(b.min_x, b.max_x - w);
        let y0 = (c.y - h / 2.0).clamp(b.min_y, b.max_y - h);
        WireRect::new(x0, y0, x0 + w, y0 + h)
    }

    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// The answer a single, unsharded `FrozenIndex` gives to `request`.
pub fn expected(index: &FrozenIndex, request: &Request) -> Response {
    let decide = |p: &WirePoint| {
        index
            .lookup(&Point::new(p.x, p.y))
            .map(DecisionBody::from)
            .expect("generated points lie inside the map")
    };
    match request {
        Request::Lookup { x, y } => Response::Decision {
            decision: decide(&WirePoint::new(*x, *y)),
        },
        Request::LookupBatch { points } => Response::Decisions {
            decisions: points.iter().map(decide).collect(),
        },
        Request::RangeQuery { rect } => {
            let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
                .expect("generated rectangles are well formed");
            let mut ids = index.range_query(&query);
            ids.sort_unstable();
            ids.dedup();
            Response::Regions { ids }
        }
        other => panic!("no reference answer for {other:?}"),
    }
}

fn same_decision(a: &DecisionBody, b: &DecisionBody) -> bool {
    a.leaf_id == b.leaf_id
        && a.group == b.group
        && a.raw_score.to_bits() == b.raw_score.to_bits()
        && a.calibrated_score.to_bits() == b.calibrated_score.to_bits()
}

/// Bit-for-bit answer comparison.
pub fn same(got: &Response, want: &Response) -> bool {
    match (got, want) {
        (Response::Decision { decision: a }, Response::Decision { decision: b }) => {
            same_decision(a, b)
        }
        (Response::Decisions { decisions: a }, Response::Decisions { decisions: b }) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_decision(x, y))
        }
        (Response::Regions { ids: a }, Response::Regions { ids: b }) => a == b,
        _ => false,
    }
}

/// How answers are judged during a phase.
pub enum Oracle<'a> {
    /// Bit-identical to the reference answer at the same pool position.
    Exact(&'a [Response]),
    /// The right kind of answer: the served index is being retrained
    /// underneath, so only the final probe set is compared exactly.
    Shape,
}

impl Oracle<'_> {
    pub fn check(&self, i: usize, query: &Query, got: &Response) -> bool {
        match self {
            Oracle::Exact(want) => same(got, &want[i]),
            Oracle::Shape => matches!(
                (query.kind, got),
                (Kind::Lookup, Response::Decision { .. })
                    | (Kind::Batch, Response::Decisions { .. })
                    | (Kind::Range, Response::Regions { .. })
            ),
        }
    }
}

/// One streamed observation batch: `n` points around a hotspot
/// centre, mostly one cohort with mostly positive outcomes, so every
/// wave shifts the statistics the drift detector watches.
pub fn hotspot_batch(
    rng: &mut Rng,
    bounds: &Rect,
    centre: (f64, f64),
    n: usize,
) -> Vec<IngestBody> {
    (0..n)
        .map(|_| {
            let fx = (centre.0 + 0.1 * (rng.unit() - 0.5)).clamp(0.0, 0.999_999);
            let fy = (centre.1 + 0.1 * (rng.unit() - 0.5)).clamp(0.0, 0.999_999);
            let group = u32::from(rng.unit() < 0.8);
            let label = rng.unit() < 0.75;
            IngestBody::new(
                bounds.min_x + fx * bounds.width(),
                bounds.min_y + fy * bounds.height(),
                group,
                label,
            )
        })
        .collect()
}
