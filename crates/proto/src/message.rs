//! The request/response messages and their versioned wire envelopes.

use crate::error::ProtoError;
use crate::wire::{
    DecisionBody, ErrorBody, HealthBody, IngestBody, MetricsBody, PreparedBody, RebuildReport,
    StatsBody, WirePoint, WireRect,
};
use fsi_pipeline::PipelineSpec;
use serde::{Deserialize, Serialize};

/// The protocol version this build speaks. Bumped on any wire-breaking
/// change; [`decode_request`] / [`decode_response`] reject other
/// versions instead of misinterpreting them.
pub const PROTO_VERSION: u32 = 1;

/// One query against a serving deployment.
///
/// Externally tagged on the wire: `{"Lookup":{"x":0.3,"y":0.7}}`,
/// `"Stats"`, … — see the crate docs for full examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Map one point to its fair-neighborhood decision.
    Lookup {
        /// Map-space x coordinate.
        x: f64,
        /// Map-space y coordinate.
        y: f64,
    },
    /// Map a batch of points in one round-trip (the high-throughput
    /// path: one envelope, one response, amortized transport cost).
    LookupBatch {
        /// The query points, answered in order.
        points: Vec<WirePoint>,
    },
    /// Every neighborhood a closed map-space rectangle touches.
    RangeQuery {
        /// The query rectangle.
        rect: WireRect,
    },
    /// Append one observed point to the serving deployment's delta
    /// buffer (the streaming write path). The point is routed to its
    /// owning shard; the index itself is untouched until a maintenance
    /// pass merges the buffer and rebuilds.
    Ingest {
        /// Map-space x coordinate.
        x: f64,
        /// Map-space y coordinate.
        y: f64,
        /// Opaque cohort tag, tracked per cell for drift detection.
        group: u32,
        /// Observed binary outcome for the served task.
        label: bool,
    },
    /// Append a batch of observed points in one round-trip (the
    /// high-throughput write path; a coordinator fans the batch out to
    /// owning shards, same shape as [`Request::LookupBatch`]).
    IngestBatch {
        /// The observations, accepted in order.
        points: Vec<IngestBody>,
    },
    /// Service statistics: shard generations, index size, backend.
    Stats,
    /// Retrain with `spec` and hot-swap the result into every shard.
    Rebuild {
        /// The pipeline spec the new index is built from.
        spec: PipelineSpec,
    },
    /// Phase one of an orchestrated two-phase rebuild: retrain with
    /// `spec` and *stage* the result without serving it. The staged
    /// index only goes live on a later [`Request::RebuildCommit`], so a
    /// coordinator can prepare every shard before any of them publishes
    /// — no client ever observes a mixed-generation fleet.
    RebuildPrepare {
        /// The pipeline spec the staged index is built from.
        spec: PipelineSpec,
        /// Ingested observations to merge into the shard's dataset
        /// before retraining, in global accept order. Tree splits are
        /// global, so a maintenance coordinator ships every shard the
        /// *same* full delta — each shard merges it deterministically
        /// and the fleet stays bit-identical. Optional so v1 envelopes
        /// encoded before streaming ingestion existed still decode.
        delta: Option<Vec<IngestBody>>,
    },
    /// Phase two of an orchestrated rebuild: publish the index staged
    /// by the last [`Request::RebuildPrepare`].
    RebuildCommit,
    /// Abandon an orchestrated rebuild: drop any staged index without
    /// publishing it. Idempotent — aborting with nothing staged is a
    /// no-op, so a coordinator can always abort every shard after a
    /// partial prepare failure.
    RebuildAbort,
    /// One merged telemetry snapshot: request counts, latency
    /// histograms, error tallies, cache and per-shard health. A
    /// topology-aware coordinator scatter-gathers the snapshots of its
    /// remote shards into [`crate::ShardObsBody::remote`].
    Metrics,
    /// Fleet health: per-shard breaker state and replica counters from
    /// the resilience layer. Cheap — answered from coordinator-local
    /// atomics, no scatter-gather round-trips.
    Health,
}

impl Request {
    /// Semantic validation, run by [`decode_request`] before a request
    /// reaches any service: finite coordinates, ordered rectangle
    /// extents, and a well-formed rebuild spec.
    pub fn validate(&self) -> Result<(), ProtoError> {
        match self {
            Request::Lookup { x, y } => WirePoint::new(*x, *y).validate(),
            Request::LookupBatch { points } => {
                for (index, p) in points.iter().enumerate() {
                    p.validate().map_err(|e| {
                        ProtoError::InvalidRequest(format!("batch point #{index}: {e}"))
                    })?;
                }
                Ok(())
            }
            Request::RangeQuery { rect } => rect.validate(),
            Request::Ingest { x, y, .. } => WirePoint::new(*x, *y).validate(),
            Request::IngestBatch { points } => {
                for (index, p) in points.iter().enumerate() {
                    p.validate().map_err(|e| {
                        ProtoError::InvalidRequest(format!("ingest point #{index}: {e}"))
                    })?;
                }
                Ok(())
            }
            Request::Stats => Ok(()),
            Request::Rebuild { spec } => spec
                .validate()
                .map_err(|e| ProtoError::InvalidRequest(e.to_string())),
            Request::RebuildPrepare { spec, delta } => {
                spec.validate()
                    .map_err(|e| ProtoError::InvalidRequest(e.to_string()))?;
                for (index, p) in delta.iter().flatten().enumerate() {
                    p.validate().map_err(|e| {
                        ProtoError::InvalidRequest(format!("delta point #{index}: {e}"))
                    })?;
                }
                Ok(())
            }
            Request::RebuildCommit | Request::RebuildAbort | Request::Metrics | Request::Health => {
                Ok(())
            }
        }
    }
}

/// The answer to one [`Request`].
///
/// Every variant wraps a named body struct so the wire shape stays
/// stable when fields grow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Lookup`].
    Decision {
        /// The served decision.
        decision: DecisionBody,
    },
    /// Answer to [`Request::LookupBatch`], in request order.
    Decisions {
        /// One decision per query point.
        decisions: Vec<DecisionBody>,
    },
    /// Answer to [`Request::RangeQuery`]: touched neighborhood ids,
    /// ascending, deduplicated.
    Regions {
        /// The neighborhood (leaf) ids.
        ids: Vec<usize>,
    },
    /// Answer to [`Request::Ingest`] / [`Request::IngestBatch`].
    Ingested {
        /// Observations accepted by this request.
        accepted: u64,
        /// Observations sitting in the answering deployment's delta
        /// buffer after the accept (the occupancy a maintenance policy
        /// triggers on).
        buffered: u64,
        /// The live index generation the buffer is stacked on — bumps
        /// when a maintenance rebuild folds the buffer in.
        generation: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The service statistics. Boxed so the rare, field-heavy
        /// variants don't widen the whole enum — `Response` rides the
        /// lookup hot path by value, and the common `Decision` variant
        /// must stay a small move.
        stats: Box<StatsBody>,
    },
    /// Answer to [`Request::Rebuild`].
    Rebuilt {
        /// What the rebuild did (boxed; see [`Response::Stats`]).
        report: Box<RebuildReport>,
    },
    /// Answer to [`Request::RebuildPrepare`]: the index is staged,
    /// waiting for the commit.
    Prepared {
        /// What was staged (boxed; see [`Response::Stats`]).
        prepared: Box<PreparedBody>,
    },
    /// Answer to [`Request::RebuildCommit`].
    Committed {
        /// The generation the published index now serves at.
        generation: u64,
    },
    /// Answer to [`Request::RebuildAbort`]: any staged index was
    /// dropped; the live generation is untouched.
    Aborted,
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The merged telemetry snapshot (boxed; see
        /// [`Response::Stats`]).
        metrics: Box<MetricsBody>,
    },
    /// Answer to [`Request::Health`].
    Health {
        /// The fleet health snapshot (boxed; see [`Response::Stats`]).
        health: Box<HealthBody>,
    },
    /// Any failure, with a machine-readable code.
    Error {
        /// The structured failure.
        error: ErrorBody,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: crate::wire::ErrorCode, message: impl Into<String>) -> Self {
        Response::Error {
            error: ErrorBody::new(code, message),
        }
    }

    /// Whether this response reports a failure.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// The versioned frame a [`Request`] crosses a transport in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// The request payload.
    pub body: Request,
}

/// The versioned frame a [`Response`] crosses a transport in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// The response payload.
    pub body: Response,
}

/// A borrowed envelope: the same `{"v":…,"body":…}` wire form as
/// [`RequestEnvelope`] / [`ResponseEnvelope`], serialized without
/// cloning the message into an owned envelope first.
struct EnvelopeRef<'a, T> {
    body: &'a T,
}

impl<T: Serialize> Serialize for EnvelopeRef<'_, T> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("v".to_string(), PROTO_VERSION.to_value()),
            ("body".to_string(), self.body.to_value()),
        ])
    }
}

/// Serializes a request into its versioned wire form.
pub fn encode_request(request: &Request) -> String {
    serde_json::to_string(&EnvelopeRef { body: request })
        .expect("protocol messages always serialize")
}

/// Serializes a response into its versioned wire form.
pub fn encode_response(response: &Response) -> String {
    serde_json::to_string(&EnvelopeRef { body: response })
        .expect("protocol messages always serialize")
}

fn check_version(v: u32) -> Result<(), ProtoError> {
    if v != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion {
            got: v,
            expected: PROTO_VERSION,
        });
    }
    Ok(())
}

/// Decodes and fully validates one wire request: JSON shape, envelope
/// version, then [`Request::validate`]. A request that passes here is
/// safe to dispatch.
pub fn decode_request(wire: &str) -> Result<Request, ProtoError> {
    let envelope: RequestEnvelope = serde_json::from_str(wire)?;
    check_version(envelope.v)?;
    envelope.body.validate()?;
    Ok(envelope.body)
}

/// Decodes one wire response, checking the envelope version.
pub fn decode_response(wire: &str) -> Result<Response, ProtoError> {
    let envelope: ResponseEnvelope = serde_json::from_str(wire)?;
    check_version(envelope.v)?;
    Ok(envelope.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;
    use fsi_pipeline::{Method, TaskSpec};
    use proptest::prelude::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Lookup { x: 0.31, y: 0.72 },
            Request::LookupBatch {
                points: vec![WirePoint::new(0.1, 0.2), WirePoint::new(0.9, 0.8)],
            },
            Request::LookupBatch { points: vec![] },
            Request::RangeQuery {
                rect: WireRect::new(0.25, 0.25, 0.75, 0.75),
            },
            Request::Ingest {
                x: 0.42,
                y: 0.58,
                group: 3,
                label: true,
            },
            Request::IngestBatch {
                points: vec![
                    IngestBody::new(0.1, 0.2, 0, false),
                    IngestBody::new(0.9, 0.8, 7, true),
                ],
            },
            Request::IngestBatch { points: vec![] },
            Request::Stats,
            Request::Rebuild {
                spec: PipelineSpec::new(TaskSpec::act(), Method::FairKd, 4),
            },
            Request::RebuildPrepare {
                spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 3),
                delta: None,
            },
            Request::RebuildPrepare {
                spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 3),
                delta: Some(vec![IngestBody::new(0.31, 0.72, 2, false)]),
            },
            Request::RebuildCommit,
            Request::RebuildAbort,
            Request::Metrics,
            Request::Health,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Decision {
                decision: DecisionBody {
                    leaf_id: 14,
                    group: 14,
                    raw_score: 0.1 + 0.2,
                    calibrated_score: 0.3,
                },
            },
            Response::Decisions { decisions: vec![] },
            Response::Regions {
                ids: vec![0, 3, 17],
            },
            Response::Ingested {
                accepted: 2,
                buffered: 4097,
                generation: 3,
            },
            Response::Stats {
                stats: Box::new(StatsBody {
                    shards: 4,
                    generations: vec![2, 2, 2, 3],
                    num_leaves: 1024,
                    heap_bytes: 53200,
                    backend: "tree".into(),
                    cache: Some(crate::CacheStatsBody {
                        hits: 9000,
                        misses: 1000,
                        evictions: 42,
                        entries: 512,
                        capacity: 512,
                    }),
                    per_shard: Some(vec![crate::ShardStatsBody {
                        kind: "http".into(),
                        addr: Some("10.0.0.7:7878".into()),
                        generation: 3,
                        num_leaves: 256,
                        heap_bytes: 13300,
                        backend: "tree".into(),
                        unreachable: None,
                        error: None,
                    }]),
                    metrics: None,
                    health: Some(Box::new(HealthBody {
                        shards: vec![crate::ShardHealthBody {
                            shard: 0,
                            kind: "http".into(),
                            addr: Some("10.0.0.7:7878".into()),
                            state: "up".into(),
                            replicas: Vec::new(),
                        }],
                    })),
                }),
            },
            Response::Rebuilt {
                report: Box::new(RebuildReport {
                    spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 3),
                    generation: 2,
                    num_leaves: 8,
                    ence: 0.0123,
                    build_time: std::time::Duration::from_micros(1234),
                    total_time: std::time::Duration::new(1, 999_999_999),
                }),
            },
            Response::Prepared {
                prepared: Box::new(PreparedBody {
                    num_leaves: 280,
                    heap_bytes: 14336,
                    ence: 0.0123,
                    build_time: std::time::Duration::from_micros(4321),
                }),
            },
            Response::Committed { generation: 4 },
            Response::Aborted,
            Response::Metrics {
                metrics: Box::new(MetricsBody::empty()),
            },
            Response::Health {
                health: Box::new(HealthBody {
                    shards: vec![crate::ShardHealthBody {
                        shard: 0,
                        kind: "local".into(),
                        addr: None,
                        state: "up".into(),
                        replicas: Vec::new(),
                    }],
                }),
            },
            Response::error(ErrorCode::OutOfBounds, "point (2, 2) is outside the map"),
        ]
    }

    #[test]
    fn response_stays_narrow_for_the_lookup_hot_path() {
        // Dispatch returns Response by value per lookup; the fat
        // variants are boxed precisely so this move stays cheap.
        assert!(
            std::mem::size_of::<Response>() <= 56,
            "Response grew to {} bytes — box the new variant",
            std::mem::size_of::<Response>()
        );
    }

    #[test]
    fn borrowed_envelopes_encode_byte_identical_to_owned_ones() {
        // Exhaustive matches: a new variant fails to compile here until
        // it joins the samples below.
        fn request_kind(request: &Request) -> usize {
            match request {
                Request::Lookup { .. } => 0,
                Request::LookupBatch { .. } => 1,
                Request::RangeQuery { .. } => 2,
                Request::Ingest { .. } => 3,
                Request::IngestBatch { .. } => 4,
                Request::Stats => 5,
                Request::Rebuild { .. } => 6,
                Request::RebuildPrepare { .. } => 7,
                Request::RebuildCommit => 8,
                Request::RebuildAbort => 9,
                Request::Metrics => 10,
                Request::Health => 11,
            }
        }
        fn response_kind(response: &Response) -> usize {
            match response {
                Response::Decision { .. } => 0,
                Response::Decisions { .. } => 1,
                Response::Regions { .. } => 2,
                Response::Ingested { .. } => 3,
                Response::Stats { .. } => 4,
                Response::Rebuilt { .. } => 5,
                Response::Prepared { .. } => 6,
                Response::Committed { .. } => 7,
                Response::Aborted => 8,
                Response::Metrics { .. } => 9,
                Response::Health { .. } => 10,
                Response::Error { .. } => 11,
            }
        }
        let mut requests_seen = [false; 12];
        for request in sample_requests() {
            requests_seen[request_kind(&request)] = true;
            let owned = serde_json::to_string(&RequestEnvelope {
                v: PROTO_VERSION,
                body: request.clone(),
            })
            .unwrap();
            assert_eq!(encode_request(&request), owned);
        }
        let mut responses_seen = [false; 12];
        for response in sample_responses() {
            responses_seen[response_kind(&response)] = true;
            let owned = serde_json::to_string(&ResponseEnvelope {
                v: PROTO_VERSION,
                body: response.clone(),
            })
            .unwrap();
            assert_eq!(encode_response(&response), owned);
        }
        assert!(requests_seen.iter().all(|&seen| seen), "{requests_seen:?}");
        assert!(
            responses_seen.iter().all(|&seen| seen),
            "{responses_seen:?}"
        );
    }

    #[test]
    fn every_request_round_trips_through_the_envelope() {
        for request in sample_requests() {
            let wire = encode_request(&request);
            assert!(wire.starts_with("{\"v\":1,"), "{wire}");
            let back = decode_request(&wire).unwrap();
            assert_eq!(request, back, "wire: {wire}");
        }
    }

    #[test]
    fn every_response_round_trips_through_the_envelope() {
        for response in sample_responses() {
            let wire = encode_response(&response);
            let back = decode_response(&wire).unwrap();
            assert_eq!(response, back, "wire: {wire}");
        }
    }

    #[test]
    fn pre_metrics_envelopes_still_decode() {
        // Captured from a pre-observability peer: a v1 envelope whose
        // vocabulary has no Metrics variant and whose StatsBody has no
        // metrics field. Both directions must keep decoding.
        let old_request = r#"{"v":1,"body":"Stats"}"#;
        assert_eq!(decode_request(old_request).unwrap(), Request::Stats);
        let old_response = r#"{"v":1,"body":{"Stats":{"stats":{
            "shards": 1,
            "generations": [2],
            "num_leaves": 64,
            "heap_bytes": 4096,
            "backend": "tree"
        }}}}"#;
        let Response::Stats { stats } = decode_response(old_response).unwrap() else {
            panic!("pre-metrics Stats envelope must still decode");
        };
        assert_eq!(stats.generations, vec![2]);
        assert_eq!(stats.cache, None);
        assert_eq!(stats.per_shard, None);
        assert_eq!(stats.metrics, None);
    }

    #[test]
    fn pre_ingest_envelopes_still_decode() {
        // Captured from a pre-ingestion peer: a v1 RebuildPrepare whose
        // vocabulary has no Ingest/Ingested variants and no `delta`
        // field. Both directions must keep decoding (same pattern as
        // `pre_metrics_envelopes_still_decode`).
        let new_wire = encode_request(&Request::RebuildPrepare {
            spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 3),
            delta: None,
        });
        let old_request = new_wire.replace(",\"delta\":null", "");
        assert_ne!(old_request, new_wire, "expected a delta field to strip");
        let Request::RebuildPrepare { spec, delta } = decode_request(&old_request).unwrap() else {
            panic!("pre-ingest RebuildPrepare envelope must still decode");
        };
        assert_eq!(spec.height, 3);
        assert_eq!(delta, None, "missing delta field must decode as None");
        // Old unit-variant requests keep decoding beside the new
        // vocabulary too.
        assert_eq!(
            decode_request(r#"{"v":1,"body":"Stats"}"#).unwrap(),
            Request::Stats
        );
        // And a pre-ingest peer's Committed response decodes unchanged.
        let old_response = r#"{"v":1,"body":{"Committed":{"generation":5}}}"#;
        assert_eq!(
            decode_response(old_response).unwrap(),
            Response::Committed { generation: 5 }
        );
    }

    #[test]
    fn pre_resilience_envelopes_still_decode() {
        // Captured from a pre-resilience peer: a v1 envelope whose
        // vocabulary has no Health variant and whose per_shard entries
        // carry no unreachable/error markers. Both directions must keep
        // decoding (same pattern as `pre_metrics_envelopes_still_decode`).
        let old_request = r#"{"v":1,"body":"Metrics"}"#;
        assert_eq!(decode_request(old_request).unwrap(), Request::Metrics);
        let old_response = r#"{"v":1,"body":{"Stats":{"stats":{
            "shards": 2,
            "generations": [5, 5],
            "num_leaves": 512,
            "heap_bytes": 24576,
            "backend": "tree",
            "per_shard": [
                {"kind": "local", "addr": null, "generation": 5,
                 "num_leaves": 256, "heap_bytes": 12288, "backend": "tree"},
                {"kind": "http", "addr": "10.0.0.7:7878", "generation": 5,
                 "num_leaves": 256, "heap_bytes": 12288, "backend": "tree"}
            ]
        }}}}"#;
        let Response::Stats { stats } = decode_response(old_response).unwrap() else {
            panic!("pre-resilience Stats envelope must still decode");
        };
        assert_eq!(stats.health, None, "missing health must decode as None");
        let per_shard = stats.per_shard.unwrap();
        assert_eq!(per_shard[1].unreachable, None);
        assert_eq!(per_shard[1].error, None);
        // The new Health vocabulary round-trips as a bare unit variant,
        // exactly like Stats/Metrics.
        let wire = encode_request(&Request::Health);
        assert_eq!(wire, r#"{"v":1,"body":"Health"}"#);
        assert_eq!(decode_request(&wire).unwrap(), Request::Health);
    }

    #[test]
    fn ingest_requests_validate_their_coordinates() {
        let bad = Request::Ingest {
            x: f64::NAN,
            y: 0.5,
            group: 0,
            label: false,
        };
        assert!(bad.validate().is_err());
        let bad_batch = Request::IngestBatch {
            points: vec![
                IngestBody::new(0.5, 0.5, 1, true),
                IngestBody::new(0.5, f64::INFINITY, 1, true),
            ],
        };
        let err = bad_batch.validate().unwrap_err();
        assert!(err.to_string().contains("ingest point #1"), "{err}");
        let bad_delta = Request::RebuildPrepare {
            spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 3),
            delta: Some(vec![IngestBody::new(f64::NEG_INFINITY, 0.5, 0, false)]),
        };
        let err = bad_delta.validate().unwrap_err();
        assert!(err.to_string().contains("delta point #0"), "{err}");
    }

    #[test]
    fn metrics_request_and_response_round_trip_through_the_envelope() {
        let wire = encode_request(&Request::Metrics);
        assert_eq!(wire, r#"{"v":1,"body":"Metrics"}"#);
        assert_eq!(decode_request(&wire).unwrap(), Request::Metrics);
        let response = Response::Metrics {
            metrics: Box::new(MetricsBody::empty()),
        };
        let back = decode_response(&encode_response(&response)).unwrap();
        assert_eq!(response, back);
    }

    #[test]
    fn unsupported_versions_are_rejected_not_misread() {
        let wire = encode_request(&Request::Stats).replace("\"v\":1", "\"v\":2");
        match decode_request(&wire) {
            Err(ProtoError::UnsupportedVersion {
                got: 2,
                expected: 1,
            }) => {}
            other => panic!("expected version rejection, got {other:?}"),
        }
        let wire =
            encode_response(&Response::Regions { ids: vec![] }).replace("\"v\":1", "\"v\":0");
        assert!(matches!(
            decode_response(&wire),
            Err(ProtoError::UnsupportedVersion { got: 0, .. })
        ));
    }

    #[test]
    fn malformed_wire_reports_json_errors() {
        for wire in [
            "",
            "not json",
            "{\"v\":1}",
            "{\"v\":1,\"body\":{\"Teleport\":{}}}",
            "{\"v\":1,\"body\":{\"Lookup\":{\"x\":0.5}}}",
        ] {
            assert!(
                matches!(decode_request(wire), Err(ProtoError::Json(_))),
                "{wire:?}"
            );
        }
    }

    #[test]
    fn invalid_payloads_fail_validation_on_decode() {
        // NaN is not expressible in JSON, so craft a null coordinate
        // (the vendored serde parses null as NaN for floats — exactly
        // the hole validation has to close).
        let wire = "{\"v\":1,\"body\":{\"Lookup\":{\"x\":null,\"y\":0.5}}}";
        assert!(matches!(
            decode_request(wire),
            Err(ProtoError::InvalidRequest(_))
        ));
        let inverted = Request::RangeQuery {
            rect: WireRect::new(0.9, 0.0, 0.1, 1.0),
        };
        assert!(decode_request(&encode_request(&inverted)).is_err());
        let bad_spec = Request::Rebuild {
            spec: PipelineSpec::new(TaskSpec::act(), Method::FairKd, 0),
        };
        let err = decode_request(&encode_request(&bad_spec)).unwrap_err();
        assert!(err.to_string().contains("height"), "{err}");
        let bad_batch = Request::LookupBatch {
            points: vec![WirePoint::new(0.5, 0.5), WirePoint::new(f64::NAN, 0.5)],
        };
        let err = bad_batch.validate().unwrap_err();
        assert!(err.to_string().contains("#1"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Serde identity over randomized lookups: the decoded request
        /// carries bit-identical coordinates.
        #[test]
        fn lookup_round_trip_is_bit_identical(x in -1e9..1e9f64, y in -1e9..1e9f64) {
            let request = Request::Lookup { x, y };
            let back = decode_request(&encode_request(&request)).unwrap();
            let Request::Lookup { x: bx, y: by } = back else {
                panic!("variant changed in flight");
            };
            prop_assert_eq!(x.to_bits(), bx.to_bits());
            prop_assert_eq!(y.to_bits(), by.to_bits());
        }

        /// Serde identity over randomized batches and decisions.
        #[test]
        fn batch_and_decisions_round_trip(
            n in 0usize..40,
            seed in 0.0..1.0f64,
        ) {
            let points: Vec<WirePoint> = (0..n)
                .map(|i| WirePoint::new(seed * i as f64, 1.0 / (1.0 + seed + i as f64)))
                .collect();
            let request = Request::LookupBatch { points: points.clone() };
            prop_assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);

            let decisions: Vec<DecisionBody> = points
                .iter()
                .enumerate()
                .map(|(i, p)| DecisionBody {
                    leaf_id: i,
                    group: i % 7,
                    raw_score: p.x,
                    calibrated_score: p.y,
                })
                .collect();
            let response = Response::Decisions { decisions };
            prop_assert_eq!(decode_response(&encode_response(&response)).unwrap(), response);
        }

        /// Serde identity over randomized stats bodies (u64 generations
        /// above 2^53 must survive, hence the full u64 range).
        #[test]
        fn stats_round_trip(g in 0u64..=u64::MAX, shards in 1usize..8, hits in any::<u64>()) {
            // Cache counters present on even shard counts, absent on
            // odd, so both wire forms stay covered.
            let cache = (shards % 2 == 0).then(|| crate::CacheStatsBody {
                hits,
                misses: hits.wrapping_mul(3),
                evictions: hits >> 4,
                entries: shards * 16,
                capacity: shards * 32,
            });
            let response = Response::Stats {
                stats: Box::new(StatsBody {
                    shards,
                    generations: (0..shards as u64).map(|i| g.wrapping_add(i)).collect(),
                    num_leaves: shards * 64,
                    heap_bytes: shards * 4096,
                    backend: "cells".into(),
                    cache,
                    per_shard: None,
                    metrics: None,
                    health: None,
                }),
            };
            prop_assert_eq!(decode_response(&encode_response(&response)).unwrap(), response);
        }

        /// Serde identity over randomized metrics bodies: sparse
        /// histograms, error tallies, per-shard entries with one level
        /// of remote nesting.
        #[test]
        fn metrics_round_trip(
            values in proptest::collection::vec(any::<u64>(), 0..50),
            shards in 0usize..4,
            slow in any::<u64>(),
            nested in any::<bool>(),
        ) {
            let hist = fsi_obs::Histogram::new();
            for &v in &values {
                hist.record(v);
            }
            let snap = hist.snapshot();
            let body = MetricsBody {
                requests: vec![crate::RequestKindMetrics {
                    kind: "lookup".into(),
                    count: values.len() as u64,
                    latency: snap.clone(),
                }],
                errors: vec![crate::ErrorCountBody {
                    code: ErrorCode::Internal,
                    count: slow >> 32,
                }],
                slow_queries: slow,
                generation: slow.wrapping_mul(31),
                cache: None,
                shards: (0..shards)
                    .map(|i| crate::ShardObsBody {
                        shard: i,
                        kind: if i % 2 == 0 { "local" } else { "http" }.into(),
                        addr: (i % 2 == 1).then(|| format!("10.0.0.{i}:7878")),
                        requests: values.len() as u64,
                        failures: i as u64,
                        reconnects: (i / 2) as u64,
                        round_trip: snap.clone(),
                        remote: (nested && i % 2 == 1)
                            .then(|| Box::new(MetricsBody::empty())),
                        replicas: None,
                    })
                    .collect(),
                rebuild: crate::RebuildObsBody {
                    prepare: snap.clone(),
                    commit: fsi_obs::HistogramSnapshot::empty(),
                    abort: snap,
                },
                http: None,
                ingest: nested.then(|| crate::IngestObsBody {
                    accepted: slow,
                    rejected: slow >> 8,
                    buffered: slow >> 16,
                    drift_score: 0.5,
                    maintenance: fsi_obs::HistogramSnapshot::empty(),
                }),
            };
            let response = Response::Metrics { metrics: Box::new(body) };
            prop_assert_eq!(decode_response(&encode_response(&response)).unwrap(), response);
        }
    }
}
