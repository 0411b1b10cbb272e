//! Property tests of the framed wire protocol: every opcode — including
//! the cluster additions (snapshot streaming, `shard_join`/`shard_leave`)
//! and the v4 fit target — round-trips bit-exactly through its frame
//! encoding, and malformed frames (truncated anywhere, oversized length
//! prefix, wrong version, retired opcode) are rejected rather than
//! trusted.

use hdc::serve::wire::{
    read_request, read_response, write_request, write_response, Request, Response, MAX_FRAME_BYTES,
    OP_ADD_SHARD, OP_FIT, OP_INSERT, OP_PING, OP_PREDICT_BATCH, OP_REFRESH, OP_REMOVE,
    OP_REMOVE_SHARD, OP_RESTORE, OP_SHARD_JOIN, OP_SHARD_LEAVE, OP_SNAPSHOT, OP_STATS,
    PROTOCOL_VERSION, RESP_ERROR, RESP_FIT_ACK, RESP_INSERTED, RESP_LABELS, RESP_PONG,
    RESP_REFRESHED, RESP_REMOVED, RESP_RESTORED, RESP_SHARD_ADDED, RESP_SHARD_JOINED,
    RESP_SHARD_LEFT, RESP_SHARD_REMOVED, RESP_SNAPSHOT, RESP_STATS, RESP_VALUES,
};
use hdc::serve::{MetricsSnapshot, RuntimeStats};
use hdc::{BinaryHypervector, Target};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn hv(dim: usize, rng: &mut StdRng) -> BinaryHypervector {
    BinaryHypervector::random(dim, rng)
}

fn key(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..24);
    (0..len)
        .map(|_| char::from(rng.random_range(b'a'..=b'z')))
        .collect()
}

/// Every request variant, with randomized payloads drawn from `rng`.
fn sample_requests(dim: usize, rng: &mut StdRng) -> Vec<Request> {
    vec![
        Request::PredictBatch {
            pairs: (0..rng.random_range(0usize..5))
                .map(|_| (key(rng), hv(dim, rng)))
                .collect(),
        },
        Request::Insert {
            key: key(rng),
            hv: hv(dim, rng),
        },
        Request::Remove { key: key(rng) },
        Request::Fit {
            hv: hv(dim, rng),
            target: Target::Label(rng.random_range(0usize..1000)),
        },
        Request::Fit {
            hv: hv(dim, rng),
            target: Target::Value(rng.random_range(-1e6..1e6)),
        },
        Request::Refresh,
        Request::AddShard,
        Request::RemoveShard {
            id: rng.random_range(0u32..1000),
        },
        Request::Stats,
        Request::Ping,
        Request::Snapshot,
        Request::Restore {
            snapshot: (0..rng.random_range(0usize..64))
                .map(|_| rng.random_range(0u8..=255))
                .collect(),
        },
        Request::ShardJoin { addr: key(rng) },
        Request::ShardLeave {
            id: rng.random_range(0u32..1000),
        },
    ]
}

/// Every response variant, with randomized payloads drawn from `rng`.
fn sample_responses(rng: &mut StdRng) -> Vec<Response> {
    vec![
        Response::Labels {
            predictions: (0..rng.random_range(0usize..6))
                .map(|_| (rng.random_range(0u32..100), rng.random_range(0u64..100)))
                .collect(),
        },
        Response::Inserted {
            replaced: rng.random_bool(0.5),
        },
        Response::Removed {
            removed: rng.random_bool(0.5),
        },
        Response::FitAck,
        Response::Refreshed {
            generation: rng.random_range(0u64..1 << 40),
        },
        Response::ShardAdded {
            id: rng.random_range(0u32..1000),
        },
        Response::ShardRemoved {
            removed: rng.random_bool(0.5),
        },
        Response::Stats(RuntimeStats {
            generation: rng.random_range(0u64..1 << 30),
            uptime_us: rng.random_range(0u64..1 << 50),
            name: key(rng),
            ring_positions: rng.random_range(0u64..1 << 16),
            dim: rng.random_range(1u64..1 << 20),
            classes: rng.random_range(0u64..64),
            shard_loads: (0..rng.random_range(0usize..5))
                .map(|_| (rng.random_range(0u64..16), rng.random_range(0u64..1000)))
                .collect(),
            keys: rng.random_range(0u64..1000),
            last_remap_fraction: if rng.random_bool(0.5) {
                Some(rng.random_range(0.0..1.0))
            } else {
                None
            },
            metrics: MetricsSnapshot {
                queue_depth: rng.random_range(0u64..100),
                requests: rng.random_range(0u64..1 << 30),
                batches: rng.random_range(0u64..1 << 20),
                inserts: rng.random_range(0u64..1000),
                removes: rng.random_range(0u64..1000),
                fits: rng.random_range(0u64..1000),
                mean_batch_size: rng.random_range(0.0..256.0),
                batch_sizes: (0..rng.random_range(0usize..8))
                    .map(|_| rng.random_range(0u64..1000))
                    .collect(),
                latency_us_p50: rng.random_range(0.0..1e5),
                latency_us_p95: rng.random_range(0.0..1e5),
                latency_us_p99: rng.random_range(0.0..1e5),
            },
        }),
        Response::Pong {
            generation: rng.random_range(0u64..1 << 40),
            uptime_us: rng.random_range(0u64..1 << 50),
        },
        Response::Error { message: key(rng) },
        Response::Values {
            predictions: (0..rng.random_range(0usize..6))
                .map(|_| (rng.random_range(-1e6..1e6), rng.random_range(0u64..100)))
                .collect(),
        },
        Response::Snapshot {
            bytes: (0..rng.random_range(0usize..64))
                .map(|_| rng.random_range(0u8..=255))
                .collect(),
        },
        Response::Restored {
            generation: rng.random_range(0u64..1 << 40),
        },
        Response::ShardJoined {
            id: rng.random_range(0u32..1000),
            moved: rng.random_range(0u64..1 << 30),
        },
        Response::ShardLeft {
            removed: rng.random_bool(0.5),
            drained: rng.random_range(0u64..1 << 30),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every request opcode round-trips bit-exactly at a random payload
    /// and dimensionality (including non-multiples of 64).
    #[test]
    fn every_request_opcode_round_trips(seed in 0u64..10_000, dim in 1usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        for request in sample_requests(dim, &mut rng) {
            let mut buffer = Vec::new();
            write_request(&mut buffer, &request).expect("encodable request");
            let decoded = read_request(&mut buffer.as_slice())
                .expect("decodable frame")
                .expect("one frame present");
            prop_assert_eq!(decoded, request);
        }
    }

    /// Every response opcode round-trips bit-exactly — f64 payloads
    /// (values, stats percentiles) included.
    #[test]
    fn every_response_opcode_round_trips(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for response in sample_responses(&mut rng) {
            let mut buffer = Vec::new();
            write_response(&mut buffer, &response).expect("encodable response");
            let decoded = read_response(&mut buffer.as_slice())
                .expect("decodable frame")
                .expect("one frame present");
            prop_assert_eq!(decoded, response);
        }
    }

    /// A frame truncated at *any* interior byte is rejected (or, for a cut
    /// before the first payload byte, reported as clean end-of-stream) —
    /// never misparsed into a different message. Exercised for every
    /// opcode whose body mixes strings, tagged f64s, raw byte blobs and
    /// hypervectors.
    #[test]
    fn truncated_new_op_frames_are_rejected(seed in 0u64..10_000, dim in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = [
            Request::Fit {
                hv: hv(dim, &mut rng),
                target: Target::Label(rng.random_range(0usize..1000)),
            },
            Request::Fit {
                hv: hv(dim, &mut rng),
                target: Target::Value(rng.random_range(-1e6..1e6)),
            },
            Request::Ping,
            Request::PredictBatch {
                pairs: (0..rng.random_range(1usize..4))
                    .map(|_| (key(&mut rng), hv(dim, &mut rng)))
                    .collect(),
            },
            Request::Snapshot,
            Request::Restore {
                snapshot: (0..rng.random_range(1usize..32))
                    .map(|_| rng.random_range(0u8..=255))
                    .collect(),
            },
            Request::ShardJoin { addr: format!("{}:7117", key(&mut rng)) },
            Request::ShardLeave { id: rng.random_range(0u32..1000) },
        ];
        for request in requests {
            let mut buffer = Vec::new();
            write_request(&mut buffer, &request).expect("encodable request");
            for cut in 1..buffer.len() {
                let result = read_request(&mut buffer[..cut].as_ref());
                prop_assert!(
                    result.is_err(),
                    "cut at {cut}/{} must not parse: {result:?}",
                    buffer.len()
                );
            }
        }
    }

    /// Appending garbage to a well-formed new-op frame is rejected by the
    /// trailing-bytes check, and a response cut mid-body never parses.
    #[test]
    fn trailing_garbage_on_new_ops_is_rejected(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let responses = [
            Response::Labels {
                predictions: (0..rng.random_range(1usize..4))
                    .map(|_| (rng.random_range(0u32..100), rng.random_range(0u64..100)))
                    .collect(),
            },
            Response::Pong {
                generation: rng.random_range(0u64..1000),
                uptime_us: rng.random_range(0u64..1 << 40),
            },
            Response::Values {
                predictions: (0..rng.random_range(1usize..4))
                    .map(|_| (rng.random_range(-1e6..1e6), rng.random_range(0u64..100)))
                    .collect(),
            },
            Response::Snapshot {
                bytes: (0..rng.random_range(1usize..32))
                    .map(|_| rng.random_range(0u8..=255))
                    .collect(),
            },
            Response::Restored { generation: rng.random_range(0u64..1000) },
            Response::ShardJoined {
                id: rng.random_range(0u32..1000),
                moved: rng.random_range(0u64..1000),
            },
            Response::ShardLeft {
                removed: rng.random_bool(0.5),
                drained: rng.random_range(0u64..1000),
            },
        ];
        for response in responses {
            let mut buffer = Vec::new();
            write_response(&mut buffer, &response).expect("encodable response");
            // Grow the declared length and append a byte: the cursor's
            // finish() must reject the smuggled tail.
            let mut padded = buffer.clone();
            let declared = u32::from_be_bytes(padded[..4].try_into().unwrap());
            padded[..4].copy_from_slice(&(declared + 1).to_be_bytes());
            padded.push(0xEE);
            prop_assert!(read_response(&mut padded.as_slice()).is_err());
            for cut in 1..buffer.len() {
                prop_assert!(read_response(&mut buffer[..cut].as_ref()).is_err());
            }
        }
    }
}

#[test]
fn oversized_and_wrong_version_frames_are_rejected_for_new_ops() {
    // Oversized length prefix on a predict opcode.
    let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
    let mut framed = huge.to_vec();
    framed.extend_from_slice(&[PROTOCOL_VERSION, OP_PREDICT_BATCH]);
    assert!(read_request(&mut framed.as_slice()).is_err());

    // A v1 frame carrying the (v2-only) ping opcode is refused by the
    // version check before the opcode is even looked at.
    let v1_ping = [0u8, 0, 0, 2, 1, 12];
    assert!(read_request(&mut v1_ping.as_slice()).is_err());

    // Same for a v2 frame carrying a v3-only opcode (shard_leave).
    let v2_leave = [0u8, 0, 0, 6, 2, 17, 0, 0, 0, 3];
    assert!(read_request(&mut v2_leave.as_slice()).is_err());

    // An unknown opcode under the current version is refused too.
    let unknown = [0u8, 0, 0, 2, PROTOCOL_VERSION, 200];
    assert!(read_request(&mut unknown.as_slice()).is_err());

    // An empty stream is a clean EOF, not an error.
    assert_eq!(read_request(&mut [].as_slice()).unwrap(), None);
}

/// Every v3 frame is refused, whatever it carries: a v4 frame re-stamped
/// with version 3 decodes for no opcode, request or response.
#[test]
fn v3_frames_are_refused() {
    let mut rng = StdRng::seed_from_u64(3);
    for request in sample_requests(70, &mut rng) {
        let mut frame = Vec::new();
        write_request(&mut frame, &request).expect("encodable request");
        frame[4] = 3;
        assert!(read_request(&mut frame.as_slice()).is_err(), "{request:?}");
    }
    for response in sample_responses(&mut rng) {
        let mut frame = Vec::new();
        write_response(&mut frame, &response).expect("encodable response");
        frame[4] = 3;
        assert!(
            read_response(&mut frame.as_slice()).is_err(),
            "{response:?}"
        );
    }
}

/// The opcode constants are the wire format: their numeric values may
/// never drift, or a v4 peer built from a different commit stops
/// interoperating. This test pins every `OP_*`/`RESP_*` constant to its
/// frozen byte (and is what the `wire-opcode-exhaustive` lint points at
/// when a new opcode lands without coverage). The numbers v4 retired are
/// listed too: no live opcode may reuse them, and decoders refuse them.
#[test]
fn opcode_bytes_are_frozen() {
    let request_ops = [
        (OP_PREDICT_BATCH, 2u8),
        (OP_INSERT, 3),
        (OP_REMOVE, 4),
        (OP_FIT, 5),
        (OP_REFRESH, 6),
        (OP_ADD_SHARD, 7),
        (OP_REMOVE_SHARD, 8),
        (OP_STATS, 9),
        (OP_PING, 12),
        (OP_SNAPSHOT, 14),
        (OP_RESTORE, 15),
        (OP_SHARD_JOIN, 16),
        (OP_SHARD_LEAVE, 17),
    ];
    let response_ops = [
        (RESP_LABELS, 2u8),
        (RESP_INSERTED, 3),
        (RESP_REMOVED, 4),
        (RESP_FIT_ACK, 5),
        (RESP_REFRESHED, 6),
        (RESP_SHARD_ADDED, 7),
        (RESP_SHARD_REMOVED, 8),
        (RESP_STATS, 9),
        (RESP_PONG, 12),
        (RESP_VALUES, 13),
        (RESP_SNAPSHOT, 14),
        (RESP_RESTORED, 15),
        (RESP_SHARD_JOINED, 16),
        (RESP_SHARD_LEFT, 17),
        (RESP_ERROR, 255),
    ];
    // Retired in v4: predict, predict_value, fit_value and
    // predict_value_batch requests; label and value responses.
    let retired_requests = [1u8, 10, 11, 13];
    let retired_responses = [1u8, 10];
    for (constant, frozen) in request_ops {
        assert_eq!(constant, frozen, "request opcode value drifted");
        assert!(
            !retired_requests.contains(&constant),
            "retired number reused"
        );
    }
    for (constant, frozen) in response_ops {
        assert_eq!(constant, frozen, "response opcode value drifted");
        assert!(
            !retired_responses.contains(&constant),
            "retired number reused"
        );
    }
    for opcode in retired_requests {
        let frame = [0u8, 0, 0, 2, PROTOCOL_VERSION, opcode];
        assert!(read_request(&mut frame.as_slice()).is_err());
    }
    for opcode in retired_responses {
        let frame = [0u8, 0, 0, 2, PROTOCOL_VERSION, opcode];
        assert!(read_response(&mut frame.as_slice()).is_err());
    }

    // And the constants really are what lands on the wire: byte 5 of a
    // frame (after the u32 length and the version byte) is the opcode.
    let mut frame = Vec::new();
    write_request(&mut frame, &Request::Ping).unwrap();
    assert_eq!(frame[5], OP_PING);
    let mut frame = Vec::new();
    write_response(
        &mut frame,
        &Response::Error {
            message: "x".into(),
        },
    )
    .unwrap();
    assert_eq!(frame[5], RESP_ERROR);
}
