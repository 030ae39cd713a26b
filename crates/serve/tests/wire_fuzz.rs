//! Property tests of the wire decoders against corrupted input.
//!
//! Every op's payload (query, rows, error, stats request, stats reply)
//! is mutated (bytes flipped), truncated, and spliced with another op's
//! payload, then handed to every decoder. Each must return a valid
//! message or a typed [`ErrorCode::Protocol`] error, never panic. A
//! corrupted frame followed by a valid one in one concatenated buffer
//! must leave [`read_frame_blocking`] in sync: the next frame still
//! decodes. Encode/decode round-trips are checked for every op.

use proptest::prelude::*;
use proptest::sample;
use psi_api::RidSet;
use psi_bits::GapBitmap;
use psi_io::IoStats;
use psi_obs::{HistSnapshot, Snapshot, Value};
use psi_query::{AttrCondition, CombineStrategy, ConjunctiveQuery, Plan, PlanTrace, QueryOutcome};
use psi_serve::wire::{
    decode_request, decode_response, decode_stats_reply, decode_stats_request, encode_error,
    encode_request, encode_rows, encode_stats_reply, encode_stats_request, read_frame_blocking,
    write_frame, ErrorCode, FrameIn, Request, Response, RowsReply, WireError, MAX_FRAME_BYTES,
};
use rand::prelude::*;

/// The five ops, by index into [`message`].
const OPS: usize = 5;

const CODES: [ErrorCode; 9] = [
    ErrorCode::Protocol,
    ErrorCode::Overloaded,
    ErrorCode::UnknownAttribute,
    ErrorCode::ReadTransient,
    ErrorCode::ReadPermanent,
    ErrorCode::ReadCorrupt,
    ErrorCode::Quarantined,
    ErrorCode::Panicked,
    ErrorCode::NotConjunctive,
];

/// A decoded message of any op, for round-trip comparison.
#[derive(Debug, PartialEq)]
enum Msg {
    Request(Request),
    Response(Response),
    StatsRequest(u64),
    StatsReply(u64, Snapshot),
}

fn text(rng: &mut StdRng) -> String {
    let alphabet = ['a', 'z', '_', '/', '0', 'é', '→'];
    (0..rng.gen_range(0..12usize))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

fn query(rng: &mut StdRng) -> ConjunctiveQuery {
    let conditions = (0..rng.gen_range(0..5usize))
        .map(|_| AttrCondition {
            attr: text(rng),
            lo: rng.gen(),
            hi: rng.gen(),
            negated: rng.gen(),
        })
        .collect();
    ConjunctiveQuery { conditions }
}

fn outcome(rng: &mut StdRng) -> QueryOutcome {
    let universe = rng.gen_range(1..2000u64);
    let mut positions: Vec<u64> = (0..rng.gen_range(0..50usize))
        .map(|_| rng.gen_range(0..universe))
        .collect();
    positions.sort_unstable();
    positions.dedup();
    let stored = GapBitmap::from_sorted(&positions, universe);
    let rows = if rng.gen() {
        RidSet::from_complement(stored)
    } else {
        RidSet::from_positions(stored)
    };
    let degraded = if rng.gen() {
        vec![text(rng)]
    } else {
        Vec::new()
    };
    QueryOutcome {
        plan: Plan {
            order: Vec::new(),
            estimates: Vec::new(),
            strategy: CombineStrategy::Gallop,
        },
        io: IoStats {
            reads: rng.gen(),
            ..IoStats::default()
        },
        degraded,
        trace: PlanTrace {
            strategy: CombineStrategy::Gallop,
            conditions: Vec::new(),
            result_rows: rows.cardinality(),
            elapsed_ns: 0,
        },
        rows,
    }
}

fn wire_error(rng: &mut StdRng) -> WireError {
    WireError {
        code: CODES[rng.gen_range(0..CODES.len())],
        message: text(rng),
    }
}

fn snapshot(rng: &mut StdRng) -> Snapshot {
    let mut snap = Snapshot::default();
    for _ in 0..rng.gen_range(0..6usize) {
        let value = match rng.gen_range(0..4u32) {
            0 => Value::Counter(rng.gen()),
            1 => Value::Gauge(rng.gen::<u64>() as i64),
            2 => Value::Histogram(HistSnapshot {
                count: rng.gen(),
                sum: rng.gen(),
                buckets: (0..rng.gen_range(0..4usize))
                    .map(|_| (rng.gen(), rng.gen()))
                    .collect(),
            }),
            _ => Value::List((0..rng.gen_range(0..4usize)).map(|_| rng.gen()).collect()),
        };
        snap.set(&text(rng), value);
    }
    snap
}

/// A random message of op `op` from `seed`: its payload and what it must
/// decode back to.
fn message(op: usize, seed: u64) -> (Vec<u8>, Msg) {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = rng.gen::<u64>();
    match op {
        0 => {
            let query = query(&mut rng);
            let payload = encode_request(id, &query);
            (payload, Msg::Request(Request { id, query }))
        }
        1 => {
            let out = outcome(&mut rng);
            let body = Ok(RowsReply {
                rows: out.rows.to_vec(),
                blocks_read: out.io.reads,
                degraded: !out.degraded.is_empty(),
            });
            (encode_rows(id, &out), Msg::Response(Response { id, body }))
        }
        2 => {
            let err = wire_error(&mut rng);
            let payload = encode_error(id, &err);
            (payload, Msg::Response(Response { id, body: Err(err) }))
        }
        3 => (encode_stats_request(id), Msg::StatsRequest(id)),
        _ => {
            let snap = snapshot(&mut rng);
            (encode_stats_reply(id, &snap), Msg::StatsReply(id, snap))
        }
    }
}

/// The decoder for op `op`'s payloads.
fn decode(op: usize, payload: &[u8]) -> Result<Msg, WireError> {
    match op {
        0 => decode_request(payload)
            .map(Msg::Request)
            .map_err(|(_, e)| e),
        1 | 2 => decode_response(payload).map(Msg::Response),
        3 => decode_stats_request(payload)
            .map(Msg::StatsRequest)
            .map_err(|(_, e)| e),
        _ => decode_stats_reply(payload).map(|(id, snap)| Msg::StatsReply(id, snap)),
    }
}

/// Runs every decoder over `payload`: each must return a message or a
/// typed protocol error (a panic fails the test on its own). Decoders
/// of ops with a canonical encoding accept only that encoding.
fn every_decoder_is_typed(payload: &[u8]) -> Result<(), String> {
    for op in 0..OPS {
        let canonical = match decode(op, payload) {
            Err(e) => {
                prop_assert_eq!(e.code, ErrorCode::Protocol, "op {} on {:?}", op, payload);
                continue;
            }
            Ok(Msg::Request(r)) => encode_request(r.id, &r.query),
            Ok(Msg::Response(Response { id, body: Err(e) })) => encode_error(id, &e),
            Ok(Msg::StatsRequest(id)) => encode_stats_request(id),
            // Rows carry no encoder of their own, and a stats reply's
            // entries are re-sorted on decode.
            Ok(_) => continue,
        };
        prop_assert_eq!(canonical.as_slice(), payload, "op {}", op);
    }
    Ok(())
}

/// Frames `corrupted` then `next` into one buffer and reads them back:
/// the corrupted payload comes back verbatim, and the next frame still
/// decodes to `want`.
fn stays_in_sync(corrupted: &[u8], next_op: usize, next: &[u8], want: &Msg) -> Result<(), String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, corrupted).expect("frame");
    write_frame(&mut buf, next).expect("frame");
    let mut r = buf.as_slice();
    match read_frame_blocking(&mut r, MAX_FRAME_BYTES).expect("first frame") {
        FrameIn::Payload(p) => prop_assert_eq!(p.as_slice(), corrupted),
        other => return Err(format!("first frame: {other:?}")),
    }
    match read_frame_blocking(&mut r, MAX_FRAME_BYTES).expect("second frame") {
        FrameIn::Payload(p) => {
            let got = decode(next_op, &p);
            prop_assert_eq!(got.as_ref(), Ok(want));
        }
        other => return Err(format!("second frame: {other:?}")),
    }
    prop_assert!(matches!(
        read_frame_blocking(&mut r, MAX_FRAME_BYTES),
        Ok(FrameIn::Closed)
    ));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_op_roundtrips(op in 0..OPS, seed in any::<u64>()) {
        let (payload, want) = message(op, seed);
        prop_assert_eq!(decode(op, &payload), Ok(want));
    }

    #[test]
    fn mutated_frames_are_typed_and_keep_sync(
        op in 0..OPS,
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<sample::Index>(), 1u32..256), 1..4),
        next_op in 0..OPS,
    ) {
        let (mut payload, _) = message(op, seed);
        for (at, mask) in flips {
            let i = at.index(payload.len());
            payload[i] ^= mask as u8;
        }
        every_decoder_is_typed(&payload)?;
        let (next, want) = message(next_op, seed ^ 1);
        stays_in_sync(&payload, next_op, &next, &want)?;
    }

    #[test]
    fn truncated_frames_are_typed_and_keep_sync(
        op in 0..OPS,
        seed in any::<u64>(),
        cut in any::<sample::Index>(),
        next_op in 0..OPS,
    ) {
        let (payload, _) = message(op, seed);
        let short = &payload[..cut.index(payload.len())];
        every_decoder_is_typed(short)?;
        // A strict prefix of a message never decodes as that message.
        prop_assert!(decode(op, short).is_err());
        let (next, want) = message(next_op, seed ^ 1);
        stays_in_sync(short, next_op, &next, &want)?;
    }

    #[test]
    fn spliced_frames_are_typed_and_keep_sync(
        ops in (0..OPS, 0..OPS),
        seed in any::<u64>(),
        cuts in (any::<sample::Index>(), any::<sample::Index>()),
        next_op in 0..OPS,
    ) {
        let (head, _) = message(ops.0, seed);
        let (tail, _) = message(ops.1, seed.wrapping_add(1));
        let mut spliced = head[..cuts.0.index(head.len() + 1)].to_vec();
        spliced.extend_from_slice(&tail[cuts.1.index(tail.len() + 1)..]);
        every_decoder_is_typed(&spliced)?;
        let (next, want) = message(next_op, seed ^ 1);
        stays_in_sync(&spliced, next_op, &next, &want)?;
    }
}
