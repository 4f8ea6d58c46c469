//! Property tests for the wire codec: arbitrary messages survive a
//! round trip byte-exactly, and corrupted frames are rejected, never
//! mis-decoded.

use proptest::prelude::*;

use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;
use wtpg_net::codec::{
    decode_frame, decode_payload, encode_frame, encode_frame_into, encode_payload, CodecError,
    MAX_BATCH, MAX_FORGET, MAX_FRAME,
};
use wtpg_net::Msg;

/// Strategy: one declared step (partition, mode, declared cost, actual).
fn arb_step() -> impl Strategy<Value = StepSpec> {
    (0u32..64, proptest::bool::ANY, 0u64..5_000, 0u64..5_000).prop_map(
        |(p, write, cost, actual)| StepSpec {
            partition: wtpg_core::partition::PartitionId(p),
            mode: if write {
                AccessMode::Write
            } else {
                AccessMode::Read
            },
            cost: Work::from_units(cost),
            actual_cost: Work::from_units(actual),
        },
    )
}

/// Strategy: a 1–6 step transaction spec.
fn arb_spec() -> impl Strategy<Value = TxnSpec> {
    (0u64..1_000_000, proptest::collection::vec(arb_step(), 1..=6))
        .prop_map(|(id, steps)| TxnSpec::new(TxnId(id), steps))
}

/// Strategy: any protocol message.
fn arb_msg() -> impl Strategy<Value = Msg> {
    let txn = || (0u64..1_000_000).prop_map(TxnId);
    prop_oneof![
        (0u32..16, arb_spec()).prop_map(|(client, spec)| Msg::Submit {
            client,
            txn: spec.id,
            step: None,
            spec: Some(spec),
        }),
        (0u32..16, txn(), 0u32..8).prop_map(|(client, txn, step)| Msg::Submit {
            client,
            txn,
            step: Some(step),
            spec: None,
        }),
        (
            (txn(), 0u32..8, 0u32..64, proptest::bool::ANY),
            (0u64..100_000, 1u64..5_000, 0u64..1_000),
        )
            .prop_map(
                |((txn, step, p, write), (units, chunk_units, seal))| Msg::Access {
                    txn,
                    step,
                    partition: wtpg_core::partition::PartitionId(p),
                    mode: if write {
                        AccessMode::Write
                    } else {
                        AccessMode::Read
                    },
                    units,
                    chunk_units,
                    seal,
                }
            ),
        (txn(), 0u32..8, 0u64..u64::MAX, 0u64..100_000).prop_map(
            |(txn, step, checksum, units)| Msg::AccessDone {
                txn,
                step,
                checksum,
                units,
            }
        ),
        (0u32..16, txn()).prop_map(|(client, txn)| Msg::Commit { client, txn }),
        (txn(), 0u32..8, 0u64..1_000, 0u64..5_000).prop_map(|(txn, step, chunk, units)| {
            Msg::StatsDelta {
                txn,
                step,
                chunk,
                units,
            }
        }),
        (
            (txn(), 0u32..8, 0u32..64, 0u64..100_000),
            (
                0u64..1_000,
                proptest::collection::vec(0u64..1_000, 0..4),
                0u64..1_000,
            ),
        )
            .prop_map(
                |((txn, step, p, units), (horizon, exclude, floor))| Msg::SnapshotRead {
                    txn,
                    step,
                    partition: wtpg_core::partition::PartitionId(p),
                    units,
                    horizon,
                    exclude,
                    floor,
                }
            ),
        (txn(), 0u32..8, 0u64..u64::MAX, 0u64..100_000).prop_map(
            |(txn, step, checksum, units)| Msg::SnapshotReply {
                txn,
                step,
                checksum,
                units,
            }
        ),
        (
            (0u32..u32::MAX, 0u64..u64::MAX),
            proptest::collection::vec(txn(), 0..40),
            proptest::collection::vec((0u32..64, 0u64..u64::MAX), 0..6),
        )
            .prop_map(|((shard, below), txns, floors)| Msg::Forget {
                shard,
                below: TxnId(below),
                txns,
                floors: floors
                    .into_iter()
                    .map(|(p, f)| (wtpg_core::partition::PartitionId(p), f))
                    .collect(),
            }),
        Just(Msg::Shutdown),
    ]
}

/// Tags 1, 2, 3 and 7 carried the retired Grant/Reject/Delay/Abort messages,
/// tag 12 the retired `RecoverAck`: `[tag] ++ body`, bare or as the inner
/// message of a batch, must decode to the unknown-tag error — never a panic,
/// never a `Msg`.
fn expect_unknown_tag(tag: u8, body: &[u8]) -> Result<(), TestCaseError> {
    let payload = [&[tag][..], body].concat();
    prop_assert_eq!(decode_payload(&payload), Err(CodecError::BadTag(tag)));
    let mut batch = vec![10u8];
    batch.extend(1u32.to_le_bytes());
    batch.extend((payload.len() as u32).to_le_bytes());
    batch.extend(&payload);
    prop_assert_eq!(decode_payload(&batch), Err(CodecError::BadTag(tag)));
    Ok(())
}

/// What an old peer would still send: the retired variants' exact encodings.
#[test]
fn retired_encodings_are_unknown_tags() {
    let txn = 7u64.to_le_bytes();
    let step = 1u32.to_le_bytes();
    let ack = [2u32, 1, 5].map(u32::to_le_bytes).concat();
    let old: [(u8, Vec<u8>); 5] = [
        (1, [&txn[..], &[1], &step[..]].concat()), // Grant { txn, step: Some(1) }
        (2, txn.to_vec()),                         // Reject { txn }
        (3, [&txn[..], &step[..]].concat()),       // Delay { txn, step }
        (7, [&2u32.to_le_bytes()[..], &txn[..]].concat()), // Abort { client, txn }
        (12, ack),                                 // RecoverAck { node, shard, outstanding }
    ];
    for (tag, body) in old {
        expect_unknown_tag(tag, &body).expect("retired tag must not decode");
    }
}

/// Strategy: a flat coalesced batch of 1–8 inner messages. `arb_msg` never
/// yields `Msg::Batch`, so nesting (which senders must not produce) cannot
/// occur by construction here.
fn arb_batch() -> impl Strategy<Value = Msg> {
    proptest::collection::vec(arb_msg(), 1..=8).prop_map(Msg::Batch)
}

proptest! {
    /// A sender's buffer — whatever it still holds — gains exactly the frame
    /// a fresh encode produces behind what it held, for plain messages and
    /// batches alike.
    #[test]
    fn encoding_into_a_held_buffer_appends_a_fresh_frame(
        m in prop_oneof![arb_msg(), arb_batch()],
        previous in prop_oneof![arb_msg(), arb_batch()],
        junk in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut frame = junk.clone();
        encode_frame_into(&mut frame, &previous);
        encode_frame_into(&mut frame, &m);
        let fresh = encode_frame(&m);
        prop_assert_eq!(&frame, &[junk, encode_frame(&previous), fresh.clone()].concat());
        let payload = encode_payload(&m);
        prop_assert_eq!(&fresh[..4], &(payload.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&fresh[4..], &payload[..]);
    }

    #[test]
    fn batch_payload_round_trips_byte_stably(b in arb_batch()) {
        let bytes = encode_payload(&b);
        let back = decode_payload(&bytes).expect("own batch encoding must decode");
        prop_assert_eq!(&back, &b);
        prop_assert_eq!(encode_payload(&back), bytes);
    }

    #[test]
    fn batch_frame_round_trips_and_consumes_exactly(b in arb_batch()) {
        let frame = encode_frame(&b);
        let (back, used) = decode_frame(&frame).expect("own batch framing must decode");
        prop_assert_eq!(back, b);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn every_batch_truncation_is_rejected(b in arb_batch()) {
        // The batch header pins the inner count, and every inner frame pins
        // its length, so no prefix may decode as a shorter valid batch.
        let payload = encode_payload(&b);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_payload(&payload[..cut]).is_err(),
                "batch truncation at {cut}/{} must be rejected",
                payload.len()
            );
        }
        let frame = encode_frame(&b);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_frame(&frame[..cut]).is_err(),
                "batch frame truncation at {cut}/{} must be rejected",
                frame.len()
            );
        }
    }

    #[test]
    fn batch_trailing_garbage_is_rejected(b in arb_batch(), junk in 1usize..8) {
        let mut payload = encode_payload(&b);
        payload.extend(std::iter::repeat_n(0xAB, junk));
        match decode_payload(&payload) {
            Err(CodecError::TrailingGarbage { extra }) => prop_assert_eq!(extra, junk),
            other => prop_assert!(false, "expected TrailingGarbage, got {other:?}"),
        }
    }

    #[test]
    fn batch_with_flipped_tag_never_panics(b in arb_batch(), tag in 0u8..=255) {
        let mut payload = encode_payload(&b);
        payload[0] = tag;
        if let Ok(back) = decode_payload(&payload) {
            prop_assert_eq!(back.tag(), tag, "decoded message must match its tag");
        }
    }

    #[test]
    fn nested_batches_are_rejected(inner in arb_batch(), tail in proptest::collection::vec(arb_msg(), 0..3)) {
        // Hand-assemble what a buggy coalescer would send: a batch whose
        // first inner frame is itself a batch. The decoder must call it out
        // as nesting, regardless of what follows.
        let mut payload = vec![10u8];
        payload.extend(((1 + tail.len()) as u32).to_le_bytes());
        let first = encode_payload(&inner);
        payload.extend((first.len() as u32).to_le_bytes());
        payload.extend(first);
        for m in &tail {
            let bytes = encode_payload(m);
            payload.extend((bytes.len() as u32).to_le_bytes());
            payload.extend(bytes);
        }
        prop_assert_eq!(decode_payload(&payload), Err(CodecError::NestedBatch));
    }

    #[test]
    fn oversize_batch_counts_are_rejected(count in (MAX_BATCH + 1)..=u32::MAX) {
        let mut payload = vec![10u8];
        payload.extend(count.to_le_bytes());
        prop_assert_eq!(
            decode_payload(&payload),
            Err(CodecError::Oversize(count as usize))
        );
    }

    #[test]
    fn oversize_notice_lists_are_rejected(
        count in (MAX_FORGET + 1)..=u32::MAX,
        (shard, below) in (0u32..u32::MAX, 0u64..u64::MAX),
        txns in proptest::collection::vec(0u64..u64::MAX, 0..8),
    ) {
        // Either list claiming more than MAX_FORGET entries is refused from
        // its count alone, before any entry is read; the shard and its mark
        // come first.
        let mut head = vec![15u8];
        head.extend(shard.to_le_bytes());
        head.extend(below.to_le_bytes());
        let mut payload = head.clone();
        payload.extend(count.to_le_bytes());
        prop_assert_eq!(decode_payload(&payload), Err(CodecError::Oversize(count as usize)));
        let mut payload = head;
        payload.extend((txns.len() as u32).to_le_bytes());
        for t in &txns {
            payload.extend(t.to_le_bytes());
        }
        payload.extend(count.to_le_bytes());
        prop_assert_eq!(decode_payload(&payload), Err(CodecError::Oversize(count as usize)));
    }

    #[test]
    fn oversize_inner_frames_are_rejected(len in (MAX_FRAME as u32 + 1)..=u32::MAX) {
        // A coalesced inner frame claiming more than MAX_FRAME bytes is
        // rejected from its header alone — no allocation, no read-ahead.
        let mut payload = vec![10u8];
        payload.extend(1u32.to_le_bytes());
        payload.extend(len.to_le_bytes());
        prop_assert_eq!(
            decode_payload(&payload),
            Err(CodecError::Oversize(len as usize))
        );
    }
}

proptest! {
    #[test]
    fn payload_round_trips(m in arb_msg()) {
        let bytes = encode_payload(&m);
        let back = decode_payload(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &m);
        // Byte stability: re-encoding the decoded message is identical.
        prop_assert_eq!(encode_payload(&back), bytes);
    }

    #[test]
    fn frame_round_trips_and_consumes_exactly(m in arb_msg()) {
        let frame = encode_frame(&m);
        let (back, used) = decode_frame(&frame).expect("own framing must decode");
        prop_assert_eq!(back, m);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn every_truncation_is_rejected(m in arb_msg()) {
        let payload = encode_payload(&m);
        for cut in 0..payload.len() {
            match decode_payload(&payload[..cut]) {
                Err(_) => {}
                Ok(short) => {
                    // A prefix that still decodes must not masquerade as the
                    // full message (it can only happen for... nothing: the
                    // codec has no variable-tail messages, so reject it).
                    prop_assert!(
                        false,
                        "truncation at {cut}/{} decoded as {short:?}",
                        payload.len()
                    );
                }
            }
        }
        let frame = encode_frame(&m);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_frame(&frame[..cut]).is_err(),
                "frame truncation at {cut}/{} must be Truncated",
                frame.len()
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(m in arb_msg(), junk in 1usize..8) {
        let mut payload = encode_payload(&m);
        payload.extend(std::iter::repeat_n(0xAB, junk));
        match decode_payload(&payload) {
            Err(CodecError::TrailingGarbage { extra }) => prop_assert_eq!(extra, junk),
            other => prop_assert!(false, "expected TrailingGarbage, got {other:?}"),
        }
    }

    #[test]
    fn retired_tags_never_decode(
        which in 0usize..5,
        body in proptest::collection::vec(0u8..=255, 0..32),
    ) {
        // Whatever follows a retired tag is never looked at.
        let tag = [1u8, 2, 3, 7, 12][which];
        expect_unknown_tag(tag, &body)?;
    }

    #[test]
    fn flipped_tag_never_panics(m in arb_msg(), tag in 0u8..=255) {
        let mut payload = encode_payload(&m);
        payload[0] = tag;
        // Any outcome is fine except a panic; a decode under a wrong tag
        // must also not produce the original message unless the tag is its.
        if let Ok(back) = decode_payload(&payload) {
            prop_assert_eq!(back.tag(), tag, "decoded message must match its tag");
        }
    }
}
