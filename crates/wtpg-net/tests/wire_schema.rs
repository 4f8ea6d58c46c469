//! Golden wire-schema test: pins every `Msg` variant's tag byte, its
//! `MsgCounts` field, and the codec ceilings against the checked-in
//! `wire-schema.lock` — the same
//! file `wtpg-lint`'s schema pass diffs against the source, so a protocol
//! change that skips the deliberate `--write-schema-lock` bump fails both
//! the lint (at the source side) and this test (at the runtime side).

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_lint::schema::parse_lock;
use wtpg_net::codec::{MAX_BATCH, MAX_EXCLUDE, MAX_FORGET, MAX_FRAME, MAX_STEPS};
use wtpg_net::Msg;

const LOCK: &str = include_str!("../../../wire-schema.lock");

/// One constructed value per variant, in declaration order.
fn exemplars() -> Vec<(&'static str, Msg)> {
    vec![
        (
            "Submit",
            Msg::Submit {
                client: 0,
                txn: TxnId(1),
                step: None,
                spec: None,
            },
        ),
        (
            "Access",
            Msg::Access {
                txn: TxnId(1),
                step: 0,
                partition: PartitionId(0),
                mode: AccessMode::Read,
                units: 1,
                chunk_units: 1,
                seal: 0,
            },
        ),
        (
            "AccessDone",
            Msg::AccessDone {
                txn: TxnId(1),
                step: 0,
                checksum: 0,
                units: 1,
            },
        ),
        (
            "Commit",
            Msg::Commit {
                client: 0,
                txn: TxnId(1),
            },
        ),
        (
            "StatsDelta",
            Msg::StatsDelta {
                txn: TxnId(1),
                step: 0,
                chunk: 0,
                units: 1,
            },
        ),
        ("Shutdown", Msg::Shutdown),
        ("Batch", Msg::Batch(vec![Msg::Shutdown])),
        (
            "Recover",
            Msg::Recover {
                node: 0,
                last_lsn: 0,
                replayed_chunks: 0,
            },
        ),
        (
            "RecoverAck",
            Msg::RecoverAck {
                node: 0,
                shard: 0,
                outstanding: 0,
            },
        ),
        (
            "SnapshotRead",
            Msg::SnapshotRead {
                txn: TxnId(1),
                step: 0,
                partition: PartitionId(0),
                units: 1,
                horizon: 0,
                exclude: vec![],
                floor: 0,
            },
        ),
        (
            "SnapshotReply",
            Msg::SnapshotReply {
                txn: TxnId(1),
                step: 0,
                checksum: 0,
                units: 1,
            },
        ),
        (
            "Forget",
            Msg::Forget {
                txns: vec![],
                floors: vec![],
            },
        ),
    ]
}

#[test]
fn every_variant_tag_matches_the_lock() {
    let lock = parse_lock(LOCK).expect("wire-schema.lock parses");
    let ex = exemplars();
    assert_eq!(
        lock.msgs.len(),
        ex.len(),
        "lock must pin exactly the current variant set"
    );
    for (pinned, (name, msg)) in lock.msgs.iter().zip(&ex) {
        assert_eq!(
            &pinned.name, name,
            "variant order drifted from the lock (regenerate deliberately)"
        );
        assert_eq!(
            u64::from(msg.tag()),
            pinned.tag,
            "wire tag of Msg::{name} drifted from the lock"
        );
    }
}

/// `MsgCounts` keeps one counter per variant, in declaration order, named
/// after the variant in snake case; `Msg::count` must bump exactly that one.
#[test]
fn every_variant_bumps_its_own_count_field() {
    let mut counts = wtpg_obs::MsgCounts::default();
    let ex = exemplars();
    for (i, (name, msg)) in ex.iter().enumerate() {
        msg.count(&mut counts);
        let (field, n) = counts.fields()[i];
        assert_eq!(field.replace('_', ""), name.to_lowercase());
        assert_eq!(n, 1, "Msg::{name} must bump `{field}`");
    }
    assert_eq!(counts.total(), ex.len() as u64);
}

#[test]
fn codec_ceilings_match_the_lock() {
    let lock = parse_lock(LOCK).expect("wire-schema.lock parses");
    assert_eq!(MAX_FRAME as u64, lock.max_frame, "MAX_FRAME drifted");
    assert_eq!(MAX_STEPS as u64, lock.max_steps, "MAX_STEPS drifted");
    assert_eq!(MAX_BATCH as u64, lock.max_batch, "MAX_BATCH drifted");
    assert_eq!(MAX_EXCLUDE as u64, lock.max_exclude, "MAX_EXCLUDE drifted");
    assert_eq!(MAX_FORGET as u64, lock.max_forget, "MAX_FORGET drifted");
}
