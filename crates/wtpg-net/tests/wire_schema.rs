//! Golden wire test: pins the wire itself. `wire-schema.lock` holds the
//! codec ceilings and, for every `Msg` variant in declaration order, its tag
//! byte and the encoded frame (hex) of one exemplar whose fields all carry
//! different values — so a reordered, retyped, added or dropped field, a
//! changed tag and a moved ceiling each change the text. On a mismatch the
//! test prints the whole regenerated lock; a deliberate protocol change
//! copies it over the file.

use std::fmt::Write;

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;
use wtpg_net::codec::{
    decode_frame, encode_frame, MAX_BATCH, MAX_EXCLUDE, MAX_FORGET, MAX_FRAME, MAX_STEPS,
};
use wtpg_net::Msg;

const LOCK: &str = include_str!("../../../wire-schema.lock");

/// The variant's name. Exhaustive: a new variant does not compile until it
/// is named here, and [`exemplars`] then misses it by name.
fn name(m: &Msg) -> &'static str {
    match m {
        Msg::Submit { .. } => "Submit",
        Msg::Access { .. } => "Access",
        Msg::AccessDone { .. } => "AccessDone",
        Msg::Commit { .. } => "Commit",
        Msg::StatsDelta { .. } => "StatsDelta",
        Msg::Shutdown => "Shutdown",
        Msg::Batch(_) => "Batch",
        Msg::Recover { .. } => "Recover",
        Msg::SnapshotRead { .. } => "SnapshotRead",
        Msg::SnapshotReply { .. } => "SnapshotReply",
        Msg::Forget { .. } => "Forget",
    }
}

/// One value per variant, in declaration order; within a variant no two
/// fields hold the same value.
fn exemplars() -> Vec<Msg> {
    let step = |p: u32, mode, cost: u64, actual: u64| StepSpec {
        partition: PartitionId(p),
        mode,
        cost: Work::from_units(cost),
        actual_cost: Work::from_units(actual),
    };
    let spec = TxnSpec::new(
        TxnId(0x0102),
        vec![
            step(3, AccessMode::Read, 40, 41),
            step(5, AccessMode::Write, 60, 61),
        ],
    );
    vec![
        Msg::Submit {
            client: 7,
            txn: TxnId(0x0102),
            step: Some(9),
            spec: Some(spec),
        },
        Msg::Access {
            txn: TxnId(11),
            step: 12,
            partition: PartitionId(13),
            mode: AccessMode::Write,
            units: 15,
            chunk_units: 16,
            seal: 17,
        },
        Msg::AccessDone {
            txn: TxnId(21),
            step: 22,
            checksum: 23,
            units: 24,
        },
        Msg::Commit {
            client: 31,
            txn: TxnId(32),
        },
        Msg::StatsDelta {
            txn: TxnId(41),
            step: 42,
            chunk: 43,
            units: 44,
        },
        Msg::Shutdown,
        Msg::Batch(vec![
            Msg::Commit {
                client: 51,
                txn: TxnId(52),
            },
            Msg::Shutdown,
        ]),
        Msg::Recover {
            node: 61,
            last_lsn: 62,
            replayed_chunks: 63,
        },
        Msg::SnapshotRead {
            txn: TxnId(81),
            step: 82,
            partition: PartitionId(83),
            units: 84,
            horizon: 85,
            exclude: vec![86, 87],
            floor: 88,
        },
        Msg::SnapshotReply {
            txn: TxnId(91),
            step: 92,
            checksum: 93,
            units: 94,
        },
        Msg::Forget {
            shard: 101,
            below: TxnId(102),
            txns: vec![TxnId(103), TxnId(104)],
            floors: vec![(PartitionId(105), 106)],
        },
    ]
}

/// The lock's text as the code writes the wire today.
fn render() -> String {
    let mut s = String::from(
        "# wire-schema.lock: the pinned wtpg-net wire protocol. The codec's\n\
         # ceilings, then one line per Msg variant in declaration order:\n\
         # `msg <Name> = <tag> <hex of one exemplar's encoded frame>`.\n\
         # crates/wtpg-net/tests/wire_schema.rs prints this text whole when it\n\
         # no longer matches the wire; a deliberate protocol change copies it here.\n",
    );
    for (key, value) in [
        ("max_frame", MAX_FRAME as u64),
        ("max_steps", MAX_STEPS.into()),
        ("max_batch", MAX_BATCH.into()),
        ("max_exclude", MAX_EXCLUDE.into()),
        ("max_forget", MAX_FORGET.into()),
    ] {
        let _ = writeln!(s, "{key} = {value}");
    }
    for m in exemplars() {
        let hex: String = encode_frame(&m)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let _ = writeln!(s, "msg {} = {} {hex}", name(&m), m.tag());
    }
    s
}

#[test]
fn the_wire_matches_the_lock() {
    let now = render();
    if now != LOCK {
        panic!(
            "the wire no longer matches wire-schema.lock; if the change is deliberate, \
             copy this text over the file:\n{now}"
        );
    }
}

#[test]
fn every_exemplar_decodes_to_itself() {
    for m in exemplars() {
        let frame = encode_frame(&m);
        let (back, used) = decode_frame(&frame).unwrap_or_else(|e| panic!("{}: {e}", name(&m)));
        assert_eq!((back, used), (m, frame.len()));
    }
}

/// `MsgCounts` keeps one counter per variant, in declaration order, named
/// after the variant in snake case; `Msg::count` must bump exactly that one.
#[test]
fn every_variant_bumps_its_own_count_field() {
    let mut counts = wtpg_obs::MsgCounts::default();
    let ex = exemplars();
    assert_eq!(counts.fields().len(), ex.len(), "one exemplar per variant");
    for (i, msg) in ex.iter().enumerate() {
        msg.count(&mut counts);
        let (field, n) = counts.fields()[i];
        assert_eq!(field.replace('_', ""), name(msg).to_lowercase());
        assert_eq!(n, 1, "Msg::{} must bump `{field}`", name(msg));
    }
    assert_eq!(counts.total(), ex.len() as u64);
}
