//! The data node as a state machine, driven single-threaded: every message
//! goes in through `DataActor::deliver` with a hand-advanced `now`, every
//! reply comes out of a `MsgTx` that records into a `Vec`. Nothing here
//! sleeps, blocks or reads a clock to wait on — the one `Instant::now()` is
//! the origin the test's own time is counted from.

#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::Recorder;
use proptest::prelude::*;
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_dur::checkpoint::files;
use wtpg_dur::wal::read_log;
use wtpg_dur::{recover, Durability};
use wtpg_mvcc::{apply_write_effect, read_checksum};
use wtpg_net::actor::{Actor, Flow};
use wtpg_net::data::{DataActor, DataNodeParams};
use wtpg_net::transport::MsgTx;
use wtpg_net::{CrashPlan, FaultPlan, KillPlan, LinkFaults, Msg, NetError};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;

/// Two nodes, four 2-object partitions: node 0 homes partitions 0 and 2.
fn catalog() -> Catalog {
    Catalog::uniform(4, 2, 2)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-data-node-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn params<'a>(catalog: &'a Catalog, reg: &'a Registry, log: Option<&'a Path>) -> DataNodeParams<'a> {
    DataNodeParams {
        catalog,
        node: 0,
        fault: FaultPlan::none(),
        batch_max: 3,
        log: log.map(|dir| (Durability::Buffered, dir)),
        reg,
        mvcc: false,
        shards: 1,
    }
}

fn access(txn: u64, partition: u32, mode: AccessMode, units: u64) -> Msg {
    Msg::Access {
        txn: TxnId(txn),
        step: 0,
        partition: PartitionId(partition),
        mode,
        units,
        chunk_units: units,
        seal: 0,
    }
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

#[test]
fn a_dark_window_loses_and_counts_exactly_what_arrives_inside_it() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, None);
    p.fault.crash = Some(CrashPlan { node: 0, after_msgs: 1, down_ms: 10 });
    let mut node = DataActor::start(p, &tx).expect("starts");
    let t0 = Instant::now();
    let order = |txn| access(txn, 0, AccessMode::Write, 1500);
    let drops = || reg.totals().get(metric::CRASH_DROPS).copied().unwrap_or(0);

    assert_eq!(node.deliver(order(1), t0).unwrap(), Flow::Continue);
    assert_eq!(drops(), 0, "the plan counts one handled message first");
    // The second message trips the plan and is lost with it; a batch inside
    // the window is lost whole and counts once.
    assert_eq!(node.deliver(order(2), t0 + ms(1)).unwrap(), Flow::Continue);
    let batch = Msg::Batch(vec![order(3), order(4)]);
    assert_eq!(node.deliver(batch, t0 + ms(5)).unwrap(), Flow::Continue);
    assert_eq!(node.idle(t0 + ms(10)).unwrap(), Flow::Continue);
    assert_eq!(node.deliver(order(5), t0 + ms(10)).unwrap(), Flow::Continue);
    assert_eq!(drops(), 3, "10 ms after the trip at 1 ms is still inside");
    // A down node does not speak: order 1's replies are still buffered.
    assert_eq!(node.before_block(t0 + ms(10)).unwrap(), Some(ms(1)));
    assert_eq!(heard.take(), vec![]);
    // At 11 ms the window is over: the delivery itself ends it and is handled.
    assert_eq!(node.deliver(order(2), t0 + ms(11)).unwrap(), Flow::Continue);
    assert_eq!(drops(), 3);
    assert_eq!(node.before_block(t0 + ms(11)).unwrap(), Some(Duration::MAX));
    let done: Vec<u64> = heard
        .take()
        .iter()
        .filter_map(|m| match m {
            Msg::AccessDone { txn, .. } => Some(txn.0),
            _ => None,
        })
        .collect();
    assert_eq!(done, vec![1, 2], "what was lost stays lost until redelivered");
    let out = node.finish().expect("finishes");
    assert_eq!(out.write_units, 3000);
}

#[test]
fn a_shutdown_nested_in_a_lost_batch_stops_the_node() {
    for kill in [false, true] {
        let (catalog, reg) = (catalog(), Registry::new());
        let dir = fresh_dir(if kill { "stop-kill" } else { "stop-crash" });
        let heard = Arc::new(Recorder::default());
        let tx: Arc<dyn MsgTx> = heard.clone();
        let mut p = params(&catalog, &reg, Some(&dir));
        if kill {
            p.fault.kill = Some(KillPlan { node: None, after_msgs: 1, down_ms: 50 });
        } else {
            p.fault.crash = Some(CrashPlan { node: 0, after_msgs: 1, down_ms: 50 });
        }
        let mut node = DataActor::start(p, &tx).expect("starts");
        let t0 = Instant::now();
        let order = |txn| access(txn, 2, AccessMode::Write, 700);
        assert_eq!(node.deliver(order(1), t0).unwrap(), Flow::Continue);
        assert_eq!(node.before_block(t0).unwrap(), Some(Duration::MAX));
        assert_eq!(node.deliver(order(2), t0 + ms(1)).unwrap(), Flow::Continue);
        let last = Msg::Batch(vec![order(3), Msg::Shutdown]);
        assert_eq!(node.deliver(last, t0 + ms(2)).unwrap(), Flow::Stop, "kill={kill}");
        assert_eq!(reg.totals().get(metric::CRASH_DROPS), Some(&2));
        // Whichever way it went down, what it applied and made durable is
        // what it reports — and a stopped node announces nothing.
        heard.take();
        let out = node.finish().expect("finishes");
        assert_eq!((out.cell_sum, out.write_units), (700, 700), "kill={kill}");
        assert_eq!(heard.take(), vec![]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The reply to one order: its one `AccessDone`'s `(checksum, units)`.
/// Anything else the node said is a failure.
fn answer(heard: &[Msg]) -> (u64, u64) {
    match heard {
        [Msg::AccessDone { checksum, units, .. }] => (*checksum, *units),
        other => panic!("expected one AccessDone, heard {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A step is one log record and one answer: an `Access` of any size,
    /// whatever its retired `chunk_units` field says, appends exactly one
    /// WAL record and answers once; a redelivered order appends none and
    /// answers with the same checksum, and so does one redelivered to a
    /// node killed and rebuilt from that log.
    #[test]
    fn a_step_is_one_record_and_one_answer(
        units in 0u64..6000,
        chunk_units in 0u64..1500,
        write in prop::bool::ANY,
    ) {
        let mode = if write { AccessMode::Write } else { AccessMode::Read };
        let catalog = catalog();
        let order = Msg::Access {
            txn: TxnId(9),
            step: 0,
            partition: PartitionId(2),
            mode,
            units,
            chunk_units,
            seal: 0,
        };
        let t0 = Instant::now();
        let dir = fresh_dir("one-record");
        let reg = Registry::new();
        let records = || reg.totals().get(metric::WAL_RECORDS).copied().unwrap_or(0);
        let heard = Arc::new(Recorder::default());
        let tx: Arc<dyn MsgTx> = heard.clone();
        let mut p = params(&catalog, &reg, Some(&dir));
        p.fault.kill = Some(KillPlan { node: Some(0), after_msgs: 2, down_ms: 5 });
        let mut node = DataActor::start(p, &tx).expect("starts");

        node.deliver(order.clone(), t0).unwrap();
        node.before_block(t0).unwrap();
        let first = answer(&heard.take());
        prop_assert_eq!(first.1, units);
        prop_assert_eq!(records(), 1, "one record for the whole step");
        node.deliver(order.clone(), t0).unwrap();
        node.before_block(t0).unwrap();
        prop_assert_eq!(answer(&heard.take()), first, "redelivery");
        prop_assert_eq!(records(), 1, "a redelivered order appends nothing");

        // The kill trips on the third delivery; the node comes back from
        // the one record and answers the order from it.
        node.deliver(order.clone(), t0).unwrap();
        prop_assert_eq!(node.idle(t0 + ms(5)).unwrap(), Flow::Continue);
        let rejoin = heard.take();
        prop_assert!(
            matches!(rejoin[..], [Msg::Recover { node: 0, replayed_chunks: 1, .. }]),
            "a restarted node announces itself: {:?}", rejoin
        );
        node.deliver(order, t0 + ms(6)).unwrap();
        node.before_block(t0 + ms(6)).unwrap();
        prop_assert_eq!(answer(&heard.take()), first, "redelivery after the kill");
        prop_assert_eq!(records(), 1, "nor does one after the kill");
        let out = node.finish().expect("finishes");
        let log = read_log(&files::node_wal(&dir, 0)).unwrap();
        prop_assert_eq!(log.records.len(), 1);
        let rec = log.records[0];
        prop_assert_eq!(
            (rec.chunk, rec.start_unit, rec.units, rec.checksum, rec.complete),
            (0, 0, units, first.0, true)
        );
        let write_units = if write { units } else { 0 };
        prop_assert_eq!((out.cell_sum, out.write_units), (write_units, write_units));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a run of the script left behind, in memory and on disk.
#[derive(Debug, PartialEq)]
struct EndState {
    outcome: (u64, u64, u64),
    parts: Vec<(u32, Vec<u64>)>,
    marks: BTreeMap<(TxnId, u32), (u64, u64)>,
    read_checksum: u64,
}

/// Drives `script` the way a control node with two orders in flight would:
/// bursts of two back to back (no flush in between, so a kill on the second
/// destroys buffered records and replies of the first), each burst re-sent
/// in order, past any dark window, until both orders are answered.
fn run_script(script: &[Msg], kill_at: Option<u64>, name: &str) -> EndState {
    let (catalog, reg) = (catalog(), Registry::new());
    let dir = fresh_dir(name);
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, Some(&dir));
    p.fault.kill = kill_at.map(|after_msgs| KillPlan { node: Some(0), after_msgs, down_ms: 5 });
    let mut node = DataActor::start(p, &tx).expect("starts");
    let mut now = Instant::now();
    for burst in script.chunks(2) {
        let mut owed: Vec<&Msg> = burst.iter().collect();
        for round in 0.. {
            assert!(round < 4, "a burst is answered within a kill and a redelivery");
            for order in &owed {
                assert_eq!(node.deliver((*order).clone(), now).unwrap(), Flow::Continue);
            }
            assert!(node.before_block(now).unwrap().is_some());
            for reply in heard.take() {
                if let Msg::AccessDone { txn: done, .. } = reply {
                    owed.retain(|o| !matches!(o, Msg::Access { txn, .. } if *txn == done));
                }
            }
            if owed.is_empty() {
                break;
            }
            now += ms(10);
        }
    }
    let out = node.finish().expect("finishes");
    let recoveries = reg.totals().get(metric::WAL_RECOVERIES).copied().unwrap_or(0);
    assert_eq!(recoveries, u64::from(kill_at.is_some()), "the kill fires exactly once");
    // The exit barrier completed the log, so what recovery reads back is
    // the node's final durable state.
    let rec = recover(&catalog, 0, &dir, 1).expect("log replays");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.store.cell_sum(), out.cell_sum, "memory and log agree");
    EndState {
        outcome: (out.cell_sum, out.write_units, out.read_checksum),
        parts: rec.store.snapshot_parts(),
        marks: rec.marks,
        read_checksum: rec.read_checksum,
    }
}

#[test]
fn a_kill_at_any_message_heals_to_the_unkilled_state() {
    use AccessMode::{Read, Write};
    let script = [
        access(1, 0, Write, 2600),
        access(2, 2, Write, 900),
        access(3, 0, Read, 2000),
        access(4, 0, Write, 1200),
        access(5, 2, Read, 4100),
        access(6, 2, Write, 333),
    ];
    let unkilled = run_script(&script, None, "unkilled");
    assert_eq!(unkilled.marks.len(), script.len());
    assert_eq!(unkilled.outcome.1, 2600 + 900 + 1200 + 333);
    assert_ne!(unkilled.read_checksum, 0);
    for kill_at in 0..script.len() as u64 {
        let healed = run_script(&script, Some(kill_at), &format!("killed-{kill_at}"));
        assert_eq!(healed, unkilled, "killed at message {kill_at}");
    }
}

fn snapshot_read(txn: u64, horizon: u64, exclude: &[u64]) -> Msg {
    Msg::SnapshotRead {
        txn: TxnId(txn),
        step: 0,
        partition: PartitionId(0),
        units: 2300,
        horizon,
        exclude: exclude.to_vec(),
        floor: 0,
    }
}

fn sealed_write(txn: u64, units: u64, seal: u64) -> Msg {
    Msg::Access {
        txn: TxnId(txn),
        step: 0,
        partition: PartitionId(0),
        mode: AccessMode::Write,
        units,
        chunk_units: units,
        seal,
    }
}

/// Delivers `m`, lets the node reach its pre-block point (the reply
/// flush), and returns what it said.
fn exchange(node: &mut DataActor<'_>, heard: &Recorder, m: Msg, now: Instant) -> Vec<Msg> {
    assert_eq!(node.deliver(m, now).unwrap(), Flow::Continue);
    assert_eq!(node.before_block(now).unwrap(), Some(Duration::MAX));
    heard.take()
}

/// What the node answers a snapshot read of partition 0 (2000 cells) whose
/// snapshot is the write steps of `writes` units applied to zeroed cells.
fn reply_over(txn: u64, writes: &[u64]) -> Msg {
    let mut cells = vec![0u64; 2000];
    for &units in writes {
        apply_write_effect(&mut cells, units);
    }
    let checksum = read_checksum(&cells, 2300);
    Msg::SnapshotReply { txn: TxnId(txn), step: 0, checksum, units: 2300 }
}

/// A notice from shard 0 whose mark passes nothing: `txns` retired,
/// `floors` raised on partition 0.
fn forget(txns: &[u64], floors: &[u64]) -> Msg {
    Msg::Forget {
        shard: 0,
        below: TxnId(0),
        txns: txns.iter().map(|&t| TxnId(t)).collect(),
        floors: floors.iter().map(|&f| (PartitionId(0), f)).collect(),
    }
}

/// A notice from `shard` carrying its mark `below` and naming nothing.
fn mark(shard: u32, below: u64) -> Msg {
    Msg::Forget { shard, below: TxnId(below), txns: vec![], floors: vec![] }
}

/// A served snapshot read keeps answering byte-identically while its reader
/// may still be redelivered to — across racing writes and a floor at its
/// hold — and its memo goes with the notice that names its reader, while
/// the memos of readers it does not name stay.
#[test]
fn a_snapshot_memo_outlives_racing_writes_and_goes_with_the_notice_naming_its_reader() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, None);
    p.mvcc = true;
    let mut node = DataActor::start(p, &tx).expect("starts");
    let now = Instant::now();
    let reads = || reg.totals().get(metric::SNAPSHOT_READS).copied().unwrap_or(0);
    let mut ask = |m: Msg| exchange(&mut node, &heard, m, now);

    // 1. Seal 0 (2500 units) has applied; seal 1 is sealed, uncommitted and
    // not applied yet. Reader 10 sees seal 0 alone: its hold is 1.
    ask(sealed_write(1, 2500, 0));
    let first = ask(snapshot_read(10, 2, &[1]));
    assert_eq!(first, vec![reply_over(10, &[2500])]);
    assert_eq!(reads(), 1);

    // 2. The excluded writer's step and two writes sealed above the horizon
    // apply; reader 11, whose snapshot has both seals below 2 committed,
    // holds 2. Reader 10's redelivery answers from the memo.
    ask(sealed_write(2, 700, 1));
    ask(sealed_write(3, 900, 2));
    ask(sealed_write(4, 4100, 3));
    let second = ask(snapshot_read(11, 2, &[]));
    assert_eq!(second, vec![reply_over(11, &[2500, 700])]);
    assert_eq!(ask(snapshot_read(10, 2, &[1])), first);
    assert_eq!(reads(), 2, "a redelivery is not a read");

    // 3. A floor at reader 10's hold drops seal 0 from the chain: a probe at
    // horizon 0 un-applies every live entry, so it still sees seal 0. Reader
    // 10's redelivery is byte-identical.
    assert_eq!(ask(forget(&[], &[1])), vec![]);
    assert_eq!(ask(snapshot_read(10, 2, &[1])), first);
    assert_eq!(ask(snapshot_read(12, 0, &[])), vec![reply_over(12, &[2500])]);
    assert_eq!(reads(), 3);

    // 4. The floor passes reader 10's hold and a notice retires it: its memo
    // is gone — a redelivery, which control never sends after the notice,
    // would be read afresh over a chain that no longer holds seal 1 — while
    // reader 11's, which no notice named, stays.
    assert_eq!(ask(forget(&[1, 2, 10], &[2])), vec![]);
    assert_eq!(ask(snapshot_read(11, 2, &[])), second);
    assert_eq!(ask(snapshot_read(10, 2, &[1])), vec![reply_over(10, &[2500, 700])]);
    assert_eq!(reads(), 4, "the named reader's memo is gone");
    assert_eq!(ask(snapshot_read(11, 2, &[])), second);
    assert_eq!(reads(), 4, "an unnamed reader's memo stays");
    node.finish().expect("finishes");
    assert_eq!(reg.totals().get(metric::CHAIN_PRUNED), Some(&2));
    // Marks of writers 3 and 4, memos of readers 10 (read afresh), 11, 12.
    assert_eq!(reg.totals().get(metric::DATA_BOOKS_LEFT), Some(&5));
}

/// A notice drops the marks of the transactions it names and no other:
/// an unnamed writer's redelivered order is still answered from its mark,
/// not applied a second time.
#[test]
fn a_notice_drops_the_marks_it_names_and_no_other() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut node = DataActor::start(params(&catalog, &reg, None), &tx).expect("starts");
    let now = Instant::now();
    let units = || reg.totals().get(metric::DATA_UNITS).copied().unwrap_or(0);
    let write = |txn| access(txn, 0, AccessMode::Write, 1000);
    for txn in [1, 2, 3] {
        exchange(&mut node, &heard, write(txn), now);
    }
    assert_eq!(exchange(&mut node, &heard, forget(&[3, 1], &[]), now), vec![]);
    let again = exchange(&mut node, &heard, write(2), now);
    assert_eq!(done_of(&again), vec![2], "answered");
    assert_eq!(units(), 3000, "from its mark, not applied again");
    node.finish().expect("finishes");
    assert_eq!(reg.totals().get(metric::DATA_BOOKS_LEFT), Some(&1), "writer 2's mark");
}

/// After a kill the replay brings back the marks of writers retired before
/// it, named or not. No handshake retires them: the node forgets below the
/// least mark of every shard it has heard since the restart, so they go
/// once both shards' next notices are in, and the marks at or above that
/// mark stay until a notice names them.
#[test]
fn replayed_marks_below_every_shards_mark_go_with_the_next_notices() {
    let (catalog, reg) = (catalog(), Registry::new());
    let dir = fresh_dir("replayed-books");
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, Some(&dir));
    p.shards = 2;
    p.fault.kill = Some(KillPlan { node: Some(0), after_msgs: 5, down_ms: 5 });
    let mut node = DataActor::start(p, &tx).expect("starts");
    let t0 = Instant::now();
    let units = || reg.totals().get(metric::DATA_UNITS).copied().unwrap_or(0);
    let write = |txn| access(txn, 0, AccessMode::Write, 1000);
    for txn in [1, 2, 3, 4] {
        exchange(&mut node, &heard, write(txn), t0);
    }
    exchange(&mut node, &heard, forget(&[1, 2], &[]), t0);
    assert_eq!(node.deliver(write(5), t0).unwrap(), Flow::Continue, "trips and is lost");
    assert_eq!(node.idle(t0 + ms(5)).unwrap(), Flow::Continue);
    assert!(matches!(heard.take()[..], [Msg::Recover { node: 0, .. }]));
    let later = t0 + ms(5);
    // Writer 3's re-sent order is answered from its replayed mark.
    assert_eq!(done_of(&exchange(&mut node, &heard, write(3), later)), vec![3]);
    assert_eq!(units(), 4000, "not applied again");
    // Shard 0's mark alone passes nothing: shard 1 may still ask.
    assert_eq!(exchange(&mut node, &heard, mark(0, 4), later), vec![]);
    assert_eq!(done_of(&exchange(&mut node, &heard, write(3), later)), vec![3]);
    assert_eq!(units(), 4000, "writer 3's replayed mark is still held");
    assert_eq!(done_of(&exchange(&mut node, &heard, write(5), later)), vec![5]);
    assert_eq!(exchange(&mut node, &heard, mark(1, 6), later), vec![]);
    node.finish().expect("finishes");
    assert_eq!(units(), 5000);
    assert_eq!(reg.totals().get(metric::DATA_BOOKS_LEFT), Some(&2), "writers 4 and 5");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A notice delivered inside a crash window is lost with the rest of the
/// window's deliveries; the transactions it named go with the next notice,
/// whose mark has passed them.
#[test]
fn what_a_notice_lost_in_a_crash_window_named_goes_with_the_next_mark() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, None);
    p.fault.crash = Some(CrashPlan { node: 0, after_msgs: 3, down_ms: 5 });
    let mut node = DataActor::start(p, &tx).expect("starts");
    let t0 = Instant::now();
    let write = |txn| access(txn, 0, AccessMode::Write, 1000);
    for txn in [1, 2, 3] {
        exchange(&mut node, &heard, write(txn), t0);
    }
    let lost = Msg::Forget { shard: 0, below: TxnId(3), txns: vec![TxnId(1), TxnId(2)], floors: vec![] };
    assert_eq!(node.deliver(lost, t0).unwrap(), Flow::Continue, "trips and is lost");
    assert_eq!(node.idle(t0 + ms(5)).unwrap(), Flow::Continue);
    assert_eq!(done_of(&exchange(&mut node, &heard, write(4), t0 + ms(5))), vec![4]);
    exchange(&mut node, &heard, mark(0, 4), t0 + ms(5));
    node.finish().expect("finishes");
    assert_eq!(reg.totals().get(metric::CRASH_DROPS), Some(&1));
    assert_eq!(reg.totals().get(metric::DATA_BOOKS_LEFT), Some(&1), "writer 4's mark");
}

/// The txns of the `AccessDone`s in `heard`.
fn done_of(heard: &[Msg]) -> Vec<u64> {
    heard
        .iter()
        .filter_map(|m| match m {
            Msg::AccessDone { txn, .. } => Some(txn.0),
            _ => None,
        })
        .collect()
}

#[test]
fn a_down_node_blocks_only_for_what_is_left_of_its_window() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, None);
    p.fault.crash = Some(CrashPlan { node: 0, after_msgs: 0, down_ms: 10 });
    let mut node = DataActor::start(p, &tx).expect("starts");
    let t0 = Instant::now();
    assert_eq!(node.before_block(t0).unwrap(), Some(Duration::MAX), "up: until a message");
    let order = access(1, 0, AccessMode::Write, 1000);
    assert_eq!(node.deliver(order, t0).unwrap(), Flow::Continue, "trips and is lost");
    for left in [10, 7, 1] {
        assert_eq!(node.before_block(t0 + ms(10 - left)).unwrap(), Some(ms(left)));
    }
    assert_eq!(node.idle(t0 + ms(10)).unwrap(), Flow::Continue);
    assert_eq!(node.before_block(t0 + ms(10)).unwrap(), Some(Duration::MAX), "up again");
    assert_eq!(heard.take(), vec![]);
}

/// Every reply frame delayed, by up to a millisecond; none duplicated.
const SLOW: LinkFaults = LinkFaults {
    delay_prob_pct: 100,
    max_delay_us: 1000,
    dup_prob_pct: 0,
};

/// The txns whose `AccessDone` was heard since the last call.
fn done(heard: &Recorder) -> Vec<u64> {
    heard
        .take()
        .iter()
        .filter_map(|m| match m {
            Msg::AccessDone { txn, .. } => Some(txn.0),
            _ => None,
        })
        .collect()
}

/// Order 1 answered and its reply frame held on a slow link, then order 2
/// delivered: the node, started with `p`, trips on it. Returns the node and
/// how long after `t0` the held frame is due.
fn held_then_tripped<'a>(
    p: DataNodeParams<'a>,
    tx: &Arc<dyn MsgTx>,
    heard: &Recorder,
    t0: Instant,
) -> (DataActor<'a>, Duration) {
    let mut p = p;
    p.fault.link = SLOW;
    p.fault.seed = 1;
    let mut node = DataActor::start(p, tx).expect("starts");
    let order = |txn| access(txn, 0, AccessMode::Write, 1500);
    assert_eq!(node.deliver(order(1), t0).unwrap(), Flow::Continue);
    let wait = node.before_block(t0).unwrap().expect("up");
    assert!(wait > Duration::ZERO && wait <= ms(1), "the reply frame is held: {wait:?}");
    assert_eq!(heard.take(), vec![], "nothing delivered before it is due");
    assert_eq!(node.deliver(order(2), t0).unwrap(), Flow::Continue, "trips and is lost");
    (node, wait)
}

#[test]
fn a_reply_the_link_holds_when_a_kill_fires_still_reaches_control() {
    let (catalog, reg) = (catalog(), Registry::new());
    let dir = fresh_dir("held-kill");
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, Some(&dir));
    p.fault.kill = Some(KillPlan { node: Some(0), after_msgs: 1, down_ms: 5 });
    let t0 = Instant::now();
    let (mut node, wait) = held_then_tripped(p, &tx, &heard, t0);
    // The process died; the frame on the wire did not. The dead node sleeps
    // until it is due, not until the window's end.
    assert_eq!(node.before_block(t0).unwrap(), Some(wait));
    assert_eq!(node.idle(t0 + wait).unwrap(), Flow::Continue);
    assert_eq!(done(&heard), vec![1], "the held reply reaches control after the kill");
    assert_eq!(node.before_block(t0 + wait).unwrap(), Some(ms(5) - wait));
    node.finish().expect("finishes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crashed_node_releases_a_due_frame_during_its_window() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut p = params(&catalog, &reg, None);
    p.fault.crash = Some(CrashPlan { node: 0, after_msgs: 1, down_ms: 10 });
    let t0 = Instant::now();
    let (mut node, wait) = held_then_tripped(p, &tx, &heard, t0);
    assert_eq!(node.before_block(t0).unwrap(), Some(wait), "down: wakes when the frame is due");
    assert_eq!(node.idle(t0 + wait).unwrap(), Flow::Continue);
    assert_eq!(done(&heard), vec![1], "released inside the window");
    assert_eq!(node.before_block(t0 + wait).unwrap(), Some(ms(10) - wait), "the window's rest");
    assert_eq!(reg.totals().get(metric::FAULT_DELAYS), None, "booked when the coalescer retires");
    node.finish().expect("finishes");
    assert_eq!(reg.totals().get(metric::FAULT_DELAYS), Some(&1));
}

/// A batch nested in a batch is a protocol error, though the order it
/// carries is well-formed: dispatch does not recurse, and nothing is
/// applied.
#[test]
fn a_nested_batch_is_a_protocol_error() {
    let (catalog, reg) = (catalog(), Registry::new());
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    let mut node = DataActor::start(params(&catalog, &reg, None), &tx).expect("starts");
    let t0 = Instant::now();
    let nested = Msg::Batch(vec![Msg::Batch(vec![access(1, 0, AccessMode::Write, 1500)])]);
    match node.deliver(nested, t0) {
        Err(NetError::Protocol(why)) => assert!(why.contains("batch inside a batch"), "{why}"),
        other => panic!("a nested batch must be refused, got {other:?}"),
    }
    assert_eq!(node.before_block(t0).unwrap(), Some(Duration::MAX));
    assert_eq!(heard.take(), vec![], "nothing was answered");
    assert_eq!(node.finish().expect("finishes").write_units, 0, "nothing was applied");
}
