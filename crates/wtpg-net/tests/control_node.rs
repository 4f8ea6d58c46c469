//! The control actor as a state machine, driven single-threaded: every
//! message goes in through `ControlActor::deliver` (or a quiet poll through
//! `idle`) with a hand-advanced `now`, every order and ack comes out of a
//! `MsgTx` that records. Nothing here pauses, blocks or reads a clock to
//! wait on — the one `Instant::now()` per test is the origin its own time
//! is counted from. The links are never flushed by age: every frame seen
//! here left at `before_block`, at a re-send, or at a rejoin.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::Recorder;
use wtpg_core::certify::certify_history;
use wtpg_core::history::Event;
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::txn::{StepSpec, TxnId, TxnSpec};
use wtpg_net::actor::{Actor, Flow};
use wtpg_net::control::{ControlActor, ControlOutcome, ControlParams, NOTICE_AT};
use wtpg_net::transport::MsgTx;
use wtpg_net::{FaultPlan, Msg, NetError};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;
use wtpg_rt::backoff::Backoff;
use wtpg_rt::sched_by_name;

/// Redelivery: 1 ms, doubling to a 4 ms cap; the fourth unanswered re-send
/// declares the node unavailable.
const RETRY: Backoff = Backoff {
    base_us: 1_000,
    cap_us: 4_000,
    max_attempts: 4,
};

/// Deliveries between busy scans (`control.rs`'s `SCAN_EVERY`).
const SCAN_EVERY: usize = 64;

/// Two nodes, four 2-object partitions: node 0 homes partitions 0 and 2.
fn catalog() -> Catalog {
    Catalog::uniform(4, 2, 2)
}

fn params<'a>(reg: &'a Registry, sched: &str, clients: usize) -> ControlParams<'a> {
    ControlParams {
        sched: sched_by_name(sched, 2, 2000).expect("known scheduler"),
        clients,
        retry: RETRY,
        watchdog: Duration::from_secs(30),
        batch_max: 64,
        ack_batch_max: 64,
        admit_window: 4,
        shard: 0,
        fault: FaultPlan::none(),
        stream: false,
        reg,
        mvcc: false,
    }
}

/// Recording links to two data nodes and `clients` clients.
struct Links {
    data: Vec<Arc<Recorder>>,
    clients: Vec<Arc<Recorder>>,
    to_data: Vec<Arc<dyn MsgTx>>,
    to_clients: Vec<Arc<dyn MsgTx>>,
}

fn links(clients: usize) -> Links {
    let data: Vec<Arc<Recorder>> = (0..2).map(|_| Arc::default()).collect();
    let clients: Vec<Arc<Recorder>> = (0..clients).map(|_| Arc::default()).collect();
    let tx = |r: &Arc<Recorder>| Arc::clone(r) as Arc<dyn MsgTx>;
    Links {
        to_data: data.iter().map(tx).collect(),
        to_clients: clients.iter().map(tx).collect(),
        data,
        clients,
    }
}

fn start<'a>(p: ControlParams<'a>, cat: &'a Catalog, l: &'a Links) -> ControlActor<'a> {
    ControlActor::start(p, cat, &l.to_data, &l.to_clients)
}

fn submit(client: u32, txn: u64, steps: Vec<StepSpec>) -> Msg {
    Msg::Submit {
        client,
        txn: TxnId(txn),
        step: None,
        spec: Some(TxnSpec::new(TxnId(txn), steps)),
    }
}

fn done(txn: u64, units: u64) -> Msg {
    done_at(txn, 0, units)
}

fn done_at(txn: u64, step: u32, units: u64) -> Msg {
    Msg::AccessDone {
        txn: TxnId(txn),
        step,
        checksum: 0,
        units,
    }
}

/// The transactions of the `Access` orders in `heard`, in order; anything
/// else heard is a failure.
fn accesses(heard: Vec<Msg>) -> Vec<u64> {
    heard
        .into_iter()
        .map(|m| match m {
            Msg::Access { txn, .. } => txn.0,
            other => panic!("expected an Access order, heard {other:?}"),
        })
        .collect()
}

/// The transactions acked to a client.
fn acks(heard: Vec<Msg>) -> Vec<u64> {
    heard
        .into_iter()
        .map(|m| match m {
            Msg::Commit { txn, .. } => txn.0,
            other => panic!("expected a Commit ack, heard {other:?}"),
        })
        .collect()
}

fn count(reg: &Registry, name: &str) -> u64 {
    reg.totals().get(name).copied().unwrap_or(0)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn a_turn_that_commits_several_of_a_clients_transactions_sends_it_one_frame() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(2));
    let mut ctl = start(params(&reg, "chain", 2), &catalog, &l);
    let t0 = Instant::now();
    // Client 0 owns txns 1 and 2, client 1 owns txn 3: one partition each.
    for (client, txn, partition) in [(0, 1, 0), (0, 2, 1), (1, 3, 2)] {
        ctl.deliver(submit(client, txn, vec![StepSpec::write(partition, 1.0)]), t0)
            .unwrap();
    }
    ctl.before_block(t0).unwrap();
    let replies = Msg::Batch(vec![done(1, 1000), done(2, 1000), done(3, 1000)]);
    ctl.deliver(replies, t0).unwrap();
    assert!(l.clients[0].frames().is_empty(), "acks wait for the turn's end");
    ctl.before_block(t0).unwrap();
    let frames = l.clients[0].frames();
    let [Msg::Batch(inner)] = &frames[..] else {
        panic!("two acks, one frame: {frames:?}");
    };
    assert_eq!(acks(inner.clone()), [1, 2]);
    let frames = l.clients[1].frames();
    assert!(matches!(frames[..], [Msg::Commit { txn: TxnId(3), .. }]), "{frames:?}");
    for _ in 0..2 {
        ctl.deliver(Msg::Shutdown, t0).unwrap();
    }
    ctl.finish().expect("finishes");
    let sent = ["batch", "commit"].map(|ty| count(&reg, &metric::msg_tx(ty)));
    assert_eq!(sent, [1 + 1, 1], "an Access frame to node 0, the ack frame; one plain ack");
    assert_eq!(count(&reg, &metric::msg_rx("commit")), 0, "control hears no acks");
}

#[test]
fn redelivery_follows_the_backoff_schedule_exactly() {
    assert_eq!(
        (0..5).map(|a| RETRY.delay_us(a)).collect::<Vec<_>>(),
        [1_000, 2_000, 4_000, 4_000, 4_000],
        "the schedule under test doubles, then caps"
    );
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    ctl.deliver(submit(0, 1, vec![StepSpec::write(0, 1.0)]), t0)
        .unwrap();
    ctl.before_block(t0).unwrap();
    assert_eq!(accesses(l.data[0].take()), [1]);
    let mut deadline = t0 + us(RETRY.delay_us(0));
    for attempt in 1..=6u32 {
        assert_eq!(ctl.idle(deadline - us(1)).unwrap(), Flow::Continue);
        assert_eq!(
            accesses(l.data[0].take()),
            [0u64; 0],
            "early at attempt {attempt}"
        );
        ctl.idle(deadline).unwrap();
        assert_eq!(accesses(l.data[0].take()), [1], "due at attempt {attempt}");
        assert_eq!(count(&reg, metric::ACCESS_RETRIES), u64::from(attempt));
        assert_eq!(
            count(&reg, metric::NODE_UNAVAILABLE),
            u64::from(attempt >= RETRY.max_attempts),
            "the node is declared unavailable once, at the budget (attempt {attempt})"
        );
        deadline += us(RETRY.delay_us(attempt.min(RETRY.max_attempts)));
    }
    assert!(l.data[1].take().is_empty());
}

/// A rejoined node's outstanding orders go out at once as one frame, closed
/// by a notice with the shard's mark, due or not: the replay brought back
/// books the mark has passed.
#[test]
fn recover_resends_the_nodes_orders_as_one_frame_with_the_mark() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    // Two orders on node 0 (partitions 0 and 2), one on node 1.
    for (txn, partition) in [(1, 0), (2, 2), (3, 1)] {
        ctl.deliver(submit(0, txn, vec![StepSpec::write(partition, 1.0)]), t0)
            .unwrap();
    }
    ctl.before_block(t0).unwrap();
    assert_eq!(accesses(l.data[0].take()), [1, 2]);
    assert_eq!(accesses(l.data[1].take()), [3]);

    let rejoin = t0 + us(500);
    let recover = Msg::Recover {
        node: 0,
        last_lsn: 0,
        replayed_chunks: 0,
    };
    assert_eq!(ctl.deliver(recover, rejoin).unwrap(), Flow::Continue);
    let frames = l.data[0].frames();
    let [Msg::Batch(burst)] = frames.as_slice() else {
        panic!("expected the re-send burst as one frame, and nothing else: {frames:?}");
    };
    let [first, second, notice] = burst.as_slice() else {
        panic!("two orders and a notice: {burst:?}");
    };
    assert_eq!(accesses(vec![first.clone(), second.clone()]), [1, 2]);
    // Writer 1 is the oldest live transaction: the mark is 1.
    let mark = Msg::Forget { shard: 0, below: TxnId(1), txns: vec![], floors: vec![] };
    assert_eq!(notice, &mark);
    assert!(
        l.data[1].frames().is_empty(),
        "another node's orders stay put"
    );
    assert_eq!(count(&reg, metric::ACCESS_RETRIES), 2);

    // The rejoin restarted node 0's schedule; node 1's is untouched.
    ctl.idle(rejoin + us(RETRY.delay_us(0) - 1)).unwrap();
    assert_eq!(accesses(l.data[0].take()), [0u64; 0]);
    assert_eq!(accesses(l.data[1].take()), [3]);
    ctl.idle(rejoin + us(RETRY.delay_us(0))).unwrap();
    assert_eq!(accesses(l.data[0].take()), [1, 2]);
}

#[test]
fn a_busy_inbox_still_redelivers_every_scan() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    let first = submit(0, 1, vec![StepSpec::write(0, 1.0)]);
    ctl.deliver(first.clone(), t0).unwrap();
    ctl.before_block(t0).unwrap();
    assert_eq!(accesses(l.data[0].take()), [1]);
    // Past the deadline, but never idle: duplicate submissions keep the
    // inbox busy, and only the scan on the SCAN_EVERY-th delivery re-sends.
    let late = t0 + us(RETRY.delay_us(0));
    for _ in 2..SCAN_EVERY {
        ctl.deliver(first.clone(), late).unwrap();
    }
    assert_eq!(accesses(l.data[0].take()), [0u64; 0]);
    ctl.deliver(first, late).unwrap();
    assert_eq!(
        accesses(l.data[0].take()),
        [1],
        "the busy scan re-sent the due order"
    );
}

/// A turn longer than a busy scan, whose instant moves well past 100 µs,
/// still leaves each node one frame at its end: the links flush when the
/// shard's turn ends, not on a clock.
#[test]
fn a_long_turn_sends_each_node_its_orders_as_one_frame_at_its_end() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    // Node 0 homes partitions 0 and 2, node 1 partitions 1 and 3.
    let first = submit(0, 1, vec![StepSpec::write(0, 1.0)]);
    ctl.deliver(first.clone(), t0).unwrap();
    ctl.deliver(submit(0, 2, vec![StepSpec::write(1, 1.0)]), t0).unwrap();
    // Duplicates keep the inbox busy through the scan on the SCAN_EVERY-th
    // delivery, 200 µs after the first orders were buffered.
    let later = t0 + us(200);
    for _ in 2..SCAN_EVERY {
        ctl.deliver(first.clone(), later).unwrap();
    }
    ctl.deliver(submit(0, 3, vec![StepSpec::write(2, 1.0)]), later).unwrap();
    ctl.deliver(submit(0, 4, vec![StepSpec::write(3, 1.0)]), later).unwrap();
    assert!(
        l.data.iter().all(|d| d.frames().is_empty()),
        "nothing leaves before the turn ends"
    );
    ctl.before_block(later).unwrap();
    for (node, want) in [(0, [1, 3]), (1, [2, 4])] {
        let frames = l.data[node].frames();
        let [Msg::Batch(inner)] = &frames[..] else {
            panic!("node {node}: the turn's orders as one frame, got {frames:?}");
        };
        assert_eq!(accesses(inner.clone()), want, "node {node}");
    }
}

/// What `out`'s history booked for writers past their arrival: step
/// completions and commits, in order.
fn credits(out: &ControlOutcome) -> Vec<(&'static str, TxnId)> {
    out.audit
        .history
        .events()
        .iter()
        .filter_map(|&(_, e)| match e {
            Event::Progress { txn, .. } => Some(("progress", txn)),
            Event::StepCompleted { txn, .. } => Some(("step", txn)),
            Event::Committed(txn) => Some(("commit", txn)),
            _ => None,
        })
        .collect()
}

#[test]
fn duplicates_are_absorbed_on_both_planes() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut p = params(&reg, "chain", 1);
    p.mvcc = true;
    let mut ctl = start(p, &catalog, &l);
    let t0 = Instant::now();

    // A two-step writer: its first step's `AccessDone` twice (a duplicated
    // frame), its second's after the commit it triggered, and its
    // submission again — everything past the first copy finds nothing to do.
    let steps = || vec![StepSpec::write(0, 1.5), StepSpec::write(2, 1.0)];
    ctl.deliver(submit(0, 1, steps()), t0).unwrap();
    for m in [
        done_at(1, 0, 1500),
        done_at(1, 0, 1500),
        done_at(1, 1, 1000),
        done_at(1, 1, 1000),
        done_at(1, 0, 1500),
        submit(0, 1, steps()),
    ] {
        assert_eq!(ctl.deliver(m, t0).unwrap(), Flow::Continue);
    }
    ctl.before_block(t0).unwrap();
    assert_eq!(
        accesses(l.data[0].take()),
        [1, 1],
        "one order per step, never re-issued"
    );
    assert_eq!(acks(l.clients[0].take()), [1], "one ack");

    // A reader: a reply after it retired, and its submission again.
    ctl.deliver(submit(0, 7, vec![StepSpec::read(2, 1.0)]), t0)
        .unwrap();
    ctl.before_block(t0).unwrap();
    // The writer's commit raised the floors of partitions 0 and 2: the
    // notice rides behind the reader's order, in its frame.
    let floor = Msg::Forget {
        shard: 0,
        below: TxnId(7),
        txns: vec![],
        floors: vec![(PartitionId(0), 1), (PartitionId(2), 1)],
    };
    assert!(matches!(
        &l.data[0].frames()[..],
        [Msg::Batch(inner)] if matches!(&inner[..], [Msg::SnapshotRead { txn: TxnId(7), .. }, f] if *f == floor)
    ));
    let reply = Msg::SnapshotReply {
        txn: TxnId(7),
        step: 0,
        checksum: 9,
        units: 1000,
    };
    for m in [
        reply.clone(),
        reply,
        submit(0, 7, vec![StepSpec::read(2, 1.0)]),
    ] {
        assert_eq!(ctl.deliver(m, t0).unwrap(), Flow::Continue);
    }
    ctl.before_block(t0).unwrap();
    assert!(l.data[0].take().is_empty());
    assert_eq!(acks(l.clients[0].take()), [7]);

    assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Stop);
    let out = ctl.finish().expect("finishes");
    assert_eq!(out.mvcc.as_ref().expect("the plane was on").readers.len(), 1);
    // What the history booked: each of the writer's steps once, on its
    // `AccessDone` alone, and its commit; the reader never reaches the
    // scheduler.
    let t1 = TxnId(1);
    assert_eq!(
        credits(&out),
        [("step", t1), ("step", t1), ("commit", t1)],
        "each step booked once, writers only"
    );
}

/// A step answers once, with its `AccessDone`: a per-chunk `StatsDelta` is
/// refused, whether or not its step is in flight, and books nothing.
#[test]
fn a_stats_delta_is_a_protocol_error() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    ctl.deliver(submit(0, 1, vec![StepSpec::write(0, 1.5)]), t0)
        .unwrap();
    for txn in [1, 2] {
        let delta = Msg::StatsDelta {
            txn: TxnId(txn),
            step: 0,
            chunk: 0,
            units: 500,
        };
        let err = ctl.deliver(delta, t0).unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(m) if m.contains("StatsDelta")),
            "txn {txn}: {err:?}"
        );
    }
    ctl.deliver(done(1, 1500), t0).unwrap();
    assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Stop);
    let out = ctl.finish().expect("finishes");
    assert_eq!(credits(&out), [("step", TxnId(1)), ("commit", TxnId(1))]);
}

#[test]
fn the_run_ends_after_every_goodbye_and_the_last_commit_in_either_order() {
    for goodbyes_first in [false, true] {
        let (catalog, reg, l) = (catalog(), Registry::new(), links(2));
        let mut ctl = start(params(&reg, "chain", 2), &catalog, &l);
        let t0 = Instant::now();
        let first = submit(1, 1, vec![StepSpec::write(0, 1.0)]);
        assert_eq!(ctl.deliver(first, t0).unwrap(), Flow::Continue);
        if goodbyes_first {
            assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Continue);
            assert_eq!(
                ctl.deliver(Msg::Shutdown, t0).unwrap(),
                Flow::Continue,
                "txn 1 is live"
            );
            assert_eq!(ctl.idle(t0).unwrap(), Flow::Continue);
            assert_eq!(ctl.deliver(done(1, 1000), t0).unwrap(), Flow::Stop);
        } else {
            let commit = ctl.deliver(done(1, 1000), t0).unwrap();
            assert_eq!(commit, Flow::Continue, "nobody said goodbye yet");
            assert_eq!(ctl.idle(t0).unwrap(), Flow::Continue);
            let one = ctl.deliver(Msg::Shutdown, t0).unwrap();
            assert_eq!(one, Flow::Continue, "one client to go");
            assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Stop);
        }
        ctl.finish().expect("finishes");
        assert_eq!(acks(l.clients[1].take()), [1], "the ack leaves with the last flush");
        assert_eq!(
            count(&reg, &metric::shard_commits(0)),
            1,
            "goodbyes_first={goodbyes_first}"
        );
    }
    // A client with nothing to submit still says goodbye, and that ends it.
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    assert_eq!(
        ctl.deliver(Msg::Shutdown, Instant::now()).unwrap(),
        Flow::Stop
    );
}

/// ASL admits a transaction only if every lock it declares is free, so with
/// txn 1 holding partition 0, txns 2 and 3 (both on partition 0) are
/// rejected, in that order. The older rejection keeps its turn: a fresh one
/// queues behind it, and a re-attempted head bounces back to the front.
#[test]
fn a_fresh_rejection_queues_behind_an_older_one() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "asl", 1), &catalog, &l);
    let t0 = Instant::now();
    for txn in 1..=3 {
        ctl.deliver(submit(0, txn, vec![StepSpec::write(0, 1.0)]), t0)
            .unwrap();
    }
    ctl.idle(t0).unwrap(); // re-attempts the head, which bounces
    ctl.before_block(t0).unwrap();
    assert_eq!(
        accesses(l.data[0].take()),
        [1],
        "2 and 3 wait in the backlog"
    );
    ctl.deliver(done(1, 1000), t0).unwrap();
    ctl.before_block(t0).unwrap();
    assert_eq!(acks(l.clients[0].take()), [1]);
    assert_eq!(
        accesses(l.data[0].take()),
        [2],
        "the older rejection goes first"
    );
    ctl.deliver(done(2, 1000), t0).unwrap();
    ctl.before_block(t0).unwrap();
    assert_eq!(accesses(l.data[0].take()), [3]);
}

/// Silence counts from the last delivery, duplicates included: a whole
/// watchdog of it passes, a microsecond more is a wedged run.
#[test]
fn the_silence_watchdog_counts_from_the_last_delivery() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let p = params(&reg, "chain", 1);
    let watchdog = p.watchdog;
    let mut ctl = start(p, &catalog, &l);
    let t0 = Instant::now();
    let first = submit(0, 1, vec![StepSpec::write(0, 1.0)]);
    ctl.deliver(first.clone(), t0).unwrap();
    assert_eq!(ctl.idle(t0 + watchdog).unwrap(), Flow::Continue);
    let last = t0 + watchdog;
    ctl.deliver(first, last).unwrap();
    assert_eq!(ctl.idle(last + watchdog).unwrap(), Flow::Continue);
    let err = ctl.idle(last + watchdog + us(1)).unwrap_err();
    assert!(
        matches!(&err, NetError::RecvTimeout { actor } if actor == "control shard 0"),
        "{err:?}"
    );
}

/// C2PL never rejects an admission, so every turn-away here is a step
/// request's: readers 2 and 4 are `Blocked` on partition 0, which txn 1
/// writes and holds to its commit. Nothing before that commit re-asks them
/// — not the step completions and commit of txn 3, on other partitions, not
/// a quiet poll — and the commit grants both in the same delivery.
/// `batch_max` and `ack_batch_max` 1 send every order and every ack the
/// moment it is issued.
#[test]
fn a_blocked_request_waits_for_the_commit_that_frees_its_partition() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut p = params(&reg, "c2pl", 1);
    p.batch_max = 1;
    p.ack_batch_max = 1;
    let mut ctl = start(p, &catalog, &l);
    let t0 = Instant::now();
    for (txn, steps) in [
        (1, vec![StepSpec::write(0, 1.0)]),
        (2, vec![StepSpec::read(0, 1.0)]),
        (3, vec![StepSpec::write(1, 1.0), StepSpec::write(3, 1.0)]),
        (4, vec![StepSpec::read(0, 1.0)]),
    ] {
        ctl.deliver(submit(0, txn, steps), t0).unwrap();
    }
    assert_eq!(accesses(l.data[0].take()), [1]);
    assert_eq!(accesses(l.data[1].take()), [3]);
    assert_eq!(count(&reg, metric::SCHED_DELAYS), 2, "2 and 4 asked once");

    ctl.deliver(done_at(3, 0, 1000), t0).unwrap();
    assert_eq!(accesses(l.data[1].take()), [3]);
    ctl.idle(t0).unwrap();
    assert_eq!(
        count(&reg, &metric::shard_parked(0)),
        2,
        "the live view still counts the blocked requests"
    );
    ctl.deliver(done_at(3, 1, 1000), t0).unwrap();
    assert_eq!(acks(l.clients[0].take()), [3]);
    assert_eq!(
        count(&reg, metric::SCHED_DELAYS),
        2,
        "txn 3's completions and commit free nothing 2 and 4 wait on"
    );

    ctl.deliver(done(1, 1000), t0).unwrap();
    assert_eq!(acks(l.clients[0].take()), [1]);
    assert_eq!(
        accesses(l.data[0].take()),
        [2, 4],
        "the freeing commit grants every waiter in the same delivery"
    );
    assert_eq!(count(&reg, metric::SCHED_DELAYS), 2);
    ctl.idle(t0).unwrap();
    assert_eq!(count(&reg, &metric::shard_parked(0)), 0);
}

/// C2PL predicts a deadlock for txn 2's first step (it would take
/// partition 1 while txn 1, holding partition 0, still needs it) and delays
/// it. A delay can end without a commit, so every step completion re-asks.
#[test]
fn a_delayed_request_is_re_asked_on_every_step_completion() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut p = params(&reg, "c2pl", 1);
    p.batch_max = 1;
    let mut ctl = start(p, &catalog, &l);
    let t0 = Instant::now();
    for (txn, steps) in [
        (1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]),
        (2, vec![StepSpec::write(1, 1.0), StepSpec::write(0, 1.0)]),
        (3, vec![StepSpec::write(2, 1.0), StepSpec::write(3, 1.0)]),
    ] {
        ctl.deliver(submit(0, txn, steps), t0).unwrap();
    }
    assert_eq!(accesses(l.data[0].take()), [1, 3]);
    assert_eq!(count(&reg, metric::SCHED_DELAYS), 1, "txn 2 asked once");

    ctl.deliver(done_at(3, 0, 1000), t0).unwrap();
    assert_eq!(accesses(l.data[1].take()), [3]);
    assert_eq!(
        count(&reg, metric::SCHED_DELAYS),
        2,
        "txn 3's step completion re-asked txn 2"
    );
}

/// A TCP peer may name any transaction id. Ids far apart — which the
/// shard's books keep beside their dense window, allocating no gap — are
/// admitted, redelivered in ascending id order, committed, and their late
/// duplicates absorbed, exactly as dense ones are.
#[test]
fn ids_far_apart_are_driven_like_dense_ones() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    let ids = [3, 1 << 40, u64::MAX];
    for (txn, partition) in ids.into_iter().zip([0, 2, 0]) {
        ctl.deliver(submit(0, txn, vec![StepSpec::write(partition, 1.0)]), t0)
            .unwrap();
    }
    ctl.before_block(t0).unwrap();
    assert_eq!(
        accesses(l.data[0].take()),
        [3, 1 << 40],
        "the third waits on partition 0"
    );
    ctl.idle(t0 + us(RETRY.delay_us(0))).unwrap();
    assert_eq!(
        accesses(l.data[0].take()),
        [3, 1 << 40],
        "redelivered in ascending id order"
    );
    for txn in ids {
        ctl.deliver(done(txn, 1000), t0).unwrap();
        ctl.deliver(done(txn, 1000), t0).unwrap();
    }
    ctl.before_block(t0).unwrap();
    assert_eq!(acks(l.clients[0].take()), ids);
    assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Stop);
    let out = ctl.finish().expect("finishes");
    assert_eq!(count(&reg, &metric::shard_commits(0)), 3);
    assert!(out.audit.specs.is_empty(), "a declaration is dropped at its commit");
}

/// A run certifies against the workload's declarations, not against what
/// control received: a shard handed a `Submit` whose declaration is not the
/// plan's spec for that id schedules it as received, and the replay — the
/// one `assemble` runs — fails, naming the transaction. Certified against
/// what control received, the same history passes.
#[test]
fn certification_reads_the_workloads_declarations_not_controls_copy() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    let plan = [
        TxnSpec::new(TxnId(1), vec![StepSpec::write(0, 1.0)]),
        TxnSpec::new(TxnId(2), vec![StepSpec::write(1, 1.0)]),
    ];
    // T2 arrives declaring partition 3, where the plan has partition 1.
    let sent = [plan[0].steps().to_vec(), vec![StepSpec::write(3, 1.0)]];
    for (txn, steps) in (1..).zip(sent.clone()) {
        ctl.deliver(submit(0, txn, steps), t0).unwrap();
    }
    ctl.before_block(t0).unwrap();
    for txn in [1, 2] {
        ctl.deliver(done(txn, 1000), t0).unwrap();
    }
    ctl.before_block(t0).unwrap();
    assert_eq!(acks(l.clients[0].take()), [1, 2]);
    assert_eq!(ctl.deliver(Msg::Shutdown, t0).unwrap(), Flow::Stop);
    let history = ctl.finish().expect("finishes").audit.history;
    let mode = sched_by_name("chain", 2, 2000).expect("known").certify_mode();
    let v = certify_history(&history, &plan[..], mode).expect_err("T2 ran off its declaration");
    assert!(v.what.contains("T2"), "the violation names the transaction: {v}");
    let received: Vec<TxnSpec> =
        (1..).zip(sent).map(|(id, steps)| TxnSpec::new(TxnId(id), steps)).collect();
    certify_history(&history, &received[..], mode).expect("what control received certifies");
}

/// A submission naming a partition outside the catalog is refused as a
/// protocol error before any book or lock table sizes itself by it.
#[test]
fn a_submission_outside_the_catalog_is_a_protocol_error() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let err = ctl
        .deliver(
            submit(0, 1, vec![StepSpec::write(u32::MAX, 1.0)]),
            Instant::now(),
        )
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Protocol(m) if m.contains("outside")),
        "{err:?}"
    );
}

/// A committed writer is named to the node that served it, and the names
/// ride behind an order once `NOTICE_AT` have gathered: no frame of their
/// own, nothing to a node the writers never touched.
#[test]
fn retired_writers_ride_behind_an_order_once_a_notice_is_due() {
    let (catalog, reg, l) = (catalog(), Registry::new(), links(1));
    let mut ctl = start(params(&reg, "chain", 1), &catalog, &l);
    let t0 = Instant::now();
    let writers = NOTICE_AT as u64;
    for txn in 1..=writers + 1 {
        ctl.deliver(submit(0, txn, vec![StepSpec::write(0, 1.0)]), t0).unwrap();
        ctl.before_block(t0).unwrap();
        if txn <= writers {
            ctl.deliver(done(txn, 1000), t0).unwrap();
        }
    }
    let frames = l.data[0].frames();
    assert_eq!(frames.len() as u64, writers + 1, "one frame per order: {frames:?}");
    let (last, plain) = frames.split_last().expect("frames");
    assert_eq!(accesses(plain.to_vec()), (1..=writers).collect::<Vec<_>>());
    let Msg::Batch(inner) = last else {
        panic!("the last order carries the notice: {last:?}");
    };
    let retired: Vec<TxnId> = (1..=writers).map(TxnId).collect();
    // Writer 17 is live and the client's next id is 18: the mark is 17.
    let notice = Msg::Forget { shard: 0, below: TxnId(writers + 1), txns: retired, floors: vec![] };
    assert!(matches!(&inner[..], [Msg::Access { txn, .. }, n] if txn.0 == writers + 1 && *n == notice));
    assert!(l.data[1].frames().is_empty(), "node 1 served nobody");
}

/// The finished set spans the ids between the mark and the newest, not the
/// run: a stream four times as long, committing out of order inside each
/// window of four, leaves it holding as many slots.
#[test]
fn the_finished_set_holds_as_many_slots_however_long_the_run() {
    let slots = |windows: u64| {
        let (catalog, reg, l) = (catalog(), Registry::new(), links(2));
        let mut ctl = start(params(&reg, "chain", 2), &catalog, &l);
        let t0 = Instant::now();
        for w in 0..windows {
            let ids = [1, 2, 3, 4].map(|i| 4 * w + i);
            for (i, txn) in (0u32..).zip(ids) {
                ctl.deliver(submit(i % 2, txn, vec![StepSpec::write(i, 1.0)]), t0).unwrap();
            }
            ctl.before_block(t0).unwrap();
            for i in [2, 0, 3, 1] {
                ctl.deliver(done(ids[i], 1000), t0).unwrap();
            }
            ctl.before_block(t0).unwrap();
        }
        let slots = ctl.finished_slots();
        for _ in 0..2 {
            ctl.deliver(Msg::Shutdown, t0).unwrap();
        }
        ctl.finish().expect("finishes");
        assert_eq!(count(&reg, &metric::shard_commits(0)), 4 * windows);
        slots
    };
    let (short, long) = (slots(100), slots(400));
    println!("finished slots: {short} at 1x, {long} at 4x");
    assert!(short < 64, "{short} slots for four ids in flight");
    assert_eq!(short, long, "the finished set grew with the run");
}
