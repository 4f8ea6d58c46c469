//! The client as a state machine, driven single-threaded: every ack goes in
//! through `ClientActor::deliver`, every wait through `before_block` and
//! `idle`, each with a hand-advanced `now`, and every submission comes out of
//! a `MsgTx` that records. Nothing here pauses, blocks or reads a clock to
//! wait on — the one `Instant::now()` per test is the origin its own time is
//! counted from.

#![expect(clippy::panic, reason = "test code: a failed check is a failed test")]
#![expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::Recorder;
use wtpg_core::txn::{StepSpec, TxnId, TxnSpec};
use wtpg_net::actor::{Actor, Flow};
use wtpg_net::client::{ClientActor, OpenLoopPlan};
use wtpg_net::transport::MsgTx;
use wtpg_net::{Msg, NetError};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;

const WATCHDOG: Duration = Duration::from_millis(250);

/// Messages per frame to control.
const BATCH_MAX: usize = 128;

/// Transactions 1..=n, one write each.
fn writes(n: u64) -> Vec<TxnSpec> {
    (1..=n)
        .map(|id| TxnSpec::new(TxnId(id), vec![StepSpec::write(0, 1.0)]))
        .collect()
}

/// The transactions of the `Submit`s in `heard`, in order; anything else
/// heard is a failure.
fn submitted(heard: Vec<Msg>) -> Vec<u64> {
    heard
        .into_iter()
        .map(|m| match m {
            Msg::Submit { txn, .. } => txn.0,
            other => panic!("expected a Submit, heard {other:?}"),
        })
        .collect()
}

fn ack(txn: u64) -> Msg {
    Msg::Commit {
        client: 0,
        txn: TxnId(txn),
    }
}

fn count(reg: &Registry, name: &str) -> u64 {
    reg.totals().get(name).copied().unwrap_or(0)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn is_timeout(r: Result<Flow, NetError>) -> bool {
    matches!(r, Err(NetError::RecvTimeout { actor }) if actor == "client 0")
}

/// A client's link to control, and the books it keeps.
struct Rig {
    reg: Registry,
    heard: Arc<Recorder>,
    tx: Arc<dyn MsgTx>,
}

fn rig() -> Rig {
    let heard = Arc::new(Recorder::default());
    let tx: Arc<dyn MsgTx> = heard.clone();
    Rig {
        reg: Registry::new(),
        heard,
        tx,
    }
}

impl Rig {
    /// Client 0 of 1: closed loop `pipeline` deep, or open loop under `open`.
    fn client<'a>(
        &'a self,
        specs: &'a [TxnSpec],
        open: Option<&'a OpenLoopPlan<'a>>,
        pipeline: usize,
    ) -> ClientActor<'a> {
        ClientActor::start(0, 1, specs, open, &self.tx, WATCHDOG, pipeline, BATCH_MAX, &self.reg)
    }
}

#[test]
fn a_closed_loop_refills_one_per_ack_and_says_goodbye_once() {
    let (r, specs) = (rig(), writes(5));
    let mut c = r.client(&specs, None, 2);
    let t0 = Instant::now();
    assert_eq!(c.before_block(t0).unwrap(), Some(WATCHDOG));
    assert_eq!(submitted(r.heard.take()), [1, 2], "pipeline-deep at once");
    // Acks come back in any order; each frees exactly one slot.
    let script = [
        (2, vec![3], 2),
        (1, vec![4], 2),
        (3, vec![5], 2),
        (5, vec![], 1),
        (4, vec![], 0),
    ];
    for (k, (txn, refill, inflight)) in (1..).zip(script) {
        let now = t0 + ms(k);
        assert_eq!(c.deliver(ack(txn), now).unwrap(), Flow::Continue);
        let wait = c.before_block(now).unwrap();
        assert_eq!(submitted(r.heard.take()), refill, "after the ack of {txn}");
        assert_eq!(count(&r.reg, metric::INFLIGHT), inflight);
        assert_eq!(wait, (inflight > 0).then_some(WATCHDOG), "stop after the last ack");
    }
    let out = c.finish().expect("finishes");
    assert_eq!(r.heard.take(), [Msg::Shutdown], "one goodbye, after the last ack");
    // Latency is the ack's pop instant less the submission's, in ack order.
    assert_eq!(out.writer_latencies_us, [1000, 2000, 2000, 1000, 3000]);
    assert!(out.shed_ids.is_empty());
    assert_eq!(
        (count(&r.reg, metric::SUBMITTED), count(&r.reg, metric::SHED)),
        (5, 0),
        "a closed loop never sheds"
    );
}

#[test]
fn an_open_loop_fires_on_time_and_sheds_only_into_a_full_window() {
    let (r, specs) = (rig(), writes(4));
    let t0 = Instant::now();
    let arrivals = [100, 200, 300, 400];
    let plan = OpenLoopPlan {
        arrivals_us: &arrivals,
        inflight: 2,
        origin: t0,
    };
    let mut c = r.client(&specs, Some(&plan), 16);
    for (at, txn) in [(100, 1), (200, 2)] {
        assert_eq!(c.before_block(t0 + us(at - 1)).unwrap(), Some(us(1)));
        assert_eq!(submitted(r.heard.take()), [0u64; 0], "1 µs early");
        c.before_block(t0 + us(at)).unwrap();
        assert_eq!(submitted(r.heard.take()), [txn], "due at {at} µs");
    }
    // 3 finds the window full and is shed; an ack frees a slot for 4.
    c.before_block(t0 + us(300)).unwrap();
    assert_eq!(submitted(r.heard.take()), [0u64; 0]);
    c.deliver(ack(1), t0 + us(350)).unwrap();
    c.before_block(t0 + us(400)).unwrap();
    assert_eq!(submitted(r.heard.take()), [4]);
    for txn in [2, 4] {
        c.deliver(ack(txn), t0 + us(450)).unwrap();
    }
    assert_eq!(c.before_block(t0 + us(450)).unwrap(), None);
    let out = c.finish().expect("finishes");
    assert_eq!(out.shed_ids, [TxnId(3)]);
    assert_eq!(
        [metric::OFFERED, metric::SHED, metric::SUBMITTED].map(|m| count(&r.reg, m)),
        [4, 1, 3]
    );
}

#[test]
fn a_duplicate_ack_is_tallied_and_ignored() {
    let (r, specs) = (rig(), writes(2));
    let mut c = r.client(&specs, None, 2);
    let t0 = Instant::now();
    c.before_block(t0).unwrap();
    assert_eq!(submitted(r.heard.take()), [1, 2]);
    for k in 1..=2 {
        assert_eq!(c.deliver(ack(1), t0 + ms(k)).unwrap(), Flow::Continue);
    }
    assert_eq!(c.before_block(t0 + ms(2)).unwrap(), Some(WATCHDOG), "2 is still owed");
    c.deliver(ack(2), t0 + ms(3)).unwrap();
    assert_eq!(c.before_block(t0 + ms(3)).unwrap(), None);
    let out = c.finish().expect("finishes");
    assert_eq!(out.writer_latencies_us, [1000, 3000], "booked once");
    assert_eq!(count(&r.reg, metric::COMMITS), 2);
    assert_eq!(count(&r.reg, &metric::msg_rx("commit")), 3, "heard thrice");
}

#[test]
fn the_watchdog_counts_only_silence_while_acks_are_owed() {
    // Closed loop: from the last message, exactly `WATCHDOG` of silence.
    let (r, specs) = (rig(), writes(2));
    let mut c = r.client(&specs, None, 2);
    let t0 = Instant::now();
    c.before_block(t0).unwrap();
    c.deliver(ack(1), t0 + ms(100)).unwrap();
    let last = t0 + ms(100);
    assert_eq!(c.idle(last + WATCHDOG - us(1)).unwrap(), Flow::Continue);
    assert!(is_timeout(c.idle(last + WATCHDOG)));

    // Open loop: nothing is owed across a gap longer than the watchdog, and
    // the next arrival's clock starts when it is submitted.
    let (r, specs) = (rig(), writes(2));
    let arrivals = [0, 10_000_000];
    let plan = OpenLoopPlan {
        arrivals_us: &arrivals,
        inflight: 4,
        origin: t0,
    };
    let mut c = r.client(&specs, Some(&plan), 16);
    c.before_block(t0).unwrap();
    c.deliver(ack(1), t0 + ms(1)).unwrap();
    assert_eq!(c.idle(t0 + ms(5_000)).unwrap(), Flow::Continue, "nothing owed");
    let sent = t0 + ms(10_000);
    c.before_block(sent).unwrap();
    assert_eq!(submitted(r.heard.take()), [1, 2]);
    assert_eq!(c.idle(sent + WATCHDOG - us(1)).unwrap(), Flow::Continue);
    assert!(is_timeout(c.idle(sent + WATCHDOG)));
}

#[test]
fn the_wait_is_the_watchdog_closed_and_the_next_arrival_open() {
    let (r, specs) = (rig(), writes(2));
    let mut c = r.client(&specs, None, 1);
    let t0 = Instant::now();
    assert_eq!(c.before_block(t0).unwrap(), Some(WATCHDOG));
    assert_eq!(c.before_block(t0 + ms(1)).unwrap(), Some(WATCHDOG), "a full window");

    let (r, specs) = (rig(), writes(2));
    let arrivals = [1_000, 1_200];
    let plan = OpenLoopPlan {
        arrivals_us: &arrivals,
        inflight: 4,
        origin: t0,
    };
    let mut c = r.client(&specs, Some(&plan), 16);
    assert_eq!(c.before_block(t0).unwrap(), Some(ms(1)), "until the first arrival");
    assert_eq!(c.before_block(t0 + us(700)).unwrap(), Some(us(300)));
    assert_eq!(c.before_block(t0 + us(1_000)).unwrap(), Some(us(200)));
    assert_eq!(c.before_block(t0 + us(1_200)).unwrap(), Some(WATCHDOG), "owed, none to come");
    assert_eq!(submitted(r.heard.take()), [1, 2]);
}

#[test]
fn a_firing_of_n_arrivals_sends_one_frame() {
    let (r, specs) = (rig(), writes(5));
    let mut c = r.client(&specs, None, 4);
    let t0 = Instant::now();
    c.before_block(t0).unwrap();
    let frames = r.heard.frames();
    assert_eq!(frames.len(), 1, "four arrivals, one frame: {frames:?}");
    let Some(Msg::Batch(inner)) = frames.first() else {
        panic!("four submissions travel as a Batch: {frames:?}");
    };
    assert_eq!(submitted(inner.clone()), [1, 2, 3, 4]);
    // One ack frees one slot: a firing of one sends it plain.
    c.deliver(ack(2), t0 + ms(1)).unwrap();
    c.before_block(t0 + ms(1)).unwrap();
    let frames = r.heard.frames();
    assert!(matches!(frames[..], [Msg::Submit { txn: TxnId(5), .. }]), "{frames:?}");
    assert_eq!(count(&r.reg, &metric::msg_tx("batch")), 0, "books at exit");
    for txn in [1, 3, 4, 5] {
        c.deliver(ack(txn), t0 + ms(2)).unwrap();
    }
    assert_eq!(c.before_block(t0 + ms(2)).unwrap(), None);
    c.finish().expect("finishes");
    let sent = ["batch", "submit", "shutdown"].map(|ty| count(&r.reg, &metric::msg_tx(ty)));
    assert_eq!(sent, [1, 1, 1], "frames, by type");
    assert_eq!(count(&r.reg, metric::BATCHED_INNER), 4);
}

#[test]
fn a_batch_of_acks_books_each_ack() {
    let (r, specs) = (rig(), writes(3));
    let mut c = r.client(&specs, None, 3);
    let t0 = Instant::now();
    c.before_block(t0).unwrap();
    assert_eq!(submitted(r.heard.take()), [1, 2, 3]);
    let acks = Msg::Batch(vec![ack(3), ack(1)]);
    assert_eq!(c.deliver(acks, t0 + ms(2)).unwrap(), Flow::Continue);
    assert_eq!(count(&r.reg, metric::COMMITS), 2, "both acks booked");
    assert_eq!(count(&r.reg, metric::INFLIGHT), 1, "2 is still owed");
    c.deliver(ack(2), t0 + ms(5)).unwrap();
    assert_eq!(c.before_block(t0 + ms(5)).unwrap(), None);
    let out = c.finish().expect("finishes");
    assert_eq!(out.writer_latencies_us, [2000, 2000, 5000]);
    let heard = ["batch", "commit"].map(|ty| count(&r.reg, &metric::msg_rx(ty)));
    assert_eq!(heard, [1, 3], "one frame unpacked, three acks");
}
