//! Seeded spec streams and the deterministic drive the schedulers'
//! differential tests share: up to [`WINDOW`] transactions active, a rejected
//! admission or an ungranted request goes to the back of a FIFO and is
//! retried when it comes round again — the discipline of `bench/src/drive.rs`,
//! so the tests walk the trajectories the benchmark measures.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certify::CertifyMode;
use crate::error::CoreError;
use crate::history::{Event, History};
use crate::partition::PartitionId;
use crate::time::Tick;
use crate::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use crate::work::Work;

use crate::sched::{Admission, ControlOps, LockOutcome, Scheduler};

const WINDOW: usize = 32;

/// The differentials run 3 × 70 seeded streams, ten times longer in release
/// (CI's `tier1` runs both), where no `debug_validate` rides on every WTPG
/// mutation.
pub(crate) const SEEDS: std::ops::Range<u64> = 0..70;
pub(crate) const TXNS: u64 = if cfg!(debug_assertions) { 300 } else { 3000 };

fn distinct_pair(rng: &mut StdRng, base: u32, count: u32) -> (u32, u32) {
    let f1 = rng.gen_range(0..count);
    let mut f2 = rng.gen_range(0..count - 1);
    if f2 >= f1 {
        f2 += 1;
    }
    (base + f1, base + f2)
}

/// Pattern One (§4.2): `r(F1:1) → r(F2:5) → w(F1:0.2) → w(F2:1)` over 16
/// partitions, every step exclusive (lock-mode promotion).
pub(crate) fn pattern_one(seed: u64, n: u64) -> Vec<TxnSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n)
        .map(|id| {
            let (f1, f2) = distinct_pair(&mut rng, 0, 16);
            let steps = [(f1, 1.0), (f2, 5.0), (f1, 0.2), (f2, 1.0)];
            let steps = steps.map(|(p, cost)| StepSpec::write(p, cost)).to_vec();
            TxnSpec::new(TxnId(id), steps)
        })
        .collect()
}

/// Pattern Two (§4.3): `r(B:5) → w(F1:1) → w(F2:1)`, `B` one of 8 read-only
/// partitions, `F1 ≠ F2` from `hots` hot ones.
pub(crate) fn pattern_two(seed: u64, n: u64, hots: u32) -> Vec<TxnSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n)
        .map(|id| {
            let b = rng.gen_range(0..8u32);
            let (f1, f2) = distinct_pair(&mut rng, 8, hots);
            let steps = vec![
                StepSpec::read(b, 5.0),
                StepSpec::write(f1, 1.0),
                StepSpec::write(f2, 1.0),
            ];
            TxnSpec::new(TxnId(id), steps)
        })
        .collect()
}

/// Random BATs shaped like `tests/sched_proptests.rs::arb_workload`: 1–4
/// steps over `parts` partitions, read or write, 0.2–5 objects each.
pub(crate) fn random_specs(seed: u64, n: u64, parts: u32) -> Vec<TxnSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n)
        .map(|id| {
            let steps = (0..rng.gen_range(1..=4u32))
                .map(|_| {
                    let mode = if rng.gen_bool(0.5) {
                        AccessMode::Write
                    } else {
                        AccessMode::Read
                    };
                    let cost = Work::from_units(rng.gen_range(1..=25u64) * 200);
                    StepSpec::new(PartitionId(rng.gen_range(0..parts)), mode, cost)
                })
                .collect();
            TxnSpec::new(TxnId(id), steps)
        })
        .collect()
}

/// One scheduler decision of a drive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Call {
    Arrive(TxnId, Admission),
    Request(TxnId, usize, LockOutcome, ControlOps),
}

/// Drives every spec to commit through `sched` — one tick per call, progress
/// reported one object at a time — and returns what `observe` made of each
/// decision, in order.
///
/// # Panics
/// Panics on a protocol error or a wedge (a long run of calls in which
/// nothing was admitted or granted).
pub(crate) fn drive<S: Scheduler, L>(
    sched: &mut S,
    specs: &[TxnSpec],
    observe: impl FnMut(&S, &TxnSpec, Call) -> L,
) -> Vec<L> {
    drive_admitting(sched, specs, S::on_arrive, observe)
}

/// [`drive`] with admissions decided by `arrive` in place of
/// [`Scheduler::on_arrive`] — how a reference admission procedure is run
/// against a scheduler's own grant rule.
pub(crate) fn drive_admitting<S: Scheduler, L>(
    sched: &mut S,
    specs: &[TxnSpec],
    mut arrive: impl FnMut(&mut S, &TxnSpec, Tick) -> Result<(Admission, ControlOps), CoreError>,
    mut observe: impl FnMut(&S, &TxnSpec, Call) -> L,
) -> Vec<L> {
    let mut log = Vec::new();
    // (index into `specs`, next step to request; `None` = not yet admitted).
    let mut fifo: VecDeque<(usize, Option<usize>)> = VecDeque::new();
    let mut next = 0;
    let mut idle_turns = 0;
    let mut tick = 0u64;
    let mut now = || {
        tick += 1;
        Tick(tick)
    };
    while next < specs.len() || !fifo.is_empty() {
        while fifo.len() < WINDOW && next < specs.len() {
            fifo.push_back((next, None));
            next += 1;
        }
        let (idx, state) = fifo.pop_front().expect("loop condition");
        let spec = &specs[idx];
        let id = spec.id;
        let mut moved = false;
        match state {
            None => {
                let (admission, _) = arrive(sched, spec, now()).unwrap();
                log.push(observe(sched, spec, Call::Arrive(id, admission)));
                moved = admission == Admission::Admitted;
                fifo.push_back((idx, moved.then_some(0)));
            }
            Some(step) => {
                let (outcome, ops) = sched.on_request(id, step, now()).unwrap();
                log.push(observe(sched, spec, Call::Request(id, step, outcome, ops)));
                if outcome == LockOutcome::Granted {
                    moved = true;
                    let mut left = spec.steps()[step].actual_cost.units();
                    while left > 0 {
                        let chunk = left.min(1000);
                        now();
                        sched.on_progress(id, Work::from_units(chunk)).unwrap();
                        left -= chunk;
                    }
                    now();
                    sched.on_step_complete(id, step).unwrap();
                    if step + 1 == spec.len() {
                        sched.on_commit(id, now()).unwrap();
                    } else {
                        fifo.push_back((idx, Some(step + 1)));
                    }
                } else {
                    fifo.push_back((idx, state));
                }
            }
        }
        idle_turns = if moved { 0 } else { idle_turns + 1 };
        assert!(idle_turns <= 64 * WINDOW, "{} wedged", sched.name());
    }
    assert_eq!(sched.active_txns(), 0);
    log
}

/// Drives `ts` to commit through `sched`, recording the history by hand
/// exactly as the simulator does — what the certifiers' tests replay. From
/// `start_tick` on, each tick one more transaction arrives and then every
/// transaction in hand takes a turn: a rejected arrival is retried, an
/// admitted one requests its next step and, if granted, runs it to
/// completion (and commits after its last).
///
/// # Panics
/// Panics on a protocol error or a wedge.
pub(crate) fn record<'a, S: Scheduler>(
    mut sched: S,
    ts: &'a [TxnSpec],
    start_tick: u64,
) -> (History, BTreeMap<TxnId, TxnSpec>, CertifyMode) {
    let mut h = History::new();
    let mut now = Tick(start_tick);
    let mut arrivals = ts.iter();
    // (transaction, next step to request; `None` = not yet admitted).
    let mut hand: Vec<(&TxnSpec, Option<usize>)> = Vec::new();
    loop {
        hand.extend(arrivals.next().map(|t| (t, None)));
        if hand.is_empty() {
            break;
        }
        assert!(now.0 - start_tick < 64 * (ts.len() as u64 + 1), "{} wedged", sched.name());
        let turn = |(t, state): (&'a TxnSpec, Option<usize>)| {
            let Some(step) = state else {
                let admitted = sched.on_arrive(t, now).unwrap().0 == Admission::Admitted;
                let event = if admitted { Event::Admitted } else { Event::Rejected };
                h.push(now, event(t.id));
                return Some((t, admitted.then_some(0)));
            };
            if sched.on_request(t.id, step, now).unwrap().0 != LockOutcome::Granted {
                return Some((t, state));
            }
            let (txn, s) = (t.id, t.steps()[step]);
            let (partition, mode) = (s.partition, s.mode);
            h.push(now, Event::Granted { txn, step, partition, mode });
            sched.on_progress(txn, s.cost).unwrap();
            h.push(now, Event::Progress { txn, amount: s.cost });
            sched.on_step_complete(txn, step).unwrap();
            h.push(now, Event::StepCompleted { txn, step });
            if step + 1 < t.len() {
                return Some((t, Some(step + 1)));
            }
            sched.on_commit(txn, now).unwrap();
            h.push(now, Event::Committed(txn));
            None
        };
        hand = hand.into_iter().filter_map(turn).collect();
        now += 1;
    }
    let specs = ts.iter().map(|t| (t.id, t.clone())).collect();
    (h, specs, sched.certify_mode())
}
