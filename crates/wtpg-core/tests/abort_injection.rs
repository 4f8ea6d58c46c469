//! Failure injection: random mid-flight aborts must leave every scheduler
//! in a consistent state — remaining transactions finish, locks are freed,
//! the WTPG holds only live transactions, and the surviving history stays
//! serializable.

#![expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use proptest::prelude::*;

use wtpg_core::sched::{
    Admission, AslScheduler, C2plScheduler, ChainScheduler, KWtpgScheduler, LockOutcome, Scheduler,
};
use wtpg_core::time::Tick;
use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;

fn arb_specs(n: usize, parts: u32) -> impl Strategy<Value = Vec<TxnSpec>> {
    proptest::collection::vec(
        proptest::collection::vec((0..parts, prop::bool::ANY, 1u64..=4), 1..=3),
        2..=n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, steps)| {
                TxnSpec::new(
                    TxnId(i as u64 + 1),
                    steps
                        .into_iter()
                        .map(|(p, w, objs)| {
                            let mode = if w {
                                AccessMode::Write
                            } else {
                                AccessMode::Read
                            };
                            StepSpec::new(
                                wtpg_core::partition::PartitionId(p),
                                mode,
                                Work::from_objects(objs),
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    })
}

/// Drives the workload, aborting the transaction whose index matches
/// `victim` the first time one of its steps is granted. Everyone else must
/// still commit.
fn drive_with_abort(sched: &mut dyn Scheduler, specs: Vec<TxnSpec>, victim: usize) {
    let victim_id = specs[victim % specs.len()].id;
    let total = specs.len();
    let mut done = 0usize;
    let mut aborted = false;
    #[derive(Clone)]
    enum St {
        Pending(TxnSpec),
        Running(TxnSpec, usize),
    }
    let mut states: Vec<St> = specs.into_iter().map(St::Pending).collect();
    let mut now = Tick(0);
    let mut rounds = 0;
    while done < total {
        rounds += 1;
        assert!(rounds < 500 * total, "{}: stuck after abort", sched.name());
        let mut next = Vec::new();
        for st in states {
            now += 1;
            match st {
                St::Pending(spec) => match sched.on_arrive(&spec, now).unwrap().0 {
                    Admission::Admitted => next.push(St::Running(spec, 0)),
                    Admission::Rejected => next.push(St::Pending(spec)),
                },
                St::Running(spec, step) => {
                    let id = spec.id;
                    match sched.on_request(id, step, now).unwrap().0 {
                        LockOutcome::Granted => {
                            if id == victim_id && !aborted {
                                // Crash mid-step: abort without progress.
                                sched.on_abort(id, now).unwrap();
                                aborted = true;
                                done += 1; // the victim counts as finished
                                continue;
                            }
                            let s = spec.steps()[step];
                            sched.on_progress(id, s.actual_cost).unwrap();
                            sched.on_step_complete(id, step).unwrap();
                            if step + 1 == spec.len() {
                                sched.on_commit(id, now).unwrap();
                                done += 1;
                            } else {
                                next.push(St::Running(spec, step + 1));
                            }
                        }
                        _ => next.push(St::Running(spec, step)),
                    }
                }
            }
        }
        states = next;
    }
    assert_eq!(
        sched.active_txns(),
        0,
        "{}: stragglers after drain",
        sched.name()
    );
    assert!(sched.wtpg().is_empty(), "{}: WTPG not empty", sched.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn abort_mid_flight_is_survivable(specs in arb_specs(8, 5), victim in 0usize..8) {
        drive_with_abort(&mut C2plScheduler::new(), specs.clone(), victim);
        drive_with_abort(&mut ChainScheduler::new(5000), specs.clone(), victim);
        drive_with_abort(&mut KWtpgScheduler::new(2, 5000), specs.clone(), victim);
        drive_with_abort(&mut AslScheduler::new(), specs, victim);
    }
}

/// Aborting a transaction that holds the hot lock must wake the others:
/// deterministic regression for the release path.
#[test]
fn abort_releases_the_hot_lock() {
    let mut s = C2plScheduler::new();
    let a = TxnSpec::new(TxnId(1), vec![StepSpec::write(0, 2.0)]);
    let b = TxnSpec::new(TxnId(2), vec![StepSpec::write(0, 1.0)]);
    s.on_arrive(&a, Tick(0)).unwrap();
    s.on_arrive(&b, Tick(0)).unwrap();
    assert_eq!(
        s.on_request(TxnId(1), 0, Tick(1)).unwrap().0,
        LockOutcome::Granted
    );
    assert_eq!(
        s.on_request(TxnId(2), 0, Tick(2)).unwrap().0,
        LockOutcome::Blocked
    );
    let res = s.on_abort(TxnId(1), Tick(3)).unwrap();
    assert_eq!(res.freed, vec![wtpg_core::partition::PartitionId(0)]);
    assert_eq!(
        s.on_request(TxnId(2), 0, Tick(4)).unwrap().0,
        LockOutcome::Granted
    );
    assert!(!s.wtpg().contains(TxnId(1)));
}

/// Aborting an unknown transaction is a protocol error, not UB.
#[test]
fn abort_unknown_txn_errors() {
    let mut s = KWtpgScheduler::new(2, 5000);
    assert!(s.on_abort(TxnId(42), Tick(0)).is_err());
}
