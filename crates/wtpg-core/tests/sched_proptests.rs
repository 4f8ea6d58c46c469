//! Scheduler-level property tests: every lock-based scheduler must produce
//! conflict-serializable, strict, deadlock-free executions and eventually
//! finish every transaction, on randomly generated BAT workloads.
//!
//! The driver here is deliberately untimed (one step completes per grant) —
//! the timed shared-nothing machine lives in `wtpg-sim`. What this exercises
//! is the *protocol*: admission/rejection, blocking, delaying, retries,
//! resolution bookkeeping, and commit wakeups.

#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use proptest::prelude::*;

use wtpg_core::history::{Event, History};
use wtpg_core::lock::LockTable;
use wtpg_core::sched::{
    Admission, AslScheduler, C2plScheduler, ChainScheduler, GWtpgScheduler, KWtpgScheduler,
    LockOutcome, NodcScheduler, Scheduler,
};
use wtpg_core::time::Tick;
use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;

/// A random BAT: 1–4 steps over a small partition set, costs 0.2–5 objects.
fn arb_spec(id: u64, num_parts: u32) -> impl Strategy<Value = TxnSpec> {
    proptest::collection::vec((0..num_parts, prop::bool::ANY, 1u64..=25), 1..=4).prop_map(
        move |steps| {
            let steps = steps
                .into_iter()
                .map(|(p, write, fifths)| {
                    let cost = Work::from_units(fifths * 200); // 0.2 .. 5 objects
                    let mode = if write {
                        AccessMode::Write
                    } else {
                        AccessMode::Read
                    };
                    StepSpec::new(wtpg_core::partition::PartitionId(p), mode, cost)
                })
                .collect();
            TxnSpec::new(TxnId(id), steps)
        },
    )
}

fn arb_workload(max_txns: usize, num_parts: u32) -> impl Strategy<Value = Vec<TxnSpec>> {
    (1..=max_txns).prop_flat_map(move |n| {
        (0..n as u64)
            .map(|id| arb_spec(id + 1, num_parts))
            .collect::<Vec<_>>()
    })
}

/// Drives every transaction to commit through `sched`, retrying rejections
/// and delays round-robin. Returns the recorded history.
///
/// Panics if the workload fails to converge — i.e. the scheduler livelocked
/// or deadlocked.
fn drive(sched: &mut dyn Scheduler, mut todo: Vec<TxnSpec>) -> History {
    #[derive(Clone)]
    enum St {
        NotAdmitted(TxnSpec),
        Running(TxnSpec, usize), // next step
    }
    let mut hist = History::new();
    let mut states: Vec<St> = todo.drain(..).map(St::NotAdmitted).collect();
    let mut now = Tick(0);
    let total = states.len();
    let mut done = 0usize;
    let mut rounds = 0usize;
    while done < total {
        rounds += 1;
        assert!(
            rounds < 200 * total + 200,
            "{} did not converge: {}/{} done",
            sched.name(),
            done,
            total
        );
        let mut next: Vec<St> = Vec::new();
        for st in states {
            now += 1;
            match st {
                St::NotAdmitted(spec) => {
                    let (adm, _) = sched.on_arrive(&spec, now).unwrap();
                    match adm {
                        Admission::Admitted => {
                            hist.push(now, Event::Admitted(spec.id));
                            next.push(St::Running(spec, 0));
                        }
                        Admission::Rejected => {
                            hist.push(now, Event::Rejected(spec.id));
                            next.push(St::NotAdmitted(spec));
                        }
                    }
                }
                St::Running(spec, step) => {
                    let id = spec.id;
                    match sched.on_request(id, step, now).unwrap().0 {
                        LockOutcome::Granted => {
                            let s = spec.steps()[step];
                            hist.push(
                                now,
                                Event::Granted {
                                    txn: id,
                                    step,
                                    partition: s.partition,
                                    mode: s.mode,
                                },
                            );
                            sched.on_progress(id, s.actual_cost).unwrap();
                            hist.push(
                                now,
                                Event::Progress {
                                    txn: id,
                                    amount: s.actual_cost,
                                },
                            );
                            sched.on_step_complete(id, step).unwrap();
                            if step + 1 == spec.len() {
                                sched.on_commit(id, now).unwrap();
                                hist.push(now, Event::Committed(id));
                                done += 1;
                            } else {
                                next.push(St::Running(spec, step + 1));
                            }
                        }
                        LockOutcome::Blocked | LockOutcome::Delayed => {
                            next.push(St::Running(spec, step));
                        }
                    }
                }
            }
        }
        states = next;
    }
    hist
}

fn check_strict_scheduler(sched: &mut dyn Scheduler, workload: Vec<TxnSpec>) {
    let n = workload.len();
    let hist = drive(sched, workload);
    assert_eq!(
        hist.committed().len(),
        n,
        "{}: all must commit",
        sched.name()
    );
    hist.check_conflict_serializable()
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
    hist.check_strictness()
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
    hist.check_lock_exclusion()
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()));
    assert_eq!(sched.active_txns(), 0);
    assert!(sched.wtpg().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn c2pl_is_serializable_and_live(w in arb_workload(10, 6)) {
        check_strict_scheduler(&mut C2plScheduler::new(), w);
    }

    #[test]
    fn asl_is_serializable_and_live(w in arb_workload(10, 6)) {
        check_strict_scheduler(&mut AslScheduler::new(), w);
    }

    #[test]
    fn chain_is_serializable_and_live(w in arb_workload(10, 6)) {
        check_strict_scheduler(&mut ChainScheduler::new(5000), w);
    }

    #[test]
    fn k2_is_serializable_and_live(w in arb_workload(10, 6)) {
        check_strict_scheduler(&mut KWtpgScheduler::new(2, 5000), w);
    }

    #[test]
    fn gwtpg_is_serializable_and_live(w in arb_workload(10, 6)) {
        check_strict_scheduler(&mut GWtpgScheduler::new(5000), w);
    }

    #[test]
    fn k1_and_k4_also_work(w in arb_workload(8, 5)) {
        check_strict_scheduler(&mut KWtpgScheduler::new(1, 5000), w.clone());
        check_strict_scheduler(&mut KWtpgScheduler::new(4, 5000), w);
    }

    #[test]
    fn hybrids_are_serializable_and_live(w in arb_workload(8, 5)) {
        check_strict_scheduler(&mut C2plScheduler::chain_c2pl(), w.clone());
        check_strict_scheduler(&mut C2plScheduler::k_c2pl(2), w);
    }

    /// NODC finishes everything (it never blocks) but gives no isolation —
    /// only strictness of the driver protocol is expected to hold.
    #[test]
    fn nodc_always_finishes(w in arb_workload(10, 6)) {
        let n = w.len();
        let mut s = NodcScheduler::new();
        let hist = drive(&mut s, w);
        prop_assert_eq!(hist.committed().len(), n);
        hist.check_strictness().unwrap();
    }

    /// A high-contention single-partition workload: everyone fights over one
    /// granule. This maximises chains of blocking and rejection churn.
    #[test]
    fn hot_single_partition_converges(nw in 2usize..8, costs in proptest::collection::vec(1u64..=5, 2..8)) {
        let n = nw.min(costs.len());
        let specs: Vec<TxnSpec> = (0..n)
            .map(|i| {
                TxnSpec::new(
                    TxnId(i as u64 + 1),
                    vec![StepSpec::write(0, costs[i] as f64)],
                )
            })
            .collect();
        check_strict_scheduler(&mut ChainScheduler::new(5000), specs.clone());
        check_strict_scheduler(&mut KWtpgScheduler::new(2, 5000), specs.clone());
        check_strict_scheduler(&mut GWtpgScheduler::new(5000), specs.clone());
        check_strict_scheduler(&mut AslScheduler::new(), specs.clone());
        check_strict_scheduler(&mut C2plScheduler::new(), specs);
    }

    /// The K admission test reads the table and answers what declaring the
    /// arrival and then running `k_constraint_ok` would: on tables with S
    /// and X declarations, held locks (each transaction's granted prefix),
    /// and arrivals that name one partition in several steps.
    #[test]
    fn arrival_keeps_k_is_k_constraint_ok_after_declare(
        live in arb_workload(8, 4),
        grants in proptest::collection::vec(prop::bool::ANY, 32),
        arrival in arb_spec(100, 4),
    ) {
        let mut table = LockTable::new();
        for spec in &live {
            table.declare(spec);
        }
        let mut granted = grants.into_iter();
        for spec in &live {
            for (i, s) in spec.steps().iter().enumerate() {
                if !granted.next().unwrap_or(false) || table.is_blocked(spec.id, s.partition, s.mode) {
                    break;
                }
                table.grant(spec.id, i, s.partition, s.mode).unwrap();
            }
        }
        let mut declared = table.clone();
        declared.declare(&arrival);
        for k in [0, 1, 2, 4] {
            prop_assert_eq!(
                table.arrival_keeps_k(&arrival, k),
                declared.k_constraint_ok(&arrival, k),
                "k = {}", k
            );
        }
    }
}

/// The Figure 1 workload through every scheduler — a deterministic smoke
/// test of the full protocol on the paper's own example.
#[test]
fn figure1_workload_all_schedulers() {
    let specs = vec![
        TxnSpec::new(
            TxnId(1),
            vec![
                StepSpec::read(0, 1.0),
                StepSpec::read(1, 3.0),
                StepSpec::write(0, 1.0),
            ],
        ),
        TxnSpec::new(
            TxnId(2),
            vec![StepSpec::read(2, 1.0), StepSpec::write(0, 1.0)],
        ),
        TxnSpec::new(
            TxnId(3),
            vec![StepSpec::write(2, 1.0), StepSpec::read(3, 3.0)],
        ),
    ];
    check_strict_scheduler(&mut ChainScheduler::new(5000), specs.clone());
    check_strict_scheduler(&mut KWtpgScheduler::new(2, 5000), specs.clone());
    check_strict_scheduler(&mut AslScheduler::new(), specs.clone());
    check_strict_scheduler(&mut C2plScheduler::new(), specs.clone());
    check_strict_scheduler(&mut C2plScheduler::chain_c2pl(), specs.clone());
    check_strict_scheduler(&mut C2plScheduler::k_c2pl(2), specs);
}
