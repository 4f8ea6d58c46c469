//! Differential testing of the schedule certifier (DESIGN.md §10).
//!
//! Two directions:
//!
//! * **soundness** — histories produced by real scheduler runs (CHAIN and
//!   K-WTPG over randomized seeds and arrival rates) certify clean under
//!   their claimed modes;
//! * **sensitivity** — minimally corrupted versions of those same histories
//!   (two conflicting grants swapped between transactions; a commit dropped
//!   while a later conflicting grant exists) are rejected.
//!
//! On every history, clean or corrupted, the certifier's change-proportional
//! checks alone and its whole-graph oracles alone reach the same verdict: the
//! same report, or a violation at the same event.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::Config;

use wtpg::core::certify::{certify_history, certify_history_with, CertifyMode};
use wtpg::core::history::{Event, History};
use wtpg::core::stream_certify::Checks;
use wtpg::core::txn::{AccessMode, TxnId, TxnSpec};
use wtpg::core::PartitionId;
use wtpg::sim::machine::Machine;
use wtpg::sim::sched_kind::SchedKind;
use wtpg::sim::SimParams;
use wtpg::workload::Experiment;

/// Runs one certified simulation; `Machine::run` itself panics if the run
/// fails certification, so returning at all is the soundness half.
fn certified_run(
    kind: SchedKind,
    seed: u64,
    lambda: f64,
) -> (History, BTreeMap<TxnId, TxnSpec>) {
    let params = SimParams {
        sim_length_ms: 80_000,
        seed,
        certify: true,
        ..SimParams::paper_defaults()
    };
    let workload = Experiment::exp1().workload(seed);
    let mut m = Machine::new(params.clone(), kind.build(&params), workload);
    m.run(lambda);
    let report = m.certify().expect("a scheduler's own run must certify");
    assert!(report.grants > 0, "{kind:?} run too small to be meaningful");
    (m.history().expect("certification records history").clone(), m.spec_log().clone())
}

fn mode_of(kind: SchedKind, params_k: usize) -> CertifyMode {
    match kind {
        SchedKind::Chain => CertifyMode::Chain,
        SchedKind::KWtpg => CertifyMode::KConflict(params_k),
        _ => CertifyMode::General,
    }
}

/// Swaps the payloads (not the timestamps) of the first pair of conflicting
/// grant events issued to different transactions on the same partition.
fn swap_conflicting_grants(h: &History) -> Option<History> {
    let ev = h.events();
    for i in 0..ev.len() {
        let Event::Granted {
            txn: t1,
            partition: p1,
            mode: m1,
            ..
        } = ev[i].1
        else {
            continue;
        };
        for j in i + 1..ev.len() {
            let Event::Granted {
                txn: t2,
                partition: p2,
                mode: m2,
                ..
            } = ev[j].1
            else {
                continue;
            };
            if t1 != t2 && p1 == p2 && m1.conflicts_with(m2) {
                let mut out = History::new();
                for (k, &(t, e)) in ev.iter().enumerate() {
                    let e = if k == i {
                        ev[j].1
                    } else if k == j {
                        ev[i].1
                    } else {
                        e
                    };
                    out.push(t, e);
                }
                return Some(out);
            }
        }
    }
    None
}

/// Drops the first commit whose transaction holds a lock that a *later*
/// grant conflicts with — without the release, that later grant is illegal.
fn drop_conflicted_commit(h: &History) -> Option<History> {
    let ev = h.events();
    for i in 0..ev.len() {
        let Event::Committed(t) = ev[i].1 else {
            continue;
        };
        let held: Vec<(PartitionId, AccessMode)> = ev[..i]
            .iter()
            .filter_map(|&(_, e)| match e {
                Event::Granted {
                    txn,
                    partition,
                    mode,
                    ..
                } if txn == t => Some((partition, mode)),
                _ => None,
            })
            .collect();
        let later_conflict = ev[i + 1..].iter().any(|&(_, e)| {
            matches!(e, Event::Granted { txn, partition, mode, .. }
                if txn != t
                    && held.iter().any(|&(p, m)| p == partition && m.conflicts_with(mode)))
        });
        if later_conflict {
            let mut out = History::new();
            for (k, &(tick, e)) in ev.iter().enumerate() {
                if k != i {
                    out.push(tick, e);
                }
            }
            return Some(out);
        }
    }
    None
}

/// The fast checks with the oracles off and the oracles alone, on every
/// event, give the same report or reject at the same event.
fn fast_and_oracle_agree(
    h: &History,
    specs: &BTreeMap<TxnId, TxnSpec>,
    mode: CertifyMode,
) -> Result<(), TestCaseError> {
    let [fast, oracle] = [Checks::FAST, Checks::ORACLE]
        .map(|checks| certify_history_with(h, specs, mode, checks).map_err(|v| v.at));
    prop_assert_eq!(fast, oracle);
    Ok(())
}

proptest! {
    #![proptest_config(Config::with_cases(3))]

    #[test]
    fn chain_runs_certify_and_mutations_are_rejected(
        seed in 0u64..1_000,
        lambda in 0.35f64..0.65,
    ) {
        let kind = SchedKind::Chain;
        let (h, specs) = certified_run(kind, seed, lambda);
        let mode = mode_of(kind, 2);
        prop_assert!(certify_history(&h, &specs, mode).is_ok());
        fast_and_oracle_agree(&h, &specs, mode)?;

        if let Some(bad) = swap_conflicting_grants(&h) {
            prop_assert!(
                certify_history(&bad, &specs, mode).is_err(),
                "swapped conflicting grants must not certify"
            );
            fast_and_oracle_agree(&bad, &specs, mode)?;
        }
        if let Some(bad) = drop_conflicted_commit(&h) {
            prop_assert!(
                certify_history(&bad, &specs, mode).is_err(),
                "dropped commit with a later conflicting grant must not certify"
            );
            fast_and_oracle_agree(&bad, &specs, mode)?;
        }
    }

    #[test]
    fn kwtpg_runs_certify_and_mutations_are_rejected(
        seed in 1_000u64..2_000,
        lambda in 0.35f64..0.65,
    ) {
        let kind = SchedKind::KWtpg;
        let (h, specs) = certified_run(kind, seed, lambda);
        let mode = mode_of(kind, 2);
        prop_assert!(certify_history(&h, &specs, mode).is_ok());
        fast_and_oracle_agree(&h, &specs, mode)?;

        if let Some(bad) = swap_conflicting_grants(&h) {
            prop_assert!(
                certify_history(&bad, &specs, mode).is_err(),
                "swapped conflicting grants must not certify"
            );
            fast_and_oracle_agree(&bad, &specs, mode)?;
        }
        if let Some(bad) = drop_conflicted_commit(&h) {
            prop_assert!(
                certify_history(&bad, &specs, mode).is_err(),
                "dropped commit with a later conflicting grant must not certify"
            );
            fast_and_oracle_agree(&bad, &specs, mode)?;
        }
    }
}

/// The corruption helpers must actually find something to corrupt on a
/// contended run — otherwise the proptest above would be vacuous.
#[test]
fn mutation_helpers_find_targets_on_contended_runs() {
    let (h, _) = certified_run(SchedKind::KWtpg, 7, 0.6);
    assert!(swap_conflicting_grants(&h).is_some());
    assert!(drop_conflicted_commit(&h).is_some());
}
