//! Cautious two-phase locking (paper §4.1, after Nishio et al.), plus the
//! Experiment-4 hybrids CHAIN-C2PL and K2-C2PL.
//!
//! C2PL is strict 2PL with deadlock *prediction* instead of detection: it
//! maintains the (unweighted) transaction precedence graph and grants a lock
//! request iff it is not blocked and does not close a precedence cycle; a
//! dangerous request is delayed, never aborted. The hybrids add only the
//! structural admission constraints of CHAIN / K-WTPG — no weights — and
//! serve as lower bounds isolating how much of the WTPG schedulers' benefit
//! comes from structure alone (paper §4.4).
//!
//! Control saving: deadlock predictions are pure functions of the lock
//! table and the precedence edges, so each verdict is cached per
//! `(txn, step)` stamped with the WTPG [`version`] it was
//! computed against — the same §3.4 scheme CHAIN and K-WTPG use for `W` and
//! `E(q)`. Arrivals and commits bump the version; a grant changes the lock
//! table *without* necessarily bumping it, so any grant also wipes the
//! cache (mirroring K-WTPG's `granted_edges` condition). A hit therefore
//! only ever replays a verdict computed against the identical lock/WTPG
//! state, which is what makes reuse sound for a predictor whose false
//! "safe" answer would be a real deadlock. Hits skip the graph traversal
//! and report zero `deadlock_tests` to the control-node cost model; retry
//! storms of delayed requests are the common beneficiary.
//!
//! [`version`]: crate::wtpg::Wtpg::version

use std::collections::BTreeMap;

use crate::error::CoreError;
use crate::time::Tick;
use crate::txn::{StepSpec, TxnId};

use super::common::{Constraint, Policy, SchedCore};
use super::{ControlOps, LockOutcome};

/// The cautious two-phase-lock scheduler, optionally constrained.
#[derive(Clone, Debug)]
pub struct C2plScheduler {
    core: SchedCore,
    constraint: Constraint,
    name: &'static str,
    /// Cached deadlock verdicts keyed by the request they score, each
    /// stamped with the WTPG version it was computed against.
    dd_cache: BTreeMap<(TxnId, usize), (u64, bool)>,
    /// WTPG version at the last cache invalidation check.
    seen_version: u64,
    /// A grant changed the lock table since the last invalidation check.
    granted_any: bool,
}

impl C2plScheduler {
    /// Plain C2PL.
    pub fn new() -> C2plScheduler {
        C2plScheduler::with_constraint(Constraint::None, "C2PL")
    }

    /// CHAIN-C2PL: C2PL plus the chain-form admission constraint.
    pub fn chain_c2pl() -> C2plScheduler {
        C2plScheduler::with_constraint(Constraint::ChainForm, "CHAIN-C2PL")
    }

    /// K*-C2PL: C2PL plus the K-conflict admission constraint.
    pub fn k_c2pl(k: usize) -> C2plScheduler {
        C2plScheduler::with_constraint(Constraint::KConflict(k), "K2-C2PL")
    }

    fn with_constraint(constraint: Constraint, name: &'static str) -> C2plScheduler {
        C2plScheduler {
            core: SchedCore::new(),
            constraint,
            name,
            dd_cache: BTreeMap::new(),
            seen_version: 0,
            granted_any: false,
        }
    }

    /// Expires every cached verdict when the WTPG version moved (arrival,
    /// commit, new precedence edge) or any grant changed the lock table.
    fn maybe_invalidate(&mut self) {
        let ver = self.core.wtpg.version();
        if self.granted_any || ver != self.seen_version {
            self.dd_cache.clear();
            self.seen_version = ver;
            self.granted_any = false;
        }
    }
}

impl Default for C2plScheduler {
    fn default() -> Self {
        C2plScheduler::new()
    }
}

impl Policy for C2plScheduler {
    fn core(&self) -> &SchedCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchedCore {
        &mut self.core
    }

    fn label(&self) -> &str {
        self.name
    }

    fn constraint(&self) -> Constraint {
        self.constraint
    }

    fn grant_rule(
        &mut self,
        txn: TxnId,
        step: usize,
        s: StepSpec,
        _now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        self.maybe_invalidate();
        let ver = self.core.wtpg.version();
        let implied = self.core.implied_resolutions(txn, s.partition, s.mode);
        let cached = self
            .dd_cache
            .get(&(txn, step))
            .and_then(|&(stamp, d)| (stamp == ver).then_some(d));
        let dangerous = match cached {
            Some(d) => {
                self.core.stats.dd_cache_hits += 1;
                d
            }
            None => {
                self.core.stats.dd_cache_misses += 1;
                let d = self.core.grant_would_deadlock(txn, &implied);
                self.dd_cache.insert((txn, step), (ver, d));
                d
            }
        };
        let ops = ControlOps {
            // A cache hit replays the stored verdict without the traversal.
            deadlock_tests: cached.is_none() as u32,
            ..ControlOps::NONE
        };
        if dangerous {
            self.core.stats.delays_deadlock += 1;
            self.core.recycle_implied(implied);
            return Ok((LockOutcome::Delayed, ops));
        }
        self.core.grant(txn, step, s, &implied)?;
        self.core.recycle_implied(implied);
        self.granted_any = true;
        Ok((LockOutcome::Granted, ops))
    }

    fn left(&mut self, txn: TxnId) {
        // The removal bumped the version (expiring survivors' entries); drop
        // the departed transaction's own entries so the map doesn't grow.
        self.dd_cache.retain(|&(t, _), _| t != txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Admission, Scheduler};
    use crate::txn::TxnSpec;
    use crate::work::Work;

    fn t(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    #[test]
    fn grants_unblocked_nonconflicting_request() {
        let mut s = C2plScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0)]);
        assert_eq!(s.on_arrive(&a, Tick(0)).unwrap().0, Admission::Admitted);
        assert_eq!(
            s.on_request(TxnId(1), 0, Tick(0)).unwrap().0,
            LockOutcome::Granted
        );
    }

    #[test]
    fn blocks_on_held_conflicting_lock() {
        let mut s = C2plScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0)]);
        let b = t(2, vec![StepSpec::write(0, 1.0)]);
        s.on_arrive(&a, Tick(0)).unwrap();
        s.on_request(TxnId(1), 0, Tick(0)).unwrap();
        s.on_arrive(&b, Tick(1)).unwrap();
        assert_eq!(
            s.on_request(TxnId(2), 0, Tick(1)).unwrap().0,
            LockOutcome::Blocked
        );
        // After T1 commits, T2 can go.
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        let res = s.on_commit(TxnId(1), Tick(5)).unwrap();
        assert_eq!(res.freed, vec![crate::partition::PartitionId(0)]);
        assert_eq!(
            s.on_request(TxnId(2), 0, Tick(5)).unwrap().0,
            LockOutcome::Granted
        );
    }

    /// The classic upgrade / crossing deadlock: T1 writes A then B, T2
    /// writes B then A. C2PL must *predict* the cycle and delay rather than
    /// let both proceed into a deadlock.
    #[test]
    fn predicts_crossing_deadlock() {
        let mut s = C2plScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]);
        let b = t(2, vec![StepSpec::write(1, 1.0), StepSpec::write(0, 1.0)]);
        s.on_arrive(&a, Tick(0)).unwrap();
        s.on_arrive(&b, Tick(0)).unwrap();
        // T1 takes A: resolves (T1,T2) as T1→T2 (T2 declared A).
        assert_eq!(
            s.on_request(TxnId(1), 0, Tick(0)).unwrap().0,
            LockOutcome::Granted
        );
        // T2 asks for B: granting would imply T2→T1 — predicted deadlock.
        assert_eq!(
            s.on_request(TxnId(2), 0, Tick(1)).unwrap().0,
            LockOutcome::Delayed
        );
        // T1 can take B and finish.
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        assert_eq!(
            s.on_request(TxnId(1), 1, Tick(2)).unwrap().0,
            LockOutcome::Granted
        );
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 1).unwrap();
        s.on_commit(TxnId(1), Tick(3)).unwrap();
        // Now T2 is free.
        assert_eq!(
            s.on_request(TxnId(2), 0, Tick(4)).unwrap().0,
            LockOutcome::Granted
        );
    }

    #[test]
    fn chain_c2pl_rejects_degree_three() {
        let mut s = C2plScheduler::chain_c2pl();
        // Hub transaction conflicts with three others — fine to admit the
        // first three (star builds up), reject the one that creates degree 3.
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        s.on_arrive(
            &t(2, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]),
            Tick(0),
        )
        .unwrap();
        s.on_arrive(
            &t(3, vec![StepSpec::write(1, 1.0), StepSpec::write(2, 1.0)]),
            Tick(0),
        )
        .unwrap();
        // T4 conflicts with T3 on partition 2 → chain T1–T2–T3–T4: OK.
        let (adm, _) = s
            .on_arrive(&t(4, vec![StepSpec::write(2, 1.0)]), Tick(0))
            .unwrap();
        assert_eq!(adm, Admission::Admitted);
        // T5 also writes partition 1 → conflicts with T2 AND T3, both already
        // interior: degree violation.
        let (adm, _) = s
            .on_arrive(&t(5, vec![StepSpec::write(1, 1.0)]), Tick(0))
            .unwrap();
        assert_eq!(adm, Admission::Rejected);
        assert_eq!(s.active_txns(), 4);
    }

    #[test]
    fn k_c2pl_enforces_k() {
        let mut s = C2plScheduler::k_c2pl(1);
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        s.on_arrive(&t(2, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        // A third writer of partition 0 makes everyone conflict twice: reject.
        let (adm, _) = s
            .on_arrive(&t(3, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        assert_eq!(adm, Admission::Rejected);
        assert_eq!(s.name(), "K2-C2PL");
    }

    #[test]
    fn rejected_arrival_leaves_no_trace() {
        let mut s = C2plScheduler::k_c2pl(0);
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        let (adm, _) = s
            .on_arrive(&t(2, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        assert_eq!(adm, Admission::Rejected);
        assert!(!s.wtpg().contains(TxnId(2)));
        // Re-arrival after the blocker leaves succeeds.
        s.on_request(TxnId(1), 0, Tick(0)).unwrap();
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        s.on_commit(TxnId(1), Tick(1)).unwrap();
        let (adm, _) = s
            .on_arrive(&t(2, vec![StepSpec::write(0, 1.0)]), Tick(2))
            .unwrap();
        assert_eq!(adm, Admission::Admitted);
    }

    /// The §3.4-style control saving on C2PL: a delayed request retried
    /// against unchanged lock/WTPG state replays the cached verdict (zero
    /// `deadlock_tests`), while any grant or commit wipes the cache.
    #[test]
    fn deadlock_verdicts_are_cached_across_retries() {
        let mut s = C2plScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]);
        let b = t(2, vec![StepSpec::write(1, 1.0), StepSpec::write(0, 1.0)]);
        s.on_arrive(&a, Tick(0)).unwrap();
        s.on_arrive(&b, Tick(0)).unwrap();
        s.on_request(TxnId(1), 0, Tick(0)).unwrap();
        // First prediction for T2 computes (cache was wiped by T1's grant).
        let (out, ops) = s.on_request(TxnId(2), 0, Tick(1)).unwrap();
        assert_eq!(out, LockOutcome::Delayed);
        assert_eq!(ops.deadlock_tests, 1);
        // Retry with nothing changed: served from the cache.
        let (out, ops) = s.on_request(TxnId(2), 0, Tick(2)).unwrap();
        assert_eq!(out, LockOutcome::Delayed);
        assert_eq!(ops.deadlock_tests, 0);
        let stats = s.obs_stats();
        assert_eq!(stats.dd_cache_hits, 1);
        assert!(stats.dd_cache_misses >= 2); // T1's grant + T2's first try
        assert_eq!(stats.delays_deadlock, 2);
        // Drive T1 to commit; the version bump expires T2's cached verdict
        // and the fresh prediction now grants.
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        s.on_request(TxnId(1), 1, Tick(3)).unwrap();
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 1).unwrap();
        s.on_commit(TxnId(1), Tick(4)).unwrap();
        let (out, ops) = s.on_request(TxnId(2), 0, Tick(5)).unwrap();
        assert_eq!(out, LockOutcome::Granted);
        assert_eq!(ops.deadlock_tests, 1);
        assert_eq!(s.obs_stats().dd_cache_hits, 1);
    }

    #[test]
    fn out_of_order_request_is_a_protocol_error() {
        let mut s = C2plScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]);
        s.on_arrive(&a, Tick(0)).unwrap();
        assert!(matches!(
            s.on_request(TxnId(1), 1, Tick(0)),
            Err(CoreError::OutOfOrder { .. })
        ));
    }
}
