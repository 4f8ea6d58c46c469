//! Atomic static locking (paper §4.1, after Tay): a transaction starts iff
//! it can take *every* declared lock at its start, atomically; otherwise it
//! is turned away and resubmitted later. Admitted transactions never block —
//! there are no chains of blocking and no deadlocks — but whole-transaction
//! admission is very conservative, which is exactly what Experiment 2's hot
//! set punishes ("ASL keeps a WTPG to be a set of isolated points").

use crate::error::CoreError;
use crate::time::Tick;
use crate::txn::{StepSpec, TxnId, TxnSpec};

use super::common::{Constraint, Policy, SchedCore};
use super::{ControlOps, LockOutcome};

/// The ASL scheduler.
#[derive(Clone, Debug, Default)]
pub struct AslScheduler {
    core: SchedCore,
}

impl AslScheduler {
    /// Fresh scheduler.
    pub fn new() -> AslScheduler {
        AslScheduler::default()
    }
}

impl Policy for AslScheduler {
    fn core(&self) -> &SchedCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchedCore {
        &mut self.core
    }

    fn label(&self) -> &str {
        "ASL"
    }

    // Test-and-grab must be atomic: the test is against held locks only, and
    // `admitted` takes everything before any other event is handled. Other
    // admitted transactions hold all their locks already, so declarations
    // never linger in the table under ASL.
    fn constraint(&self) -> Constraint {
        Constraint::LockAll
    }

    fn admitted(&mut self, spec: &TxnSpec) -> Result<(), CoreError> {
        debug_assert!(
            self.core.wtpg.conflict_partners(spec.id).is_empty()
                && self.core.wtpg.precedence_predecessors(spec.id).is_empty(),
            "ASL admission implies an isolated WTPG node"
        );
        self.core.locks.grant_all(spec)
    }

    fn grant_rule(
        &mut self,
        txn: TxnId,
        step: usize,
        _s: StepSpec,
        _now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        // All locks are already held; this only advances execution state.
        self.core.start_step(txn, step)?;
        Ok((LockOutcome::Granted, ControlOps::NONE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Admission, Scheduler};
    use crate::work::Work;

    fn t(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    #[test]
    fn admits_when_all_locks_free() {
        let mut s = AslScheduler::new();
        let a = t(1, vec![StepSpec::read(0, 1.0), StepSpec::write(1, 2.0)]);
        assert_eq!(s.on_arrive(&a, Tick(0)).unwrap().0, Admission::Admitted);
        assert_eq!(
            s.on_request(TxnId(1), 0, Tick(0)).unwrap().0,
            LockOutcome::Granted
        );
    }

    #[test]
    fn rejects_on_any_conflicting_held_lock() {
        let mut s = AslScheduler::new();
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        // T2 needs the same partition exclusively: turned away entirely.
        let b = t(2, vec![StepSpec::read(5, 1.0), StepSpec::write(0, 1.0)]);
        assert_eq!(s.on_arrive(&b, Tick(1)).unwrap().0, Admission::Rejected);
        assert_eq!(s.active_txns(), 1);
        assert!(!s.wtpg().contains(TxnId(2)));
    }

    #[test]
    fn shared_readers_coexist() {
        let mut s = AslScheduler::new();
        s.on_arrive(&t(1, vec![StepSpec::read(0, 1.0)]), Tick(0))
            .unwrap();
        assert_eq!(
            s.on_arrive(&t(2, vec![StepSpec::read(0, 1.0)]), Tick(0))
                .unwrap()
                .0,
            Admission::Admitted
        );
        assert_eq!(s.active_txns(), 2);
    }

    #[test]
    fn wtpg_stays_isolated_points() {
        let mut s = AslScheduler::new();
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        s.on_arrive(&t(2, vec![StepSpec::write(1, 1.0)]), Tick(0))
            .unwrap();
        s.on_arrive(&t(3, vec![StepSpec::read(2, 1.0)]), Tick(0))
            .unwrap();
        let g = s.wtpg();
        for id in [1u64, 2, 3] {
            assert!(g.conflict_partners(TxnId(id)).is_empty());
            assert!(g.precedence_successors(TxnId(id)).is_empty());
        }
    }

    #[test]
    fn full_lifecycle_and_readmission() {
        let mut s = AslScheduler::new();
        let a = t(1, vec![StepSpec::write(0, 1.0)]);
        let b = t(2, vec![StepSpec::write(0, 1.0)]);
        s.on_arrive(&a, Tick(0)).unwrap();
        assert_eq!(s.on_arrive(&b, Tick(0)).unwrap().0, Admission::Rejected);
        s.on_request(TxnId(1), 0, Tick(0)).unwrap();
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        let res = s.on_commit(TxnId(1), Tick(3)).unwrap();
        assert_eq!(res.freed.len(), 1);
        assert_eq!(s.on_arrive(&b, Tick(4)).unwrap().0, Admission::Admitted);
    }
}
