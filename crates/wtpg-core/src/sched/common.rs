//! Shared scheduler plumbing: the lock table, the WTPG, and the per-
//! transaction execution state, with the grant/commit/progress mechanics
//! every lock-based scheduler shares.

use std::collections::BTreeMap;

use crate::chain::form::arrival_keeps_chain_form;
use crate::error::CoreError;
use crate::lock::{ArrivalConflict, LockTable};
use crate::partition::PartitionId;
use crate::txn::{StepSpec, TxnId, TxnSpec};
use crate::work::Work;
use crate::wtpg::Wtpg;

/// Execution state of one admitted transaction.
#[derive(Clone, Debug)]
pub(crate) struct ActiveTxn {
    pub spec: TxnSpec,
    /// Index of the next step to *request*.
    pub next_step: usize,
    /// Step currently granted and executing, if any.
    pub current: Option<usize>,
    /// Declared work already consumed within the current step (capped at the
    /// step's declared cost — erroneous declarations must not over-decrement
    /// the `T0` weight).
    pub declared_progress: Work,
}

/// The state shared by every lock-based scheduler: lock table + WTPG +
/// transaction registry, with the paper's weight bookkeeping built in.
#[derive(Clone, Debug, Default)]
pub struct SchedCore {
    pub(crate) locks: LockTable,
    pub(crate) wtpg: Wtpg,
    pub(crate) txns: BTreeMap<TxnId, ActiveTxn>,
    /// WTPG version at the start of the most recent [`Self::arrive`], so a
    /// rejected admission can roll the version back along with the state.
    pre_arrival_version: u64,
}

impl SchedCore {
    /// Fresh, empty state.
    pub fn new() -> SchedCore {
        SchedCore::default()
    }

    /// Number of admitted, uncommitted transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// The live WTPG.
    pub fn wtpg(&self) -> &Wtpg {
        &self.wtpg
    }

    /// The lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Declares `spec` everywhere: lock table declarations, WTPG node with
    /// `w(T0→T) = due(s_0)`, and the conflict edges its arrival induces.
    ///
    /// The caller can still [`Self::rollback_arrival`] if an admission
    /// constraint fails afterwards.
    pub(crate) fn arrive(&mut self, spec: &TxnSpec) -> Result<(), CoreError> {
        let conflicts = self.arrival_conflicts(spec)?;
        self.admit(spec, &conflicts)
    }

    /// [`Self::arrive`] under the chain-form constraint (CHAIN, CHAIN-C2PL),
    /// tested on the arrival's conflicts *before* anything is declared: a
    /// `false` return changed nothing, so there is nothing to roll back.
    pub(crate) fn arrive_if_chain_form(&mut self, spec: &TxnSpec) -> Result<bool, CoreError> {
        let conflicts = self.arrival_conflicts(spec)?;
        let ok = arrival_keeps_chain_form(&self.wtpg, &conflicts)?;
        if ok {
            self.admit(spec, &conflicts)?;
        }
        Ok(ok)
    }

    /// What the not-yet-declared `spec` conflicts with among the live
    /// transactions (its own declarations never count, so this is also what
    /// the lock table reports once it is declared).
    fn arrival_conflicts(&self, spec: &TxnSpec) -> Result<Vec<ArrivalConflict>, CoreError> {
        if self.txns.contains_key(&spec.id) {
            return Err(CoreError::DuplicateTxn(spec.id));
        }
        Ok(self.locks.arrival_conflicts(spec))
    }

    /// Registers a new transaction whose `arrival_conflicts` are `conflicts`.
    fn admit(&mut self, spec: &TxnSpec, conflicts: &[ArrivalConflict]) -> Result<(), CoreError> {
        self.pre_arrival_version = self.wtpg.version();
        self.locks.declare(spec);
        self.wtpg.add_txn(spec.id, spec.total_declared())?;
        self.wtpg.ingest_arrival(spec.id, conflicts)?;
        self.txns.insert(
            spec.id,
            ActiveTxn {
                spec: spec.clone(),
                next_step: 0,
                current: None,
                declared_progress: Work::ZERO,
            },
        );
        Ok(())
    }

    /// Undoes [`Self::arrive`] after a failed admission test. The WTPG is
    /// back in its pre-arrival logical state, so its version is restored
    /// too — schedulers' version-keyed caches stay warm across rejections.
    pub(crate) fn rollback_arrival(&mut self, txn: TxnId) {
        if let Some(a) = self.txns.remove(&txn) {
            self.locks.undeclare(&a.spec);
        }
        let _ = self.wtpg.remove_txn(txn);
        self.wtpg.restore_version(self.pre_arrival_version);
    }

    pub(crate) fn active(&self, txn: TxnId) -> Result<&ActiveTxn, CoreError> {
        self.txns.get(&txn).ok_or(CoreError::UnknownTxn(txn))
    }

    /// The declared step a request refers to, validating order.
    pub(crate) fn request_step(&self, txn: TxnId, step: usize) -> Result<StepSpec, CoreError> {
        let a = self.active(txn)?;
        if step >= a.spec.len() {
            return Err(CoreError::BadStep { txn, step });
        }
        if step != a.next_step {
            return Err(CoreError::OutOfOrder {
                txn,
                expected: a.next_step,
                got: step,
            });
        }
        a.spec
            .steps()
            .get(step)
            .copied()
            .ok_or(CoreError::BadStep { txn, step })
    }

    /// Transactions whose outstanding declarations on `p` conflict with a
    /// `mode` access by `txn` — granting the request implies `txn → other`
    /// for each of them. Deduplicated, ascending.
    pub(crate) fn implied_resolutions(
        &self,
        txn: TxnId,
        p: PartitionId,
        mode: crate::txn::AccessMode,
    ) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .locks
            .conflicting_declarations(txn, p, mode)
            .into_iter()
            .map(|d| d.txn)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True if applying the implied resolutions of a grant would close a
    /// precedence cycle — the deadlock prediction shared by C2PL and K-WTPG.
    ///
    /// Every implied edge emanates from `txn`, so a cycle through any of
    /// them must re-enter `txn` through *existing* edges: it exists iff some
    /// implied target already precedes `txn`. One backward reachability pass
    /// answers that without cloning the WTPG (this sits on C2PL's hottest
    /// path when the machine is driven into overload).
    pub(crate) fn grant_would_deadlock(&self, txn: TxnId, implied: &[TxnId]) -> bool {
        if implied.is_empty() {
            return false;
        }
        if implied.contains(&txn) {
            return true;
        }
        let before = self.wtpg.before(txn);
        implied.iter().any(|other| before.contains(other))
    }

    /// Performs the grant: takes the lock, resolves the implied conflicting
    /// edges into `txn → other`, and updates execution state.
    pub(crate) fn grant(
        &mut self,
        txn: TxnId,
        step: usize,
        spec_step: StepSpec,
        implied: &[TxnId],
    ) -> Result<(), CoreError> {
        self.locks
            .grant(txn, step, spec_step.partition, spec_step.mode)?;
        for &other in implied {
            if self.wtpg.contains(other) {
                self.wtpg.resolve(txn, other)?;
            }
        }
        let a = self.txns.get_mut(&txn).ok_or(CoreError::UnknownTxn(txn))?;
        a.current = Some(step);
        a.next_step = step + 1;
        a.declared_progress = Work::ZERO;
        Ok(())
    }

    /// Progress bookkeeping: decrement `w(T0→txn)` by the *declared*
    /// equivalent of `amount` actual work, never past the `due` of the steps
    /// still to come (§3.1; the clamp matters only under Experiment 4's
    /// erroneous declarations).
    pub(crate) fn progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        let a = self.txns.get_mut(&txn).ok_or(CoreError::UnknownTxn(txn))?;
        let Some(step) = a.current else {
            return Err(CoreError::BadStep {
                txn,
                step: usize::MAX,
            });
        };
        let declared_cost = a
            .spec
            .steps()
            .get(step)
            .ok_or(CoreError::BadStep { txn, step })?
            .cost;
        let before = a.declared_progress.min(declared_cost);
        a.declared_progress += amount;
        let after = a.declared_progress.min(declared_cost);
        let decrement = after - before;
        let floor = if step + 1 < a.spec.len() {
            a.spec.due(step + 1)
        } else {
            Work::ZERO
        };
        self.wtpg.decrement_t0_weight(txn, decrement, floor)
    }

    /// Step completion: the remaining declared work is now exactly the `due`
    /// of the next step (zero after the last).
    pub(crate) fn step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        let a = self.txns.get_mut(&txn).ok_or(CoreError::UnknownTxn(txn))?;
        if a.current != Some(step) {
            return Err(CoreError::BadStep { txn, step });
        }
        a.current = None;
        let remaining = if step + 1 < a.spec.len() {
            a.spec.due(step + 1)
        } else {
            Work::ZERO
        };
        self.wtpg.set_t0_weight(txn, remaining)
    }

    /// Commit: release every lock, remove the node from the WTPG.
    pub(crate) fn commit(&mut self, txn: TxnId) -> Result<Vec<PartitionId>, CoreError> {
        let a = self.txns.remove(&txn).ok_or(CoreError::UnknownTxn(txn))?;
        debug_assert_eq!(
            a.next_step,
            a.spec.len(),
            "{txn} committed before requesting every step"
        );
        let freed = self.locks.release_all(txn);
        self.wtpg.remove_txn(txn)?;
        Ok(freed)
    }

    /// Mid-flight abort: like a commit, but legal at any point of the step
    /// protocol. Outstanding declarations, held locks and WTPG edges all
    /// disappear; partially resolved orders simply lose their constraints.
    pub(crate) fn abort(&mut self, txn: TxnId) -> Result<Vec<PartitionId>, CoreError> {
        self.txns.remove(&txn).ok_or(CoreError::UnknownTxn(txn))?;
        let freed = self.locks.release_all(txn);
        self.wtpg.remove_txn(txn)?;
        Ok(freed)
    }
}
