//! Shared scheduler plumbing: the lock table, the WTPG, and the per-
//! transaction execution state, with the admission gate and the
//! grant/commit/progress mechanics every lock-based scheduler shares — and
//! the one [`Scheduler`] implementation over them. A scheduler is a
//! [`Policy`]: an admission [`Constraint`], a grant rule, and its caches.

use wtpg_obs::ControlStats;

use crate::certify::CertifyMode;
use crate::chain::form::arrival_keeps_chain_form;
use crate::error::CoreError;
use crate::lock::{ArrivalConflict, LockTable};
use crate::partition::PartitionId;
use crate::time::Tick;
use crate::txn::{StepSpec, TxnId, TxnSpec};
use crate::window::IdWindow;
use crate::work::Work;
use crate::wtpg::Wtpg;

use super::{Admission, CommitResult, ControlOps, LockOutcome, Scheduler};

/// A start-time constraint: what turns a BAT away "before doing any work".
/// Every one is a read-only test on the undeclared arrival.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Constraint {
    /// Everything is admitted (C2PL).
    None,
    /// The WTPG must stay chain-form (CC1 §3.2; CHAIN, CHAIN-C2PL).
    ChainForm,
    /// `|C(q)| ≤ K` for every declaration (CC2 §3.3; K-WTPG, K2-C2PL, and
    /// G-WTPG's planner bound).
    KConflict(usize),
    /// Every declared lock must be free right now (ASL).
    LockAll,
}

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
/// transaction registry, with the paper's weight bookkeeping built in. The
/// registry is an [`IdWindow`]: every request, progress report and step
/// completion finds its transaction by index.
///
/// In the steady state the core does not allocate: an arrival's conflicts
/// and a grant's implied resolutions are gathered into buffers it keeps,
/// and a departed transaction's declaration is kept for the next arrival to
/// be copied into.
#[derive(Clone, Debug, Default)]
pub struct SchedCore {
    pub(crate) locks: LockTable,
    pub(crate) wtpg: Wtpg,
    pub(crate) txns: IdWindow<ActiveTxn>,
    /// Cumulative control-plane statistics (cache behaviour, abort and delay
    /// causes) of the scheduler built on this core.
    pub(crate) stats: ControlStats,
    /// The arrival under test's conflicts ([`Self::admit_under`]).
    conflicts: Vec<ArrivalConflict>,
    /// What [`Self::implied_resolutions`] hands out and
    /// [`Self::recycle_implied`] takes back.
    implied: Vec<TxnId>,
    /// Declarations of departed transactions, for arrivals to copy into.
    spare: Vec<TxnSpec>,
}

impl SchedCore {
    /// Fresh, empty state.
    pub fn new() -> SchedCore {
        SchedCore::default()
    }

    /// The admission gate: tests `constraint` on the undeclared `spec` and,
    /// only if it holds, declares `spec` everywhere — lock table
    /// declarations, WTPG node with `w(T0→T) = due(s_0)`, and the conflict
    /// edges its arrival induces. A rejection changed nothing but the count
    /// of its cause.
    pub(crate) fn admit_under(
        &mut self,
        spec: &TxnSpec,
        constraint: Constraint,
    ) -> Result<Admission, CoreError> {
        if self.txns.contains(spec.id) {
            return Err(CoreError::DuplicateTxn(spec.id));
        }
        // Its own declarations never count, so this is also what the lock
        // table reports once `spec` is declared.
        let mut conflicts = std::mem::take(&mut self.conflicts);
        self.locks.arrival_conflicts(spec, &mut conflicts);
        let admission = self.admit_if(spec, constraint, &conflicts);
        self.conflicts = conflicts;
        admission
    }

    /// The gate's verdict on `spec`, whose arrival conflicts are `conflicts`.
    fn admit_if(
        &mut self,
        spec: &TxnSpec,
        constraint: Constraint,
        conflicts: &[ArrivalConflict],
    ) -> Result<Admission, CoreError> {
        let holds = match constraint {
            Constraint::None => true,
            Constraint::ChainForm => arrival_keeps_chain_form(&self.wtpg, conflicts)?,
            Constraint::KConflict(k) => self.locks.arrival_keeps_k(spec, k),
            Constraint::LockAll => self.locks.can_lock_all(spec),
        };
        if !holds {
            return Ok(self.refuse(constraint));
        }
        self.admit(spec, conflicts)?;
        Ok(Admission::Admitted)
    }

    /// Counts an arrival that `constraint` turned away under its cause.
    pub(crate) fn refuse(&mut self, constraint: Constraint) -> Admission {
        match constraint {
            Constraint::None => {}
            Constraint::ChainForm => self.stats.aborts_non_chain += 1,
            Constraint::KConflict(_) => self.stats.aborts_k_conflict += 1,
            Constraint::LockAll => self.stats.aborts_lock_denied += 1,
        }
        Admission::Rejected
    }

    /// Registers a new transaction whose `arrival_conflicts` are `conflicts`.
    fn admit(&mut self, spec: &TxnSpec, conflicts: &[ArrivalConflict]) -> Result<(), CoreError> {
        self.locks.declare(spec);
        self.wtpg.add_txn(spec.id, spec.total_declared())?;
        self.wtpg.ingest_arrival(spec.id, conflicts)?;
        let kept = match self.spare.pop() {
            Some(mut kept) => {
                kept.clone_from(spec);
                kept
            }
            None => spec.clone(),
        };
        self.txns.insert(
            spec.id,
            ActiveTxn {
                spec: kept,
                next_step: 0,
                current: None,
                declared_progress: Work::ZERO,
            },
        );
        Ok(())
    }

    /// The declared step a request refers to, validating order.
    pub(crate) fn request_step(&self, txn: TxnId, step: usize) -> Result<StepSpec, CoreError> {
        let a = self.txns.get(txn).ok_or(CoreError::UnknownTxn(txn))?;
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
    /// for each of them. Deduplicated, ascending, in the core's buffer:
    /// hand it back with [`Self::recycle_implied`] once done.
    pub(crate) fn implied_resolutions(
        &mut self,
        txn: TxnId,
        p: PartitionId,
        mode: crate::txn::AccessMode,
    ) -> Vec<TxnId> {
        let mut v = std::mem::take(&mut self.implied);
        v.clear();
        v.extend(self.locks.conflicting(txn, p, mode).map(|d| d.txn));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Takes back what [`Self::implied_resolutions`] handed out.
    pub(crate) fn recycle_implied(&mut self, implied: Vec<TxnId>) {
        self.implied = implied;
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
        implied
            .iter()
            .any(|other| before.binary_search(other).is_ok())
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
        self.start_step(txn, step)
    }

    /// Execution state on a grant: `step` runs, the one after it is requested
    /// next.
    pub(crate) fn start_step(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        let a = self.txns.get_mut(txn).ok_or(CoreError::UnknownTxn(txn))?;
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
        let a = self.txns.get_mut(txn).ok_or(CoreError::UnknownTxn(txn))?;
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
        let a = self.txns.get_mut(txn).ok_or(CoreError::UnknownTxn(txn))?;
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

    /// The transaction leaves — `finished` by a commit after its last step, or
    /// mid-flight by an abort, legal at any point of the step protocol.
    /// Outstanding declarations, held locks and WTPG edges all disappear;
    /// partially resolved orders simply lose their constraints. Writes the
    /// partitions it held into `freed`, ascending.
    pub(crate) fn remove(
        &mut self,
        txn: TxnId,
        finished: bool,
        freed: &mut Vec<PartitionId>,
    ) -> Result<(), CoreError> {
        let a = self.txns.remove(txn).ok_or(CoreError::UnknownTxn(txn))?;
        debug_assert!(
            !finished || a.next_step == a.spec.len(),
            "{txn} committed before requesting every step"
        );
        self.locks.release_all(&a.spec, freed);
        self.spare.push(a.spec);
        self.wtpg.remove_txn(txn)
    }
}

/// What tells one [`SchedCore`]-backed scheduler from another: its
/// admission constraint, its grant rule, and the caches the grant rule keeps.
/// Everything else — the [`Scheduler`] lifecycle — is written once below.
pub(crate) trait Policy {
    /// The shared state.
    fn core(&self) -> &SchedCore;

    /// The shared state, mutably.
    fn core_mut(&mut self) -> &mut SchedCore;

    /// [`Scheduler::name`].
    fn label(&self) -> &str;

    /// The start-time constraint arrivals are admitted under.
    fn constraint(&self) -> Constraint;

    /// [`Scheduler::certify_mode`].
    fn guarantees(&self) -> CertifyMode {
        CertifyMode::General
    }

    /// The grant rule: decides the in-order request for `step` (declared as
    /// `s`), which no held lock blocks.
    fn grant_rule(
        &mut self,
        txn: TxnId,
        step: usize,
        s: StepSpec,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError>;

    /// `spec` has just been admitted.
    fn admitted(&mut self, _spec: &TxnSpec) -> Result<(), CoreError> {
        Ok(())
    }

    /// `txn` has just committed or aborted: drop what the caches keep on it.
    fn left(&mut self, _txn: TxnId) {}
}

/// `txn` commits (`finished`) or aborts: out of the core, then out of the
/// policy's caches. The partitions it held are written into `freed`.
fn depart<P: Policy>(
    p: &mut P,
    txn: TxnId,
    finished: bool,
    freed: &mut Vec<PartitionId>,
) -> Result<(), CoreError> {
    p.core_mut().remove(txn, finished, freed)?;
    p.left(txn);
    Ok(())
}

/// [`depart`] with the freed partitions in a list of their own.
fn depart_listed<P: Policy>(
    p: &mut P,
    txn: TxnId,
    finished: bool,
) -> Result<CommitResult, CoreError> {
    let mut freed = Vec::new();
    depart(p, txn, finished, &mut freed)?;
    Ok(CommitResult {
        freed,
        ops: ControlOps::NONE,
    })
}

impl<P: Policy> Scheduler for P {
    fn name(&self) -> &str {
        self.label()
    }

    fn on_arrive(
        &mut self,
        spec: &TxnSpec,
        _now: Tick,
    ) -> Result<(Admission, ControlOps), CoreError> {
        let constraint = self.constraint();
        let admission = self.core_mut().admit_under(spec, constraint)?;
        if admission == Admission::Admitted {
            self.admitted(spec)?;
        }
        Ok((admission, ControlOps::NONE))
    }

    fn on_request(
        &mut self,
        txn: TxnId,
        step: usize,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        let s = self.core().request_step(txn, step)?;
        if self.core().locks.is_blocked(txn, s.partition, s.mode) {
            return Ok((LockOutcome::Blocked, ControlOps::NONE));
        }
        self.grant_rule(txn, step, s, now)
    }

    fn on_progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        self.core_mut().progress(txn, amount)
    }

    fn on_step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        self.core_mut().step_complete(txn, step)
    }

    fn on_commit(&mut self, txn: TxnId, _now: Tick) -> Result<CommitResult, CoreError> {
        depart_listed(self, txn, true)
    }

    fn on_commit_into(
        &mut self,
        txn: TxnId,
        _now: Tick,
        freed: &mut Vec<PartitionId>,
    ) -> Result<ControlOps, CoreError> {
        depart(self, txn, true, freed).map(|()| ControlOps::NONE)
    }

    fn on_abort(&mut self, txn: TxnId, _now: Tick) -> Result<CommitResult, CoreError> {
        depart_listed(self, txn, false)
    }

    fn active_txns(&self) -> usize {
        self.core().txns.len()
    }

    fn wtpg(&self) -> &Wtpg {
        &self.core().wtpg
    }

    fn certify_mode(&self) -> CertifyMode {
        self.guarantees()
    }

    fn obs_stats(&self) -> ControlStats {
        self.core().stats
    }
}

/// `on_arrive` the way it ran before the gate, the differentials' reference:
/// declare the arrival (into a clone of the core), judge the *declared* state
/// with the independent oracles — `k_constraint_ok`, `is_chain_form` — and
/// keep the clone or drop it.
#[cfg(test)]
pub(super) fn reference_arrive<P: Policy>(
    s: &mut P,
    spec: &TxnSpec,
    _now: Tick,
) -> Result<(Admission, ControlOps), CoreError> {
    let constraint = s.constraint();
    let mut declared = s.core().clone();
    declared.admit_under(spec, Constraint::None)?;
    let holds = match constraint {
        Constraint::ChainForm => crate::chain::form::is_chain_form(&declared.wtpg),
        Constraint::KConflict(k) => declared.locks.k_constraint_ok(spec, k),
        other => panic!("{other:?} never had a declare-then-test form"),
    };
    if !holds {
        return Ok((s.core_mut().refuse(constraint), ControlOps::NONE));
    }
    *s.core_mut() = declared;
    s.admitted(spec)?;
    Ok((Admission::Admitted, ControlOps::NONE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{AslScheduler, C2plScheduler, GWtpgScheduler, KWtpgScheduler};
    use crate::test_streams::{
        drive, drive_admitting, pattern_one, pattern_two, random_specs, Call, SEEDS, TXNS,
    };

    /// Drives the three seeded stream families through `make()` twice — its
    /// own `on_arrive`, and `reference_arrive` — and compares every decision
    /// (verdict + `ControlOps`), the cumulative stats and the WTPG version
    /// after every call. Every family must exercise the refusal path.
    fn reference_admission_differential<P: Policy>(name: &str, txns: u64, make: impl Fn() -> P) {
        fn observed<S: Scheduler>(s: &S, _: &TxnSpec, call: Call) -> (Call, ControlStats, u64) {
            (call, s.obs_stats(), s.wtpg().version())
        }
        let mut rejected = [0usize; 3];
        for seed in SEEDS {
            let parts = 4 + (seed % 9) as u32;
            let streams = [
                ("pattern one", pattern_one(seed, txns)),
                ("pattern two", pattern_two(seed, txns, 4)),
                ("random", random_specs(seed, txns, parts)),
            ];
            for (n, (what, specs)) in rejected.iter_mut().zip(&streams) {
                let got = drive(&mut make(), specs, observed);
                let want = drive_admitting(&mut make(), specs, reference_arrive, observed);
                if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
                    panic!(
                        "{name} {what} seed {seed}: call {i} diverges\n  production {:?}\n  \
                         reference  {:?}",
                        got[i], want[i]
                    );
                }
                assert_eq!(got.len(), want.len(), "{name} {what} seed {seed}");
                *n += got
                    .iter()
                    .filter(|o| matches!(o.0, Call::Arrive(_, Admission::Rejected)))
                    .count();
            }
        }
        assert!(rejected.iter().all(|&n| n > 0), "{name}: {rejected:?}");
    }

    #[test]
    fn reference_admission_differential_kwtpg() {
        reference_admission_differential("K2", TXNS, || KWtpgScheduler::new(2, 5000));
    }

    // A tenth of the length: G-WTPG re-plans with a local search after every
    // admission and departure, which costs some hundred times a K-WTPG call.
    #[test]
    fn reference_admission_differential_gwtpg() {
        reference_admission_differential("G-WTPG", TXNS / 10, || GWtpgScheduler::new(5000));
    }

    #[test]
    fn reference_admission_differential_k2_c2pl() {
        reference_admission_differential("K2-C2PL", TXNS, || C2plScheduler::k_c2pl(2));
    }

    #[test]
    fn reference_admission_differential_chain_c2pl() {
        reference_admission_differential("CHAIN-C2PL", TXNS, C2plScheduler::chain_c2pl);
    }

    fn writes(id: u64, partitions: &[u32]) -> TxnSpec {
        let steps = partitions.iter().map(|&p| StepSpec::write(p, 1.0));
        TxnSpec::new(TxnId(id), steps.collect())
    }

    /// Admits `admitted`, grants the first one's first step (so a held lock
    /// and, where the scheduler keeps them, warm caches are in play), then
    /// checks that the refused `arrival` left nothing behind.
    fn assert_rejection_is_pure<P: Policy>(mut s: P, admitted: &[TxnSpec], arrival: &TxnSpec) {
        for spec in admitted {
            assert_eq!(s.on_arrive(spec, Tick(0)).unwrap().0, Admission::Admitted);
        }
        let first = admitted.first().expect("someone to hold a lock").id;
        assert_eq!(
            s.on_request(first, 0, Tick(1)).unwrap().0,
            LockOutcome::Granted
        );
        let state = |s: &P| {
            let core = s.core();
            (
                core.wtpg.version(),
                core.locks.declaration_count(),
                core.locks.held_count(),
                s.active_txns(),
                core.wtpg.slot_count(),
                format!("{:?}", core.locks),
            )
        };
        let (before, stats) = (state(&s), s.obs_stats());
        let verdict = s.on_arrive(arrival, Tick(2)).unwrap();
        assert_eq!(verdict, (Admission::Rejected, ControlOps::NONE));
        assert_eq!(state(&s), before);
        assert!(!s.wtpg().contains(arrival.id));
        s.wtpg().check_invariants().unwrap();
        let refusals =
            |c: ControlStats| c.aborts_non_chain + c.aborts_k_conflict + c.aborts_lock_denied;
        assert_eq!(refusals(s.obs_stats()), refusals(stats) + 1);
    }

    /// T1 (holding P5), T2 and T3 all declare a write of P0: a fourth writer
    /// would give every declaration there three conflicts.
    fn three_writers_of_p0() -> [TxnSpec; 3] {
        [writes(1, &[5, 0]), writes(2, &[0]), writes(3, &[0])]
    }

    #[test]
    fn kwtpg_rejection_mutates_nothing() {
        let s = KWtpgScheduler::new(2, 5000);
        assert_rejection_is_pure(s, &three_writers_of_p0(), &writes(4, &[0]));
    }

    #[test]
    fn gwtpg_rejection_mutates_nothing() {
        let s = GWtpgScheduler::with_bound(5000, 2);
        assert_rejection_is_pure(s, &three_writers_of_p0(), &writes(4, &[0]));
    }

    #[test]
    fn k2_c2pl_rejection_mutates_nothing() {
        let s = C2plScheduler::k_c2pl(2);
        assert_rejection_is_pure(s, &three_writers_of_p0(), &writes(4, &[0]));
    }

    #[test]
    fn chain_c2pl_rejection_mutates_nothing() {
        // T1 – T2 – T3 is a chain; T4 would be a third neighbour of T2.
        let chain = [writes(1, &[5, 0]), writes(2, &[0, 1]), writes(3, &[1])];
        assert_rejection_is_pure(C2plScheduler::chain_c2pl(), &chain, &writes(4, &[0, 1]));
    }

    #[test]
    fn asl_rejection_mutates_nothing() {
        assert_rejection_is_pure(AslScheduler::new(), &[writes(1, &[5, 0])], &writes(4, &[0]));
    }
}
