//! Partition-granule lock table with pre-declared accesses (paper §2.2, §3.1).
//!
//! Every transaction declares *all* the data it will read and write at its
//! start; each declaration carries the step's `due` value so that WTPG edge
//! weights can be computed the moment a conflicting transaction arrives
//! ("For all steps s_j of a declared transaction, due(s_j) is attached to the
//! lock-declaration of s_j in the lock table"). A declaration is replaced by
//! a held lock when its request is granted; all locks are held until commit
//! (strictness, needed for recovery) and released together.
//!
//! The table also answers the two queries the schedulers live on:
//!
//! * `C(q)` — the conflicting declarations of a request (K-WTPG's competitor
//!   set, paper §3.3), and
//! * the conflict structure a newly arrived transaction induces (which the
//!   WTPG turns into conflicting and precedence edges).

use crate::error::CoreError;
use crate::partition::PartitionId;
use crate::txn::{AccessMode, TxnId, TxnSpec};
use crate::work::Work;

/// Lock modes at the partition granule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Shared — held by bulk reads.
    Shared,
    /// Exclusive — held by bulk updates; conflicts with everything.
    Exclusive,
}

impl LockMode {
    /// The lock mode a step's access mode requires.
    pub fn for_access(mode: AccessMode) -> LockMode {
        match mode {
            AccessMode::Read => LockMode::Shared,
            AccessMode::Write => LockMode::Exclusive,
        }
    }

    /// S/S is the only compatible pair.
    pub fn compatible_with(self, other: LockMode) -> bool {
        self == LockMode::Shared && other == LockMode::Shared
    }
}

/// One outstanding lock declaration: transaction `txn` will run step `step`
/// (`mode` access) on the declaring granule, and from that step it still has
/// `due` work before its commit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Declaration {
    /// The declaring transaction.
    pub txn: TxnId,
    /// Index of the step within the transaction.
    pub step: usize,
    /// Access mode of the step.
    pub mode: AccessMode,
    /// `due(step)` — declared work from this step to commit.
    pub due: Work,
}

/// A conflict discovered when a transaction arrives and declares its steps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalConflict {
    /// The new transaction's declaration conflicts with an *outstanding
    /// declaration* of `other`: an unresolved conflicting edge.
    ///
    /// Weight rule (§3.1): `w(other → me) = my_due`, `w(me → other) = other_due`.
    Declared {
        /// The conflicting live transaction.
        other: TxnId,
        /// `due` of the arriving transaction's conflicting step.
        my_due: Work,
        /// `due` of `other`'s conflicting declared step.
        other_due: Work,
    },
    /// The new transaction's declaration conflicts with a lock `other`
    /// already *holds* (held to commit), so the serialization order is
    /// already determined: `other → me`, weight `my_due`.
    Held {
        /// The holding transaction.
        other: TxnId,
        /// `due` of the arriving transaction's conflicting step.
        my_due: Work,
    },
}

impl ArrivalConflict {
    /// The live transaction the arrival conflicts with.
    pub fn other(&self) -> TxnId {
        match *self {
            ArrivalConflict::Declared { other, .. } | ArrivalConflict::Held { other, .. } => other,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Granule {
    /// Current holders. Invariant: either any number of Shared entries, or a
    /// single Exclusive entry (an upgrade replaces the holder's mode).
    holders: Vec<(TxnId, LockMode)>,
    /// Outstanding declarations, in arrival order.
    decls: Vec<Declaration>,
}

/// The centralized lock table of partition granules managed by the control
/// node (paper §2.2). Granules are indexed by partition id, grown to the
/// highest partition ever declared: the catalog, for a run.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    granules: Vec<Granule>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    fn granule(&self, p: PartitionId) -> Option<&Granule> {
        self.granules.get(p.0 as usize)
    }

    /// Registers all of a transaction's lock declarations (its start-time
    /// predeclaration). The caller must not declare the same id twice.
    pub fn declare(&mut self, spec: &TxnSpec) {
        for (i, s) in spec.steps().iter().enumerate() {
            let p = s.partition.0 as usize;
            if p >= self.granules.len() {
                self.granules.resize_with(p + 1, Granule::default);
            }
            let Some(g) = self.granules.get_mut(p) else {
                continue;
            };
            g.decls.push(Declaration {
                txn: spec.id,
                step: i,
                mode: s.mode,
                due: spec.due(i),
            });
        }
    }

    /// Conflicts the (already declared) transaction `spec` has with *other*
    /// live transactions — the raw material for its WTPG edges.
    ///
    /// One entry is produced per conflicting (step, declaration) or
    /// (step, held-lock) pair; the WTPG aggregates them per transaction pair
    /// with the paper's max rule. They are written into `out`, cleared
    /// first: a caller that keeps the buffer allocates only while it grows.
    pub fn arrival_conflicts(&self, spec: &TxnSpec, out: &mut Vec<ArrivalConflict>) {
        out.clear();
        for (i, s) in spec.steps().iter().enumerate() {
            let Some(g) = self.granule(s.partition) else {
                continue;
            };
            let my_due = spec.due(i);
            for d in &g.decls {
                if d.txn != spec.id && d.mode.conflicts_with(s.mode) {
                    out.push(ArrivalConflict::Declared {
                        other: d.txn,
                        my_due,
                        other_due: d.due,
                    });
                }
            }
            for &(t, m) in &g.holders {
                if t != spec.id && !m.compatible_with(LockMode::for_access(s.mode)) {
                    out.push(ArrivalConflict::Held { other: t, my_due });
                }
            }
        }
    }

    /// True if a request by `txn` for `mode` access on `p` conflicts with a
    /// lock held by *another* transaction (paper Step 1 of CC1/CC2: "q is
    /// blocked"). The requester's own held lock never blocks it — that is the
    /// S→X upgrade path.
    pub fn is_blocked(&self, txn: TxnId, p: PartitionId, mode: AccessMode) -> bool {
        let want = LockMode::for_access(mode);
        self.granule(p).is_some_and(|g| {
            g.holders
                .iter()
                .any(|&(t, m)| t != txn && !m.compatible_with(want))
        })
    }

    /// `C(q)`: outstanding declarations by other transactions that conflict
    /// with a request by `txn` for `mode` access on `p` (paper §3.3).
    pub fn conflicting_declarations(
        &self,
        txn: TxnId,
        p: PartitionId,
        mode: AccessMode,
    ) -> Vec<Declaration> {
        self.conflicting(txn, p, mode).collect()
    }

    /// [`Self::conflicting_declarations`], read in place.
    pub fn conflicting(
        &self,
        txn: TxnId,
        p: PartitionId,
        mode: AccessMode,
    ) -> impl Iterator<Item = Declaration> + '_ {
        let decls = self.granule(p).map_or(&[][..], |g| &g.decls[..]);
        decls
            .iter()
            .filter(move |d| d.txn != txn && d.mode.conflicts_with(mode))
            .copied()
    }

    /// Grants `txn`'s declared step `step` on `p`: the declaration becomes a
    /// held lock (upgrading an existing Shared hold if the step writes).
    ///
    /// # Errors
    /// Returns [`CoreError::BadStep`] if no such declaration is outstanding.
    ///
    /// # Panics
    /// Panics (debug) if the grant violates lock compatibility — callers must
    /// check [`Self::is_blocked`] first.
    pub fn grant(
        &mut self,
        txn: TxnId,
        step: usize,
        p: PartitionId,
        mode: AccessMode,
    ) -> Result<(), CoreError> {
        debug_assert!(
            !self.is_blocked(txn, p, mode),
            "grant of a blocked request: {txn} step {step} on {p}"
        );
        let g = self
            .granules
            .get_mut(p.0 as usize)
            .ok_or(CoreError::BadStep { txn, step })?;
        let pos = g
            .decls
            .iter()
            .position(|d| d.txn == txn && d.step == step)
            .ok_or(CoreError::BadStep { txn, step })?;
        g.decls.swap_remove(pos);
        let want = LockMode::for_access(mode);
        match g.holders.iter_mut().find(|(t, _)| *t == txn) {
            Some(h) => {
                // Upgrade: X dominates S; a repeated S grant is a no-op.
                if want == LockMode::Exclusive {
                    h.1 = LockMode::Exclusive;
                }
            }
            None => g.holders.push((txn, want)),
        }
        Ok(())
    }

    /// Releases every lock held by the transaction `spec` declares (commit
    /// time) and writes the partitions that were freed into `freed` (cleared
    /// first), ascending — the control node wakes requests blocked on them
    /// in that order. Any leftover declarations of the transaction are
    /// dropped as well. Only the granules `spec` names are visited: nothing
    /// else can hold its locks or declarations.
    pub fn release_all(&mut self, spec: &TxnSpec, freed: &mut Vec<PartitionId>) {
        let txn = spec.id;
        freed.clear();
        for p in spec.partitions() {
            let Some(g) = self.granules.get_mut(p.0 as usize) else {
                continue;
            };
            let before = g.holders.len();
            g.holders.retain(|&(t, _)| t != txn);
            if g.holders.len() != before {
                freed.push(p);
            }
            g.decls.retain(|d| d.txn != txn);
        }
        freed.sort_unstable();
    }

    /// Lock mode `txn` currently holds on `p`, if any.
    pub fn held_mode(&self, txn: TxnId, p: PartitionId) -> Option<LockMode> {
        self.granule(p)?
            .holders
            .iter()
            .find(|&&(t, _)| t == txn)
            .map(|&(_, m)| m)
    }

    /// All current holders of `p`.
    pub fn holders(&self, p: PartitionId) -> Vec<(TxnId, LockMode)> {
        self.granule(p)
            .map(|g| g.holders.clone())
            .unwrap_or_default()
    }

    /// Atomic-static-lock admission test: can `spec` acquire *all* its locks
    /// right now? True iff no step conflicts with a lock held by another
    /// transaction (declarations don't matter — ASL ignores the future).
    pub fn can_lock_all(&self, spec: &TxnSpec) -> bool {
        spec.steps()
            .iter()
            .all(|s| !self.is_blocked(spec.id, s.partition, s.mode))
    }

    /// Grants every declared step of `spec` at once (ASL start). The caller
    /// must have verified [`Self::can_lock_all`].
    pub fn grant_all(&mut self, spec: &TxnSpec) -> Result<(), CoreError> {
        for (i, s) in spec.steps().iter().enumerate() {
            self.grant(spec.id, i, s.partition, s.mode)?;
        }
        Ok(())
    }

    /// K-conflict constraint test (paper §3.3): with `spec` freshly declared,
    /// does every outstanding declaration — the newcomer's *and* everyone
    /// else's — conflict with at most `k` declarations of other transactions?
    /// The certifier's check on a replayed admission, and the oracle
    /// [`Self::arrival_keeps_k`] — what the schedulers ask — is tested against.
    pub fn k_constraint_ok(&self, spec: &TxnSpec, k: usize) -> bool {
        // Only granules the newcomer touches can have gained conflicts.
        for p in spec.partitions() {
            let Some(g) = self.granule(p) else {
                continue;
            };
            for d in &g.decls {
                let count = g
                    .decls
                    .iter()
                    .filter(|e| e.txn != d.txn && e.mode.conflicts_with(d.mode))
                    .count();
                if count > k {
                    return false;
                }
            }
        }
        true
    }

    /// The K-conflict constraint as a read-only admission test (paper §3.3):
    /// were the undeclared `spec` declared, would every declaration on the
    /// granules it names — the outstanding ones and its own — conflict with at
    /// most `k` declarations of other transactions? What
    /// [`Self::k_constraint_ok`] answers after [`Self::declare`].
    pub fn arrival_keeps_k(&self, spec: &TxnSpec, k: usize) -> bool {
        let steps = spec.steps();
        steps.iter().all(|s| {
            let decls = self.granule(s.partition).map_or(&[][..], |g| &g.decls);
            // Conflicts of a `mode` declaration by `txn` on this granule: with
            // other transactions' outstanding ones, plus — unless `txn` is
            // the arrival itself — with the arrival's.
            let within_k = |txn: TxnId, mode: AccessMode| {
                let outstanding = decls
                    .iter()
                    .filter(|e| e.txn != txn && e.mode.conflicts_with(mode));
                let arriving = steps.iter().filter(|t| {
                    txn != spec.id && t.partition == s.partition && t.mode.conflicts_with(mode)
                });
                outstanding.count() + arriving.count() <= k
            };
            within_k(spec.id, s.mode) && decls.iter().all(|d| within_k(d.txn, d.mode))
        })
    }

    /// Total outstanding declarations (diagnostics).
    pub fn declaration_count(&self) -> usize {
        self.granules.iter().map(|g| g.decls.len()).sum()
    }

    /// Total held locks (diagnostics).
    pub fn held_count(&self) -> usize {
        self.granules.iter().map(|g| g.holders.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conflicts(lt: &LockTable, spec: &TxnSpec) -> Vec<ArrivalConflict> {
        let mut out = Vec::new();
        lt.arrival_conflicts(spec, &mut out);
        out
    }

    fn release(lt: &mut LockTable, spec: &TxnSpec) -> Vec<PartitionId> {
        let mut freed = Vec::new();
        lt.release_all(spec, &mut freed);
        freed
    }
    use crate::txn::StepSpec;

    fn spec(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    /// Figure 1 transactions.
    fn figure1() -> (TxnSpec, TxnSpec, TxnSpec) {
        // A=P0, B=P1, C=P2, D=P3.
        let t1 = spec(
            1,
            vec![
                StepSpec::read(0, 1.0),
                StepSpec::read(1, 3.0),
                StepSpec::write(0, 1.0),
            ],
        );
        let t2 = spec(2, vec![StepSpec::read(2, 1.0), StepSpec::write(0, 1.0)]);
        let t3 = spec(3, vec![StepSpec::write(2, 1.0), StepSpec::read(3, 3.0)]);
        (t1, t2, t3)
    }

    #[test]
    fn declarations_are_registered_and_conflict() {
        let (t1, t2, t3) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.declare(&t2);
        lt.declare(&t3);
        assert_eq!(lt.declaration_count(), 3 + 2 + 2);
        // C(q) for T2's write on A=P0: T1's read and write declarations on A.
        let c = lt.conflicting_declarations(TxnId(2), PartitionId(0), AccessMode::Write);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|d| d.txn == TxnId(1)));
    }

    /// Example 3.1 weights: w(T1→T2) = 1 because due of T2's w2(A:1) is 1;
    /// w(T2→T1) should be due of T1's first conflicting step on A, which is
    /// its r1(A:1) with due 5.
    #[test]
    fn arrival_conflict_dues_match_paper_example() {
        let (t1, t2, _) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.declare(&t2);
        let confs = conflicts(&lt, &t2);
        // T2's w(A) conflicts with T1's r(A) (due 5) and w(A) (due 1).
        let mut dues: Vec<(Work, Work)> = confs
            .iter()
            .map(|c| match *c {
                ArrivalConflict::Declared {
                    my_due, other_due, ..
                } => (my_due, other_due),
                _ => panic!("no held locks yet"),
            })
            .collect();
        dues.sort();
        assert_eq!(
            dues,
            vec![
                (Work::from_objects(1), Work::from_objects(1)), // vs T1's w(A), due 1
                (Work::from_objects(1), Work::from_objects(5)), // vs T1's r(A), due 5
            ]
        );
    }

    #[test]
    fn held_lock_conflicts_reported_on_arrival() {
        let (t1, t2, _) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.grant(TxnId(1), 0, PartitionId(0), AccessMode::Read)
            .unwrap();
        lt.declare(&t2);
        let confs = conflicts(&lt, &t2);
        // T2's w(A) sees T1's held S on A (resolved) AND T1's outstanding w(A) decl.
        assert!(confs.contains(&ArrivalConflict::Held {
            other: TxnId(1),
            my_due: Work::from_objects(1),
        }));
        assert!(matches!(
            confs
                .iter()
                .find(|c| matches!(c, ArrivalConflict::Declared { .. })),
            Some(ArrivalConflict::Declared {
                other: TxnId(1),
                ..
            })
        ));
    }

    #[test]
    fn blocking_rules() {
        let (t1, t2, _) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.declare(&t2);
        lt.grant(TxnId(1), 0, PartitionId(0), AccessMode::Read)
            .unwrap();
        // T2's X on A blocked by T1's S.
        assert!(lt.is_blocked(TxnId(2), PartitionId(0), AccessMode::Write));
        // Another S on A would not be blocked.
        assert!(!lt.is_blocked(TxnId(2), PartitionId(0), AccessMode::Read));
        // T1 itself is never blocked by its own lock (upgrade path).
        assert!(!lt.is_blocked(TxnId(1), PartitionId(0), AccessMode::Write));
    }

    #[test]
    fn upgrade_replaces_mode() {
        let (t1, _, _) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.grant(TxnId(1), 0, PartitionId(0), AccessMode::Read)
            .unwrap();
        assert_eq!(
            lt.held_mode(TxnId(1), PartitionId(0)),
            Some(LockMode::Shared)
        );
        lt.grant(TxnId(1), 2, PartitionId(0), AccessMode::Write)
            .unwrap();
        assert_eq!(
            lt.held_mode(TxnId(1), PartitionId(0)),
            Some(LockMode::Exclusive)
        );
        assert_eq!(lt.held_count(), 1);
    }

    #[test]
    fn release_frees_partitions_and_decls() {
        let (t1, _, _) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.grant(TxnId(1), 0, PartitionId(0), AccessMode::Read)
            .unwrap();
        lt.grant(TxnId(1), 1, PartitionId(1), AccessMode::Read)
            .unwrap();
        let freed = release(&mut lt, &t1);
        assert_eq!(freed, vec![PartitionId(0), PartitionId(1)]);
        assert_eq!(lt.held_count(), 0);
        assert_eq!(lt.declaration_count(), 0);
    }

    #[test]
    fn asl_admission() {
        let (t1, t2, t3) = figure1();
        let mut lt = LockTable::new();
        lt.declare(&t1);
        lt.grant_all(&t1).unwrap();
        // T2 needs X on A which T1 holds (as X after grant_all upgrades): blocked.
        assert!(!lt.can_lock_all(&t2));
        // T3 touches C and D only; T1 holds A and B: free to go.
        assert!(lt.can_lock_all(&t3));
        lt.declare(&t3);
        lt.grant_all(&t3).unwrap();
        assert_eq!(lt.held_count(), 2 + 2);
    }

    #[test]
    fn k_constraint_counts_conflicting_declarations() {
        let mut lt = LockTable::new();
        // Three writers of the same hot partition 0.
        let a = spec(1, vec![StepSpec::write(0, 1.0)]);
        let b = spec(2, vec![StepSpec::write(0, 1.0)]);
        let c = spec(3, vec![StepSpec::write(0, 1.0)]);
        lt.declare(&a);
        lt.declare(&b);
        assert!(lt.k_constraint_ok(&b, 2));
        assert!(lt.k_constraint_ok(&b, 1));
        lt.declare(&c);
        // Each declaration now conflicts with 2 others: K=2 ok, K=1 violated.
        assert!(lt.k_constraint_ok(&c, 2));
        assert!(!lt.k_constraint_ok(&c, 1));
    }

    #[test]
    fn k_constraint_ignores_read_read() {
        let mut lt = LockTable::new();
        let a = spec(1, vec![StepSpec::read(0, 1.0)]);
        let b = spec(2, vec![StepSpec::read(0, 1.0)]);
        let c = spec(3, vec![StepSpec::read(0, 1.0)]);
        lt.declare(&a);
        lt.declare(&b);
        lt.declare(&c);
        assert!(lt.k_constraint_ok(&c, 0));
    }

    #[test]
    fn grant_without_declaration_is_an_error() {
        let mut lt = LockTable::new();
        let err = lt
            .grant(TxnId(9), 0, PartitionId(0), AccessMode::Read)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::BadStep {
                txn: TxnId(9),
                step: 0
            }
        );
    }

    /// Any number of readers co-hold S on the same granule; a writer is
    /// blocked by every one of them, and the granule reports them all.
    #[test]
    fn shared_readers_co_hold_without_blocking_each_other() {
        let mut lt = LockTable::new();
        let readers: Vec<TxnSpec> = (1..=3)
            .map(|id| spec(id, vec![StepSpec::read(0, 2.0)]))
            .collect();
        for r in &readers {
            lt.declare(r);
        }
        for r in &readers {
            assert!(
                !lt.is_blocked(r.id, PartitionId(0), AccessMode::Read),
                "{:?} must not be blocked by fellow readers",
                r.id
            );
            lt.grant(r.id, 0, PartitionId(0), AccessMode::Read).unwrap();
        }
        let holders = lt.holders(PartitionId(0));
        assert_eq!(holders.len(), 3);
        assert!(holders.iter().all(|&(_, m)| m == LockMode::Shared));
        // An arriving writer is blocked until the *last* reader releases.
        let w = spec(9, vec![StepSpec::write(0, 1.0)]);
        lt.declare(&w);
        assert!(lt.is_blocked(w.id, PartitionId(0), AccessMode::Write));
        release(&mut lt, &readers[0]);
        release(&mut lt, &readers[1]);
        assert!(lt.is_blocked(w.id, PartitionId(0), AccessMode::Write));
        release(&mut lt, &readers[2]);
        assert!(!lt.is_blocked(w.id, PartitionId(0), AccessMode::Write));
    }

    /// Only W-W and W-R pairs produce WTPG edge material: a reader arriving
    /// over declared/held readers sees *no* conflicts at all, while the
    /// same arrival over a writer sees them.
    #[test]
    fn read_read_pairs_never_produce_edge_material() {
        let mut lt = LockTable::new();
        let r1 = spec(1, vec![StepSpec::read(0, 2.0)]);
        let r2 = spec(2, vec![StepSpec::read(0, 2.0)]);
        lt.declare(&r1);
        lt.grant(TxnId(1), 0, PartitionId(0), AccessMode::Read).unwrap();
        lt.declare(&r2);
        assert!(
            conflicts(&lt, &r2).is_empty(),
            "S over held S and declared S is conflict-free"
        );
        assert!(lt
            .conflicting_declarations(TxnId(2), PartitionId(0), AccessMode::Read)
            .is_empty());
        // Swap in a writer on the same granule: both kinds appear.
        let w = spec(3, vec![StepSpec::write(0, 1.0)]);
        lt.declare(&w);
        let confs = conflicts(&lt, &w);
        assert!(confs
            .iter()
            .any(|c| matches!(c, ArrivalConflict::Held { other: TxnId(1), .. })));
        assert!(confs
            .iter()
            .any(|c| matches!(c, ArrivalConflict::Declared { other: TxnId(2), .. })));
        // And the readers now see the writer's declaration as a conflict.
        assert_eq!(
            lt.conflicting_declarations(TxnId(2), PartitionId(0), AccessMode::Read)
                .len(),
            1
        );
    }

    /// The S/X compatibility matrix, spelled out.
    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible_with(Shared));
        assert!(!Shared.compatible_with(Exclusive));
        assert!(!Exclusive.compatible_with(Shared));
        assert!(!Exclusive.compatible_with(Exclusive));
        assert_eq!(LockMode::for_access(AccessMode::Read), Shared);
        assert_eq!(LockMode::for_access(AccessMode::Write), Exclusive);
    }
}
