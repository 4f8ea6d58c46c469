//! The bulk-access transaction model (paper §2.2).
//!
//! A transaction is a *sequential* execution of steps; each step reads or
//! writes exactly one partition and declares its I/O demand (`costof`) up
//! front. From the declared costs each step's `due` value — the work the
//! transaction must still perform from that step until its commit — is
//! precomputed (§3.1):
//!
//! ```text
//! due(s_N) = costof(s_N)
//! due(s_i) = costof(s_i) + due(s_{i+1})      for i < N
//! ```
//!
//! `due` values are what the WTPG uses as edge weights, so they are stored on
//! the spec and attached to every lock declaration in the lock table.

use std::fmt;

use crate::partition::PartitionId;
use crate::work::Work;

/// Identifier of a transaction. Unique for the lifetime of a scheduler.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Whether a step reads or bulk-updates its partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AccessMode {
    /// Bulk read — requires a shared lock.
    Read,
    /// Bulk update — requires an exclusive lock. Per the cost model, a bulk
    /// update of `a%` of a partition costs `2a|P|` (read before write).
    Write,
}

impl AccessMode {
    /// True when two accesses to the same granule by *different* transactions
    /// conflict: everything but read/read.
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        !(self == AccessMode::Read && other == AccessMode::Read)
    }
}

/// One declared step: `r_i(P:C)` or `w_i(P:C)` in the paper's notation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StepSpec {
    /// The single partition this step accesses.
    pub partition: PartitionId,
    /// Read or write.
    pub mode: AccessMode,
    /// Declared I/O demand (`costof(s)`), possibly erroneous (Experiment 4).
    pub cost: Work,
    /// True I/O demand actually incurred at the data node. Equal to `cost`
    /// unless an error model perturbed the declaration.
    pub actual_cost: Work,
}

impl StepSpec {
    /// A step whose declared and actual costs agree.
    pub fn new(partition: PartitionId, mode: AccessMode, cost: Work) -> StepSpec {
        StepSpec {
            partition,
            mode,
            cost,
            actual_cost: cost,
        }
    }

    /// A read step of `cost` objects (fractional allowed).
    pub fn read(partition: u32, cost_objects: f64) -> StepSpec {
        StepSpec::new(
            PartitionId(partition),
            AccessMode::Read,
            Work::from_objects_f64(cost_objects),
        )
    }

    /// A write step of `cost` objects (fractional allowed).
    ///
    /// Note: per the paper's cost model the *caller* accounts for the
    /// read-before-write doubling; the value given here is the final
    /// `costof(s)`.
    pub fn write(partition: u32, cost_objects: f64) -> StepSpec {
        StepSpec::new(
            PartitionId(partition),
            AccessMode::Write,
            Work::from_objects_f64(cost_objects),
        )
    }
}

impl fmt::Display for StepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = match self.mode {
            AccessMode::Read => 'r',
            AccessMode::Write => 'w',
        };
        write!(f, "{m}({}:{})", self.partition, self.cost)
    }
}

/// A fully declared bulk-access transaction: its id, ordered steps, and the
/// precomputed `due` value of every step.
#[derive(PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TxnSpec {
    /// Transaction identifier.
    pub id: TxnId,
    steps: Vec<StepSpec>,
    dues: Vec<Work>,
}

impl TxnSpec {
    /// Declares a transaction from its ordered steps.
    ///
    /// # Panics
    /// Panics if `steps` is empty — the model has no empty transactions.
    pub fn new(id: TxnId, steps: Vec<StepSpec>) -> TxnSpec {
        assert!(!steps.is_empty(), "a transaction needs at least one step");
        let dues = compute_dues(&steps);
        TxnSpec { id, steps, dues }
    }

    /// The declared steps, in execution order.
    pub fn steps(&self) -> &[StepSpec] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Always false; kept for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `due(s_i)`: declared work from the start of step `i` to commit.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn due(&self, i: usize) -> Work {
        self.dues[i]
    }

    /// `due(s_0)` — the initial `w(T0 → Ti)` weight: everything the
    /// transaction declared it must access before commit.
    pub fn total_declared(&self) -> Work {
        self.dues[0]
    }

    /// Total *actual* work across all steps (differs from
    /// [`Self::total_declared`] only under an error model).
    pub fn total_actual(&self) -> Work {
        self.steps.iter().map(|s| s.actual_cost).sum()
    }

    /// Strongest access mode this transaction declares on `p`, or `None` if
    /// it never touches `p`. Write dominates read (lock upgrade).
    pub fn mode_on(&self, p: PartitionId) -> Option<AccessMode> {
        let mut found = None;
        for s in &self.steps {
            if s.partition == p {
                match s.mode {
                    AccessMode::Write => return Some(AccessMode::Write),
                    AccessMode::Read => found = Some(AccessMode::Read),
                }
            }
        }
        found
    }

    /// True when every step is a read — the shape MVCC admits as a
    /// snapshot-reading BAT that bypasses the WTPG entirely.
    pub fn is_read_only(&self) -> bool {
        self.steps.iter().all(|s| s.mode == AccessMode::Read)
    }

    /// Distinct partitions accessed, in first-touch order, read in place.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        let steps = &self.steps;
        (0..steps.len())
            .filter(|&i| !steps[..i].iter().any(|s| s.partition == steps[i].partition))
            .map(|i| steps[i].partition)
    }

    /// Applies an error model to the *declared* costs, leaving actual costs
    /// intact, and recomputes dues. Used by Experiment 4.
    pub fn with_declared_costs(mut self, declared: &[Work]) -> TxnSpec {
        assert_eq!(
            declared.len(),
            self.steps.len(),
            "one declared cost per step"
        );
        for (s, &c) in self.steps.iter_mut().zip(declared) {
            s.cost = c;
        }
        self.dues = compute_dues(&self.steps);
        self
    }
}

impl Clone for TxnSpec {
    fn clone(&self) -> TxnSpec {
        TxnSpec {
            id: self.id,
            steps: self.steps.clone(),
            dues: self.dues.clone(),
        }
    }

    /// Takes `source`'s declaration into `self`'s buffers: a spec kept for
    /// reuse allocates only for a declaration longer than any it held.
    fn clone_from(&mut self, source: &TxnSpec) {
        self.id = source.id;
        self.steps.clone_from(&source.steps);
        self.dues.clone_from(&source.dues);
    }
}

impl fmt::Display for TxnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.id)?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The paper's `due` recurrence (§3.1).
fn compute_dues(steps: &[StepSpec]) -> Vec<Work> {
    let mut dues = vec![Work::ZERO; steps.len()];
    let mut acc = Work::ZERO;
    for (i, s) in steps.iter().enumerate().rev() {
        acc += s.cost;
        dues[i] = acc;
    }
    dues
}

#[cfg(test)]
mod tests {
    use super::*;

    /// T1 from the paper's Figure 1: r1(A:1) → r1(B:3) → w1(A:1).
    fn t1() -> TxnSpec {
        TxnSpec::new(
            TxnId(1),
            vec![
                StepSpec::read(0, 1.0),
                StepSpec::read(1, 3.0),
                StepSpec::write(0, 1.0),
            ],
        )
    }

    #[test]
    fn due_recurrence_matches_paper_example() {
        // Example 3.1: T1 has just started, so w(T0→T1) = 5.
        let t = t1();
        assert_eq!(t.total_declared(), Work::from_objects(5));
        assert_eq!(t.due(0), Work::from_objects(5));
        assert_eq!(t.due(1), Work::from_objects(4));
        assert_eq!(t.due(2), Work::from_objects(1));
    }

    #[test]
    fn due_with_fractional_costs() {
        // Pattern 1: r(F1:1) → r(F2:5) → w(F1:0.2) → w(F2:1).
        let t = TxnSpec::new(
            TxnId(9),
            vec![
                StepSpec::read(0, 1.0),
                StepSpec::read(1, 5.0),
                StepSpec::write(0, 0.2),
                StepSpec::write(1, 1.0),
            ],
        );
        assert_eq!(t.total_declared(), Work::from_objects_f64(7.2));
        assert_eq!(t.due(2), Work::from_objects_f64(1.2));
        assert_eq!(t.due(3), Work::from_objects(1));
    }

    #[test]
    fn mode_on_takes_strongest() {
        let t = t1();
        assert_eq!(t.mode_on(PartitionId(0)), Some(AccessMode::Write)); // r then w → X
        assert_eq!(t.mode_on(PartitionId(1)), Some(AccessMode::Read));
        assert_eq!(t.mode_on(PartitionId(7)), None);
    }

    #[test]
    fn read_only_means_no_write_step() {
        assert!(!t1().is_read_only());
        let r = TxnSpec::new(
            TxnId(2),
            vec![StepSpec::read(0, 1.0), StepSpec::read(1, 2.0)],
        );
        assert!(r.is_read_only());
    }

    #[test]
    fn clone_from_takes_a_declaration_into_the_buffers_it_has() {
        let long = t1();
        let mut kept = long.clone();
        let steps = kept.steps().as_ptr();
        let short = TxnSpec::new(TxnId(9), vec![StepSpec::write(2, 4.0)]);
        kept.clone_from(&short);
        assert_eq!(kept, short);
        assert_eq!(kept.steps().as_ptr(), steps, "no new step buffer");
        kept.clone_from(&long);
        assert_eq!(kept, long);
        assert_eq!(kept.total_declared(), Work::from_objects(5));
    }

    #[test]
    fn partitions_in_first_touch_order() {
        let t = t1();
        assert_eq!(t.partitions().collect::<Vec<_>>(), [PartitionId(0), PartitionId(1)]);
    }

    #[test]
    fn conflict_matrix() {
        use AccessMode::*;
        assert!(!Read.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(t1().to_string(), "T1: r(P0:1) -> r(P1:3) -> w(P0:1)");
    }

    #[test]
    fn erroneous_declarations_keep_actuals() {
        let t =
            t1().with_declared_costs(&[Work::from_objects(2), Work::from_objects(6), Work::ZERO]);
        assert_eq!(t.total_declared(), Work::from_objects(8));
        assert_eq!(t.total_actual(), Work::from_objects(5));
        assert_eq!(t.due(1), Work::from_objects(6));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_txn_rejected() {
        let _ = TxnSpec::new(TxnId(0), vec![]);
    }
}
