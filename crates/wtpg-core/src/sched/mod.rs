//! The schedulers: the paper's two WTPG schedulers, its three baselines, and
//! the Experiment-4 hybrids, all behind one event-driven [`Scheduler`] trait.
//!
//! A scheduler is a start-time *admission constraint* — tested read-only on
//! the arrival before anything is declared — plus a *grant rule* for
//! unblocked lock requests; the hybrids are one scheduler's constraint under
//! another's grant rule:
//!
//! | name | paper | admission constraint | grant rule |
//! |---|---|---|---|
//! | [`ChainScheduler`] | CC1, "CHAIN" (§3.2) | the WTPG stays chain-form | global: implied resolutions agree with `W`, the full SR-order with the shortest critical path |
//! | [`KWtpgScheduler`] | CC2, "K-WTPG" (§3.3) | `\|C(q)\| ≤ K` | local: smallest `E(q)` among the conflicting declarations |
//! | [`AslScheduler`] | ASL (§4.1, after Tay) | every declared lock is free, and is taken at once | always (nothing is left to ask for) |
//! | [`C2plScheduler`] | C2PL (§4.1, after Nishio) | none — never aborts | cautious strict 2PL: no predicted precedence cycle |
//! | [`NodcScheduler`] | NODC (§4.1) | none | grants everything — the resource-contention-only upper bound |
//! | [`C2plScheduler::chain_c2pl`] | CHAIN-C2PL (§4.4) | CHAIN's | C2PL's (no weights) |
//! | [`C2plScheduler::k_c2pl`] | K2-C2PL (§4.4) | K-WTPG's | C2PL's (no weights) |
//! | [`GWtpgScheduler`] | — (our extension) | `\|C(q)\| ≤ 6`, to bound the planner's input | CHAIN's, with `W` from the heuristic planner on arbitrary conflict graphs |
//!
//! All but NODC keep their state in a [`SchedCore`], whose one gate admits
//! under the constraint and over which the rest of the lifecycle is written
//! once; a scheduler's module holds its grant rule and its caches.
//!
//! The driver (simulator or application) owns retry policy: a `Rejected`
//! admission or `Delayed` request is resubmitted after a fixed delay, a
//! `Blocked` request is retried when a commit frees its partition — exactly
//! the paper's "resubmitted after a fixed delay" discipline.

mod asl;
mod c2pl;
mod chain_sched;
mod common;
mod gwtpg;
mod kwtpg;
mod nodc;

pub use asl::AslScheduler;
pub use c2pl::C2plScheduler;
pub use chain_sched::ChainScheduler;
pub(crate) use common::Constraint;
pub use common::SchedCore;
pub use gwtpg::GWtpgScheduler;
pub use kwtpg::KWtpgScheduler;
pub use nodc::NodcScheduler;

use crate::error::CoreError;
use crate::partition::PartitionId;
use crate::time::Tick;
use crate::txn::{TxnId, TxnSpec};
use crate::work::Work;
use crate::wtpg::Wtpg;

/// Builds a scheduler by its CLI name (case-insensitive), or `None` for an
/// unknown name — the one name table every front end shares. `k`
/// parameterises the K-WTPG variants; `keeptime` is the CHAIN / K-WTPG /
/// G-WTPG control-saving period in the driver's ticks (milliseconds under
/// the simulator, one tick per control-node operation under `wtpg-rt`).
pub fn by_name(name: &str, k: usize, keeptime: u64) -> Option<Box<dyn Scheduler + Send>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "chain" => Box::new(ChainScheduler::new(keeptime)),
        "k2" | "kwtpg" | "k-wtpg" => Box::new(KWtpgScheduler::new(k, keeptime)),
        "gwtpg" | "g-wtpg" => Box::new(GWtpgScheduler::new(keeptime)),
        "asl" => Box::new(AslScheduler::new()),
        "c2pl" | "2pl" => Box::new(C2plScheduler::new()),
        "chain-c2pl" => Box::new(C2plScheduler::chain_c2pl()),
        "k2-c2pl" => Box::new(C2plScheduler::k_c2pl(k)),
        "nodc" => Box::new(NodcScheduler::new()),
        _ => return None,
    })
}

/// Outcome of a transaction's start request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// The transaction was admitted: its declarations are registered and it
    /// may start requesting step locks.
    Admitted,
    /// The transaction was turned away (structural constraint violated, or
    /// ASL could not take every lock). Nothing was registered; resubmit the
    /// same spec after a delay.
    Rejected,
}

/// Outcome of a step lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// The lock is held; ship the transaction to the data node.
    Granted,
    /// A conflicting lock is *held* by another transaction — retry when the
    /// partition is freed by a commit.
    Blocked,
    /// The scheduler chose to wait (inconsistent with CHAIN's `W`, lost the
    /// `E(q)` comparison, or deadlock predicted) — retry after a fixed delay.
    Delayed,
}

/// Control-node work performed while handling an event, in units the
/// simulator prices with the paper's `ddtime` / `chaintime` / `kwtpgtime`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ControlOps {
    /// Deadlock predictions (C2PL-style cycle tests).
    pub deadlock_tests: u32,
    /// Full-SR-order optimisations (CHAIN's `W`).
    pub chain_opts: u32,
    /// `E(q)` evaluations actually computed (cache misses).
    pub eq_evals: u32,
}

impl ControlOps {
    /// No control work.
    pub const NONE: ControlOps = ControlOps {
        deadlock_tests: 0,
        chain_opts: 0,
        eq_evals: 0,
    };

    /// Component-wise sum.
    pub fn merge(self, other: ControlOps) -> ControlOps {
        ControlOps {
            deadlock_tests: self.deadlock_tests + other.deadlock_tests,
            chain_opts: self.chain_opts + other.chain_opts,
            eq_evals: self.eq_evals + other.eq_evals,
        }
    }
}

/// Result of a commit: which partitions were freed (for waking blocked
/// requests) and the control work performed.
#[derive(Clone, Debug, Default)]
pub struct CommitResult {
    /// Partitions whose locks were released.
    pub freed: Vec<PartitionId>,
    /// Control work.
    pub ops: ControlOps,
}

/// A concurrency-control scheduler for bulk-access transactions.
///
/// The driver must respect the protocol: admit before requesting, request
/// steps in declared order, report progress and step completion for granted
/// steps, and commit only after the last step completes. Protocol violations
/// surface as [`CoreError`]s; scheduling outcomes (blocked/delayed/rejected)
/// are ordinary values.
pub trait Scheduler {
    /// Short identifier ("CHAIN", "K2", "ASL", …) used in reports.
    fn name(&self) -> &str;

    /// A new transaction arrives, declaring all steps and I/O demands.
    fn on_arrive(
        &mut self,
        spec: &TxnSpec,
        now: Tick,
    ) -> Result<(Admission, ControlOps), CoreError>;

    /// The transaction requests the lock for its next step.
    fn on_request(
        &mut self,
        txn: TxnId,
        step: usize,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError>;

    /// A data node finished `amount` of bulk work for `txn`'s current step —
    /// the per-object weight-adjustment message (§3.1).
    fn on_progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError>;

    /// The current step's bulk operation finished entirely.
    fn on_step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError>;

    /// The transaction commits: release locks, drop it from the WTPG.
    fn on_commit(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError>;

    /// [`on_commit`](Scheduler::on_commit) with the freed partitions written
    /// into `freed` (cleared first) instead of a list of their own: a caller
    /// that keeps the buffer allocates only while it grows.
    fn on_commit_into(
        &mut self,
        txn: TxnId,
        now: Tick,
        freed: &mut Vec<PartitionId>,
    ) -> Result<ControlOps, CoreError> {
        let r = self.on_commit(txn, now)?;
        *freed = r.freed;
        Ok(r.ops)
    }

    /// The transaction is cancelled mid-flight (user abort, node failure):
    /// release everything it holds and forget it. The paper's model never
    /// aborts a running BAT — "a bulk-operation is too expensive to abort" —
    /// but an embeddable scheduler must survive one; the default
    /// implementation mirrors a commit without requiring the step protocol
    /// to have finished.
    fn on_abort(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError>;

    /// Number of admitted, uncommitted transactions.
    fn active_txns(&self) -> usize;

    /// Read access to the WTPG (empty for schedulers that keep none).
    fn wtpg(&self) -> &Wtpg;

    /// Which guarantees a recorded history of this scheduler must satisfy —
    /// drives [`crate::certify::certify_history`]. The default claims the
    /// lock-based baseline guarantees; schedulers with stronger (CHAIN,
    /// K-WTPG) or deliberately absent (NODC) guarantees override it.
    fn certify_mode(&self) -> crate::certify::CertifyMode {
        crate::certify::CertifyMode::General
    }

    /// Cumulative control-plane statistics: §3.4 cache behaviour (`W`
    /// reuses, `E(q)` hits/misses/invalidations, deadlock-prediction cache)
    /// and abort/delay causes. Drivers snapshot this around each call and
    /// emit [`wtpg_obs`] counter events for whatever changed. The default
    /// (all zeros) suits schedulers with nothing to report (NODC).
    fn obs_stats(&self) -> wtpg_obs::ControlStats {
        wtpg_obs::ControlStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::by_name;

    #[test]
    fn by_name_covers_every_scheduler() {
        for name in [
            "chain",
            "k2",
            "gwtpg",
            "asl",
            "c2pl",
            "2pl",
            "chain-c2pl",
            "k2-c2pl",
            "nodc",
        ] {
            assert!(by_name(name, 2, 1000).is_some(), "{name}");
        }
        assert!(by_name("granite", 2, 1000).is_none());
    }
}
