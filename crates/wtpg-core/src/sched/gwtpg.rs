//! G-WTPG — our extension scheduler: CHAIN's *global* strategy without the
//! chain-form restriction.
//!
//! The paper ties global optimisation to chain-form WTPGs because the
//! general problem is NP-hard (Theorem 3). G-WTPG instead computes the full
//! SR-order `W` with the heuristic planner
//! ([`crate::planner::local_search`]) over *any* conflict graph, admits
//! every transaction, and grants exactly like CHAIN: only requests whose
//! implied resolutions agree with `W`.
//!
//! This isolates the paper's Figure-8 question — is CHAIN's hot-set
//! weakness its *strategy* (predicting the future globally) or its
//! *admission constraint* (rejecting non-chains)? The `ablate-gwtpg`
//! harness target answers: with the constraint gone, the global strategy
//! closes most of the gap to K-WTPG.
//!
//! Liveness mirrors CHAIN: `W` totally orders every conflicting pair and is
//! acyclic, so the W-minimal actionable transaction can always proceed.
//! Control cost is charged like CHAIN's (`chaintime` per recomputation); a
//! deployment would price the heuristic planner higher — see DESIGN.md §8.

use std::collections::BTreeSet;

use crate::error::CoreError;
use crate::planner;
use crate::time::Tick;
use crate::txn::{StepSpec, TxnId, TxnSpec};

use super::common::{Constraint, Policy, SchedCore};
use super::{ControlOps, LockOutcome};

/// Default K-conflict admission bound: far looser than chain form (which is
/// K ≤ 2 *and* path-shaped) but keeps the planner's input bounded — an
/// unbounded conflict graph makes the NP-hard optimisation intractable in
/// overload, which is the very reason the paper constrains CHAIN.
pub const DEFAULT_CONFLICT_BOUND: usize = 6;

/// Above this many unresolved conflicting edges the local-search refinement
/// is skipped and the greedy plan used directly.
const LOCAL_SEARCH_EDGE_LIMIT: usize = 64;

/// The G-WTPG scheduler (extension; not in the paper).
#[derive(Clone, Debug)]
pub struct GWtpgScheduler {
    core: SchedCore,
    keeptime: u64,
    bound: usize,
    w_order: Option<BTreeSet<(TxnId, TxnId)>>,
    last_compute: Tick,
    /// A transaction was admitted or left since `w_order` was computed.
    dirty: bool,
}

impl GWtpgScheduler {
    /// Creates a G-WTPG scheduler with the given control-saving period (ms)
    /// and the default conflict bound.
    pub fn new(keeptime: u64) -> GWtpgScheduler {
        GWtpgScheduler::with_bound(keeptime, DEFAULT_CONFLICT_BOUND)
    }

    /// Creates a G-WTPG scheduler with an explicit K-conflict admission
    /// bound.
    pub fn with_bound(keeptime: u64, bound: usize) -> GWtpgScheduler {
        GWtpgScheduler {
            core: SchedCore::new(),
            keeptime,
            bound,
            w_order: None,
            last_compute: Tick::ZERO,
            dirty: true,
        }
    }

    fn ensure_w(&mut self, now: Tick) -> u32 {
        let stale = now.saturating_since(self.last_compute) >= self.keeptime;
        if self.w_order.is_some() && !self.dirty && !stale {
            self.core.stats.w_reuses += 1;
            return 0;
        }
        self.core.stats.w_recomputes += 1;
        let plan = if self.core.wtpg.conflict_edges().len() <= LOCAL_SEARCH_EDGE_LIMIT {
            planner::local_search(&self.core.wtpg)
        } else {
            planner::greedy(&self.core.wtpg)
        };
        self.w_order = Some(plan.order);
        self.last_compute = now;
        self.dirty = false;
        1
    }
}

impl Policy for GWtpgScheduler {
    fn core(&self) -> &SchedCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchedCore {
        &mut self.core
    }

    fn label(&self) -> &str {
        "G-WTPG"
    }

    // No *shape* constraint — only the generous K-conflict bound that keeps
    // the planner's input tractable.
    fn constraint(&self) -> Constraint {
        Constraint::KConflict(self.bound)
    }

    fn grant_rule(
        &mut self,
        txn: TxnId,
        step: usize,
        s: StepSpec,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        let chain_opts = self.ensure_w(now);
        let ops = ControlOps {
            chain_opts,
            ..ControlOps::NONE
        };
        let implied = self.core.implied_resolutions(txn, s.partition, s.mode);
        let Some(w) = self.w_order.as_ref() else {
            return Err(CoreError::Invariant("ensure_w must populate the W order"));
        };
        if implied.iter().any(|&other| !w.contains(&(txn, other))) {
            self.core.stats.delays_minimality += 1;
            self.core.recycle_implied(implied);
            return Ok((LockOutcome::Delayed, ops));
        }
        self.core.grant(txn, step, s, &implied)?;
        self.core.recycle_implied(implied);
        Ok((LockOutcome::Granted, ops))
    }

    fn admitted(&mut self, _spec: &TxnSpec) -> Result<(), CoreError> {
        self.dirty = true;
        Ok(())
    }

    fn left(&mut self, _txn: TxnId) {
        self.dirty = true;
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
    fn admits_non_chain_wtpgs() {
        let mut s = GWtpgScheduler::new(5000);
        // The star CHAIN rejects: T1 conflicts with T2, T3 and T4.
        s.on_arrive(
            &t(
                1,
                vec![
                    StepSpec::write(0, 1.0),
                    StepSpec::write(1, 1.0),
                    StepSpec::write(2, 1.0),
                ],
            ),
            Tick(0),
        )
        .unwrap();
        for (id, p) in [(2u64, 0u32), (3, 1), (4, 2)] {
            let (adm, _) = s
                .on_arrive(&t(id, vec![StepSpec::write(p, 1.0)]), Tick(0))
                .unwrap();
            assert_eq!(adm, Admission::Admitted);
        }
        assert_eq!(s.active_txns(), 4);
    }

    #[test]
    fn follows_heuristic_w_like_chain_follows_its_w() {
        let mut s = GWtpgScheduler::new(5000);
        // Figure 1: should behave exactly like CHAIN (chain-form input).
        let t1 = t(
            1,
            vec![
                StepSpec::read(0, 1.0),
                StepSpec::read(1, 3.0),
                StepSpec::write(0, 1.0),
            ],
        );
        let t2 = t(2, vec![StepSpec::read(2, 1.0), StepSpec::write(0, 1.0)]);
        let t3 = t(3, vec![StepSpec::write(2, 1.0), StepSpec::read(3, 3.0)]);
        for spec in [&t1, &t2, &t3] {
            s.on_arrive(spec, Tick(0)).unwrap();
        }
        // Example 3.3: T2's first step must be delayed (W = {T1→T2, T3→T2}).
        assert_eq!(
            s.on_request(TxnId(2), 0, Tick(1)).unwrap().0,
            LockOutcome::Delayed
        );
        assert_eq!(
            s.on_request(TxnId(3), 0, Tick(1)).unwrap().0,
            LockOutcome::Granted
        );
    }

    #[test]
    fn completes_a_hot_star_without_deadlock() {
        let mut s = GWtpgScheduler::new(5000);
        let specs: Vec<TxnSpec> = (1..=5u64)
            .map(|id| t(id, vec![StepSpec::write(0, 1.0)]))
            .collect();
        for spec in &specs {
            s.on_arrive(spec, Tick(0)).unwrap();
        }
        let mut done = 0;
        let mut rounds = 0;
        let mut pending: Vec<&TxnSpec> = specs.iter().collect();
        let mut now = Tick(1);
        while done < specs.len() {
            rounds += 1;
            assert!(rounds < 100, "G-WTPG stalled");
            let mut next = Vec::new();
            for spec in pending {
                now += 1;
                match s.on_request(spec.id, 0, now).unwrap().0 {
                    LockOutcome::Granted => {
                        s.on_progress(spec.id, Work::from_objects(1)).unwrap();
                        s.on_step_complete(spec.id, 0).unwrap();
                        s.on_commit(spec.id, now).unwrap();
                        done += 1;
                    }
                    _ => next.push(spec),
                }
            }
            pending = next;
        }
        assert!(s.wtpg().is_empty());
    }
}
