//! CHAIN — the Chain-WTPG scheduler (paper §3.2, CC1).
//!
//! Global optimisation: keep the WTPG chain-form, compute the full SR-order
//! `W` whose resolution gives the shortest critical path (per path component,
//! with already-resolved edges forced), and grant a lock request only when
//! the resolutions it implies are consistent with `W`. Transactions that
//! would break chain form are aborted at start (before doing any work) and
//! resubmitted by the driver.
//!
//! Control saving (§3.4): `W` is recomputed only when the WTPG's structural
//! [`version`] moved past the one `W` was computed at — a
//! transaction started or committed, or a foreign precedence edge appeared —
//! or when `keeptime` has elapsed (the `T0` weights drift as objects are
//! processed, so a periodic refresh keeps `W` honest even without membership
//! changes). The scheduler's own grants resolve edges *consistent with `W`
//! by construction*, so after a grant the cached order is re-pinned to the
//! post-grant version instead of being recomputed.
//!
//! [`version`]: crate::wtpg::Wtpg::version

use crate::chain::form::WPlanner;
use crate::error::CoreError;
use crate::time::Tick;
use crate::txn::{StepSpec, TxnId};

use super::common::{Constraint, Policy, SchedCore};
use super::{ControlOps, LockOutcome};

/// The CHAIN scheduler.
#[derive(Clone, Debug)]
pub struct ChainScheduler {
    core: SchedCore,
    /// Control-saving period, in ms (paper Table 1 `keeptime`).
    keeptime: u64,
    /// The cached full SR-order: the oriented pairs `(from, to)`, sorted.
    w_order: Option<Vec<(TxnId, TxnId)>>,
    /// Working memory of the `W` recomputation.
    planner: WPlanner,
    last_compute: Tick,
    /// WTPG structural version `w_order` is valid for.
    w_version: u64,
}

impl ChainScheduler {
    /// Creates a CHAIN scheduler with the given control-saving period (ms).
    pub fn new(keeptime: u64) -> ChainScheduler {
        ChainScheduler {
            core: SchedCore::new(),
            keeptime,
            w_order: None,
            planner: WPlanner::default(),
            last_compute: Tick::ZERO,
            w_version: 0,
        }
    }

    /// Recomputes `W` if the §3.4 conditions require it; returns the number
    /// of optimisations performed (0 or 1).
    fn ensure_w(&mut self, now: Tick) -> Result<u32, CoreError> {
        let stale = now.saturating_since(self.last_compute) >= self.keeptime;
        if self.w_order.is_some() && self.w_version == self.core.wtpg.version() && !stale {
            self.core.stats.w_reuses += 1;
            return Ok(0);
        }
        self.core.stats.w_recomputes += 1;
        // Refill the old order's buffer; a failed recomputation leaves none.
        let mut order = self.w_order.take().unwrap_or_default();
        self.planner
            .recompute(&self.core.wtpg, &mut order)
            .map_err(|_| CoreError::Invariant("CHAIN admission must keep the WTPG chain-form"))?;
        self.w_order = Some(order);
        self.last_compute = now;
        self.w_version = self.core.wtpg.version();
        Ok(1)
    }

    /// The most recently computed `W` as sorted `(from, to)` pairs, for
    /// inspection by examples/tests.
    pub fn current_w(&self) -> Option<&[(TxnId, TxnId)]> {
        self.w_order.as_deref()
    }
}

impl Policy for ChainScheduler {
    fn core(&self) -> &SchedCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchedCore {
        &mut self.core
    }

    fn label(&self) -> &str {
        "CHAIN"
    }

    fn constraint(&self) -> Constraint {
        Constraint::ChainForm
    }

    fn guarantees(&self) -> crate::certify::CertifyMode {
        crate::certify::CertifyMode::Chain
    }

    fn grant_rule(
        &mut self,
        txn: TxnId,
        step: usize,
        s: StepSpec,
        now: Tick,
    ) -> Result<(LockOutcome, ControlOps), CoreError> {
        let chain_opts = self.ensure_w(now)?;
        let ops = ControlOps {
            chain_opts,
            ..ControlOps::NONE
        };
        let implied = self.core.implied_resolutions(txn, s.partition, s.mode);
        let Some(w) = self.w_order.as_deref() else {
            return Err(CoreError::Invariant("ensure_w must populate the W order"));
        };
        // Step 3 of CC1: the grant must not make the schedule inconsistent
        // with W — every implied resolution txn → other must agree with it.
        if implied
            .iter()
            .any(|&other| w.binary_search(&(txn, other)).is_err())
        {
            self.core.stats.delays_minimality += 1;
            return Ok((LockOutcome::Delayed, ops));
        }
        self.core.grant(txn, step, s, &implied)?;
        // The grant's resolutions all agree with W, so the cached order is
        // still the optimum: re-pin it to the post-grant version (§3.4 reuse).
        self.w_version = self.core.wtpg.version();
        Ok((LockOutcome::Granted, ops))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use wtpg_obs::ControlStats;

    use super::*;
    use crate::chain::{chain_components, threshold};
    use crate::sched::common::reference_arrive;
    use crate::sched::{Admission, Scheduler};
    use crate::test_streams::{
        drive, drive_admitting, pattern_one, pattern_two, random_specs, Call, SEEDS, TXNS,
    };
    use crate::txn::TxnSpec;
    use crate::work::Work;
    use crate::wtpg::Dir;

    fn t(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    /// The paper's Figure 1 / Example 3.3 scenario: with
    /// W = {T1→T2, T3→T2}, CHAIN delays T2's first step r2(C:1) because
    /// granting it would resolve (T2,T3) into T2→T3, inconsistent with W.
    #[test]
    fn example_3_3_delays_inconsistent_request() {
        let mut s = ChainScheduler::new(5000);
        // A=P0, B=P1, C=P2, D=P3, as in Figure 1.
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
        assert_eq!(s.on_arrive(&t1, Tick(0)).unwrap().0, Admission::Admitted);
        assert_eq!(s.on_arrive(&t2, Tick(0)).unwrap().0, Admission::Admitted);
        assert_eq!(s.on_arrive(&t3, Tick(0)).unwrap().0, Admission::Admitted);
        let (out, ops) = s.on_request(TxnId(2), 0, Tick(1)).unwrap();
        assert_eq!(out, LockOutcome::Delayed);
        assert_eq!(ops.chain_opts, 1);
        // W must orient T3 before T2 and T1 before T2.
        let w = s.current_w().unwrap();
        assert!(w.contains(&(TxnId(1), TxnId(2))));
        assert!(w.contains(&(TxnId(3), TxnId(2))));
        // T3's conflicting step is consistent with W and goes through.
        assert_eq!(
            s.on_request(TxnId(3), 0, Tick(1)).unwrap().0,
            LockOutcome::Granted
        );
        // T1's first step too.
        assert_eq!(
            s.on_request(TxnId(1), 0, Tick(1)).unwrap().0,
            LockOutcome::Granted
        );
    }

    #[test]
    fn rejects_chain_form_violation() {
        let mut s = ChainScheduler::new(5000);
        s.on_arrive(&t(1, vec![StepSpec::write(0, 1.0)]), Tick(0))
            .unwrap();
        s.on_arrive(
            &t(2, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]),
            Tick(0),
        )
        .unwrap();
        s.on_arrive(&t(3, vec![StepSpec::write(1, 1.0)]), Tick(0))
            .unwrap();
        // T4 writing both partition 0 and 1 would give T2 conflict degree > 2.
        let (adm, _) = s
            .on_arrive(
                &t(4, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]),
                Tick(0),
            )
            .unwrap();
        assert_eq!(adm, Admission::Rejected);
        assert_eq!(s.active_txns(), 3);
    }

    #[test]
    fn control_saving_reuses_w_within_keeptime() {
        let mut s = ChainScheduler::new(5000);
        let t1 = t(1, vec![StepSpec::write(0, 5.0), StepSpec::write(1, 5.0)]);
        let t2 = t(2, vec![StepSpec::write(2, 5.0)]);
        s.on_arrive(&t1, Tick(0)).unwrap();
        s.on_arrive(&t2, Tick(0)).unwrap();
        let (_, ops) = s.on_request(TxnId(1), 0, Tick(10)).unwrap();
        assert_eq!(ops.chain_opts, 1); // first computation
        let (_, ops) = s.on_request(TxnId(2), 0, Tick(20)).unwrap();
        assert_eq!(ops.chain_opts, 0); // reused: no start/commit, within keeptime
                                       // Past keeptime: recompute.
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        let (_, ops) = s.on_request(TxnId(1), 1, Tick(6000)).unwrap();
        assert_eq!(ops.chain_opts, 1);
    }

    #[test]
    fn commit_invalidates_w() {
        let mut s = ChainScheduler::new(1_000_000);
        let t1 = t(1, vec![StepSpec::write(0, 1.0)]);
        let t2 = t(2, vec![StepSpec::write(1, 1.0)]);
        s.on_arrive(&t1, Tick(0)).unwrap();
        s.on_arrive(&t2, Tick(0)).unwrap();
        let (_, ops) = s.on_request(TxnId(1), 0, Tick(1)).unwrap();
        assert_eq!(ops.chain_opts, 1);
        s.on_progress(TxnId(1), Work::from_objects(1)).unwrap();
        s.on_step_complete(TxnId(1), 0).unwrap();
        s.on_commit(TxnId(1), Tick(2)).unwrap();
        let (_, ops) = s.on_request(TxnId(2), 0, Tick(3)).unwrap();
        assert_eq!(ops.chain_opts, 1); // commit forced a recomputation
    }

    #[test]
    fn follows_w_to_completion_without_deadlock() {
        let mut s = ChainScheduler::new(5000);
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
        // Drive to completion with a simple retry loop; every transaction
        // must finish (no deadlock, no starvation in this small scenario).
        let mut pending: Vec<TxnSpec> = vec![t1, t2, t3];
        let mut now = Tick(1);
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            assert!(guard < 100, "scenario did not converge");
            let mut next_round = Vec::new();
            for spec in pending {
                let id = spec.id;
                let step = self_next_step(&s, id);
                match s.on_request(id, step, now).unwrap().0 {
                    LockOutcome::Granted => {
                        let cost = spec.steps()[step].actual_cost;
                        s.on_progress(id, cost).unwrap();
                        s.on_step_complete(id, step).unwrap();
                        if step + 1 == spec.len() {
                            s.on_commit(id, now).unwrap();
                        } else {
                            next_round.push(spec);
                        }
                    }
                    _ => next_round.push(spec),
                }
                now += 1;
            }
            pending = next_round;
        }
        assert_eq!(s.active_txns(), 0);
    }

    fn self_next_step(s: &ChainScheduler, id: TxnId) -> usize {
        s.core
            .txns
            .get(id)
            .expect("invariant: an active transaction")
            .next_step
    }

    /// The decision procedure `ChainScheduler` ran before its admission and
    /// `W` became change-proportional, kept as the differential's reference:
    /// admission through `reference_arrive` (declare, rebuild every component
    /// with `chain_components`, drop the declared state on failure); `W` from
    /// `chain_components` + `threshold::solve` into a fresh set.
    struct ReferenceChain {
        core: SchedCore,
        keeptime: u64,
        w_order: Option<BTreeSet<(TxnId, TxnId)>>,
        last_compute: Tick,
        w_version: u64,
    }

    impl ReferenceChain {
        fn new(keeptime: u64) -> ReferenceChain {
            ReferenceChain {
                core: SchedCore::new(),
                keeptime,
                w_order: None,
                last_compute: Tick::ZERO,
                w_version: 0,
            }
        }

        fn ensure_w(&mut self, now: Tick) -> u32 {
            let stale = now.saturating_since(self.last_compute) >= self.keeptime;
            if self.w_order.is_some() && self.w_version == self.core.wtpg.version() && !stale {
                self.core.stats.w_reuses += 1;
                return 0;
            }
            self.core.stats.w_recomputes += 1;
            let mut order = BTreeSet::new();
            for comp in chain_components(&self.core.wtpg).expect("admission keeps chain form") {
                let sol = threshold::solve(&comp.problem);
                for (pair, dir) in comp.nodes.windows(2).zip(sol.orient) {
                    order.insert(match dir {
                        Dir::Down => (pair[0], pair[1]),
                        Dir::Up => (pair[1], pair[0]),
                    });
                }
            }
            self.w_order = Some(order);
            self.last_compute = now;
            self.w_version = self.core.wtpg.version();
            1
        }
    }

    impl Policy for ReferenceChain {
        fn core(&self) -> &SchedCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut SchedCore {
            &mut self.core
        }

        fn label(&self) -> &str {
            "CHAIN-reference"
        }

        // Tested the old way, on the declared state, by `reference_arrive`.
        fn constraint(&self) -> Constraint {
            Constraint::ChainForm
        }

        fn grant_rule(
            &mut self,
            txn: TxnId,
            step: usize,
            s: StepSpec,
            now: Tick,
        ) -> Result<(LockOutcome, ControlOps), CoreError> {
            let ops = ControlOps {
                chain_opts: self.ensure_w(now),
                ..ControlOps::NONE
            };
            let implied = self.core.implied_resolutions(txn, s.partition, s.mode);
            let w = self.w_order.as_ref().expect("ensure_w populates W");
            if implied.iter().any(|&other| !w.contains(&(txn, other))) {
                self.core.stats.delays_minimality += 1;
                return Ok((LockOutcome::Delayed, ops));
            }
            self.core.grant(txn, step, s, &implied)?;
            self.w_version = self.core.wtpg.version();
            Ok((LockOutcome::Granted, ops))
        }
    }

    /// What the differential compares after every decision: the decision
    /// itself (verdict + `ControlOps`), the cumulative stats, the WTPG
    /// version, and — whenever `W` was just recomputed — all of `W`.
    type Observed = (Call, ControlStats, u64, Option<Vec<(TxnId, TxnId)>>);

    fn recomputed(call: Call) -> bool {
        matches!(call, Call::Request(_, _, _, ops) if ops.chain_opts == 1)
    }

    /// Drives `specs` through both implementations and compares every step.
    /// Odd seeds run a short `keeptime`, so the elapsed-time trigger of
    /// `ensure_w` fires between structural changes too.
    fn assert_matches_reference_chain(what: &str, seed: u64, specs: &[TxnSpec]) {
        let keeptime = if seed % 2 == 1 { 40 } else { 5000 };
        let mut production = ChainScheduler::new(keeptime);
        let got: Vec<Observed> = drive(&mut production, specs, |s, _, call| {
            let w = recomputed(call).then(|| s.current_w().expect("just computed").to_vec());
            (call, s.obs_stats(), s.wtpg().version(), w)
        });
        let mut reference = ReferenceChain::new(keeptime);
        let observe = |s: &ReferenceChain, _: &TxnSpec, call| {
            let w = recomputed(call).then(|| s.w_order.iter().flatten().copied().collect());
            (call, s.obs_stats(), s.wtpg().version(), w)
        };
        let want: Vec<Observed> = drive_admitting(&mut reference, specs, reference_arrive, observe);
        if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
            panic!(
                "{what} seed {seed}: call {i} diverges\n  production {:?}\n  reference  {:?}",
                got[i], want[i]
            );
        }
        assert_eq!(got.len(), want.len(), "{what} seed {seed}");
        assert!(
            got.iter().any(|o| o.3.is_some()),
            "{what} seed {seed}: W never computed"
        );
    }

    #[test]
    fn reference_chain_differential_pattern_one() {
        for seed in SEEDS {
            assert_matches_reference_chain("pattern one", seed, &pattern_one(seed, TXNS));
        }
    }

    #[test]
    fn reference_chain_differential_pattern_two_hots_4() {
        for seed in SEEDS {
            assert_matches_reference_chain("pattern two", seed, &pattern_two(seed, TXNS, 4));
        }
    }

    #[test]
    fn reference_chain_differential_random_specs() {
        for seed in SEEDS {
            let parts = 4 + (seed % 9) as u32;
            assert_matches_reference_chain("random", seed, &random_specs(seed, TXNS, parts));
        }
    }

    /// A rejected admission is a pure read: WTPG version, active set and
    /// lock-table declarations are exactly what they were.
    #[test]
    fn rejected_admission_mutates_nothing() {
        let mut s = ChainScheduler::new(5000);
        for (id, parts) in [(1, vec![0]), (2, vec![0, 1]), (3, vec![1])] {
            let steps = parts.into_iter().map(|p| StepSpec::write(p, 1.0)).collect();
            s.on_arrive(&t(id, steps), Tick(0)).unwrap();
        }
        s.on_request(TxnId(1), 0, Tick(1)).unwrap(); // a held lock and a cached W
        let version = s.wtpg().version();
        let locks = format!("{:?}", s.core.locks);
        let slots = s.wtpg().slot_count();
        let w = s.current_w().map(<[_]>::to_vec);
        // Interior neighbour (T2), a third neighbour, and a closed cycle.
        for steps in [
            vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)],
            vec![StepSpec::read(0, 1.0)],
            vec![StepSpec::write(1, 1.0), StepSpec::write(5, 1.0)],
        ] {
            let (adm, ops) = s.on_arrive(&t(9, steps), Tick(2)).unwrap();
            assert_eq!((adm, ops), (Admission::Rejected, ControlOps::NONE));
            assert_eq!(s.wtpg().version(), version);
            assert_eq!(s.active_txns(), 3);
            assert_eq!(format!("{:?}", s.core.locks), locks);
            assert_eq!(s.wtpg().slot_count(), slots);
            assert!(!s.wtpg().contains(TxnId(9)));
        }
        assert_eq!(s.obs_stats().aborts_non_chain, 3);
        // The cached W survived: the next request reuses it.
        let (_, ops) = s.on_request(TxnId(3), 0, Tick(3)).unwrap();
        assert_eq!(ops.chain_opts, 0);
        assert_eq!(s.current_w().map(<[_]>::to_vec), w);
    }
}
