//! Streaming certification: the replay checks of [`certify_history`]
//! (see [`crate::certify`]) applied incrementally, event by event, with
//! **prefix retirement** so certifying a run never needs the whole
//! history in memory.
//!
//! [`StreamingCertifier`] accepts declarations ([`declare`]) and history
//! events ([`feed`]) as they happen and maintains exactly the state the
//! whole-history replay would have at that point:
//!
//! - a fresh [`SchedCore`] replaying every admission/grant/progress/
//!   commit, with the same per-event protocol, exclusion, deadlock,
//!   chain-form, K-bound and `E(q)` checks as [`certify_history`];
//! - the event-level lock-exclusion ledger of
//!   [`History::check_lock_exclusion`], updated per grant;
//! - the strictness automaton of [`History::check_strictness`];
//! - an incremental **serialization graph** (SGT): conflict edges are
//!   added per grant from the per-partition frontier (last writer plus
//!   readers since), and each new edge is cycle-checked immediately.
//!
//! The serialization graph covers *all granted* transactions, not just
//! the eventually-committed ones the whole-history check filters to —
//! strictly stronger, and identical on complete runs where every
//! admitted BAT commits (the paper's no-abort discipline).
//!
//! # Prefix retirement
//!
//! [`retire_prefix`] prunes the SGT: any **committed** node with zero
//! in-degree is removed, repeatedly. This is sound because conflict
//! edges always point *from* the frontier *to* the newly granted
//! transaction — a committed transaction can gain out-edges (it may
//! still sit in a frontier) but never another in-edge, so once its
//! in-degree is zero no future cycle can route through it. Out-edges
//! from retired nodes are dropped on sight for the same reason.
//! Retirement also releases the retired transactions' specs and
//! strictness entries, so the certifier's footprint is bounded by the
//! *live* transaction population, not the run length — this is what
//! makes million-transaction open-loop cells certifiable on the fly.
//!
//! Note that commit-time-only retirement would be **unsound**: a cycle
//! may pass through a committed transaction `u` when an in-edge `x → u`
//! predates the commit and an out-edge `u → v` postdates it. The
//! zero-in-degree condition is the correct retirement criterion.
//!
//! [`certify_history`]: crate::certify::certify_history
//! [`declare`]: StreamingCertifier::declare
//! [`feed`]: StreamingCertifier::feed
//! [`retire_prefix`]: StreamingCertifier::retire_prefix
//! [`History::check_lock_exclusion`]: crate::history::History::check_lock_exclusion
//! [`History::check_strictness`]: crate::history::History::check_strictness

use std::collections::{BTreeMap, BTreeSet};

use crate::certify::{CertifyMode, CertifyReport, CertifyViolation};
use crate::chain::form::chain_components;
use crate::error::CoreError;
use crate::estimate::eq_estimate_naive;
use crate::history::Event;
use crate::partition::PartitionId;
use crate::sched::{Constraint, SchedCore};
use crate::time::Tick;
use crate::txn::{AccessMode, TxnId, TxnSpec};

fn violation(at: usize, tick: Tick, what: impl Into<String>) -> CertifyViolation {
    CertifyViolation {
        at,
        tick,
        what: what.into(),
    }
}

fn core_err(at: usize, tick: Tick, ctx: &str, e: CoreError) -> CertifyViolation {
    violation(at, tick, format!("{ctx}: {e}"))
}

/// Strictness automaton state of one transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TxnPhase {
    Admitted,
    Committed,
}

/// One node of the incremental serialization graph.
#[derive(Clone, Debug, Default)]
struct SgNode {
    committed: bool,
    out: BTreeSet<TxnId>,
    indeg: usize,
}

/// Per-partition conflict frontier: the transitive-reduction sources for
/// the next grant's edges (same scheme as
/// [`History::check_conflict_serializable`](crate::history::History::check_conflict_serializable)).
#[derive(Clone, Debug, Default)]
struct Frontier {
    writer: Option<TxnId>,
    readers: Vec<TxnId>,
}

/// Incremental replay certifier with prefix retirement (module docs).
#[derive(Clone, Debug)]
pub struct StreamingCertifier {
    mode: CertifyMode,
    core: SchedCore,
    specs: BTreeMap<TxnId, TxnSpec>,
    report: CertifyReport,
    /// Events fed so far — the `at` index of the next violation.
    at: usize,
    last_version: u64,
    phase: BTreeMap<TxnId, TxnPhase>,
    held: BTreeMap<PartitionId, BTreeMap<TxnId, AccessMode>>,
    frontiers: BTreeMap<PartitionId, Frontier>,
    nodes: BTreeMap<TxnId, SgNode>,
    retired: usize,
}

impl StreamingCertifier {
    /// A fresh certifier for one run under `mode`.
    pub fn new(mode: CertifyMode) -> StreamingCertifier {
        StreamingCertifier {
            mode,
            core: SchedCore::new(),
            specs: BTreeMap::new(),
            report: CertifyReport::default(),
            at: 0,
            last_version: 0,
            phase: BTreeMap::new(),
            held: BTreeMap::new(),
            frontiers: BTreeMap::new(),
            nodes: BTreeMap::new(),
            retired: 0,
        }
    }

    /// Registers a transaction's declaration. Must happen before the
    /// transaction's `Admitted` event is fed; re-declaring the same id
    /// replaces the spec.
    pub fn declare(&mut self, spec: TxnSpec) {
        self.specs.insert(spec.id, spec);
    }

    /// Events fed so far.
    pub fn events_fed(&self) -> usize {
        self.at
    }

    /// Serialization-graph nodes retired so far.
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Serialization-graph nodes currently tracked (live + committed but
    /// not yet retirable).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True when `from` can reach `to` along conflict edges.
    fn reaches(&self, from: TxnId, to: TxnId) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(node) = self.nodes.get(&n) {
                stack.extend(node.out.iter().copied());
            }
        }
        false
    }

    /// Adds conflict edge `u → v`, cycle-checking immediately. Edges from
    /// retired sources are dropped (see module docs on soundness).
    fn add_edge(&mut self, u: TxnId, v: TxnId, at: usize, tick: Tick) -> Result<(), CertifyViolation> {
        if u == v || !self.nodes.contains_key(&u) {
            return Ok(());
        }
        let fresh = self
            .nodes
            .entry(u)
            .or_default()
            .out
            .insert(v);
        if !fresh {
            return Ok(());
        }
        self.nodes.entry(v).or_default().indeg += 1;
        if self.reaches(v, u) {
            return Err(violation(
                at,
                tick,
                format!("serialization graph cycle closed by conflict edge {u} → {v}"),
            ));
        }
        Ok(())
    }

    /// Frontier + SGT update for one grant.
    fn sg_grant(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        mode: AccessMode,
        at: usize,
        tick: Tick,
    ) -> Result<(), CertifyViolation> {
        self.nodes.entry(txn).or_default();
        let f = self.frontiers.entry(partition).or_default();
        let writer = f.writer;
        let readers = if mode == AccessMode::Write {
            std::mem::take(&mut f.readers)
        } else {
            Vec::new()
        };
        if let Some(w) = writer {
            self.add_edge(w, txn, at, tick)?;
        }
        match mode {
            AccessMode::Write => {
                for r in readers {
                    self.add_edge(r, txn, at, tick)?;
                }
                let f = self.frontiers.entry(partition).or_default();
                f.writer = Some(txn);
            }
            AccessMode::Read => {
                self.frontiers.entry(partition).or_default().readers.push(txn);
            }
        }
        Ok(())
    }

    /// Event-level exclusion ledger (mirrors `check_lock_exclusion`).
    fn exclusion_grant(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        mode: AccessMode,
        at: usize,
        tick: Tick,
    ) -> Result<(), CertifyViolation> {
        let g = self.held.entry(partition).or_default();
        for (&other, &m) in g.iter() {
            if other != txn && m.conflicts_with(mode) {
                return Err(violation(
                    at,
                    tick,
                    format!("{txn} granted {mode:?} on {partition} while {other} holds {m:?}"),
                ));
            }
        }
        let slot = g.entry(txn).or_insert(mode);
        if mode == AccessMode::Write {
            *slot = AccessMode::Write;
        }
        Ok(())
    }

    /// Strictness automaton step (mirrors `check_strictness`).
    fn strictness(&mut self, e: &Event, at: usize, tick: Tick) -> Result<(), CertifyViolation> {
        match *e {
            Event::Admitted(t) => {
                self.phase.insert(t, TxnPhase::Admitted);
            }
            Event::Rejected(t) => {
                self.phase.remove(&t);
            }
            Event::Granted { txn, .. }
            | Event::Progress { txn, .. }
            | Event::StepCompleted { txn, .. } => match self.phase.get(&txn) {
                Some(TxnPhase::Committed) => {
                    return Err(violation(at, tick, format!("{txn} active after commit")));
                }
                None => {
                    return Err(violation(at, tick, format!("{txn} active without admission")));
                }
                Some(TxnPhase::Admitted) => {}
            },
            Event::Committed(t) => {
                if !self.phase.contains_key(&t) {
                    return Err(violation(
                        at,
                        tick,
                        format!("{t} committed without admission"),
                    ));
                }
                self.phase.insert(t, TxnPhase::Committed);
            }
        }
        Ok(())
    }

    /// Feeds one history event, running every per-event check the
    /// whole-history replay would run at this position.
    ///
    /// # Errors
    /// The first [`CertifyViolation`], with `at` set to this event's index
    /// in the fed sequence. A failed certifier should be discarded.
    pub fn feed(&mut self, tick: Tick, event: Event) -> Result<(), CertifyViolation> {
        let at = self.at;
        self.at += 1;
        self.report.events += 1;
        self.strictness(&event, at, tick)?;
        if self.mode == CertifyMode::Exempt {
            // NODC claims no lock discipline; strictness is everything.
            match event {
                Event::Granted { .. } => self.report.grants += 1,
                Event::Committed(_) => self.report.commits += 1,
                _ => {}
            }
            return Ok(());
        }
        let structural = !matches!(event, Event::Progress { .. });
        match event {
            Event::Admitted(txn) => {
                let spec = self
                    .specs
                    .get(&txn)
                    .cloned()
                    .ok_or_else(|| violation(at, tick, format!("{txn} admitted without a spec")))?;
                self.core
                    .admit_under(&spec, Constraint::None)
                    .map_err(|e| core_err(at, tick, "replaying admission", e))?;
                match self.mode {
                    CertifyMode::Chain if chain_components(&self.core.wtpg).is_err() => {
                        return Err(violation(
                            at,
                            tick,
                            format!("{txn} admitted into a non-chain WTPG"),
                        ));
                    }
                    CertifyMode::KConflict(k) if !self.core.locks.k_constraint_ok(&spec, k) => {
                        return Err(violation(
                            at,
                            tick,
                            format!("{txn} admitted past the K = {k} conflict bound"),
                        ));
                    }
                    _ => {}
                }
            }
            Event::Rejected(_) => {
                // Turned away before anything was declared; nothing to replay.
            }
            Event::Granted {
                txn,
                step,
                partition,
                mode: access,
            } => {
                self.report.grants += 1;
                let spec_step = self
                    .core
                    .request_step(txn, step)
                    .map_err(|e| core_err(at, tick, "replaying request", e))?;
                if spec_step.partition != partition || spec_step.mode != access {
                    return Err(violation(
                        at,
                        tick,
                        format!(
                            "{txn} step {step} granted {access:?} on {partition} but declared \
                             {:?} on {}",
                            spec_step.mode, spec_step.partition
                        ),
                    ));
                }
                if self.core.locks.is_blocked(txn, partition, access) {
                    return Err(violation(
                        at,
                        tick,
                        format!("{txn} granted {access:?} on {partition} while blocked"),
                    ));
                }
                let implied = self.core.implied_resolutions(txn, partition, access);
                if self.core.grant_would_deadlock(txn, &implied) {
                    return Err(violation(
                        at,
                        tick,
                        format!("grant of {txn} step {step} closes a precedence cycle"),
                    ));
                }
                if let CertifyMode::KConflict(_) = self.mode {
                    self.report.eq_checks += 1;
                    let my_eq = eq_estimate_naive(&self.core.wtpg, txn, &implied);
                    if my_eq.is_infinite() {
                        return Err(violation(
                            at,
                            tick,
                            format!("{txn} step {step} granted with E(q) = ∞"),
                        ));
                    }
                    let lost = self
                        .core
                        .locks
                        .conflicting_declarations(txn, partition, access)
                        .into_iter()
                        .any(|d| {
                            let their_implied =
                                self.core.implied_resolutions(d.txn, partition, d.mode);
                            eq_estimate_naive(&self.core.wtpg, d.txn, &their_implied) < my_eq
                        });
                    if lost {
                        self.report.eq_losses += 1;
                    }
                }
                self.core
                    .grant(txn, step, spec_step, &implied)
                    .map_err(|e| core_err(at, tick, "replaying grant", e))?;
                if self.core.wtpg.has_cycle() {
                    return Err(violation(
                        at,
                        tick,
                        format!("WTPG cyclic after granting {txn} step {step}"),
                    ));
                }
                self.exclusion_grant(txn, partition, access, at, tick)?;
                self.sg_grant(txn, partition, access, at, tick)?;
            }
            Event::Progress { txn, amount } => {
                self.core
                    .progress(txn, amount)
                    .map_err(|e| core_err(at, tick, "replaying progress", e))?;
            }
            Event::StepCompleted { txn, step } => {
                self.core
                    .step_complete(txn, step)
                    .map_err(|e| core_err(at, tick, "replaying step completion", e))?;
            }
            Event::Committed(txn) => {
                self.report.commits += 1;
                let a = self
                    .core
                    .txns
                    .get(txn)
                    .ok_or_else(|| violation(at, tick, format!("{txn} committed while inactive")))?;
                if a.next_step != a.spec.len() {
                    return Err(violation(
                        at,
                        tick,
                        format!(
                            "{txn} committed after {} of {} steps",
                            a.next_step,
                            a.spec.len()
                        ),
                    ));
                }
                self.core
                    .remove(txn, true)
                    .map_err(|e| core_err(at, tick, "replaying commit", e))?;
                for g in self.held.values_mut() {
                    g.remove(&txn);
                }
                if let Some(n) = self.nodes.get_mut(&txn) {
                    n.committed = true;
                }
            }
        }
        let version = self.core.wtpg.version();
        if version < self.last_version {
            return Err(violation(
                at,
                tick,
                format!(
                    "WTPG version moved backwards: {} → {version}",
                    self.last_version
                ),
            ));
        }
        self.last_version = version;
        if structural {
            if let Err(what) = self.core.wtpg.check_invariants() {
                return Err(violation(at, tick, format!("WTPG invariant: {what}")));
            }
        }
        Ok(())
    }

    /// Retires the certified prefix: removes committed zero-in-degree
    /// serialization-graph nodes (cascading) and releases their specs and
    /// strictness entries. Returns the number of transactions retired by
    /// this call. Sound per the module docs; call as often as you like —
    /// once per telemetry window is the intended cadence.
    pub fn retire_prefix(&mut self) -> usize {
        let mut queue: Vec<TxnId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.committed && n.indeg == 0)
            .map(|(&t, _)| t)
            .collect();
        let mut count = 0usize;
        while let Some(t) = queue.pop() {
            let Some(node) = self.nodes.remove(&t) else {
                continue;
            };
            count += 1;
            self.specs.remove(&t);
            self.phase.remove(&t);
            for succ in node.out {
                if let Some(s) = self.nodes.get_mut(&succ) {
                    s.indeg = s.indeg.saturating_sub(1);
                    if s.committed && s.indeg == 0 {
                        queue.push(succ);
                    }
                }
            }
        }
        // Committed transactions that never took a grant (no SGT node)
        // still hold spec/phase entries; those retire unconditionally.
        let nodes = &self.nodes;
        let stale: Vec<TxnId> = self
            .phase
            .iter()
            .filter(|(t, p)| **p == TxnPhase::Committed && !nodes.contains_key(t))
            .map(|(&t, _)| t)
            .collect();
        for t in stale {
            self.phase.remove(&t);
            self.specs.remove(&t);
            count += 1;
        }
        self.retired += count;
        count
    }

    /// Completes certification. Every check is per-event, so this only
    /// hands back the accumulated [`CertifyReport`].
    ///
    /// # Errors
    /// None today; `Result` keeps room for end-of-run checks.
    pub fn finish(self) -> Result<CertifyReport, CertifyViolation> {
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify_history;
    use crate::history::History;
    use crate::sched::Scheduler;
    use crate::test_streams::record;
    use crate::txn::StepSpec;

    /// Records `count` two-step transactions over a rolling partition
    /// window through `sched`.
    fn drive<S: Scheduler>(
        sched: S,
        count: u64,
    ) -> (History, BTreeMap<TxnId, TxnSpec>, CertifyMode) {
        let ts: Vec<TxnSpec> = (0..count)
            .map(|i| {
                let base = (i % 7) as u32;
                let steps = vec![StepSpec::write(base, 2.0), StepSpec::read(base + 1, 1.0)];
                TxnSpec::new(TxnId(i + 1), steps)
            })
            .collect();
        record(sched, &ts, 1)
    }

    /// Streaming (with aggressive retirement) and whole-history replay
    /// produce identical reports on real runs.
    #[test]
    fn streaming_equals_whole_history_on_real_runs() {
        let runs: Vec<(History, BTreeMap<TxnId, TxnSpec>, CertifyMode)> = vec![
            drive(crate::sched::ChainScheduler::new(5000), 40),
            drive(crate::sched::KWtpgScheduler::new(2, 5000), 40),
            drive(crate::sched::C2plScheduler::new(), 40),
        ];
        for (h, specs, mode) in runs {
            let whole = certify_history(&h, &specs, mode).expect("whole-history certifies");
            let mut sc = StreamingCertifier::new(mode);
            for spec in specs.values() {
                sc.declare(spec.clone());
            }
            let mut max_live = 0usize;
            for (i, &(tick, e)) in h.events().iter().enumerate() {
                sc.feed(tick, e).expect("streaming certifies");
                if i % 16 == 0 {
                    sc.retire_prefix();
                }
                max_live = max_live.max(sc.live_nodes());
            }
            sc.retire_prefix();
            assert!(sc.retired() > 0, "retirement engaged");
            assert_eq!(sc.live_nodes(), 0, "everything committed retires");
            assert!(
                max_live < 40,
                "live graph stays below run length ({max_live})"
            );
            let streamed = sc.finish().expect("finish");
            assert_eq!(streamed, whole);
        }
    }

    /// The corrupted histories the whole-history replay rejects are
    /// rejected by the streaming path too, at the same event.
    #[test]
    fn streaming_rejects_corrupted_histories() {
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        for id in [1u64, 2] {
            let t = TxnSpec::new(TxnId(id), vec![StepSpec::write(0, 1.0)]);
            specs.insert(t.id, t);
            h.push(Tick(0), Event::Admitted(TxnId(id)));
        }
        h.push(
            Tick(1),
            Event::Granted {
                txn: TxnId(1),
                step: 0,
                partition: PartitionId(0),
                mode: AccessMode::Write,
            },
        );
        h.push(
            Tick(2),
            Event::Granted {
                txn: TxnId(2),
                step: 0,
                partition: PartitionId(0),
                mode: AccessMode::Write,
            },
        );
        let whole = certify_history(&h, &specs, CertifyMode::General).expect_err("conflicting");
        let mut sc = StreamingCertifier::new(CertifyMode::General);
        for spec in specs.values() {
            sc.declare(spec.clone());
        }
        let mut streamed = None;
        for &(tick, e) in h.events() {
            if let Err(v) = sc.feed(tick, e) {
                streamed = Some(v);
                break;
            }
        }
        let streamed = streamed.expect("streaming rejects too");
        assert_eq!(streamed.at, whole.at);
        assert!(streamed.what.contains("while blocked"), "{streamed}");
    }

    /// The SGT machinery itself: committed nodes with live in-edges must
    /// survive retirement (the unsound commit-time-only scheme would drop
    /// them), and a cycle closed later is still caught.
    #[test]
    fn retirement_keeps_committed_nodes_with_in_edges() {
        let mut sc = StreamingCertifier::new(CertifyMode::General);
        // Hand-build the graph: live x → committed u; u still in a
        // frontier, so a later u → v edge must see u.
        let (x, u, v) = (TxnId(1), TxnId(2), TxnId(3));
        sc.nodes.entry(x).or_default();
        sc.nodes.entry(u).or_default();
        sc.add_edge(x, u, 0, Tick(0)).expect("x→u");
        if let Some(n) = sc.nodes.get_mut(&u) {
            n.committed = true;
        }
        assert_eq!(sc.retire_prefix(), 0, "u has an in-edge; must stay");
        assert!(sc.nodes.contains_key(&u));
        sc.nodes.entry(v).or_default();
        sc.add_edge(u, v, 1, Tick(1)).expect("u→v");
        // Closing v → x → u completes a cycle through committed u.
        let err = sc.add_edge(v, x, 2, Tick(2)).expect_err("cycle via committed node");
        assert!(err.what.contains("cycle"), "{err}");
        // Once x commits and retires, u's in-degree drops and both go.
        let mut sc2 = StreamingCertifier::new(CertifyMode::General);
        sc2.nodes.entry(x).or_default();
        sc2.nodes.entry(u).or_default();
        sc2.add_edge(x, u, 0, Tick(0)).expect("x→u");
        for t in [x, u] {
            if let Some(n) = sc2.nodes.get_mut(&t) {
                n.committed = true;
            }
        }
        assert_eq!(sc2.retire_prefix(), 2, "cascading retirement");
        assert_eq!(sc2.live_nodes(), 0);
        // Edges from the retired u are dropped on sight.
        sc2.nodes.entry(v).or_default();
        sc2.add_edge(u, v, 1, Tick(1)).expect("retired source ignored");
        assert_eq!(sc2.nodes.get(&v).map(|n| n.indeg), Some(0));
    }

    /// Exempt mode streams strictness only, and retires committed entries.
    #[test]
    fn exempt_streaming_checks_strictness_only() {
        let mut sc = StreamingCertifier::new(CertifyMode::Exempt);
        sc.feed(Tick(0), Event::Admitted(TxnId(1))).expect("admit");
        sc.feed(
            Tick(1),
            Event::Granted {
                txn: TxnId(1),
                step: 0,
                partition: PartitionId(0),
                mode: AccessMode::Write,
            },
        )
        .expect("grant (no exclusion check)");
        sc.feed(Tick(2), Event::Committed(TxnId(1))).expect("commit");
        let err = sc
            .feed(
                Tick(3),
                Event::Granted {
                    txn: TxnId(1),
                    step: 1,
                    partition: PartitionId(0),
                    mode: AccessMode::Write,
                },
            )
            .expect_err("active after commit");
        assert!(err.what.contains("after commit"), "{err}");
    }
}
