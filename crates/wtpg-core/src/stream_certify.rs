//! Streaming certification: the replay checks of [`certify_history`]
//! (see [`crate::certify`]) applied incrementally, event by event, with
//! **prefix retirement** so certifying a run never needs the whole
//! history in memory.
//!
//! [`StreamingCertifier`] accepts declarations ([`declare`]) and history
//! events ([`feed`]) as they happen and maintains exactly the state the
//! whole-history replay would have at that point (a caller that holds each
//! declaration live, as a control node does, lends it at the admission
//! instead: [`feed_declared`], and the spec window stays empty):
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
//! # Fast checks and oracles
//!
//! Each event costs what it changed. Every book is indexed by transaction
//! ([`IdWindow`]) or by partition, and every structural check looks only at
//! what the event touched; the whole-graph version of each is kept as its
//! **oracle**:
//!
//! | check | fast check, every event | oracle |
//! |---|---|---|
//! | chain form (CC1) | the admitted transaction has ≤ 2 neighbours, each of degree ≤ 2, and a walk from both along their paths shows they are not the two ends of one path | [`chain_components`] |
//! | acyclicity | a DFS from the targets of the edges the grant added (all leave the granted transaction) back to it | [`Wtpg::has_cycle`] |
//! | arena integrity | the event's transaction's slot whole, and in each neighbour slot the event edited, sortedness and the entry naming that transaction | [`Wtpg::check_invariants`] |
//!
//! The fast chain check relies on the WTPG having been chain-form before
//! the admission. Admissions are checked, commits only remove, and a grant
//! only resolves pairs that are adjacent already — unless the replay saw a
//! grant join two transactions that were not, in which case the next
//! chain-form check is the oracle. So the verdicts are the oracles' exactly.
//!
//! The oracles run on every event they apply to under `debug_assertions`
//! (every test build), and on every 128th such event in release (a fixed
//! stride, so a run's checks are the same every time); the whole-arena
//! check also runs once at [`finish`]. The lock-exclusion ledger removes a
//! commit's holds through the partitions it declared, the only ones it can
//! have been granted, and the SGT's cycle check reuses one visit stamp per
//! node. The `E(q)` checks of K-WTPG keep the clone-based
//! [`eq_estimate_naive`](crate::estimate::eq_estimate_naive) as the
//! independent estimator, run on one certifier-owned copy that each
//! estimate refills ([`eq_estimate_naive_in`]), so `eq_checks` and
//! `eq_losses` are exact. An estimate only adds or raises precedence edges,
//! so none falls below the WTPG's current critical path: a grant scoring
//! exactly that cannot lose, and release builds skip estimating the
//! conflicting declarations then (debug builds estimate them and assert
//! the shortcut). The K bound was local already: it reads only the
//! granules the newcomer declared.
//!
//! # Prefix retirement
//!
//! [`retire_prefix`] prunes the SGT: any **committed** node with zero
//! in-degree is removed, repeatedly. This is sound because conflict
//! edges always point *from* the frontier *to* the newly granted
//! transaction — a committed transaction can gain out-edges (it may
//! still sit in a frontier) but never another in-edge, so once its
//! in-degree is zero no future cycle can route through it. Out-edges
//! from retired nodes are dropped on sight for the same reason, so the
//! frontiers forget retired transactions too.
//! Retirement also releases the retired transactions' declared specs and
//! strictness entries, so the certifier's footprint is bounded by the
//! *live* transaction population, not the run length — this is what
//! makes million-transaction open-loop cells certifiable on the fly. Both
//! drivers retire every [`RETIRE_EVERY`] events.
//!
//! Note that commit-time-only retirement would be **unsound**: a cycle
//! may pass through a committed transaction `u` when an in-edge `x → u`
//! predates the commit and an out-edge `u → v` postdates it. The
//! zero-in-degree condition is the correct retirement criterion.
//!
//! [`certify_history`]: crate::certify::certify_history
//! [`declare`]: StreamingCertifier::declare
//! [`feed`]: StreamingCertifier::feed
//! [`feed_declared`]: StreamingCertifier::feed_declared
//! [`finish`]: StreamingCertifier::finish
//! [`retire_prefix`]: StreamingCertifier::retire_prefix
//! [`History::check_lock_exclusion`]: crate::history::History::check_lock_exclusion
//! [`History::check_strictness`]: crate::history::History::check_strictness

use crate::certify::{CertifyMode, CertifyReport, CertifyViolation};
use crate::chain::form::{chain_components, degree, neighbours};
use crate::error::CoreError;
use crate::estimate::{eq_estimate_naive_in, EqValue};
use crate::history::Event;
use crate::partition::PartitionId;
use crate::sched::{Constraint, SchedCore};
use crate::time::Tick;
use crate::txn::{AccessMode, TxnId, TxnSpec};
use crate::window::IdWindow;
use crate::wtpg::Wtpg;

/// Events between prefix retirements, for both drivers: the closed-loop
/// replay ([`certify_history`](crate::certify::certify_history)) and a
/// live run's streaming certifier.
pub const RETIRE_EVERY: usize = 4096;

/// In release builds each oracle runs on every `ORACLE_STRIDE`-th event it
/// applies to.
const ORACLE_STRIDE: u32 = 128;

/// Which checks a replay runs (module docs). Every run uses
/// [`Checks::DEFAULT`]; the other two exist so tests can hold the fast
/// checks and the oracles to the same verdicts.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checks {
    /// Run the change-proportional checks.
    fast: bool,
    /// Run each oracle on every `oracle_every`-th event it applies to;
    /// zero never.
    oracle_every: u32,
}

impl Checks {
    /// The fast checks, with the oracles on every event under
    /// `debug_assertions` and on a fixed stride otherwise.
    pub const DEFAULT: Checks = Checks {
        fast: true,
        oracle_every: if cfg!(debug_assertions) {
            1
        } else {
            ORACLE_STRIDE
        },
    };
    /// The fast checks alone.
    pub const FAST: Checks = Checks {
        fast: true,
        oracle_every: 0,
    };
    /// The oracles alone, on every event: the whole-graph replay.
    pub const ORACLE: Checks = Checks {
        fast: false,
        oracle_every: 1,
    };
}

/// A deterministic countdown: due on its first call and then on every
/// `every`-th, never when `every` is zero.
#[derive(Clone, Copy, Debug)]
struct Cadence {
    every: u32,
    left: u32,
}

impl Cadence {
    fn new(every: u32) -> Cadence {
        Cadence { every, left: 1 }
    }

    fn due(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.left -= 1;
        let due = self.left == 0;
        if due {
            self.left = self.every;
        }
        due
    }
}

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
    /// Successors, ascending.
    out: Vec<TxnId>,
    indeg: usize,
    /// Stamp of the last cycle search that visited this node.
    mark: u32,
}

/// What the replay keeps per partition: the exclusion ledger's holders,
/// and the conflict frontier — the transitive-reduction sources for the
/// next grant's edges (same scheme as
/// [`History::check_conflict_serializable`](crate::history::History::check_conflict_serializable)).
#[derive(Clone, Debug, Default)]
struct Partition {
    held: Vec<(TxnId, AccessMode)>,
    writer: Option<TxnId>,
    readers: Vec<TxnId>,
}

/// The replay both drivers share: everything but the declarations, which
/// each driver lends it at the admissions.
#[derive(Clone, Debug)]
pub(crate) struct Replay {
    mode: CertifyMode,
    fast: bool,
    core: SchedCore,
    report: CertifyReport,
    /// Events fed so far — the `at` index of the next violation.
    at: usize,
    last_tick: Tick,
    last_version: u64,
    phase: IdWindow<TxnPhase>,
    parts: Vec<Partition>,
    nodes: IdWindow<SgNode>,
    retired: usize,
    /// Stamp of the current SGT cycle search, and its stack.
    epoch: u32,
    stack: Vec<TxnId>,
    /// A grant joined two transactions that were not adjacent, so the next
    /// chain-form check cannot start from a chain-form WTPG.
    chain_dirty: bool,
    /// Slots the current event touched.
    touched: Vec<u32>,
    /// The copy every `E(q)` estimate works on.
    overlay: Wtpg,
    chain_oracle: Cadence,
    cycle_oracle: Cadence,
    arena_oracle: Cadence,
    /// The partitions a committing transaction declared.
    declared: Vec<PartitionId>,
    /// The partitions a replayed commit released (a buffer: the holds are
    /// dropped per declared partition).
    freed: Vec<PartitionId>,
    /// Seeded mutation: armed, the next grant that resolves an edge also
    /// gets the reverse one, closing a two-cycle, and records where.
    #[cfg(test)]
    reverse_armed: bool,
    #[cfg(test)]
    reversed_at: Option<usize>,
}

impl Replay {
    pub(crate) fn new(mode: CertifyMode, checks: Checks) -> Replay {
        Replay {
            mode,
            fast: checks.fast,
            core: SchedCore::new(),
            report: CertifyReport::default(),
            at: 0,
            last_tick: Tick(0),
            last_version: 0,
            phase: IdWindow::new(),
            parts: Vec::new(),
            nodes: IdWindow::new(),
            retired: 0,
            epoch: 0,
            stack: Vec::new(),
            chain_dirty: false,
            touched: Vec::new(),
            overlay: Wtpg::new(),
            chain_oracle: Cadence::new(checks.oracle_every),
            cycle_oracle: Cadence::new(checks.oracle_every),
            arena_oracle: Cadence::new(checks.oracle_every),
            declared: Vec::new(),
            freed: Vec::new(),
            #[cfg(test)]
            reverse_armed: false,
            #[cfg(test)]
            reversed_at: None,
        }
    }

    /// The books of partition `p`, grown on first use. A grant reaches
    /// here only for a partition its transaction declared, and the lock
    /// table has grown to every declared one already.
    fn partition(&mut self, p: PartitionId) -> &mut Partition {
        let i = p.0 as usize;
        if self.parts.len() <= i {
            self.parts.resize_with(i + 1, Partition::default);
        }
        &mut self.parts[i]
    }

    /// True when `from` can reach `to` along conflict edges.
    fn reaches(&mut self, from: TxnId, to: TxnId) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: old stamps become ambiguous, reset them.
            for n in self.nodes.values_mut() {
                n.mark = 0;
            }
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(from);
        while let Some(n) = self.stack.pop() {
            if n == to {
                return true;
            }
            if let Some(node) = self.nodes.get_mut(n) {
                if node.mark != self.epoch {
                    node.mark = self.epoch;
                    self.stack.extend_from_slice(&node.out);
                }
            }
        }
        false
    }

    /// Adds conflict edge `u → v`, cycle-checking immediately. Edges from
    /// retired sources are dropped (see module docs on soundness).
    fn add_edge(
        &mut self,
        u: TxnId,
        v: TxnId,
        at: usize,
        tick: Tick,
    ) -> Result<(), CertifyViolation> {
        if u == v {
            return Ok(());
        }
        let Some(node) = self.nodes.get_mut(u) else {
            return Ok(());
        };
        match node.out.binary_search(&v) {
            Ok(_) => return Ok(()),
            Err(i) => node.out.insert(i, v),
        }
        self.nodes.get_or_insert_with(v, SgNode::default).indeg += 1;
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
        self.nodes.get_or_insert_with(txn, SgNode::default);
        let f = self.partition(partition);
        let writer = f.writer;
        let mut readers = match mode {
            AccessMode::Write => std::mem::take(&mut f.readers),
            AccessMode::Read => Vec::new(),
        };
        if let Some(w) = writer {
            self.add_edge(w, txn, at, tick)?;
        }
        match mode {
            AccessMode::Write => {
                for &r in &readers {
                    self.add_edge(r, txn, at, tick)?;
                }
                readers.clear();
                let f = self.partition(partition);
                f.writer = Some(txn);
                f.readers = readers;
            }
            AccessMode::Read => self.partition(partition).readers.push(txn),
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
        let held = &mut self.partition(partition).held;
        let clash = held
            .iter()
            .filter(|&&(other, m)| other != txn && m.conflicts_with(mode))
            .min_by_key(|&&(other, _)| other);
        if let Some(&(other, m)) = clash {
            return Err(violation(
                at,
                tick,
                format!("{txn} granted {mode:?} on {partition} while {other} holds {m:?}"),
            ));
        }
        match held.iter_mut().find(|(t, _)| *t == txn) {
            Some(h) if mode == AccessMode::Write => h.1 = AccessMode::Write,
            Some(_) => {}
            None => held.push((txn, mode)),
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
                self.phase.remove(t);
            }
            Event::Granted { txn, .. }
            | Event::Progress { txn, .. }
            | Event::StepCompleted { txn, .. } => match self.phase.get(txn) {
                Some(TxnPhase::Committed) => {
                    return Err(violation(at, tick, format!("{txn} active after commit")));
                }
                None => {
                    return Err(violation(
                        at,
                        tick,
                        format!("{txn} active without admission"),
                    ));
                }
                Some(TxnPhase::Admitted) => {}
            },
            Event::Committed(t) => {
                if !self.phase.contains(t) {
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

    /// Feeds one history event — `spec` is the declaration of the
    /// transaction an `Admitted` event admits — running every per-event
    /// check the whole-history replay would run at this position.
    pub(crate) fn feed(
        &mut self,
        tick: Tick,
        event: Event,
        spec: Option<&TxnSpec>,
    ) -> Result<(), CertifyViolation> {
        let at = self.at;
        self.at += 1;
        self.last_tick = tick;
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
        self.touched.clear();
        match event {
            Event::Admitted(txn) => {
                let spec = spec
                    .ok_or_else(|| violation(at, tick, format!("{txn} admitted without a spec")))?;
                self.admit(spec, at, tick)?;
            }
            Event::Rejected(_) => {
                // Turned away before anything was declared; nothing to replay.
            }
            Event::Granted {
                txn,
                step,
                partition,
                mode,
            } => self.grant(txn, step, partition, mode, at, tick)?,
            Event::Progress { txn, amount } => {
                self.core
                    .progress(txn, amount)
                    .map_err(|e| core_err(at, tick, "replaying progress", e))?;
            }
            Event::StepCompleted { txn, step } => {
                self.core
                    .step_complete(txn, step)
                    .map_err(|e| core_err(at, tick, "replaying step completion", e))?;
                self.touched.extend(self.core.wtpg.slot_of(txn));
            }
            Event::Committed(txn) => self.commit(txn, at, tick)?,
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
        match event {
            Event::Progress { .. } => {}
            Event::Admitted(txn)
            | Event::Rejected(txn)
            | Event::Granted { txn, .. }
            | Event::StepCompleted { txn, .. }
            | Event::Committed(txn) => self.check_arena(txn, at, tick)?,
        }
        Ok(())
    }

    fn admit(&mut self, spec: &TxnSpec, at: usize, tick: Tick) -> Result<(), CertifyViolation> {
        let txn = spec.id;
        self.core
            .admit_under(spec, Constraint::None)
            .map_err(|e| core_err(at, tick, "replaying admission", e))?;
        self.core.wtpg.slot_and_neighbours(txn, &mut self.touched);
        let mode = self.mode;
        match mode {
            CertifyMode::Chain if !self.chain_form_kept() => Err(violation(
                at,
                tick,
                format!("{txn} admitted into a non-chain WTPG"),
            )),
            CertifyMode::KConflict(k) if !self.core.locks.k_constraint_ok(spec, k) => {
                Err(violation(
                    at,
                    tick,
                    format!("{txn} admitted past the K = {k} conflict bound"),
                ))
            }
            _ => Ok(()),
        }
    }

    /// CC1 after an admission whose slot and neighbours are `touched`.
    fn chain_form_kept(&mut self) -> bool {
        let g = &self.core.wtpg;
        let whole = self.chain_oracle.due() || (self.fast && self.chain_dirty);
        let fast_ok = !self.fast || self.chain_dirty || arrival_kept_chain_form(g, &self.touched);
        self.chain_dirty = false;
        fast_ok && !(whole && chain_components(g).is_err())
    }

    fn grant(
        &mut self,
        txn: TxnId,
        step: usize,
        partition: PartitionId,
        access: AccessMode,
        at: usize,
        tick: Tick,
    ) -> Result<(), CertifyViolation> {
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
        if matches!(self.mode, CertifyMode::KConflict(_))
            && !self.eq_check(txn, partition, access, &implied)
        {
            return Err(violation(
                at,
                tick,
                format!("{txn} step {step} granted with E(q) = ∞"),
            ));
        }
        let slot_degree = |g: &Wtpg| g.slot_of(txn).map_or(0, |s| degree(g, s));
        let degree_before = slot_degree(&self.core.wtpg);
        self.core
            .grant(txn, step, spec_step, &implied)
            .map_err(|e| core_err(at, tick, "replaying grant", e))?;
        #[cfg(test)]
        if self.reverse_armed {
            if let Some(&other) = implied.iter().find(|&&o| self.core.wtpg.contains(o)) {
                self.core.wtpg.force_precedence(other, txn);
                self.reverse_armed = false;
                self.reversed_at = Some(at);
            }
        }
        // Every edge the grant added leaves `txn`, so a cycle it closed
        // runs through one of their targets back to `txn`.
        let g = &self.core.wtpg;
        if (self.fast && g.any_reaches(&implied, txn)) || (self.cycle_oracle.due() && g.has_cycle())
        {
            return Err(violation(
                at,
                tick,
                format!("WTPG cyclic after granting {txn} step {step}"),
            ));
        }
        if slot_degree(g) > degree_before {
            self.chain_dirty = true;
        }
        // The grant changed the lists of `txn` and of the targets it
        // resolved towards, and no other.
        self.touched.extend(g.slot_of(txn));
        self.touched
            .extend(implied.iter().filter_map(|&o| g.slot_of(o)));
        self.exclusion_grant(txn, partition, access, at, tick)?;
        self.sg_grant(txn, partition, access, at, tick)
    }

    /// K-WTPG's `E(q)` checks for a grant to `txn`: false when its `E(q)`
    /// is infinite; counted as lost when a conflicting declaration's
    /// request would have scored lower.
    fn eq_check(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        access: AccessMode,
        implied: &[TxnId],
    ) -> bool {
        self.report.eq_checks += 1;
        let my_eq = eq_estimate_naive_in(&mut self.overlay, &self.core.wtpg, txn, implied);
        if my_eq.is_infinite() {
            return false;
        }
        // An estimate only adds or raises precedence edges, so none falls
        // below the critical path the WTPG has now: a grant that scores
        // exactly that loses to no declaration, and theirs need no estimate.
        // Debug builds estimate them anyway and hold the shortcut to it.
        let floor = self.core.wtpg.critical_path().map(EqValue::Finite) == Some(my_eq);
        if floor && !cfg!(debug_assertions) {
            return true;
        }
        let mut lost = false;
        for d in self
            .core
            .locks
            .conflicting_declarations(txn, partition, access)
        {
            let their_implied = self.core.implied_resolutions(d.txn, partition, d.mode);
            let theirs =
                eq_estimate_naive_in(&mut self.overlay, &self.core.wtpg, d.txn, &their_implied);
            if theirs < my_eq {
                lost = true;
                break;
            }
        }
        debug_assert!(
            !(floor && lost),
            "an E(q) estimate fell below the WTPG's critical path"
        );
        if lost {
            self.report.eq_losses += 1;
        }
        true
    }

    fn commit(&mut self, txn: TxnId, at: usize, tick: Tick) -> Result<(), CertifyViolation> {
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
        self.declared.clear();
        self.declared
            .extend(a.spec.steps().iter().map(|s| s.partition));
        self.core.wtpg.slot_and_neighbours(txn, &mut self.touched);
        self.core
            .remove(txn, true, &mut self.freed)
            .map_err(|e| core_err(at, tick, "replaying commit", e))?;
        // A grant must name the partition its step declared, so the holds
        // to release are all on these.
        for p in &self.declared {
            if let Some(part) = self.parts.get_mut(p.0 as usize) {
                part.held.retain(|&(t, _)| t != txn);
            }
        }
        if let Some(n) = self.nodes.get_mut(txn) {
            n.committed = true;
        }
        Ok(())
    }

    /// Arena integrity after a structural event on `txn`: the touched
    /// slots, and the whole arena when the oracle is due.
    fn check_arena(&mut self, txn: TxnId, at: usize, tick: Tick) -> Result<(), CertifyViolation> {
        let g = &self.core.wtpg;
        let mut ok = Ok(());
        if self.fast {
            ok = g.check_around(txn, &self.touched);
        }
        if ok.is_ok() && self.arena_oracle.due() {
            ok = g.check_invariants();
        }
        ok.map_err(|what| violation(at, tick, format!("WTPG invariant: {what}")))
    }

    /// Retires the certified prefix (see [`StreamingCertifier::retire_prefix`]),
    /// handing every retired transaction to `released`.
    pub(crate) fn retire_prefix(&mut self, mut released: impl FnMut(TxnId)) -> usize {
        let mut queue: Vec<TxnId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.committed && n.indeg == 0)
            .map(|(t, _)| t)
            .collect();
        let mut count = 0usize;
        while let Some(t) = queue.pop() {
            let Some(node) = self.nodes.remove(t) else {
                continue;
            };
            count += 1;
            released(t);
            self.phase.remove(t);
            for succ in node.out {
                if let Some(s) = self.nodes.get_mut(succ) {
                    s.indeg = s.indeg.saturating_sub(1);
                    if s.committed && s.indeg == 0 {
                        queue.push(succ);
                    }
                }
            }
        }
        // Committed transactions that never took a grant (no SGT node)
        // still hold phase entries; those retire unconditionally.
        let nodes = &self.nodes;
        let stale: Vec<TxnId> = self
            .phase
            .iter()
            .filter(|&(t, p)| *p == TxnPhase::Committed && !nodes.contains(t))
            .map(|(t, _)| t)
            .collect();
        for t in stale {
            self.phase.remove(t);
            released(t);
            count += 1;
        }
        if count > 0 {
            // An edge from a retired transaction is dropped on sight, so
            // the frontiers can forget it: without this, a partition only
            // ever read keeps every reader of the run.
            for p in &mut self.parts {
                p.readers.retain(|&r| nodes.contains(r));
                p.writer = p.writer.filter(|&w| nodes.contains(w));
            }
        }
        self.retired += count;
        count
    }

    /// Completes certification with one whole-arena check.
    pub(crate) fn finish(self) -> Result<CertifyReport, CertifyViolation> {
        if self.mode != CertifyMode::Exempt {
            self.core.wtpg.check_invariants().map_err(|what| {
                violation(
                    usize::MAX,
                    self.last_tick,
                    format!("WTPG invariant at the end: {what}"),
                )
            })?;
        }
        Ok(self.report)
    }
}

/// CC1 after an arrival, from the arrival alone. `around` is the
/// newcomer's slot followed by its neighbours'. The WTPG was chain-form
/// before the arrival, and every edge the arrival added is incident to
/// the newcomer, so it still is iff the newcomer has at most two
/// neighbours, each of degree at most two now, and two neighbours are not
/// the two ends of one path. Walking from both at once, away from the
/// newcomer, either one walk reaches the other's start (one path: a cycle
/// now) or one runs off its path's end (two paths) — after as many steps
/// as the shorter path has nodes.
fn arrival_kept_chain_form(g: &Wtpg, around: &[u32]) -> bool {
    let Some((&s, ends)) = around.split_first() else {
        return true;
    };
    if ends.len() > 2 || ends.iter().any(|&p| degree(g, p) > 2) {
        return false;
    }
    let &[p, q] = ends else {
        return true;
    };
    let next = |prev: u32, cur: u32| neighbours(g, cur).find(|&n| n != prev);
    let (mut a, mut b) = ((s, p), (s, q));
    for _ in 0..g.len() {
        let (Some(na), Some(nb)) = (next(a.0, a.1), next(b.0, b.1)) else {
            return true;
        };
        if na == q || nb == p {
            return false;
        }
        (a, b) = ((a.1, na), (b.1, nb));
    }
    false
}

/// Incremental replay certifier with prefix retirement (module docs).
#[derive(Clone, Debug)]
pub struct StreamingCertifier {
    specs: IdWindow<TxnSpec>,
    replay: Replay,
}

impl StreamingCertifier {
    /// A fresh certifier for one run under `mode`.
    pub fn new(mode: CertifyMode) -> StreamingCertifier {
        StreamingCertifier {
            specs: IdWindow::new(),
            replay: Replay::new(mode, Checks::DEFAULT),
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
        self.replay.at
    }

    /// Serialization-graph nodes retired so far.
    pub fn retired(&self) -> usize {
        self.replay.retired
    }

    /// Serialization-graph nodes currently tracked (live + committed but
    /// not yet retirable).
    pub fn live_nodes(&self) -> usize {
        self.replay.nodes.len()
    }

    /// Feeds one history event, running every per-event check the
    /// whole-history replay would run at this position; an `Admitted`
    /// event reads its declaration from those [`declare`](Self::declare)d.
    ///
    /// # Errors
    /// The first [`CertifyViolation`], with `at` set to this event's index
    /// in the fed sequence. A failed certifier should be discarded.
    pub fn feed(&mut self, tick: Tick, event: Event) -> Result<(), CertifyViolation> {
        let spec = match event {
            Event::Admitted(t) => self.specs.get(t),
            _ => None,
        };
        self.replay.feed(tick, event, spec)
    }

    /// [`feed`](Self::feed) with an `Admitted` event's declaration lent by
    /// a caller that holds it live, so the certifier keeps no copy.
    ///
    /// # Errors
    /// As [`feed`](Self::feed), `spec` standing in for the declared one.
    pub fn feed_declared(
        &mut self,
        tick: Tick,
        event: Event,
        spec: Option<&TxnSpec>,
    ) -> Result<(), CertifyViolation> {
        self.replay.feed(tick, event, spec)
    }

    /// Retires the certified prefix: removes committed zero-in-degree
    /// serialization-graph nodes (cascading), releases their specs and
    /// strictness entries, and drops them from the conflict frontiers.
    /// Returns the number of transactions retired by this call. Sound per
    /// the module docs; call as often as you like — every
    /// [`RETIRE_EVERY`] events is the intended cadence.
    pub fn retire_prefix(&mut self) -> usize {
        let specs = &mut self.specs;
        self.replay.retire_prefix(|t| {
            specs.remove(t);
        })
    }

    /// Completes certification: the checks are per-event, so this runs the
    /// whole-arena check once more and hands back the accumulated
    /// [`CertifyReport`].
    ///
    /// # Errors
    /// A [`CertifyViolation`] (`at == usize::MAX`) if the replayed arena
    /// is broken at the end.
    pub fn finish(self) -> Result<CertifyReport, CertifyViolation> {
        self.replay.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::certify::{certify_history, certify_history_with};
    use crate::history::History;
    use crate::sched::{C2plScheduler, ChainScheduler, KWtpgScheduler, Scheduler};
    use crate::test_streams::{pattern_one, pattern_two, record};
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
        let r = &mut sc.replay;
        r.nodes.get_or_insert_with(x, SgNode::default);
        r.nodes.get_or_insert_with(u, SgNode::default);
        r.add_edge(x, u, 0, Tick(0)).expect("x→u");
        if let Some(n) = r.nodes.get_mut(u) {
            n.committed = true;
        }
        assert_eq!(sc.retire_prefix(), 0, "u has an in-edge; must stay");
        let r = &mut sc.replay;
        assert!(r.nodes.contains(u));
        r.nodes.get_or_insert_with(v, SgNode::default);
        r.add_edge(u, v, 1, Tick(1)).expect("u→v");
        // Closing v → x → u completes a cycle through committed u.
        let err = r
            .add_edge(v, x, 2, Tick(2))
            .expect_err("cycle via committed node");
        assert!(err.what.contains("cycle"), "{err}");
        // Once x commits and retires, u's in-degree drops and both go.
        let mut sc2 = StreamingCertifier::new(CertifyMode::General);
        let r2 = &mut sc2.replay;
        r2.nodes.get_or_insert_with(x, SgNode::default);
        r2.nodes.get_or_insert_with(u, SgNode::default);
        r2.add_edge(x, u, 0, Tick(0)).expect("x→u");
        for t in [x, u] {
            if let Some(n) = r2.nodes.get_mut(t) {
                n.committed = true;
            }
        }
        assert_eq!(sc2.retire_prefix(), 2, "cascading retirement");
        assert_eq!(sc2.live_nodes(), 0);
        // Edges from the retired u are dropped on sight.
        let r2 = &mut sc2.replay;
        r2.nodes.get_or_insert_with(v, SgNode::default);
        r2.add_edge(u, v, 1, Tick(1))
            .expect("retired source ignored");
        assert_eq!(r2.nodes.get(v).map(|n| n.indeg), Some(0));
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
        sc.feed(Tick(2), Event::Committed(TxnId(1)))
            .expect("commit");
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

    /// Seed of the spec streams the mutation tests corrupt.
    const SEED: u64 = 37;

    /// Replays `h` under `checks`, letting `tamper` reach into the replay
    /// before each event; hands back the replay with the verdict.
    fn run(
        h: &History,
        specs: &BTreeMap<TxnId, TxnSpec>,
        mode: CertifyMode,
        checks: Checks,
        mut tamper: impl FnMut(usize, &mut Replay),
    ) -> (Result<(), CertifyViolation>, Replay) {
        let mut r = Replay::new(mode, checks);
        for (i, &(tick, e)) in h.events().iter().enumerate() {
            tamper(i, &mut r);
            let spec = match e {
                Event::Admitted(t) => specs.get(&t),
                _ => None,
            };
            if let Err(v) = r.feed(tick, e, spec) {
                return (Err(v), r);
            }
        }
        (Ok(()), r)
    }

    /// The fast checks with the oracles off, and the oracles alone, both
    /// reject `h` (tampered by `tamper`) at the same event, naming `what`;
    /// returns that event's index.
    fn rejected_by_both(
        h: &History,
        specs: &BTreeMap<TxnId, TxnSpec>,
        mode: CertifyMode,
        tamper: impl Fn(usize, &mut Replay),
        what: &str,
    ) -> usize {
        let [fast, oracle] = [Checks::FAST, Checks::ORACLE].map(|checks| {
            let (verdict, _) = run(h, specs, mode, checks, &tamper);
            let v = verdict.expect_err("the mutation must be rejected");
            assert!(v.what.contains(what), "{checks:?}: {v}");
            v
        });
        assert_eq!(fast.at, oracle.at, "{fast} vs {oracle}");
        fast.at
    }

    /// `h` with event `i` replaced by `f(event)`, or dropped when `f`
    /// returns `None`.
    fn rewrite(h: &History, i: usize, f: impl Fn(Event) -> Option<Event>) -> History {
        let mut out = History::new();
        for (k, &(tick, e)) in h.events().iter().enumerate() {
            if let Some(e) = if k == i { f(e) } else { Some(e) } {
                out.push(tick, e);
            }
        }
        out
    }

    /// Every arrival CHAIN turned away would have broken chain form —
    /// three neighbours, an interior neighbour, or the two ends of one
    /// path. Claiming any of them was admitted is rejected right there.
    #[test]
    fn seeded_non_chain_admissions_are_rejected_by_fast_check_and_oracle() {
        let (h, specs, mode) = record(ChainScheduler::new(5000), &pattern_one(SEED, 60), 1);
        let rejected: Vec<usize> = (0..h.len())
            .filter(|&i| matches!(h.events()[i].1, Event::Rejected(_)))
            .take(12)
            .collect();
        assert!(
            rejected.len() >= 4,
            "a contended CHAIN run turns arrivals away"
        );
        for i in rejected {
            let bad = rewrite(&h, i, |e| match e {
                Event::Rejected(t) => Some(Event::Admitted(t)),
                e => Some(e),
            });
            assert_eq!(
                rejected_by_both(&bad, &specs, mode, |_, _| {}, "non-chain"),
                i
            );
        }
        // And the case a contended stream rarely draws: a newcomer with one
        // neighbour, interior to its path already (T2 on T1 — T2 — T3).
        let steps: [&[u32]; 4] = [&[0], &[0, 1, 2], &[1], &[2]];
        let mut specs = BTreeMap::new();
        let mut h = History::new();
        for (id, parts) in (1u64..).zip(steps) {
            let spec = TxnSpec::new(
                TxnId(id),
                parts.iter().map(|&p| StepSpec::write(p, 1.0)).collect(),
            );
            specs.insert(spec.id, spec);
            h.push(Tick(id), Event::Admitted(TxnId(id)));
        }
        assert_eq!(
            rejected_by_both(&h, &specs, CertifyMode::Chain, |_, _| {}, "non-chain"),
            3
        );
    }

    /// An arrival K-WTPG turned away, claimed admitted, breaks `|C(q)| ≤ K`.
    #[test]
    fn seeded_k_plus_one_conflict_is_rejected_by_fast_check_and_oracle() {
        let (h, specs, mode) = record(KWtpgScheduler::new(2, 5000), &pattern_one(SEED, 60), 1);
        let i = (0..h.len())
            .find(|&i| matches!(h.events()[i].1, Event::Rejected(_)))
            .expect("a contended K-WTPG run turns arrivals away");
        let bad = rewrite(&h, i, |e| match e {
            Event::Rejected(t) => Some(Event::Admitted(t)),
            e => Some(e),
        });
        assert_eq!(
            rejected_by_both(&bad, &specs, mode, |_, _| {}, "conflict bound"),
            i
        );
    }

    /// A replayed grant that also resolves the reverse order — the
    /// `SchedCore` grant path going wrong — closes a two-cycle, caught by
    /// the DFS from the grant's new edges and by the whole-graph check.
    #[test]
    fn seeded_cycle_closing_grant_is_rejected_by_fast_check_and_oracle() {
        let (h, specs, mode) = record(C2plScheduler::new(), &pattern_one(SEED, 60), 1);
        let arm = |i: usize, r: &mut Replay| r.reverse_armed |= i == 0;
        let at = rejected_by_both(&h, &specs, mode, arm, "cyclic after granting");
        let (_, r) = run(&h, &specs, mode, Checks::FAST, arm);
        assert_eq!(r.reversed_at, Some(at));
    }

    /// A commit dropped before a conflicting grant leaves the lock held.
    #[test]
    fn seeded_dropped_commit_is_rejected_by_fast_check_and_oracle() {
        let (h, specs, mode) = record(KWtpgScheduler::new(2, 5000), &pattern_one(SEED, 60), 1);
        let ev = h.events();
        let conflicting_later = |i: usize, t: TxnId| {
            let held = |p: PartitionId, m: AccessMode| {
                ev[..i].iter().any(|&(_, e)| {
                    matches!(e, Event::Granted { txn, partition, mode, .. }
                        if txn == t && partition == p && mode.conflicts_with(m))
                })
            };
            ev[i + 1..].iter().any(|&(_, e)| {
                matches!(e, Event::Granted { txn, partition, mode, .. }
                    if txn != t && held(partition, mode))
            })
        };
        let i = (0..ev.len())
            .find(|&i| matches!(ev[i].1, Event::Committed(t) if conflicting_later(i, t)))
            .expect("a contended run has a commit a later grant waits for");
        let bad = rewrite(&h, i, |_| None);
        rejected_by_both(&bad, &specs, mode, |_, _| {}, "while blocked");
    }

    /// A slot corrupted under the replay is caught at the next structural
    /// event that touches it, by the slot check and by the whole arena.
    #[test]
    fn seeded_corrupted_slot_is_rejected_by_fast_check_and_oracle() {
        let (h, specs, mode) = record(C2plScheduler::new(), &pattern_one(SEED, 60), 1);
        let (i, txn) = h
            .events()
            .iter()
            .enumerate()
            .skip(40)
            .find_map(|(i, &(_, e))| match e {
                Event::StepCompleted { txn, .. } => Some((i, txn)),
                _ => None,
            })
            .expect("the run completes steps");
        let corrupt = |k: usize, r: &mut Replay| {
            if k == i {
                r.core.wtpg.corrupt_slot(txn);
            }
        };
        assert_eq!(
            rejected_by_both(&h, &specs, mode, corrupt, "WTPG invariant"),
            i
        );
    }

    /// Clean runs certify identically on the fast checks and on the
    /// oracles, with the default mix in between.
    #[test]
    fn fast_checks_and_oracles_agree_on_clean_runs() {
        let runs = [
            record(ChainScheduler::new(5000), &pattern_one(SEED, 120), 1),
            record(KWtpgScheduler::new(2, 5000), &pattern_one(SEED, 120), 1),
            record(C2plScheduler::new(), &pattern_two(SEED, 120, 4), 1),
        ];
        for (h, specs, mode) in &runs {
            let [fast, oracle, default] = [Checks::FAST, Checks::ORACLE, Checks::DEFAULT]
                .map(|checks| certify_history_with(h, specs, *mode, checks).expect("certifies"));
            assert_eq!(fast, oracle);
            assert_eq!(fast, default);
            assert!(fast.commits > 0);
        }
    }

    /// Pattern Two reads one of eight partitions nobody writes: a frontier
    /// that never saw a writer must still forget its retired readers, or it
    /// keeps one id per transaction of the run.
    #[test]
    fn frontiers_stay_bounded_by_the_live_population() {
        let (h, specs, mode) = record(C2plScheduler::new(), &pattern_two(SEED, 50_000, 4), 1);
        let mut sc = StreamingCertifier::new(mode);
        for spec in specs.into_values() {
            sc.declare(spec);
        }
        let mut worst = 0;
        for (i, &(tick, e)) in h.events().iter().enumerate() {
            sc.feed(tick, e).expect("certifies");
            if (i + 1) % RETIRE_EVERY == 0 {
                sc.retire_prefix();
                let readers: usize = sc.replay.parts.iter().map(|p| p.readers.len()).sum();
                assert!(
                    readers <= sc.live_nodes(),
                    "{readers} readers, {} live",
                    sc.live_nodes()
                );
                worst = worst.max(readers);
            }
        }
        assert!(sc.retired() > 40_000, "retirement engaged");
        assert!(worst < 1_000, "frontier grew with the run: {worst}");
        sc.finish().expect("finish");
    }
}
