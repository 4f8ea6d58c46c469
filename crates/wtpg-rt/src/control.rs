//! The control node: one owner, one scheduler, one certified history.
//!
//! The paper's machine has a single control node that owns the lock table
//! and the WTPG (§2.2). [`ControlNode`] is that node as a plain value with
//! `&mut self` operations: whoever drives it (`wtpg-net`'s control actor,
//! a test's serial loop) owns it outright, so there is nothing to lock.
//! Every scheduler interaction — admission, lock request, progress, step
//! completion, commit — draws the next instant from a [`LogicalClock`] and
//! appends the outcome to a [`History`]. The recorded log is therefore a
//! *linearization* of the run in exactly the order the scheduler saw it,
//! which is what makes post-run replay certification
//! ([`wtpg_core::certify::certify_history`]) sound for real multi-threaded
//! executions: the threads meet at the owner's mailbox, not here.
//!
//! **Streaming mode.** Built with streaming on
//! ([`ControlNode::with_telemetry`]), the node records *no history*: it owns
//! a [`StreamingCertifier`] and feeds it each declaration (once, before the
//! first admission event that references it) and each linearized event as
//! the event is drawn, retiring the certified prefix every [`RETIRE_EVERY`]
//! events. The first [`CertifyViolation`] is latched and nothing more is
//! fed; the node keeps answering its scheduler, and
//! [`into_audit`](ControlNode::into_audit) hands the verdict over as
//! [`ControlAudit::verdict`]. Certification thus steps with the node whose
//! decisions it checks, on its owner's thread, and the node's memory no
//! longer grows with run length — which is what makes million-transaction
//! open-loop cells feasible. Committed specs are pruned for the same reason.
//!
//! In both modes the node keeps the partitions it granted, each with its
//! first grant's tick: a set bounded by the catalog, from which
//! [`merge_audits`](crate::shard::merge_audits) checks that shards are
//! disjoint when there is no history to merge.
//!
//! **Windowed telemetry.** With a [`Registry`] attached, scheduler-level
//! decisions bump the canonical `sched/*` counters
//! ([`wtpg_obs::window::metric`]) so a window flusher can report grant,
//! reject and delay rates live. Counter bumps are atomic adds on the hot
//! path and never alter scheduling decisions or recorded histories.

use std::collections::BTreeMap;

use wtpg_obs::window::metric;
use wtpg_obs::{ControlStats, Counter, Registry};

use wtpg_core::certify::{CertifyMode, CertifyReport, CertifyViolation};
use wtpg_core::error::CoreError;
use wtpg_core::history::{Event, History};
use wtpg_core::partition::PartitionId;
use wtpg_core::sched::{Admission, LockOutcome, Scheduler};
use wtpg_core::stream_certify::{StreamingCertifier, RETIRE_EVERY};
use wtpg_core::time::{LogicalClock, Tick};
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::window::IdWindow;
use wtpg_core::work::Work;

/// Counters of every control-node decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlCounters {
    /// Successful admissions.
    pub admissions: u64,
    /// Rejected admissions (each is one abort-and-resubmit cycle).
    pub rejections: u64,
    /// Granted lock requests.
    pub grants: u64,
    /// Requests turned away because a conflicting lock was held.
    pub blocks: u64,
    /// Requests the scheduler chose to delay (W-inconsistency, lost `E(q)`
    /// comparison, predicted deadlock).
    pub delays: u64,
    /// Commits.
    pub commits: u64,
}

/// Pre-resolved windowed-metric handles (one atomic add per decision).
struct SchedTelemetry {
    grants: Counter,
    rejects: Counter,
    delays: Counter,
}

impl SchedTelemetry {
    fn new(reg: &Registry) -> SchedTelemetry {
        SchedTelemetry {
            grants: reg.counter(metric::SCHED_GRANTS),
            rejects: reg.counter(metric::SCHED_ABORTS),
            delays: reg.counter(metric::SCHED_DELAYS),
        }
    }
}

/// The machine's single admission/lock-grant authority.
pub struct ControlNode {
    sched: Box<dyn Scheduler + Send>,
    /// What the node records, kept as the audit it becomes: the history and
    /// the counters, and — in-memory mode — the declarations of the
    /// committed transactions, each moved there at its commit. The audit's
    /// map is thus built once, as the run goes, and never copied.
    audit: ControlAudit,
    /// Declarations of the transactions not committed yet, by id: one
    /// lookup per arrival and per grant.
    live: IdWindow<TxnSpec>,
    clock: LogicalClock,
    /// Streaming mode: the live certifier every event is fed to instead of
    /// the in-memory history, or the first violation it found.
    stream: Option<Result<StreamingCertifier, CertifyViolation>>,
    /// Windowed scheduler counters (None disables).
    tel: Option<SchedTelemetry>,
}

/// Everything the control node recorded, released when its owner is done.
pub struct ControlAudit {
    /// The linearized event log.
    pub history: History,
    /// Declarations of every transaction that was ever admitted.
    pub specs: BTreeMap<TxnId, TxnSpec>,
    /// Decision counters.
    pub counters: ControlCounters,
    /// The last logical instant issued.
    pub final_tick: Tick,
    /// Every partition granted, with the tick of its first grant.
    pub granted: BTreeMap<PartitionId, Tick>,
    /// Streaming mode's verdict: the live certifier's report, or the first
    /// violation it found. `None` in in-memory mode.
    pub verdict: Option<Result<CertifyReport, CertifyViolation>>,
}

impl ControlNode {
    /// Wraps `sched` as the machine's control node, recording the history
    /// in memory.
    pub fn new(sched: Box<dyn Scheduler + Send>) -> ControlNode {
        ControlNode::with_telemetry(sched, None, false)
    }

    /// [`ControlNode::new`] with an optional windowed-metric registry
    /// (scheduler decision counters), certifying live under the scheduler's
    /// own [`CertifyMode`] if `stream` (see the module docs on streaming
    /// mode).
    pub fn with_telemetry(
        sched: Box<dyn Scheduler + Send>,
        reg: Option<&Registry>,
        stream: bool,
    ) -> ControlNode {
        let mode = sched.certify_mode();
        ControlNode {
            sched,
            audit: ControlAudit {
                history: History::new(),
                specs: BTreeMap::new(),
                counters: ControlCounters::default(),
                final_tick: Tick::ZERO,
                granted: BTreeMap::new(),
                verdict: None,
            },
            live: IdWindow::new(),
            clock: LogicalClock::new(),
            stream: stream.then(|| Ok(StreamingCertifier::new(mode))),
            tel: reg.map(SchedTelemetry::new),
        }
    }

    /// Routes one linearized event: into the live certifier in streaming
    /// mode, until it latches a violation, into the in-memory history
    /// otherwise.
    fn record(&mut self, now: Tick, ev: Event) {
        match &mut self.stream {
            None => self.audit.history.push(now, ev),
            Some(Ok(cert)) => match cert.feed(now, ev) {
                Ok(()) if cert.events_fed() % RETIRE_EVERY == 0 => {
                    cert.retire_prefix();
                }
                Ok(()) => {}
                Err(v) => self.stream = Some(Err(v)),
            },
            // A violation is latched: nothing more is fed.
            Some(Err(_)) => {}
        }
    }

    /// Submits a transaction's declarations. On rejection the scheduler has
    /// rolled everything back; the caller resubmits the same spec under the
    /// same id.
    pub fn arrive(&mut self, spec: &TxnSpec) -> Result<Admission, CoreError> {
        let now = self.clock.next();
        let (admission, _) = self.sched.on_arrive(spec, now)?;
        // First sight of this id: the certifier needs the declaration
        // before either admission verdict (re-admission reuses the id).
        if !self.live.contains(spec.id) {
            self.live.insert(spec.id, spec.clone());
            if let Some(Ok(cert)) = &mut self.stream {
                cert.declare(spec.clone());
            }
        }
        match admission {
            Admission::Admitted => {
                self.audit.counters.admissions += 1;
                self.record(now, Event::Admitted(spec.id));
            }
            Admission::Rejected => {
                self.audit.counters.rejections += 1;
                if let Some(t) = &self.tel {
                    t.rejects.inc();
                }
                self.record(now, Event::Rejected(spec.id));
            }
        }
        Ok(admission)
    }

    /// Requests the lock for `txn`'s step `step`. Grants record the history
    /// event; blocked/delayed outcomes leave no trace (matching the
    /// simulator) and the caller retries later.
    pub fn request(&mut self, txn: TxnId, step: usize) -> Result<LockOutcome, CoreError> {
        let now = self.clock.next();
        let (outcome, _) = self.sched.on_request(txn, step, now)?;
        let counters = &mut self.audit.counters;
        match outcome {
            LockOutcome::Granted => {
                counters.grants += 1;
                if let Some(t) = &self.tel {
                    t.grants.inc();
                }
                let declared = self
                    .live
                    .get(txn)
                    .and_then(|spec| spec.steps().get(step))
                    .copied()
                    .ok_or(CoreError::BadStep { txn, step })?;
                self.audit.granted.entry(declared.partition).or_insert(now);
                self.record(
                    now,
                    Event::Granted {
                        txn,
                        step,
                        partition: declared.partition,
                        mode: declared.mode,
                    },
                );
            }
            LockOutcome::Blocked => {
                counters.blocks += 1;
                if let Some(t) = &self.tel {
                    t.delays.inc();
                }
            }
            LockOutcome::Delayed => {
                counters.delays += 1;
                if let Some(t) = &self.tel {
                    t.delays.inc();
                }
            }
        }
        Ok(outcome)
    }

    /// Reports `amount` of bulk work done at a data node — the per-object
    /// weight-adjustment message.
    pub fn progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        let now = self.clock.next();
        self.sched.on_progress(txn, amount)?;
        self.record(now, Event::Progress { txn, amount });
        Ok(())
    }

    /// Reports that `txn`'s step `step` finished all its declared work.
    pub fn step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        let now = self.clock.next();
        self.sched.on_step_complete(txn, step)?;
        self.record(now, Event::StepCompleted { txn, step });
        Ok(())
    }

    /// Commits `txn`, releasing its locks. Returns the commit tick — the
    /// logical timestamp MVCC snapshot certification orders commits by —
    /// and the partitions whose locks it released: the only partitions on
    /// which a `Blocked` request can now be granted.
    pub fn commit(&mut self, txn: TxnId) -> Result<(Tick, Vec<PartitionId>), CoreError> {
        let now = self.clock.next();
        let freed = self.sched.on_commit(txn, now)?.freed;
        self.audit.counters.commits += 1;
        self.record(now, Event::Committed(txn));
        // A committed id never returns (ids are unique per run). Streaming
        // mode keeps no spec past its commit — the certifier keeps its copy
        // until retirement — so the node's footprint is the live
        // population's.
        if let Some(spec) = self.live.remove(txn).filter(|_| self.stream.is_none()) {
            self.audit.specs.insert(txn, spec);
        }
        Ok((now, freed))
    }

    /// The logical clock's current reading, without advancing it. A
    /// read-only BAT's snapshot timestamp: every transaction committed so
    /// far has a commit tick at or below this value, and every commit still
    /// to come will tick strictly above it.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// The scheduler's display name.
    pub fn sched_name(&self) -> String {
        self.sched.name().to_string()
    }

    /// The scheduler's cumulative control-plane statistics.
    pub fn sched_stats(&self) -> ControlStats {
        self.sched.obs_stats()
    }

    /// The certification mode the wrapped scheduler claims.
    pub fn certify_mode(&self) -> CertifyMode {
        self.sched.certify_mode()
    }

    /// Admitted, uncommitted transactions right now.
    pub fn active_txns(&self) -> usize {
        self.sched.active_txns()
    }

    /// Consumes the control node, releasing the recorded history, the spec
    /// log, the counters and — streaming mode — the live certifier's
    /// verdict, after its last whole-arena check.
    pub fn into_audit(self) -> ControlAudit {
        let mut audit = self.audit;
        audit.verdict = self.stream.map(|s| s.and_then(StreamingCertifier::finish));
        audit.specs.extend(self.live.into_entries());
        audit.final_tick = self.clock.now();
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::certify::certify_history;
    use wtpg_core::sched::{C2plScheduler, CommitResult, ControlOps, NodcScheduler};
    use wtpg_core::txn::StepSpec;
    use wtpg_core::wtpg::Wtpg;

    fn spec(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    #[test]
    fn full_lifecycle_records_a_certifiable_history() {
        let mut cn = ControlNode::new(Box::new(C2plScheduler::new()));
        let t = spec(1, vec![StepSpec::write(0, 2.0), StepSpec::read(1, 1.0)]);
        assert_eq!(cn.arrive(&t).unwrap(), Admission::Admitted);
        for step in 0..2 {
            assert_eq!(cn.request(TxnId(1), step).unwrap(), LockOutcome::Granted);
            cn.progress(TxnId(1), Work::from_objects(1)).unwrap();
            cn.step_complete(TxnId(1), step).unwrap();
        }
        cn.commit(TxnId(1)).unwrap();
        assert_eq!(cn.active_txns(), 0);
        let audit = cn.into_audit();
        assert_eq!(audit.counters.admissions, 1);
        assert_eq!(audit.counters.grants, 2);
        assert_eq!(audit.counters.commits, 1);
        // 1 arrive + 2×(request+progress+complete) + 1 commit = 8 ticks.
        assert_eq!(audit.final_tick, Tick(8));
        let report = certify_history(&audit.history, &audit.specs, CertifyMode::General)
            .expect("lifecycle certifies");
        assert_eq!(report.commits, 1);
    }

    #[test]
    fn streaming_mode_streams_the_linearization_and_records_nothing() {
        const TXNS: u64 = 1000;
        let reg = Registry::new();
        let mut cn = ControlNode::with_telemetry(Box::new(C2plScheduler::new()), Some(&reg), true);
        // The same calls on a node that records: the history the inline
        // certifier must judge as the replay does.
        let mut twin = ControlNode::new(Box::new(C2plScheduler::new()));
        for id in 1..=TXNS {
            for node in [&mut cn, &mut twin] {
                let t = spec(id, vec![StepSpec::write((id % 64) as u32, 1.0)]);
                assert_eq!(node.arrive(&t).unwrap(), Admission::Admitted);
                assert_eq!(node.request(TxnId(id), 0).unwrap(), LockOutcome::Granted);
                node.progress(TxnId(id), Work::from_objects(1)).unwrap();
                node.step_complete(TxnId(id), 0).unwrap();
                node.commit(TxnId(id)).unwrap();
            }
        }
        // Five events per transaction: past one retirement.
        let Some(Ok(cert)) = &cn.stream else { panic!("a clean run latches nothing") };
        assert_eq!(cert.events_fed(), 5 * TXNS as usize);
        assert!(cert.retired() > 0, "the certified prefix retires as the run goes");

        let audit = cn.into_audit();
        assert_eq!(audit.history.len(), 0, "streaming mode records no history");
        assert!(audit.specs.is_empty(), "committed specs are pruned");
        assert_eq!(audit.counters.commits, TXNS);
        let twin = twin.into_audit();
        assert_eq!(audit.granted, twin.granted, "both modes keep the granted partitions");
        assert_eq!(audit.granted.len(), 64);
        assert_eq!(twin.verdict, None, "in-memory mode leaves the verdict to the replay");
        let replayed = certify_history(&twin.history, &twin.specs, CertifyMode::General)
            .expect("clean run certifies");
        assert_eq!(audit.verdict, Some(Ok(replayed)), "the inline verdict is the replay's");

        // Scheduler decision counters landed in the registry.
        let w = reg.flush_snapshot(1);
        assert_eq!(w.counter(wtpg_obs::window::metric::SCHED_GRANTS), TXNS);
    }

    /// NODC's grant-everything decisions under the lock-based baseline's
    /// claim: its conflicting grants break exclusion.
    struct Lawless(NodcScheduler);

    impl Scheduler for Lawless {
        fn name(&self) -> &str {
            "LAWLESS"
        }
        fn on_arrive(&mut self, s: &TxnSpec, now: Tick) -> Result<(Admission, ControlOps), CoreError> {
            self.0.on_arrive(s, now)
        }
        fn on_request(
            &mut self,
            txn: TxnId,
            step: usize,
            now: Tick,
        ) -> Result<(LockOutcome, ControlOps), CoreError> {
            self.0.on_request(txn, step, now)
        }
        fn on_progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
            self.0.on_progress(txn, amount)
        }
        fn on_step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
            self.0.on_step_complete(txn, step)
        }
        fn on_commit(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError> {
            self.0.on_commit(txn, now)
        }
        fn on_abort(&mut self, txn: TxnId, now: Tick) -> Result<CommitResult, CoreError> {
            self.0.on_abort(txn, now)
        }
        fn active_txns(&self) -> usize {
            self.0.active_txns()
        }
        fn wtpg(&self) -> &Wtpg {
            self.0.wtpg()
        }
    }

    #[test]
    fn a_latched_violation_stops_the_feed_but_not_the_node() {
        let mut cn = ControlNode::with_telemetry(Box::new(Lawless(NodcScheduler::new())), None, true);
        assert_eq!(cn.certify_mode(), CertifyMode::General);
        // Three writers of partition 0, all granted at once: the second
        // grant (event 3) breaks exclusion, and so would the third.
        for id in 1..=3 {
            assert_eq!(cn.arrive(&spec(id, vec![StepSpec::write(0, 1.0)])).unwrap(), Admission::Admitted);
            assert_eq!(cn.request(TxnId(id), 0).unwrap(), LockOutcome::Granted);
            assert_eq!(matches!(cn.stream, Some(Err(_))), id > 1, "latched at the second grant");
        }
        // The node keeps answering its scheduler.
        for id in 1..=3 {
            cn.progress(TxnId(id), Work::from_objects(1)).unwrap();
            cn.step_complete(TxnId(id), 0).unwrap();
            cn.commit(TxnId(id)).unwrap();
        }
        assert_eq!(cn.active_txns(), 0);
        let audit = cn.into_audit();
        assert_eq!((audit.counters.grants, audit.counters.commits), (3, 3));
        assert_eq!(audit.history.len(), 0);
        assert_eq!(audit.granted.into_iter().collect::<Vec<_>>(), [(PartitionId(0), Tick(2))]);
        let v = audit.verdict.expect("streaming mode").expect_err("exclusion is broken");
        assert_eq!((v.at, v.tick), (3, Tick(4)), "the first violation, not a later one: {v}");
    }

    #[test]
    fn commit_returns_exactly_the_partitions_the_transaction_held() {
        let mut cn = ControlNode::new(Box::new(C2plScheduler::new()));
        // T1 takes partitions 2 then 0; T2 takes 1, then is blocked on 0.
        let t1 = spec(1, vec![StepSpec::write(2, 1.0), StepSpec::read(0, 1.0)]);
        let t2 = spec(2, vec![StepSpec::write(1, 1.0), StepSpec::write(0, 1.0)]);
        for t in [&t1, &t2] {
            assert_eq!(cn.arrive(t).unwrap(), Admission::Admitted);
        }
        assert_eq!(cn.request(TxnId(1), 0).unwrap(), LockOutcome::Granted);
        assert_eq!(cn.request(TxnId(2), 0).unwrap(), LockOutcome::Granted);
        cn.step_complete(TxnId(1), 0).unwrap();
        cn.step_complete(TxnId(2), 0).unwrap();
        assert_eq!(cn.request(TxnId(1), 1).unwrap(), LockOutcome::Granted);
        assert_eq!(cn.request(TxnId(2), 1).unwrap(), LockOutcome::Blocked);
        cn.step_complete(TxnId(1), 1).unwrap();
        let before = cn.now();
        let (tick, freed) = cn.commit(TxnId(1)).unwrap();
        assert_eq!(tick, Tick(before.0 + 1), "the commit draws the next instant");
        assert_eq!(freed, [PartitionId(0), PartitionId(2)], "release_all's list");
        assert_eq!(cn.request(TxnId(2), 1).unwrap(), LockOutcome::Granted);
        cn.step_complete(TxnId(2), 1).unwrap();
        let (_, freed) = cn.commit(TxnId(2)).unwrap();
        assert_eq!(freed, [PartitionId(0), PartitionId(1)]);
    }
}
