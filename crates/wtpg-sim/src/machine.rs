//! The shared-nothing machine (paper Figure 5): one control node, `NumNodes`
//! round-robin data nodes, Poisson arrivals, retry/wakeup plumbing.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};

use wtpg_obs::{emit_deltas, ControlStats, Histogram, ObsEvent, Observer};

use wtpg_core::certify::{certify_history, CertifyReport, CertifyViolation};
use wtpg_core::history::{Event as HEvent, History};
use wtpg_core::partition::{Catalog, PartitionId, Placement};
use wtpg_core::sched::{Admission, ControlOps, LockOutcome, Scheduler};
use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::work::Work;

use crate::config::SimParams;
use crate::events::{Event, EventQueue};
use crate::metrics::{Metrics, RunReport};
use crate::workload::Workload;

/// One in-flight bulk operation at a data node.
#[derive(Clone, Debug)]
struct DnJob {
    txn: TxnId,
    step: usize,
    remaining: Work,
}

/// A data node: a serial server processing one object per quantum,
/// round-robin over resident transactions (§4.1).
#[derive(Clone, Debug, Default)]
struct DataNode {
    ready: VecDeque<DnJob>,
    /// Job in service and its quantum size.
    current: Option<(DnJob, Work)>,
}

#[derive(Clone, Debug)]
struct TxnState {
    spec: TxnSpec,
    created: Tick,
}

/// One round-robin quantum executed at a data node — the raw material for
/// execution timelines (see the `timeline` example).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantumRecord {
    /// Completion instant of the quantum.
    pub at: Tick,
    /// The data node that executed it.
    pub node: u32,
    /// The transaction served.
    pub txn: TxnId,
    /// Amount of work done in this quantum.
    pub amount: Work,
}

/// One committed transaction's lifecycle, for per-class analyses (e.g. the
/// mixed-workload extension separates short transactions from BATs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletionRecord {
    /// The transaction.
    pub txn: TxnId,
    /// First arrival.
    pub created: Tick,
    /// End of commit processing.
    pub committed: Tick,
    /// Number of declared steps.
    pub steps: usize,
    /// Total actual work, in `Work` units.
    pub work_units: u64,
}

/// The simulated machine. Construct, then [`Machine::run`].
pub struct Machine<W: Workload> {
    params: SimParams,
    sched: Box<dyn Scheduler>,
    workload: W,
    catalog: Catalog,
    queue: EventQueue,
    now: Tick,
    /// The control node is a serial server: busy until this instant.
    cn_free: Tick,
    nodes: Vec<DataNode>,
    txns: BTreeMap<TxnId, TxnState>,
    /// Requests waiting for a held lock, keyed by the partition they need.
    blocked: BTreeMap<PartitionId, Vec<(TxnId, usize)>>,
    /// Outstanding stripes of fanned-out steps (declustered placement):
    /// (txn, step) → stripes still running.
    fanout: BTreeMap<(TxnId, usize), u32>,
    next_txn_id: u64,
    metrics: Metrics,
    completions: Vec<CompletionRecord>,
    history: Option<History>,
    timeline: Option<Vec<QuantumRecord>>,
    /// Certify the recorded history at the end of [`Machine::run`].
    certify: bool,
    /// The report of the end-of-run certification, when one ran and passed.
    cert_report: Option<CertifyReport>,
    /// Declared specs of every transaction ever admitted, for the certifier's
    /// replay (kept only while certification is enabled).
    spec_log: BTreeMap<TxnId, TxnSpec>,
    /// Trace sink. Events are keyed by the simulated clock (`Tick` ms), so
    /// traces are byte-deterministic; the observer is passive and never
    /// influences the trajectory.
    obs: Option<Rc<dyn Observer>>,
    /// Scheduler stats at the last delta emission.
    obs_last: ControlStats,
    /// First request attempt per (txn, step), for lock-wait durations.
    /// Populated only while an observer is attached.
    obs_first_attempt: BTreeMap<(TxnId, usize), Tick>,
    /// Response times of committed transactions (ms), for the end-of-run
    /// histogram snapshot.
    obs_rt: Histogram,
    rng: StdRng,
}

/// True when the `WTPG_CERTIFY` environment variable requests certification
/// ("1" or "true") — the hook CI uses to certify a whole test run without
/// touching any configuration.
fn env_certify() -> bool {
    matches!(
        std::env::var("WTPG_CERTIFY").ok().as_deref(),
        Some("1") | Some("true")
    )
}

impl<W: Workload> Machine<W> {
    /// Builds a machine from parameters, a scheduler, and a workload.
    pub fn new(params: SimParams, sched: Box<dyn Scheduler>, workload: W) -> Machine<W> {
        let catalog = workload.catalog().clone();
        assert_eq!(
            catalog.num_nodes(),
            params.num_nodes,
            "workload catalog and SimParams disagree on NumNodes"
        );
        let metrics = Metrics::new(params.num_nodes);
        let rng = StdRng::seed_from_u64(params.seed ^ 0x9e37_79b9_7f4a_7c15);
        let certify = params.certify || env_certify();
        Machine {
            nodes: vec![DataNode::default(); params.num_nodes as usize],
            params,
            sched,
            workload,
            catalog,
            queue: EventQueue::new(),
            now: Tick::ZERO,
            cn_free: Tick::ZERO,
            txns: BTreeMap::new(),
            blocked: BTreeMap::new(),
            fanout: BTreeMap::new(),
            next_txn_id: 1,
            metrics,
            completions: Vec::new(),
            history: if certify { Some(History::new()) } else { None },
            timeline: None,
            certify,
            cert_report: None,
            spec_log: BTreeMap::new(),
            obs: None,
            obs_last: ControlStats::default(),
            obs_first_attempt: BTreeMap::new(),
            obs_rt: Histogram::new(),
            rng,
        }
    }

    /// Attaches a trace sink. Every event is stamped with the simulated
    /// clock, so two runs of the same configuration produce byte-identical
    /// traces, and a [`wtpg_obs::NullObserver`] (or no observer) leaves the
    /// trajectory untouched.
    pub fn set_observer(&mut self, obs: Rc<dyn Observer>) {
        self.obs = Some(obs);
    }

    /// The report of [`Machine::run`]'s end-of-run certification, if one ran
    /// (avoids replaying the history a second time just for the statistics).
    pub fn certify_report(&self) -> Option<CertifyReport> {
        self.cert_report
    }

    /// The declared spec of every transaction that ever arrived, as the
    /// certifier needs them (empty unless certification is enabled).
    pub fn spec_log(&self) -> &BTreeMap<TxnId, TxnSpec> {
        &self.spec_log
    }

    /// Replays the recorded history against a fresh scheduler core and
    /// checks the guarantees this machine's scheduler claims (chain form,
    /// `|C(q)| ≤ K`, exclusion, serializability, …).
    ///
    /// # Errors
    /// The first violation found, or a description of why certification
    /// could not run (history recording was never enabled).
    pub fn certify(&self) -> Result<CertifyReport, CertifyViolation> {
        let Some(h) = &self.history else {
            return Err(CertifyViolation {
                at: usize::MAX,
                tick: Tick::ZERO,
                what: "history recording is not enabled".to_string(),
            });
        };
        certify_history(h, &self.spec_log, self.sched.certify_mode())
    }

    /// Enables full history recording (for validation; costs memory).
    pub fn record_history(&mut self) {
        self.history = Some(History::new());
    }

    /// The recorded history, if enabled.
    pub fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Lifecycle records of every transaction committed so far.
    pub fn completions(&self) -> &[CompletionRecord] {
        &self.completions
    }

    /// Enables per-quantum timeline recording (costs memory).
    pub fn record_timeline(&mut self) {
        self.timeline = Some(Vec::new());
    }

    /// The recorded execution timeline, if enabled.
    pub fn timeline(&self) -> Option<&[QuantumRecord]> {
        self.timeline.as_deref()
    }

    /// The scheduler's display name.
    pub fn sched_name(&self) -> &str {
        self.sched.name()
    }

    fn record(&mut self, e: HEvent) {
        if let Some(h) = &mut self.history {
            h.push(self.now, e);
        }
    }

    /// Forwards `ev` to the attached observer, if any.
    fn obs_emit(&self, ev: ObsEvent) {
        if let Some(o) = &self.obs {
            o.record(ev);
        }
    }

    /// Emits counter events for every scheduler statistic that changed
    /// since the previous emission (no-op without an observer).
    fn obs_sched_deltas(&mut self) {
        let Some(o) = &self.obs else { return };
        let after = self.sched.obs_stats();
        emit_deltas(o.as_ref(), self.now.millis(), 0, &self.obs_last, &after);
        self.obs_last = after;
    }

    /// Price of the control work in CN milliseconds.
    fn ops_cost(&self, ops: ControlOps) -> u64 {
        ops.deadlock_tests as u64 * self.params.dd_time_ms
            + ops.chain_opts as u64 * self.params.chain_time_ms
            + ops.eq_evals as u64 * self.params.kwtpg_time_ms
    }

    /// Occupies the CN for `cost` ms starting no earlier than `now`;
    /// returns the completion instant.
    fn cn_serve(&mut self, cost: u64) -> Tick {
        let start = self.now.max(self.cn_free);
        let end = start + cost;
        self.cn_free = end;
        self.metrics.cn_busy_ms += cost;
        end
    }

    fn schedule_next_arrival(&mut self, lambda_tps: f64) {
        // Interarrival ~ Exp(λ); λ is per second, the clock is ms.
        let exp = Exp::new(lambda_tps / 1000.0).expect("λ must be positive");
        let gap = exp.sample(&mut self.rng).ceil().max(1.0) as u64;
        let at = self.now + gap;
        let id = TxnId(self.next_txn_id);
        self.next_txn_id += 1;
        let spec = self.workload.next_txn(id);
        self.queue.push(at, Event::Arrive(Box::new(spec)));
    }

    /// Runs the machine for `params.sim_length_ms` with Poisson arrivals at
    /// `lambda_tps` transactions per second; returns the run report.
    ///
    /// # Panics
    /// Panics if `lambda_tps <= 0`, if the scheduler reports a protocol
    /// error (which would be a bug in this driver), or if certification is
    /// enabled and the recorded history fails it.
    pub fn run(&mut self, lambda_tps: f64) -> RunReport {
        assert!(lambda_tps > 0.0, "arrival rate must be positive");
        self.schedule_next_arrival(lambda_tps);
        while let Some((t, ev)) = self.queue.pop() {
            if t.millis() > self.params.sim_length_ms {
                break;
            }
            self.now = t;
            match ev {
                Event::Arrive(spec) => self.handle_arrive(*spec, lambda_tps),
                Event::Request { txn, step } => self.handle_request(txn, step),
                Event::DnEnqueue { txn, step } => self.handle_dn_enqueue(txn, step),
                Event::DnQuantum { node } => self.handle_dn_quantum(node),
                Event::Commit { txn } => self.handle_commit(txn),
            }
        }
        if self.certify {
            match self.certify() {
                Ok(report) => self.cert_report = Some(report),
                Err(v) => panic!("certification failed for {}: {v}", self.sched.name()),
            }
        }
        if self.obs.is_some() {
            // Final counter values (even unchanged ones) plus the
            // response-time histogram, so a summary of the trace alone can
            // reconstruct the run's control-plane totals.
            self.obs_sched_deltas();
            let at = self.now.millis();
            let final_stats = self.obs_last;
            for (name, value) in final_stats.fields() {
                self.obs_emit(ObsEvent::counter(at, 0, name, value));
            }
            self.obs_emit(ObsEvent::counter(at, 0, "arrivals", self.metrics.arrivals));
            self.obs_emit(ObsEvent::counter(at, 0, "rejections", self.metrics.rejections));
            self.obs_emit(ObsEvent::counter(at, 0, "grants", self.metrics.grants));
            self.obs_emit(ObsEvent::counter(at, 0, "blocks", self.metrics.blocks));
            self.obs_emit(ObsEvent::counter(at, 0, "delays", self.metrics.delays));
            self.obs_emit(ObsEvent::hist(at, 0, "txn_response_ms", self.obs_rt.clone()));
        }
        let measured = self.params.sim_length_ms - self.params.warmup_ms;
        self.metrics.report(measured)
    }

    fn handle_arrive(&mut self, spec: TxnSpec, lambda_tps: f64) {
        let id = spec.id;
        if self.certify {
            // Resubmissions carry the identical spec, so the insert is
            // idempotent across retry attempts.
            self.spec_log.insert(id, spec.clone());
        }
        let first_attempt = !self.txns.contains_key(&id);
        if first_attempt {
            self.metrics.arrivals += 1;
            self.txns.insert(
                id,
                TxnState {
                    spec: spec.clone(),
                    created: self.now,
                },
            );
            // Keep the Poisson process going: one fresh arrival spawns the next.
            self.schedule_next_arrival(lambda_tps);
        }
        let (admission, ops) = self
            .sched
            .on_arrive(&spec, self.now)
            .expect("driver protocol violated at arrival");
        self.obs_sched_deltas();
        let cost = self.params.startup_time_ms + self.ops_cost(ops);
        self.bump_ops(ops);
        let end = self.cn_serve(cost);
        match admission {
            Admission::Admitted => {
                self.record(HEvent::Admitted(id));
                self.obs_emit(ObsEvent::span_begin(end.millis(), 0, "txn", id.0));
                self.queue.push(end, Event::Request { txn: id, step: 0 });
            }
            Admission::Rejected => {
                self.metrics.rejections += 1;
                self.record(HEvent::Rejected(id));
                self.obs_emit(ObsEvent::instant(end.millis(), 0, "admission_rejected", id.0));
                self.queue.push(
                    end + self.params.retry_delay_ms,
                    Event::Arrive(Box::new(spec)),
                );
            }
        }
    }

    fn handle_request(&mut self, txn: TxnId, step: usize) {
        if self.obs.is_some() {
            self.obs_first_attempt.entry((txn, step)).or_insert(self.now);
        }
        let (outcome, ops) = self
            .sched
            .on_request(txn, step, self.now)
            .expect("driver protocol violated at request");
        self.obs_sched_deltas();
        let cost = self.params.lockop_time_ms + self.ops_cost(ops);
        self.bump_ops(ops);
        let end = self.cn_serve(cost);
        let s = self.txns[&txn].spec.steps()[step];
        match outcome {
            LockOutcome::Granted => {
                self.metrics.grants += 1;
                self.record(HEvent::Granted {
                    txn,
                    step,
                    partition: s.partition,
                    mode: s.mode,
                });
                if let Some(first) = self.obs_first_attempt.remove(&(txn, step)) {
                    let at = first.millis();
                    let dur = end.millis().saturating_sub(at);
                    self.obs_emit(ObsEvent::duration(at, 0, "lock_wait", txn.0, dur));
                    let node = self.catalog.node_of(s.partition);
                    self.obs_emit(ObsEvent::span_begin(end.millis(), node + 1, "step", txn.0));
                }
                self.queue.push(end, Event::DnEnqueue { txn, step });
            }
            LockOutcome::Blocked => {
                self.metrics.blocks += 1;
                self.obs_emit(ObsEvent::instant(end.millis(), 0, "lock_blocked", txn.0));
                self.blocked
                    .entry(s.partition)
                    .or_default()
                    .push((txn, step));
            }
            LockOutcome::Delayed => {
                self.metrics.delays += 1;
                self.obs_emit(ObsEvent::instant(end.millis(), 0, "lock_delayed", txn.0));
                self.queue.push(
                    end + self.params.retry_delay_ms,
                    Event::Request { txn, step },
                );
            }
        }
    }

    fn handle_dn_enqueue(&mut self, txn: TxnId, step: usize) {
        let spec_step = self.txns[&txn].spec.steps()[step];
        let work = spec_step.actual_cost;
        if work.is_zero() {
            // Degenerate step (possible under extreme error models): no DN
            // time, complete immediately.
            self.finish_step(txn, step);
            return;
        }
        match self.catalog.placement() {
            Placement::Modulo => {
                let node = self.catalog.node_of(spec_step.partition);
                self.nodes[node as usize].ready.push_back(DnJob {
                    txn,
                    step,
                    remaining: work,
                });
                self.start_quantum(node);
            }
            Placement::Declustered => {
                // Stripe the bulk operation over every node; the step ends
                // when the last stripe does (intra-transaction parallelism,
                // the extension discussed in the paper's §4.3).
                let n = self.params.num_nodes as u64;
                let base = work.units() / n;
                let extra = work.units() % n;
                let mut stripes = 0u32;
                for node in 0..self.params.num_nodes {
                    let share = base + u64::from((node as u64) < extra);
                    if share == 0 {
                        continue;
                    }
                    stripes += 1;
                    self.nodes[node as usize].ready.push_back(DnJob {
                        txn,
                        step,
                        remaining: Work::from_units(share),
                    });
                }
                debug_assert!(stripes > 0);
                self.fanout.insert((txn, step), stripes);
                for node in 0..self.params.num_nodes {
                    self.start_quantum(node);
                }
            }
        }
    }

    /// Starts the next round-robin quantum on `node` if it is idle.
    fn start_quantum(&mut self, node: u32) {
        let dn = &mut self.nodes[node as usize];
        if dn.current.is_some() {
            return;
        }
        let Some(job) = dn.ready.pop_front() else {
            return;
        };
        let quantum = job.remaining.min(Work::ONE_OBJECT);
        let service = self.params.dn_time(quantum.units());
        dn.current = Some((job, quantum));
        self.queue
            .push(self.now + service, Event::DnQuantum { node });
    }

    fn handle_dn_quantum(&mut self, node: u32) {
        let (mut job, quantum) = self.nodes[node as usize]
            .current
            .take()
            .expect("quantum completion without a job in service");
        self.metrics.dn_busy_ms[node as usize] += self.params.dn_time(quantum.units());
        if let Some(tl) = &mut self.timeline {
            tl.push(QuantumRecord {
                at: self.now,
                node,
                txn: job.txn,
                amount: quantum,
            });
        }
        job.remaining = job.remaining.saturating_sub(quantum);
        // The per-object weight-adjustment message to CN (§3.1). Its CN cost
        // is negligible next to ObjTime and is not priced (see DESIGN.md).
        self.sched
            .on_progress(job.txn, quantum)
            .expect("driver protocol violated at progress");
        self.record(HEvent::Progress {
            txn: job.txn,
            amount: quantum,
        });
        if job.remaining.is_zero() {
            let (txn, step) = (job.txn, job.step);
            self.start_quantum(node);
            // Under declustered placement the step ends only when the last
            // stripe does.
            if let Some(pending) = self.fanout.get_mut(&(txn, step)) {
                *pending -= 1;
                if *pending == 0 {
                    self.fanout.remove(&(txn, step));
                    self.finish_step(txn, step);
                }
            } else {
                self.finish_step(txn, step);
            }
        } else {
            self.nodes[node as usize].ready.push_back(job);
            self.start_quantum(node);
        }
    }

    fn finish_step(&mut self, txn: TxnId, step: usize) {
        self.sched
            .on_step_complete(txn, step)
            .expect("driver protocol violated at step completion");
        self.record(HEvent::StepCompleted { txn, step });
        if self.obs.is_some() {
            let node = self.catalog.node_of(self.txns[&txn].spec.steps()[step].partition);
            self.obs_emit(ObsEvent::span_end(self.now.millis(), node + 1, "step", txn.0));
        }
        let last = step + 1 == self.txns[&txn].spec.len();
        if last {
            self.queue.push(self.now, Event::Commit { txn });
        } else {
            self.queue.push(
                self.now,
                Event::Request {
                    txn,
                    step: step + 1,
                },
            );
        }
    }

    fn handle_commit(&mut self, txn: TxnId) {
        let res = self
            .sched
            .on_commit(txn, self.now)
            .expect("driver protocol violated at commit");
        self.obs_sched_deltas();
        let cost = self.params.commit_time_ms + self.ops_cost(res.ops);
        self.bump_ops(res.ops);
        let end = self.cn_serve(cost);
        self.record(HEvent::Committed(txn));
        let state = self.txns.remove(&txn).expect("committing unknown txn");
        if self.obs.is_some() {
            self.obs_emit(ObsEvent::span_end(end.millis(), 0, "txn", txn.0));
            self.obs_rt
                .record(end.millis().saturating_sub(state.created.millis()));
        }
        if end.millis() >= self.params.warmup_ms && end.millis() <= self.params.sim_length_ms {
            self.metrics.complete(state.created, end);
            self.completions.push(CompletionRecord {
                txn,
                created: state.created,
                committed: end,
                steps: state.spec.len(),
                work_units: state.spec.total_actual().units(),
            });
        }
        // Wake requests blocked on the freed partitions.
        for p in res.freed {
            if let Some(waiters) = self.blocked.remove(&p) {
                for (w_txn, w_step) in waiters {
                    self.queue.push(
                        end,
                        Event::Request {
                            txn: w_txn,
                            step: w_step,
                        },
                    );
                }
            }
        }
    }

    fn bump_ops(&mut self, ops: ControlOps) {
        self.metrics.deadlock_tests += ops.deadlock_tests as u64;
        self.metrics.chain_opts += ops.chain_opts as u64;
        self.metrics.eq_evals += ops.eq_evals as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched_kind::SchedKind;
    use crate::workload::FixedWorkload;
    use wtpg_core::txn::StepSpec;

    fn tiny_params() -> SimParams {
        SimParams {
            sim_length_ms: 100_000,
            ..SimParams::paper_defaults()
        }
    }

    fn one_part_workload() -> FixedWorkload {
        FixedWorkload::new(
            Catalog::uniform(16, 5, 8),
            vec![vec![StepSpec::read(0, 1.0), StepSpec::write(1, 2.0)]],
        )
    }

    #[test]
    fn runs_and_completes_transactions() {
        for kind in SchedKind::MAIN_FIVE {
            let params = tiny_params();
            let mut m = Machine::new(params.clone(), kind.build(&params), one_part_workload());
            let report = m.run(0.2);
            assert!(report.completed > 0, "{:?} completed nothing", kind);
            assert!(
                report.mean_rt_ms >= 3000.0,
                "{:?}: each txn needs ≥3 s of DN time",
                kind
            );
        }
    }

    #[test]
    fn histories_are_serializable_for_real_schedulers() {
        for kind in SchedKind::CONTENDERS {
            let params = tiny_params();
            let mut m = Machine::new(params.clone(), kind.build(&params), one_part_workload());
            m.record_history();
            m.run(0.3);
            let h = m.history().unwrap();
            assert!(h.committed().len() > 1);
            h.check_conflict_serializable().unwrap();
            h.check_strictness().unwrap();
            h.check_lock_exclusion().unwrap();
        }
    }

    #[test]
    fn every_scheduler_certifies_its_own_run() {
        for kind in SchedKind::MAIN_FIVE {
            let params = SimParams {
                certify: true,
                ..tiny_params()
            };
            let mut m = Machine::new(params.clone(), kind.build(&params), one_part_workload());
            // run() panics if certification fails.
            let report = m.run(0.3);
            assert!(report.completed > 0, "{kind:?} completed nothing");
            let cert = m.certify().unwrap();
            assert!(cert.grants > 0 && cert.commits > 0, "{kind:?}: {cert:?}");
        }
    }

    #[test]
    fn certification_does_not_change_the_trajectory() {
        let run = |certify: bool| {
            let params = SimParams {
                certify,
                ..tiny_params()
            };
            let mut m = Machine::new(
                params.clone(),
                SchedKind::KWtpg.build(&params),
                one_part_workload(),
            );
            let r = m.run(0.3);
            (r.completed, r.grants, r.blocks, r.delays, r.mean_rt_ms as u64)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let params = SimParams {
                seed,
                sim_length_ms: 50_000,
                ..SimParams::paper_defaults()
            };
            let mut m = Machine::new(
                params.clone(),
                SchedKind::KWtpg.build(&params),
                one_part_workload(),
            );
            let r = m.run(0.3);
            (r.completed, r.grants, r.blocks, r.delays)
        };
        assert_eq!(run(7), run(7));
        // Different seed ⇒ different arrival times (almost surely different
        // counters at this contention level, but equality is not *impossible*
        // — only assert the same-seed determinism).
    }

    #[test]
    fn higher_arrival_rate_does_not_reduce_throughput_below_capacity() {
        let params = tiny_params();
        let tps = |lambda: f64| {
            let mut m = Machine::new(
                params.clone(),
                SchedKind::Nodc.build(&params),
                one_part_workload(),
            );
            m.run(lambda).throughput_tps
        };
        let low = tps(0.05);
        let high = tps(0.3);
        assert!(
            high > low,
            "NODC throughput should grow with λ below saturation"
        );
    }

    #[test]
    fn declustered_placement_parallelizes_a_single_bat() {
        // One 8-object scan: under modulo placement it takes 8 s on one
        // node; declustered over 8 nodes it takes ~1 s of wall time.
        let shapes = vec![vec![StepSpec::read(0, 8.0)]];
        let run = |placement: wtpg_core::partition::Placement| {
            let params = SimParams {
                sim_length_ms: 200_000,
                ..SimParams::paper_defaults()
            };
            let catalog = Catalog::uniform(16, 8, 8).with_placement(placement);
            let workload = FixedWorkload::new(catalog, shapes.clone());
            let mut m = Machine::new(params.clone(), SchedKind::C2pl.build(&params), workload);
            m.run(0.05)
        };
        let modulo = run(wtpg_core::partition::Placement::Modulo);
        let declustered = run(wtpg_core::partition::Placement::Declustered);
        assert!(modulo.completed > 0 && declustered.completed > 0);
        // Intra-transaction parallelism slashes the response time.
        assert!(
            declustered.mean_rt_ms < modulo.mean_rt_ms / 3.0,
            "declustered RT {} should be far below modulo RT {}",
            declustered.mean_rt_ms,
            modulo.mean_rt_ms
        );
    }

    #[test]
    fn declustered_work_is_conserved() {
        let shapes = vec![vec![StepSpec::read(0, 3.0), StepSpec::write(1, 2.0)]];
        let params = SimParams {
            sim_length_ms: 100_000,
            ..SimParams::paper_defaults()
        };
        let catalog =
            Catalog::uniform(8, 8, 8).with_placement(wtpg_core::partition::Placement::Declustered);
        let workload = FixedWorkload::new(catalog, shapes);
        let mut m = Machine::new(params.clone(), SchedKind::C2pl.build(&params), workload);
        m.record_history();
        let r = m.run(0.05);
        assert!(r.completed > 0);
        // Every committed transaction processed exactly 5 objects of work.
        let h = m.history().unwrap();
        let committed = h.committed().len() as u64;
        let total: u64 = h
            .events()
            .iter()
            .filter_map(|&(_, e)| match e {
                wtpg_core::history::Event::Progress { amount, .. } => Some(amount.units()),
                _ => None,
            })
            .sum();
        assert!(
            total >= committed * 5000,
            "work lost: {total} units for {committed} txns"
        );
        h.check_conflict_serializable().unwrap();
    }

    #[test]
    fn observer_does_not_change_the_trajectory() {
        use wtpg_obs::{MemorySink, NullObserver};
        let run = |obs: Option<Rc<dyn wtpg_obs::Observer>>| {
            let params = tiny_params();
            let mut m = Machine::new(
                params.clone(),
                SchedKind::KWtpg.build(&params),
                one_part_workload(),
            );
            if let Some(o) = obs {
                m.set_observer(o);
            }
            let r = m.run(0.3);
            (r.completed, r.grants, r.blocks, r.delays, r.mean_rt_ms as u64)
        };
        let bare = run(None);
        assert_eq!(bare, run(Some(Rc::new(NullObserver))));
        assert_eq!(bare, run(Some(Rc::new(MemorySink::new()))));
    }

    #[test]
    fn traces_are_byte_deterministic() {
        use wtpg_obs::MemorySink;
        let trace = || {
            let params = tiny_params();
            let mut m = Machine::new(
                params.clone(),
                SchedKind::C2pl.build(&params),
                one_part_workload(),
            );
            let sink = Rc::new(MemorySink::new());
            m.set_observer(sink.clone());
            m.run(0.3);
            wtpg_obs::jsonl::encode(&sink.snapshot())
        };
        assert_eq!(trace(), trace());
    }

    #[test]
    fn traces_carry_control_plane_statistics() {
        use wtpg_obs::{MemorySink, TraceSummary};
        let summary_for = |kind: SchedKind, workload: FixedWorkload, lambda: f64| {
            let params = tiny_params();
            let mut m = Machine::new(params.clone(), kind.build(&params), workload);
            let sink = Rc::new(MemorySink::new());
            m.set_observer(sink.clone());
            m.run(lambda);
            TraceSummary::from_events(&sink.snapshot())
        };
        // A long and a short transaction both ending in a write of partition
        // 0: the long one loses the E(q) comparison against the short one's
        // declaration, is delayed, and its retry (same WTPG version) hits
        // the cache — exactly the §3.4 saving the counters must witness.
        let hot = || {
            FixedWorkload::new(
                Catalog::uniform(16, 5, 8),
                vec![
                    vec![StepSpec::read(2, 5.0), StepSpec::write(0, 5.0)],
                    vec![StepSpec::read(3, 1.0), StepSpec::write(0, 1.0)],
                ],
            )
        };
        // CHAIN reuses W plans, K-WTPG hits the E(q) cache, C2PL both misses
        // and (on retries) hits its deadlock-prediction cache.
        let chain = summary_for(SchedKind::Chain, one_part_workload(), 0.3).control_stats();
        assert!(chain.w_reuses > 0, "CHAIN: {chain:?}");
        let k2 = summary_for(SchedKind::KWtpg, hot(), 0.4).control_stats();
        assert!(k2.eq_cache_hits > 0, "K-WTPG: {k2:?}");
        let c2pl_sum = summary_for(SchedKind::C2pl, one_part_workload(), 0.3);
        let c2pl = c2pl_sum.control_stats();
        assert!(c2pl.dd_cache_misses > 0, "C2PL: {c2pl:?}");
        // Every scheduler records lock waits and commits txn spans.
        let spans = c2pl_sum;
        let lock_wait = spans.span("lock_wait").expect("lock_wait histogram");
        assert!(lock_wait.count() > 0);
        let txn = spans.span("txn").expect("txn span histogram");
        assert!(txn.count() > 0);
    }

    #[test]
    fn cn_and_dn_utilization_are_sane() {
        let params = tiny_params();
        let mut m = Machine::new(
            params.clone(),
            SchedKind::C2pl.build(&params),
            one_part_workload(),
        );
        let r = m.run(0.2);
        assert!(r.dn_utilization > 0.0 && r.dn_utilization <= 1.0);
        assert!(r.cn_utilization >= 0.0 && r.cn_utilization <= 1.0);
        assert!(r.deadlock_tests > 0, "C2PL must run deadlock predictions");
    }
}
