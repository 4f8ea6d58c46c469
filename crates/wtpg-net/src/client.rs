//! A client actor: submits transactions and awaits commit acks.
//!
//! The paper's transaction source, across the wire and under the
//! *pipelined* protocol: up to `pipeline` transactions in flight
//! at a time, each costing exactly two client messages — one `Submit`
//! carrying the full declaration, one `Commit` ack when the control plane
//! has driven every step and committed. Admission rejections, lock delays,
//! and bulk accesses never touch the client; the control actor parks and
//! retries internally, so the client has no backoff loop and no sleeps at
//! all. Acks may return in any order (the control plane commits whatever
//! unblocks first), so the client keys its in-flight window by transaction
//! id rather than position.
//!
//! The client keeps the run's latency books: submit-to-commit-ack per
//! transaction, on the reader or the writer ledger by the spec's declared
//! steps.
//!
//! **One frame per firing.** Submissions go out through a [`Coalescer`]
//! flushed at the end of each firing, so the arrivals a firing submits
//! leave as one frame — a [`Msg::Batch`] for two or more — and acks come
//! back the same way: the control actor coalesces them per client and
//! flushes before it blocks, so a client unpacks a `Batch` of acks. Neither
//! adds a wait: the executor moves no other actor before the firing's
//! flush, and the control actor's flush comes before the executor next
//! waits or reads a socket. That holds in a closed loop; an open loop's
//! runs bound both links at one message per frame, since its arrivals stand
//! for independent users and how many share a firing is the executor's
//! lateness (the runtime's `client_batch_max`).
//!
//! **One state machine, two arrival policies.** [`ClientActor`] drives both
//! load shapes; they differ only in when an arrival is due. In a closed loop the
//! next arrival is due whenever the in-flight window has room, and is never
//! shed. In an open loop ([`OpenLoopPlan`]) transaction `i` of the client's
//! share *arrives* at a precomputed offset, and an arrival that finds the
//! window full is **shed** — counted, never submitted, its id reported so
//! the runtime excludes its writes from conservation. Offered load
//! therefore does not bend to the system's latency, which is what makes the
//! measured sustainable-throughput-under-SLO meaningful. Either way, once
//! its arrivals are exhausted and its window drained, the client sends one
//! `Shutdown` to the control plane as its end-of-stream marker: a control
//! shard stops once every client has sent one and nothing is live.
//!
//! The client books its counts in the run's [`Registry`] and nowhere else:
//! offered/shed/submitted/commit counters, the in-flight gauge and the
//! commit-latency histograms live, the per-type message tallies (its own
//! and its coalescer's) once at exit, under the
//! [`metric`](wtpg_obs::window::metric) catalogue names.
//! What the outcome carries is what is not a count: the exact latency
//! samples and the shed ids.

use std::iter::{Peekable, StepBy};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::window::IdWindow;
use wtpg_obs::window::metric;
use wtpg_obs::{Counter, Gauge, HistHandle, MsgCounts, Registry};

use crate::actor::{Actor, Flow};
use crate::batch::Coalescer;
use crate::error::NetError;
use crate::msg::Msg;
use crate::transport::MsgTx;

/// What one client actor measured that the registry cannot hold.
#[derive(Default)]
pub struct ClientOutcome {
    /// Submit-to-commit-ack latency, microseconds, of each read-only
    /// transaction — booked whether the spec rode the snapshot plane or the
    /// S-lock path; the split is what the MVCC-vs-baseline comparison reads.
    /// Exact samples: the registry's histograms are log₂-bucketed, too
    /// coarse for the report's percentiles.
    pub reader_latencies_us: Vec<u64>,
    /// The same for each transaction with at least one write step. Every
    /// committed transaction is on exactly one of the two ledgers.
    pub writer_latencies_us: Vec<u64>,
    /// Ids of shed transactions — never submitted, so the runtime drops
    /// their declared writes from conservation accounting.
    pub shed_ids: Vec<TxnId>,
}

/// Pre-resolved windowed-metric handles for one client.
struct ClientTel {
    offered: Counter,
    shed: Counter,
    submitted: Counter,
    commits: Counter,
    reader_commits: Counter,
    inflight: Gauge,
    commit_lat: HistHandle,
    reader_lat: HistHandle,
}

impl ClientTel {
    fn new(reg: &Registry) -> ClientTel {
        ClientTel {
            offered: reg.counter(metric::OFFERED),
            shed: reg.counter(metric::SHED),
            submitted: reg.counter(metric::SUBMITTED),
            commits: reg.counter(metric::COMMITS),
            reader_commits: reg.counter(metric::READER_COMMITS),
            inflight: reg.gauge(metric::INFLIGHT),
            commit_lat: reg.hist(metric::COMMIT_LAT_US),
            reader_lat: reg.hist(metric::READER_LAT_US),
        }
    }
}

/// One client as a state machine (see the module docs); public for tests.
#[doc(hidden)]
pub struct ClientActor<'a> {
    client: u32,
    specs: &'a [TxnSpec],
    /// Indices into `specs` of the arrivals still to come (the client's
    /// [`share`]).
    due: Peekable<StepBy<Range<usize>>>,
    /// The open-loop schedule; `None` is the closed loop.
    open: Option<&'a OpenLoopPlan<'a>>,
    /// In-flight bound.
    depth: usize,
    watchdog: Duration,
    /// Submissions awaiting their ack: when each was sent, and whether it
    /// is read-only (which latency ledger it lands on).
    inflight: IdWindow<(Instant, bool)>,
    /// While acks are owed, the watchdog's origin: the later of the last
    /// message and the window last filling from empty (idle gaps owe nothing).
    owed_since: Option<Instant>,
    /// The link to control, flushed at the end of every firing.
    to_control: Coalescer,
    reg: &'a Registry,
    tel: ClientTel,
    rx: MsgCounts,
    out: ClientOutcome,
}

impl<'a> ClientActor<'a> {
    /// Client `client` of `clients`, owing nothing yet. It drives its
    /// [`share`] of `specs` to commit — closed loop (`open` is `None`),
    /// keeping up to `pipeline` transactions in flight, or open loop, under
    /// `open`'s arrival schedule and in-flight bound. `pipeline` is clamped
    /// to ≥ 1; 1 recovers the strict one-at-a-time stream whose history is
    /// tick-identical to a serial drive of the control node. A frame to
    /// control carries at most `batch_max` messages. `reg` is the
    /// run's books. Read-only specs are booked on the reader latency ledger
    /// regardless of the plane they rode — with MVCC off they take the
    /// S-lock path, and the baseline reader tail is exactly what the
    /// snapshot plane is compared to.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        client: u32,
        clients: usize,
        specs: &'a [TxnSpec],
        open: Option<&'a OpenLoopPlan<'a>>,
        to_control: &Arc<dyn MsgTx>,
        watchdog: Duration,
        pipeline: usize,
        batch_max: usize,
        reg: &'a Registry,
    ) -> ClientActor<'a> {
        ClientActor {
            client,
            specs,
            due: share(specs.len(), client, clients).peekable(),
            open,
            depth: open.map_or(pipeline, |p| p.inflight).max(1),
            watchdog,
            inflight: IdWindow::new(),
            owed_since: None,
            to_control: Coalescer::new(Arc::clone(to_control), batch_max),
            reg,
            tel: ClientTel::new(reg),
            rx: MsgCounts::default(),
            out: ClientOutcome::default(),
        }
    }

    /// The error for a link to control whose peer is gone.
    fn vanished(&self) -> NetError {
        NetError::Protocol(format!("client {}: control node vanished", self.client))
    }

    /// Fires every arrival that is due (see the module docs): closed loop,
    /// while the window has room; open loop, each whose instant has come —
    /// the schedule never waits for the system — shed if the window is
    /// full. `now` stamps the submissions, which leave as one frame.
    fn fire(&mut self, now: Instant) -> Result<(), NetError> {
        let specs = self.specs;
        while let Some(&i) = self.due.peek() {
            let room = self.inflight.len() < self.depth;
            let due = match self.open {
                Some(p) => p.arrival(i).is_some_and(|at| at <= now),
                None => room,
            };
            let Some(spec) = specs.get(i).filter(|_| due) else {
                break;
            };
            self.due.next();
            self.tel.offered.inc();
            if !room {
                self.out.shed_ids.push(spec.id);
                self.tel.shed.inc();
                continue;
            }
            let submit = Msg::Submit {
                client: self.client,
                txn: spec.id,
                step: None,
                spec: Some(spec.clone()),
            };
            if !self.to_control.push(submit) {
                return Err(self.vanished());
            }
            self.inflight.insert(spec.id, (now, spec.is_read_only()));
            self.owed_since.get_or_insert(now);
            self.tel.submitted.inc();
            self.tel.inflight.add(1);
        }
        if !self.to_control.flush() {
            return Err(self.vanished());
        }
        Ok(())
    }

    /// Books one commit ack, `latency` after its submission: latency series
    /// (split reader/writer by the spec's declared steps), counters, gauge.
    fn book_commit(&mut self, latency: Duration, reader: bool) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        if reader {
            self.out.reader_latencies_us.push(us);
        } else {
            self.out.writer_latencies_us.push(us);
        }
        let t = &self.tel;
        t.commits.inc();
        t.inflight.sub(1);
        t.commit_lat.record(us);
        if reader {
            t.reader_commits.inc();
            t.reader_lat.record(us);
        }
    }
}

impl Actor for ClientActor<'_> {
    type Outcome = ClientOutcome;

    /// Books one message, popped at `now`. A `Commit` ack retires its
    /// in-flight entry — an ack for a transaction not in flight is a
    /// duplicate delivery (flaky links re-send), tallied in `rx` and
    /// otherwise ignored; a `Batch` of acks is booked ack by ack. Any other
    /// message, a control-side `Shutdown` included, is a protocol error for
    /// a client still owed acks.
    // lint:allow(protocol: Submit, Access, AccessDone, StatsDelta, Recover, SnapshotRead, SnapshotReply, Forget) a client receives only Commit acks (alone or batched) and Shutdown; the rest is control/data-plane, recovery, snapshot and notice traffic it never sees
    fn deliver(&mut self, m: Msg, now: Instant) -> Result<Flow, NetError> {
        match m {
            Msg::Batch(acks) => {
                self.rx.batch += 1;
                for ack in acks {
                    debug_assert!(!matches!(ack, Msg::Batch(_)), "codec rejects nesting");
                    self.deliver(ack, now)?;
                }
                Ok(Flow::Continue)
            }
            Msg::Commit { txn, .. } => {
                m.count(&mut self.rx);
                if let Some((sent, reader)) = self.inflight.remove(txn) {
                    self.book_commit(now.saturating_duration_since(sent), reader);
                }
                self.owed_since = (!self.inflight.is_empty()).then_some(now);
                Ok(Flow::Continue)
            }
            Msg::Shutdown => Err(NetError::Protocol(format!(
                "client {}: control node shut the run down with acks still owed",
                self.client
            ))),
            other => Err(NetError::Protocol(format!(
                "client {}: expected a Commit ack, got {other:?}",
                self.client
            ))),
        }
    }

    /// The starvation guard, only while something is actually owed.
    fn idle(&mut self, now: Instant) -> Result<Flow, NetError> {
        if self.owed_since.is_some_and(|t| now.saturating_duration_since(t) >= self.watchdog) {
            let actor = format!("client {}", self.client);
            return Err(NetError::RecvTimeout { actor });
        }
        Ok(Flow::Continue)
    }

    /// Fires what is due at `now` — the inbox drained first, so an arrival is
    /// only shed when the window is genuinely still full — then says how long
    /// to wait, or `None` once nothing is left to arrive or owed: until the
    /// next arrival is due, at most the watchdog. A closed loop's arrivals
    /// are due on acks, not at an instant, so it waits the watchdog.
    fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError> {
        self.fire(now)?;
        let next = self.due.peek().copied();
        if next.is_none() && self.inflight.is_empty() {
            return Ok(None);
        }
        let due_at = next.and_then(|i| self.open?.arrival(i));
        Ok(Some(due_at.map_or(self.watchdog, |at| {
            at.saturating_duration_since(now).min(self.watchdog)
        })))
    }

    /// Sends the end-of-stream `Shutdown` and publishes the message tallies.
    /// Refused while arrivals or acks are left: the link closed mid-run.
    fn finish(mut self) -> Result<ClientOutcome, NetError> {
        if self.due.peek().is_some() || !self.inflight.is_empty() {
            let client = self.client;
            return Err(NetError::Protocol(format!("client {client}: link closed mid-run")));
        }
        if !(self.to_control.push(Msg::Shutdown) && self.to_control.flush()) {
            return Err(self.vanished());
        }
        crate::publish(self.reg, metric::msg_rx, self.rx.fields());
        self.to_control.publish(self.reg);
        Ok(self.out)
    }
}

/// The indices of client `client`'s share of a run-wide sequence of `len`
/// items dealt round-robin over `clients` actors: `client`,
/// `client + clients`, … — read in place, so the workload exists once
/// however many clients drive it.
pub(crate) fn share(len: usize, client: u32, clients: usize) -> StepBy<Range<usize>> {
    (client as usize..len).step_by(clients.max(1))
}

/// The open-loop arrival policy's per-client schedule (see the module docs).
pub struct OpenLoopPlan<'a> {
    /// Arrival offsets in µs from `origin`, nondecreasing, one per spec of
    /// the *run*: the shared Poisson schedule, of which the client takes the
    /// same [`share`] as of the specs, so arrival `i` still drives spec `i`.
    pub arrivals_us: &'a [u64],
    /// In-flight bound; an arrival that finds it full is shed.
    pub inflight: usize,
    /// The run's start, which arrivals are offsets from.
    pub origin: Instant,
}

impl OpenLoopPlan<'_> {
    /// The instant arrival `i` is due.
    fn arrival(&self, i: usize) -> Option<Instant> {
        Some(self.origin + Duration::from_micros(*self.arrivals_us.get(i)?))
    }
}
