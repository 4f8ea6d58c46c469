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
//! **One driver, two arrival policies.** [`run_client`] drives both load
//! shapes; they differ only in when an arrival is due. In a closed loop the
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
//! The driver books its counts in the run's [`Registry`] and nowhere else:
//! offered/shed/submitted/commit counters, the in-flight gauge and the
//! commit-latency histograms live, the per-type message tallies once at
//! exit, under the [`metric`](wtpg_obs::window::metric) catalogue names.
//! What the outcome carries is what is not a count: the exact latency
//! samples and the shed ids.

use std::collections::BTreeMap;
use std::iter::{Peekable, StepBy};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_obs::wall::WallClock;
use wtpg_obs::window::metric;
use wtpg_obs::{Counter, Gauge, HistHandle, MsgCounts, Registry};
use wtpg_rt::queue::PopResult;

use crate::error::NetError;
use crate::msg::Msg;
use crate::transport::{Inbox, MsgTx};

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

struct ClientActor<'a> {
    client: u32,
    specs: &'a [TxnSpec],
    /// Indices into `specs` of the arrivals still to come (the client's
    /// [`share`]).
    due: Peekable<StepBy<Range<usize>>>,
    /// The open-loop schedule; `None` is the closed loop.
    open: Option<&'a OpenLoopPlan<'a>>,
    /// In-flight bound.
    depth: usize,
    /// Submissions awaiting their ack: when each was sent, and whether it
    /// is read-only (which latency ledger it lands on).
    inflight: BTreeMap<TxnId, (Instant, bool)>,
    /// When the last message arrived: the watchdog's origin.
    last_ack: Instant,
    to_control: &'a Arc<dyn MsgTx>,
    tel: ClientTel,
    rx: MsgCounts,
    tx: MsgCounts,
    out: ClientOutcome,
}

impl ClientActor<'_> {
    fn send(&mut self, m: &Msg) -> Result<(), NetError> {
        if !self.to_control.send(m) {
            return Err(NetError::Protocol(format!(
                "client {}: control node vanished",
                self.client
            )));
        }
        m.count(&mut self.tx);
        Ok(())
    }

    /// Books whatever one inbox pop produced; `Ok(true)` if it was a
    /// message. A `Commit` ack retires its in-flight entry — an ack for a
    /// transaction not in flight is a duplicate delivery (flaky links
    /// re-send), tallied in `rx` and otherwise ignored. Any other message,
    /// a control-side `Shutdown` included, is a protocol error for a client
    /// still owed acks.
    // lint:allow(protocol: Submit, Access, AccessDone, StatsDelta, Batch, Recover, RecoverAck, SnapshotRead, SnapshotReply) a client receives only Commit acks and Shutdown; the rest is control/data-plane, recovery, and snapshot traffic it never sees
    fn take(&mut self, popped: PopResult<Msg>) -> Result<bool, NetError> {
        let m = match popped {
            PopResult::Item(m) => m,
            PopResult::Empty => return Ok(false),
            PopResult::Closed => {
                return Err(NetError::Protocol(format!(
                    "client {}: link closed mid-run",
                    self.client
                )))
            }
        };
        self.last_ack = Instant::now();
        match m {
            Msg::Commit { txn, .. } => {
                m.count(&mut self.rx);
                if let Some((started, reader)) = self.inflight.remove(&txn) {
                    self.book_commit(started, reader);
                }
                Ok(true)
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

    /// Fires every arrival that is due (see the module docs): closed loop,
    /// while the window has room; open loop, each whose instant has come —
    /// the schedule never waits for the system — shed if the window is
    /// full. `now` stamps the submissions.
    fn fire(&mut self, now: Instant) -> Result<(), NetError> {
        let (specs, now_us) = (self.specs, self.open.map_or(0, |p| p.wall.now_us()));
        while let Some(&i) = self.due.peek() {
            let room = self.inflight.len() < self.depth;
            let due = match self.open {
                Some(p) => p.arrivals_us.get(i).is_some_and(|&at| at <= now_us),
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
            self.send(&Msg::Submit {
                client: self.client,
                txn: spec.id,
                step: None,
                spec: Some(spec.clone()),
            })?;
            self.inflight.insert(spec.id, (now, spec.is_read_only()));
            self.tel.submitted.inc();
            self.tel.inflight.add(1);
        }
        Ok(())
    }

    /// How long the loop may block on its inbox, or `None` once nothing is
    /// left to arrive and nothing is owed. Closed loop: the watchdog, a
    /// constant (a socket caches its receive timeout). Open loop: until the
    /// next arrival is due, at most [`OPEN_LOOP_NAP`].
    fn wait(&mut self, watchdog: Duration) -> Option<Duration> {
        let next = self.due.peek().copied();
        if next.is_none() && self.inflight.is_empty() {
            return None;
        }
        let Some(p) = self.open else {
            return Some(watchdog);
        };
        let due_in = |&at: &u64| Duration::from_micros(at.saturating_sub(p.wall.now_us()));
        Some(
            next.and_then(|i| p.arrivals_us.get(i))
                .map_or(OPEN_LOOP_NAP, due_in)
                .min(OPEN_LOOP_NAP),
        )
    }

    /// Books one commit ack: latency series (split reader/writer by the
    /// spec's declared steps), windowed counters, gauge.
    fn book_commit(&mut self, started: Instant, reader: bool) {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
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

/// The indices of client `client`'s share of a run-wide sequence of `len`
/// items dealt round-robin over `clients` actors: `client`,
/// `client + clients`, … — read in place, so the workload exists once
/// however many clients drive it.
pub(crate) fn share(len: usize, client: u32, clients: usize) -> StepBy<Range<usize>> {
    (client as usize..len).step_by(clients.max(1))
}

/// The open-loop arrival policy's per-client schedule (see the module docs).
pub struct OpenLoopPlan<'a> {
    /// Arrival offsets in µs on `wall`, nondecreasing, one per spec of the
    /// *run*: the shared Poisson schedule, of which the client takes the
    /// same [`share`] as of the specs, so arrival `i` still drives spec `i`.
    pub arrivals_us: &'a [u64],
    /// In-flight bound; an arrival that finds it full is shed.
    pub inflight: usize,
    /// The shared run clock arrivals are measured against.
    pub wall: WallClock,
}

/// How long the open-loop driver blocks on its inbox per wait: short
/// enough to fire the next arrival on time, long enough not to spin.
const OPEN_LOOP_NAP: Duration = Duration::from_micros(500);

/// Drives client `client`'s [`share`] of `specs` to commit — closed loop
/// (`open` is `None`), keeping up to `pipeline` transactions in flight, or
/// open loop, under `open`'s arrival schedule and in-flight bound — then
/// sends the control plane one `Shutdown` as its end-of-stream marker.
/// `pipeline` is clamped to ≥ 1; 1 recovers the strict one-at-a-time stream
/// whose history is tick-identical to a serial drive of the control node.
/// `reg` is the run's books. Read-only specs are booked on the reader
/// latency ledger regardless of the plane they rode — with MVCC off they
/// take the S-lock path, and the baseline reader tail is exactly what the
/// snapshot plane is compared to.
///
/// # Errors
/// [`NetError::RecvTimeout`] if, with transactions in flight, no ack
/// arrived within the watchdog, [`NetError::Protocol`] on an out-of-protocol
/// reply or a run shut down from the control side.
#[allow(clippy::too_many_arguments)]
pub fn run_client(
    client: u32,
    clients: usize,
    specs: &[TxnSpec],
    open: Option<&OpenLoopPlan<'_>>,
    inbox: &Inbox,
    to_control: &Arc<dyn MsgTx>,
    watchdog: Duration,
    pipeline: usize,
    reg: &Registry,
) -> Result<ClientOutcome, NetError> {
    let mut actor = ClientActor {
        client,
        specs,
        due: share(specs.len(), client, clients).peekable(),
        open,
        depth: open.map_or(pipeline, |p| p.inflight).max(1),
        inflight: BTreeMap::new(),
        last_ack: Instant::now(),
        to_control,
        tel: ClientTel::new(reg),
        rx: MsgCounts::default(),
        tx: MsgCounts::default(),
        out: ClientOutcome::default(),
    };
    loop {
        // Absorb whatever acks are already waiting, so an arrival is only
        // shed when the window is genuinely still full.
        while actor.take(inbox.try_pop())? {}
        actor.fire(Instant::now())?;
        let Some(wait) = actor.wait(watchdog) else {
            break;
        };
        if !wait.is_zero() {
            actor.take(inbox.pop_timeout(wait))?;
        }
        // Starvation guard, only while something is actually owed to us.
        if !actor.inflight.is_empty() && actor.last_ack.elapsed() >= watchdog {
            return Err(NetError::RecvTimeout {
                actor: format!("client {client}"),
            });
        }
    }
    actor.send(&Msg::Shutdown)?;
    crate::publish(reg, metric::msg_rx, actor.rx.fields());
    crate::publish(reg, metric::msg_tx, actor.tx.fields());
    Ok(actor.out)
}
