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
//! **Open loop.** [`run_client_open_loop`] replaces the closed-loop
//! submission policy (submit whenever a slot frees) with a fixed arrival
//! schedule: transaction `i` of the client's share *arrives* at a
//! precomputed offset, and an arrival that finds the in-flight bound full
//! is **shed** — counted, never submitted, its id reported so the runtime
//! excludes its writes from conservation. Offered load therefore does not
//! bend to the system's latency, which is what makes the measured
//! sustainable-throughput-under-SLO meaningful. When its schedule is
//! exhausted and its window drained, the client sends one `Shutdown` to
//! the control plane as an end-of-stream marker (the drain-exit protocol;
//! closed-loop runs never send it).
//!
//! Both drivers book their counts in the run's [`Registry`] and nowhere
//! else: offered/shed/submitted/commit counters, the in-flight gauge and
//! the commit-latency histograms live, the per-type message tallies once at
//! exit, under the [`metric`](wtpg_obs::window::metric) catalogue names.
//! What the outcome carries is what is not a count: the exact latency
//! samples and the shed ids.

use std::collections::BTreeMap;
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

/// Submissions awaiting their ack: when each was sent, and whether it is
/// read-only (which latency ledger it lands on).
type Inflight = BTreeMap<TxnId, (Instant, bool)>;

struct ClientActor<'a> {
    client: u32,
    to_control: &'a Arc<dyn MsgTx>,
    tel: ClientTel,
    rx: MsgCounts,
    tx: MsgCounts,
    out: ClientOutcome,
}

impl<'a> ClientActor<'a> {
    fn start(client: u32, to_control: &'a Arc<dyn MsgTx>, reg: &Registry) -> ClientActor<'a> {
        ClientActor {
            client,
            to_control,
            tel: ClientTel::new(reg),
            rx: MsgCounts::default(),
            tx: MsgCounts::default(),
            out: ClientOutcome::default(),
        }
    }

    /// Publishes the message tallies and hands the outcome over.
    fn finish(self, reg: &Registry) -> ClientOutcome {
        crate::publish(reg, metric::msg_rx, self.rx.fields());
        crate::publish(reg, metric::msg_tx, self.tx.fields());
        self.out
    }

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
    fn take(&mut self, popped: PopResult<Msg>, inflight: &mut Inflight) -> Result<bool, NetError> {
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
        match m {
            Msg::Commit { txn, .. } => {
                m.count(&mut self.rx);
                if let Some((started, reader)) = inflight.remove(&txn) {
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

    fn submit(&mut self, spec: &TxnSpec) -> Result<(), NetError> {
        self.send(&Msg::Submit {
            client: self.client,
            txn: spec.id,
            step: None,
            spec: Some(spec.clone()),
        })?;
        self.tel.offered.inc();
        self.tel.submitted.inc();
        self.tel.inflight.add(1);
        Ok(())
    }

    /// Books one commit ack: latency series (split reader/writer by the
    /// spec's declared steps), windowed counters, gauge.
    fn book_commit(&mut self, started: Instant, reader: bool) {
        let us = elapsed_us(started);
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

    fn shed(&mut self, txn: TxnId) {
        self.out.shed_ids.push(txn);
        self.tel.offered.inc();
        self.tel.shed.inc();
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Client `client`'s share of a run-wide sequence dealt round-robin over
/// `clients` actors: items `client`, `client + clients`, … — read in place,
/// so the workload exists once however many clients drive it.
pub(crate) fn share<T>(all: &[T], client: u32, clients: usize) -> impl Iterator<Item = &T> {
    all.iter().skip(client as usize).step_by(clients.max(1))
}

/// Drives client `client`'s [`share`] of `specs` to commit, keeping up to
/// `pipeline` transactions in flight (`pipeline` is clamped to ≥ 1; 1
/// recovers the strict one-at-a-time stream whose history is tick-identical
/// to a serial drive of the control node). `reg` is the run's books.
/// Read-only specs are booked on the reader latency ledger regardless of
/// the plane they rode — with MVCC off they take the S-lock path, and the
/// baseline reader tail is exactly what the snapshot plane is compared to.
///
/// # Errors
/// [`NetError::RecvTimeout`] if a commit ack never arrived within the
/// watchdog, [`NetError::Protocol`] on an out-of-protocol reply or a run
/// shut down from the control side.
#[allow(clippy::too_many_arguments)]
pub fn run_client(
    client: u32,
    clients: usize,
    specs: &[TxnSpec],
    inbox: &Inbox,
    to_control: &Arc<dyn MsgTx>,
    watchdog: Duration,
    pipeline: usize,
    reg: &Registry,
) -> Result<ClientOutcome, NetError> {
    let mut actor = ClientActor::start(client, to_control, reg);
    let depth = pipeline.max(1);
    let mut inflight = Inflight::new();
    let mut mine = share(specs, client, clients).peekable();
    while mine.peek().is_some() || !inflight.is_empty() {
        while inflight.len() < depth {
            let Some(spec) = mine.next() else { break };
            actor.submit(spec)?;
            inflight.insert(spec.id, (Instant::now(), spec.is_read_only()));
        }
        if !actor.take(inbox.pop_timeout(watchdog), &mut inflight)? {
            return Err(NetError::RecvTimeout {
                actor: format!("client {client}"),
            });
        }
    }
    Ok(actor.finish(reg))
}

/// The open-loop driver's per-client schedule (see the module docs).
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

/// Drives client `client`'s [`share`] of `specs` under a fixed arrival
/// schedule (open loop): arrival `i` submits `specs[i]` if the in-flight
/// window has room and sheds it otherwise. After the last arrival the
/// window is drained, then one `Shutdown` is sent to the control plane as
/// the end-of-stream marker for its drain exit.
///
/// # Errors
/// [`NetError::RecvTimeout`] if, with transactions in flight, no ack
/// arrived within the watchdog; [`NetError::Protocol`] on out-of-protocol
/// replies or a control-initiated shutdown.
#[allow(clippy::too_many_arguments)]
pub fn run_client_open_loop(
    client: u32,
    clients: usize,
    specs: &[TxnSpec],
    plan: &OpenLoopPlan<'_>,
    inbox: &Inbox,
    to_control: &Arc<dyn MsgTx>,
    watchdog: Duration,
    reg: &Registry,
) -> Result<ClientOutcome, NetError> {
    let mut actor = ClientActor::start(client, to_control, reg);
    let depth = plan.inflight.max(1);
    let mut due = share(specs, client, clients)
        .zip(share(plan.arrivals_us, client, clients))
        .peekable();
    let mut inflight = Inflight::new();
    let mut last_ack = Instant::now();
    while due.peek().is_some() || !inflight.is_empty() {
        // Absorb whatever acks are already waiting, so an arrival is only
        // shed when the window is genuinely still full.
        while actor.take(inbox.try_pop(), &mut inflight)? {
            last_ack = Instant::now();
        }
        // Fire every arrival already due. Shedding is decided *now*, at
        // the arrival instant — open loop means the schedule never waits
        // for the system.
        let now_us = plan.wall.now_us();
        while let Some((spec, _)) = due.next_if(|(_, &at)| at <= now_us) {
            if inflight.len() < depth {
                actor.submit(spec)?;
                inflight.insert(spec.id, (Instant::now(), spec.is_read_only()));
            } else {
                actor.shed(spec.id);
            }
        }
        // Sleep on the inbox until the next arrival is due (or an ack
        // lands first); in the drain phase just wait for acks.
        let nap = match due.peek() {
            Some((_, &at)) => {
                Duration::from_micros(at.saturating_sub(plan.wall.now_us())).min(OPEN_LOOP_NAP)
            }
            None if inflight.is_empty() => break,
            None => OPEN_LOOP_NAP,
        };
        if !nap.is_zero() && actor.take(inbox.pop_timeout(nap), &mut inflight)? {
            last_ack = Instant::now();
        }
        // Starvation guard only while something is actually owed to us.
        if !inflight.is_empty() && last_ack.elapsed() > watchdog {
            return Err(NetError::RecvTimeout {
                actor: format!("client {client}"),
            });
        }
    }
    // End-of-stream marker: the control plane's drain exit counts one
    // Shutdown per client.
    actor.send(&Msg::Shutdown)?;
    Ok(actor.finish(reg))
}
