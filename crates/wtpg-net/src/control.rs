//! The control actor: an admission/lock-grant authority driven entirely by
//! messages, pipelined so no client round-trips per step.
//!
//! Wraps `wtpg-rt`'s [`ControlNode`] — a scheduler, a history (streamed: a
//! live certifier) and a logical clock as one plain value — owned by this
//! one actor: every protocol decision is a message handled in arrival
//! order, so the recorded history is a linearization by construction, and a
//! streamed shard certifies its decisions on its own step.
//!
//! **Pipelined protocol.** A client sends one `Submit` carrying the full
//! declaration and then waits for the commit ack — two client messages per
//! transaction. The control actor drives the whole lifecycle internally:
//! admission, one `Access` order per granted step (issued the moment the
//! previous step's `AccessDone` arrives), and the commit after the last
//! step. A rejected admission queues in the FIFO admission backlog (a
//! re-attempted head keeps its turn) and is re-attempted when a commit
//! frees a slot. A step request *blocked* by a held lock waits on its
//! partition until the commit that frees it, as the paper's CC1/CC2 Step 1
//! and the simulator have it: no lock is released before commit, so an
//! earlier re-ask could only be blocked again. A *delayed* one is parked
//! and re-asked on every step completion, commit and quiet poll, the
//! events that move the scheduler's `W` / `E(q)` inputs. Event-driven
//! retries, no client-side backoff sleeps.
//!
//! **A state machine behind the one loop.** [`ControlActor`]'s [`Actor`]
//! steps — a popped message and its instant, a quiet [`POLL`] — are the
//! actor's whole input; the executor (`actor::step_all`) alone touches the
//! inbox and reads the clock. Time — redelivery deadlines, send times, the
//! round trips booked, the coalescers' flush windows and link faults — is
//! the `now` handed in, so a test can own it. One exit rule serves both load
//! shapes (see `flow`).
//!
//! **Batched sends.** Every link out of the shard flows through a
//! [`Coalescer`]: bursts of `Access` orders for one data node, and the
//! commit acks of one client, leave as a single [`Msg::Batch`] frame.
//! Coalescers are flushed before the actor blocks on its inbox (deadlock
//! avoidance) and when the flush window expires. An ack is the end of the
//! latency its client measures, yet waiting for company costs it nothing:
//! the executor moves the shard until its inbox is empty, so the client
//! could not have read the ack before the shard's `before_block` anyway,
//! and that is where the acks are flushed — before the executor next waits,
//! which is when a TCP peer's bytes are first read. An open loop's runs
//! bound the client links at one message per frame
//! ([`ControlParams::ack_batch_max`]): each ack then leaves as it is made.
//! Link faults hold frames in the data links' coalescers: due ones go out
//! before each block.
//!
//! Reliability duties on top of the protocol:
//!
//! * **Access redelivery** — every `Access` order sent to a data node is
//!   filed in its transaction's record; if the matching `AccessDone` does not
//!   arrive before a [`Backoff`]-scheduled deadline, the order is re-sent
//!   (the data node's applied-marks make redelivery idempotent). A node
//!   that blows past the redelivery budget does *not* fail the run: its
//!   orders are parked as node-unavailable (surfaced in the report) and
//!   keep re-sending at the capped interval — a killed node restarts from
//!   its log and answers. When a restarted node announces [`Msg::Recover`],
//!   everything outstanding on it is re-sent at once, as one frame that
//!   ends with a notice. The receive watchdog still bounds a run whose node
//!   is truly gone.
//! * **Duplicate absorption** — a writer has at most one step in flight,
//!   and that step's order, filed in the writer's own record, is its whole
//!   dedup state: the order's chunk cursor filters in-flight `StatsDelta`
//!   duplicates, and the first `AccessDone` takes the order, so anything
//!   that trails it (the fault layer duplicates whole batches, so a
//!   duplicated `[StatsDelta…, AccessDone]` frame can follow the original's
//!   completion, or even the commit) finds no order and is dropped. Without
//!   this, a duplicated delivery would double-count bulk progress and break
//!   certification.
//!
//! **Forgetting by notice.** A data node keeps a mark for every step it
//! applied, so that a redelivered order is answered, not re-applied. Once
//! every order of a transaction is answered — a writer at its commit, a
//! reader at its last `SnapshotReply` — none is sent again, and the shard
//! queues the transaction's id for each node that served it, with the GC
//! floors the commit or retirement raised for the partitions that node
//! owns. The queue rides as one [`Msg::Forget`] behind an order in the
//! next frame to that node — raised floors at once, retired transactions
//! once [`NOTICE_AT`] have gathered: it makes a frame of its own only for
//! a rejoined node with nothing outstanding (see `Msg::Recover`), and the
//! link's FIFO order puts it behind every copy of the orders it retires. Every notice carries the shard's low-water mark (see `mark`),
//! and the node forgets everything below it: what a notice lost in a crash
//! window named, or a kill's replay brought back, goes with the next one.
//! "Already retired?" reads the same mark, or the `finished` set above it.
//! The shard shares nothing else with the nodes.
//!
//! **Indexed books.** Every per-transaction book — the live transactions
//! with their orders in flight, the finished set — is an [`IdWindow`], and
//! the blocked requests are one list per partition of the catalog: a
//! message finds its transaction by index, not by search. Where order feeds
//! a decision, the walk is the one the ordered maps gave: parked requests
//! re-driven in ascending id, redeliveries in ascending `(txn, step)`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::certify::CertifyMode;
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::sched::{Admission, LockOutcome, Scheduler};
use wtpg_core::time::Tick;
use wtpg_core::txn::{AccessMode, TxnId, TxnSpec};
use wtpg_core::window::IdWindow;
use wtpg_core::work::Work;
use wtpg_mvcc::{gc_floor, ActiveSnapshots, CommitLog, ReadObservation, ReaderRecord};
use wtpg_obs::window::metric;
use wtpg_obs::{Counter, Gauge, HistHandle, MsgCounts, Registry};
use wtpg_rt::backoff::Backoff;
use wtpg_rt::control::{ControlAudit, ControlNode};

use crate::actor::{Actor, Flow};
use crate::batch::Coalescer;
use crate::codec::{MAX_EXCLUDE, MAX_FORGET};
use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::msg::Msg;
use crate::transport::MsgTx;

/// How often the control loop wakes to scan redelivery deadlines and retry
/// parked transactions when its inbox is idle.
const POLL: Duration = Duration::from_millis(2);

/// Handled messages between redelivery/flush-window scans on a busy inbox.
const SCAN_EVERY: u32 = 64;

/// Retired transactions a node's notice gathers before they ride the next
/// order frame to the node. Their list is one allocation, made by control
/// and freed by the node, so this trades how long a node keeps what it may
/// forget — at most this many transactions' books — against allocations
/// per commit.
pub const NOTICE_AT: usize = 16;

/// Starvation bound: a transaction parked and retried this often without
/// ever being admitted (or granted its next step) aborts the run.
const MAX_PARK_ATTEMPTS: u32 = 1_000_000;

/// Tuning for one control-actor run.
pub struct ControlParams<'a> {
    /// The wrapped admission/lock scheduler.
    pub sched: Box<dyn Scheduler + Send>,
    /// Clients in the run, each of which ends its stream with one `Shutdown`
    /// (shed arrivals never reach control: no commit target is knowable).
    pub clients: usize,
    /// Redelivery schedule for unanswered `Access` orders.
    pub retry: Backoff,
    /// Give up after this long without any inbound message.
    pub watchdog: Duration,
    /// Coalescer buffer bound for data-node links.
    pub batch_max: usize,
    /// Coalescer buffer bound for client links: 1 sends every ack as its
    /// own frame, as an open loop's runs do (see the runtime's
    /// `client_batch_max`).
    pub ack_batch_max: usize,
    /// Flush window: the longest a buffered message waits for company.
    pub batch_window: Duration,
    /// Concurrently admitted transactions this shard allows; submissions
    /// beyond it queue in a FIFO backlog without touching the scheduler.
    pub admit_window: usize,
    /// Shard index, for error labels and link seeds (0 in unsharded runs).
    pub shard: usize,
    /// The run's fault plan: its link faults ride this shard's data links.
    pub fault: FaultPlan,
    /// Live certification: on, the wrapped [`ControlNode`] records no
    /// in-memory history — it feeds every event to the
    /// [`StreamingCertifier`](wtpg_core::StreamingCertifier) it owns, as
    /// the event is drawn, and the outcome's audit carries the verdict.
    /// Per-transaction state is retired at commit in every mode, so with
    /// the history gone the actor's footprint is bounded by the live
    /// population.
    pub stream: bool,
    /// The run's books: every count this shard observes lands here, under
    /// its [`metric`] name, and nowhere else.
    pub reg: &'a Registry,
    /// MVCC snapshot plane. On, write steps are sealed into a
    /// [`CommitLog`], read-only submissions bypass the scheduler entirely
    /// (snapshot at admission, one `SnapshotRead` per step, no locks), and
    /// raised GC floors go to the data nodes in notices. Off, every
    /// submission takes the scheduler path and the run is
    /// message-for-message identical to one without the plane.
    pub mvcc: bool,
}

/// What the control actor recorded that is not a count (those are in the
/// run's registry).
pub struct ControlOutcome {
    /// The wrapped scheduler's display name ("CHAIN", "K2", …).
    pub name: String,
    /// The linearized history (or, streamed, the live verdict), specs,
    /// counters, granted partitions and final tick.
    pub audit: ControlAudit,
    /// The certification mode the scheduler claimed.
    pub mode: CertifyMode,
    /// Order-to-`AccessDone` round trip per bulk step, microseconds — the
    /// exact samples behind the report's percentiles (`data/rtt_us` is the
    /// same series, log₂-bucketed).
    pub data_rtts_us: Vec<u64>,
    /// MVCC audit (None when the snapshot plane was off).
    pub mvcc: Option<MvccAudit>,
}

/// What the snapshot plane recorded: everything
/// [`certify_snapshots`](wtpg_mvcc::certify_snapshots) needs.
pub struct MvccAudit {
    /// Seal orders and commit ticks of this shard's partitions.
    pub log: CommitLog,
    /// One record per retired read-only BAT.
    pub readers: Vec<ReaderRecord>,
}

/// One unanswered `Access` (or `SnapshotRead`) order awaiting its reply.
/// For a writer this is also the in-flight step's whole dedup state.
#[derive(Clone)]
struct Outstanding {
    step: u32,
    node: usize,
    attempts: u32,
    deadline: Instant,
    /// When the order was first issued (data-plane RTT origin).
    sent_at: Instant,
    msg: Msg,
    /// Next expected `StatsDelta` chunk index (data nodes report chunks in
    /// order; anything below is a duplicate delivery).
    next_chunk: u64,
    /// The owning node blew past the redelivery budget: the order is
    /// parked, still re-sending at the capped interval, waiting for the
    /// node to rejoin.
    unavailable: bool,
}

/// Pre-resolved metric handles of one control shard.
struct CtrlTel {
    backlog: Gauge,
    parked: Gauge,
    commits: Counter,
    admissions: Counter,
    /// Longest park-and-retry streak any single transaction saw.
    max_retry_streak: Gauge,
    access_retries: Counter,
    node_unavailable: Counter,
    data_rtt: HistHandle,
}

impl CtrlTel {
    fn new(reg: &Registry, shard: usize) -> CtrlTel {
        CtrlTel {
            backlog: reg.gauge(&metric::shard_backlog(shard)),
            parked: reg.gauge(&metric::shard_parked(shard)),
            commits: reg.counter(&metric::shard_commits(shard)),
            admissions: reg.counter(&metric::shard_admissions(shard)),
            max_retry_streak: reg.gauge(&metric::shard_max_retry_streak(shard)),
            access_retries: reg.counter(metric::ACCESS_RETRIES),
            node_unavailable: reg.counter(metric::NODE_UNAVAILABLE),
            data_rtt: reg.hist(metric::DATA_RTT_US),
        }
    }
}

/// The control actor's MVCC state: seal/commit bookkeeping plus every
/// in-flight read-only BAT.
///
/// Memory note: `log` and `records` grow with run length — they are the
/// post-run snapshot certifier's input, which (unlike the writer history
/// under `stream_certify`) is not yet certified as a stream.
/// Endurance cells that must stay memory-bounded should run the snapshot
/// plane off (`--read-mix 0` keeps every byte identical to a plane-less
/// run); the data-plane side stays bounded regardless (served-read memos
/// go with the notice that retires their reader).
struct MvccPlane {
    /// Seal order and commit ticks (the snapshot certifier's input).
    log: CommitLog,
    /// Snapshots currently being read (GC floor input).
    active: ActiveSnapshots,
    /// Certification records of retired readers.
    records: Vec<ReaderRecord>,
    /// Per partition of the catalog: the highest floor its node was sent
    /// (queued in a notice or piggybacked on a `SnapshotRead`).
    sent: Vec<u64>,
    /// The partitions whose floors the next [`Self::publish_floors`]
    /// raises.
    raise: Vec<u32>,
}

impl MvccPlane {
    /// Recomputes `partition`'s GC floor and books it as sent, and says
    /// whether it rose past what the partition's node was last sent.
    fn publish_floor(&mut self, partition: u32) -> (u64, bool) {
        let floor = gc_floor(&mut self.log, &self.active, partition);
        let Some(sent) = self.sent.get_mut(partition as usize) else {
            return (floor, false);
        };
        let rose = floor > *sent;
        *sent = floor.max(*sent);
        (floor, rose)
    }

    /// Recomputes the floor of each distinct partition in `raise`, once,
    /// queues the ones that rose on the owning nodes' notices, and empties
    /// `raise`.
    fn publish_floors(&mut self, catalog: &Catalog, notices: &mut [Notice]) {
        let mut parts = std::mem::take(&mut self.raise);
        parts.sort_unstable();
        parts.dedup();
        for &p in &parts {
            if let (floor, true) = self.publish_floor(p) {
                let node = catalog.node_of(PartitionId(p)) as usize;
                if let Some(n) = notices.get_mut(node) {
                    n.floor(PartitionId(p), floor);
                }
            }
        }
        parts.clear();
        self.raise = parts;
    }
}

/// What one data node may forget, gathered until an order to the node can
/// carry it (see the module docs).
#[derive(Default)]
struct Notice {
    txns: Vec<TxnId>,
    floors: Vec<(PartitionId, u64)>,
}

impl Notice {
    /// Names `txn`, once however many of its steps the node served (they
    /// are named back to back).
    fn retire(&mut self, txn: TxnId) {
        if self.txns.last() != Some(&txn) {
            self.txns.push(txn);
        }
    }

    /// Raises `partition`'s floor to `floor`.
    fn floor(&mut self, partition: PartitionId, floor: u64) {
        match self.floors.iter_mut().find(|(p, _)| *p == partition) {
            Some(entry) => entry.1 = floor,
            None => self.floors.push((partition, floor)),
        }
    }

    /// Whether a notice is due: raised floors go at once — they keep the
    /// version chains as short as the snapshots allow — and retired
    /// transactions once [`NOTICE_AT`] have gathered.
    fn due(&self) -> bool {
        self.txns.len() >= NOTICE_AT || !self.floors.is_empty()
    }

    /// The notice from `shard`, whose mark is `below`: at most
    /// [`MAX_FORGET`] of each kind, the rest waiting for the next one.
    fn take(&mut self, shard: u32, below: TxnId) -> Msg {
        let txns = if self.txns.len() >= NOTICE_AT {
            head(&mut self.txns, NOTICE_AT)
        } else {
            Vec::new()
        };
        Msg::Forget {
            shard,
            below,
            txns,
            floors: head(&mut self.floors, 0),
        }
    }
}

/// `v`'s first [`MAX_FORGET`] entries, taken out: `v` keeps the rest, in
/// a fresh list with room for `room`.
fn head<T>(v: &mut Vec<T>, room: usize) -> Vec<T> {
    let mut head = std::mem::replace(v, Vec::with_capacity(room));
    if head.len() > MAX_FORGET as usize {
        v.extend(head.drain(MAX_FORGET as usize..));
    }
    head
}

/// One in-flight read-only BAT: its snapshot, its orders and the replies
/// collected so far. Readers never touch the scheduler, the lock table, or
/// the WTPG — their whole lifecycle is this struct.
struct ReaderState {
    client: u32,
    snapshot: Tick,
    /// One per step of the declaration.
    steps: Vec<ReadStep>,
    /// Steps still awaiting their first reply.
    pending: usize,
}

/// One step of an in-flight read-only BAT.
struct ReadStep {
    /// The partition it scans (fills its observation from the reply).
    partition: u32,
    /// Its `SnapshotRead` order, until its first reply.
    order: Option<Outstanding>,
    /// Its observation, once its `SnapshotReply` landed (in any order).
    obs: Option<ReadObservation>,
}

/// One writer's drive-state: where the control actor will pick it up the
/// next time it is drivable, and the one step order it has in flight. Its
/// declaration is the control node's ([`ControlNode::spec`]), handed over
/// on `Submit`.
struct TxnState {
    client: u32,
    /// Next step to request once admitted (== len ⇒ ready to commit).
    next_step: usize,
    admitted: bool,
    /// Consecutive failed drive attempts (admission rejections or
    /// blocked/delayed step requests) since the last success.
    attempts: u32,
    /// The granted step's `Access` order, until its `AccessDone`.
    order: Option<Outstanding>,
}

/// One live transaction of the shard: a writer on the scheduler path, or a
/// reader on the snapshot plane.
enum Live {
    Writer(TxnState),
    Reader(ReaderState),
}

impl Live {
    /// Where an order for `step` is filed: a writer's one slot, a reader's
    /// slot for that step.
    fn slot(&mut self, step: u32) -> Option<&mut Option<Outstanding>> {
        match self {
            Live::Writer(t) => Some(&mut t.order),
            Live::Reader(r) => r.steps.get_mut(step as usize).map(|s| &mut s.order),
        }
    }

    /// The order in flight for `step`.
    fn in_flight(&mut self, step: u32) -> Option<&mut Outstanding> {
        self.slot(step)?.as_mut().filter(|o| o.step == step)
    }

    /// Takes the order in flight for `step`: its reply has come.
    fn answered(&mut self, step: u32) -> Option<Outstanding> {
        let slot = self.slot(step)?;
        slot.take_if(|o| o.step == step)
    }

    /// Every order in flight, ascending by step.
    fn orders_mut(&mut self) -> impl Iterator<Item = &mut Outstanding> {
        let (one, many) = match self {
            Live::Writer(t) => (t.order.as_mut(), None),
            Live::Reader(r) => (None, Some(r.steps.iter_mut().filter_map(|s| s.order.as_mut()))),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl TxnState {
    /// Charges one failed attempt against `txn`'s starvation bound, raising
    /// `streak` to the longest seen.
    fn charge_attempt(&mut self, txn: TxnId, streak: &Gauge) -> Result<(), NetError> {
        self.attempts = self.attempts.saturating_add(1);
        if u64::from(self.attempts) > streak.get() {
            streak.set(u64::from(self.attempts));
        }
        if self.attempts >= MAX_PARK_ATTEMPTS {
            return Err(NetError::BackoffExhausted {
                txn,
                attempts: self.attempts,
            });
        }
        Ok(())
    }
}

/// One control shard as a state machine (see the module docs); public so
/// that `tests/control_node.rs` can drive it one delivery at a time.
#[doc(hidden)]
pub struct ControlActor<'a> {
    control: ControlNode,
    catalog: &'a Catalog,
    reg: &'a Registry,
    retry: Backoff,
    to_data: Vec<Coalescer>,
    /// One per client: in a closed loop the acks of one turn leave as one
    /// frame.
    to_clients: Vec<Coalescer>,
    batch_window: Duration,
    shard: usize,
    watchdog: Duration,
    /// When the last message was popped: the silence watchdog's origin
    /// (the first idle wake-up, until one is).
    last_message: Option<Instant>,
    /// Every live transaction, writers and readers, with its orders in
    /// flight.
    txns: IdWindow<Live>,
    /// Delayed requests, re-asked on every step completion, commit and
    /// quiet poll; a freeing commit moves its partitions' waiters here too.
    /// Re-driven in ascending id, once each.
    parked: Vec<TxnId>,
    /// The buffer `retry_parked` walks while `parked` fills afresh: the two
    /// swap, so no retry allocates.
    retrying: Vec<TxnId>,
    /// Blocked requests by the partition a held lock keeps them from (one
    /// list per partition of the catalog), in arrival order: nothing but a
    /// commit frees a lock, so nothing else re-asks them.
    blocked: Vec<Vec<TxnId>>,
    /// Admission flow control: submissions beyond `admit_window`
    /// concurrently-admitted transactions queue here (FIFO) without ever
    /// touching the scheduler, so pipelined clients cannot flood the WTPG
    /// with hopeless admission attempts; rejected ones wait here too.
    backlog: VecDeque<TxnId>,
    /// Transactions currently admitted and not yet committed or aborted.
    active: usize,
    admit_window: usize,
    /// Committed writers and retired readers at or above the mark. A
    /// transaction's drive-state is retired when it finishes; this set and
    /// the mark absorb its late duplicates.
    finished: IdWindow<()>,
    /// Per client, the id after its last `Submit`: ids ascend per client,
    /// so nothing it sends later is below it.
    next_submit: Vec<TxnId>,
    rx: MsgCounts,
    data_rtts_us: Vec<u64>,
    /// Milli-objects per progress chunk, stamped on every `Access` order.
    chunk_units: u64,
    tel: CtrlTel,
    /// Clients in the run, and the end-of-stream `Shutdown`s received.
    clients: usize,
    done_clients: usize,
    /// Deliveries since the last busy scan.
    since_scan: u32,
    /// The orders a reader's admission issues, gathered in place.
    reads: Vec<(usize, u32, Msg)>,
    /// Per data node, what it may forget (empty when a data link carries
    /// one message per frame: no order frame could take a notice along).
    notices: Vec<Notice>,
    /// MVCC snapshot plane (`None` ⇒ fully off; see
    /// [`ControlParams::mvcc`]).
    mvcc: Option<MvccPlane>,
}

impl<'a> ControlActor<'a> {
    /// Shard `params.shard`, with nothing submitted and nothing in flight.
    pub fn start(
        params: ControlParams<'a>,
        catalog: &'a Catalog,
        chunk_units: u64,
        to_data: &[Arc<dyn MsgTx>],
        to_clients: &[Arc<dyn MsgTx>],
    ) -> ControlActor<'a> {
        let reg = params.reg;
        ControlActor {
            control: ControlNode::with_telemetry(params.sched, Some(reg), params.stream),
            catalog,
            reg,
            retry: params.retry,
            to_data: (0..)
                .zip(to_data)
                .map(|(node, tx)| {
                    let seed = params.fault.line_seed(1, node, params.shard);
                    Coalescer::new(Arc::clone(tx), params.batch_max).with_faults(params.fault.link, seed)
                })
                .collect(),
            to_clients: to_clients
                .iter()
                .map(|tx| Coalescer::new(Arc::clone(tx), params.ack_batch_max))
                .collect(),
            batch_window: params.batch_window,
            shard: params.shard,
            watchdog: params.watchdog,
            last_message: None,
            txns: IdWindow::new(),
            parked: Vec::new(),
            retrying: Vec::new(),
            blocked: vec![Vec::new(); catalog.num_parts() as usize],
            backlog: VecDeque::new(),
            active: 0,
            admit_window: params.admit_window.max(1),
            finished: IdWindow::new(),
            next_submit: vec![TxnId(0); params.clients],
            rx: MsgCounts::default(),
            data_rtts_us: Vec::new(),
            chunk_units,
            tel: CtrlTel::new(reg, params.shard),
            clients: params.clients,
            done_clients: 0,
            since_scan: 0,
            reads: Vec::new(),
            notices: if params.batch_max > 1 {
                to_data.iter().map(|_| Notice::default()).collect()
            } else {
                Vec::new()
            },
            mvcc: params.mvcc.then(|| MvccPlane {
                log: CommitLog::new(),
                active: ActiveSnapshots::new(),
                records: Vec::new(),
                sent: vec![0; catalog.num_parts() as usize],
                raise: Vec::new(),
            }),
        }
    }
}

impl Actor for ControlActor<'_> {
    type Outcome = ControlOutcome;

    /// Handles one popped message, a `Batch` whole, popped at `now`; every
    /// [`SCAN_EVERY`] deliveries the busy scan runs too (due re-sends,
    /// overdue flushes, gauges). `Stop` once the exit rule holds.
    fn deliver(&mut self, m: Msg, now: Instant) -> Result<Flow, NetError> {
        self.last_message = Some(now);
        self.handle(m, now)?;
        self.since_scan += 1;
        if self.since_scan >= SCAN_EVERY {
            self.since_scan = 0;
            self.resend(None, now)?;
            self.flush_data(true, now)?;
            self.update_gauges();
        }
        Ok(self.flow())
    }

    /// What a [`POLL`] without a message does: the silence watchdog, due
    /// re-sends, parked retries, backlog admissions and gauges.
    fn idle(&mut self, now: Instant) -> Result<Flow, NetError> {
        let last = *self.last_message.get_or_insert(now);
        if now.saturating_duration_since(last) > self.watchdog {
            let actor = format!("control shard {}", self.shard);
            return Err(NetError::RecvTimeout { actor });
        }
        self.resend(None, now)?;
        self.retry_parked(now)?;
        self.drain_backlog(now)?;
        self.update_gauges();
        Ok(self.flow())
    }

    /// What must happen before the loop blocks on an empty inbox: every
    /// buffered order and ack goes out, or the peers it starves never
    /// answer. The loop then waits a [`POLL`] at most, less if a link holds
    /// a frame due sooner.
    fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError> {
        self.flush_data(false, now)?;
        let due = self.to_data.iter().filter_map(Coalescer::next_due).min();
        Ok(Some(due.map_or(POLL, |t| t.saturating_duration_since(now).min(POLL))))
    }

    /// Orderly exit: a last flush that delivers whatever the links still
    /// hold. Refused while the exit rule does not hold: the inbox closed
    /// mid-run.
    fn finish(mut self) -> Result<ControlOutcome, NetError> {
        if self.flow() == Flow::Continue {
            let shard = self.shard;
            return Err(NetError::Protocol(format!("control shard {shard}: inbox closed mid-run")));
        }
        if let Some(node) = self.to_data.iter_mut().position(|c| !c.drain()) {
            return Err(self.vanished(node, "at exit"));
        }
        if let Some(client) = self.to_clients.iter_mut().position(|c| !c.drain()) {
            return Err(self.client_vanished(client));
        }
        // The tallies nobody reads live, published once: message counts (what
        // the shard handled, and what its coalescers sent) and the
        // scheduler's cache / abort / delay statistics, under the bare names
        // the simulator's trace uses.
        let reg = self.reg;
        crate::publish(reg, metric::msg_rx, self.rx.fields());
        for c in self.to_data.iter().chain(&self.to_clients) {
            c.publish(reg);
        }
        let (name, mode) = (self.control.sched_name(), self.control.certify_mode());
        crate::publish(reg, str::to_string, self.control.sched_stats().fields());
        let audit = self.control.into_audit();
        Ok(ControlOutcome {
            name,
            mode,
            audit,
            data_rtts_us: self.data_rtts_us,
            mvcc: self.mvcc.map(|p| MvccAudit {
                log: p.log,
                readers: p.records,
            }),
        })
    }
}

impl ControlActor<'_> {
    /// The exit rule: every client ended its stream with `Shutdown`, and
    /// nothing is live. Per-link FIFO (and, sharded, the router actor
    /// dealing in the order it pops) puts each client's `Submit`s ahead of
    /// its `Shutdown`.
    fn flow(&self) -> Flow {
        if self.done_clients < self.clients || !self.txns.is_empty() {
            return Flow::Continue;
        }
        Flow::Stop
    }

    /// The shard's low-water mark: the least of its smallest live id and,
    /// per client, the id after that client's last `Submit`. Ids ascend per
    /// client, so no transaction below it is live or can still arrive.
    fn mark(&self) -> TxnId {
        let submitted = self.next_submit.iter().min().copied().unwrap_or(TxnId(0));
        self.txns.keys().next().map_or(submitted, |live| live.min(submitted))
    }

    /// Whether `txn` finished here: below the mark, or booked since.
    fn retired(&self, txn: TxnId) -> bool {
        txn < self.mark() || self.finished.contains(txn)
    }

    /// Books `txn`, whose drive-state is gone, as finished, and forgets the
    /// finished ids the mark has passed.
    fn book_finished(&mut self, txn: TxnId) {
        self.finished.insert(txn, ());
        self.finished.remove_below(self.mark());
    }

    /// Slots the finished set holds (the ring's capacity and the ids
    /// outside it): it spans the ids in flight, not the run.
    #[doc(hidden)]
    pub fn finished_slots(&self) -> usize {
        self.finished.allocated()
    }

    /// Queues `txn`'s commit ack on its client's coalescer.
    fn ack(&mut self, client: u32, txn: TxnId) -> Result<(), NetError> {
        let c = self
            .to_clients
            .get_mut(client as usize)
            .ok_or_else(|| NetError::Protocol(format!("client {client} out of range")))?;
        if !c.push(Msg::Commit { client, txn }) {
            return Err(self.client_vanished(client as usize));
        }
        Ok(())
    }

    /// The error for a client link whose peer is gone.
    fn client_vanished(&self, client: usize) -> NetError {
        NetError::Protocol(format!("control shard {}: client {client} vanished", self.shard))
    }

    /// The error for a data link whose peer is gone.
    fn vanished(&self, node: usize, when: &str) -> NetError {
        NetError::Protocol(format!("control shard {}: data node {node} vanished {when}", self.shard))
    }

    /// Queues `order` on `node`'s coalescer at `now`, optionally forcing the
    /// frame out immediately (redelivery path). An `Access` or
    /// `SnapshotRead` the coalescer still holds takes the node's notice,
    /// stamped with the shard's mark, along when it is due: behind the
    /// order, in the order's frame.
    fn send_data(&mut self, node: usize, order: Msg, flush: bool, now: Instant) -> Result<(), NetError> {
        let carries = matches!(order, Msg::Access { .. } | Msg::SnapshotRead { .. });
        let below = (carries && self.notices.get(node).is_some_and(Notice::due)).then(|| self.mark());
        let c = self
            .to_data
            .get_mut(node)
            .ok_or_else(|| NetError::Protocol(format!("data node {node} out of range")))?;
        let mut sent = c.advance(now) && c.push(order);
        let notice = self.notices.get_mut(node).zip(below);
        if let (true, Some((notice, below))) = (sent && c.pending() > 0, notice) {
            sent = c.push(notice.take(self.shard as u32, below));
        }
        if !(sent && (!flush || c.flush())) {
            return Err(self.vanished(node, "mid-run"));
        }
        Ok(())
    }

    /// Sends `order` for `(txn, step)` to `node` and files it in the
    /// transaction's record until its reply arrives.
    fn issue(
        &mut self,
        txn: TxnId,
        step: u32,
        node: usize,
        order: Msg,
        now: Instant,
    ) -> Result<(), NetError> {
        self.send_data(node, order.clone(), false, now)?;
        let slot = self
            .txns
            .get_mut(txn)
            .and_then(|t| t.slot(step))
            .ok_or_else(|| {
                NetError::Protocol(format!(
                    "issuing step {step} of txn {}, which has no slot for it",
                    txn.0
                ))
            })?;
        *slot = Some(Outstanding {
            step,
            node,
            attempts: 0,
            deadline: now + Duration::from_micros(self.retry.delay_us(0)),
            sent_at: now,
            msg: order,
            next_chunk: 0,
            unavailable: false,
        });
        Ok(())
    }

    /// Advances `txn` as far as the scheduler allows right now: admission,
    /// then its next step request, then the commit once every step is done.
    /// A turned-away decision parks the transaction for event-driven retry.
    fn drive(&mut self, txn: TxnId, now: Instant) -> Result<(), NetError> {
        let Some(Live::Writer(state)) = self.txns.get_mut(txn) else {
            return Err(NetError::Protocol(format!("driving unknown txn {}", txn.0)));
        };
        if !state.admitted {
            if self.active >= self.admit_window {
                // Flow control, not a scheduler verdict: hold the
                // submission back until a commit frees a slot. No attempt
                // is charged — the scheduler never saw it.
                self.backlog.push_back(txn);
                return Ok(());
            }
            match self.control.arrive_declared(txn)? {
                Admission::Admitted => {
                    self.active += 1;
                    self.tel.admissions.inc();
                    state.admitted = true;
                    state.attempts = 0;
                    // Fall through to the first step request.
                }
                Admission::Rejected => {
                    // A chain-form/K-conflict rejection depends on who is
                    // active right now, which mostly changes at commits —
                    // so the transaction joins the admission queue, not the
                    // hot parked set, and is re-attempted once per freed
                    // slot rather than on every step completion. A fresh
                    // one queues at the back; `drain_backlog` returns a
                    // re-attempted head to the front (it keeps its turn).
                    state.charge_attempt(txn, &self.tel.max_retry_streak)?;
                    self.backlog.push_back(txn);
                    return Ok(());
                }
            }
        }
        let step = state.next_step;
        let Some(steps) = self.control.spec(txn).map(TxnSpec::steps) else {
            return Err(NetError::Protocol(format!("txn {} lost its declaration", txn.0)));
        };
        let Some(declared) = steps.get(step).copied() else {
            // Every step is done: commit.
            let client = state.client;
            if let Some(plane) = self.mvcc.as_mut() {
                plane.raise.extend(steps.iter().map(|s| s.partition.0));
            }
            // Every order of the writer is answered: its nodes may forget it.
            for s in steps {
                if let Some(n) = self.notices.get_mut(self.catalog.node_of(s.partition) as usize) {
                    n.retire(txn);
                }
            }
            let (tick, freed) = self.control.commit(txn)?;
            // Wake the requests blocked on what the commit released; the
            // caller's `retry_parked` re-asks them.
            for p in freed {
                if let Some(waiters) = self.blocked.get_mut(p.0 as usize) {
                    self.parked.append(waiters);
                }
            }
            if let Some(plane) = self.mvcc.as_mut() {
                // Stamp the commit tick on this writer's sealed entries
                // and raise GC floors: committed-prefix writes below every
                // active snapshot's horizon no longer need inversion data.
                plane.log.note_commit(txn, tick);
                plane.publish_floors(self.catalog, &mut self.notices);
            }
            self.active = self.active.saturating_sub(1);
            self.tel.commits.inc();
            // The transaction is over: retire its drive-state. Late
            // duplicates (Submit or data-plane replies) are absorbed by
            // the mark and the `finished` set.
            self.txns.remove(txn);
            self.book_finished(txn);
            return self.ack(client, txn);
        };
        match self.control.request(txn, step)? {
            LockOutcome::Granted => {
                state.attempts = 0;
                let step = step as u32;
                let node = self.catalog.node_of(declared.partition) as usize;
                // Seal write steps into the partition's version order at
                // grant time — the grant is issued exactly once per step
                // (next_step only advances on AccessDone, duplicate
                // submissions are filtered), so seal sequences are unique
                // even under redelivery.
                let seal = match (self.mvcc.as_mut(), declared.mode) {
                    (Some(plane), AccessMode::Write) => {
                        plane
                            .log
                            .seal(declared.partition.0, txn, declared.actual_cost.units())
                    }
                    _ => 0,
                };
                let order = Msg::Access {
                    txn,
                    step,
                    partition: declared.partition,
                    mode: declared.mode,
                    units: declared.actual_cost.units(),
                    chunk_units: self.chunk_units,
                    seal,
                };
                self.issue(txn, step, node, order, now)
            }
            outcome => {
                state.charge_attempt(txn, &self.tel.max_retry_streak)?;
                if outcome == LockOutcome::Blocked {
                    // In the catalog: `Submit` refuses any other partition.
                    if let Some(waiters) = self.blocked.get_mut(declared.partition.0 as usize) {
                        waiters.push(txn);
                    }
                } else {
                    self.parked.push(txn);
                }
                Ok(())
            }
        }
    }

    /// Admits a read-only BAT onto the snapshot plane: stamp the snapshot
    /// tick, register it with the GC-floor bookkeeping, and issue one
    /// `SnapshotRead` per step. No scheduler, no locks, no WTPG node —
    /// the reader cannot block a writer or another reader, and nothing
    /// blocks it. Orders are filed in the reader's record as a writer's are
    /// in its own, so redelivery, `Recover` re-sends, and data-RTT
    /// accounting are uniform across both planes.
    fn admit_reader(
        &mut self,
        client: u32,
        txn: TxnId,
        spec: &TxnSpec,
        now: Instant,
    ) -> Result<(), NetError> {
        let snapshot = self.control.now();
        let mut orders = std::mem::take(&mut self.reads);
        let mut steps = Vec::with_capacity(spec.len());
        {
            #[expect(
                clippy::expect_used,
                reason = "invariant: admit_reader is only reached with the snapshot plane on"
            )]
            let plane = self
                .mvcc
                .as_mut()
                .expect("invariant: admit_reader is only reached with the snapshot plane on");
            plane.active.begin(txn, snapshot);
            for (i, s) in spec.steps().iter().enumerate() {
                let p = s.partition;
                // The horizon pins the snapshot in seal-sequence space:
                // entries sealed at or above it commit after `snapshot`
                // (the clock only moves at commits), so the data node
                // inverts them out. Sealed-but-uncommitted entries *below*
                // the horizon ride along as an explicit exclusion list.
                let horizon = plane.log.horizon(p.0);
                let exclude = plane.log.exclusions(p.0);
                // The wire bound is enforced here, where the set is built,
                // so a pathological uncommitted-writer backlog fails on
                // the sender instead of as a decode error on the node.
                if exclude.len() > MAX_EXCLUDE as usize {
                    return Err(NetError::Protocol(format!(
                        "reader {} on partition {}: {} uncommitted writers exceed \
                         the exclusion-set wire bound {MAX_EXCLUDE}",
                        txn.0,
                        p.0,
                        exclude.len()
                    )));
                }
                // Register before recomputing the floor so our own hold
                // caps it — GC must not prune what we still read. The hold
                // is the smallest sequence this snapshot may subtract:
                // every excluded entry, not just the horizon, stays unprunable
                // even if its writer commits while the read is in flight.
                let hold = exclude.first().copied().unwrap_or(horizon);
                plane.active.observe(txn, p.0, hold);
                let (floor, _) = plane.publish_floor(p.0);
                steps.push(ReadStep {
                    partition: p.0,
                    order: None,
                    obs: None,
                });
                orders.push((
                    self.catalog.node_of(p) as usize,
                    i as u32,
                    Msg::SnapshotRead {
                        txn,
                        step: i as u32,
                        partition: p,
                        units: s.actual_cost.units(),
                        horizon,
                        exclude,
                        floor,
                    },
                ));
            }
            self.txns.insert(
                txn,
                Live::Reader(ReaderState {
                    client,
                    snapshot,
                    steps,
                    pending: spec.len(),
                }),
            );
        }
        for (node, step, order) in orders.drain(..) {
            self.issue(txn, step, node, order, now)?;
        }
        self.reads = orders;
        Ok(())
    }

    /// Re-drives every parked transaction once, in id order: the delayed
    /// requests and the blocked ones a commit just woke. Called after step
    /// completions and commits (the events that change what the scheduler
    /// will answer) and on the idle poll. What the re-drives park again
    /// waits in the other buffer for the next round.
    fn retry_parked(&mut self, now: Instant) -> Result<(), NetError> {
        if self.parked.is_empty() {
            return Ok(());
        }
        let mut waiting = std::mem::replace(&mut self.parked, std::mem::take(&mut self.retrying));
        waiting.sort_unstable();
        waiting.dedup();
        for &txn in &waiting {
            self.drive(txn, now)?;
        }
        waiting.clear();
        self.retrying = waiting;
        Ok(())
    }

    /// Admits queued submissions into freed admission-window slots, FIFO.
    /// Stops as soon as the queue head bounces — the rejection queued it at
    /// the back, and it returns to the front, keeping its turn — so one
    /// drain costs at most one futile `arrive`.
    fn drain_backlog(&mut self, now: Instant) -> Result<(), NetError> {
        while self.active < self.admit_window {
            let Some(txn) = self.backlog.pop_front() else {
                return Ok(());
            };
            self.drive(txn, now)?;
            if self.backlog.back() == Some(&txn) {
                self.backlog.pop_back();
                self.backlog.push_front(txn);
                return Ok(());
            }
        }
        Ok(())
    }

    /// A write-plane reply that finds no order in flight under its key. A
    /// writer's only in-flight step is the one its record holds, so the
    /// reply either duplicates a step that already completed (or whose
    /// transaction already committed) and is dropped, or answers an order
    /// this actor never issued.
    fn late_reply(&self, txn: TxnId, step: u32, what: &str) -> Result<(), NetError> {
        let next_step = match self.txns.get(txn) {
            Some(Live::Writer(t)) => t.next_step,
            _ => 0,
        };
        if self.retired(txn) || (step as usize) < next_step {
            return Ok(());
        }
        Err(NetError::Protocol(format!(
            "{what} for txn {} step {step}, which has no order in flight",
            txn.0
        )))
    }

    // lint:allow(protocol: Access, SnapshotRead, Commit, Forget) send-only for the control actor: it emits the accesses, snapshot-read orders, commit acks and notices
    fn handle(&mut self, m: Msg, now: Instant) -> Result<(), NetError> {
        m.count(&mut self.rx);
        match m {
            Msg::Batch(inner) => {
                for sub in inner {
                    debug_assert!(!matches!(sub, Msg::Batch(_)), "codec rejects nesting");
                    self.handle(sub, now)?;
                }
                Ok(())
            }
            Msg::Submit {
                client,
                txn,
                step: None,
                spec: Some(spec),
            } => {
                if self.txns.contains(txn) || self.retired(txn) {
                    // Duplicate delivery of a submission already being
                    // driven (or already finished): ignore, or the txn
                    // would enter the backlog twice.
                    return Ok(());
                }
                let Some(next) = self.next_submit.get_mut(client as usize) else {
                    return Err(NetError::Protocol(format!("client {client} out of range")));
                };
                *next = (*next).max(TxnId(txn.0.saturating_add(1)));
                let parts = self.catalog.num_parts();
                if let Some(s) = spec.steps().iter().find(|s| s.partition.0 >= parts) {
                    return Err(NetError::Protocol(format!(
                        "txn {} names partition {}, outside the {parts}-partition catalog",
                        txn.0, s.partition.0
                    )));
                }
                if self.mvcc.is_some() && spec.is_read_only() {
                    return self.admit_reader(client, txn, &spec, now);
                }
                self.control.declare(spec);
                self.txns.insert(
                    txn,
                    Live::Writer(TxnState {
                        client,
                        next_step: 0,
                        admitted: false,
                        attempts: 0,
                        order: None,
                    }),
                );
                self.drive(txn, now)
            }
            Msg::StatsDelta {
                txn,
                step,
                chunk,
                units,
            } => {
                let Some(o) = self.txns.get_mut(txn).and_then(|t| t.in_flight(step)) else {
                    return self.late_reply(txn, step, "StatsDelta");
                };
                if chunk < o.next_chunk {
                    return Ok(()); // duplicate delivery: already applied
                }
                if chunk > o.next_chunk {
                    return Err(NetError::Protocol(format!(
                        "txn {} step {step}: chunk {chunk} arrived before chunk {}",
                        txn.0, o.next_chunk
                    )));
                }
                o.next_chunk += 1;
                self.control.progress(txn, Work::from_units(units))?;
                Ok(())
            }
            Msg::AccessDone { txn, step, .. } => {
                let Some(o) = self.txns.get_mut(txn).and_then(|t| t.answered(step)) else {
                    return self.late_reply(txn, step, "AccessDone");
                };
                self.control.step_complete(txn, step as usize)?;
                self.book_rtt(o.sent_at, now);
                if let Some(Live::Writer(t)) = self.txns.get_mut(txn) {
                    t.next_step = step as usize + 1;
                }
                // Pipeline: request the next step (or commit) immediately,
                // then re-drive the parked requests. The completion itself
                // releases nothing — every lock is held to commit — but it
                // sets the transaction's `T0` weight to what its remaining
                // steps declare, and the follow-up request either commits
                // (which releases, waking the requests blocked on what it
                // held) or is granted: a declaration becomes a held lock and
                // its conflicting edges are resolved, so the `W` / `E(q)`
                // inputs of the delayed requests moved. An
                // admission verdict only changes at commit or abort, so the
                // backlog is drained only when this round of driving
                // actually freed an admission slot.
                let active_before = self.active;
                self.drive(txn, now)?;
                self.retry_parked(now)?;
                if self.active < active_before {
                    self.drain_backlog(now)?;
                }
                Ok(())
            }
            Msg::SnapshotReply {
                txn,
                step,
                checksum,
                units,
            } => {
                if let Some(o) = self.txns.get_mut(txn).and_then(|t| t.answered(step)) {
                    self.book_rtt(o.sent_at, now);
                    // The certifier's expected checksum is computed with the
                    // unit count the *reply* echoes, so a node that scanned
                    // the wrong number of cells would self-consistently
                    // certify. Pin the echo to the original order here —
                    // the one place the order is still in hand.
                    if let Msg::SnapshotRead {
                        units: ordered, ..
                    } = o.msg
                    {
                        if ordered != units {
                            return Err(NetError::Protocol(format!(
                                "reader {} step {step}: SnapshotReply echoes {units} units, \
                                 the order carried {ordered}",
                                txn.0
                            )));
                        }
                    }
                }
                let retired = self.retired(txn);
                let Some(plane) = self.mvcc.as_mut() else {
                    return Err(NetError::Protocol(format!(
                        "SnapshotReply for txn {} with the snapshot plane off",
                        txn.0
                    )));
                };
                if retired {
                    return Ok(()); // late duplicate after the reader retired
                }
                let Some(Live::Reader(r)) = self.txns.get_mut(txn) else {
                    return Err(NetError::Protocol(format!(
                        "SnapshotReply for unknown reader {}",
                        txn.0
                    )));
                };
                let Some(read) = r.steps.get_mut(step as usize) else {
                    return Err(NetError::Protocol(format!(
                        "SnapshotReply step {step} out of range for reader {}",
                        txn.0
                    )));
                };
                if read.obs.is_some() {
                    return Ok(()); // duplicate delivery (redelivery or dup fault)
                }
                read.obs = Some(ReadObservation {
                    step,
                    partition: read.partition,
                    units,
                    checksum,
                });
                r.pending -= 1;
                if r.pending > 0 {
                    return Ok(());
                }
                // Every step answered: retire the reader. Record it for
                // certification, release its snapshot (raising GC floors
                // it was holding down), and ack the client.
                let Some(Live::Reader(r)) = self.txns.remove(txn) else {
                    return Err(NetError::Protocol(format!("reader {} vanished mid-reply", txn.0)));
                };
                plane.active.end(txn);
                plane.records.push(ReaderRecord {
                    txn,
                    snapshot: r.snapshot,
                    reads: r.steps.iter().filter_map(|s| s.obs).collect(),
                });
                plane.raise.extend(r.steps.iter().map(|s| s.partition));
                plane.publish_floors(self.catalog, &mut self.notices);
                // Every order of the reader is answered: its nodes may
                // forget it.
                for s in &r.steps {
                    let node = self.catalog.node_of(PartitionId(s.partition)) as usize;
                    if let Some(n) = self.notices.get_mut(node) {
                        n.retire(txn);
                    }
                }
                self.book_finished(txn);
                self.tel.commits.inc();
                self.ack(r.client, txn)
            }
            Msg::Recover { node: rejoined, .. } => {
                // A killed data node restarted from its log and rejoined:
                // re-send everything still outstanding on it right away, as
                // one frame (the replayed applied-marks and partials make
                // re-sends idempotent) instead of waiting out redelivery
                // deadlines, and un-park whatever went node-unavailable
                // while it was dark. A notice with the mark closes the
                // burst, a frame of its own if nothing was outstanding: the
                // replay brought back books the mark has passed, and no
                // later order may come to carry it.
                let node = rejoined as usize;
                self.resend(Some(node), now)?;
                let (shard, below) = (self.shard as u32, self.mark());
                let notice = self.notices.get_mut(node).map(|n| n.take(shard, below));
                let c = self.to_data.get_mut(node);
                if !c.is_none_or(|c| notice.is_none_or(|n| c.push(n)) && c.flush()) {
                    return Err(self.vanished(node, "at rejoin"));
                }
                Ok(())
            }
            Msg::Shutdown => {
                // A client's end-of-stream marker (see `flow`).
                self.done_clients += 1;
                Ok(())
            }
            other => Err(NetError::Protocol(format!(
                "control received {other:?}, which the pipelined protocol never routes here"
            ))),
        }
    }

    /// Re-sends outstanding orders. With `rejoined`, every order on that
    /// node, its redelivery budget and deadline reset and the burst left in
    /// the coalescer for the caller to flush; without, every order whose
    /// deadline has passed, an attempt charged and the frame forced out.
    fn resend(&mut self, rejoined: Option<usize>, now: Instant) -> Result<(), NetError> {
        let mut resend = Vec::new();
        for o in self.txns.values_mut().flat_map(Live::orders_mut) {
            match rejoined {
                Some(node) if o.node == node => {
                    o.attempts = 0;
                    o.unavailable = false;
                }
                None if o.deadline <= now => {
                    o.attempts = o.attempts.saturating_add(1);
                    if o.attempts >= self.retry.max_attempts {
                        // The owning node blew past the redelivery budget.
                        // Don't fail the run: park the order as
                        // node-unavailable and keep re-sending at the capped
                        // interval — a killed node restarts from its log and
                        // answers. The receive watchdog still bounds a run
                        // whose node is truly gone.
                        o.attempts = self.retry.max_attempts;
                        if !o.unavailable {
                            o.unavailable = true;
                            self.tel.node_unavailable.inc();
                        }
                    }
                }
                _ => continue,
            }
            o.deadline = now + Duration::from_micros(self.retry.delay_us(o.attempts));
            resend.push((o.node, o.msg.clone()));
        }
        for (node, msg) in resend {
            self.send_data(node, msg, rejoined.is_none(), now)?;
            self.tel.access_retries.inc();
        }
        Ok(())
    }

    /// Publishes the queue-depth gauges; `parked` counts every request
    /// waiting, delayed or blocked. Called at the periodic-scan cadence, not
    /// per message: a window flush samples levels, so sub-scan churn is
    /// invisible anyway.
    fn update_gauges(&self) {
        self.tel.backlog.set(self.backlog.len() as u64);
        let blocked: usize = self.blocked.iter().map(Vec::len).sum();
        self.tel.parked.set((self.parked.len() + blocked) as u64);
    }

    /// Books one order-to-reply round trip, sent to popped: the exact
    /// sample for the report, the bucketed one for the live view.
    fn book_rtt(&mut self, sent_at: Instant, now: Instant) {
        let rtt = now.saturating_duration_since(sent_at);
        let us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
        self.data_rtts_us.push(us);
        self.tel.data_rtt.record(us);
    }

    /// Moves the coalescers of the data links, then the client links, to
    /// `now`, releasing what their lines hold due, and flushes all of them
    /// (before blocking on the inbox), or only those whose oldest buffered
    /// message has waited past the window (the mid-burst latency bound).
    fn flush_data(&mut self, only_overdue: bool, now: Instant) -> Result<(), NetError> {
        let window = self.batch_window;
        let flushed = |c: &mut Coalescer| {
            c.advance(now) && ((only_overdue && !c.overdue(window)) || c.flush())
        };
        if let Some(node) = self.to_data.iter_mut().position(|c| !flushed(c)) {
            return Err(self.vanished(node, "at flush"));
        }
        match self.to_clients.iter_mut().position(|c| !flushed(c)) {
            Some(client) => Err(self.client_vanished(client)),
            None => Ok(()),
        }
    }
}
