//! Run orchestration: plan a cell, build its actors, drive them, assemble
//! the report.
//!
//! [`run_cell`] is the crate's entry point — one (scheduler, transport,
//! fault plan) cell executed end to end in four phases, each with one
//! owner of its concerns, run by [`run_cell_load`] on real time and by
//! [`explore_cell`] on a virtual clock in an order a seed picks:
//!
//! 1. **plan** — [`RunPlan::new`] refuses the combinations that are not a
//!    run and fixes every derived value (effective clients and shards, the
//!    conflict-component [`ShardMap`], the WAL directory, the workload
//!    split and arrival schedule). Nothing has been created yet.
//! 2. **build** — `ActorSet::lay_out` creates the WAL directory, has the
//!    [`Transport`] wire the control plane, one data-node actor per catalog
//!    node and the client actors into a star fabric, lays each actor's
//!    parameters out as plain values — the [`FaultPlan`] among them: each
//!    control ↔ data sender's coalescer delays and duplicates what it sends.
//!    With one effective shard the control actor reads the fabric inbox
//!    directly (no router on the path); with `S > 1` a `Router` actor
//!    deals inbound messages to `S` independent control actors, each
//!    running its own scheduler over a disjoint slice of the WTPG.
//! 3. **drive** — `drive` runs all actors to completion: clients submit
//!    their shares of the workload, wait for commit acks and end their
//!    streams with one `Shutdown` each, each control shard exits once every
//!    client has and nothing is live, and the *runtime* broadcasts
//!    `Shutdown` to the data nodes once every shard is done, then tears the
//!    plumbing down. One executor steps every actor, a sharded run's router
//!    among them, on the calling thread, whatever the transport, on the
//!    clock and pick it is handed (`RealTime` and round robin in a run).
//!    A run starts no
//!    thread: under streaming certification each control shard certifies
//!    its own decisions as it makes them. The teardown `Shutdown`
//!    goes straight onto each data link, after every control shard has
//!    released what its links held: it meets no link fault.
//! 4. **assemble** — the per-shard audits are merged ([`merge_audits`] —
//!    the canonical cross-shard history merge, which refuses shards that
//!    are not disjoint), the merged history is replay-certified (or the
//!    shards' live verdicts read), and the data nodes' store tallies are
//!    checked against the workload's declared write units — the proofs hold
//!    under real message passing, batched frames, and injected faults.
//!
//! **One set of books.** Every count a run observes is booked once, in the
//! run's [`Registry`], under its [`metric`] catalogue name — live by the
//! actor that observes it, or once at that actor's exit for tallies nobody
//! reads live — and the report's numeric fields are read back from
//! [`Registry::totals`]. What travels beside the registry is what is not a
//! count: audits, the MVCC seal log, shed ids, the exact latency samples
//! (the registry's histograms are log₂-bucketed) and the three conservation
//! values, which are fault-detection values read off the stores.

#![expect(
    clippy::disallowed_methods,
    reason = "a run's wall time and its executor's clock; runs are certified by replay"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::certify::certify_history;
use wtpg_core::partition::Catalog;
use wtpg_core::txn::{AccessMode, TxnId, TxnSpec};
use wtpg_dur::Durability;
use wtpg_mvcc::{certify_snapshots, CommitLog, ReaderRecord};
use wtpg_obs::window::metric;
use wtpg_obs::{ByteCounts, MsgCounts, Observer, Registry};
use wtpg_rt::backoff::Backoff;
use wtpg_rt::control::ControlAudit;
use wtpg_rt::SendScheduler;
use wtpg_rt::metrics::LatencySummary;
use wtpg_rt::shard::{merge_audits, ShardMap};

use crate::actor::{self, Actor, Clock, Flow, Slot, Step};
use crate::client::{ClientActor, ClientOutcome, OpenLoopPlan};
use crate::control::{ControlActor, ControlOutcome, ControlParams};
use crate::data::{DataActor, DataNodeParams, DataOutcome};
use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::msg::Msg;
use crate::plan::RunPlan;
use crate::report::{MsgBreakdown, NetReport};
use crate::tcp::Sockets;
use crate::transport::{InProc, Inbox, Mailbox, MsgTx, Transport};

/// Tuning knobs for one shared-nothing run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Client actors (each drives a slice of the workload, `pipeline`
    /// transactions in flight at a time).
    pub clients: usize,
    /// Control-side redelivery schedule for unanswered `Access` orders.
    /// The base must comfortably exceed a step's normal round trip, or
    /// healthy steps get redelivered; the budget's span, the delays of
    /// `max_attempts` re-sends, must cover a crash window: past it an order
    /// waits for its node's `Recover`, and a node that never sends one
    /// wedges the run, which then ends with the node's orders named.
    pub retry: Backoff,
    /// Replay-certify the recorded (merged) history after the run.
    pub certify: bool,
    /// Control shards requested. The effective count never exceeds the
    /// workload's conflict-component count (1 for every paper pattern, so
    /// the default changes nothing there).
    pub shards: usize,
    /// Coalescer buffer bound: at most this many messages per `Batch`. A
    /// coalescer also flushes when its owner's turn ends, before the
    /// executor moves another actor, so no message waits on a clock.
    pub batch_max: usize,
    /// Transactions each client keeps in flight at once. `1` recovers the
    /// strict one-at-a-time submission stream (for a single client,
    /// tick-identical to a serial drive of the control node — pinned by
    /// `tests/differential.rs`); higher depths decouple committed
    /// throughput from per-transaction latency.
    pub pipeline: usize,
    /// Concurrently admitted transactions each control shard allows;
    /// submissions beyond it queue in the shard's FIFO backlog without
    /// touching the scheduler (admission flow control for deep pipelines).
    pub admit_window: usize,
    /// Whether (and how hard) data nodes log applied steps before their
    /// replies can escape. `None` keeps the pre-durability behavior;
    /// `Buffered`/`Sync` require `wal_dir` and enable kill-restart faults.
    pub durability: Durability,
    /// Directory for the data nodes' logs (`node{N}.wal`) and snapshots
    /// (`node{N}.ckpt`) — what recovery reads, and nothing else. Required
    /// whenever `durability` keeps a log (and ignored otherwise); created
    /// if missing, never cleaned up (the artifacts are the point). It must
    /// be *fresh* — missing, or existing but holding no `node*.wal` /
    /// `*.ckpt` from an earlier run: logs open append-only and recovery
    /// replays all it finds, so a used directory is refused
    /// ([`PlanError::WalDirNotFresh`](crate::plan::PlanError)).
    pub wal_dir: Option<PathBuf>,
    /// Open-loop arrival schedule: `Some` replaces the closed-loop arrival
    /// policy with Poisson arrivals at a fixed rate and sheds arrivals that
    /// find the in-flight bound full. `None` keeps the closed loop.
    pub open_loop: Option<OpenLoop>,
    /// Certify each control shard's decisions live instead of replaying a
    /// recorded history after the run: the control plane records no history
    /// in memory, each shard feeds every linearized event to the
    /// [`StreamingCertifier`](wtpg_core::StreamingCertifier) it owns as the
    /// event happens, and certified prefixes retire incrementally — the only
    /// way a multi-million-transaction cell stays memory-bounded *and*
    /// certified.
    pub stream_certify: bool,
    /// MVCC snapshot plane: read-only transactions bypass the scheduler
    /// (snapshot at admission, lock-free `SnapshotRead`s against
    /// data-node version chains), certified post-run against the
    /// committed-prefix rule. `false` keeps every code path — wire
    /// traffic, histories, counters — identical to a build without the
    /// plane. Not combinable with kill faults
    /// ([`PlanError::MvccWithKill`](crate::plan::PlanError)).
    pub mvcc: bool,
    /// Window length, ms, of a run handed an observer: every `window_ms` of
    /// the run, the registry is flushed into it as one `Window` record (1
    /// at least).
    pub window_ms: u64,
}

/// Open-loop driver knobs (see [`NetConfig::open_loop`]).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Target arrival rate, transactions per second, across all clients.
    pub lambda_tps: f64,
    /// Seed for the Poisson schedule (the run's only randomness source).
    pub seed: u64,
    /// Per-client in-flight bound; an arrival that finds it full is shed.
    pub inflight: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            clients: 4,
            // Re-sends after 20, 40, 80, 160 ms, then every 200 ms: the
            // budget spans 27.7 s, so a node that never answers ends the
            // run within 30 s.
            retry: Backoff {
                base_us: 20_000,
                cap_us: 200_000,
                max_attempts: 140,
            },
            certify: true,
            shards: 1,
            batch_max: 128,
            pipeline: 16,
            admit_window: 32,
            durability: Durability::None,
            wal_dir: None,
            open_loop: None,
            stream_certify: false,
            mvcc: false,
            window_ms: 250,
        }
    }
}

/// The transaction a control-bound message belongs to (shard routing key).
fn msg_txn(m: &Msg) -> Option<TxnId> {
    match *m {
        Msg::Submit { txn, .. }
        | Msg::Commit { txn, .. }
        | Msg::AccessDone { txn, .. }
        | Msg::StatsDelta { txn, .. }
        | Msg::SnapshotReply { txn, .. } => Some(txn),
        _ => None,
    }
}

/// The router of a sharded run, an actor on the executor beside the shards:
/// deals what arrives at the fabric's control inbox to the shard inboxes,
/// unpacking `Batch` frames (a reply batch from a data node can carry
/// several transactions, so inner messages route independently). It sleeps
/// until mail, and stops once its inbox closes, which the runtime does when
/// every shard has ended.
pub(crate) struct Router<'a> {
    map: &'a ShardMap,
    /// One per shard, in shard order.
    shards: &'a [Inbox],
    reg: &'a Registry,
    /// The `Batch` frames it unpacked and the unroutable messages it
    /// dropped; inner messages are tallied by the shard that handles them.
    rx: MsgCounts,
}

impl<'a> Router<'a> {
    /// A router dealing by `map` to `shards`, booking into `reg`.
    pub(crate) fn new(map: &'a ShardMap, shards: &'a [Inbox], reg: &'a Registry) -> Self {
        Router {
            map,
            shards,
            reg,
            rx: MsgCounts::default(),
        }
    }

    fn route(&mut self, m: Msg) {
        if matches!(m, Msg::Recover { .. } | Msg::Shutdown) {
            // A recovery announcement has no transaction: every shard
            // tracks its own outstanding orders on the rejoined node, so
            // it is broadcast rather than dealt. Likewise a client's
            // end-of-stream `Shutdown` — every shard's exit rule counts
            // one per client, and dealing in order keeps it behind that
            // client's `Submit`s.
            for inbox in self.shards {
                let _ = inbox.push(m.clone());
            }
        } else if let Some(txn) = msg_txn(&m) {
            // A shard that already exited leaves its inbox open, so late
            // duplicates land harmlessly.
            if let Some(inbox) = self.shards.get(self.map.shard_of(txn)) {
                let _ = inbox.push(m);
            }
        } else {
            m.count(&mut self.rx); // stray unroutable message: tally, drop
        }
    }
}

impl Actor for Router<'_> {
    type Outcome = ();

    fn deliver(&mut self, frame: Msg, _: Instant) -> Result<Flow, NetError> {
        for m in frame.unpack(&mut self.rx) {
            self.route(m);
        }
        Ok(Flow::Continue)
    }

    fn idle(&mut self, _: Instant) -> Result<Flow, NetError> {
        Ok(Flow::Continue)
    }

    fn before_block(&mut self, _: Instant) -> Result<Option<Duration>, NetError> {
        Ok(Some(Duration::MAX))
    }

    /// Publishes its `msg/rx` tallies.
    fn finish(self) -> Result<(), NetError> {
        crate::publish(self.reg, metric::msg_rx, self.rx.fields());
        Ok(())
    }
}

/// µs in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The window flush of a run handed an observer, an actor in the executor's
/// background on an inbox nothing feeds: it sleeps until its window ends,
/// then flushes the run's registry into the observer as one `Window` on
/// track 0, stamped in µs since the run's origin from the instant the
/// executor hands it. Its deadline keeps no wedged run alive. The runtime
/// closes its inbox once every other actor has stopped, and
/// [`run_cell_load`] flushes the last, partial window.
struct Windows<'a> {
    reg: &'a Registry,
    obs: &'a dyn Observer,
    origin: Instant,
    /// Window length, µs.
    every: u64,
    /// Where the last window flushed ended, µs since `origin`.
    last: u64,
}

impl Windows<'_> {
    fn at(&self, now: Instant) -> u64 {
        micros(now.saturating_duration_since(self.origin))
    }
}

impl Actor for Windows<'_> {
    /// Where the last window flushed ended.
    type Outcome = u64;

    fn deliver(&mut self, _: Msg, _: Instant) -> Result<Flow, NetError> {
        Ok(Flow::Continue)
    }

    fn idle(&mut self, now: Instant) -> Result<Flow, NetError> {
        let at = self.at(now);
        self.obs.record(self.reg.flush(at, 0, at - self.last));
        self.last = at;
        Ok(Flow::Continue)
    }

    fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError> {
        let due = self.last.saturating_add(self.every);
        let wait = due.saturating_sub(self.at(now));
        Ok(Some(Duration::from_micros(wait)))
    }

    fn finish(self) -> Result<u64, NetError> {
        Ok(self.last)
    }
}

/// Runs one (scheduler, transport, fault plan) cell over `specs` and
/// certifies the outcome. `sched` is a *factory* — a sharded control plane
/// needs one scheduler instance per shard. See the module docs for the
/// phases.
///
/// # Errors
/// Any [`NetError`]: a combination [`RunPlan::new`] refuses (before anything
/// is created), an actor protocol violation, a transport failure, a
/// starved transaction, an unanswerable data node, a history that fails
/// certification (or shard histories that are not component-disjoint), or
/// a store that lost committed units.
pub fn run_cell(
    cfg: &NetConfig,
    sched: &(dyn Fn() -> SendScheduler + Sync),
    catalog: &Catalog,
    specs: &[TxnSpec],
    transport: &dyn Transport,
    fault: &FaultPlan,
) -> Result<NetReport, NetError> {
    run_cell_load(cfg, sched, catalog, specs, transport, fault, None, None)
}

/// [`run_cell`] with the run's books handed in, or handed out; passing
/// `None` for both changes nothing the run computes.
///
/// `reg` is the run's [`Registry`] — its only numeric books (see the module
/// docs): every actor bumps its [`metric`] handles live and the report is
/// read back from it, so it must be fresh, one per run. With `None` the
/// runtime books in a private registry.
///
/// `obs` receives that registry as `Window` records on track 0, in µs since
/// the run began: one every [`NetConfig::window_ms`] of the run, flushed by
/// an actor on the executor, and the last, partial one once every actor has
/// exited and the runtime's own tallies are in. Their counters sum to the
/// report's.
///
/// # Errors
/// As [`run_cell`], plus [`NetError::Certify`] when a control shard's live
/// certifier rejects one of its decisions (`cfg.stream_certify`).
#[allow(clippy::too_many_arguments)]
pub fn run_cell_load(
    cfg: &NetConfig,
    sched: &(dyn Fn() -> SendScheduler + Sync),
    catalog: &Catalog,
    specs: &[TxnSpec],
    transport: &dyn Transport,
    fault: &FaultPlan,
    obs: Option<Arc<dyn Observer>>,
    reg: Option<Arc<Registry>>,
) -> Result<NetReport, NetError> {
    let plan = RunPlan::new(cfg, fault, transport, catalog, specs)?;
    let reg = reg.unwrap_or_default();
    let set = ActorSet::lay_out(&plan, transport, sched, &reg)?;
    // The shard inboxes are queues the router fills on the executor: the
    // clock waits on the fabric's links alone.
    let stepped = [&set.control_inbox].into_iter().chain(&set.data_inboxes);
    let clock = RealTime::over(stepped.chain(&set.client_inboxes))?;
    let pick = actor::round_robin();
    let joined = drive(set, &plan, &reg, obs.as_deref(), clock, pick);
    if let Some(obs) = obs {
        let us = micros(joined.wall);
        obs.record(reg.flush(us, 0, us.saturating_sub(joined.windowed).max(1)));
    }
    assemble(&plan, joined, &reg).map(|(report, _)| report)
}

/// [`run_cell`] in process on a virtual clock, in the order `seed` picks:
/// one interleaving, which the seed repeats exactly. Books every count in
/// `reg`, and returns the merged control audit beside the report.
///
/// # Errors
/// As [`run_cell`], or [`NetError::Protocol`] if the run takes more than
/// 125 steps per transaction, or every actor sleeps until mail.
#[doc(hidden)]
pub fn explore_cell(
    cfg: &NetConfig,
    sched: &(dyn Fn() -> SendScheduler + Sync),
    catalog: &Catalog,
    specs: &[TxnSpec],
    fault: &FaultPlan,
    seed: u64,
    reg: &Registry,
) -> Result<(NetReport, ControlAudit), NetError> {
    let plan = RunPlan::new(cfg, fault, &InProc, catalog, specs)?;
    let set = ActorSet::lay_out(&plan, &InProc, sched, reg)?;
    let clock = actor::VirtualTime(set.run_wall);
    let pick = actor::seeded(seed, 125 * specs.len());
    let joined = drive(set, &plan, reg, None, clock, pick);
    assemble(&plan, joined, reg)
}

/// Phase 2 of a run: everything the actors need, built from a validated
/// plan and not yet running — the fabric and each actor's parameters as
/// plain values.
struct ActorSet<'a> {
    /// One per control shard, with the inbox it reads.
    controls: Vec<ControlParams<'a>>,
    shard_inboxes: Vec<Inbox>,
    /// One per data node, with its inbox and its link to control.
    data: Vec<DataNodeParams<'a>>,
    data_inboxes: Vec<Inbox>,
    data_to_control: Vec<Arc<dyn MsgTx>>,
    /// One per client, likewise. A client has no parameters of its own:
    /// each strides its share of the plan's workload (`client::share`).
    client_inboxes: Vec<Inbox>,
    client_to_control: Vec<Arc<dyn MsgTx>>,
    /// The fabric's control inbox: the sole shard's own, or what the
    /// router deals from.
    control_inbox: Inbox,
    to_data: Vec<Arc<dyn MsgTx>>,
    to_clients: Vec<Arc<dyn MsgTx>>,
    bytes: Arc<dyn Fn() -> ByteCounts + Send + Sync>,
    /// The instant open-loop arrivals are due from, taken ahead of the
    /// actors' parameters and the executor's clock. `wall_ms` runs from
    /// `drive`'s own stopwatch, a little later: what lay-out costs after
    /// this instant, an open loop's `wall_ms` does not see.
    run_wall: Instant,
}

impl<'a> ActorSet<'a> {
    /// Creates the WAL directory, the fabric and the actors' parameters.
    ///
    /// # Errors
    /// [`NetError::Io`] if the directory or the transport's links cannot be
    /// created; [`NetError::Protocol`] if the transport brought a thread of
    /// its own, which nothing would join (one executor steps every actor).
    fn lay_out(
        plan: &'a RunPlan<'_>,
        transport: &dyn Transport,
        sched: &(dyn Fn() -> SendScheduler + Sync),
        reg: &'a Registry,
    ) -> Result<ActorSet<'a>, NetError> {
        let cfg = plan.cfg;
        let fault = plan.fault;
        let shards = plan.map.shards();
        if let Some(dir) = plan.wal_dir {
            std::fs::create_dir_all(dir)?;
        }

        let fabric = transport.build(plan.data_nodes, plan.clients)?;
        if !fabric.service.is_empty() {
            return Err(NetError::Protocol("a transport brought service threads".into()));
        }

        // One shard reads the fabric inbox directly (no router on the
        // path); S > 1 gets routed inboxes, unbounded like every in-process
        // link (the router must never block on a shard the executor runs).
        let shard_inboxes: Vec<Inbox> = if shards == 1 {
            vec![Arc::clone(&fabric.control_inbox)]
        } else {
            (0..shards).map(|_| Mailbox::queue()).collect()
        };

        let run_wall = Instant::now();

        // One control actor per shard.
        let controls = (0..shards)
            .map(|si| ControlParams {
                sched: sched(),
                clients: plan.clients,
                retry: cfg.retry,
                batch_max: cfg.batch_max,
                ack_batch_max: client_batch_max(cfg),
                admit_window: cfg.admit_window,
                shard: si,
                fault: *fault,
                stream: cfg.stream_certify,
                reg,
                mvcc: cfg.mvcc,
            })
            .collect();
        let data = (0..plan.data_nodes)
            .map(|n| DataNodeParams {
                catalog: plan.catalog,
                node: n as u32,
                fault: *fault,
                batch_max: cfg.batch_max,
                log: plan.wal_dir.map(|dir| (cfg.durability, dir)),
                reg,
                mvcc: cfg.mvcc,
                shards,
            })
            .collect();
        Ok(ActorSet {
            controls,
            shard_inboxes,
            data,
            data_inboxes: fabric.data_inboxes,
            data_to_control: fabric.data_to_control,
            client_inboxes: fabric.client_inboxes,
            client_to_control: fabric.client_to_control,
            control_inbox: fabric.control_inbox,
            to_data: fabric.to_data,
            to_clients: fabric.to_clients,
            bytes: fabric.bytes,
            run_wall,
        })
    }
}

/// How long a wait for mail on TCP links lasts before the run is declared
/// wedged. Every byte a link can bring was written by an actor on the same
/// executor, and the wait pushes out what the writers held before it
/// polls, so on loopback it is readable at once; the grace covers only a
/// kernel that defers delivering it. A healthy wait for mail ends long
/// before: the grace is reached only by a run that can no longer move.
const WEDGE_GRACE: Duration = Duration::from_secs(1);

/// The executor's clock in a run: `Instant::now`, and a wait that ends at
/// its deadline or on a frame on any link of a fan-in it steps. Private to
/// this module, as everything here that reads the clock is: no actor can
/// name it.
struct RealTime {
    /// Every link of the fan-ins it steps.
    sockets: Sockets,
}

impl RealTime {
    /// A clock for an executor that steps the actors reading `inboxes`.
    ///
    /// # Errors
    /// [`NetError::Io`] if a descriptor for a link cannot be had.
    fn over<'i>(inboxes: impl IntoIterator<Item = &'i Inbox>) -> Result<RealTime, NetError> {
        Ok(RealTime {
            sockets: Sockets::of(inboxes)?,
        })
    }
}

impl Clock for RealTime {
    fn now(&mut self) -> Instant {
        Instant::now()
    }

    /// Pushes out what sends held, then makes one `ppoll` over every link
    /// until `until`, then one `read` on each readable link. Nothing but a
    /// link brings mail while the executor waits, and every link's writer
    /// is an actor on this executor, asleep: a wait for mail is refused at
    /// once with no link open, and with links open once one grace
    /// [`WEDGE_GRACE`] long has found none readable.
    fn wait_until(&mut self, until: Option<Instant>) -> Result<(), NetError> {
        let Some(until) = until else {
            if self.sockets.is_empty() {
                let stuck = "every actor sleeps until mail no link can bring";
                return Err(NetError::Wedged(stuck.into()));
            }
            let grace = Instant::now() + WEDGE_GRACE;
            while !self.sockets.wait(Some(grace.saturating_duration_since(Instant::now())))? {
                if Instant::now() >= grace {
                    let stuck = format!("every actor sleeps until mail, and no link brought any in {WEDGE_GRACE:?}");
                    return Err(NetError::Wedged(stuck));
                }
            }
            return Ok(());
        };
        self.sockets.wait(Some(until.saturating_duration_since(Instant::now())))?;
        Ok(())
    }
}

/// The coalescer bound of the links between the clients and control. A
/// closed loop's client is one caller pipelining on one connection: the
/// submissions a firing sends, and the acks of one control turn, leave as
/// one frame. An open loop's arrivals stand for independent users, each on
/// its own connection, so every submission and every ack is a frame of its
/// own — and how many arrivals share a firing is the executor's lateness in
/// waking, not anything in the protocol: coalesced, the frames per commit
/// would follow the host's timing from run to run.
fn client_batch_max(cfg: &NetConfig) -> usize {
    if cfg.open_loop.is_some() {
        1
    } else {
        cfg.batch_max
    }
}

/// What the actors of one run returned, before any of it is judged.
struct Joined {
    controls: Vec<Result<ControlOutcome, NetError>>,
    data: Vec<Result<DataOutcome, NetError>>,
    clients: Vec<Result<ClientOutcome, NetError>>,
    wall: Duration,
    /// Where the last window flushed into the observer ended, µs since the
    /// run began (0: none was).
    windowed: u64,
}

/// Phase 3: runs every actor of `set` to completion on this thread
/// ([`actor::step_all`] on `clock`, moving the actor `pick` names),
/// broadcasts `Shutdown` once every shard has stopped — or the executor
/// stopped early, at the first actor to fail or at a refusal of its own,
/// whose error becomes the first shard's outcome — and tears the plumbing
/// down. Given `obs`, a [`Windows`] actor flushes `reg` into it
/// while any other actor runs. The runtime's own tallies are published
/// last, so on return `reg` holds the whole run.
fn drive(
    set: ActorSet<'_>,
    plan: &RunPlan<'_>,
    reg: &Registry,
    obs: Option<&dyn Observer>,
    mut clock: impl Clock,
    pick: impl FnMut(&[&mut dyn Step], Instant) -> Result<Option<usize>, NetError>,
) -> Joined {
    let cfg = plan.cfg;
    let (catalog, specs) = (plan.catalog, plan.specs);
    let (depth, n) = (cfg.pipeline, plan.clients);
    let open = plan
        .arrivals
        .as_deref()
        .zip(cfg.open_loop)
        .map(|(arrivals_us, ol)| OpenLoopPlan {
            arrivals_us,
            inflight: ol.inflight,
            origin: set.run_wall,
        });
    let open = open.as_ref();
    let (to_data, to_clients) = (&set.to_data, &set.to_clients);
    let mut shutdowns = 0u64;
    let started = Instant::now();
    let shards = set.controls.len();
    // Every shard is done (or failed): stop the router and tear the run
    // down — the runtime owns the Shutdown broadcast. A failed shard
    // releases the clients too: an ack they wait for will never come.
    let mut teardown = |failed: bool| {
        if shards > 1 {
            set.control_inbox.close();
        }
        let clients: &[Arc<dyn MsgTx>] = if failed { to_clients } else { &[] };
        for tx in to_data.iter().chain(clients) {
            shutdowns += u64::from(tx.send(&Msg::Shutdown));
        }
    };
    let router = (shards > 1).then(|| Router::new(&plan.map, &set.shard_inboxes, reg));
    let mut router = router.map(|r| Slot::new(Ok(r), &set.control_inbox));
    let mut controls: Vec<_> = set
        .controls
        .into_iter()
        .zip(&set.shard_inboxes)
        .map(|(params, inbox)| {
            let shard = ControlActor::start(params, catalog, to_data, to_clients);
            Slot::new(Ok(shard), inbox)
        })
        .collect();
    let mut data: Vec<_> = set
        .data
        .into_iter()
        .zip(&set.data_inboxes)
        .zip(&set.data_to_control)
        .map(|((params, inbox), tx)| Slot::new(DataActor::start(params, tx), inbox))
        .collect();
    let mut clients: Vec<_> = (0u32..)
        .zip(&set.client_inboxes)
        .zip(&set.client_to_control)
        .map(|((c, inbox), tx)| {
            let batch_max = client_batch_max(cfg);
            let client = ClientActor::start(c, n, specs, open, tx, depth, batch_max, reg);
            Slot::new(Ok(client), inbox)
        })
        .collect();
    let window_inbox = Mailbox::queue();
    let mut windows = obs.map(|obs| {
        let every = cfg.window_ms.max(1).saturating_mul(1000);
        let windows = Windows {
            reg,
            obs,
            origin: started,
            every,
            last: 0,
        };
        Slot::background(Ok(windows), &window_inbox)
    });
    // Control shards first, as the teardown reads them; then the router,
    // the data nodes, the clients and, last, the window flush.
    let mut slots: Vec<&mut dyn Step> = controls
        .iter_mut()
        .map(|s| s as &mut dyn Step)
        .chain(router.iter_mut().map(|s| s as &mut dyn Step))
        .chain(data.iter_mut().map(|s| s as &mut dyn Step))
        .chain(clients.iter_mut().map(|s| s as &mut dyn Step))
        .collect();
    let actors = slots.len();
    slots.extend(windows.iter_mut().map(|s| s as &mut dyn Step));
    let mut torn_down = false;
    let ran = actor::step_all(&mut slots, &mut clock, pick, |slots| {
        let shards = || slots.iter().take(shards).map(|s| s.ended());
        if !torn_down && shards().all(|e| e.is_some()) {
            torn_down = true;
            teardown(shards().any(|e| e == Some(false)));
        }
        if slots.iter().take(actors).all(|s| s.ended().is_some()) {
            window_inbox.close();
        }
    });
    drop(slots);
    if !torn_down {
        teardown(true);
    }
    let wall = started.elapsed();
    let mut controls: Vec<_> = controls.into_iter().map(Slot::outcome).collect();
    if let (Err(e), Some(first)) = (ran, controls.first_mut()) {
        *first = Err(e);
    }
    let data = data.into_iter().map(Slot::outcome).collect();
    let clients = clients.into_iter().map(Slot::outcome).collect();
    let windowed = windows.and_then(|w| w.outcome().ok()).unwrap_or(0);

    // Teardown: dropping our sender handles — on TCP — FINs the writer
    // sockets so every socket's reader sees EOF.
    drop(set.to_data);
    drop(set.data_to_control);
    drop(set.to_clients);
    drop(set.client_to_control);
    let runtime_tx = MsgCounts {
        shutdown: shutdowns,
        ..MsgCounts::default()
    };
    crate::publish(reg, metric::msg_tx, runtime_tx.fields());
    crate::publish(reg, metric::wire, (set.bytes)().fields());
    Joined {
        controls,
        data,
        clients,
        wall,
        windowed,
    }
}

/// What the actors hand back beside the registry, folded together: nothing
/// here is a count (see the module docs).
#[derive(Default)]
struct Books {
    /// Exact order-to-reply round trips, µs.
    data_rtts: Vec<u64>,
    /// The run's merged snapshot books: shard-disjoint transactions seal
    /// into shard-owned logs, so a plain merge is the whole-run seal order.
    mvcc_log: CommitLog,
    readers: Vec<ReaderRecord>,
    /// Exact submit-to-ack latencies, µs, by ledger.
    reader_lats: Vec<u64>,
    writer_lats: Vec<u64>,
    shed_ids: BTreeSet<TxnId>,
    /// The three conservation values, summed over the data nodes' stores.
    read_checksum: u64,
    cell_sum: u64,
    write_units: u64,
}

impl Books {
    /// Folds the actors' outcomes together. Returns the merged control audit
    /// alongside (single-shard: untouched).
    ///
    /// # Errors
    /// [`NetError::Certify`] when the shard audits are not
    /// component-disjoint — histories a sharded scheduler could never have
    /// produced.
    fn merge(
        controls: Vec<ControlOutcome>,
        clients: Vec<ClientOutcome>,
        data: &[DataOutcome],
    ) -> Result<(Books, ControlAudit), NetError> {
        let mut b = Books::default();
        let mut audits = Vec::with_capacity(controls.len());
        for c in controls {
            b.data_rtts.extend(c.data_rtts_us);
            audits.push(c.audit);
            if let Some(audit) = c.mvcc {
                b.mvcc_log.merge(audit.log);
                b.readers.extend(audit.readers);
            }
        }
        // The merge re-checks the sharding premise — component disjointness.
        let audit = merge_audits(audits).map_err(NetError::Certify)?;
        for c in clients {
            b.reader_lats.extend(c.reader_latencies_us);
            b.writer_lats.extend(c.writer_latencies_us);
            b.shed_ids.extend(c.shed_ids);
        }
        for d in data {
            b.read_checksum = b.read_checksum.wrapping_add(d.read_checksum);
            b.cell_sum += d.cell_sum;
            b.write_units += d.write_units;
        }
        Ok((b, audit))
    }
}

/// Phase 4: judges what the actors returned — actor errors first, then
/// conservation and certification — and fills the report's counts from
/// `reg`, which by now holds the whole run. Hands the merged control audit
/// back beside the report.
fn assemble(
    plan: &RunPlan<'_>,
    joined: Joined,
    reg: &Registry,
) -> Result<(NetReport, ControlAudit), NetError> {
    let cfg = plan.cfg;
    // Error priority: the first shard's slot holds the executor's error —
    // the first actor to fail, whichever it was — and otherwise a control
    // shard's verdict names the root cause.
    let controls = joined.controls.into_iter().collect::<Result<Vec<_>, _>>()?;
    let clients_out = joined.clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    let data_out = joined.data.into_iter().collect::<Result<Vec<_>, _>>()?;
    #[expect(
        clippy::expect_used,
        reason = "invariant: shards >= 1, so at least one control outcome"
    )]
    let head = controls
        .first()
        .expect("invariant: shards >= 1, so at least one control outcome");
    let (name, mode, shards) = (head.name.clone(), head.mode, controls.len());
    let (mut b, mut audit) = Books::merge(controls, clients_out, &data_out)?;
    let totals = reg.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);
    let wire = |field: &str| total(&metric::wire(field));
    // A high-water mark is kept per owner; the run's is the highest.
    let peak = |name: fn(usize) -> String, owners: usize| {
        (0..owners).map(|i| total(&name(i))).max().unwrap_or(0)
    };
    let sent_prefix = metric::msg_tx("");
    let reader_commits = b.readers.len() as u64;
    let (offered, shed) = (total(metric::OFFERED), total(metric::SHED));
    // What actually entered the system — the open-loop commit target.
    let accepted = offered - shed;

    // The shards' live verdict (`None` unless `stream_certify`). A
    // violation outranks everything but an actor error and shards that are
    // not disjoint: the run "completed" but its history was not admissible.
    let streamed = audit.verdict.take().transpose().map_err(NetError::Certify)?;

    // Writers commit through the scheduler, readers on the snapshot plane;
    // a shard counts both kinds, as both are commits to the workload.
    let committed: u64 = (0..shards).map(|k| total(&metric::shard_commits(k))).sum();
    let wall = joined.wall.as_secs_f64();
    let mut report = NetReport {
        scheduler: name,
        transport: plan.transport.to_string(),
        fault: plan.fault.label().to_string(),
        durability: cfg.durability.label().to_string(),
        clients: plan.clients,
        data_nodes: plan.data_nodes,
        shards,
        submitted: accepted as usize,
        offered,
        shed,
        committed,
        rejected_admissions: total(metric::SCHED_ABORTS),
        delayed_retries: total(metric::SCHED_DELAYS),
        max_retry_streak: u32::try_from(peak(metric::shard_max_retry_streak, shards))
            .unwrap_or(u32::MAX),
        wall_ms: wall * 1e3,
        throughput_tps: if wall > 0.0 {
            committed as f64 / wall
        } else {
            0.0
        },
        // Every commit is on exactly one of the two client ledgers.
        latency: LatencySummary::from_us(
            b.reader_lats.iter().chain(&b.writer_lats).copied().collect(),
        ),
        data_rtt: LatencySummary::from_us(std::mem::take(&mut b.data_rtts)),
        history_events: streamed.map_or(audit.history.len(), |r| r.events),
        logical_ticks: audit.final_tick.millis(),
        messages_sent: totals
            .iter()
            .filter(|(name, _)| name.starts_with(&sent_prefix))
            .map(|(_, v)| v)
            .sum(),
        batched_inner: total(metric::BATCHED_INNER),
        msgs: MsgBreakdown::read(|ty| total(&metric::msg_tx(ty))),
        bytes_sent: wire("bytes_sent"),
        bytes_received: wire("bytes_received"),
        frames_sent: wire("frames_sent"),
        frames_received: wire("frames_received"),
        dup_deliveries: total(metric::FAULT_DUPS),
        delayed_deliveries: total(metric::FAULT_DELAYS),
        access_retries: total(metric::ACCESS_RETRIES),
        crash_drops: total(metric::CRASH_DROPS),
        recoveries: total(metric::WAL_RECOVERIES),
        node_unavailable: total(metric::NODE_UNAVAILABLE),
        wal_records: total(metric::WAL_RECORDS),
        wal_flushes: total(metric::WAL_FLUSHES),
        wal_fsyncs: total(metric::WAL_FSYNCS),
        wal_bytes: total(metric::WAL_BYTES),
        wal_replayed_chunks: total(metric::WAL_REPLAYED_CHUNKS),
        wal_checkpoints: total(metric::WAL_CHECKPOINTS),
        certified: false,
        certify_grants: 0,
        certify_eq_checks: 0,
        expected_write_units: 0,
        store_write_units: b.write_units,
        store_cell_sum: b.cell_sum,
        store_consistent: false,
        read_checksum: b.read_checksum,
        reader_commits,
        reader_latency: LatencySummary::from_us(std::mem::take(&mut b.reader_lats)),
        writer_latency: LatencySummary::from_us(std::mem::take(&mut b.writer_lats)),
        snapshot_reads: total(metric::SNAPSHOT_READS),
        chain_appended: total(metric::CHAIN_APPENDED),
        chain_pruned: total(metric::CHAIN_PRUNED),
        chain_live_peak: peak(metric::node_chain_live_peak, plan.data_nodes),
        snapshot_certified: false,
    };

    // Conservation: every committed write step's declared units must be
    // visible as cell increments across the data nodes. Shed arrivals
    // never entered the system, so their declared writes don't count.
    let expected: u64 = plan
        .specs
        .iter()
        .filter(|t| !b.shed_ids.contains(&t.id))
        .flat_map(|t| t.steps().iter())
        .filter(|st| st.mode == AccessMode::Write)
        .map(|st| st.actual_cost.units())
        .sum();
    report.expected_write_units = expected;
    report.store_consistent = report.committed == accepted
        && b.write_units == expected
        && b.cell_sum == expected;
    if report.committed == accepted && !report.store_consistent {
        return Err(NetError::StoreDiverged {
            expected,
            cells: b.cell_sum,
            tallied: b.write_units,
        });
    }

    if let Some(cert) = streamed {
        // Certified live, prefix by prefix, while the run was still going;
        // the replay below would see an (intentionally) empty history.
        report.certified = true;
        report.certify_grants = cert.grants;
        report.certify_eq_checks = cert.eq_checks;
    } else if cfg.certify {
        // The control actor's history (sharded: the merge built above),
        // replayed against the workload's declarations, not control's copy.
        let cert =
            certify_history(&audit.history, plan.specs, mode).map_err(NetError::Certify)?;
        report.certified = true;
        report.certify_grants = cert.grants;
        report.certify_eq_checks = cert.eq_checks;
    }

    // Snapshot-consistency certification: every snapshot read must have
    // observed exactly the committed-prefix state of its partition at its
    // snapshot tick. Rebuilt from the control plane's seal/commit books
    // alone — the data nodes' answers are what is being checked.
    if cfg.mvcc {
        let rows: BTreeMap<u32, u64> = plan
            .catalog
            .partitions()
            .map(|p| (p.0, plan.catalog.size(p).units().max(1)))
            .collect();
        certify_snapshots(&b.mvcc_log, &b.readers, &rows)?;
    }
    // Vacuously true without a snapshot plane.
    report.snapshot_certified = true;
    Ok((report, audit))
}

/// A run's clock over `inboxes`, for the executor's and the transport's
/// tests.
#[cfg(test)]
pub(crate) fn real_time(inboxes: &[&Inbox]) -> Result<impl Clock + Send, NetError> {
    RealTime::over(inboxes.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{round_robin, step_all, VirtualTime};
    use crate::plan::PlanError;
    use crate::transport::InProc;
    use std::sync::mpsc;
    use wtpg_core::certify::CertifyViolation;
    use wtpg_core::error::CoreError;
    use wtpg_core::sched::{Admission, CommitResult, ControlOps, LockOutcome, NodcScheduler, Scheduler};
    use wtpg_core::time::Tick;
    use wtpg_core::work::Work;
    use wtpg_core::wtpg::Wtpg;
    use wtpg_rt::queue::PopResult;
    use wtpg_rt::sched_by_name;
    use wtpg_rt::workload::pattern_specs;
    use wtpg_workload::Pattern;

    fn run(sched: &'static str, txns: usize, fault: &FaultPlan) -> NetReport {
        let (catalog, specs) = pattern_specs(Pattern::One, txns, 7);
        let cfg = NetConfig::default();
        run_cell(
            &cfg,
            &|| sched_by_name(sched, 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            fault,
        )
        .expect("cell run completes cleanly")
    }

    #[test]
    fn inproc_chain_run_commits_and_certifies() {
        let (catalog, specs) = pattern_specs(Pattern::One, 40, 7);
        let reg = Arc::<Registry>::default();
        let r = run_cell_load(
            &NetConfig::default(),
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
            None,
            Some(Arc::clone(&reg)),
        )
        .expect("cell run completes cleanly");
        assert_eq!(r.committed, 40);
        assert!(r.certified);
        assert!(r.store_consistent, "{r:?}");
        assert_eq!(r.transport, "inproc");
        assert_eq!(r.fault, "none");
        assert_eq!(r.shards, 1, "Pattern 1 is one conflict component");
        // One end-of-stream Shutdown per client, plus the runtime's
        // teardown broadcast to each data node.
        assert_eq!(r.msgs.shutdown as usize, r.clients + r.data_nodes);
        // The whole client protocol: one Submit and one Commit ack per txn,
        // as messages handled — a frame may carry several of either.
        let totals = reg.totals();
        let heard = |ty: &str| totals.get(&metric::msg_rx(ty)).copied();
        assert_eq!((heard("submit"), heard("commit")), (Some(40), Some(40)));
        assert!(r.msgs.submit + r.msgs.commit <= 80, "{r:?}");
        assert!(r.msgs.access >= r.msgs.access_done / 2);
        assert!(r.msgs.batch > 0, "data-node replies must coalesce");
        assert!(r.batched_inner > r.msgs.batch, "batches carry > 1 message");
        assert_eq!(r.bytes_sent, 0, "inproc moves messages, no wire bytes");
    }

    #[test]
    fn inproc_fault_run_still_certifies() {
        let r = run("k2", 60, &FaultPlan::flaky_with_crash(9, 0));
        assert_eq!(r.committed, 60);
        assert!(r.certified);
        assert!(r.store_consistent, "{r:?}");
        assert_eq!(r.fault, "fault+crash");
        assert!(
            r.dup_deliveries > 0 && r.delayed_deliveries > 0,
            "fault layer must actually fire: {r:?}"
        );
        assert!(r.crash_drops > 0, "the crash window must drop messages");
        assert!(
            r.access_retries > 0,
            "dropped Access orders must be redelivered"
        );
    }

    #[test]
    fn clustered_run_shards_the_control_plane() {
        let (catalog, specs) =
            pattern_specs(Pattern::Clustered { groups: 4, hots_per_group: 4 }, 80, 11);
        let cfg = NetConfig {
            shards: 4,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
        )
        .expect("sharded run completes cleanly");
        assert_eq!(r.shards, 4, "four clustered groups → four shards");
        assert_eq!(r.committed, 80);
        assert!(r.certified, "merged history must replay-certify");
        assert!(r.store_consistent, "{r:?}");
    }

    #[test]
    fn sharded_fault_run_still_certifies() {
        let (catalog, specs) =
            pattern_specs(Pattern::Clustered { groups: 2, hots_per_group: 4 }, 60, 13);
        let cfg = NetConfig {
            shards: 2,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("k2", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::flaky_with_crash(21, 0),
        )
        .expect("sharded fault run completes cleanly");
        assert_eq!(r.shards, 2);
        assert_eq!(r.committed, 60);
        assert!(r.certified);
        assert!(r.store_consistent, "{r:?}");
        assert!(r.dup_deliveries > 0, "fault layer must fire: {r:?}");
    }

    #[test]
    fn closed_loop_streaming_certifier_matches_replay() {
        let (catalog, specs) = pattern_specs(Pattern::One, 60, 7);
        let replayed = run("chain", 60, &FaultPlan::none());
        let cfg = NetConfig {
            stream_certify: true,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
        )
        .expect("streaming-certified run completes cleanly");
        assert_eq!(r.committed, 60);
        assert!(r.certified, "stream certifier must sign off");
        assert!(r.store_consistent, "{r:?}");
        assert!(r.certify_grants > 0, "grants must be checked live");
        assert!(
            r.history_events > 0,
            "events fed to the stream must be reported"
        );
        // Same protocol, same books — streaming changes *where* the
        // history goes, not what the run does.
        assert_eq!(replayed.committed, r.committed);
        assert_eq!(r.offered, 60);
        assert_eq!(r.shed, 0, "closed loop never sheds");
    }

    #[test]
    fn open_loop_cell_sheds_and_stream_certifies() {
        let (catalog, specs) = pattern_specs(Pattern::One, 240, 9);
        // λ far beyond what one core serves: the in-flight windows fill and
        // the surplus arrivals must be shed, not queued.
        let cfg = NetConfig {
            open_loop: Some(OpenLoop {
                lambda_tps: 1_000_000.0,
                seed: 5,
                inflight: 4,
            }),
            stream_certify: true,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("k2", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
        )
        .expect("open-loop run completes cleanly");
        assert_eq!(r.offered, 240, "every arrival is offered exactly once");
        assert!(r.shed > 0, "an impossible λ must shed: {r:?}");
        assert_eq!(r.offered - r.shed, r.submitted as u64);
        assert_eq!(r.committed, r.submitted as u64, "drain exit commits all accepted");
        assert!(r.certified && r.store_consistent, "{r:?}");
        // One end-of-stream Shutdown per client, plus the runtime's
        // teardown broadcast to each data node.
        assert_eq!(r.msgs.shutdown as usize, r.clients + r.data_nodes);
    }

    /// One open-loop client with a 4096-deep window fires its first burst,
    /// far more than the 1,024 messages an in-process inbox used to hold,
    /// into the control inbox from the executor's own thread: a send that
    /// blocked on a full inbox would hang the run there.
    #[test]
    fn an_open_loop_burst_past_the_old_inbox_bound_never_blocks_the_executor() {
        let (catalog, specs) = pattern_specs(Pattern::One, 5000, 5);
        let cfg = NetConfig {
            clients: 1,
            open_loop: Some(OpenLoop {
                lambda_tps: 1e9,
                seed: 5,
                inflight: 4096,
            }),
            ..NetConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let sched = || sched_by_name("chain", 2, 2000).expect("known scheduler");
            let _ = tx.send(run_cell(&cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::none()));
        });
        let r = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the run ends")
            .expect("the run completes cleanly");
        assert_eq!(r.offered, 5000);
        assert!(r.submitted > 1024, "the first burst must pass the old bound: {r:?}");
        assert_eq!(r.committed, r.submitted as u64);
        assert!(r.certified && r.store_consistent, "{r:?}");
    }

    /// The same burst over TCP, megabytes of `Submit` frames — more than
    /// loopback's buffers take unread (≈ 3.9 MB on the reference kernel):
    /// the client writes them into its socket from the executor's thread,
    /// which is also the thread that steps the control node reading them. A
    /// send that waited for the reader would hang the run there.
    #[test]
    fn an_open_loop_tcp_burst_of_megabytes_never_blocks_the_executor() {
        const TXNS: usize = 48_000;
        let (catalog, specs) = pattern_specs(Pattern::One, TXNS, 5);
        let burst: usize = specs
            .iter()
            .map(|s| {
                let spec = Some(s.clone());
                let submit = Msg::Submit { client: 0, txn: s.id, step: None, spec };
                crate::codec::encode_frame(&submit).len()
            })
            .sum();
        assert!(burst > 5 << 20, "{burst} bytes of submits: more than 5 MiB");
        let cfg = NetConfig {
            clients: 1,
            open_loop: Some(OpenLoop {
                lambda_tps: 1e9,
                seed: 5,
                inflight: TXNS,
            }),
            ..NetConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let sched = || sched_by_name("chain", 2, 2000).expect("known scheduler");
            let faults = FaultPlan::none();
            let _ = tx.send(run_cell(&cfg, &sched, &catalog, &specs, &crate::Tcp, &faults));
        });
        let r = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the run ends")
            .expect("the run completes cleanly");
        assert_eq!((r.offered, r.shed), (TXNS as u64, 0), "the window holds the whole burst");
        assert_eq!(r.committed, TXNS as u64);
        assert!(r.certified && r.store_consistent, "{r:?}");
    }

    #[test]
    fn open_loop_sharded_drain_exit_completes() {
        let (catalog, specs) =
            pattern_specs(Pattern::Clustered { groups: 2, hots_per_group: 4 }, 120, 13);
        let cfg = NetConfig {
            shards: 2,
            open_loop: Some(OpenLoop {
                lambda_tps: 500_000.0,
                seed: 3,
                inflight: 4,
            }),
            stream_certify: true,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
        )
        .expect("sharded open-loop run completes cleanly");
        assert_eq!(r.shards, 2, "two clustered groups → two shards");
        assert_eq!(r.offered, 120);
        assert_eq!(r.committed, r.submitted as u64);
        assert!(r.certified && r.store_consistent, "{r:?}");
    }

    /// NODC's grant-everything decisions under the lock-based baseline's
    /// claim ([`Scheduler::certify_mode`]'s default): its conflicting grants
    /// break exclusion.
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

    /// A [`Lawless`] run of `cfg` over `pattern`: it must end in
    /// [`NetError::Certify`].
    fn lawless(cfg: &NetConfig, pattern: Pattern, txns: usize) -> CertifyViolation {
        let (catalog, specs) = pattern_specs(pattern, txns, 7);
        let sched = || Box::new(Lawless(NodcScheduler::new())) as SendScheduler;
        match run_cell(cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::none()) {
            Err(NetError::Certify(v)) => v,
            other => panic!("a lawless run must fail certification: {other:?}"),
        }
    }

    #[test]
    fn a_run_that_breaks_exclusion_fails_certification_replayed_or_streamed() {
        let replayed = lawless(&NetConfig::default(), Pattern::One, 60);
        let open = NetConfig {
            open_loop: Some(OpenLoop {
                lambda_tps: 1_000_000.0,
                seed: 5,
                inflight: 4,
            }),
            stream_certify: true,
            ..NetConfig::default()
        };
        let streamed = lawless(&open, Pattern::One, 60);
        let sharded = NetConfig {
            shards: 2,
            ..open
        };
        let clustered = Pattern::Clustered { groups: 2, hots_per_group: 4 };
        let sharded = lawless(&sharded, clustered, 120);
        for v in [replayed, streamed, sharded] {
            assert!(v.what.contains("while blocked"), "an exclusion violation: {v}");
        }
    }

    #[test]
    fn registry_sees_every_plane() {
        use wtpg_obs::Registry;
        let (catalog, specs) = pattern_specs(Pattern::One, 40, 7);
        let reg = Arc::<Registry>::default();
        let r = run_cell_load(
            &NetConfig::default(),
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
            None,
            Some(Arc::clone(&reg)),
        )
        .expect("instrumented run completes cleanly");
        assert_eq!(r.committed, 40);
        use wtpg_obs::window::metric;
        let snap = reg.flush_snapshot(250_000);
        assert_eq!(snap.counter(metric::COMMITS), 40, "{:?}", snap.counters);
        assert_eq!(snap.counter(metric::SUBMITTED), 40);
        assert_eq!(snap.counter(metric::OFFERED), 40);
        assert!(snap.counter(metric::SCHED_GRANTS) > 0, "{:?}", snap.counters);
        assert_eq!(snap.counter(&metric::shard_commits(0)), 40);
        assert!(snap.counter(metric::DATA_UNITS) > 0);
        let lat = snap
            .hist(metric::COMMIT_LAT_US)
            .expect("commit-latency histogram registered");
        assert_eq!(lat.count(), 40, "one latency sample per commit");
    }

    /// A run given only `obs`, whose window outlasts it, books in a private
    /// registry and hands it over as exactly one `Window`, whose counters
    /// are the report's.
    #[test]
    fn observer_receives_the_private_registry_as_one_window() {
        use wtpg_obs::{EventKind, MemorySink};
        let (catalog, specs) = pattern_specs(Pattern::One, 20, 7);
        let sink = Arc::<MemorySink>::default();
        let cfg = NetConfig {
            window_ms: 3_600_000,
            ..NetConfig::default()
        };
        let r = run_cell_load(
            &cfg,
            &|| sched_by_name("c2pl", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
            Some(sink.clone()),
            None,
        )
        .expect("traced run");
        assert_eq!(r.committed, 20);
        let evs = sink.snapshot();
        let [ev] = evs.as_slice() else {
            panic!("one flush, one record: {evs:?}");
        };
        let EventKind::Window(w) = &ev.kind else {
            panic!("the record is a window: {ev:?}");
        };
        assert_eq!((w.seq, ev.track), (0, 0));
        assert_eq!(w.counter(metric::COMMITS), r.committed);
        assert_eq!(w.counter(metric::OFFERED), r.offered);
        assert_eq!(w.counter(&metric::msg_tx("submit")), r.msgs.submit);
        assert_eq!(w.counter(&metric::msg_tx("batch")), r.msgs.batch);
        assert_eq!(w.counter(&metric::msg_rx("submit")), r.committed, "one Submit per txn");
        assert_eq!(w.counter(metric::BATCHED_INNER), r.batched_inner);
        assert_eq!(w.counter(&metric::shard_commits(0)), r.committed);
        let sent: u64 = w.counter_matches(&metric::msg_tx(""), "").iter().map(|(_, v)| v).sum();
        assert_eq!(sent, r.messages_sent);
        let steps = w.counter(&metric::msg_rx("access_done"));
        assert!(steps > 0, "steps completed");
        assert_eq!(
            w.hist(metric::DATA_RTT_US).map(wtpg_obs::Histogram::count),
            Some(steps),
            "one round trip per completed step"
        );
        assert!(w.hist(metric::BATCH_SIZE).is_some(), "missing batch-size histogram");
        // C2PL's deadlock-prediction cache is consulted on every request.
        assert!(w.counter("dd_cache_hits") + w.counter("dd_cache_misses") > 0);
    }

    /// What the run *computes* (commits, store contents, conservation,
    /// certification) must be identical whether telemetry is absent, a null
    /// sink, or 1 ms windows flushed on the executor into the caller's
    /// registry — the observability plane reads, it never steers. The
    /// windows tile the run: `seq` counts up, `at` never goes back nor past
    /// the run's end, and their counter deltas sum to the run's books. The
    /// run cannot end inside its first window: its arrivals are an open
    /// loop's, the last due past two windows, with room in flight for every
    /// one of them, so none is shed.
    #[test]
    fn windowed_telemetry_does_not_change_the_trajectory() {
        use wtpg_obs::{EventKind, MemorySink, NullObserver, Registry};
        let project = |r: &NetReport| {
            (
                r.committed,
                r.submitted,
                r.offered,
                r.shed,
                r.expected_write_units,
                r.store_write_units,
                r.store_cell_sum,
                r.store_consistent,
                r.certified,
                r.certify_grants,
            )
        };
        let run = |obs: Option<Arc<dyn Observer>>, reg: Option<Arc<Registry>>| {
            let (catalog, specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 60, 11);
            let open_loop = OpenLoop {
                lambda_tps: 5_000.0,
                seed: 11,
                inflight: specs.len(),
            };
            let cfg = NetConfig {
                stream_certify: true,
                certify: false,
                window_ms: 1,
                open_loop: Some(open_loop),
                ..NetConfig::default()
            };
            run_cell_load(
                &cfg,
                &|| sched_by_name("k2", 2, 2000).expect("known scheduler"),
                &catalog,
                &specs,
                &InProc,
                &FaultPlan::none(),
                obs,
                reg,
            )
            .expect("run completes cleanly")
        };
        let last_arrival = wtpg_workload::poisson_arrivals_us(60, 5_000.0, 11).last().copied();
        assert!(last_arrival >= Some(2_000), "arrivals span two windows: {last_arrival:?} µs");
        let bare = project(&run(None, None));
        let nulled = project(&run(Some(Arc::new(NullObserver)), None));
        assert_eq!(bare, nulled, "null observer changed the outcome");
        let reg = Arc::<Registry>::default();
        let sink = Arc::<MemorySink>::default();
        let r = run(Some(sink.clone()), Some(Arc::clone(&reg)));
        assert_eq!(bare, project(&r), "windowed telemetry changed the outcome");

        let evs = sink.snapshot();
        let n = evs.len();
        assert!(n >= 2, "1 ms windows over a whole run: {n} windows");
        let (mut at, mut sums, mut gauges) = (0, BTreeMap::<String, u64>::new(), BTreeSet::new());
        for (seq, ev) in (0u64..).zip(&evs) {
            let EventKind::Window(w) = &ev.kind else {
                panic!("every record is a window: {ev:?}");
            };
            assert_eq!((w.seq, ev.track), (seq, 0));
            assert!(ev.at >= at, "window {seq} ends at {} before {at}", ev.at);
            at = ev.at;
            for (name, delta) in &w.counters {
                *sums.entry(name.to_string()).or_default() += delta;
            }
            gauges.extend(w.gauges.iter().map(|(name, _)| name.to_string()));
        }
        let end = r.wall_ms * 1e3 + 1.0;
        assert!(at as f64 <= end, "window past the run's end: {at} µs");
        let counted: BTreeMap<String, u64> = reg
            .totals()
            .into_iter()
            .filter(|(name, v)| *v > 0 && !gauges.contains(name))
            .collect();
        assert_eq!(sums, counted, "the windows sum to the run's books");
        let sum = |name: &str| sums.get(name).copied().unwrap_or(0);
        assert_eq!(sum(&metric::shard_commits(0)), r.committed);
        assert_eq!(sum(metric::OFFERED), r.offered);
        let sent = sums.iter().filter(|(n, _)| n.starts_with("msg/tx/"));
        assert_eq!(sent.map(|(_, v)| v).sum::<u64>(), r.messages_sent);
    }

    #[test]
    fn mvcc_readers_commit_lock_free_and_certify() {
        use wtpg_workload::ReadMix;
        let (catalog, mut specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 80, 7);
        ReadMix::skewed(0.5, 0.9).apply(&catalog, &mut specs, 7);
        let readers = specs.iter().filter(|s| s.is_read_only()).count() as u64;
        assert!(readers > 10, "the mix must actually produce readers");
        let cfg = NetConfig {
            mvcc: true,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::none(),
        )
        .expect("mvcc run completes cleanly");
        assert_eq!(r.committed, 80, "writers and readers all commit");
        assert_eq!(r.reader_commits, readers);
        assert!(r.snapshot_certified, "every snapshot read checked out");
        assert!(r.certified, "the writer history still replay-certifies");
        assert!(r.store_consistent, "{r:?}");
        // Each reader scans 1–2 partitions, one SnapshotRead order each
        // (the per-type msg counters undercount coalesced sends, so assert
        // on the data nodes' served-read tally instead).
        assert!(
            r.snapshot_reads >= readers && r.snapshot_reads <= 2 * readers,
            "{r:?}"
        );
        // Readers never touch the lock table: Submit + orders + Commit ack
        // only. Chain entries were recorded for concurrent writer commits.
        assert!(r.chain_appended > 0, "writer commits must seal versions");
        assert!(r.reader_latency.p50_ms > 0.0, "reader tail is tracked");
        assert!(r.writer_latency.p50_ms > 0.0, "writer tail is tracked");
    }

    #[test]
    fn mvcc_survives_faulty_links_and_a_crash() {
        use wtpg_workload::ReadMix;
        let (catalog, mut specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 60, 17);
        ReadMix::new(0.4).apply(&catalog, &mut specs, 17);
        let readers = specs.iter().filter(|s| s.is_read_only()).count() as u64;
        assert!(readers > 5);
        let cfg = NetConfig {
            mvcc: true,
            ..NetConfig::default()
        };
        let r = run_cell(
            &cfg,
            &|| sched_by_name("k2", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::flaky_with_crash(23, 0),
        )
        .expect("mvcc fault run completes cleanly");
        assert_eq!(r.committed, 60);
        assert_eq!(r.reader_commits, readers);
        assert!(r.snapshot_certified && r.certified && r.store_consistent, "{r:?}");
        assert!(
            r.dup_deliveries > 0 && r.delayed_deliveries > 0,
            "fault layer must actually fire: {r:?}"
        );
    }

    #[test]
    fn mvcc_rejects_kill_faults() {
        let (catalog, specs) = pattern_specs(Pattern::One, 10, 7);
        let cfg = NetConfig {
            mvcc: true,
            ..NetConfig::default()
        };
        let err = run_cell(
            &cfg,
            &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
            &catalog,
            &specs,
            &InProc,
            &FaultPlan::kill_node(0),
        )
        .expect_err("kill + mvcc must be rejected up front");
        assert!(
            matches!(err, NetError::Plan(PlanError::MvccWithKill)),
            "{err:?}"
        );
    }

    /// The keystone differential: with the snapshot plane *on* but zero
    /// read-only transactions in the batch, the run must be outcome-for-
    /// outcome identical to a plane-off run — same commits, same store
    /// bytes, same conservation books, same certification, and every
    /// MVCC-side counter pinned to zero. The plane may exist; it must not
    /// steer.
    #[test]
    fn zero_read_mix_under_the_snapshot_plane_is_invisible() {
        use wtpg_workload::ReadMix;
        let project = |r: &NetReport| {
            (
                r.committed,
                r.submitted,
                r.offered,
                r.shed,
                r.expected_write_units,
                r.store_write_units,
                r.store_cell_sum,
                r.store_consistent,
                r.certified,
                r.certify_grants,
                (r.msgs.submit, r.msgs.commit),
                (r.msgs.snapshot_read, r.msgs.snapshot_reply),
            )
        };
        let run = |mvcc: bool| {
            let (catalog, mut specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 60, 11);
            if mvcc {
                // --read-mix 0: the gate RNG is never even constructed.
                ReadMix::new(0.0).apply(&catalog, &mut specs, 11);
            }
            let cfg = NetConfig {
                mvcc,
                ..NetConfig::default()
            };
            run_cell(
                &cfg,
                &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
                &catalog,
                &specs,
                &InProc,
                &FaultPlan::none(),
            )
            .expect("run completes cleanly")
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(
            project(&off),
            project(&on),
            "an idle snapshot plane changed the trajectory"
        );
        // No readers ⇒ the whole MVCC side stays dark (chains still record
        // writer seals — that is bookkeeping, not behaviour — but nothing
        // is ever read, pruned, or certified against them).
        assert_eq!(on.reader_commits, 0);
        assert_eq!(on.snapshot_reads, 0);
        assert_eq!(off.reader_commits, 0);
        assert!(on.snapshot_certified && off.snapshot_certified);
        assert_eq!(off.chain_appended, 0, "plane off: no chains at all");
    }

    /// A two-shard map, and a transaction of each shard.
    fn two_shards() -> (ShardMap, TxnId, TxnId) {
        let groups = Pattern::Clustered { groups: 2, hots_per_group: 4 };
        let (_, specs) = pattern_specs(groups, 20, 3);
        let map = ShardMap::build(&specs, 2);
        assert_eq!(map.shards(), 2, "two clustered groups → two shards");
        let of = |s| specs.iter().map(|t| t.id).find(|&t| map.shard_of(t) == s);
        let (a, b) = of(0).zip(of(1)).expect("both shards own a transaction");
        (map, a, b)
    }

    /// Everything queued in `inbox`, in order.
    fn drain(inbox: &Inbox) -> Vec<Msg> {
        std::iter::from_fn(|| match inbox.try_pop() {
            PopResult::Item(m) => Some(m),
            _ => None,
        })
        .collect()
    }

    /// Routes `mail` by `map` on an executor of its own, then closes the
    /// inbox; returns what each shard was dealt and the registry's totals.
    fn deal(map: &ShardMap, mail: Vec<Msg>) -> (Vec<Vec<Msg>>, Registry) {
        let (reg, inbox) = (Registry::new(), Mailbox::queue());
        let shards = [Mailbox::queue(), Mailbox::queue()];
        mail.into_iter().for_each(|m| assert!(inbox.push(m)));
        inbox.close();
        let mut slot = Slot::new(Ok(Router::new(map, &shards, &reg)), &inbox);
        let mut clock = VirtualTime(Instant::now());
        step_all(&mut [&mut slot], &mut clock, round_robin(), |_| {})
            .expect("a closed inbox stops the router");
        slot.outcome().expect("the router stops cleanly");
        (shards.iter().map(drain).collect(), reg)
    }

    fn done(txn: TxnId, step: u32) -> Msg {
        Msg::AccessDone { txn, step, checksum: 7, units: 1000 }
    }

    fn submit(txn: TxnId) -> Msg {
        Msg::Submit { client: 0, txn, step: None, spec: None }
    }

    #[test]
    fn a_batch_of_two_shards_is_dealt_by_the_map_in_order() {
        let (map, a, b) = two_shards();
        let batch = Msg::Batch(vec![done(a, 0), done(b, 0), done(a, 1), done(b, 1)]);
        let tail = Msg::Commit { client: 1, txn: b };
        let (dealt, reg) = deal(&map, vec![batch, done(a, 2), tail.clone()]);
        assert_eq!(dealt[0], vec![done(a, 0), done(a, 1), done(a, 2)]);
        assert_eq!(dealt[1], vec![done(b, 0), done(b, 1), tail]);
        let totals = reg.totals();
        assert_eq!(totals.get(&metric::msg_rx("batch")), Some(&1), "{totals:?}");
        assert_eq!(totals.get(&metric::msg_rx("access_done")), None, "a shard tallies those");
    }

    #[test]
    fn recover_and_shutdown_reach_every_shard_behind_earlier_submits() {
        let (map, a, b) = two_shards();
        let recover = Msg::Recover { node: 1, last_lsn: 9, replayed_chunks: 3 };
        let mail = vec![submit(a), submit(b), recover.clone(), Msg::Shutdown];
        let (dealt, _) = deal(&map, mail);
        assert_eq!(dealt[0], vec![submit(a), recover.clone(), Msg::Shutdown]);
        assert_eq!(dealt[1], vec![submit(b), recover, Msg::Shutdown]);
    }

    #[test]
    fn an_unroutable_message_is_counted_once_and_dropped() {
        let (map, a, _) = two_shards();
        let stray = Msg::Forget { shard: 0, below: TxnId(1), txns: vec![], floors: vec![] };
        let (dealt, reg) = deal(&map, vec![stray, submit(a)]);
        assert_eq!(dealt, vec![vec![submit(a)], vec![]]);
        let totals = reg.totals();
        assert_eq!(totals.get(&metric::msg_rx("forget")), Some(&1), "{totals:?}");
        assert_eq!(totals.get(&metric::msg_rx("submit")), None, "a shard tallies those");
    }

    #[test]
    fn the_router_sleeps_until_mail_and_stops_once_its_inbox_closes() {
        let (map, a, _) = two_shards();
        let (reg, inbox) = (Registry::new(), Mailbox::queue());
        let shards = [Mailbox::queue(), Mailbox::queue()];
        let mut slot = Slot::new(Ok(Router::new(&map, &shards, &reg)), &inbox);
        let mut clock = VirtualTime(Instant::now());
        assert!(inbox.push(submit(a)));
        // Once its inbox is empty it asks to sleep until mail: with no
        // sender left, the run is wedged, and the router, owed nothing,
        // finishes cleanly when the executor stops it.
        let asleep = step_all(&mut [&mut slot], &mut clock, round_robin(), |_| {});
        assert!(matches!(&asleep, Err(NetError::Wedged(why)) if !why.contains(';')), "{asleep:?}");
        assert_eq!(drain(&shards[0]), vec![submit(a)]);
        assert_eq!(slot.ended(), Some(true), "stopped by the wedge, owing nothing");
        let inbox = Mailbox::queue();
        let mut slot = Slot::new(Ok(Router::new(&map, &shards, &reg)), &inbox);
        assert!(inbox.push(submit(a)));
        inbox.close();
        step_all(&mut [&mut slot], &mut clock, round_robin(), |_| {})
            .expect("the close wakes and stops it");
        assert_eq!(slot.ended(), Some(true));
    }
}
