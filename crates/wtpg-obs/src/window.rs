//! Windowed telemetry: a [`Registry`] of named counters, gauges and
//! streaming histograms that every layer updates on its hot path, plus the
//! snapshot-and-reset flush that turns one window of activity into a
//! single [`EventKind::Window`](crate::event::EventKind) record.
//!
//! The registry hands out cheap handles — [`Counter`] and [`Gauge`] are
//! shared cells, [`HistHandle`] a shared histogram — so producers pay one
//! plain add per observation and never touch the registry map again after
//! setup. A registry and its handles belong to one thread: every producer
//! of a run and its flush are stepped by the one executor, so nothing here
//! is locked. Flushing is the only consumer: [`Registry::flush`] snapshots
//! every metric, resets the histograms, computes counter deltas against the
//! previous flush, and returns a [`WindowSnapshot`] whose metric lists are
//! name-sorted (the registry maps are `BTreeMap`s), keeping windowed traces
//! byte-deterministic for a deterministic producer.
//!
//! This module is pure bookkeeping and carries the crate's determinism
//! contract: nothing here reads a clock. Every producer calls
//! [`Registry::flush`] at its own window boundaries with the timestamps it
//! supplies — a `wtpg-net` run from a window actor on its executor,
//! logical-time producers on tick boundaries.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::{Name, ObsEvent};
use crate::hist::Histogram;

/// A cumulative counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `d` to the counter.
    pub fn add(&self, d: u64) {
        self.0.set(self.0.get() + d);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The cumulative value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A level gauge handle (queue depth, backlog, lag). Cloning shares the
/// underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge(Rc<Cell<u64>>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Raises the level by `d`.
    pub fn add(&self, d: u64) {
        self.0.set(self.0.get() + d);
    }

    /// Lowers the level by `d`, saturating at zero.
    pub fn sub(&self, d: u64) {
        self.0.set(self.0.get().saturating_sub(d));
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A streaming histogram handle. Cloning shares the underlying histogram.
#[derive(Clone, Debug)]
pub struct HistHandle(Rc<RefCell<Histogram>>);

impl HistHandle {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Adds every sample of a finished histogram — how a tally an actor
    /// kept privately (a coalescer's flush sizes) is published at exit.
    pub fn merge(&self, other: &Histogram) {
        self.0.borrow_mut().merge(other);
    }
}

/// Everything one window of activity produced: counter *deltas* since the
/// previous flush, gauge levels at flush time, and the per-window
/// histogram snapshots (reset at each flush). Lists are name-sorted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Flush sequence number, 0-based.
    pub seq: u64,
    /// Window length in the producer's timestamp unit (the carrying
    /// event's `at` is the window *end*).
    pub len: u64,
    /// `(name, delta)` per counter that moved this window.
    pub counters: Vec<(Name, u64)>,
    /// `(name, level)` per registered gauge.
    pub gauges: Vec<(Name, u64)>,
    /// `(name, histogram)` per histogram that recorded this window.
    pub hists: Vec<(Name, Histogram)>,
}

impl WindowSnapshot {
    /// The delta of counter `name` this window (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The level of gauge `name` (None when absent).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram recorded under `name` this window, if any.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Sum of gauge levels whose names start with `prefix` and end with
    /// `suffix` — e.g. per-shard `ctrl/s<i>/backlog` totals.
    pub fn gauge_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Counter deltas whose names start with `prefix` and end with
    /// `suffix`, in name order — e.g. per-shard commit balance.
    pub fn counter_matches(&self, prefix: &str, suffix: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(n, v)| (n.to_string(), *v))
            .collect()
    }
}

/// The metric catalogue: every name a shared-nothing run books a number
/// under, shared by producers (clients, control shards, data nodes, the
/// runtime) and consumers (the run report, the SLO engine, `wtpg top`,
/// trace summaries). A fact has one handle and no second copy; DESIGN.md
/// §17 tabulates kind, producer and whether the handle is bumped live or
/// published once at actor exit. Names never contain `=`, `;`, `,` or `"` —
/// the window JSONL codec packs them into flat string fields.
pub mod metric {
    /// Open-loop arrivals offered by the load driver (counter).
    pub const OFFERED: &str = "load/offered";
    /// Arrivals shed because the in-flight bound was full (counter) —
    /// the backpressure signal.
    pub const SHED: &str = "load/shed";
    /// Transactions actually submitted to the control plane (counter).
    pub const SUBMITTED: &str = "load/submitted";
    /// Commit acks received by clients (counter).
    pub const COMMITS: &str = "load/commits";
    /// Submit-to-commit-ack latency, µs (histogram).
    pub const COMMIT_LAT_US: &str = "lat/commit_us";
    /// Submit-to-commit-ack latency of read-only (snapshot) BATs, µs
    /// (histogram). A subset of [`COMMIT_LAT_US`]'s samples; empty — and
    /// therefore omitted from every window — when the run has no readers.
    pub const READER_LAT_US: &str = "lat/reader_us";
    /// Read-only (snapshot) BAT commits acked by clients (counter). A
    /// subset of [`COMMITS`]; never bumped when the run has no readers.
    pub const READER_COMMITS: &str = "load/reader_commits";
    /// Clients' in-flight transactions (gauge, summed over clients).
    pub const INFLIGHT: &str = "load/inflight";
    /// Scheduler lock grants, control-side (counter).
    pub const SCHED_GRANTS: &str = "sched/grants";
    /// Scheduler aborts (admission rejections), control-side (counter).
    pub const SCHED_ABORTS: &str = "sched/aborts";
    /// Scheduler delays, control-side (counter).
    pub const SCHED_DELAYS: &str = "sched/delays";
    /// `Access` / `SnapshotRead` orders re-sent at a control shard's
    /// redelivery deadlines or at a node's rejoin (counter).
    pub const ACCESS_RETRIES: &str = "ctrl/access_retries";
    /// Orders parked as node-unavailable after their node blew past the
    /// redelivery budget (counter).
    pub const NODE_UNAVAILABLE: &str = "ctrl/node_unavailable";
    /// Order-to-reply round trip per bulk step or snapshot read, µs
    /// (histogram).
    pub const DATA_RTT_US: &str = "data/rtt_us";
    /// Bulk units applied across data nodes (counter).
    pub const DATA_UNITS: &str = "data/units";
    /// Messages a crashed or killed data node discarded (counter).
    pub const CRASH_DROPS: &str = "data/crash_drops";
    /// Step marks and snapshot-read memos the data nodes still held when
    /// they stopped: what control had not yet told them to forget
    /// (counter).
    pub const DATA_BOOKS_LEFT: &str = "data/books_left";
    /// WAL records appended (counter).
    pub const WAL_RECORDS: &str = "wal/records";
    /// WAL group-commit flushes (counter).
    pub const WAL_FLUSHES: &str = "wal/flushes";
    /// WAL `fdatasync` barriers (counter; `sync` durability only).
    pub const WAL_FSYNCS: &str = "wal/fsyncs";
    /// WAL bytes written to log files (counter).
    pub const WAL_BYTES: &str = "wal/bytes";
    /// WAL bytes buffered in the writer but not yet flushed to the file —
    /// flush lag, what a kill would destroy right now (gauge).
    pub const WAL_LAG: &str = "wal/lag";
    /// Node snapshots the data nodes wrote (counter).
    pub const WAL_CHECKPOINTS: &str = "wal/checkpoints";
    /// Kill-and-restart recoveries data nodes performed (counter).
    pub const WAL_RECOVERIES: &str = "wal/recoveries";
    /// Chunk records re-applied by recovery replays (counter).
    pub const WAL_REPLAYED_CHUNKS: &str = "wal/replayed_chunks";
    /// Per-partition dependency chains replayed by recoveries (counter).
    pub const WAL_REPLAYED_CHAINS: &str = "wal/replayed_chains";
    /// Recoveries that found, and healed past, a torn log tail (counter).
    pub const WAL_TORN_TAILS: &str = "wal/torn_tails";
    /// Lengths of the dependency chains recoveries replayed — the
    /// replay-parallelism profile (histogram).
    pub const WAL_REPLAY_CHAIN: &str = "wal/replay_chain";
    /// Version-chain entries recorded by data nodes (counter).
    pub const CHAIN_APPENDED: &str = "mvcc/chain_appended";
    /// Version-chain entries pruned below the GC floor (counter).
    pub const CHAIN_PRUNED: &str = "mvcc/chain_pruned";
    /// Snapshot reads served from version chains (counter).
    pub const SNAPSHOT_READS: &str = "mvcc/snapshot_reads";
    /// Coalescer flush sizes, size-1 flushes included (histogram).
    pub const BATCH_SIZE: &str = "batch/size";
    /// Messages that travelled inside sent `Batch` frames (counter).
    pub const BATCHED_INNER: &str = "batch/inner";
    /// Second copies the fault layer delivered (counter).
    pub const FAULT_DUPS: &str = "fault/dup_deliveries";
    /// Deliveries the fault layer held back first (counter).
    pub const FAULT_DELAYS: &str = "fault/delayed_deliveries";

    /// Every fixed name above. The per-shard, per-node and per-type
    /// families below, and the scheduler's
    /// [`ControlStats::fields`](crate::ControlStats::fields) (published per
    /// shard at exit under their bare names, as the simulator's trace
    /// spells them), complete the catalogue.
    pub const ALL: [&str; 35] = [
        OFFERED,
        SHED,
        SUBMITTED,
        COMMITS,
        COMMIT_LAT_US,
        READER_LAT_US,
        READER_COMMITS,
        INFLIGHT,
        SCHED_GRANTS,
        SCHED_ABORTS,
        SCHED_DELAYS,
        ACCESS_RETRIES,
        NODE_UNAVAILABLE,
        DATA_RTT_US,
        DATA_UNITS,
        CRASH_DROPS,
        DATA_BOOKS_LEFT,
        WAL_RECORDS,
        WAL_FLUSHES,
        WAL_FSYNCS,
        WAL_BYTES,
        WAL_LAG,
        WAL_CHECKPOINTS,
        WAL_RECOVERIES,
        WAL_REPLAYED_CHUNKS,
        WAL_REPLAYED_CHAINS,
        WAL_TORN_TAILS,
        WAL_REPLAY_CHAIN,
        CHAIN_APPENDED,
        CHAIN_PRUNED,
        SNAPSHOT_READS,
        BATCH_SIZE,
        BATCHED_INNER,
        FAULT_DUPS,
        FAULT_DELAYS,
    ];

    /// Per-shard admission backlog depth (gauge): `ctrl/s<i>/backlog`.
    pub fn shard_backlog(shard: usize) -> String {
        format!("ctrl/s{shard}/backlog")
    }
    /// Per-shard parked-set size (gauge): `ctrl/s<i>/parked`.
    pub fn shard_parked(shard: usize) -> String {
        format!("ctrl/s{shard}/parked")
    }
    /// Per-shard commits (counter): `ctrl/s<i>/commits`.
    pub fn shard_commits(shard: usize) -> String {
        format!("ctrl/s{shard}/commits")
    }
    /// Per-shard admissions (counter): `ctrl/s<i>/admissions`.
    pub fn shard_admissions(shard: usize) -> String {
        format!("ctrl/s{shard}/admissions")
    }
    /// Longest park-and-retry streak any transaction of the shard saw
    /// (gauge — a high-water mark, so per owner; the run's is the max):
    /// `ctrl/s<i>/max_retry_streak`.
    pub fn shard_max_retry_streak(shard: usize) -> String {
        format!("ctrl/s{shard}/max_retry_streak")
    }
    /// Longest live version chain a data node held (gauge, high-water mark
    /// per owner like the above): `mvcc/n<i>/chain_live_peak`.
    pub fn node_chain_live_peak(node: usize) -> String {
        format!("mvcc/n{node}/chain_live_peak")
    }
    /// Messages sent, by [`MsgCounts`](crate::MsgCounts) field name
    /// (counter; a sent batch counts once): `msg/tx/<type>`.
    pub fn msg_tx(ty: &str) -> String {
        format!("msg/tx/{ty}")
    }
    /// Messages dequeued and handled, by type (counter; inner messages of a
    /// received batch count under their own types): `msg/rx/<type>`.
    pub fn msg_rx(ty: &str) -> String {
        format!("msg/rx/{ty}")
    }
    /// Wire traffic, by [`ByteCounts`](crate::ByteCounts) field name
    /// (counter; all zero on in-process transports): `wire/<field>`.
    pub fn wire(field: &str) -> String {
        format!("wire/{field}")
    }
}

#[derive(Default)]
struct Inner {
    /// Each counter's cell beside its value at the previous flush.
    counters: BTreeMap<String, (Rc<Cell<u64>>, u64)>,
    gauges: BTreeMap<String, Rc<Cell<u64>>>,
    hists: BTreeMap<String, Rc<RefCell<Histogram>>>,
    seq: u64,
}

/// A registry of named windowed metrics. One per run, shared by every
/// actor on the run's one thread; see the module docs for the handle/flush
/// split.
#[derive(Default)]
pub struct Registry {
    inner: RefCell<Inner>,
}

/// True when `name` survives the window codec's flat packing.
fn name_ok(name: &str) -> bool {
    !name.is_empty() && !name.contains(['=', ';', ',', '"', '\\'])
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(name_ok(name), "bad metric name {name:?}");
        let mut inner = self.inner.borrow_mut();
        Counter(Rc::clone(&inner.counters.entry(name.to_string()).or_default().0))
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(name_ok(name), "bad metric name {name:?}");
        let mut inner = self.inner.borrow_mut();
        Gauge(Rc::clone(inner.gauges.entry(name.to_string()).or_default()))
    }

    /// The histogram named `name`, created empty on first use.
    pub fn hist(&self, name: &str) -> HistHandle {
        debug_assert!(name_ok(name), "bad metric name {name:?}");
        let mut inner = self.inner.borrow_mut();
        HistHandle(Rc::clone(inner.hists.entry(name.to_string()).or_default()))
    }

    /// The run's cumulative books: every counter's value since creation
    /// (flushing reports deltas but never resets a counter, so this holds
    /// whoever flushed, and however often) and every gauge's current level,
    /// by name. Histograms are per-window state and are not included.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let inner = self.inner.borrow();
        let counters = inner.counters.iter().map(|(name, (cell, _))| (name, cell));
        counters
            .chain(&inner.gauges)
            .map(|(name, cell)| (name.clone(), cell.get()))
            .collect()
    }

    /// Snapshots one window and resets the streaming state: counters
    /// report their delta since the previous flush (unchanged ones are
    /// omitted), gauges report their level, histograms are taken and
    /// reset (empty ones are omitted). `len` is the window length in
    /// the producer's timestamp unit.
    pub fn flush_snapshot(&self, len: u64) -> WindowSnapshot {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        let counters = inner
            .counters
            .iter_mut()
            .filter_map(|(name, (cell, prev))| {
                let (now, before) = (cell.get(), *prev);
                *prev = now;
                (now > before).then(|| (Name::Owned(name.clone()), now - before))
            })
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|(name, cell)| (Name::Owned(name.clone()), cell.get()))
            .collect();
        let hists = inner
            .hists
            .iter()
            .filter(|(_, cell)| !cell.borrow().is_empty())
            .map(|(name, cell)| (Name::Owned(name.clone()), cell.take()))
            .collect();
        WindowSnapshot {
            seq,
            len,
            counters,
            gauges,
            hists,
        }
    }

    /// Flushes one window as a ready-to-record event ending at `at` on
    /// `track`.
    pub fn flush(&self, at: u64, track: u32, len: u64) -> ObsEvent {
        ObsEvent::window(at, track, self.flush_snapshot(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_report_deltas_and_reset_between_windows() {
        let reg = Registry::new();
        let c = reg.counter("load/offered");
        c.add(5);
        let w0 = reg.flush_snapshot(250);
        assert_eq!(w0.seq, 0);
        assert_eq!(w0.counter("load/offered"), 5);
        c.add(2);
        let w1 = reg.flush_snapshot(250);
        assert_eq!(w1.seq, 1);
        assert_eq!(w1.counter("load/offered"), 2);
        // An idle window omits the unchanged counter entirely.
        let w2 = reg.flush_snapshot(250);
        assert!(w2.counters.is_empty(), "{:?}", w2.counters);
        assert_eq!(w2.counter("load/offered"), 0);
    }

    #[test]
    fn gauges_report_levels_and_hists_snapshot_and_reset() {
        let reg = Registry::new();
        let g = reg.gauge("ctrl/s0/backlog");
        g.add(7);
        g.sub(3);
        let h = reg.hist("lat/commit_us");
        h.record(100);
        h.record(200);
        let w0 = reg.flush_snapshot(250);
        assert_eq!(w0.gauge("ctrl/s0/backlog"), Some(4));
        assert_eq!(w0.hist("lat/commit_us").map(Histogram::count), Some(2));
        // The histogram was reset; the gauge holds its level.
        let w1 = reg.flush_snapshot(250);
        assert!(w1.hist("lat/commit_us").is_none());
        assert_eq!(w1.gauge("ctrl/s0/backlog"), Some(4));
        g.sub(100); // saturates at zero
        assert_eq!(reg.flush_snapshot(250).gauge("ctrl/s0/backlog"), Some(0));
    }

    #[test]
    fn totals_are_cumulative_whoever_flushed_and_merge_publishes_a_finished_hist() {
        let reg = Registry::new();
        let c = reg.counter(metric::COMMITS);
        c.add(5);
        reg.flush_snapshot(250);
        c.add(2);
        reg.gauge(metric::WAL_LAG).set(9);
        let totals = reg.totals();
        assert_eq!(totals.get(metric::COMMITS), Some(&7), "flushing resets nothing");
        assert_eq!(totals.get(metric::WAL_LAG), Some(&9));
        assert_eq!(totals.len(), 2);

        let mut finished = Histogram::new();
        finished.record(3);
        finished.record(40);
        let h = reg.hist(metric::BATCH_SIZE);
        h.record(3);
        h.merge(&finished);
        let w = reg.flush_snapshot(250);
        assert_eq!(w.hist(metric::BATCH_SIZE).map(Histogram::count), Some(3));
        // The catalogue's fixed names are distinct.
        let names: std::collections::BTreeSet<&str> = metric::ALL.into_iter().collect();
        assert_eq!(names.len(), metric::ALL.len());
    }

    #[test]
    fn handles_share_cells_and_snapshot_order_is_name_sorted() {
        let reg = Registry::new();
        let a = reg.counter("b/two");
        let b = reg.counter("b/two");
        a.inc();
        b.inc();
        reg.counter("a/one").inc();
        reg.gauge("z/g").set(9);
        let w = reg.flush_snapshot(1);
        assert_eq!(w.counter("b/two"), 2);
        let names: Vec<&str> = w.counters.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, vec!["a/one", "b/two"]);
        assert_eq!(w.gauge_sum("z/", "g"), 9);
        assert_eq!(
            w.counter_matches("b/", "two"),
            vec![("b/two".to_string(), 2)]
        );
    }

    #[test]
    fn merging_window_hists_reconstructs_the_whole_run() {
        let reg = Registry::new();
        let h = reg.hist("lat/commit_us");
        let mut whole = Histogram::new();
        let mut merged = Histogram::new();
        for window in 0..4u64 {
            for i in 0..50u64 {
                let v = window * 1000 + i * 7;
                h.record(v);
                whole.record(v);
            }
            let w = reg.flush_snapshot(250);
            if let Some(wh) = w.hist("lat/commit_us") {
                merged.merge(wh);
            }
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.encode(), whole.encode());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn interleaved_merge_is_byte_identical_to_serial() {
        // REPLAY-style merge: each of four producers records its slice of
        // the sample stream through its own handle on the shared cell, the
        // four interleaved sample by sample as actors on one executor are,
        // and separately into a private histogram. Bucket increments are
        // commutative, so the registry's combined histogram, a serial fold
        // of the same samples, and any merge order of the private parts
        // must all encode to identical bytes.
        let reg = Registry::new();
        let samples: Vec<u64> = (0..4000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        let workers = 4;
        let handles: Vec<HistHandle> = (0..workers).map(|_| reg.hist("lat/commit_us")).collect();
        for (i, &v) in samples.iter().enumerate() {
            handles[i % workers].record(v);
        }
        let interleaved = reg
            .flush_snapshot(1)
            .hist("lat/commit_us")
            .expect("recorded")
            .clone();

        let mut serial = Histogram::new();
        for &v in &samples {
            serial.record(v);
        }
        let parts: Vec<Histogram> = (0..workers)
            .map(|w| {
                let mut h = Histogram::new();
                for &v in samples.iter().skip(w).step_by(workers) {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut forward = Histogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = Histogram::new();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        assert_eq!(interleaved.encode(), serial.encode());
        assert_eq!(forward.encode(), serial.encode());
        assert_eq!(reverse.encode(), serial.encode());
    }
}
