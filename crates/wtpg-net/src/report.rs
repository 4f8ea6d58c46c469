//! Per-run report for one (scheduler, transport, fault) cell.

use serde::Serialize;

use wtpg_rt::metrics::LatencySummary;

/// Message tallies by protocol type, in `Msg` declaration order — the
/// serializable mirror of [`MsgCounts`](wtpg_obs::MsgCounts) (`wtpg-obs`
/// stays serde-free by design).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MsgBreakdown {
    /// Whole-transaction submissions.
    pub submit: u64,
    /// Bulk-step orders to data nodes.
    pub access: u64,
    /// Completed bulk steps (data node → control).
    pub access_done: u64,
    /// Commit acks.
    pub commit: u64,
    /// Per-chunk progress reports.
    pub stats_delta: u64,
    /// Teardown broadcasts.
    pub shutdown: u64,
    /// Vectored frames (each counts once; its payload is in the inner
    /// types' counters only on the receive side).
    pub batch: u64,
    /// Recovery announcements from killed-and-restarted data nodes.
    pub recover: u64,
    /// Lock-free snapshot-read orders to data nodes (read-only BATs).
    pub snapshot_read: u64,
    /// Completed snapshot reads (data node → control).
    pub snapshot_reply: u64,
    /// Notices of what a data node may forget sent as frames of their own:
    /// only the answer to a `Recover` with nothing to re-send; every other
    /// notice rides behind an order in a `Batch`.
    pub forget: u64,
}

impl MsgBreakdown {
    /// Reads the breakdown back from the run's books: `sent(ty)` is the
    /// total booked under `msg/tx/<ty>`, `ty` a
    /// [`MsgCounts`](wtpg_obs::MsgCounts) field name.
    pub(crate) fn read(sent: impl Fn(&str) -> u64) -> MsgBreakdown {
        MsgBreakdown {
            submit: sent("submit"),
            access: sent("access"),
            access_done: sent("access_done"),
            commit: sent("commit"),
            stats_delta: sent("stats_delta"),
            shutdown: sent("shutdown"),
            batch: sent("batch"),
            recover: sent("recover"),
            snapshot_read: sent("snapshot_read"),
            snapshot_reply: sent("snapshot_reply"),
            forget: sent("forget"),
        }
    }
}

/// The result of one shared-nothing run — what `wtpg net --out` writes for
/// one (scheduler, transport, fault) cell.
#[derive(Clone, Debug, Serialize)]
pub struct NetReport {
    /// Scheduler display name ("CHAIN", "K2", …).
    pub scheduler: String,
    /// Transport label ("inproc", "tcp").
    pub transport: String,
    /// Fault-plan label ("none", "fault", "crash", "fault+crash", "kill",
    /// "fault+kill", …).
    pub fault: String,
    /// Durability level label ("none", "buffered", "sync").
    pub durability: String,
    /// Client actors driving transactions.
    pub clients: usize,
    /// Data-node actors (one per catalog node).
    pub data_nodes: usize,
    /// Effective control shards (1 unless the workload's conflict graph
    /// has independent components and sharding was requested).
    pub shards: usize,
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions the workload *offered* (arrivals). Closed loop: equals
    /// `submitted`. Open loop: `submitted + shed`.
    pub offered: u64,
    /// Open-loop arrivals shed at a full in-flight window (never
    /// submitted; their declared writes are excluded from conservation).
    pub shed: u64,
    /// Transactions committed (equals `submitted` when no one starves).
    pub committed: u64,
    /// Rejected admissions — each one returns the transaction to the head
    /// of the control node's admission queue.
    pub rejected_admissions: u64,
    /// Step requests the scheduler blocked or delayed (each one parks the
    /// transaction on the control node for a retry).
    pub delayed_retries: u64,
    /// Longest reject/delay retry streak any single transaction saw.
    pub max_retry_streak: u32,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Submit-to-commit-ack latency.
    pub latency: LatencySummary,
    /// Grant-to-`AccessDone` round trip per bulk step.
    pub data_rtt: LatencySummary,
    /// Events in the recorded history.
    pub history_events: usize,
    /// Logical ticks consumed by the control node.
    pub logical_ticks: u64,
    /// Protocol messages sent, total (duplicates injected by the fault
    /// layer are *not* counted — they are deliveries, not sends; a `Batch`
    /// frame counts once).
    pub messages_sent: u64,
    /// Messages that travelled inside sent `Batch` frames.
    pub batched_inner: u64,
    /// Protocol messages sent, by type.
    pub msgs: MsgBreakdown,
    /// Frame-level wire bytes written (zero on in-process transports).
    pub bytes_sent: u64,
    /// Frame-level wire bytes read.
    pub bytes_received: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read.
    pub frames_received: u64,
    /// Duplicate deliveries injected by the fault layer.
    pub dup_deliveries: u64,
    /// Deliveries the fault layer held back.
    pub delayed_deliveries: u64,
    /// `Access` orders re-sent at the control node's redelivery deadlines
    /// or at a node's rejoin.
    pub access_retries: u64,
    /// Messages discarded by the simulated data-node crash.
    pub crash_drops: u64,
    /// Kill-and-restart recoveries performed by data nodes (each one is a
    /// full log replay back into a fresh store).
    pub recoveries: u64,
    /// `(txn, step)` orders whose node blew past the redelivery budget and
    /// were parked as node-unavailable instead of failing the run; they
    /// re-send at the capped interval until the node rejoins.
    pub node_unavailable: u64,
    /// Chunk records appended to data-node write-ahead logs.
    pub wal_records: u64,
    /// Group-commit buffer flushes to log files.
    pub wal_flushes: u64,
    /// `fdatasync` barriers issued (`sync` durability only).
    pub wal_fsyncs: u64,
    /// Log bytes written.
    pub wal_bytes: u64,
    /// Chunk records re-applied by recovery replays.
    pub wal_replayed_chunks: u64,
    /// Node snapshots the data nodes wrote.
    pub wal_checkpoints: u64,
    /// True when the recorded history was replay-certified.
    pub certified: bool,
    /// Grants checked by the certifier (0 when certification was off).
    pub certify_grants: usize,
    /// `E(q)` spot checks performed by the certifier.
    pub certify_eq_checks: usize,
    /// Milli-object cells the workload declared for bulk updates.
    pub expected_write_units: u64,
    /// Milli-object cells actually updated across the data nodes' stores.
    pub store_write_units: u64,
    /// Sum over every cell across every data node.
    pub store_cell_sum: u64,
    /// True when every committed bulk update is visible in the stores.
    pub store_consistent: bool,
    /// Checksum folded over every bulk read (interleaving-dependent).
    pub read_checksum: u64,
    /// Read-only BATs committed on the MVCC snapshot plane (included in
    /// `committed`; 0 with the plane off, where read-only specs take the
    /// lock path and count as writers).
    pub reader_commits: u64,
    /// Submit-to-commit-ack latency of read-only transactions — on the
    /// snapshot plane when it is up, on the S-lock path otherwise (the
    /// baseline the plane is compared against).
    pub reader_latency: LatencySummary,
    /// Submit-to-commit-ack latency of transactions with at least one
    /// write step.
    pub writer_latency: LatencySummary,
    /// Snapshot reads served from data-node version chains.
    pub snapshot_reads: u64,
    /// Version-chain entries recorded across all partitions.
    pub chain_appended: u64,
    /// Version-chain entries pruned by the GC watermark.
    pub chain_pruned: u64,
    /// Largest live per-partition chain length any node observed.
    pub chain_live_peak: u64,
    /// True when every snapshot read was certified against the
    /// committed-prefix reference (vacuously true with the plane off).
    pub snapshot_certified: bool,
}

impl NetReport {
    /// Wire bytes per committed transaction (0 when nothing committed or
    /// the transport writes no frames).
    pub fn bytes_per_commit(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.committed as f64
        }
    }

    /// Fraction of offered arrivals that were shed (0 when nothing was
    /// offered — only open-loop runs shed at all).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Protocol messages per committed transaction.
    pub fn msgs_per_commit(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.committed as f64
        }
    }
}
