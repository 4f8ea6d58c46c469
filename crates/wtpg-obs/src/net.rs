//! Network-plane statistics for the `wtpg-net` shared-nothing runtime.
//!
//! Like [`ControlStats`](crate::ControlStats), these are plain bundles of
//! cumulative `u64` counters — no clocks, no maps — kept per actor or per
//! transport endpoint and merged after the join. [`MsgCounts`] tallies
//! messages by protocol type (one field per `Msg` variant), [`ByteCounts`]
//! tallies wire traffic, and [`NetStats`] bundles both sides of an actor's
//! traffic with the fault-layer observations (duplicates delivered, delays
//! injected, retries, crash drops).

use crate::event::ObsEvent;
use crate::observer::Observer;

/// Cumulative message tallies, one counter per protocol message type, in
/// the declaration (and ascending wire-tag) order of `wtpg-net`'s `Msg`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCounts {
    /// `Submit` — client hands the control node a whole transaction.
    pub submit: u64,
    /// `Access` — control node orders a data node to run a bulk step.
    pub access: u64,
    /// `AccessDone` — data node finished a bulk step (carries the checksum).
    pub access_done: u64,
    /// `Commit` — control node's commit ack to the client.
    pub commit: u64,
    /// `StatsDelta` — data node's per-chunk progress report.
    pub stats_delta: u64,
    /// `Shutdown` — orderly teardown.
    pub shutdown: u64,
    /// `Batch` — a vectored frame coalescing several messages for one peer.
    /// Counts as one wire message; its inner messages are tallied under
    /// their own types only by the *receiving* actor's processed counts.
    pub batch: u64,
    /// `Recover` — a restarted data node announces its replayed state.
    pub recover: u64,
    /// `RecoverAck` — control acknowledges a recovery and re-sends the
    /// node's outstanding orders.
    pub recover_ack: u64,
    /// `SnapshotRead` — control orders a lock-free snapshot scan at a data
    /// node (read-only BATs under the MVCC layer).
    pub snapshot_read: u64,
    /// `SnapshotReply` — data node answers a snapshot scan with its
    /// checksum.
    pub snapshot_reply: u64,
}

impl MsgCounts {
    /// The counters as `(name, value)` pairs, in wire-tag order.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("submit", self.submit),
            ("access", self.access),
            ("access_done", self.access_done),
            ("commit", self.commit),
            ("stats_delta", self.stats_delta),
            ("shutdown", self.shutdown),
            ("batch", self.batch),
            ("recover", self.recover),
            ("recover_ack", self.recover_ack),
            ("snapshot_read", self.snapshot_read),
            ("snapshot_reply", self.snapshot_reply),
        ]
    }

    /// Total messages across all types.
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|(_, v)| v).sum()
    }

    /// Adds every counter of `other` into `self` (merge after a join).
    pub fn merge(&mut self, other: &MsgCounts) {
        self.submit += other.submit;
        self.access += other.access;
        self.access_done += other.access_done;
        self.commit += other.commit;
        self.stats_delta += other.stats_delta;
        self.shutdown += other.shutdown;
        self.batch += other.batch;
        self.recover += other.recover;
        self.recover_ack += other.recover_ack;
        self.snapshot_read += other.snapshot_read;
        self.snapshot_reply += other.snapshot_reply;
    }
}

/// Cumulative write-ahead-log statistics for one data node (or one run,
/// after merging): append/flush/fsync activity on the hot path and replay
/// work performed by kill-restart recoveries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Chunk records appended to the log.
    pub records: u64,
    /// Userspace-buffer flushes to the log file (group commits).
    pub flushes: u64,
    /// `fdatasync` barriers issued (`Durability::Sync` only).
    pub fsyncs: u64,
    /// Log bytes written (frame headers included).
    pub bytes: u64,
    /// Chunk records re-applied by recovery replays.
    pub replayed_chunks: u64,
    /// Independent per-partition dependency chains replayed.
    pub replayed_chains: u64,
    /// Kill-and-restart recoveries performed.
    pub recoveries: u64,
    /// Recoveries that found (and healed past) a torn log tail.
    pub torn_tails: u64,
    /// Node snapshots written (replay-bounding checkpoints).
    pub checkpoints: u64,
}

impl WalStats {
    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("records", self.records),
            ("flushes", self.flushes),
            ("fsyncs", self.fsyncs),
            ("bytes", self.bytes),
            ("replayed_chunks", self.replayed_chunks),
            ("replayed_chains", self.replayed_chains),
            ("recoveries", self.recoveries),
            ("torn_tails", self.torn_tails),
            ("checkpoints", self.checkpoints),
        ]
    }

    /// Adds every counter of `other` into `self` (merge after a join).
    pub fn merge(&mut self, other: &WalStats) {
        self.records += other.records;
        self.flushes += other.flushes;
        self.fsyncs += other.fsyncs;
        self.bytes += other.bytes;
        self.replayed_chunks += other.replayed_chunks;
        self.replayed_chains += other.replayed_chains;
        self.recoveries += other.recoveries;
        self.torn_tails += other.torn_tails;
        self.checkpoints += other.checkpoints;
    }

    /// Emits one cumulative counter event per nonzero statistic, stamped
    /// `at` on `track`, with names prefixed `net_wal_`.
    pub fn emit(&self, obs: &dyn Observer, at: u64, track: u32) {
        for (name, v) in self.fields() {
            if v != 0 {
                obs.record(ObsEvent::counter(at, track, format!("net_wal_{name}"), v));
            }
        }
    }
}

/// Cumulative wire-traffic tallies for one transport endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteCounts {
    /// Payload + frame-header bytes written.
    pub bytes_sent: u64,
    /// Payload + frame-header bytes read.
    pub bytes_received: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read.
    pub frames_received: u64,
}

impl ByteCounts {
    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("bytes_sent", self.bytes_sent),
            ("bytes_received", self.bytes_received),
            ("frames_sent", self.frames_sent),
            ("frames_received", self.frames_received),
        ]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ByteCounts) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
    }
}

/// One actor's (or one run's) network-plane statistics: messages processed
/// and sent by type, wire traffic, and fault-layer observations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages this actor dequeued and handled, by type.
    pub processed: MsgCounts,
    /// Messages this actor sent, by type.
    pub sent: MsgCounts,
    /// Wire traffic (zero for in-process transports).
    pub bytes: ByteCounts,
    /// Duplicate deliveries observed (fault layer sent a second copy).
    pub dup_deliveries: u64,
    /// Deliveries the fault layer held back before forwarding.
    pub delayed_deliveries: u64,
    /// `Access` orders re-sent by the control node's retry watchdog.
    pub access_retries: u64,
    /// Messages discarded by a crashed data node.
    pub crash_drops: u64,
    /// Messages that travelled *inside* sent `Batch` frames (each batch of
    /// n messages adds n here but only 1 to `sent.batch`).
    pub batched_inner: u64,
}

impl NetStats {
    /// Adds every counter of `other` into `self` (merge after a join).
    pub fn merge(&mut self, other: &NetStats) {
        self.processed.merge(&other.processed);
        self.sent.merge(&other.sent);
        self.bytes.merge(&other.bytes);
        self.dup_deliveries += other.dup_deliveries;
        self.delayed_deliveries += other.delayed_deliveries;
        self.access_retries += other.access_retries;
        self.crash_drops += other.crash_drops;
        self.batched_inner += other.batched_inner;
    }

    /// Emits one cumulative counter event per nonzero statistic, stamped
    /// `at` on `track`, with names prefixed `net_` (message types become
    /// `net_rx_<type>` / `net_tx_<type>`).
    pub fn emit(&self, obs: &dyn Observer, at: u64, track: u32) {
        for (name, v) in self.processed.fields() {
            if v != 0 {
                obs.record(ObsEvent::counter(at, track, format!("net_rx_{name}"), v));
            }
        }
        for (name, v) in self.sent.fields() {
            if v != 0 {
                obs.record(ObsEvent::counter(at, track, format!("net_tx_{name}"), v));
            }
        }
        for (name, v) in self.bytes.fields() {
            if v != 0 {
                obs.record(ObsEvent::counter(at, track, format!("net_{name}"), v));
            }
        }
        for (name, v) in [
            ("net_dup_deliveries", self.dup_deliveries),
            ("net_delayed_deliveries", self.delayed_deliveries),
            ("net_access_retries", self.access_retries),
            ("net_crash_drops", self.crash_drops),
            ("net_batched_inner", self.batched_inner),
        ] {
            if v != 0 {
                obs.record(ObsEvent::counter(at, track, name, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::MemorySink;

    #[test]
    fn totals_and_merge() {
        let mut a = MsgCounts {
            submit: 2,
            commit: 3,
            ..MsgCounts::default()
        };
        let b = MsgCounts {
            commit: 1,
            shutdown: 4,
            ..MsgCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.submit, 2);
        assert_eq!(a.commit, 4);
        assert_eq!(a.shutdown, 4);
        assert_eq!(a.total(), 10);
        assert_eq!(MsgCounts::default().total(), 0);
    }

    #[test]
    fn byte_counts_merge() {
        let mut a = ByteCounts {
            bytes_sent: 100,
            frames_sent: 2,
            ..ByteCounts::default()
        };
        a.merge(&ByteCounts {
            bytes_sent: 50,
            bytes_received: 7,
            frames_received: 1,
            ..ByteCounts::default()
        });
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.bytes_received, 7);
        assert_eq!(a.frames_sent, 2);
        assert_eq!(a.frames_received, 1);
    }

    #[test]
    fn net_stats_emit_skips_zeros() {
        let sink = MemorySink::new();
        let stats = NetStats {
            processed: MsgCounts {
                submit: 5,
                ..MsgCounts::default()
            },
            sent: MsgCounts {
                commit: 5,
                ..MsgCounts::default()
            },
            bytes: ByteCounts {
                bytes_sent: 80,
                ..ByteCounts::default()
            },
            dup_deliveries: 1,
            ..NetStats::default()
        };
        stats.emit(&sink, 7, 3);
        let evs = sink.take();
        assert_eq!(evs.len(), 4, "only nonzero counters are emitted: {evs:?}");
        assert!(evs.contains(&ObsEvent::counter(7, 3, "net_rx_submit", 5)));
        assert!(evs.contains(&ObsEvent::counter(7, 3, "net_tx_commit", 5)));
        assert!(evs.contains(&ObsEvent::counter(7, 3, "net_bytes_sent", 80)));
        assert!(evs.contains(&ObsEvent::counter(7, 3, "net_dup_deliveries", 1)));
    }

    #[test]
    fn net_stats_merge_covers_every_field() {
        let mut a = NetStats {
            dup_deliveries: 1,
            delayed_deliveries: 2,
            access_retries: 3,
            crash_drops: 4,
            batched_inner: 5,
            ..NetStats::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.dup_deliveries, 2);
        assert_eq!(a.delayed_deliveries, 4);
        assert_eq!(a.access_retries, 6);
        assert_eq!(a.crash_drops, 8);
        assert_eq!(a.batched_inner, 10);
    }

    #[test]
    fn wal_stats_merge_and_emit_skip_zeros() {
        let mut a = WalStats {
            records: 10,
            flushes: 2,
            bytes: 750,
            recoveries: 1,
            ..WalStats::default()
        };
        a.merge(&WalStats {
            records: 5,
            fsyncs: 3,
            replayed_chunks: 7,
            replayed_chains: 2,
            torn_tails: 1,
            checkpoints: 4,
            ..WalStats::default()
        });
        assert_eq!(a.records, 15);
        assert_eq!(a.fsyncs, 3);
        assert_eq!(a.checkpoints, 4);
        let sink = MemorySink::new();
        a.emit(&sink, 2, 0);
        let evs = sink.take();
        assert_eq!(evs.len(), 9, "one event per nonzero counter: {evs:?}");
        assert!(evs.contains(&ObsEvent::counter(2, 0, "net_wal_records", 15)));
        assert!(evs.contains(&ObsEvent::counter(2, 0, "net_wal_replayed_chains", 2)));
        assert!(evs.contains(&ObsEvent::counter(2, 0, "net_wal_torn_tails", 1)));
    }

    #[test]
    fn recover_counts_merge_into_totals() {
        let mut a = MsgCounts {
            recover: 1,
            ..MsgCounts::default()
        };
        a.merge(&MsgCounts {
            recover: 2,
            recover_ack: 3,
            ..MsgCounts::default()
        });
        assert_eq!(a.recover, 3);
        assert_eq!(a.recover_ack, 3);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn batch_counts_merge_and_emit() {
        let mut a = MsgCounts {
            batch: 2,
            ..MsgCounts::default()
        };
        a.merge(&MsgCounts {
            batch: 3,
            ..MsgCounts::default()
        });
        assert_eq!(a.batch, 5);
        assert_eq!(a.total(), 5);
        let sink = MemorySink::new();
        let stats = NetStats {
            sent: a,
            batched_inner: 9,
            ..NetStats::default()
        };
        stats.emit(&sink, 1, 0);
        let evs = sink.take();
        assert!(evs.contains(&ObsEvent::counter(1, 0, "net_tx_batch", 5)));
        assert!(evs.contains(&ObsEvent::counter(1, 0, "net_batched_inner", 9)));
    }
}
