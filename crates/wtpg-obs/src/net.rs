//! Network-plane tallies for the `wtpg-net` shared-nothing runtime.
//!
//! Like [`ControlStats`](crate::ControlStats), these are plain bundles of
//! cumulative `u64` counters — no clocks, no maps — that an actor or a
//! transport endpoint keeps privately while it runs. [`MsgCounts`] tallies
//! messages by protocol type (one field per `Msg` variant), [`ByteCounts`]
//! tallies wire traffic. Each owner publishes its bundle once, at exit,
//! into the run's [`Registry`](crate::Registry) through `fields()`, under
//! the [`metric`](crate::window::metric) families `msg/tx/<type>`,
//! `msg/rx/<type>` and `wire/<field>`; nothing else carries them.

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
    /// `StatsDelta` — a per-chunk progress report. No `wtpg-net` actor
    /// sends one (a data node answers a step once, with `AccessDone`), so
    /// this reads 0; the benchmark package still reads it.
    pub stats_delta: u64,
    /// `Shutdown` — orderly teardown.
    pub shutdown: u64,
    /// `Batch` — a vectored frame coalescing several messages for one peer.
    /// Counts as one wire message; its inner messages are tallied under
    /// their own types only by the *receiving* actor's processed counts.
    pub batch: u64,
    /// `Recover` — a restarted data node announces its replayed state.
    pub recover: u64,
    /// `SnapshotRead` — control orders a lock-free snapshot scan at a data
    /// node (read-only BATs under the MVCC layer).
    pub snapshot_read: u64,
    /// `SnapshotReply` — data node answers a snapshot scan with its
    /// checksum.
    pub snapshot_reply: u64,
    /// `Forget` — control tells a data node which transactions are
    /// answered for good and which GC floors rose.
    pub forget: u64,
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
            ("snapshot_read", self.snapshot_read),
            ("snapshot_reply", self.snapshot_reply),
            ("forget", self.forget),
        ]
    }

    /// Total messages across all types.
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|(_, v)| v).sum()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_follow_the_wire_tags_and_total_sums_them() {
        let counts = MsgCounts {
            submit: 2,
            recover: 1,
            forget: 3,
            ..MsgCounts::default()
        };
        let names = counts.fields().map(|(name, _)| name);
        assert_eq!(names.first(), Some(&"submit"));
        assert_eq!(names.last(), Some(&"forget"));
        assert!(!names.contains(&"recover_ack"), "tag 12 is retired");
        assert_eq!(counts.total(), 6);
        assert_eq!(MsgCounts::default().total(), 0);
    }
}
