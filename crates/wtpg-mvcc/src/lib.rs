//! Multi-version concurrency layer for read-only bulk access transactions.
//!
//! The paper's machine gives every BAT what amounts to an exclusive claim on
//! the partitions it touches, so read-only bulk work (reports, scans,
//! backups) serializes behind bulk writers. This crate layers timestamped
//! multi-version state *under* the partition stores so a read-only BAT can
//! acquire a snapshot timestamp at admission, bypass the WTPG entirely, and
//! still be certified against an exact consistency rule.
//!
//! The layer exploits one property of the `NodeStore` storage model: a write
//! step's total effect on a partition's cells is a *commutative* function of
//! its unit count (every step starts at logical offset zero and cycles, so
//! the effect is `units / rows` added to every cell plus one to the first
//! `units % rows` cells — see [`chain::apply_write_effect`]). Snapshot state
//! therefore never needs value copies: it is the current cells minus the
//! effects of writes that are not part of the snapshot, in any order.
//!
//! Three pieces, each single-owner state (a control actor's log, a data
//! actor's chains): nothing here is shared between actors.
//!
//! * [`chain`] — per-partition [`VersionChain`]s keyed by control-assigned
//!   *seal sequence numbers*, plus the write-effect algebra and the
//!   snapshot-reconstruction kernel data nodes run for `SnapshotRead`.
//! * [`watermark`] — the control-side [`CommitLog`] (seal order + commit
//!   ticks of the control node's [`LogicalClock`](wtpg_core::time::LogicalClock))
//!   and [`ActiveSnapshots`] registry, which together yield the GC floor:
//!   versions below the oldest active snapshot's horizon are pruned.
//! * [`certify`] — the snapshot-consistency check: every read observed
//!   exactly the committed-prefix state at its snapshot tick.

#![forbid(unsafe_code)]

pub mod certify;
pub mod chain;
pub mod watermark;

pub use certify::{certify_snapshots, ReadObservation, ReaderRecord, SnapshotError, SnapshotReport};
pub use chain::{apply_write_effect, read_checksum, unapply_write_effect, SealedWrite, VersionChain};
pub use watermark::{gc_floor, ActiveSnapshots, CommitLog, SealEntry};
