//! Failure modes of a shared-nothing run.

use wtpg_core::certify::CertifyViolation;
use wtpg_core::error::CoreError;
use wtpg_core::txn::TxnId;
use wtpg_mvcc::SnapshotError;

use crate::codec::CodecError;
use crate::plan::PlanError;

/// A failed shared-nothing run.
#[derive(Clone, Debug)]
pub enum NetError {
    /// The requested combination is not a run: refused by
    /// [`RunPlan::new`](crate::plan::RunPlan::new) before any directory,
    /// socket, thread or scheduler existed.
    Plan(PlanError),
    /// An actor drove the scheduler protocol into an error — a runtime bug.
    Core(CoreError),
    /// The recorded history failed replay certification — a scheduler or
    /// runtime bug observed under real message passing.
    Certify(CertifyViolation),
    /// A snapshot read observed something other than the committed-prefix
    /// state at its snapshot tick — an MVCC-layer bug observed under real
    /// message passing.
    Snapshot(SnapshotError),
    /// A malformed frame arrived on a transport.
    Codec(CodecError),
    /// A socket operation failed (TCP transport only).
    Io(String),
    /// An actor received a message the protocol does not allow in its
    /// state, or a peer disappeared mid-protocol.
    Protocol(String),
    /// The store's conservation invariant broke: committed bulk updates are
    /// not all visible in the data nodes' cells.
    StoreDiverged {
        /// Milli-object write units the committed workload declared.
        expected: u64,
        /// Sum over all cells across all data nodes.
        cells: u64,
        /// Units tallied at write time.
        tallied: u64,
    },
    /// A control shard turned a transaction away (rejected its admission,
    /// or blocked or delayed its next step) this many times in a row
    /// without ever letting it on — the scheduler starved it.
    BackoffExhausted {
        /// The starved transaction.
        txn: TxnId,
        /// Consecutive failed attempts to admit it or grant its next step.
        attempts: u32,
    },
    /// The run wedged: every actor still running slept until mail that no
    /// link could bring, so nothing could ever move again. Says why the
    /// executor knew, then what each running actor was still owed (its
    /// refusal to finish), one per `; `-separated clause.
    Wedged(String),
    /// The durability layer failed: a write-ahead-log or checkpoint I/O
    /// error, or corrupt durable state.
    Dur(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Plan(e) => write!(f, "{e}"),
            NetError::Core(e) => write!(f, "scheduler protocol error: {e}"),
            NetError::Certify(v) => write!(f, "history failed certification: {v}"),
            NetError::Snapshot(v) => write!(f, "{v}"),
            NetError::Codec(e) => write!(f, "malformed frame: {e}"),
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::StoreDiverged {
                expected,
                cells,
                tallied,
            } => write!(
                f,
                "store diverged: expected {expected} write units, cells sum to {cells}, \
                 tally says {tallied}"
            ),
            NetError::BackoffExhausted { txn, attempts } => write!(
                f,
                "txn {} starved: turned away {attempts} times in a row by the control shard",
                txn.0
            ),
            NetError::Wedged(why) => write!(f, "run wedged: {why}"),
            NetError::Dur(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<PlanError> for NetError {
    fn from(e: PlanError) -> NetError {
        NetError::Plan(e)
    }
}

impl From<CoreError> for NetError {
    fn from(e: CoreError) -> NetError {
        NetError::Core(e)
    }
}

impl From<SnapshotError> for NetError {
    fn from(e: SnapshotError) -> NetError {
        NetError::Snapshot(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e.to_string())
    }
}

impl From<wtpg_dur::DurError> for NetError {
    fn from(e: wtpg_dur::DurError) -> NetError {
        NetError::Dur(e.to_string())
    }
}
