//! `wtpg-net`: the shared-nothing machine as real message-passing actors.
//!
//! The workspace's one wall-clock execution plane, and the paper's own
//! topology (§1: nodes exchange messages and never share memory): the
//! control node and every data node are *actors* that own their state
//! outright (`wtpg-rt`'s `ControlNode` and `NodeStore`, plain values) and
//! communicate exclusively through typed messages ([`Msg`]) over a
//! pluggable [`Transport`] — in-process queues ([`InProc`]) or one loopback
//! TCP socket per node ([`Tcp`]), framed by a dependency-free byte-stable
//! [`codec`] — and one executor steps every actor of a run on the caller's
//! thread, on either transport: a run starts no thread of its own.
//!
//! The paper's claims are re-proven in a harsher model than its own: a seeded
//! [`FaultPlan`] delays and duplicates control ↔ data messages and
//! crash-restarts a data node mid-run, and the run must *still* commit
//! every transaction, pass replay certification, and conserve every
//! committed milli-object in the stores ([`run_cell`]).
//!
//! Actor topology (the paper's single-control-site machine, §2.2/§4.1):
//!
//! ```text
//!   client 0 ─┐                 ┌─ data node 0 (owns NodeStore 0)
//!   client 1 ─┼── control node ─┼─ data node 1 (owns NodeStore 1)
//!      …      │  (scheduler +   │       …
//!   client C ─┘   history)      └─ data node N
//! ```

pub mod actor;
pub mod batch;
pub mod client;
pub mod codec;
pub mod control;
pub mod data;
pub mod error;
pub mod fault;
pub mod msg;
pub mod plan;
mod poll;
pub mod report;
pub mod runtime;
pub mod tcp;
pub mod transport;

pub use batch::Coalescer;
pub use error::NetError;
// Re-exported so callers configuring `NetConfig::durability` need no
// direct wtpg-dur dependency.
pub use wtpg_dur::Durability;
pub use fault::{CrashPlan, FaultPlan, KillPlan, LinkFaults};
pub use msg::Msg;
pub use plan::{PlanError, RunPlan};
pub use report::{MsgBreakdown, NetReport};
pub use runtime::{run_cell, run_cell_load, NetConfig, OpenLoop};
pub use tcp::Tcp;
pub use transport::{InProc, Transport};

/// Publishes a tally bundle its owner kept privately while it ran (a
/// `MsgCounts`, a `ByteCounts`, a scheduler's `ControlStats`): each nonzero
/// field is added to the counter `name(field)` of the run's registry. Called
/// once per owner, at actor exit or incarnation death.
pub(crate) fn publish<const N: usize>(
    reg: &wtpg_obs::Registry,
    name: fn(&str) -> String,
    fields: [(&'static str, u64); N],
) {
    for (field, v) in fields {
        if v != 0 {
            reg.counter(&name(field)).add(v);
        }
    }
}
