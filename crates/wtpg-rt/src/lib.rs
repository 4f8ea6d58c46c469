//! # wtpg-rt
//!
//! Runtime building blocks for executing bulk-access transactions on
//! wall-clock threads. `wtpg-net` assembles them into the paper's
//! shared-nothing machine (one control actor, `NumNodes` data-node actors,
//! messages in between); nothing here spawns a thread of its own.
//!
//! * [`control::ControlNode`] — the paper's centralized admission/lock-grant
//!   layer as a plain single-owner value: any
//!   [`wtpg_core::sched::Scheduler`] plus a [`wtpg_core::time::LogicalClock`]
//!   (one tick per operation) plus a [`wtpg_core::history::History`], so the
//!   recorded log is a linearization
//!   [`wtpg_core::certify::certify_history`] can replay.
//! * [`queue::BoundedQueue`] — the MPMC queue behind every in-proc
//!   mailbox, built there without a bound (a full bounded one blocks the
//!   sender).
//! * [`store::NodeStore`] — one data node's partitions (`node = partition
//!   mod NumNodes`): real bulk scans / updates over `costof(s)` milli-object
//!   cells, with the conservation invariant every run checks.
//! * [`shard::ShardMap`] — conflict-component placement of transactions
//!   onto control shards, and the merge of their audits.
//! * [`backoff::Backoff`] — the capped exponential schedule the control
//!   actor redelivers unanswered orders on, and the seeded
//!   [`backoff::XorShift`] the fault layer draws from.
//! * [`sched_by_name`] / [`workload::pattern_specs`] — `wtpg-core`'s
//!   scheduler-name table and the seeded pattern batches every front end
//!   shares.
//!
//! The crate reads no clock: clippy's determinism bans hold in all of it,
//! as do the panic-safety and API-doc lints (DESIGN.md §10.1). Its queue
//! blocks on condition variables, so runs built from these parts are *not*
//! reproducible interleavings; their correctness argument is the certifier,
//! not replayability.
//!
//! ## Quickstart
//!
//! One transaction through a control node and its data node's store, the
//! call sequence `wtpg-net`'s actors exchange as messages:
//!
//! ```
//! use wtpg_core::certify::certify_history;
//! use wtpg_core::sched::{Admission, LockOutcome};
//! use wtpg_rt::control::ControlNode;
//! use wtpg_rt::sched_by_name;
//! use wtpg_rt::store::NodeStore;
//! use wtpg_rt::workload::pattern_specs;
//! use wtpg_workload::Pattern;
//!
//! let (catalog, specs) = pattern_specs(Pattern::One, 1, 42);
//! let mut control = ControlNode::new(sched_by_name("chain", 2, 5000).expect("known scheduler"));
//! let mut stores: Vec<NodeStore> =
//!     (0..catalog.num_nodes()).map(|n| NodeStore::for_node(&catalog, n)).collect();
//! let mode = control.certify_mode();
//! let spec = &specs[0];
//! assert_eq!(control.arrive(spec).unwrap(), Admission::Admitted);
//! for (i, step) in spec.steps().iter().enumerate() {
//!     assert_eq!(control.request(spec.id, i).unwrap(), LockOutcome::Granted);
//!     let store = &mut stores[catalog.node_of(step.partition) as usize];
//!     store.apply_chunk(step.partition, step.mode, 0, step.actual_cost.units()).unwrap();
//!     control.progress(spec.id, step.actual_cost).unwrap();
//!     control.step_complete(spec.id, i).unwrap();
//! }
//! control.commit(spec.id).unwrap();
//! let audit = control.into_audit();
//! certify_history(&audit.history, &audit.specs, mode).expect("certifies");
//! ```

#![forbid(unsafe_code)]

pub mod backoff;
pub mod control;
pub mod metrics;
pub mod queue;
pub mod shard;
pub mod store;
pub mod workload;

pub use shard::{merge_audits, ShardMap};

use wtpg_core::sched::Scheduler;

/// The scheduler-name table, [`wtpg_core::sched::by_name`], under the name
/// this crate's callers know it by.
pub use wtpg_core::sched::by_name as sched_by_name;

/// A scheduler that may be handed to another thread (the control actor's).
pub type SendScheduler = Box<dyn Scheduler + Send>;

/// COMPATIBILITY PATH: the frozen `bench/` package names
/// `wtpg_rt::engine::SendScheduler`. The engine it was declared beside is
/// gone; the next `benchmark`-archetype PR switches `bench/` to
/// [`SendScheduler`] at the crate root and deletes this module.
pub mod engine {
    pub use crate::SendScheduler;
}
