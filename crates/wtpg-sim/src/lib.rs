//! # wtpg-sim
//!
//! A discrete-event simulator of the paper's shared-nothing database machine
//! (§4.1, Figure 5), driving the schedulers of `wtpg-core` over bulk-access
//! transaction workloads:
//!
//! * one **control node** (CN) — a serial CPU that admits transactions,
//!   runs the concurrency control (priced with `ddtime` / `chaintime` /
//!   `kwtpgtime` per operation actually performed), and coordinates
//!   two-phase commit (`startuptime` / `committime`);
//! * `NumNodes` **data-processing nodes** (DN) — serial servers that process
//!   bulk operations one *object* at a time (`ObjTime`) round-robin among
//!   resident transactions, sending a weight-adjustment message to CN after
//!   every object;
//! * partitions placed by `node = partition mod NumNodes`;
//! * Poisson arrivals at rate λ with **unbounded multiprogramming level**;
//! * delayed/rejected requests resubmitted after a fixed delay, blocked
//!   requests woken by the commit that frees their partition.
//!
//! One simulated clock is one millisecond, and at the default
//! `ObjTime = 1 s` one milli-object of [`wtpg_core::Work`] is exactly one
//! clock, so the machine is exact integer arithmetic throughout.
//!
//! The [`runner`] module adds the paper's measurement procedure: λ sweeps,
//! mean response time / throughput per point, and interpolated
//! *throughput at RT = 70 s* — the metric behind Figures 8 and 10.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "panic safety covers the runtime and the scheduler hot path; the simulator is held by its tests and by replay certification"
)]

pub mod config;
pub mod events;
pub mod machine;
pub mod metrics;
pub mod runner;
pub mod sched_kind;
pub mod workload;

pub use config::SimParams;
pub use machine::Machine;
pub use metrics::RunReport;
pub use runner::{run_once, sweep, tps_at_rt, LambdaPoint, SweepResult};
pub use sched_kind::SchedKind;
pub use workload::Workload;
