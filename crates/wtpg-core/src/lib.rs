//! # wtpg-core
//!
//! Concurrency control of **Bulk Access Transactions** (BATs) — a from-scratch
//! reproduction of Ohmori, Kitsuregawa & Tanaka, *"Concurrency Control of Bulk
//! Access Transactions on Shared Nothing Parallel Database Machines"*
//! (ICDE 1990).
//!
//! A BAT is a transaction that scans or rewrites whole file partitions. At
//! partition-granule locking, data contention is extreme: one BAT blocks the
//! next, forming *chains of blocking* that collapse throughput long before the
//! machine's resources saturate, and a bulk operation is far too expensive to
//! abort. The paper's answer is to make the scheduler *contention-aware*:
//!
//! * Every transaction pre-declares its step sequence and per-step I/O demand
//!   ([`txn`]).
//! * The scheduler maintains a [`Wtpg`] — a **Weighted Transaction
//!   Precedence Graph** whose edge weights count the objects a transaction
//!   still has to access. The longest `T0 → Tf` path of a fully resolved WTPG
//!   is the earliest possible completion time of the whole schedule.
//! * [`ChainScheduler`](sched::ChainScheduler) (the paper's CC1, "CHAIN")
//!   keeps the conflict graph a disjoint union of simple paths and computes
//!   the serialization order with the globally minimal critical path
//!   ([`chain`]), granting only consistent lock requests.
//! * [`KWtpgScheduler`](sched::KWtpgScheduler) (CC2, "K-WTPG") instead scores
//!   each lock request with [`estimate::eq_estimate`] — the critical path the
//!   present schedule would have if the request were granted — and grants the
//!   cheapest conflicting request.
//! * The comparison baselines from the paper's §4 are implemented behind the
//!   same [`Scheduler`](sched::Scheduler) trait: atomic static locking
//!   ([`AslScheduler`](sched::AslScheduler)), cautious two-phase locking
//!   ([`C2plScheduler`](sched::C2plScheduler)), the no-data-contention upper
//!   bound ([`NodcScheduler`](sched::NodcScheduler)), and the Experiment-4
//!   hybrids CHAIN-C2PL / K2-C2PL.
//!
//! The crate is simulator-agnostic: `wtpg-sim` drives these schedulers from a
//! discrete-event model of the paper's shared-nothing machine, but everything
//! here is also usable standalone (see the `quickstart` example at the
//! workspace root).

#![forbid(unsafe_code)]

// Panic safety (the workspace lints) covers the scheduler hot path:
// `wtpg.rs`, `estimate.rs`, `window.rs` and `sched/*`. The modules off it
// say which of those lints they trip.
#[expect(clippy::indexing_slicing, reason = "off the scheduler hot path")]
pub mod certify;
#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::unreachable,
    reason = "off the scheduler hot path"
)]
pub mod chain;
pub mod error;
pub mod estimate;
#[expect(clippy::indexing_slicing, reason = "off the scheduler hot path")]
pub mod history;
pub mod lock;
#[expect(clippy::indexing_slicing, reason = "off the scheduler hot path")]
pub mod partition;
#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::unreachable,
    reason = "off the scheduler hot path"
)]
pub mod planner;
pub mod sched;
#[expect(clippy::indexing_slicing, reason = "off the scheduler hot path")]
pub mod stream_certify;
#[cfg(test)]
mod test_streams;
#[expect(clippy::expect_used, reason = "off the scheduler hot path")]
pub mod time;
#[expect(clippy::indexing_slicing, reason = "off the scheduler hot path")]
pub mod txn;
pub mod window;
#[expect(clippy::expect_used, reason = "off the scheduler hot path")]
pub mod work;
pub mod wtpg;

pub use certify::{certify_history, CertifyMode, CertifyReport, CertifyViolation};
pub use stream_certify::StreamingCertifier;
pub use error::CoreError;
pub use lock::{LockMode, LockTable};
pub use partition::{Catalog, PartitionId, Placement};
pub use time::Tick;
pub use txn::{AccessMode, StepSpec, TxnId, TxnSpec};
pub use work::Work;
pub use wtpg::Wtpg;
