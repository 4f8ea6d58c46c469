//! # wtpg-workload
//!
//! Workload generators for the reproduction's evaluation (paper §4):
//!
//! * [`pattern::Pattern`] — the three transaction patterns of
//!   Experiments 1–4, with the paper's partition-choice rules (random
//!   partitions for Pattern 1; a read-only partition plus hot-set targets
//!   for Patterns 2–3);
//! * [`error_model::ErrorModel`] — Experiment 4's erroneous I/O demands:
//!   declared cost `C = C0·(1+x)`, `x ~ N(0, σ)`, clamped at zero;
//! * [`generator::PatternWorkload`] — a seeded [`wtpg_sim::Workload`]
//!   producing an endless stream of pattern transactions;
//! * [`experiments`] — the canonical configuration of every experiment
//!   (catalog, pattern, λ grid), used by the `repro` harness and the
//!   integration tests;
//! * [`arrivals`] — seeded Poisson arrival schedules for the open-loop
//!   sustained-load harness (`wtpg load`), where offered load is fixed
//!   and overload surfaces as shed arrivals instead of hidden latency.
//!
//! ## Lock-mode promotion
//!
//! The paper notes that Pattern 1's first two *read* steps "require X-locks":
//! a transaction that will later bulk-update a partition takes the exclusive
//! lock at its first access rather than upgrading. Pattern generation
//! therefore promotes each step's access mode to the strongest mode the
//! transaction declares anywhere on that partition
//! ([`pattern::promote_lock_modes`]). Step *costs* are unaffected.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "panic safety covers the runtime and the scheduler hot path; workload generators run before a run starts"
)]

pub mod arrivals;
pub mod error_model;
pub mod experiments;
pub mod generator;
pub mod mixed;
pub mod notation;
pub mod pattern;
pub mod read_mix;

pub use arrivals::poisson_arrivals_us;
pub use error_model::ErrorModel;
pub use experiments::{Experiment, ExperimentId};
pub use generator::PatternWorkload;
pub use mixed::MixedWorkload;
pub use pattern::Pattern;
pub use read_mix::ReadMix;
