//! # wtpg-bench
//!
//! The reproduction harness: one driver per table/figure of the paper's
//! evaluation (§4), shared by the `repro` binary, the integration tests, and
//! EXPERIMENTS.md.
//!
//! | paper artefact | function | what it prints |
//! |---|---|---|
//! | Table 1 | [`drivers::table1`] | the parameter set in use (recovered + assumed) |
//! | Figure 6 | [`drivers::fig6`] | Experiment 1: λ vs mean response time per scheduler |
//! | Figure 7 | [`drivers::fig7`] | Experiment 1: λ vs throughput per scheduler, with useful-utilisation ratios |
//! | Figure 8 | [`drivers::fig8`] | Experiment 2: NumHots vs throughput @ RT = 70 s |
//! | Figure 9 | [`drivers::fig9`] | Experiment 3: λ vs response time, plus TPS @ RT = 70 s |
//! | Figure 10 | [`drivers::fig10`] | Experiment 4: σ vs throughput @ RT = 70 s incl. hybrids |
//!
//! Every driver returns structured results so tests can assert the paper's
//! qualitative orderings, and renders a plain-text table like the paper's
//! series when printed.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "panic safety covers the runtime and the scheduler hot path; the harness fails loudly by design"
)]

pub mod ablations;
pub mod drivers;
pub mod format;
pub mod mixed_ext;
pub mod par;
pub mod replicate;
pub mod waits;

pub use drivers::{Fig10Row, Fig8Row, FigureSeries};
pub use replicate::{averaged_sweep, RunOptions};
