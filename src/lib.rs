//! # wtpg — Concurrency Control of Bulk Access Transactions
//!
//! A from-scratch Rust reproduction of Ohmori, Kitsuregawa & Tanaka,
//! *"Concurrency Control of Bulk Access Transactions on Shared Nothing
//! Parallel Database Machines"* (ICDE 1990): the Weighted Transaction
//! Precedence Graph (WTPG), the CHAIN and K-WTPG schedulers, the ASL / C2PL
//! / NODC baselines, and the full simulation study (Experiments 1–4,
//! Figures 6–10).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`wtpg-core`) — transaction model, partition lock table, the
//!   WTPG, the chain optimisers (including the paper's appendix DP, with a
//!   documented erratum), the `E(q)` estimator, and all seven schedulers.
//! * [`graph`] (`wtpg-graph`) — the plain digraph the oracles check against
//!   (topological sort, cycle check, DAG longest path).
//! * [`sim`] (`wtpg-sim`) — the discrete-event shared-nothing machine and
//!   the λ-sweep experiment runner.
//! * [`workload`] (`wtpg-workload`) — the paper's transaction patterns,
//!   hot-set catalogs, and the erroneous-I/O-demand model.
//!
//! ## Quickstart
//!
//! ```
//! use wtpg::core::sched::{ChainScheduler, Scheduler, Admission, LockOutcome};
//! use wtpg::core::txn::{StepSpec, TxnId, TxnSpec};
//! use wtpg::core::time::Tick;
//!
//! // Declare the paper's Figure-1 transactions (A=P0, B=P1, C=P2, D=P3).
//! let t1 = TxnSpec::new(TxnId(1), vec![
//!     StepSpec::read(0, 1.0), StepSpec::read(1, 3.0), StepSpec::write(0, 1.0),
//! ]);
//! let t2 = TxnSpec::new(TxnId(2), vec![
//!     StepSpec::read(2, 1.0), StepSpec::write(0, 1.0),
//! ]);
//! let t3 = TxnSpec::new(TxnId(3), vec![
//!     StepSpec::write(2, 1.0), StepSpec::read(3, 3.0),
//! ]);
//!
//! let mut chain = ChainScheduler::new(5000);
//! assert_eq!(chain.on_arrive(&t1, Tick(0)).unwrap().0, Admission::Admitted);
//! assert_eq!(chain.on_arrive(&t2, Tick(0)).unwrap().0, Admission::Admitted);
//! assert_eq!(chain.on_arrive(&t3, Tick(0)).unwrap().0, Admission::Admitted);
//!
//! // Example 3.3: T2's first step is inconsistent with the optimal
//! // serialization order W = {T1→T2, T3→T2}, so CHAIN delays it.
//! let (outcome, _) = chain.on_request(TxnId(2), 0, Tick(1)).unwrap();
//! assert_eq!(outcome, LockOutcome::Delayed);
//! ```
//!
//! See the `examples/` directory for full scenarios (the banking batch
//! window, a hot master-file stress test, erroneous cost declarations) and
//! the `repro` binary in `wtpg-bench` for regenerating every figure of the
//! paper.

#![forbid(unsafe_code)]

pub use wtpg_core as core;
pub use wtpg_graph as graph;
pub use wtpg_sim as sim;
pub use wtpg_workload as workload;
