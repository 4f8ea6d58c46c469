//! # wtpg-graph
//!
//! A plain directed graph, kept as the independent reference the rest of the
//! workspace checks itself against. The schedulers compute on `wtpg-core`'s
//! own slot-arena `Wtpg`; this crate backs two oracles:
//!
//! * `History::check_conflict_serializable` builds the committed history's
//!   serialization graph and asks [`is_cyclic`];
//! * `wtpg-core`'s property tests rebuild a WTPG's precedence edges here and
//!   compare its critical path with [`longest_path`].
//!
//! The surface is exactly what they call:
//!
//! * [`DiGraph`] — an append-only directed multigraph whose [`NodeId`] is the
//!   node's insertion index.
//! * [`topo_sort`] / [`is_cyclic`] — Kahn's algorithm.
//! * [`longest_path`] — single-source longest path over a DAG.
//!
//! All algorithms are deterministic: iteration order follows insertion order.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "panic safety covers the runtime and the scheduler hot path; this is the certification oracles' digraph"
)]

mod critical_path;
mod digraph;
mod topo;

pub use critical_path::{longest_path, LongestPaths};
pub use digraph::{DiGraph, NodeId};
pub use topo::{is_cyclic, topo_sort, TopoError};
