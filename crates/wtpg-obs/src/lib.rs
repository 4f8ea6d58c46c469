//! Observability layer for the WTPG workspace.
//!
//! This crate is the shared telemetry backbone: a passive [`Observer`]
//! trait, structured trace events ([`ObsEvent`]: spans, instants,
//! cumulative counters, complete durations, log-scale [`Histogram`]
//! snapshots), the control-plane counter bundle [`ControlStats`] every
//! `Scheduler` maintains, and three sinks — [`NullObserver`] (zero-cost
//! when tracing is off), JSONL export ([`jsonl`]), and Chrome
//! `trace_event` export ([`chrome`]) openable in `chrome://tracing` /
//! Perfetto. [`TraceSummary`] implements the `wtpg obs summary` / `wtpg
//! obs diff` tooling.
//!
//! The windowed-telemetry plane lives in [`window`] (a [`Registry`] of
//! counters/gauges/streaming histograms, flushed snapshot-and-reset into
//! [`EventKind::Window`] records) and [`slo`] (declarative [`SloSpec`]
//! thresholds evaluated per window into verdict streams). For a `wtpg-net`
//! run the registry is the only numeric book there is: every count has one
//! name in [`window::metric`], one handle, and no second copy — the run
//! report is read back from [`Registry::totals`], and [`net`] holds the two
//! plain tally bundles actors publish into it at exit.
//!
//! # Determinism contract
//!
//! Events never read clocks; producers supply every timestamp. In
//! `wtpg-core` and `wtpg-sim` timestamps are logical `Tick`s, so an
//! instrumented run is byte-reproducible; a `wtpg-net` run stamps µs from
//! the instants its executor hands its actors. The crate reads no clock and
//! starts no thread, and clippy's determinism bans (no hash-ordered
//! collection, no clock read) hold in all of it.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod hist;
pub mod jsonl;
pub mod net;
pub mod observer;
pub mod slo;
pub mod stats;
pub mod summary;
pub mod window;

pub use event::{EventKind, Name, ObsEvent};
pub use hist::Histogram;
pub use net::{ByteCounts, MsgCounts};
pub use observer::{MemorySink, NullObserver, Observer};
pub use slo::{SloOutcome, SloSpec, WindowStats, WindowVerdict};
pub use stats::{emit_deltas, ControlStats};
pub use summary::TraceSummary;
pub use window::{Counter, Gauge, HistHandle, Registry, WindowSnapshot};
