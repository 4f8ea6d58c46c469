//! Structured trace events.
//!
//! Every event carries a timestamp `at` whose meaning is fixed by the
//! producer: logical `Tick` values (milliseconds of simulated time, or
//! control-node linearization ticks) in the deterministic core/sim paths,
//! wall-clock microseconds since run start inside `wtpg-rt`. Events never
//! read a clock themselves — the producer supplies `at` — which is what
//! keeps instrumented deterministic runs byte-reproducible.
//!
//! Names are `Cow<'static, str>` so the hot record path borrows static
//! string literals (no allocation) while decoded traces own their names;
//! `Cow` equality compares contents, so decode(encode(x)) == x holds.

use std::borrow::Cow;

use crate::hist::Histogram;
use crate::window::WindowSnapshot;

/// An event name — borrowed from a static literal on the record path,
/// owned after JSONL decode.
pub type Name = Cow<'static, str>;

/// One structured trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Producer-defined timestamp (logical ticks or wall-clock µs).
    pub at: u64,
    /// Track (Chrome "thread") the event belongs to: 0 = control plane,
    /// `1 + node` for sim data nodes.
    pub track: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`ObsEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens. Paired with the [`EventKind::SpanEnd`] carrying the
    /// same `(name, id)`.
    SpanBegin {
        /// Span name (e.g. `"txn"`, `"step"`).
        name: Name,
        /// Instance id disambiguating concurrent spans of the same name.
        id: u64,
    },
    /// A span closes.
    SpanEnd {
        /// Span name matching the opening event.
        name: Name,
        /// Instance id matching the opening event.
        id: u64,
    },
    /// A point event (admission, abort, commit, …).
    Instant {
        /// Event name.
        name: Name,
        /// Subject id (usually a transaction id).
        id: u64,
    },
    /// A cumulative counter observation: `value` is the counter's value at
    /// `at`, not a delta.
    Counter {
        /// Counter name.
        name: Name,
        /// Cumulative value.
        value: u64,
    },
    /// A complete span recorded after the fact: began at `at`, lasted
    /// `dur` timestamp units. Used where begin/end pairing would cross
    /// thread boundaries (queue wait, lock wait).
    Duration {
        /// Span name.
        name: Name,
        /// Subject id.
        id: u64,
        /// Length in the producer's timestamp unit.
        dur: u64,
    },
    /// A histogram snapshot, usually emitted once at end of run.
    Hist {
        /// Histogram name.
        name: Name,
        /// The bucket counts, boxed so routine events stay small.
        hist: Box<Histogram>,
    },
    /// One windowed-telemetry flush: counter deltas, gauge levels and
    /// per-window histogram snapshots for the window ending at `at`.
    /// Boxed so routine events stay small.
    Window(Box<WindowSnapshot>),
}

impl EventKind {
    /// The event's name.
    pub fn name(&self) -> &str {
        match self {
            EventKind::SpanBegin { name, .. }
            | EventKind::SpanEnd { name, .. }
            | EventKind::Instant { name, .. }
            | EventKind::Counter { name, .. }
            | EventKind::Duration { name, .. }
            | EventKind::Hist { name, .. } => name,
            EventKind::Window(_) => "window",
        }
    }
}

impl ObsEvent {
    /// Opens a span.
    pub fn span_begin(at: u64, track: u32, name: impl Into<Name>, id: u64) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::SpanBegin {
                name: name.into(),
                id,
            },
        }
    }

    /// Closes a span.
    pub fn span_end(at: u64, track: u32, name: impl Into<Name>, id: u64) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::SpanEnd {
                name: name.into(),
                id,
            },
        }
    }

    /// A point event.
    pub fn instant(at: u64, track: u32, name: impl Into<Name>, id: u64) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::Instant {
                name: name.into(),
                id,
            },
        }
    }

    /// A cumulative counter observation.
    pub fn counter(at: u64, track: u32, name: impl Into<Name>, value: u64) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::Counter {
                name: name.into(),
                value,
            },
        }
    }

    /// A complete span.
    pub fn duration(at: u64, track: u32, name: impl Into<Name>, id: u64, dur: u64) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::Duration {
                name: name.into(),
                id,
                dur,
            },
        }
    }

    /// A histogram snapshot.
    pub fn hist(at: u64, track: u32, name: impl Into<Name>, hist: Histogram) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::Hist {
                name: name.into(),
                hist: Box::new(hist),
            },
        }
    }

    /// A windowed-telemetry flush for the window ending at `at`.
    pub fn window(at: u64, track: u32, snap: WindowSnapshot) -> ObsEvent {
        ObsEvent {
            at,
            track,
            kind: EventKind::Window(Box::new(snap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_and_owned_names_compare_equal() {
        let a = ObsEvent::instant(3, 0, "commit", 7);
        let b = ObsEvent::instant(3, 0, String::from("commit"), 7);
        assert_eq!(a, b);
        assert_eq!(a.kind.name(), "commit");
    }
}
