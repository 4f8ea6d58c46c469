//! The [`Observer`] trait and the built-in sinks.
//!
//! An observer is a passive sink: producers call [`Observer::record`] with
//! fully-formed events and the observer never influences scheduling, so a
//! run with [`NullObserver`] (or no observer at all) takes the exact same
//! trajectory as an uninstrumented run — the zero-cost-when-off contract
//! the simulator's tests pin byte-for-byte.

use std::sync::Mutex;

use crate::event::ObsEvent;

/// A passive sink for trace events. Implementations must be thread-safe:
/// actor threads record concurrently.
pub trait Observer: Send + Sync {
    /// Accepts one event. Must not block on anything scheduling-visible.
    fn record(&self, ev: ObsEvent);
}

/// Discards every event. Recording through it is a no-op the optimizer can
/// erase, and — more importantly — it cannot perturb a run's trajectory.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn record(&self, _ev: ObsEvent) {}
}

/// Buffers events in memory for later export (JSONL, Chrome) or summary.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<ObsEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Clones the buffered events.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Drains the buffered events, leaving the sink empty.
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Observer for MemorySink {
    fn record(&self, ev: ObsEvent) {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        sink.record(ObsEvent::instant(1, 0, "a", 1));
        sink.record(ObsEvent::instant(2, 0, "b", 2));
        assert_eq!(sink.len(), 2);
        let evs = sink.take();
        assert_eq!(evs[0].at, 1);
        assert_eq!(evs[1].at, 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn null_observer_accepts_everything() {
        NullObserver.record(ObsEvent::counter(0, 0, "x", 1));
    }
}
