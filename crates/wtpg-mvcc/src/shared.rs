//! The MVCC layer's one cross-actor cell.
//!
//! Everything else in this crate is single-owner state (a control actor's
//! log, a data actor's chains). [`GcWatermark`] is shared and
//! mutex-protected, a declared leaf in the workspace lock hierarchy
//! (`lint-locks.toml`: `mvcc-watermark` rank 9) — never held across another
//! acquisition. It carries the control plane's published per-partition GC
//! floors: snapshot reads piggyback the floor on the wire, but a partition
//! no reader ever visits would otherwise keep its chain forever; data actors
//! poll this cell on idle, at every `before_block`.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Published per-partition GC floors (monotonic).
#[derive(Debug, Default)]
pub struct GcWatermark {
    floors: Mutex<BTreeMap<u32, u64>>,
}

impl GcWatermark {
    /// All floors at zero.
    pub fn new() -> GcWatermark {
        GcWatermark::default()
    }

    /// Raises `partition`'s published floor to `floor` (stale smaller
    /// values are ignored — floors only advance).
    pub fn publish(&self, partition: u32, floor: u64) {
        let mut floors = self
            .floors
            .lock()
            .expect("invariant: watermark lock is never poisoned (no panics while held)");
        let slot = floors.entry(partition).or_insert(0);
        *slot = (*slot).max(floor);
    }

    /// The published floor of `partition` (zero if never published).
    pub fn floor(&self, partition: u32) -> u64 {
        self.floors
            .lock()
            .expect("invariant: watermark lock is never poisoned (no panics while held)")
            .get(&partition)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_floors_are_monotonic() {
        let w = GcWatermark::new();
        assert_eq!(w.floor(3), 0);
        w.publish(3, 5);
        w.publish(3, 2);
        assert_eq!(w.floor(3), 5, "stale publishes are ignored");
        w.publish(3, 9);
        assert_eq!(w.floor(3), 9);
        assert_eq!(w.floor(4), 0);
    }
}
