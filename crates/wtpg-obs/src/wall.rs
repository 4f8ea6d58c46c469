//! Wall-clock timestamps for the wall-clock runtime — the **only** file in
//! this crate allowed to touch `std::time`.
//!
//! Everything else in `wtpg-obs` is deterministic by construction and
//! wtpg-lint enforces that scoping (see `rules_for`): the determinism rule
//! covers all of `wtpg-obs/src` except this module, which exists solely so
//! `wtpg-net` actors can stamp events with microseconds-since-run-start.
//! Core and simulator code must never import this module; their events are
//! keyed by `LogicalClock` ticks supplied by the caller.

use std::time::Instant;

/// A wall-clock origin; timestamps are µs elapsed since [`WallClock::start`].
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Fixes the origin at the current instant.
    pub fn start() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the origin (saturates at `u64::MAX`).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_moves_forward() {
        let clock = WallClock::start();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }
}
