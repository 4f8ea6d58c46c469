//! Simulated time, in integer milliseconds ("clocks", paper §4.1), plus the
//! logical clock the message-passing plane stamps its histories with.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time. One tick is one millisecond — the paper's
/// simulation clock ("1 clock = 1 ms").
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Tick(pub u64);

impl Tick {
    /// Time zero.
    pub const ZERO: Tick = Tick(0);

    /// Builds a tick from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Tick {
        Tick(secs * 1000)
    }

    /// Milliseconds since time zero.
    #[inline]
    pub const fn millis(self) -> u64 {
        self.0
    }

    /// Seconds since time zero (fractional).
    #[inline]
    pub fn secs(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference between two instants, as a duration in ticks.
    #[inline]
    pub const fn saturating_since(self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    #[inline]
    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Tick {
    type Output = u64;
    /// Duration in milliseconds between two instants.
    ///
    /// # Panics
    /// Panics if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Tick) -> u64 {
        self.0.checked_sub(rhs.0).expect("tick underflow")
    }
}

impl fmt::Debug for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}ms", self.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.secs())
    }
}

/// A monotone logical clock for executions without a global virtual time.
///
/// The simulator owns a global virtual time, but the message-passing plane
/// (`wtpg-net`) has no such thing, and wall-clock reads are banned from
/// recorded histories because [`crate::history::History`] demands
/// non-decreasing event times and the certifier replays events in recorded
/// order. Instead every control-node operation draws the next value from
/// the node's own `LogicalClock`; the resulting [`Tick`]s totally order the
/// history exactly as the control node serialized the decisions.
///
/// The clock is a plain counter advanced through `&mut self`: its one
/// owner (`wtpg-rt`'s `ControlNode`) already holds `&mut self` at every
/// tick, and every run steps its actors on one thread.
#[derive(Debug, Default)]
pub struct LogicalClock(u64);

impl LogicalClock {
    /// A clock starting at time zero.
    pub const fn new() -> LogicalClock {
        LogicalClock(0)
    }

    /// Advances the clock and returns the new instant. Strictly monotone:
    /// no two `tick` calls return the same instant.
    pub const fn tick(&mut self) -> Tick {
        self.0 += 1;
        Tick(self.0)
    }

    /// The most recently issued instant (time zero if none was issued).
    pub const fn now(&self) -> Tick {
        Tick(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Tick::from_secs(70).millis(), 70_000);
        assert_eq!(Tick(1500).secs(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = Tick(100) + 50;
        assert_eq!(t, Tick(150));
        assert_eq!(t - Tick(100), 50);
        assert_eq!(Tick(10).saturating_since(Tick(30)), 0);
        assert_eq!(Tick(30).saturating_since(Tick(10)), 20);
    }

    #[test]
    fn logical_clock_is_strictly_monotone() {
        let mut c = LogicalClock::new();
        assert_eq!(c.now(), Tick::ZERO);
        let a = c.tick();
        let b = c.tick();
        assert!(a < b);
        assert_eq!(c.now(), b);
    }
}
