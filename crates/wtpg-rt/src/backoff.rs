//! A capped exponential retry schedule and a seeded jitter source.
//!
//! The paper's retry discipline is "resubmitted after a fixed delay"; a real
//! runtime needs the delay to grow, or an unanswered data node is hammered
//! with redeliveries. Delays double per attempt up to a cap
//! ([`Backoff::delay_us`]); `max_attempts` is the budget after which the
//! caller stops treating silence as slowness (`wtpg-net`'s control actor
//! then parks the node's orders as node-unavailable and keeps re-sending at
//! the cap). [`XorShift`] is the deterministic generator the fault layer
//! seeds per link, so injected faults need no `rand` thread-local state.

/// Backoff policy: delays double from `base_us` up to `cap_us`, for at most
/// `max_attempts` consecutive retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// First-retry delay, microseconds.
    pub base_us: u64,
    /// Ceiling on the uncapped exponential, microseconds.
    pub cap_us: u64,
    /// Consecutive retries before the caller reports the budget exhausted.
    pub max_attempts: u32,
}

impl Backoff {
    /// The full (pre-jitter) delay for the `attempt`-th consecutive retry
    /// (attempt 0 is the first retry).
    pub fn delay_us(self, attempt: u32) -> u64 {
        let shift = attempt.min(20);
        self.base_us
            .saturating_mul(1u64 << shift)
            .min(self.cap_us.max(self.base_us))
    }
}

/// A tiny xorshift64* generator — one per fault-injected link's delay line,
/// seeded from the plan's seed and the link's identity, so draws need no
/// shared state.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator; a zero seed is mapped to a fixed nonzero one.
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_then_cap() {
        let b = Backoff {
            base_us: 100,
            cap_us: 1000,
            max_attempts: 100,
        };
        assert_eq!(b.delay_us(0), 100);
        assert_eq!(b.delay_us(1), 200);
        assert_eq!(b.delay_us(3), 800);
        assert_eq!(b.delay_us(4), 1000);
        assert_eq!(b.delay_us(63), 1000); // shift clamp: no overflow
    }

    #[test]
    fn cap_below_base_still_returns_base() {
        let b = Backoff {
            base_us: 500,
            cap_us: 10,
            max_attempts: 100,
        };
        assert_eq!(b.delay_us(0), 500);
    }

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..100 {
            assert!(a.next_below(10) < 10);
        }
        assert_eq!(a.next_below(0), 0);
        // Zero seed must not collapse to a constant stream.
        let mut z = XorShift::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }
}
