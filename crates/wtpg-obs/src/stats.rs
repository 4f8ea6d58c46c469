//! Control-plane statistics shared by every `Scheduler` implementation.
//!
//! [`ControlStats`] is a plain bundle of cumulative `u64` counters — no
//! clocks, no maps — so schedulers can maintain one inline without
//! threatening determinism. The simulator's `Machine` snapshots the stats
//! around each scheduler call and emits counter events for whatever
//! changed via [`emit_deltas`]; `wtpg-rt`'s `ControlNode` hands the final
//! totals over in its audit.
//!
//! The abort/delay cause taxonomy follows the paper's protocols: CHAIN
//! rejects non-chain BATs, K-WTPG rejects K-conflict violations, ASL
//! rejects when it cannot take every lock up front, K-WTPG delays on
//! infinite `E(q)` (predicted deadlock) and on lost `E(q)` comparisons
//! (minimality), CHAIN delays W-inconsistent requests (minimality), and
//! C2PL delays grants its deadlock prediction flags.

use crate::event::ObsEvent;
use crate::observer::Observer;

/// Cumulative control-plane counters. All fields only ever increase over a
/// scheduler's lifetime, so deltas between two snapshots are well-defined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// `W` recomputed from scratch (CHAIN / GWTPG cache miss).
    pub w_recomputes: u64,
    /// `W` reused from the version-keyed cache (§3.4 control saving).
    pub w_reuses: u64,
    /// `E(q)` served from the version-keyed cache.
    pub eq_cache_hits: u64,
    /// `E(q)` recomputed.
    pub eq_cache_misses: u64,
    /// `E(q)` cache wiped (WTPG version moved or a grant changed locks).
    pub eq_cache_invalidations: u64,
    /// Deadlock predictions served from C2PL's version-keyed cache.
    pub dd_cache_hits: u64,
    /// Deadlock predictions computed by graph traversal.
    pub dd_cache_misses: u64,
    /// Admissions rejected because the BAT was not chain-form (CHAIN).
    pub aborts_non_chain: u64,
    /// Admissions rejected for violating the K-conflict bound (K-WTPG,
    /// GWTPG's conflict bound).
    pub aborts_k_conflict: u64,
    /// Admissions rejected because not every lock was available (ASL).
    pub aborts_lock_denied: u64,
    /// Requests delayed by a deadlock prediction (C2PL cycle test, K-WTPG
    /// infinite `E(q)`).
    pub delays_deadlock: u64,
    /// Requests delayed to preserve minimality (CHAIN W-order, K-WTPG lost
    /// `E(q)` comparison).
    pub delays_minimality: u64,
}

impl ControlStats {
    /// The counters as `(name, value)` pairs, in a fixed order shared with
    /// the JSONL traces and summaries.
    pub fn fields(&self) -> [(&'static str, u64); 12] {
        [
            ("w_recomputes", self.w_recomputes),
            ("w_reuses", self.w_reuses),
            ("eq_cache_hits", self.eq_cache_hits),
            ("eq_cache_misses", self.eq_cache_misses),
            ("eq_cache_invalidations", self.eq_cache_invalidations),
            ("dd_cache_hits", self.dd_cache_hits),
            ("dd_cache_misses", self.dd_cache_misses),
            ("aborts_non_chain", self.aborts_non_chain),
            ("aborts_k_conflict", self.aborts_k_conflict),
            ("aborts_lock_denied", self.aborts_lock_denied),
            ("delays_deadlock", self.delays_deadlock),
            ("delays_minimality", self.delays_minimality),
        ]
    }

    /// Control-saving cache hits across all schedulers: `W` reuses, `E(q)`
    /// cache hits and C2PL deadlock-prediction cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.w_reuses + self.eq_cache_hits + self.dd_cache_hits
    }

    /// Cache misses matching [`ControlStats::cache_hits`].
    pub fn cache_misses(&self) -> u64 {
        self.w_recomputes + self.eq_cache_misses + self.dd_cache_misses
    }

    /// `hits / (hits + misses)`, or 0 when no cache was consulted.
    pub fn cache_hit_ratio(&self) -> f64 {
        let h = self.cache_hits();
        let m = self.cache_misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Emits one cumulative [`EventKind::Counter`](crate::event::EventKind)
/// per field that changed between `before` and `after`, stamped `at` on
/// `track`. Emitting only deltas keeps traces proportional to activity.
pub fn emit_deltas(
    obs: &dyn Observer,
    at: u64,
    track: u32,
    before: &ControlStats,
    after: &ControlStats,
) {
    for ((name, old), (_, new)) in before.fields().iter().zip(after.fields().iter()) {
        if new != old {
            obs.record(ObsEvent::counter(at, track, *name, *new));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::MemorySink;

    #[test]
    fn ratios_and_totals() {
        let s = ControlStats {
            w_reuses: 3,
            w_recomputes: 1,
            eq_cache_hits: 5,
            eq_cache_misses: 3,
            aborts_non_chain: 2,
            delays_minimality: 4,
            ..ControlStats::default()
        };
        assert_eq!(s.cache_hits(), 8);
        assert_eq!(s.cache_misses(), 4);
        assert!((s.cache_hit_ratio() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(ControlStats::default().cache_hit_ratio(), 0.0);
    }

    #[test]
    fn emit_deltas_only_emits_changes() {
        let sink = MemorySink::new();
        let before = ControlStats::default();
        let after = ControlStats {
            eq_cache_hits: 2,
            ..before
        };
        emit_deltas(&sink, 10, 0, &before, &after);
        let evs = sink.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0], ObsEvent::counter(10, 0, "eq_cache_hits", 2));
        emit_deltas(&sink, 11, 0, &after, &after);
        assert!(sink.is_empty());
    }
}
