//! Fixture pinning the `wtpg-obs` scoping policy: event/histogram code is
//! held to full determinism — ordered maps only, no clock reads — because
//! traces of deterministic runs must be byte-deterministic. The event model
//! reuses Chrome's `Instant` phase name, which collides with the banned
//! clock type; the v2 classifier recognizes an enum variant named `Instant`
//! and any `Path::Instant` not qualified by `time` as *not* the clock, so
//! no waiver is needed (v1 required one per occurrence). This fixture being
//! clean with zero waivers proves the classification. The crate reads no
//! clock at all, and `rules_for` holds every file of it to determinism —
//! asserted in fixture_corpus.rs.

use std::collections::BTreeMap;

/// A miniature event kind mirroring the trace model's phase names.
pub enum Kind {
    /// A point event.
    Instant,
    /// A cumulative counter sample.
    Counter,
}

/// Folds phase occurrences per name, in deterministic (ordered) key order.
pub fn fold(kinds: &[Kind]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for k in kinds {
        let key = match k {
            Kind::Instant => "instant",
            Kind::Counter => "counter",
        };
        *out.entry(key).or_insert(0) += 1;
    }
    out
}
