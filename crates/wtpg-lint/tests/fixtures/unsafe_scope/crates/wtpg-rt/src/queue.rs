//! Fixture: an inner module needs no attribute — clean.

/// Nothing to see.
pub fn len() -> usize {
    0
}
