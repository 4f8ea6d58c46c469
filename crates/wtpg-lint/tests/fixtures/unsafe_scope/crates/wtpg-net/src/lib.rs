//! Fixture: the one crate root that may `deny` instead of `forbid`.

#![deny(unsafe_code)]

mod poll;
