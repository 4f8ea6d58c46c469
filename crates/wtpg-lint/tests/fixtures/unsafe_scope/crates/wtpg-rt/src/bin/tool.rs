//! Fixture: a `src/bin/` target is a crate root of its own and says
//! nothing about unsafe code.

fn main() {}
