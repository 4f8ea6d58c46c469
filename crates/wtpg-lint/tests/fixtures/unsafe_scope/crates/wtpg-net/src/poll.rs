//! Fixture: the keyword's one home — clean.

#![allow(unsafe_code)]

extern "C" {
    fn getpid() -> i32;
}

/// The process id.
pub fn pid() -> i32 {
    // SAFETY: `getpid` takes no arguments and cannot fail.
    unsafe { getpid() }
}
