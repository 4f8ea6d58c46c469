//! Thread-count environment overrides.
//!
//! The sweep harness reads its pool size from `WTPG_BENCH_THREADS` (see
//! `wtpg-bench/src/par.rs`) through this parser.

/// Reads a thread-count override from environment variable `var`.
///
/// * unset → `None` (the caller picks its own default, typically
///   `std::thread::available_parallelism`);
/// * set to a non-negative integer → `Some(n)` — `0` and `1` conventionally
///   force the serial path;
/// * set to anything unparseable → `Some(1)`: an explicit-but-broken
///   override degrades to serial rather than silently going wide.
pub fn env_threads(var: &str) -> Option<usize> {
    match std::env::var(var) {
        Ok(v) => Some(v.trim().parse().unwrap_or(1)),
        Err(_) => None,
    }
}

/// `env_threads(var)` with a fallback to the machine's available
/// parallelism (or 1 when that is unknown).
pub fn env_threads_or_available(var: &str) -> usize {
    env_threads(var).unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none_and_fallback_is_positive() {
        assert_eq!(env_threads("WTPG_RT_TEST_UNSET_VAR"), None);
        assert!(env_threads_or_available("WTPG_RT_TEST_UNSET_VAR") >= 1);
    }

    #[test]
    fn set_values_parse_and_garbage_degrades_to_serial() {
        // Env mutation is process-global: use a dedicated variable and both
        // assertions in one test to avoid cross-test races.
        std::env::set_var("WTPG_RT_TEST_SET_VAR", " 6 ");
        assert_eq!(env_threads("WTPG_RT_TEST_SET_VAR"), Some(6));
        std::env::set_var("WTPG_RT_TEST_SET_VAR", "lots");
        assert_eq!(env_threads("WTPG_RT_TEST_SET_VAR"), Some(1));
        std::env::remove_var("WTPG_RT_TEST_SET_VAR");
    }
}
