//! A tiny scoped-thread parallel map for the simulation drivers.
//!
//! Replications and λ points are embarrassingly parallel: every run builds
//! its machine from `(seed, λ)` alone, so the only requirement is that the
//! results come back in index order — then averaging sums in the same order
//! as the old serial loop and the output is bit-identical. No external
//! crates: `std::thread::scope` plus an atomic work counter.
//!
//! ## Thread-count override
//!
//! Set `WTPG_BENCH_THREADS` to pin the pool size; unset, the pool matches
//! the machine's available parallelism. `0`, `1`, or an unparsable value
//! force the bit-identical serial path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Reads a thread-count override from environment variable `var`: unset →
/// `None`; a non-negative integer → `Some(n)`; anything unparseable →
/// `Some(1)` — an explicit-but-broken override degrades to serial rather
/// than silently going wide.
fn env_threads(var: &str) -> Option<usize> {
    match std::env::var(var) {
        Ok(v) => Some(v.trim().parse().unwrap_or(1)),
        Err(_) => None,
    }
}

/// Worker count: `WTPG_BENCH_THREADS` if set (0 or 1 forces the serial
/// path), otherwise the machine's available parallelism (1 when unknown).
fn worker_count() -> usize {
    env_threads("WTPG_BENCH_THREADS")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Computes `f(0), f(1), …, f(n-1)` across a pool of scoped threads and
/// returns the results in index order — exactly what the serial
/// `(0..n).map(f).collect()` produces, just faster.
///
/// Work is handed out through an atomic counter, so long and short runs
/// interleave without static partitioning. A panic in any `f(i)` propagates.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, v) in chunks.drain(..).flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_parses_and_garbage_degrades_to_serial() {
        assert_eq!(env_threads("WTPG_BENCH_TEST_UNSET_VAR"), None);
        // Env mutation is process-global: a dedicated variable, one test.
        std::env::set_var("WTPG_BENCH_TEST_SET_VAR", " 6 ");
        assert_eq!(env_threads("WTPG_BENCH_TEST_SET_VAR"), Some(6));
        std::env::set_var("WTPG_BENCH_TEST_SET_VAR", "lots");
        assert_eq!(env_threads("WTPG_BENCH_TEST_SET_VAR"), Some(1));
        std::env::remove_var("WTPG_BENCH_TEST_SET_VAR");
    }

    #[test]
    fn preserves_index_order() {
        let out = par_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make early indices slow so late indices finish first.
        let out = par_map(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }
}
