//! Open-loop arrival schedules for the sustained-load harness.
//!
//! A closed-loop driver (the net clients' pipelined submit window) slows its offered load down whenever the system slows —
//! latency hides saturation. The open-loop harness instead fixes the
//! *arrival* process: transactions arrive at Poisson times with rate λ
//! regardless of how the system is doing, and an arrival that finds the
//! client's in-flight bound full is **shed** (counted, never submitted).
//! Shed rate is therefore the backpressure signal the SLO engine judges.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};

/// Poisson arrival schedule: `n` arrival offsets in µs since run start,
/// nondecreasing, with exponential inter-arrival times of mean `1/λ`
/// (`lambda_tps` in arrivals per second). Deterministic in `seed`.
///
/// `lambda_tps` values at or below zero degenerate to a burst at t=0
/// (every offset zero) rather than panicking, so a misconfigured grid
/// cell fails loudly in its SLO verdict instead of crashing the driver.
pub fn poisson_arrivals_us(n: usize, lambda_tps: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a55_0111_0ad5_ced5);
    let mut out = Vec::with_capacity(n);
    // NaN and non-positive rates both take the burst path.
    if lambda_tps.is_nan() || lambda_tps <= 0.0 {
        out.resize(n, 0);
        return out;
    }
    let exp = Exp::new(lambda_tps).expect("checked: λ > 0");
    let mut t_us = 0.0f64;
    for _ in 0..n {
        let dt_s: f64 = exp.sample(&mut rng);
        t_us += dt_s * 1e6;
        out.push(t_us as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_monotone() {
        let a = poisson_arrivals_us(500, 1000.0, 42);
        let b = poisson_arrivals_us(500, 1000.0, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets nondecreasing");
        let c = poisson_arrivals_us(500, 1000.0, 43);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn mean_rate_approaches_lambda() {
        // 10k arrivals at λ = 2000/s should span ~5s; the sample mean of
        // an exponential concentrates fast (σ/√n ≈ 1% here).
        let n = 10_000usize;
        let a = poisson_arrivals_us(n, 2000.0, 7);
        let span_s = *a.last().unwrap() as f64 / 1e6;
        let rate = n as f64 / span_s;
        assert!(
            (rate - 2000.0).abs() < 100.0,
            "empirical rate {rate:.1} too far from λ=2000"
        );
    }

    #[test]
    fn degenerate_lambda_is_a_burst_not_a_panic() {
        assert_eq!(poisson_arrivals_us(3, 0.0, 1), vec![0, 0, 0]);
        assert_eq!(poisson_arrivals_us(3, -1.0, 1), vec![0, 0, 0]);
        assert!(poisson_arrivals_us(0, 100.0, 1).is_empty());
    }

    #[test]
    fn round_robin_client_slices_stay_sorted() {
        // Client c of N takes arrivals[c], arrivals[c+N], … — the same
        // deal the runtime applies to specs. Each slice must itself be a
        // valid (sorted) schedule.
        let a = poisson_arrivals_us(1000, 5000.0, 11);
        for c in 0..4 {
            let slice: Vec<u64> = a.iter().skip(c).step_by(4).copied().collect();
            assert!(slice.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
