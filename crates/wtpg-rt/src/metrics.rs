//! Latency percentiles, as every run report summarises them.

use serde::Serialize;

/// Submit-to-commit latency summary, in milliseconds.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a set of per-transaction latencies (microseconds).
    pub fn from_us(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let ms = |us: u64| us as f64 / 1000.0;
        let at = |q: f64| {
            let idx = ((n - 1) as f64 * q).round() as usize;
            samples.get(idx).copied().unwrap_or(0)
        };
        LatencySummary {
            mean_ms: ms(samples.iter().sum::<u64>() / n as u64),
            p50_ms: ms(at(0.50)),
            p95_ms: ms(at(0.95)),
            p99_ms: ms(at(0.99)),
            max_ms: ms(samples.last().copied().unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_us((1..=100).map(|i| i * 1000).collect());
        assert!((s.p50_ms - 50.0).abs() <= 1.0, "{s:?}");
        assert!((s.p95_ms - 95.0).abs() <= 1.0, "{s:?}");
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() <= 1.0, "{s:?}");
    }

    #[test]
    fn empty_latency_is_zero() {
        let s = LatencySummary::from_us(Vec::new());
        assert_eq!(s.max_ms, 0.0);
        assert_eq!(s.mean_ms, 0.0);
    }
}
