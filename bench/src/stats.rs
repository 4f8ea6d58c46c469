//! Order statistics over small samples of trial results.

/// Linear-interpolated quantile at rank position `pos` (0-based, fractional)
/// of an ascending slice.
fn at_position(sorted: &[f64], pos: f64) -> f64 {
    let lo = pos.floor().clamp(0.0, (sorted.len() - 1) as f64) as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    at_position(&v, (v.len() - 1) as f64 / 2.0)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method:
/// rank `q·(n+1)`, interpolated, clamped to the sample) — the rule the
/// regression gate applies to whole runs, so in-run spreads are comparable
/// with it. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    match values.len() {
        0 => (0.0, 0.0),
        1 => (values[0], values[0]),
        n => {
            let v = sorted(values);
            let q = |q: f64| at_position(&v, q * (n + 1) as f64 - 1.0);
            (q(0.25), q(0.75))
        }
    }
}

/// Median, quartiles, extremes and count of one metric over a run's trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        // Two points extrapolate past the sample in Python; we clamp.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0, 95.0, 105.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!((s.min, s.max, s.n), (90.0, 110.0, 5));
        assert!((s.spread() - (107.5 - 92.5) / 100.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
