//! Per-run engine metrics: throughput, latency percentiles, abort rates.

use serde::Serialize;

use crate::control::ControlCounters;

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

/// The result of one engine run — what `wtpg engine --out` writes for one
/// (scheduler, threads, contention) cell.
#[derive(Clone, Debug, Serialize)]
pub struct EngineReport {
    /// Scheduler display name ("CHAIN", "K2", …).
    pub scheduler: String,
    /// Worker threads.
    pub threads: usize,
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions committed (equals `submitted` when no one starves).
    pub committed: u64,
    /// Rejected admissions — each one is an abort-and-resubmit cycle.
    pub rejected_admissions: u64,
    /// Rejected admissions per *admission attempt*: `rejects / (rejects +
    /// admissions)`. The engine's abort rate.
    pub abort_rate: f64,
    /// Lock requests turned away because a conflicting lock was held.
    pub blocked_retries: u64,
    /// Lock requests the scheduler delayed.
    pub delayed_retries: u64,
    /// Longest reject/block/delay retry streak any single transaction saw —
    /// the starvation diagnostic.
    pub max_retry_streak: u32,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Submit-to-commit latency.
    pub latency: LatencySummary,
    /// Queue wait (submit → worker pop) per transaction.
    pub queue_wait: LatencySummary,
    /// Lock wait (first request attempt → grant) per granted step.
    pub lock_wait: LatencySummary,
    /// Events in the recorded history.
    pub history_events: usize,
    /// Logical ticks consumed (= control-node operations, including retries).
    pub logical_ticks: u64,
    /// Scheduler-internal deadlock tests.
    pub deadlock_tests: u32,
    /// Scheduler-internal `W` optimisations.
    pub chain_opts: u32,
    /// Scheduler-internal `E(q)` evaluations.
    pub eq_evals: u32,
    /// True when the recorded history was replay-certified.
    pub certified: bool,
    /// Grants checked by the certifier (0 when certification was off).
    pub certify_grants: usize,
    /// `E(q)` spot checks performed by the certifier.
    pub certify_eq_checks: usize,
    /// Milli-object cells the workload declared for bulk updates.
    pub expected_write_units: u64,
    /// Milli-object cells actually updated in the stores.
    pub store_write_units: u64,
    /// True when `store_write_units == expected_write_units` and the cell
    /// sum agrees — every committed bulk update is visible.
    pub store_consistent: bool,
    /// Checksum folded over every bulk read (keeps scans un-optimisable;
    /// value is interleaving-dependent).
    pub read_checksum: u64,
    /// Milli-object cells updated per data node (store occupancy).
    pub store_node_units: Vec<u64>,
}

impl EngineReport {
    /// Assembles the counter-derived fields of a report.
    pub(crate) fn from_counters(
        scheduler: String,
        threads: usize,
        submitted: usize,
        counters: &ControlCounters,
    ) -> EngineReport {
        let attempts = counters.admissions + counters.rejections;
        EngineReport {
            scheduler,
            threads,
            submitted,
            committed: counters.commits,
            rejected_admissions: counters.rejections,
            abort_rate: if attempts == 0 {
                0.0
            } else {
                counters.rejections as f64 / attempts as f64
            },
            blocked_retries: counters.blocks,
            delayed_retries: counters.delays,
            max_retry_streak: 0,
            wall_ms: 0.0,
            throughput_tps: 0.0,
            latency: LatencySummary::default(),
            queue_wait: LatencySummary::default(),
            lock_wait: LatencySummary::default(),
            history_events: 0,
            logical_ticks: 0,
            deadlock_tests: counters.ops.deadlock_tests,
            chain_opts: counters.ops.chain_opts,
            eq_evals: counters.ops.eq_evals,
            certified: false,
            certify_grants: 0,
            certify_eq_checks: 0,
            expected_write_units: 0,
            store_write_units: 0,
            store_consistent: false,
            read_checksum: 0,
            store_node_units: Vec::new(),
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

    #[test]
    fn abort_rate_is_rejects_over_attempts() {
        let c = ControlCounters {
            admissions: 75,
            rejections: 25,
            ..ControlCounters::default()
        };
        let r = EngineReport::from_counters("CHAIN".into(), 4, 75, &c);
        assert_eq!(r.abort_rate, 0.25);
        let zero = EngineReport::from_counters("CHAIN".into(), 4, 0, &ControlCounters::default());
        assert_eq!(zero.abort_rate, 0.0);
    }
}
