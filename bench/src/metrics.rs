//! The metric catalogue: every name the benchmark prints, with its unit,
//! which direction is better, and — for end-to-end metrics — the bound by
//! which a median may worsen before `bench compare` (and the regression
//! gate reading `BENCHMARK.json`) calls it a regression. `BENCHMARK.json`
//! mirrors these tables; a unit test keeps the two in step.

use crate::stats::Summary;

/// Direction of improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Which of a run's repeated measurements of a metric is the run's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    /// The median: for counts, which scatter both ways or not at all.
    Median,
    /// The best one — the highest if higher is better, else the lowest: for
    /// speeds and durations. What disturbs those on a shared machine only
    /// ever slows them, for seconds at a time, so the best of a run's many
    /// short trials is the program on the undisturbed machine; the median
    /// is wherever the disturbance left it. Over twenty runs of each closed
    /// loop on the reference VM the best trial's tps kept a quartile range
    /// of 4–6 % of its median, the median trial's 18–25 %.
    Best,
}

/// A metric a user of the system would see; gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub stat: Stat,
    /// Share of the baseline value by which the metric may worsen.
    pub bound: f64,
    /// In the metric's unit: a change of the median no larger than this is
    /// not a regression to `bench compare`, whatever share it is. The gate
    /// reading `BENCHMARK.json` knows only `bound`.
    pub floor: f64,
}

/// A metric of a single layer; reported, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

impl EndToEnd {
    /// The run's value of this metric, given its repeated measurements.
    pub fn value_of(&self, s: &Summary) -> f64 {
        match (self.stat, self.better) {
            (Stat::Median, _) => s.median,
            (Stat::Best, Better::Higher) => s.max,
            (Stat::Best, Better::Lower) => s.min,
        }
    }

    /// How loosely the measurements hold that value, as a share of it: the
    /// quartile range around a median; for a best, its distance to the
    /// nearer quartile — a best that a quarter of the trials came close to
    /// is the machine's, one that stands alone may be luck.
    pub fn looseness(&self, s: &Summary) -> f64 {
        let value = self.value_of(s);
        if value == 0.0 {
            return 0.0;
        }
        let gap = match (self.stat, self.better) {
            (Stat::Median, _) => s.q3 - s.q1,
            (Stat::Best, Better::Higher) => s.max - s.q3,
            (Stat::Best, Better::Lower) => s.q1 - s.min,
        };
        gap.abs() / value.abs()
    }
}

use Better::{Higher, Lower};
use Stat::{Best, Median};

macro_rules! e2e {
    ($name:literal, $unit:literal, $better:expr, $stat:expr, $bound:literal, floor $floor:literal) => {
        EndToEnd {
            name: $name,
            unit: $unit,
            better: $better,
            stat: $stat,
            bound: $bound,
            floor: $floor,
        }
    };
}

/// Measured with tracing off: `tps` and `msgs_per_commit` over the run's
/// trials, `setup_s` over its repeated set-ups; `peak_rss_mb` is the
/// process's `VmHWM` when the run ends.
///
/// Four, not the issue's eight: `fail_rate`, the commit-latency
/// percentiles and `cpu_us_per_commit` are in [`PER_LAYER`], each with the
/// reason at its entry.
pub const END_TO_END: &[EndToEnd] = &[
    e2e!("setup_s", "s", Lower, Best, 0.25, floor 0.5),
    e2e!("tps", "1/s", Higher, Best, 0.25, floor 0.0),
    e2e!("msgs_per_commit", "count", Lower, Median, 0.03, floor 0.0),
    e2e!("peak_rss_mb", "MiB", Lower, Median, 0.10, floor 0.0),
];

/// The rungs of the open-loop rate ladder: arrivals per second, and the
/// names of that rung's p50 / p99 / shed-rate metrics in [`PER_LAYER`].
pub const LADDER: [(u32, [&str; 3]); 4] = [
    (
        2000,
        [
            "net.client.open.r2000.p50_ms",
            "net.client.open.r2000.p99_ms",
            "net.client.open.r2000.shed_rate",
        ],
    ),
    (
        4000,
        [
            "net.client.open.r4000.p50_ms",
            "net.client.open.r4000.p99_ms",
            "net.client.open.r4000.shed_rate",
        ],
    ),
    (
        6000,
        [
            "net.client.open.r6000.p50_ms",
            "net.client.open.r6000.p99_ms",
            "net.client.open.r6000.shed_rate",
        ],
    ),
    (
        8000,
        [
            "net.client.open.r8000.p50_ms",
            "net.client.open.r8000.p99_ms",
            "net.client.open.r8000.shed_rate",
        ],
    ),
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
        }
    };
}

/// Group A (counts at layer boundaries, from the trials' `NetReport`),
/// group B (the benchmark's spans around each layer's public functions),
/// the ledger, the ladder, and the run's own health readings.
pub const PER_LAYER: &[PerLayer] = &[
    // Demoted from the end-to-end list: 0 on every healthy run, so a
    // bound that is a share of the median cannot gate it. The `failed`
    // count of the result line carries the same information.
    layer!("fail_rate", "ratio", Lower),
    // Demoted from the end-to-end list, which is one list for all four
    // workloads: on the open loop a commit is a handful of thread wake-ups
    // on an otherwise idle CPU, and what a wake-up costs on the reference
    // VM drifts by the minute (ten-seed quartile range 16 % of the median;
    // 35 % for the p50 below). On the closed loops, pinned to one CPU, it
    // moves with 1 / tps, which is gated.
    layer!("cpu_us_per_commit", "us", Lower),
    // --- A: net.control
    layer!("net.control.retries_per_commit", "count", Lower),
    layer!("net.control.rejects_per_commit", "count", Lower),
    layer!("net.control.max_retry_streak", "count", Lower),
    layer!("net.control.ticks_per_commit", "count", Lower),
    // --- A: messaging
    layer!("net.batch.fill", "count", Higher),
    layer!("net.tcp.bytes_per_commit", "B", Lower),
    layer!("net.tcp.frames_per_commit", "count", Lower),
    layer!("net.data.rtt_p50_ms", "ms", Lower),
    layer!("net.data.rtt_p99_ms", "ms", Lower),
    // --- A: client
    // The commit-latency percentiles, demoted from the end-to-end list:
    // the median for the reason given at `cpu_us_per_commit`, the tail
    // because a handful of slow wake-ups in a half-second trial decide it.
    layer!("net.client.commit_p50_ms", "ms", Lower),
    layer!("net.client.commit_p95_ms", "ms", Lower),
    layer!("net.client.commit_p99_ms", "ms", Lower),
    layer!("net.client.commit_max_ms", "ms", Lower),
    layer!("net.client.reader_p99_ms", "ms", Lower),
    layer!("net.client.writer_p99_ms", "ms", Lower),
    layer!("net.client.shed_rate", "ratio", Lower),
    layer!("net.client.open.drain_ms", "ms", Lower),
    layer!("net.runtime.overhead_ms", "ms", Lower),
    // --- A: durability and MVCC
    layer!("dur.wal.records_per_commit", "count", Lower),
    layer!("dur.wal.bytes_per_commit", "B", Lower),
    layer!("dur.wal.records_per_flush", "count", Higher),
    layer!("mvcc.chain.appended_per_commit", "count", Lower),
    layer!("mvcc.chain.pruned_ratio", "ratio", Higher),
    layer!("mvcc.chain.live_peak", "count", Lower),
    layer!("mvcc.snapshot_reads_per_reader", "count", Lower),
    // --- B: control node and scheduler, CHAIN then K-WTPG
    layer!("rt.control.chain.arrive_ns", "ns", Lower),
    layer!("rt.control.chain.request_ns", "ns", Lower),
    layer!("rt.control.chain.progress_ns", "ns", Lower),
    layer!("rt.control.chain.commit_ns", "ns", Lower),
    layer!("core.sched.chain.us_per_commit", "us", Lower),
    layer!("core.sched.chain.opts_per_commit", "count", Lower),
    layer!("rt.control.k2.arrive_ns", "ns", Lower),
    layer!("rt.control.k2.request_ns", "ns", Lower),
    layer!("rt.control.k2.progress_ns", "ns", Lower),
    layer!("rt.control.k2.commit_ns", "ns", Lower),
    layer!("core.sched.kwtpg.us_per_commit", "us", Lower),
    layer!("core.sched.kwtpg.eq_evals_per_commit", "count", Lower),
    // --- B: certifiers
    layer!("core.stream_certify.feed_ns", "ns", Lower),
    layer!("core.stream_certify.retire_ns", "ns", Lower),
    layer!("core.certify.replay_us_per_commit", "us", Lower),
    // --- B: queue and store
    layer!("rt.queue.handoff_ns", "ns", Lower),
    layer!("rt.store.apply_write_ns", "ns", Lower),
    layer!("rt.store.apply_read_ns", "ns", Lower),
    // --- B: codec, coalescer, transports
    layer!("net.codec.encode_ns", "ns", Lower),
    layer!("net.codec.decode_ns", "ns", Lower),
    layer!("net.codec.us_per_commit", "us", Lower),
    layer!("net.batch.push_flush_ns", "ns", Lower),
    layer!("net.tcp.rtt_us", "us", Lower),
    layer!("net.tcp.oneway_msgs_per_s", "1/s", Higher),
    layer!("net.inproc.rtt_us", "us", Lower),
    layer!("net.inproc.oneway_msgs_per_s", "1/s", Higher),
    // --- B: WAL and replay
    layer!("dur.wal.append_ns", "ns", Lower),
    layer!("dur.wal.flush_us", "us", Lower),
    layer!("dur.wal.sync_us", "us", Lower),
    layer!("dur.replay.recover_ms", "ms", Lower),
    layer!("dur.replay.chunks_per_s", "1/s", Higher),
    // --- B: version chains and watermark
    layer!("mvcc.chain.record_ns", "ns", Lower),
    layer!("mvcc.chain.snapshot_cells_len3_us", "us", Lower),
    layer!("mvcc.chain.snapshot_cells_len64_us", "us", Lower),
    layer!("mvcc.chain.prune_ns", "ns", Lower),
    layer!("mvcc.watermark.seal_ns", "ns", Lower),
    layer!("mvcc.watermark.gc_floor_ns", "ns", Lower),
    // --- B: the paper-repro path sharing wtpg-core::sched
    layer!("sim.machine.events_per_s", "1/s", Higher),
    // --- ledger
    layer!("ledger.sum_us_per_commit", "us", Lower),
    layer!("ledger.coverage", "ratio", Higher),
    // --- rate ladder (traced pass only; quantised, informational)
    layer!("net.client.open.r2000.p50_ms", "ms", Lower),
    layer!("net.client.open.r2000.p99_ms", "ms", Lower),
    layer!("net.client.open.r2000.shed_rate", "ratio", Lower),
    layer!("net.client.open.r4000.p50_ms", "ms", Lower),
    layer!("net.client.open.r4000.p99_ms", "ms", Lower),
    layer!("net.client.open.r4000.shed_rate", "ratio", Lower),
    layer!("net.client.open.r6000.p50_ms", "ms", Lower),
    layer!("net.client.open.r6000.p99_ms", "ms", Lower),
    layer!("net.client.open.r6000.shed_rate", "ratio", Lower),
    layer!("net.client.open.r8000.p50_ms", "ms", Lower),
    layer!("net.client.open.r8000.p99_ms", "ms", Lower),
    layer!("net.client.open.r8000.shed_rate", "ratio", Lower),
    layer!("net.client.open.max_ok_rate_tps", "1/s", Higher),
    // --- the run's own health
    layer!("trace.overhead_pct", "%", Lower),
    layer!("env.ref_kernel_ms", "ms", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is used once");
        for n in names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for name in LADDER.iter().flat_map(|(_, names)| names) {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
