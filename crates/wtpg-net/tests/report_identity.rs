//! The runtime's report is a pure function of its inputs wherever the run
//! has a single stream: one client, one transaction admitted at a time, no
//! faults. Every field of [`NetReport`] except wall-clock times, latencies
//! and throughput is pinned here against a committed golden, so a
//! restructuring of `run_cell_load` that changes *any* book it keeps —
//! message tallies, logical ticks, certifier counts, shed accounting, batch
//! fills — fails this test instead of drifting silently.
//!
//! Two load shapes per (seed, scheduler):
//!
//! * **closed**, `pipeline = 1`: strict one-at-a-time submission (the shape
//!   `differential.rs` proves tick-identical to a serial drive);
//! * **open**: a Poisson schedule so fast that every arrival is due before
//!   the client's first look at the clock — the first `inflight` arrivals
//!   are submitted, the rest shed, in one pass — and `admit_window = 1`, so
//!   the control plane serialises what was accepted. Streaming-certified,
//!   as `wtpg load` runs it.

use wtpg_net::{run_cell, FaultPlan, InProc, NetConfig, NetReport, OpenLoop};
use wtpg_rt::metrics::LatencySummary;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

const GOLDEN: &str = include_str!("golden/report_identity.json");

const TXNS: usize = 40;

fn closed() -> NetConfig {
    NetConfig {
        clients: 1,
        pipeline: 1,
        ..NetConfig::default()
    }
}

fn open(seed: u64) -> NetConfig {
    NetConfig {
        clients: 1,
        admit_window: 1,
        open_loop: Some(OpenLoop {
            lambda_tps: 1e9,
            seed,
            inflight: 8,
        }),
        certify: false,
        stream_certify: true,
        ..NetConfig::default()
    }
}

/// The report with every timing-derived field zeroed.
fn deterministic(mut r: NetReport) -> NetReport {
    r.wall_ms = 0.0;
    r.throughput_tps = 0.0;
    r.latency = LatencySummary::default();
    r.data_rtt = LatencySummary::default();
    r.reader_latency = LatencySummary::default();
    r.writer_latency = LatencySummary::default();
    r
}

#[test]
fn single_stream_reports_match_the_committed_golden() {
    let mut reports = Vec::new();
    for seed in [7u64, 13] {
        let (catalog, mut specs) = pattern_specs(Pattern::Two { num_hots: 4 }, TXNS, seed);
        // Half the batch read-only (S-lock path): read checksums and declared
        // write units then differ by seed, so the golden pins more than shape.
        ReadMix::skewed(0.5, 0.9).apply(&catalog, &mut specs, seed);
        for sched in ["chain", "k2"] {
            for cfg in [closed(), open(seed)] {
                let r = run_cell(
                    &cfg,
                    &|| sched_by_name(sched, 2, 2000).expect("known scheduler"),
                    &catalog,
                    &specs,
                    &InProc,
                    &FaultPlan::none(),
                )
                .expect("single-stream run completes cleanly");
                reports.push(deterministic(r));
            }
        }
    }
    let actual = serde_json::to_string_pretty(&reports).expect("reports serialise") + "\n";
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("report_identity.actual.json");
        std::fs::write(&path, &actual).expect("write the observed projection");
        panic!(
            "NetReport's deterministic projection drifted from tests/golden/report_identity.json; \
             observed projection written to {}",
            path.display()
        );
    }
}
