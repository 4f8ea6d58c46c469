//! `wtpg net`: run a batch of pattern transactions on the shared-nothing
//! message-passing runtime (control actor + one actor per data node) and
//! print (or record) the report.
//!
//! ```text
//! wtpg net --sched chain --clients 4 --transport tcp --fault crash
//! wtpg net --fault kill --durability sync --wal-dir /tmp/wtpg-wal
//! ```
//!
//! `--fault kill` tears a data node down mid-run and restarts it from its
//! write-ahead log, so it needs a durability level that keeps one
//! (`buffered` or `sync`); when the flags are omitted a kill cell defaults
//! to `sync` with a fresh per-run temp directory.
//!
//! The flags that describe the cell itself are shared with `wtpg load` and
//! parsed in [`crate::cell`]; this file owns the fault plan, the closed-loop
//! tuning knobs and the report.

use wtpg_net::{run_cell, FaultPlan, NetConfig, NetReport};

use crate::cell::{self, value};

/// What `wtpg net` takes beyond the shared cell flags.
struct NetArgs {
    fault: String,
    batch_max: usize,
    batch_window: u64,
    pipeline: usize,
    admit_window: usize,
    certify: bool,
    out: Option<String>,
}

/// Fault plans always target data node 0's control link; the plan seed is
/// derived from the run seed so `--seed` reproduces the fault schedule too.
/// `kill` tears node 0 down mid-run (in-memory state destroyed) and
/// restarts it from its write-ahead log.
fn fault_of(name: &str, seed: u64) -> Result<FaultPlan, String> {
    match name {
        "none" => Ok(FaultPlan::none()),
        "fault" => Ok(FaultPlan::flaky_links(seed ^ 0x5bd1_e995)),
        "crash" => Ok(FaultPlan::flaky_with_crash(seed ^ 0x5bd1_e995, 0)),
        "kill" => Ok(FaultPlan::kill_node(0)),
        other => Err(format!(
            "--fault must be none, fault, crash or kill, got {other:?}"
        )),
    }
}

fn print_report(r: &NetReport, pattern: &str) {
    println!(
        "{} | {} transport | {} faults | {} clients × {} data nodes × {} control shards \
         | {} | {} txns",
        r.scheduler, r.transport, r.fault, r.clients, r.data_nodes, r.shards, pattern, r.submitted
    );
    println!(
        "  committed  : {}  ({:.1} TPS over {:.0} ms wall)",
        r.committed, r.throughput_tps, r.wall_ms
    );
    println!(
        "  latency    : mean {:.2} ms  p50 {:.2}  p95 {:.2}  max {:.2}",
        r.latency.mean_ms, r.latency.p50_ms, r.latency.p95_ms, r.latency.max_ms
    );
    println!("  round trips: bulk-step p95 {:.2} ms", r.data_rtt.p95_ms);
    println!(
        "  messages   : {} sent ({:.1} per commit) — {} submits, {} commit acks, \
         {} accesses, {} stats deltas",
        r.messages_sent,
        r.msgs_per_commit(),
        r.msgs.submit,
        r.msgs.commit,
        r.msgs.access,
        r.msgs.stats_delta
    );
    println!(
        "  batching   : {} batch frames carrying {} coalesced messages",
        r.msgs.batch, r.batched_inner
    );
    if r.bytes_sent > 0 {
        println!(
            "  wire       : {} bytes sent / {} received ({:.0} bytes per commit, \
             {} frames)",
            r.bytes_sent,
            r.bytes_received,
            r.bytes_per_commit(),
            r.frames_sent
        );
    } else {
        println!("  wire       : in-process (no frames)");
    }
    println!(
        "  faults     : {} delayed, {} duplicated, {} crash drops, {} access retries",
        r.delayed_deliveries, r.dup_deliveries, r.crash_drops, r.access_retries
    );
    println!(
        "  aborts     : {} rejected admissions, {} delayed retries, worst streak {}",
        r.rejected_admissions, r.delayed_retries, r.max_retry_streak
    );
    if r.certified {
        println!(
            "  certified  : clean ({} grants checked, {} E(q) spot checks)",
            r.certify_grants, r.certify_eq_checks
        );
    } else {
        println!("  certified  : skipped (--no-certify)");
    }
    println!(
        "  store      : {} / {} write units visible — {}",
        r.store_write_units,
        r.expected_write_units,
        if r.store_consistent { "consistent" } else { "INCONSISTENT" }
    );
    if r.reader_commits > 0 {
        println!(
            "  readers    : {} committed via {} snapshot reads — \
             reader p99 {:.2} ms vs writer p99 {:.2} ms",
            r.reader_commits,
            r.snapshot_reads,
            r.reader_latency.p99_ms,
            r.writer_latency.p99_ms
        );
        println!(
            "  chains     : {} versions appended, {} pruned, peak {} live — snapshots {}",
            r.chain_appended,
            r.chain_pruned,
            r.chain_live_peak,
            if r.snapshot_certified { "certified" } else { "UNCERTIFIED" }
        );
    } else if r.reader_latency.max_ms > 0.0 {
        println!(
            "  readers    : lock-path (S mode) — reader p99 {:.2} ms vs \
             writer p99 {:.2} ms",
            r.reader_latency.p99_ms, r.writer_latency.p99_ms
        );
    }
    if r.durability != "none" {
        println!(
            "  durability : {} — {} wal records ({} flushes, {} fsyncs), \
             {} recoveries replaying {} chunks, {} orders parked unavailable",
            r.durability,
            r.wal_records,
            r.wal_flushes,
            r.wal_fsyncs,
            r.recoveries,
            r.wal_replayed_chunks,
            r.node_unavailable
        );
    }
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let defaults = NetConfig::default();
    let mut a = NetArgs {
        fault: "none".into(),
        batch_max: defaults.batch_max,
        batch_window: defaults.batch_window_us,
        pipeline: defaults.pipeline,
        admit_window: defaults.admit_window,
        certify: true,
        out: None,
    };
    let shared = cell::parse(args, |flag, take| {
        match flag {
            "--fault" => a.fault = take()?,
            "--batch-max" => a.batch_max = value(flag, take()?)?,
            "--batch-window" => a.batch_window = value(flag, take()?)?,
            "--pipeline" => a.pipeline = value(flag, take()?)?,
            "--admit-window" => a.admit_window = value(flag, take()?)?,
            "--no-certify" => a.certify = false,
            "--out" => a.out = Some(take()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let fault = fault_of(&a.fault, shared.seed)?;
    let cell = shared.build(fault, shared.txns.unwrap_or(500))?;
    let cfg = NetConfig {
        certify: a.certify,
        batch_max: a.batch_max,
        batch_window_us: a.batch_window,
        pipeline: a.pipeline,
        admit_window: a.admit_window,
        ..cell.cfg.clone()
    };
    let report = run_cell(
        &cfg,
        &|| cell.sched.make(),
        &cell.catalog,
        &cell.specs,
        cell.transport,
        &cell.fault,
    )
    .map_err(|e| e.to_string())?;
    print_report(&report, &cell.pattern.label());
    if let Some(path) = &a.out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialise report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
