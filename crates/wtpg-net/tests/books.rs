//! One set of books per run: every count a shared-nothing run reports is
//! booked once, in the run's `Registry`, under a name of the
//! `wtpg_obs::window::metric` catalogue.
//!
//! * **The catalogue is closed.** Four cells that between them switch on
//!   every plane (TCP + faulty links + buffered WAL + a kill-restart past
//!   the redelivery budget; in-proc + MVCC read mix + open loop with
//!   shedding; two shards + sync WAL; in-proc + buffered WAL long enough
//!   for node snapshots + a kill after the first) leave nothing in the
//!   registry that is not a `metric::` constant or a member of a documented
//!   family — and every constant has a producer in at least one of them.
//! * **The one book is right across incarnations.** For the kill-restart
//!   cells, the totals read back from the registry are the report's fields,
//!   and they agree with what the killed and the restarted incarnation left
//!   on disk between them.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_dur::checkpoint::files;
use wtpg_dur::{recover, Durability};
use wtpg_net::control::NOTICE_AT;
use wtpg_net::data::SNAPSHOT_EVERY;
use wtpg_net::fault::{FaultPlan, KillPlan};
use wtpg_net::{run_cell_load, InProc, NetConfig, NetReport, OpenLoop, Tcp, Transport};
use wtpg_obs::window::metric;
use wtpg_obs::{ByteCounts, ControlStats, MsgCounts, Registry};
use wtpg_rt::backoff::Backoff;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-books-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(
    cfg: &NetConfig,
    sched: &'static str,
    (catalog, specs): &(Catalog, Vec<TxnSpec>),
    transport: &dyn Transport,
    fault: &FaultPlan,
) -> (NetReport, Arc<Registry>) {
    let reg = Arc::<Registry>::default();
    let report = run_cell_load(
        cfg,
        &|| sched_by_name(sched, 2, 2000).expect("known scheduler"),
        catalog,
        specs,
        transport,
        fault,
        None,
        Some(Arc::clone(&reg)),
    )
    .expect("cell runs clean");
    assert!(report.certified && report.store_consistent, "{report:?}");
    (report, reg)
}

/// Loopback TCP, delay + duplicate faults on every link, buffered WAL, and
/// node 0 killed for longer than the redelivery budget covers.
fn kill_restart_cell(dir: &Path) -> (NetConfig, (Catalog, Vec<TxnSpec>), FaultPlan) {
    let cfg = NetConfig {
        durability: Durability::Buffered,
        wal_dir: Some(dir.to_path_buf()),
        retry: Backoff {
            base_us: 2_000,
            cap_us: 8_000,
            max_attempts: 3,
        },
        ..NetConfig::default()
    };
    let fault = FaultPlan {
        kill: Some(KillPlan {
            node: Some(0),
            after_msgs: 10,
            down_ms: 150,
        }),
        ..FaultPlan::flaky_links(5)
    };
    (cfg, pattern_specs(Pattern::One, 60, 17), fault)
}

/// Messages node 0 handles before the snapshot cell kills it.
const SNAPSHOT_KILL_AFTER: u64 = 4400;

/// In-process, buffered WAL, Pattern 2 over 4 hots, and node 0 killed once
/// its first snapshot is on disk: the one cell that writes node snapshots.
/// Every order node 0 handles before the kill is fresh — no link faults,
/// and no redelivery is due within a second — and logs its step as one
/// record. The other messages it handles are notices, at most one per
/// [`NOTICE_AT`] transactions it served, so by its
/// [`SNAPSHOT_KILL_AFTER`]-th message it has logged at least
/// [`SNAPSHOT_EVERY`] records and written its first snapshot; the workload
/// homes more steps than that on node 0, so the kill fires (both checked
/// below).
fn snapshot_kill_cell(dir: &Path) -> (NetConfig, (Catalog, Vec<TxnSpec>), FaultPlan) {
    let cfg = NetConfig {
        durability: Durability::Buffered,
        wal_dir: Some(dir.to_path_buf()),
        retry: Backoff {
            base_us: 1_000_000,
            ..NetConfig::default().retry
        },
        ..NetConfig::default()
    };
    let workload = pattern_specs(Pattern::Two { num_hots: 4 }, 8000, 3);
    let notice_at = NOTICE_AT as u64;
    assert!(
        SNAPSHOT_KILL_AFTER * notice_at / (notice_at + 1) >= SNAPSHOT_EVERY,
        "node 0 must reach its first snapshot before the kill"
    );
    let node0_steps = workload
        .1
        .iter()
        .flat_map(|t| t.steps())
        .filter(|s| workload.0.node_of(s.partition) == 0)
        .count() as u64;
    assert!(
        node0_steps > SNAPSHOT_KILL_AFTER,
        "the kill must fire: {node0_steps} steps on node 0"
    );
    let fault = FaultPlan {
        kill: Some(KillPlan {
            node: Some(0),
            after_msgs: SNAPSHOT_KILL_AFTER,
            down_ms: 30,
        }),
        ..FaultPlan::none()
    };
    (cfg, workload, fault)
}

/// Names that belong to one of the catalogue's documented families.
fn in_a_family(name: &str, shards: usize, nodes: usize) -> bool {
    let msg_types: Vec<&str> = MsgCounts::default().fields().iter().map(|f| f.0).collect();
    let per_type = |family: fn(&str) -> String| msg_types.iter().any(|ty| family(ty) == name);
    let per_shard = |family: fn(usize) -> String| (0..shards).any(|s| family(s) == name);
    per_type(metric::msg_tx)
        || per_type(metric::msg_rx)
        || ByteCounts::default().fields().iter().any(|f| metric::wire(f.0) == name)
        || ControlStats::default().fields().iter().any(|f| f.0 == name)
        || per_shard(metric::shard_backlog)
        || per_shard(metric::shard_parked)
        || per_shard(metric::shard_commits)
        || per_shard(metric::shard_admissions)
        || per_shard(metric::shard_max_retry_streak)
        || (0..nodes).any(|n| metric::node_chain_live_peak(n) == name)
}

#[test]
fn the_catalogue_is_closed_and_every_name_has_a_producer() {
    let dir = wal_dir("closure-kill");
    let (cfg, workload, fault) = kill_restart_cell(&dir);
    let kill = run(&cfg, "chain", &workload, &Tcp, &fault);

    let mut mixed = pattern_specs(Pattern::Two { num_hots: 4 }, 240, 9);
    ReadMix::skewed(0.5, 0.9).apply(&mixed.0, &mut mixed.1, 9);
    let cfg = NetConfig {
        mvcc: true,
        certify: false,
        stream_certify: true,
        open_loop: Some(OpenLoop {
            lambda_tps: 1_000_000.0,
            seed: 5,
            inflight: 4,
        }),
        ..NetConfig::default()
    };
    let open = run(&cfg, "k2", &mixed, &InProc, &FaultPlan::none());
    assert!(open.0.shed > 0 && open.0.reader_commits > 0, "{:?}", open.0);

    let sync_dir = wal_dir("closure-sync");
    let cfg = NetConfig {
        shards: 2,
        durability: Durability::Sync,
        wal_dir: Some(sync_dir.clone()),
        ..NetConfig::default()
    };
    let clustered = pattern_specs(Pattern::Clustered { groups: 2, hots_per_group: 4 }, 60, 13);
    let sharded = run(&cfg, "c2pl", &clustered, &InProc, &FaultPlan::none());
    assert_eq!(sharded.0.shards, 2);

    let snap_dir = wal_dir("closure-snapshot");
    let (cfg, workload, fault) = snapshot_kill_cell(&snap_dir);
    let snapshot = run(&cfg, "chain", &workload, &InProc, &fault);

    let mut produced = BTreeSet::new();
    for (report, reg) in [&kill, &open, &sharded, &snapshot] {
        // Counters and gauges the registry holds, and (never having been
        // flushed) every histogram that recorded anything.
        let window = reg.flush_snapshot(1);
        let held = reg
            .totals()
            .into_keys()
            .chain(window.hists.iter().map(|(name, _)| name.to_string()));
        for name in held {
            assert!(
                metric::ALL.contains(&name.as_str())
                    || in_a_family(&name, report.shards, report.data_nodes),
                "{name} is booked but not in the catalogue"
            );
        }
        produced.extend(window.counters.iter().map(|(name, _)| name.to_string()));
        produced.extend(window.gauges.iter().map(|(name, _)| name.to_string()));
        produced.extend(window.hists.iter().map(|(name, _)| name.to_string()));
    }
    for name in metric::ALL {
        // A torn log tail needs a torn file, which no clean cell leaves:
        // `wtpg-dur`'s torn_tail suite produces and heals them.
        if name != metric::WAL_TORN_TAILS {
            assert!(produced.contains(name), "{name} has no producer in any cell");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sync_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}

#[test]
fn kill_restart_totals_are_the_report_and_survive_the_incarnation() {
    let dir = wal_dir("totals");
    let (cfg, workload, fault) = kill_restart_cell(&dir);
    let (r, reg) = run(&cfg, "chain", &workload, &Tcp, &fault);
    let totals = reg.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);

    // The fields CI's python asserts read, against the book they came from.
    assert_eq!(r.recoveries, 1, "the kill fires once: {r:?}");
    for (field, name) in [
        (r.recoveries, metric::WAL_RECOVERIES),
        (r.wal_replayed_chunks, metric::WAL_REPLAYED_CHUNKS),
        (r.wal_records, metric::WAL_RECORDS),
        (r.wal_flushes, metric::WAL_FLUSHES),
        (r.wal_bytes, metric::WAL_BYTES),
        (r.crash_drops, metric::CRASH_DROPS),
        (r.access_retries, metric::ACCESS_RETRIES),
        (r.node_unavailable, metric::NODE_UNAVAILABLE),
        (r.batched_inner, metric::BATCHED_INNER),
        (r.dup_deliveries, metric::FAULT_DUPS),
        (r.bytes_sent, &metric::wire("bytes_sent")),
        (r.offered, metric::OFFERED),
    ] {
        assert!(field > 0, "{name} must be live in this cell: {r:?}");
        assert_eq!(field, total(name), "{name}");
    }
    let msgs = serde_json::to_value(r.msgs).expect("breakdown serialises");
    for (ty, _) in MsgCounts::default().fields() {
        assert_eq!(
            msgs.get(ty),
            Some(&serde_json::Value::U64(total(&metric::msg_tx(ty)))),
            "msgs.{ty}"
        );
    }
    // One Submit and one Commit ack per transaction, as messages handled:
    // the client links coalesce, so a frame may carry several.
    let heard = ["submit", "commit"].map(|ty| total(&metric::msg_rx(ty)));
    assert_eq!(heard, [60, 60]);
    // One `Recover`, heard by control; the rejoin needs no reply.
    assert!(r.msgs.recover == 1 && total(&metric::msg_rx("recover")) >= 1, "{r:?}");

    // Across the kill: the log is append-only and a kill destroys only the
    // writer's userspace buffer, so the bytes both incarnations of node 0
    // wrote (and every other node's) are exactly the files' sizes; and
    // every step of the workload was logged at least once, as one record,
    // which the second incarnation's tally alone would fall short of.
    let on_disk: u64 = (0..r.data_nodes as u32)
        .map(|n| std::fs::metadata(files::node_wal(&dir, n)).expect("log exists").len())
        .sum();
    assert_eq!(r.wal_bytes, on_disk, "wal/bytes across incarnations");
    let steps: u64 = workload.1.iter().map(|t| t.len() as u64).sum();
    let records = r.wal_records;
    assert!(records >= steps, "{records} records for {steps} steps");
    assert!(total(metric::DATA_UNITS) >= r.store_write_units);
    // A step answers once, with its `AccessDone`, whichever incarnation
    // applied it: what control handled covers every step of the workload.
    assert!(total(&metric::msg_rx("access_done")) >= steps);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_snapshots_are_booked_and_bound_the_kill_replay() {
    let dir = wal_dir("snapshot-kill");
    let (cfg, workload, fault) = snapshot_kill_cell(&dir);
    let (r, reg) = run(&cfg, "chain", &workload, &InProc, &fault);
    let totals = reg.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);

    assert_eq!(r.recoveries, 1, "the kill fires once: {r:?}");
    assert_eq!(r.committed, 8000, "{r:?}");
    assert!(r.wal_checkpoints > 0, "{r:?}");
    assert_eq!(r.wal_checkpoints, total(metric::WAL_CHECKPOINTS));
    // The restart replayed the log suffix past node 0's snapshot, not the
    // whole log.
    assert!(r.wal_replayed_chunks < SNAPSHOT_EVERY, "{r:?}");
    // What the run left on disk rebuilds through a snapshot too.
    let node0 = recover(&workload.0, 0, &dir, 1).expect("node 0 recovers offline");
    assert!(node0.from_snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
