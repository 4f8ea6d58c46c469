//! Kill-and-restart durability tests: a data node (or the whole cluster)
//! is torn down mid-run — in-memory store, applied-marks, and buffered
//! replies destroyed — restarted from its write-ahead log, and the run
//! must still commit everything, certify, and conserve every write unit.
//! After the run, the on-disk log must replay to the same state the live
//! node ended with, byte for byte, whether replayed serially or across
//! parallel dependency chains.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::path::{Path, PathBuf};

use wtpg_dur::{recover, Durability};
use wtpg_net::fault::{FaultPlan, KillPlan, LinkFaults};
use wtpg_net::runtime::{run_cell, NetConfig, OpenLoop};
use wtpg_net::tcp::Tcp;
use wtpg_net::transport::{InProc, Transport};
use wtpg_net::{NetError, PlanError};
use wtpg_rt::backoff::Backoff;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::Pattern;

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-dur-net-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dur_cfg(durability: Durability, dir: &Path) -> NetConfig {
    NetConfig {
        durability,
        wal_dir: Some(dir.to_path_buf()),
        ..NetConfig::default()
    }
}

/// Node 0 is killed mid-run under sync durability and restarts from its
/// log. The node's mailbox outlives the incarnation on either transport: a
/// queue keeps what was pushed, a socket keeps what the kernel holds.
fn single_node_kill_under_sync(transport: &dyn Transport, name: &str) {
    let (catalog, specs) = pattern_specs(Pattern::One, 60, 7);
    let dir = wal_dir(name);
    let r = run_cell(
        &dur_cfg(Durability::Sync, &dir),
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        transport,
        &FaultPlan::kill_node(0),
    )
    .expect("killed run completes cleanly");
    assert_eq!(r.committed, 60);
    assert!(r.certified);
    assert!(r.store_consistent, "{r:?}");
    assert_eq!(r.fault, "kill");
    assert_eq!(r.durability, "sync");
    assert!(r.recoveries >= 1, "the kill must actually fire: {r:?}");
    assert!(r.msgs.recover >= 1, "restart must announce itself");
    assert!(r.access_retries >= 1, "control must re-send the rejoined node's orders");
    assert!(r.wal_records > 0, "chunks must be logged");
    assert!(r.wal_fsyncs > 0, "sync durability must fsync");
    assert!(r.crash_drops > 0, "the down window must drop messages");
    holds_only_what_recovery_reads(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_node_kill_recovers_and_certifies_under_sync() {
    single_node_kill_under_sync(&InProc, "sync-kill");
}

#[test]
fn single_node_kill_recovers_and_certifies_under_sync_over_tcp() {
    single_node_kill_under_sync(&Tcp, "sync-kill-tcp");
}

#[test]
fn single_node_kill_recovers_under_buffered() {
    let (catalog, specs) = pattern_specs(Pattern::One, 60, 11);
    let dir = wal_dir("buf-kill");
    let r = run_cell(
        &dur_cfg(Durability::Buffered, &dir),
        &|| sched_by_name("k2", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::kill_node(0),
    )
    .expect("killed run completes cleanly");
    assert_eq!(r.committed, 60);
    assert!(r.certified);
    assert!(r.store_consistent, "{r:?}");
    assert_eq!(r.durability, "buffered");
    assert!(r.recoveries >= 1);
    assert_eq!(r.wal_fsyncs, 0, "buffered durability never fsyncs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_cluster_kill_replays_every_node_byte_identically() {
    let (catalog, specs) = pattern_specs(Pattern::One, 80, 13);
    let dir = wal_dir("cluster-kill");
    let r = run_cell(
        &dur_cfg(Durability::Sync, &dir),
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::kill_cluster(),
    )
    .expect("cluster-killed run completes cleanly");
    assert_eq!(r.committed, 80);
    assert!(r.certified);
    assert!(r.store_consistent, "{r:?}");
    assert_eq!(
        r.recoveries, r.data_nodes as u64,
        "every node must die and restart exactly once: {r:?}"
    );
    assert!(r.wal_replayed_chunks > 0, "replays must re-apply chunks");

    // Offline replay: the durable state each node left behind must
    // rebuild the exact store the live run ended with — and the parallel
    // dependency-chain replay must be byte-identical to the serial one.
    let mut cells = 0u64;
    let mut units = 0u64;
    for node in 0..r.data_nodes as u32 {
        let serial = recover(&catalog, node, &dir, 1).expect("serial recovery");
        let parallel = recover(&catalog, node, &dir, 4).expect("parallel recovery");
        assert_eq!(
            serial.store.snapshot_parts(),
            parallel.store.snapshot_parts(),
            "node {node}: parallel replay diverged from serial"
        );
        assert_eq!(serial.store.write_units(), parallel.store.write_units());
        cells += serial.store.cell_sum();
        units += serial.store.write_units();
    }
    assert_eq!(cells, r.store_cell_sum, "offline replay lost cells");
    assert_eq!(units, r.store_write_units, "offline replay lost units");
    assert_eq!(units, r.expected_write_units, "conservation must hold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_down_past_budget_parks_as_unavailable_instead_of_erroring() {
    let (catalog, specs) = pattern_specs(Pattern::One, 40, 17);
    let dir = wal_dir("park");
    // A redelivery budget far too small for the down window: before the
    // durability layer this errored with RetriesExhausted; now the orders
    // park as node-unavailable and heal when the node rejoins.
    let cfg = NetConfig {
        retry: Backoff {
            base_us: 2_000,
            cap_us: 8_000,
            max_attempts: 3,
        },
        ..dur_cfg(Durability::Sync, &dir)
    };
    let fault = FaultPlan {
        seed: 0,
        link: LinkFaults::NONE,
        crash: None,
        kill: Some(KillPlan {
            node: Some(0),
            after_msgs: 10,
            down_ms: 150,
        }),
    };
    let r = run_cell(
        &cfg,
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &fault,
    )
    .expect("parked run still completes");
    assert_eq!(r.committed, 40);
    assert!(r.certified);
    assert!(r.store_consistent, "{r:?}");
    assert!(
        r.node_unavailable > 0,
        "budget blowout must surface as node_unavailable: {r:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_without_durability_is_rejected() {
    let (catalog, specs) = pattern_specs(Pattern::One, 10, 7);
    let err = run_cell(
        &NetConfig::default(),
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::kill_node(0),
    )
    .expect_err("a kill without a log to restart from must be refused");
    assert!(
        matches!(err, NetError::Plan(PlanError::KillWithoutLog)),
        "{err:?}"
    );
}

#[test]
fn flaky_links_with_kill_still_certify() {
    let (catalog, specs) = pattern_specs(Pattern::One, 60, 19);
    let dir = wal_dir("flaky-kill");
    let r = run_cell(
        &dur_cfg(Durability::Buffered, &dir),
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::flaky_with_kill(23, 0),
    )
    .expect("flaky killed run completes cleanly");
    assert_eq!(r.committed, 60);
    assert!(r.certified);
    assert!(r.store_consistent, "{r:?}");
    assert_eq!(r.fault, "fault+kill");
    assert!(r.recoveries >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_under_a_wal_commits_every_writer() {
    // The `wtpg load --durability buffered` shape: Poisson arrivals, the
    // streaming certifier, a WAL. The in-flight bound exceeds each
    // client's slice, so nothing can be shed and every spec is a committed
    // writer, and the directory holds only what recovery reads.
    let (catalog, specs) = pattern_specs(Pattern::One, 120, 23);
    let dir = wal_dir("open-loop-wal");
    let cfg = NetConfig {
        open_loop: Some(OpenLoop {
            lambda_tps: 20_000.0,
            seed: 5,
            inflight: 64,
        }),
        stream_certify: true,
        ..dur_cfg(Durability::Buffered, &dir)
    };
    let r = run_cell(
        &cfg,
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::none(),
    )
    .expect("open-loop WAL run completes cleanly");
    assert_eq!((r.shed, r.committed), (0, 120), "{r:?}");
    assert!(r.certified && r.store_consistent, "{r:?}");
    holds_only_what_recovery_reads(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log directory belongs to one run. A second run into a directory that
/// still holds the first run's logs would *append* to them, and a node
/// killed in the second run would replay both runs' records — recovery is
/// only sound over the log of this run — so the plan is refused before any
/// thread, socket or file exists. (Before the plan existed this wedged
/// until the control watchdog fired.)
#[test]
fn a_used_wal_dir_is_refused_before_the_run_starts() {
    let (catalog, specs) = pattern_specs(Pattern::One, 60, 7);
    let dir = wal_dir("reused");
    // Short watchdog: the wedge this guards against costs < 2 s to show.
    let cfg = NetConfig {
        watchdog_ms: 1_500,
        ..dur_cfg(Durability::Sync, &dir)
    };
    let sched = || sched_by_name("chain", 2, 2000).expect("known scheduler");
    let first = run_cell(&cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::none())
        .expect("first run into a fresh directory completes cleanly");
    assert_eq!(first.committed, 60);
    let before: Vec<_> = dir_listing(&dir);
    let err = run_cell(&cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::kill_node(0))
        .expect_err("a second run into the same directory must be refused");
    match err {
        NetError::Plan(PlanError::WalDirNotFresh { dir: refused, found }) => {
            assert_eq!(refused, dir);
            assert!(
                found.ends_with(".wal") || found.ends_with(".ckpt"),
                "{found}"
            );
        }
        other => panic!("expected WalDirNotFresh, got {other:?}"),
    }
    assert_eq!(dir_listing(&dir), before, "a refused plan touches nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run leaves its data nodes' logs and snapshots in the WAL directory,
/// and nothing recovery would not open.
fn holds_only_what_recovery_reads(dir: &Path) {
    for (name, _) in dir_listing(dir) {
        let node = name.strip_prefix("node").unwrap_or_default();
        assert!(
            node.ends_with(".wal") || node.ends_with(".ckpt"),
            "{name}: not a node log or snapshot"
        );
    }
}

/// `(file name, length)` of everything in `dir`, sorted.
fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("wal dir lists")
        .map(|e| {
            let e = e.expect("dir entry reads");
            let len = e.metadata().expect("entry metadata").len();
            (e.file_name().to_string_lossy().into_owned(), len)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn an_empty_existing_wal_dir_is_accepted() {
    let (catalog, specs) = pattern_specs(Pattern::One, 40, 7);
    let dir = wal_dir("empty-existing");
    std::fs::create_dir_all(&dir).expect("create the empty directory");
    let r = run_cell(
        &dur_cfg(Durability::Buffered, &dir),
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan::none(),
    )
    .expect("an empty pre-existing directory is a fresh one");
    assert_eq!(r.committed, 40);
    assert!(r.wal_records > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
