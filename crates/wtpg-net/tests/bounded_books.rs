//! A data node's books are bounded by what control may still ask, not by
//! how long the run has gone on.
//!
//! A node keeps a mark per applied step, a partial per step a kill cut
//! short and a memo per served snapshot read, and drops each on the notice
//! that names its transaction or whose control-shard mark has passed it.
//! What the nodes still hold when they stop (`data/books_left`) is then the
//! transactions retired since each node's last notice — fewer than
//! [`NOTICE_AT`] per node — and must read the same whether the run is one
//! length or four times it. Four cells: P1 under CHAIN, the MVCC mix (half
//! the stream read-only on the snapshot plane), P1 with node 0 crashed for a
//! while, which loses the notices delivered inside the window, and a
//! buffered-WAL cell whose node 0 is killed and replays its log, which
//! brings back the marks of every transaction it ever served.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]

use std::path::PathBuf;
use std::sync::Arc;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_net::control::NOTICE_AT;
use wtpg_net::{run_cell_load, CrashPlan, Durability, FaultPlan, InProc, KillPlan, NetConfig};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

/// One cell at `txns` transactions: its books left at exit, and how many
/// steps its transactions declare at most.
fn books_left(cell: &str, txns: usize) -> (u64, u64, usize) {
    let (pattern, read_mix) = match cell {
        "mvcc" => (Pattern::Two { num_hots: 4 }, true),
        _ => (Pattern::One, false),
    };
    let (catalog, mut specs): (Catalog, Vec<TxnSpec>) = pattern_specs(pattern, txns, 7);
    if read_mix {
        ReadMix::skewed(0.5, 0.9).apply(&catalog, &mut specs, 7);
    }
    let dir: Option<PathBuf> = (cell == "kill").then(|| {
        let dir = std::env::temp_dir().join(format!("wtpg-bounded-{}-{txns}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let cfg = NetConfig {
        clients: 2,
        certify: false,
        mvcc: read_mix,
        durability: if dir.is_some() { Durability::Buffered } else { Durability::None },
        wal_dir: dir.clone(),
        ..NetConfig::default()
    };
    let fault = FaultPlan {
        crash: (cell == "crash").then_some(CrashPlan { node: 0, after_msgs: 400, down_ms: 20 }),
        kill: dir.is_some().then_some(KillPlan { node: Some(0), after_msgs: 400, down_ms: 20 }),
        ..FaultPlan::none()
    };
    let reg = Arc::<Registry>::default();
    let r = run_cell_load(
        &cfg,
        &|| sched_by_name("chain", 2, 5000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &fault,
        None,
        Some(Arc::clone(&reg)),
    )
    .unwrap_or_else(|e| panic!("{cell} at {txns}: {e}"));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(r.store_consistent && r.snapshot_certified, "{cell}: {r:?}");
    assert_eq!(r.committed, txns as u64, "{cell}");
    assert_eq!(r.recoveries, u64::from(cell == "kill"), "{cell}: {r:?}");
    let left = reg.totals().get(metric::DATA_BOOKS_LEFT).copied().unwrap_or(0);
    let steps = specs.iter().map(TxnSpec::len).max().unwrap_or(0);
    (left, r.data_nodes as u64, steps)
}

fn check(cell: &str) {
    let (short, nodes, steps) = books_left(cell, 2_000);
    let (long, ..) = books_left(cell, 8_000);
    // Each node holds the books of fewer than NOTICE_AT retired
    // transactions, at most every step of each.
    let bound = nodes * NOTICE_AT as u64 * steps as u64;
    println!("{cell}: {short} books left at 1x, {long} at 4x (bound {bound})");
    assert!(short <= bound && long <= bound, "{cell}: {short} and {long} books left, bound {bound}");
    assert!(long <= short + short / 2 + 64, "{cell}: {short} books left at 1x grew to {long} at 4x");
}

#[test]
fn p1_chain_books_do_not_grow_with_the_run() {
    check("p1");
}

#[test]
fn mvcc_mix_books_do_not_grow_with_the_run() {
    check("mvcc");
}

#[test]
fn a_crashed_nodes_books_do_not_grow_with_the_run() {
    check("crash");
}

#[test]
fn a_killed_nodes_replayed_books_do_not_grow_with_the_run() {
    check("kill");
}
