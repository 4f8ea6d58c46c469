//! Seeded interleavings of whole runs, explored through the runtime itself:
//! `explore_cell` plans and lays a cell out as `run_cell` does, then
//! steps every actor — the control shards, a sharded run's router, the data
//! nodes and the clients — single-threaded on a virtual clock, with a seeded
//! `XorShift` picking which ready actor moves next, and judges the run with
//! `run_cell`'s own checks: replay (or, streamed, live) certification,
//! snapshot certification, write-unit conservation.
//!
//! Every link is an in-process queue. The clock moves only when no actor
//! can, to the earliest wait, and the flush window is an hour, so real time
//! never changes how messages are framed. Link faults
//! (`FaultPlan::flaky_links(seed)`) and crash and kill instants are seeded
//! by the run's seed too and fall due on the same clock, so a seed repeats
//! its run exactly. A failing seed is reported as the `run_*seed` call that
//! repeats it.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_net::control::NOTICE_AT;
use wtpg_net::runtime::explore_cell;
use wtpg_net::{CrashPlan, Durability, FaultPlan, KillPlan, NetConfig};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

/// What a run met, summed over an arm's seeds.
#[derive(Debug, Default, PartialEq)]
struct Met {
    dups: u64,
    delays: u64,
    recoveries: u64,
    readers: u64,
}

/// What a run left behind that tells seeds apart, and what it met.
struct Ran {
    history: String,
    met: Met,
}

/// One of the `run_*seed` calls a failing seed is reported as.
type Runner = fn(&str, u64, bool) -> Result<Ran, String>;

/// The one cell every arm explores, on `shards` control shards (1 or 2): two
/// clients six deep under a four-deep admission window, so the backlog is
/// used, and eight-message frames, so a burst can split across frames.
fn cell(shards: usize) -> NetConfig {
    NetConfig {
        clients: 2,
        batch_max: 8,
        batch_window_us: 3_600_000_000,
        admit_window: 4,
        pipeline: 6,
        shards,
        ..NetConfig::default()
    }
}

/// Link faults seeded by `seed` if `faulted`, none otherwise.
fn links(seed: u64, faulted: bool) -> FaultPlan {
    if faulted {
        FaultPlan::flaky_links(seed)
    } else {
        FaultPlan::none()
    }
}

/// Explores one run of `cfg` under `sched` and `fault` in the order `seed`
/// picks: [`TXNS`] transactions of `Two { num_hots: 4 }` — of `Clustered { groups:
/// 2, hots_per_group: 4 }` on two shards — over two data nodes, about half
/// of them read-only on the snapshot plane if `cfg.mvcc`, logged to a fresh
/// directory if `cfg.durability` keeps a log. Beside the runtime's own
/// checks, every transaction must commit on the shards asked for, and the
/// data nodes' books at exit must stay within `bounded_books.rs`'s bound.
fn run(cfg: NetConfig, sched: &str, seed: u64, fault: FaultPlan) -> Result<Ran, String> {
    run_n(TXNS, cfg, sched, seed, fault)
}

/// Transactions in an explored run.
const TXNS: usize = 24;

/// [`run`] with `txns` transactions.
fn run_n(txns: usize, cfg: NetConfig, sched: &str, seed: u64, fault: FaultPlan) -> Result<Ran, String> {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let pattern = match cfg.shards {
        1 => Pattern::Two { num_hots: 4 },
        _ => Pattern::Clustered { groups: 2, hots_per_group: 4 },
    };
    let (paper, mut specs) = pattern_specs(pattern, txns, 11);
    let catalog = Catalog::new(paper.partitions().map(|p| paper.size(p)).collect(), 2);
    if cfg.mvcc {
        // Two shards' readers scan the first group's five partitions only, so
        // they join no two conflict components.
        let scanned = if cfg.shards == 1 { catalog.num_parts() as usize } else { 5 };
        let sizes = paper.partitions().take(scanned).map(|p| paper.size(p)).collect();
        ReadMix::skewed(0.5, 0.0).apply(&Catalog::new(sizes, 2), &mut specs, 11);
    }
    let wal_dir = cfg.durability.requires_log().then(|| {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("wtpg-explore-{}-{n}", std::process::id()))
    });
    let cfg = NetConfig { wal_dir, ..cfg };
    let sched = || sched_by_name(sched, 2, 2000).expect("a known scheduler");
    let reg = Registry::new();
    let explored = explore_cell(&cfg, &sched, &catalog, &specs, &fault, seed, &reg);
    if let Some(dir) = &cfg.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (r, audit) = explored.map_err(|e| e.to_string())?;
    let n = specs.len() as u64;
    if (r.committed, r.shards) != (n, cfg.shards) {
        return Err(format!("{} of {n} committed on {} shards", r.committed, r.shards));
    }
    if !(r.certified && r.snapshot_certified && r.store_consistent) {
        return Err(format!("not certified, snapshot-certified and conserved: {r:?}"));
    }
    let met = Met {
        dups: r.dup_deliveries,
        delays: r.delayed_deliveries,
        recoveries: r.recoveries,
        readers: r.reader_commits,
    };
    // What the nodes still hold is what they may yet be asked about: fewer
    // than NOTICE_AT retired transactions per node since its last notice, at
    // most every step of each — crash windows and kills included.
    let steps = specs.iter().map(TxnSpec::len).max().unwrap_or(0) as u64;
    let bound = r.data_nodes as u64 * NOTICE_AT as u64 * steps;
    let left = reg.totals().get(metric::DATA_BOOKS_LEFT).copied().unwrap_or(0);
    if left > bound {
        return Err(format!("{left} books left at exit, bound {bound}"));
    }
    Ok(Ran { history: format!("{:?}", audit.history), met })
}

/// One unsharded run of `sched`, with link faults if `faulted`.
fn run_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    run(cell(1), sched, seed, links(seed, faulted))
}

/// [`run_seed`] on two control shards and a router, over two conflict
/// components.
fn run_sharded_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    run(cell(2), sched, seed, links(seed, faulted))
}

/// [`run_sharded_seed`] with each shard certifying live.
fn run_streamed_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let cfg = NetConfig { stream_certify: true, ..cell(2) };
    run(cfg, sched, seed, links(seed, faulted))
}

/// [`run_seed`] with half the workload read-only on the snapshot plane.
fn run_mvcc_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    run(NetConfig { mvcc: true, ..cell(1) }, sched, seed, links(seed, faulted))
}

/// [`run_sharded_seed`] with half the workload read-only on the snapshot
/// plane, and a data node crashed for a while: the seed picks the node and
/// the instants, as [`run_durable_seed`]'s does. A snapshot read the window
/// swallows is redelivered after what its reader's end and its writers'
/// commits told the node — the one order in which a floor could reach the
/// node ahead of a read it must not prune under.
fn run_mvcc_sharded_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let (node, after_msgs, down_ms) = ((seed % 2) as usize, 1 + seed % 24, 5 + seed % 20);
    let crash = CrashPlan { node, after_msgs, down_ms };
    let fault = FaultPlan { crash: Some(crash), ..links(seed, faulted) };
    run(NetConfig { mvcc: true, ..cell(2) }, sched, seed, fault)
}

/// One unsharded K2 run of durability `kind`: `wal` logs buffered, `crash`
/// crashes a data node with no log, `kill` kills one from its buffered log,
/// `cluster` kills both. The seed picks the node and the instants; link
/// faults if `faulted`.
fn run_durable_seed(kind: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let (node, after_msgs, down_ms) = ((seed % 2) as usize, 1 + seed % 40, 5 + seed % 30);
    let kill = |node| Some(KillPlan { node, after_msgs, down_ms });
    let (durability, crash, kill) = match kind {
        "wal" => (Durability::Buffered, None, None),
        "crash" => (Durability::None, Some(CrashPlan { node, after_msgs, down_ms }), None),
        "kill" => (Durability::Buffered, None, kill(Some(node))),
        "cluster" => (Durability::Buffered, None, kill(None)),
        _ => return Err(format!("no durability kind {kind:?}")),
    };
    let fault = FaultPlan { crash, kill, ..links(seed, faulted) };
    run(NetConfig { durability, ..cell(1) }, "k2", seed, fault)
}

/// A kill late in a four-times-longer K2 run: the node has served
/// `NOTICE_AT` and more retired transactions, and notices have told it to
/// forget them, when it dies; its replay brings their marks back, and the
/// notice behind control's re-sent orders must retire them again, or the
/// books at exit pass the bound. (On [`TXNS`] transactions the bound is
/// above every step a run makes.)
fn run_late_kill_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let (node, after_msgs, down_ms) = ((seed % 2) as usize, 100 + seed % 40, 5 + seed % 30);
    let kill = KillPlan { node: Some(node), after_msgs, down_ms };
    let fault = FaultPlan { kill: Some(kill), ..links(seed, faulted) };
    run_n(4 * TXNS, NetConfig { durability: Durability::Buffered, ..cell(1) }, sched, seed, fault)
}

/// Runs `seeds` seeds of each of `scheds` through `runner` (named `repro`);
/// panics with the failing seeds' repro lines. Returns, per scheduler, how
/// many distinct histories the seeds gave (one, streamed: none is
/// recorded), and what the runs met in all.
fn explore(
    repro: &str,
    runner: Runner,
    scheds: &[&'static str],
    seeds: u64,
    faulted: bool,
) -> (Vec<(&'static str, usize)>, Met) {
    let (mut failures, mut distinct, mut met) = (Vec::new(), Vec::new(), Met::default());
    for &sched in scheds {
        let mut histories = BTreeSet::new();
        for seed in 1..=seeds {
            match runner(sched, seed, faulted) {
                Ok(ran) => {
                    histories.insert(ran.history);
                    met.dups += ran.met.dups;
                    met.delays += ran.met.delays;
                    met.recoveries += ran.met.recoveries;
                    met.readers += ran.met.readers;
                }
                Err(e) => failures.push(format!("{repro}({sched:?}, {seed}, {faulted}): {e}")),
            }
        }
        distinct.push((sched, histories.len()));
    }
    let n = scheds.len() as u64 * seeds;
    assert!(failures.is_empty(), "{} of {n} failed:\n{}", failures.len(), failures.join("\n"));
    (distinct, met)
}

const BOTH: &[&str] = &["chain", "k2"];

#[test]
fn seeded_interleavings_stop_certify_and_conserve() {
    let (distinct, met) = explore("run_seed", run_seed, BOTH, 200, false);
    assert_eq!((met.dups, met.delays), (0, 0), "no link faults without a plan");
    // The seed must steer the run: one schedule for every seed explores
    // nothing.
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 seeds gave only {n} distinct histories");
    }
}

#[test]
fn seeded_interleavings_under_link_faults_stop_certify_and_conserve() {
    let (distinct, met) = explore("run_seed", run_seed, BOTH, 200, true);
    assert!(met.dups > 0 && met.delays > 0, "{met:?}");
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 faulted seeds gave only {n} distinct histories");
    }
}

#[test]
fn sharded_interleavings_merge_certify_and_conserve() {
    let (distinct, met) = explore("run_sharded_seed", run_sharded_seed, BOTH, 100, false);
    assert_eq!((met.dups, met.delays), (0, 0), "no link faults without a plan");
    for (sched, n) in distinct {
        assert!(n >= 95, "{sched}: 100 sharded seeds gave only {n} distinct histories");
    }
}

#[test]
fn sharded_interleavings_under_link_faults_merge_certify_and_conserve() {
    let (distinct, met) = explore("run_sharded_seed", run_sharded_seed, BOTH, 100, true);
    assert!(met.dups > 0 && met.delays > 0, "{met:?}");
    for (sched, n) in distinct {
        assert!(n >= 95, "{sched}: 100 faulted sharded seeds gave only {n} distinct histories");
    }
}

#[test]
fn streamed_sharded_interleavings_certify_live_and_conserve() {
    let (_, met) = explore("run_streamed_seed", run_streamed_seed, BOTH, 100, false);
    assert_eq!((met.dups, met.delays), (0, 0), "no link faults without a plan");
}

#[test]
fn streamed_sharded_interleavings_under_link_faults_certify_live_and_conserve() {
    let (_, met) = explore("run_streamed_seed", run_streamed_seed, BOTH, 100, true);
    assert!(met.dups > 0 && met.delays > 0, "{met:?}");
}

/// Readers commit on the snapshot plane beside CHAIN's writers, on one shard
/// and on two: every snapshot read must see its committed prefix, and link
/// faults fire exactly when `faulted`.
fn explore_mvcc(faulted: bool) {
    let one = explore("run_mvcc_seed", run_mvcc_seed, &["chain"], 100, faulted).1;
    let two = explore("run_mvcc_sharded_seed", run_mvcc_sharded_seed, &["chain"], 100, faulted).1;
    for met in [one, two] {
        assert!(met.readers > 0, "no reader committed: {met:?}");
        assert_eq!((met.dups > 0, met.delays > 0), (faulted, faulted), "{met:?}");
    }
}

#[test]
fn mvcc_interleavings_snapshot_certify_and_conserve() {
    explore_mvcc(false);
}

#[test]
fn mvcc_interleavings_under_link_faults_snapshot_certify_and_conserve() {
    explore_mvcc(true);
}

/// A buffered log under link faults, a crash, a kill and a cluster kill:
/// every run commits all and conserves, and the kills recover from the log
/// (a reply that escaped before its record was logged would diverge).
#[test]
fn durable_interleavings_recover_and_conserve() {
    let (_, wal) = explore("run_durable_seed", run_durable_seed, &["wal"], 60, true);
    assert!(wal.dups > 0 && wal.delays > 0, "{wal:?}");
    let kinds = &["crash", "kill", "cluster"];
    let (_, down) = explore("run_durable_seed", run_durable_seed, kinds, 60, false);
    assert!(down.recoveries > 0, "no kill recovered: {down:?}");
}

#[test]
fn late_kill_interleavings_forget_the_replayed_books() {
    let (_, met) = explore("run_late_kill_seed", run_late_kill_seed, &["k2"], 60, false);
    assert!(met.recoveries > 0, "no kill recovered: {met:?}");
}

/// One line per seed — `sched faulted seed digest` — over seeds 1–50 ×
/// {chain, k2} × {fault-free, faulted}, the digest being the FNV-1a hash of
/// the run's history string.
const DIGESTS: &str = include_str!("golden/interleave_digests.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins concurrent decisions by value: a change to a book's data structure
/// that reorders any decision, message or wake shows as a changed digest.
#[test]
fn seeded_interleavings_match_the_committed_digests() {
    let mut actual = String::new();
    for faulted in [false, true] {
        for sched in BOTH {
            for seed in 1..=50 {
                let ran = run_seed(sched, seed, faulted)
                    .unwrap_or_else(|e| panic!("run_seed({sched:?}, {seed}, {faulted}): {e}"));
                actual += &format!(
                    "{sched} {faulted} {seed} {:016x}\n",
                    fnv1a(ran.history.as_bytes())
                );
            }
        }
    }
    if actual != DIGESTS {
        let path = std::env::temp_dir().join("interleave_digests.actual.txt");
        std::fs::write(&path, &actual).expect("write the observed digests");
        panic!(
            "interleaving histories drifted from tests/golden/interleave_digests.txt; \
             observed digests written to {}",
            path.display()
        );
    }
}

#[test]
fn a_faulted_seed_repeats_its_history_exactly() {
    let runners: [(&str, Runner, &str); 4] = [
        ("run_seed", run_seed, "chain"),
        ("run_seed", run_seed, "k2"),
        ("run_sharded_seed", run_sharded_seed, "chain"),
        ("run_sharded_seed", run_sharded_seed, "k2"),
    ];
    for (name, runner, sched) in runners {
        let run = || runner(sched, 17, true).unwrap_or_else(|e| panic!("{name} {sched}: {e}"));
        let (first, again) = (run(), run());
        assert!(first.met.dups + first.met.delays > 0, "{name} {sched}: seed 17 met no fault");
        assert_eq!(first.history, again.history, "{name} {sched}: seed 17 ran twice differently");
        assert_eq!(first.met, again.met);
    }
}

#[test]
fn a_killed_cluster_seed_repeats_its_history_exactly() {
    let run = || run_durable_seed("cluster", 17, false).unwrap_or_else(|e| panic!("{e}"));
    let (first, again) = (run(), run());
    assert!(first.met.recoveries > 0, "seed 17 recovered nothing: {:?}", first.met);
    assert_eq!(first.history, again.history, "seed 17 ran twice differently");
    assert_eq!(first.met, again.met);
}
