//! The feature matrix, enumerated: every combination of the knobs a cell
//! has is either a [`RunPlan`] that runs clean or the one [`PlanError`] the
//! rules predict.
//!
//! Three layers, widest first:
//!
//! 1. **classify** — `RunPlan::new` is called on the full cross of every
//!    axis below and must return `Ok` or exactly the predicted variant, so
//!    an unsupported pair cannot be added without a variant naming it;
//! 2. **cover** — a greedy pairwise cover of the legal cells is *run*:
//!    every pair of axis values some legal cell contains is executed at
//!    least once;
//! 3. **named cells** — the cells the retired grid sweeps of the CLI ran,
//!    cell for cell: the 32 of `wtpg net`'s, one open-loop cell per
//!    (scheduler, transport, durability) `wtpg load`'s swept, and the 18
//!    contention cells of the retired worker-thread engine's grid, as InProc
//!    cells with one client per worker it ran.
//!
//! Every cell that runs must commit all it accepted, replay- (or stream-)
//! certify, snapshot-certify, conserve its write units, and — on a clean
//! TCP fabric — stay under 10 messages per commit.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]

use std::collections::BTreeSet;
use std::path::PathBuf;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_net::{
    run_cell, Durability, FaultPlan, InProc, NetConfig, NetError, NetReport, OpenLoop, PlanError,
    RunPlan, Tcp, Transport,
};
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

const SEED: u64 = 42;
const TXNS: usize = 80;

// ---- the axes, each next to the type it ranges over ------------------------

const SCHEDULERS: &[&str] = &["chain", "k2", "c2pl"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wire {
    InProc,
    Tcp,
}
const WIRES: &[Wire] = &[Wire::InProc, Wire::Tcp];

impl Wire {
    fn transport(self) -> &'static dyn Transport {
        match self {
            Wire::InProc => &InProc,
            Wire::Tcp => &Tcp,
        }
    }
}

/// The four plans `wtpg net --fault` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Flaky,
    FlakyCrash,
    Kill,
}
const FAULTS: &[Fault] = &[Fault::None, Fault::Flaky, Fault::FlakyCrash, Fault::Kill];

impl Fault {
    fn plan(self) -> FaultPlan {
        match self {
            Fault::None => FaultPlan::none(),
            Fault::Flaky => FaultPlan::flaky_links(SEED ^ 0x5bd1_e995),
            Fault::FlakyCrash => FaultPlan::flaky_with_crash(SEED ^ 0x5bd1_e995, 0),
            Fault::Kill => FaultPlan::kill_node(0),
        }
    }
}

const DURABILITIES: &[Durability] = &[Durability::None, Durability::Buffered, Durability::Sync];

const MVCC: &[bool] = &[false, true];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Load {
    /// Closed loop, `pipeline` transactions in flight per client.
    Closed,
    /// Poisson arrivals, shed at the in-flight bound, stream-certified.
    Open,
}
const LOADS: &[Load] = &[Load::Closed, Load::Open];

/// A workload pattern with the shard request and client count it is run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Pattern 1, one shard, 4 clients: the grids' base cell.
    One,
    /// Pattern 2 over 4 hot partitions, one shard, 8 clients.
    Hot,
    /// Four disjoint conflict components across 4 control shards.
    Clustered4,
    /// The same components squeezed into 2 shards.
    Clustered2,
}
const SHAPES: &[Shape] = &[Shape::One, Shape::Hot, Shape::Clustered4, Shape::Clustered2];

impl Shape {
    fn pattern(self) -> Pattern {
        match self {
            Shape::One => Pattern::One,
            Shape::Hot => Pattern::Two { num_hots: 4 },
            Shape::Clustered4 | Shape::Clustered2 => Pattern::Clustered {
                groups: 4,
                hots_per_group: 4,
            },
        }
    }

    fn shards(self) -> usize {
        match self {
            Shape::One | Shape::Hot => 1,
            Shape::Clustered4 => 4,
            Shape::Clustered2 => 2,
        }
    }

    fn clients(self) -> usize {
        match self {
            Shape::One => 4,
            _ => 8,
        }
    }
}

/// Whether half the batch is rewritten into read-only BATs.
const READ_MIXES: &[bool] = &[false, true];

/// What `NetConfig::wal_dir` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WalDir {
    Absent,
    /// A path that does not exist yet.
    Fresh,
    /// A directory an earlier run left its log in.
    Used,
}
const WAL_DIRS: &[WalDir] = &[WalDir::Absent, WalDir::Fresh, WalDir::Used];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    sched: &'static str,
    wire: Wire,
    fault: Fault,
    durability: Durability,
    mvcc: bool,
    load: Load,
    shape: Shape,
    read_mix: bool,
}

/// A value's position on its axis.
fn at<T: PartialEq>(axis: &[T], v: &T) -> u8 {
    axis.iter().position(|x| x == v).expect("value is on its axis") as u8
}

impl Cell {
    fn config(&self, wal_dir: Option<PathBuf>) -> NetConfig {
        let open = self.load == Load::Open;
        NetConfig {
            clients: self.shape.clients(),
            shards: self.shape.shards(),
            durability: self.durability,
            wal_dir,
            mvcc: self.mvcc,
            open_loop: open.then_some(OpenLoop {
                lambda_tps: 20_000.0,
                seed: SEED,
                inflight: 32,
            }),
            certify: !open,
            stream_certify: open,
            ..NetConfig::default()
        }
    }

    /// Shards that actually run: the read mix's skewed readers scan across
    /// the clustered groups and weld them into one conflict component.
    fn effective_shards(&self) -> usize {
        if self.read_mix {
            1
        } else {
            self.shape.shards()
        }
    }

    /// The (axis, value) facts of this cell, for pair coverage.
    fn facts(&self) -> [(u8, u8); 8] {
        [
            (0, at(SCHEDULERS, &self.sched)),
            (1, at(WIRES, &self.wire)),
            (2, at(FAULTS, &self.fault)),
            (3, at(DURABILITIES, &self.durability)),
            (4, at(MVCC, &self.mvcc)),
            (5, at(LOADS, &self.load)),
            (6, at(SHAPES, &self.shape)),
            (7, at(READ_MIXES, &self.read_mix)),
        ]
    }

    fn pairs(&self) -> impl Iterator<Item = ((u8, u8), (u8, u8))> {
        let f = self.facts();
        (0..f.len()).flat_map(move |i| (i + 1..f.len()).map(move |j| (f[i], f[j])))
    }
}

fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &sched in SCHEDULERS {
        for &wire in WIRES {
            for &fault in FAULTS {
                for &durability in DURABILITIES {
                    for &mvcc in MVCC {
                        for &load in LOADS {
                            for &shape in SHAPES {
                                for &read_mix in READ_MIXES {
                                    cells.push(Cell {
                                        sched,
                                        wire,
                                        fault,
                                        durability,
                                        mvcc,
                                        load,
                                        shape,
                                        read_mix,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

// ---- the rules -------------------------------------------------------------

/// A `PlanError`'s variant name. Exhaustive on purpose: a new variant does
/// not compile until it has a name here, a rule in `predicted` and a row in
/// the README's table.
fn variant(e: &PlanError) -> &'static str {
    match e {
        PlanError::MvccWithKill => "MvccWithKill",
        PlanError::KillWithoutLog => "KillWithoutLog",
        PlanError::LogWithoutDir => "LogWithoutDir",
        PlanError::WalDirNotFresh { .. } => "WalDirNotFresh",
        PlanError::IdsNotAscending { .. } => "IdsNotAscending",
    }
}

/// The combination each variant refuses, as the README's table words it.
fn refuses(e: &PlanError) -> &'static str {
    match e {
        PlanError::MvccWithKill => "`mvcc` with a kill fault",
        PlanError::KillWithoutLog => "a kill fault with durability `none`",
        PlanError::LogWithoutDir => "durability `buffered` or `sync` without a WAL directory",
        PlanError::WalDirNotFresh { .. } => {
            "a WAL directory that already holds `node*.wal` or `*.ckpt` files"
        }
        PlanError::IdsNotAscending { .. } => {
            "a workload whose transaction ids do not strictly ascend"
        }
    }
}

/// The variant the rules say this combination is refused with, if any.
fn predicted(c: &Cell, wal: WalDir) -> Option<&'static str> {
    let logs = c.durability != Durability::None;
    if c.mvcc && c.fault == Fault::Kill {
        Some("MvccWithKill")
    } else if c.fault == Fault::Kill && !logs {
        Some("KillWithoutLog")
    } else if logs && wal == WalDir::Absent {
        Some("LogWithoutDir")
    } else if logs && wal == WalDir::Used {
        Some("WalDirNotFresh")
    } else {
        None
    }
}

// ---- fixtures --------------------------------------------------------------

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-plan-matrix-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload(shape: Shape, read_mix: bool) -> (Catalog, Vec<TxnSpec>) {
    let (catalog, mut specs) = pattern_specs(shape.pattern(), TXNS, SEED);
    if read_mix {
        ReadMix::skewed(0.5, 0.9).apply(&catalog, &mut specs, SEED);
    }
    (catalog, specs)
}

/// Runs one legal cell and holds it to the run contract.
fn run(c: &Cell, tag: &str) -> NetReport {
    let (catalog, specs) = workload(c.shape, c.read_mix);
    let logs = c.durability != Durability::None;
    let dir = logs.then(|| temp(tag));
    let r = run_cell(
        &c.config(dir.clone()),
        &|| sched_by_name(c.sched, 2, 5000).expect("known scheduler"),
        &catalog,
        &specs,
        c.wire.transport(),
        &c.fault.plan(),
    )
    .unwrap_or_else(|e| panic!("{c:?} is a legal plan but failed: {e}"));
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(r.offered, TXNS as u64, "{c:?}");
    assert_eq!(r.committed, r.offered - r.shed, "{c:?}: accepted must commit");
    assert_eq!(r.committed, r.submitted as u64, "{c:?}");
    assert!(r.certified, "{c:?}: not certified");
    assert!(r.store_consistent, "{c:?}: {r:?}");
    assert!(r.snapshot_certified, "{c:?}: snapshots not certified");
    assert_eq!(r.store_write_units, r.expected_write_units, "{c:?}");
    assert_eq!(r.shards, c.effective_shards(), "{c:?}");
    if c.fault == Fault::Kill {
        assert!(r.recoveries >= 1, "{c:?}: the kill never fired");
    }
    if c.load == Load::Closed {
        assert_eq!(r.shed, 0, "{c:?}: a closed loop never sheds");
    }
    if c.wire == Wire::Tcp && c.fault == Fault::None {
        // The budget the retired CI grid job held clean TCP cells to.
        assert!(r.msgs_per_commit() < 10.0, "{c:?}: {:.1} msgs/commit", r.msgs_per_commit());
    }
    r
}

// ---- the tests -------------------------------------------------------------

#[test]
fn every_combination_is_a_plan_or_its_predicted_refusal() {
    let used = temp("used");
    std::fs::create_dir_all(&used).expect("create the used directory");
    std::fs::write(used.join("node3.wal"), b"an earlier run's log").expect("leave a log behind");
    let fresh = temp("never-created");

    let mut classified = 0usize;
    let mut refused = 0usize;
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    // The plan takes no scheduler, so one stands for the axis here.
    for c in all_cells().into_iter().filter(|c| c.sched == SCHEDULERS[0]) {
        let (catalog, specs) = workload(c.shape, c.read_mix);
        let fault = c.fault.plan();
        for &wal in WAL_DIRS {
            let cfg = c.config(match wal {
                WalDir::Absent => None,
                WalDir::Fresh => Some(fresh.clone()),
                WalDir::Used => Some(used.clone()),
            });
            let got = RunPlan::new(&cfg, &fault, c.wire.transport(), &catalog, &specs);
            classified += 1;
            match (got, predicted(&c, wal)) {
                (Ok(plan), None) => {
                    assert_eq!(plan.shards(), c.effective_shards(), "{c:?}");
                    assert_eq!(plan.clients(), c.shape.clients(), "{c:?}");
                }
                (Err(e), Some(want)) => {
                    assert_eq!(variant(&e), want, "{c:?} / {wal:?}: {e}");
                    seen.insert(variant(&e));
                    refused += 1;
                }
                (Ok(_), Some(want)) => panic!("{c:?} / {wal:?}: accepted, expected {want}"),
                (Err(e), None) => panic!("{c:?} / {wal:?}: refused a legal plan: {e}"),
            }
        }
    }
    assert_eq!(seen.len(), 4, "every variant an axis names must be reachable: {seen:?}");
    assert!(!fresh.exists(), "classifying plans creates nothing");
    println!("plan_matrix: classified {classified} plans ({refused} refused)");

    // A refused plan costs nothing end to end either: through `run_cell`,
    // the directory it would have logged into is still not there.
    let (catalog, specs) = workload(Shape::One, false);
    let cfg = NetConfig {
        mvcc: true,
        durability: Durability::Sync,
        wal_dir: Some(fresh.clone()),
        ..NetConfig::default()
    };
    let err = run_cell(
        &cfg,
        &|| -> wtpg_rt::SendScheduler { panic!("a refused plan builds no scheduler") },
        &catalog,
        &specs,
        &Tcp,
        &FaultPlan::kill_node(0),
    )
    .expect_err("mvcc with a kill fault is refused");
    assert!(matches!(err, NetError::Plan(PlanError::MvccWithKill)), "{err:?}");
    assert!(!fresh.exists(), "a refused run creates no directory");
    let _ = std::fs::remove_dir_all(&used);
}

/// No axis above reorders a workload: every generator numbers its
/// transactions `1..=n`. A workload that does not ascend — two ids swapped,
/// or one repeated — is refused, naming the pair, before anything exists.
#[test]
fn a_workload_whose_ids_do_not_ascend_is_refused() {
    let (catalog, specs) = workload(Shape::One, false);
    let cfg = NetConfig::default();
    let fault = FaultPlan::none();
    let plan = |specs: &[TxnSpec]| RunPlan::new(&cfg, &fault, &InProc, &catalog, specs).err();
    assert_eq!(plan(&specs), None);
    let mut swapped = specs.clone();
    swapped.swap(3, 4);
    let (a, b) = (specs[3].id, specs[4].id);
    assert_eq!(plan(&swapped), Some(PlanError::IdsNotAscending { prev: b, next: a }));
    let mut repeated = specs.clone();
    repeated[5].id = repeated[4].id;
    assert_eq!(plan(&repeated), Some(PlanError::IdsNotAscending { prev: b, next: b }));
}

/// README.md's "What a cell may combine" table is this list, rendered.
#[test]
fn the_readme_table_lists_every_refusal() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let variants = [
        PlanError::MvccWithKill,
        PlanError::KillWithoutLog,
        PlanError::LogWithoutDir,
        PlanError::WalDirNotFresh {
            dir: PathBuf::from("DIR"),
            found: "node0.wal".into(),
        },
        PlanError::IdsNotAscending {
            prev: TxnId(2),
            next: TxnId(1),
        },
    ];
    let rows: Vec<String> = variants
        .iter()
        .map(|e| format!("| {} | `PlanError::{}` |", refuses(e), variant(e)))
        .collect();
    for row in &rows {
        assert!(
            readme.contains(row.as_str()),
            "README.md's table is missing a row; it should read:\n{}",
            rows.join("\n")
        );
    }
}

#[test]
fn a_pairwise_cover_of_the_legal_cells_runs_clean() {
    let legal: Vec<Cell> = all_cells()
        .into_iter()
        .filter(|c| predicted(c, WalDir::Fresh).is_none())
        .collect();
    let mut uncovered: BTreeSet<_> = legal.iter().flat_map(Cell::pairs).collect();
    // Every pair of axis values is in some legal cell, except the two the
    // rules forbid outright.
    let every: BTreeSet<_> = all_cells().iter().flat_map(Cell::pairs).collect();
    let forbidden: Vec<_> = every.difference(&uncovered).copied().collect();
    assert_eq!(
        forbidden,
        vec![
            ((2, at(FAULTS, &Fault::Kill)), (3, at(DURABILITIES, &Durability::None))),
            ((2, at(FAULTS, &Fault::Kill)), (4, at(MVCC, &true))),
        ]
    );
    let mut ran = 0usize;
    while !uncovered.is_empty() {
        // Greedy: the cell that covers the most still-uncovered pairs
        // (first in enumeration order on ties, so the cover is stable).
        let (_, best) = legal
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| {
                let gain = c.pairs().filter(|p| uncovered.contains(p)).count();
                (gain, std::cmp::Reverse(*i))
            })
            .expect("legal cells exist");
        for p in best.pairs() {
            uncovered.remove(&p);
        }
        run(best, &format!("cover-{ran}"));
        ran += 1;
    }
    println!("plan_matrix: ran {ran} cells to cover every legal pair of axis values");
}

#[test]
fn the_retired_net_grid_runs_clean_cell_for_cell() {
    let base = |sched, wire, fault| Cell {
        sched,
        wire,
        fault,
        // The grid ran its kill column under sync durability in a temp dir.
        durability: if fault == Fault::Kill {
            Durability::Sync
        } else {
            Durability::None
        },
        mvcc: false,
        load: Load::Closed,
        shape: Shape::One,
        read_mix: false,
    };
    let mut cells = Vec::new();
    for &sched in SCHEDULERS {
        for &wire in WIRES {
            for &fault in FAULTS {
                cells.push(base(sched, wire, fault));
            }
        }
    }
    let extra = |wire, fault, shape, read_mix, mvcc| Cell {
        shape,
        read_mix,
        mvcc,
        ..base("chain", wire, fault)
    };
    cells.extend([
        extra(Wire::InProc, Fault::None, Shape::Hot, false, false),
        extra(Wire::InProc, Fault::None, Shape::Clustered4, false, false),
        extra(Wire::InProc, Fault::Flaky, Shape::Clustered4, false, false),
        extra(Wire::Tcp, Fault::None, Shape::Clustered4, false, false),
        extra(Wire::Tcp, Fault::FlakyCrash, Shape::Clustered2, false, false),
        // The reader pair and its TCP twin: S-lock baseline, snapshot plane.
        extra(Wire::InProc, Fault::None, Shape::Hot, true, false),
        extra(Wire::InProc, Fault::None, Shape::Hot, true, true),
        extra(Wire::Tcp, Fault::None, Shape::Hot, true, true),
    ]);
    assert_eq!(cells.len(), 32);
    for (i, c) in cells.iter().enumerate() {
        let r = run(c, &format!("net-{i}"));
        if c.mvcc {
            assert!(r.reader_commits > 0, "{c:?}: the mix must produce readers");
        }
    }
    println!("plan_matrix: ran the {} cells of the retired net grid", cells.len());
}

#[test]
fn the_retired_load_grid_runs_clean_cell_for_cell() {
    let sweeps = [
        ("chain", Wire::InProc, Durability::None),
        ("k2", Wire::InProc, Durability::None),
        ("chain", Wire::Tcp, Durability::None),
        ("k2", Wire::Tcp, Durability::None),
        ("chain", Wire::InProc, Durability::Buffered),
    ];
    for (i, (sched, wire, durability)) in sweeps.into_iter().enumerate() {
        let c = Cell {
            sched,
            wire,
            fault: Fault::None,
            durability,
            mvcc: false,
            load: Load::Open,
            shape: Shape::One,
            read_mix: false,
        };
        let r = run(&c, &format!("load-{i}"));
        assert!(r.history_events > 0, "{c:?}: the stream certifier saw no events");
    }
    println!("plan_matrix: ran the {} cells of the retired load grid", sweeps.len());
}

/// The contention the retired engine's grid exercised — every scheduler at
/// 2-, 4- and 8-way concurrency, spread (Pattern 1) and fighting over eight
/// hot partitions — with clients where it had worker threads.
#[test]
fn the_contention_grid_runs_clean_cell_for_cell() {
    let mut ran = 0usize;
    for &sched in SCHEDULERS {
        for clients in [2usize, 4, 8] {
            for pattern in [Pattern::One, Pattern::Two { num_hots: 8 }] {
                let (catalog, specs) = pattern_specs(pattern, TXNS, SEED);
                let r = run_cell(
                    &NetConfig {
                        clients,
                        ..NetConfig::default()
                    },
                    &|| sched_by_name(sched, 2, 5000).expect("known scheduler"),
                    &catalog,
                    &specs,
                    &InProc,
                    &FaultPlan::none(),
                )
                .unwrap_or_else(|e| panic!("{sched} × {clients} clients × {pattern:?}: {e}"));
                assert_eq!(r.clients, clients, "{sched} × {pattern:?}");
                assert_eq!(r.committed, TXNS as u64, "{sched} × {clients}");
                assert!(r.certified && r.store_consistent, "{sched} × {clients}: {r:?}");
                assert_eq!(r.store_write_units, r.expected_write_units);
                match sched {
                    "chain" => assert!(r.certify_grants > 0, "the certifier checked no grant"),
                    "k2" => assert!(
                        r.certify_eq_checks >= r.certify_grants,
                        "K-WTPG certification spot-checks E(q) on every grant: {r:?}"
                    ),
                    _ => assert_eq!(r.rejected_admissions, 0, "C2PL never rejects admissions"),
                }
                ran += 1;
            }
        }
    }
    assert_eq!(ran, 18);
    println!("plan_matrix: ran the {ran} cells of the contention grid");
}
