//! Allocations per commit, counted: a steady-state run allocates a bounded
//! number of times per transaction, however long it runs.
//!
//! A counting global allocator wraps the system one and counts the heap
//! allocations made on the calling thread (reallocations included: a
//! growing buffer is a fresh allocation). One whole [`run_cell`] — plan,
//! lay-out, drive, assemble — runs in process with certification off, so
//! the count is the runtime's own and not the replay certifier's, on four
//! cells:
//!
//! * **P1 CHAIN** — Pattern 1 under CHAIN, the benchmark's closed loop;
//! * **P2 K2** — Pattern 2 with four hot partitions under K-WTPG;
//! * **MVCC mix** — the same four hots with half the stream read-only on
//!   the snapshot plane, CHAIN;
//! * **P2 K2 WAL** — P2 K2 with every step logged under
//!   `Durability::Buffered`: a log append allocates nothing.
//!
//! Each cell runs at 1× and 4× its length: the count per commit must stay
//! under the cell's budget at both lengths and must not grow with length —
//! what a run allocates scales with its transactions, not faster. Debug
//! builds run checks that allocate (about two per commit more), so each
//! cell has a debug budget beside the release one; the release budgets are
//! the claim.
//!
//! The same allocator keeps the calling thread's live bytes and their
//! high-water mark. A certified P1 CHAIN run's peak live heap, less the
//! recorded history's buffer, may grow by less than [`RETAINED_PER_TXN`]
//! bytes per added transaction: a run keeps no second copy of its
//! declarations. What still grows with the run is the history the replay
//! certifies and the exact samples of every data round trip and commit
//! latency the report summarises.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wtpg_core::history::Event;
use wtpg_core::partition::Catalog;
use wtpg_core::time::Tick;
use wtpg_core::txn::TxnSpec;
use wtpg_net::{run_cell, Durability, FaultPlan, InProc, NetConfig};
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

/// The system allocator, counting what the calling thread asks of it and
/// how many bytes it holds.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed on this thread, and the highest
    /// that has read since [`peak_above`] last reset it.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books one allocation (a reallocation counts as one) that changed the
/// thread's live bytes by `delta`.
fn bump(delta: isize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    hold(delta);
}

/// Changes the thread's live bytes by `delta`, raising their high-water
/// mark.
fn hold(delta: isize) {
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the books are const-initialised thread-local
// `Cell`s, which neither allocate nor lock.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One cell: its workload, scheduler and allocation budgets per commit.
struct Cell3 {
    name: &'static str,
    pattern: Pattern,
    read_mix: bool,
    /// Data nodes log every step (`Durability::Buffered`).
    wal: bool,
    sched: &'static str,
    /// Transactions at 1×.
    txns: usize,
    release: f64,
    debug: f64,
}

const CELLS: [Cell3; 4] = [
    Cell3 {
        name: "P1 CHAIN",
        pattern: Pattern::One,
        read_mix: false,
        wal: false,
        sched: "chain",
        txns: 2_000,
        release: 4.75,
        debug: 6.75,
    },
    Cell3 {
        name: "P2 K2",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: false,
        wal: false,
        sched: "k2",
        txns: 2_000,
        release: 4.25,
        debug: 6.25,
    },
    Cell3 {
        name: "MVCC mix",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: true,
        wal: false,
        sched: "chain",
        txns: 2_000,
        release: 7.75,
        debug: 9.75,
    },
    Cell3 {
        name: "P2 K2 WAL",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: false,
        wal: true,
        sched: "k2",
        txns: 2_000,
        release: 4.25,
        debug: 6.25,
    },
];

impl Cell3 {
    fn workload(&self, txns: usize) -> (Catalog, Vec<TxnSpec>) {
        let (catalog, mut specs) = pattern_specs(self.pattern, txns, 5);
        if self.read_mix {
            ReadMix::skewed(0.5, 0.9).apply(&catalog, &mut specs, 5);
        }
        (catalog, specs)
    }

    /// Allocations per commit of one whole run of `txns` transactions.
    fn per_commit(&self, txns: usize) -> f64 {
        let (catalog, specs) = self.workload(txns);
        let wal_dir = self.wal.then(|| {
            let dir = std::env::temp_dir()
                .join(format!("wtpg-alloc-budget-{}-{txns}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let cfg = NetConfig {
            clients: 2,
            certify: false,
            mvcc: self.read_mix,
            durability: if self.wal {
                Durability::Buffered
            } else {
                Durability::None
            },
            wal_dir: wal_dir.clone(),
            ..NetConfig::default()
        };
        let sched = || sched_by_name(self.sched, 2, 5000).expect("known scheduler");
        let before = ALLOCS.with(Cell::get);
        let r = run_cell(&cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::none())
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let allocs = ALLOCS.with(Cell::get) - before;
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert!(r.store_consistent && r.snapshot_certified, "{}: {r:?}", self.name);
        assert_eq!(r.committed, txns as u64, "{}", self.name);
        assert_eq!(r.wal_records > 0, self.wal, "{}: {r:?}", self.name);
        drop(r);
        allocs as f64 / txns as f64
    }

    fn budget(&self) -> f64 {
        if cfg!(debug_assertions) {
            self.debug
        } else {
            self.release
        }
    }

    fn check(&self) {
        let short = self.per_commit(self.txns);
        let long = self.per_commit(4 * self.txns);
        println!("{}: {short:.2} allocations per commit at 1x, {long:.2} at 4x", self.name);
        let budget = self.budget();
        assert!(short <= budget, "{}: {short:.2} per commit at 1x, budget {budget}", self.name);
        assert!(long <= budget, "{}: {long:.2} per commit at 4x, budget {budget}", self.name);
        // Set-up is paid once, so a longer run may only read lower; what a
        // steady state allocates per commit reads the same at both lengths.
        assert!(
            long <= short * 1.02,
            "{}: {short:.2} per commit at 1x grew to {long:.2} at 4x",
            self.name
        );
    }
}

#[test]
fn p1_chain_allocates_within_its_budget_at_every_length() {
    CELLS[0].check();
}

#[test]
fn p2_k2_allocates_within_its_budget_at_every_length() {
    CELLS[1].check();
}

#[test]
fn the_mvcc_mix_allocates_within_its_budget_at_every_length() {
    CELLS[2].check();
}

#[test]
fn p2_k2_with_a_wal_allocates_within_its_budget_at_every_length() {
    CELLS[3].check();
}

/// Runs `f`, returning its value and the most bytes the calling thread held
/// at once meanwhile beyond what it held at the call.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// Bound on a certified run's peak live heap beyond its history, per
/// transaction added (bytes).
const RETAINED_PER_TXN: f64 = 160.0;

/// A certified P1 CHAIN run at 1× and 4×: its peak live heap, less the
/// history's buffer (`history_events` rounded up to a power of two, as a
/// doubling `Vec` holds it), grows by less than [`RETAINED_PER_TXN`] per
/// added transaction. Each control declaration lives until its commit and
/// no longer; what does grow is the exact RTT and latency samples.
#[test]
fn a_certified_runs_heap_beyond_its_history_is_flat_per_transaction() {
    let beyond_history = |txns: usize| {
        let (catalog, specs) = pattern_specs(Pattern::One, txns, 5);
        let cfg = NetConfig {
            clients: 2,
            certify: true,
            ..NetConfig::default()
        };
        let sched = || sched_by_name("chain", 2, 5000).expect("known scheduler");
        let (r, peak) = peak_above(|| {
            run_cell(&cfg, &sched, &catalog, &specs, &InProc, &FaultPlan::none())
                .unwrap_or_else(|e| panic!("P1 CHAIN: {e}"))
        });
        assert!(r.certified && r.store_consistent, "{r:?}");
        assert_eq!(r.committed, txns as u64);
        let history = r.history_events.next_power_of_two() * size_of::<(Tick, Event)>();
        println!("{txns} certified: peak {peak} B, history buffer {history} B");
        peak as f64 - history as f64
    };
    let (short, long) = (beyond_history(2_000), beyond_history(8_000));
    let per_txn = (long - short) / 6_000.0;
    println!("peak beyond the history: {per_txn:.0} B per added transaction");
    assert!(
        per_txn < RETAINED_PER_TXN,
        "{per_txn:.0} B per added transaction, bound {RETAINED_PER_TXN}"
    );
}
