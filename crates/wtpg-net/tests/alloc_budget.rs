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

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_net::{run_cell, Durability, FaultPlan, InProc, NetConfig};
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

/// The system allocator, counting what the calling thread asks of it.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, which neither allocates nor locks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
        release: 5.0,
        debug: 7.0,
    },
    Cell3 {
        name: "P2 K2",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: false,
        wal: false,
        sched: "k2",
        txns: 2_000,
        release: 4.5,
        debug: 6.5,
    },
    Cell3 {
        name: "MVCC mix",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: true,
        wal: false,
        sched: "chain",
        txns: 2_000,
        release: 8.0,
        debug: 10.0,
    },
    Cell3 {
        name: "P2 K2 WAL",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: false,
        wal: true,
        sched: "k2",
        txns: 2_000,
        release: 4.5,
        debug: 6.5,
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
