//! Micro-benchmarks of the per-request scheduler operations the paper
//! prices with `ddtime` / `chaintime` / `kwtpgtime`: deadlock prediction,
//! the full-SR-order computation, and `E(q)` evaluation, as a function of
//! the number of live transactions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wtpg_core::estimate::{eq_estimate, eq_estimate_naive, eq_estimate_with, EqScratch};
use wtpg_core::sched::{Admission, ChainScheduler, LockOutcome, Scheduler};
use wtpg_core::time::Tick;
use wtpg_core::txn::{StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;
use wtpg_core::wtpg::Wtpg;

/// A WTPG shaped like a hot-set workload: a chain of `n` transactions plus
/// scattered resolved edges.
fn build_wtpg(n: u64) -> Wtpg {
    let mut g = Wtpg::new();
    for i in 1..=n {
        g.add_txn(TxnId(i), Work::from_objects(3 + i % 7)).unwrap();
    }
    for i in 1..n {
        g.add_or_merge_conflict(
            TxnId(i),
            TxnId(i + 1),
            Work::from_objects(1 + i % 3),
            Work::from_objects(1 + (i + 1) % 3),
        )
        .unwrap();
    }
    // Resolve every third edge, as a running schedule would.
    for i in (1..n).step_by(3) {
        g.resolve(TxnId(i), TxnId(i + 1)).unwrap();
    }
    g
}

fn bench_eq(c: &mut Criterion) {
    let mut group = c.benchmark_group("eq_estimate");
    for &n in &[8u64, 32, 128] {
        let g = build_wtpg(n);
        let implied = vec![TxnId(3)];
        // The clone-based reference the overlay replaced.
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| eq_estimate_naive(black_box(&g), TxnId(2), black_box(&implied)))
        });
        // The overlay with a throwaway scratch (cold buffers every call).
        group.bench_with_input(BenchmarkId::new("overlay_cold", n), &n, |b, _| {
            b.iter(|| eq_estimate(black_box(&g), TxnId(2), black_box(&implied)))
        });
        // The overlay as the schedulers run it: one scratch, reused.
        let mut scratch = EqScratch::new();
        group.bench_with_input(BenchmarkId::new("overlay_warm", n), &n, |b, _| {
            b.iter(|| {
                eq_estimate_with(
                    black_box(&mut scratch),
                    black_box(&g),
                    TxnId(2),
                    black_box(&implied),
                )
            })
        });
    }
    group.finish();
}

fn bench_deadlock_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("deadlock_prediction");
    for &n in &[8u64, 32, 128] {
        let g = build_wtpg(n);
        group.bench_with_input(BenchmarkId::new("would_deadlock", n), &n, |b, _| {
            b.iter(|| g.would_deadlock(black_box(TxnId(n)), black_box(TxnId(1))))
        });
    }
    group.finish();
}

fn bench_critical_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("wtpg_critical_path");
    for &n in &[8u64, 32, 128] {
        let g = build_wtpg(n);
        group.bench_with_input(BenchmarkId::new("txns", n), &n, |b, _| {
            b.iter(|| g.critical_path())
        });
    }
    group.finish();
}

fn bench_chain_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_components");
    for &n in &[8u64, 32, 128] {
        let g = build_wtpg(n);
        group.bench_with_input(BenchmarkId::new("txns", n), &n, |b, _| {
            b.iter(|| wtpg_core::chain::chain_components(black_box(&g)).unwrap())
        });
    }
    group.finish();
}

// ---- CHAIN as the control node calls it (the benches above time the
// oracle, `chain_components`; these time the scheduler) ----

const LIVE: [u64; 3] = [12, 32, 128];

fn writes(id: u64, steps: &[(u64, f64)]) -> TxnSpec {
    let steps = steps
        .iter()
        .map(|&(p, cost)| StepSpec::write(p as u32, cost));
    TxnSpec::new(TxnId(id), steps.collect())
}

/// A CHAIN scheduler holding one path of `n` live transactions: `Ti` writes
/// partitions `i` and `i + 1`, so it conflicts with `Ti-1` and `Ti+1` only.
fn chain_of(n: u64, keeptime: u64) -> ChainScheduler {
    let mut s = ChainScheduler::new(keeptime);
    for i in 1..=n {
        let spec = writes(
            i,
            &[(i, 1.0 + (i % 3) as f64), (i + 1, 1.0 + (i % 5) as f64)],
        );
        let (admission, _) = s.on_arrive(&spec, Tick(0)).unwrap();
        assert_eq!(admission, Admission::Admitted);
    }
    s
}

fn bench_chain_admit_reject(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_admit_reject");
    for &n in &LIVE {
        let mut s = chain_of(n, 5000);
        // Partition 2 is T1's and T2's, and T2 is interior: the degree test.
        let interior = writes(n + 1, &[(2, 1.0)]);
        // Partitions 1 and n+1 belong to the two ends of the one path: the
        // walk runs its whole length before refusing to close the cycle.
        let cycle = writes(n + 1, &[(1, 1.0), (n + 1, 1.0)]);
        for (name, spec) in [("interior", &interior), ("cycle", &cycle)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let (admission, _) = s.on_arrive(black_box(spec), Tick(1)).unwrap();
                    assert_eq!(admission, Admission::Rejected);
                })
            });
        }
    }
    group.finish();
}

/// An admitted arrival changes the scheduler, so each iteration also aborts
/// it again: the figure is `on_arrive` + `on_abort`.
fn bench_chain_admit_accept(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_admit_accept");
    for &n in &LIVE {
        let mut s = chain_of(n, 5000);
        let spec = writes(n + 1, &[(1, 1.0)]); // extends the path at T1
        group.bench_with_input(BenchmarkId::new("arrive_then_abort", n), &n, |b, _| {
            b.iter(|| {
                let (admission, _) = s.on_arrive(black_box(&spec), Tick(1)).unwrap();
                assert_eq!(admission, Admission::Admitted);
                s.on_abort(spec.id, Tick(1)).unwrap()
            })
        });
    }
    group.finish();
}

/// `keeptime = 0` makes every unblocked request recompute `W`; the request
/// timed is one `W` delays, so the scheduler is the same after every call.
fn bench_chain_request_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_request_recompute");
    for &n in &LIVE {
        let mut s = chain_of(n, 0);
        let delayed = (1..=n)
            .find(|&i| s.on_request(TxnId(i), 0, Tick(1)).unwrap().0 == LockOutcome::Delayed)
            .expect("W orders some first step behind its neighbour");
        group.bench_with_input(BenchmarkId::new("delayed", n), &n, |b, _| {
            b.iter(|| {
                let (outcome, ops) = s.on_request(TxnId(delayed), 0, Tick(2)).unwrap();
                assert_eq!((outcome, ops.chain_opts), (LockOutcome::Delayed, 1));
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eq,
    bench_deadlock_prediction,
    bench_critical_path,
    bench_chain_components,
    bench_chain_admit_reject,
    bench_chain_admit_accept,
    bench_chain_request_recompute
);
criterion_main!(benches);
