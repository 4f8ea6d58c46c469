//! The four workloads: what each one is, why it was chosen, and how one
//! trial of it is generated, run and checked.
//!
//! The seed reaches the program only as generated inputs: it feeds
//! `pattern_specs`, `ReadMix::apply` and the open-loop Poisson schedule,
//! nothing else.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_net::{
    run_cell_load, Durability, FaultPlan, InProc, NetConfig, NetReport, OpenLoop, Tcp, Transport,
};
use wtpg_obs::{MemorySink, Observer, Registry};
use wtpg_rt::engine::SendScheduler;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

use crate::spans::Tracer;

/// Starvation-guard horizon in logical ticks — the `wtpg net` default.
const KEEPTIME: u64 = 5000;
/// K of the K-WTPG scheduler.
const K: usize = 2;
/// Per-client in-flight bound of the open-loop workload: deeper than a
/// trial is long, so a stall window queues arrivals (and shows as latency)
/// instead of shedding them — no operation of a workload may fail.
const OPEN_INFLIGHT: usize = 1 << 20;
/// The rate ladder's bound, where shedding is the overload signal.
const LADDER_INFLIGHT: usize = 256;

/// How transactions are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// Each client keeps `NetConfig::pipeline` (16) transactions in flight
    /// and submits the next on an ack.
    Closed,
    /// Poisson arrivals at `lambda_tps` across all clients, regardless of
    /// acks, never shed; the history is certified inline by
    /// `StreamingCertifier`.
    Open { lambda_tps: f64 },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses, and what must show here.
    pub why: &'static str,
    pub pattern: Pattern,
    /// `(fraction, theta)` of the read-only rewrite, if any.
    pub read_mix: Option<(f64, f64)>,
    /// `sched_by_name` name.
    pub sched: &'static str,
    pub tcp: bool,
    /// `Durability::Buffered` into a fresh temp dir per trial.
    pub wal: bool,
    pub mvcc: bool,
    pub load: Loop,
    /// Transactions per trial: about half a second of work on the
    /// reference box.
    pub trial_txns: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "p1-chain-inproc",
        why: "Pattern 1, CHAIN, in-proc, closed loop: the control plane and CHAIN's W do almost all the work; scheduler and retry changes must show here",
        pattern: Pattern::One,
        read_mix: None,
        sched: "chain",
        tcp: false,
        wal: false,
        mvcc: false,
        load: Loop::Closed,
        trial_txns: 8_000,
    },
    Workload {
        name: "hot-k2-tcp-wal",
        why: "4 hot partitions, K-WTPG, loopback TCP, buffered WAL, closed loop: the only one with E(q), codec, coalescer, sockets and group commit on the blocking path",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: None,
        sched: "k2",
        tcp: true,
        wal: true,
        mvcc: false,
        load: Loop::Closed,
        trial_txns: 4_000,
    },
    Workload {
        name: "mix-mvcc-inproc",
        why: "4 hots with half the stream read-only BATs on the MVCC snapshot plane, CHAIN, in-proc, closed loop: a gain for writers that costs readers, or the reverse, shows here",
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: Some((0.5, 0.9)),
        sched: "chain",
        tcp: false,
        wal: false,
        mvcc: true,
        load: Loop::Closed,
        trial_txns: 16_000,
    },
    Workload {
        name: "p1-open-4k",
        why: "Pattern 1, CHAIN, in-proc, Poisson open loop at 4000/s (well under capacity), streaming certifier inline: measures latency, not saturation; batching harder shows as a p50 rise",
        pattern: Pattern::One,
        read_mix: None,
        sched: "chain",
        tcp: false,
        wal: false,
        mvcc: false,
        load: Loop::Open { lambda_tps: 4000.0 },
        trial_txns: 2_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Client actors: the only load generators. Two on every machine, so the
/// control actor always serves more than one submitter and every machine
/// offers the same load.
pub const CLIENTS: usize = 2;

impl Workload {
    /// The seeded spec stream: `txns` transactions, ids `1..=txns`.
    pub fn specs(&self, txns: usize, seed: u64) -> (Catalog, Vec<TxnSpec>) {
        let (catalog, mut specs) = pattern_specs(self.pattern, txns, seed);
        if let Some((fraction, theta)) = self.read_mix {
            ReadMix::skewed(fraction, theta).apply(&catalog, &mut specs, seed);
        }
        (catalog, specs)
    }

    pub fn scheduler(&self) -> SendScheduler {
        sched_by_name(self.sched, K, KEEPTIME).expect("workload table names known schedulers")
    }

    pub fn transport(&self) -> &'static dyn Transport {
        if self.tcp {
            &Tcp
        } else {
            &InProc
        }
    }

    /// The cell configuration. `arrival_seed` seeds the open loop's
    /// Poisson schedule. `ladder_tps` overrides the load shape with an open
    /// loop at that rate that sheds at 256 in flight per client (the rate
    /// ladder); `None` keeps the workload's own.
    pub fn config(
        &self,
        arrival_seed: u64,
        wal_dir: Option<&Path>,
        ladder_tps: Option<f64>,
    ) -> NetConfig {
        let open = match (ladder_tps, self.load) {
            (Some(lambda_tps), _) => Some((lambda_tps, LADDER_INFLIGHT)),
            (None, Loop::Open { lambda_tps }) => Some((lambda_tps, OPEN_INFLIGHT)),
            (None, Loop::Closed) => None,
        };
        NetConfig {
            clients: CLIENTS,
            durability: if self.wal {
                Durability::Buffered
            } else {
                Durability::None
            },
            wal_dir: wal_dir.map(Path::to_path_buf),
            mvcc: self.mvcc,
            open_loop: open.map(|(lambda_tps, inflight)| OpenLoop {
                lambda_tps,
                seed: arrival_seed,
                inflight,
            }),
            // The open loop certifies the live event stream; the closed
            // loops replay the recorded history after the run.
            certify: open.is_none(),
            stream_certify: open.is_some(),
            ..NetConfig::default()
        }
    }
}

/// A fresh, empty directory under `bench/out/tmp` for one trial's WAL.
/// Inside the checkout on purpose: the benchmark writes nowhere else.
pub fn fresh_wal_dir(out_dir: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir
        .join("tmp")
        .join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One finished trial: the program's report plus what the benchmark
/// measured around the call.
pub struct Trial {
    pub report: NetReport,
    /// Duration of the whole `run_cell` call, ms (≥ `report.wall_ms`).
    pub call_ms: f64,
    /// Process user+sys CPU consumed across the call, µs.
    pub cpu_us: f64,
    /// Seed of the trial's Poisson arrival schedule (open loop).
    pub arrival_seed: u64,
}

impl Trial {
    /// Shows tps bought by spinning.
    pub fn cpu_us_per_commit(&self) -> f64 {
        self.cpu_us / self.report.committed.max(1) as f64
    }
}

/// Runs one trial of `w` over `specs` and checks its outputs: replay (or
/// streaming) certification, write-unit conservation and snapshot
/// certification. With `telemetry`, the program's own observability is
/// switched on — a windowed-metric `Registry` and a trace sink attached —
/// which is what the traced pass compares against the plain trials.
pub fn run_trial(
    w: &Workload,
    cfg: &NetConfig,
    catalog: &Catalog,
    specs: &[TxnSpec],
    telemetry: bool,
    tracer: &mut Tracer,
) -> Result<Trial, String> {
    let (obs, reg) = if telemetry {
        (
            Some(Arc::new(MemorySink::new()) as Arc<dyn Observer>),
            Some(Arc::new(Registry::new())),
        )
    } else {
        (None, None)
    };
    let cpu0 = crate::process::cpu_us();
    let started = Instant::now();
    let report = tracer
        .span("net.runtime", "run_cell", |_| {
            let r = run_cell_load(
                cfg,
                &|| w.scheduler(),
                catalog,
                specs,
                w.transport(),
                &FaultPlan::none(),
                obs,
                reg,
            );
            let ops = r.as_ref().map_or(0, |r| r.committed);
            (r, ops)
        })
        .map_err(|e| format!("run failed: {e}"))?;
    let call_ms = started.elapsed().as_secs_f64() * 1e3;
    let cpu_us = crate::process::cpu_us() - cpu0;
    check_report(&report)?;
    Ok(Trial {
        report,
        call_ms,
        cpu_us,
        arrival_seed: cfg.open_loop.map_or(0, |o| o.seed),
    })
}

fn check_report(r: &NetReport) -> Result<(), String> {
    let fail = |what: String| Err(format!("check failed: {what}"));
    if !r.certified {
        return fail("history not certified".into());
    }
    if !r.store_consistent {
        return fail(format!(
            "stores inconsistent: committed {} of {} submitted, cells {} vs expected {}",
            r.committed, r.submitted, r.store_cell_sum, r.expected_write_units
        ));
    }
    if !r.snapshot_certified {
        return fail("snapshot reads not certified".into());
    }
    if r.expected_write_units != r.store_write_units {
        return fail(format!(
            "write units not conserved: expected {}, stores tallied {}",
            r.expected_write_units, r.store_write_units
        ));
    }
    Ok(())
}

/// The durability check: rebuild every node's store from `dir` alone and
/// require the recovered cells and write tallies to equal what the live
/// run reported. One `dur.replay` / `span_name` span per node: measured
/// trials, all of one size, record theirs under a name of their own, so
/// per-recovery costs are not averaged with warm-up logs.
pub fn check_recovery(
    catalog: &Catalog,
    report: &NetReport,
    dir: &Path,
    span_name: &'static str,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut cell_sum = 0u64;
    let mut write_units = 0u64;
    for node in 0..catalog.num_nodes() {
        let rec = tracer
            .span("dur.replay", span_name, |_| {
                let r = wtpg_dur::replay::recover(catalog, node, dir, CLIENTS);
                let ops = r.as_ref().map_or(0, |r| r.replayed_chunks);
                (r, ops)
            })
            .map_err(|e| format!("check failed: recover node {node}: {e}"))?;
        cell_sum += rec.store.cell_sum();
        write_units += rec.store.write_units();
    }
    if cell_sum != report.store_cell_sum || write_units != report.expected_write_units {
        return Err(format!(
            "check failed: WAL recovery diverged: recovered cells {cell_sum} / units \
             {write_units}, live run cells {} / expected units {}",
            report.store_cell_sum, report.expected_write_units
        ));
    }
    Ok(())
}
