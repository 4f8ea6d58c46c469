//! Per-layer metrics: group A from the trials' reports, group B from the
//! run's spans, and the ledger that multiplies the two into µs per commit.

use std::collections::BTreeMap;

use wtpg_core::txn::{AccessMode, TxnSpec};
use wtpg_net::NetReport;
use wtpg_workload::poisson_arrivals_us;

use crate::micro::{DriveResult, Family, CHAIN, CHUNK_UNITS, KWTPG};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{Loop, Trial, Workload};

/// Metric name → value; units live in `metrics::PER_LAYER`.
pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Offered arrivals that did not commit, as a share of those offered.
fn fail_rate(r: &NetReport) -> f64 {
    ratio(
        r.offered.saturating_sub(r.committed) as f64,
        r.offered as f64,
    )
}

/// Group A of one trial: counts at layer boundaries, per commit.
fn group_a_of(w: &Workload, t: &Trial, specs: usize) -> Values {
    let r = &t.report;
    let per_commit = |n: u64| ratio(n as f64, r.committed as f64);
    // Open loop: how long the run outlived its last scheduled arrival.
    let drain_ms = match w.load {
        Loop::Closed => 0.0,
        Loop::Open { lambda_tps } => {
            let last_us = poisson_arrivals_us(specs, lambda_tps, t.arrival_seed)
                .last()
                .copied()
                .unwrap_or(0);
            (r.wall_ms - last_us as f64 / 1e3).max(0.0)
        }
    };
    BTreeMap::from([
        ("fail_rate", fail_rate(r)),
        ("cpu_us_per_commit", t.cpu_us_per_commit()),
        (
            "net.control.retries_per_commit",
            per_commit(r.delayed_retries),
        ),
        (
            "net.control.rejects_per_commit",
            per_commit(r.rejected_admissions),
        ),
        (
            "net.control.max_retry_streak",
            f64::from(r.max_retry_streak),
        ),
        ("net.control.ticks_per_commit", per_commit(r.logical_ticks)),
        (
            "net.batch.fill",
            ratio(r.batched_inner as f64, r.msgs.batch as f64),
        ),
        ("net.tcp.bytes_per_commit", per_commit(r.bytes_sent)),
        ("net.tcp.frames_per_commit", per_commit(r.frames_sent)),
        ("net.data.rtt_p50_ms", r.data_rtt.p50_ms),
        ("net.data.rtt_p99_ms", r.data_rtt.p99_ms),
        ("net.client.commit_p50_ms", r.latency.p50_ms),
        ("net.client.commit_p95_ms", r.latency.p95_ms),
        ("net.client.commit_p99_ms", r.latency.p99_ms),
        ("net.client.commit_max_ms", r.latency.max_ms),
        ("net.client.reader_p99_ms", r.reader_latency.p99_ms),
        ("net.client.writer_p99_ms", r.writer_latency.p99_ms),
        ("net.client.shed_rate", r.shed_rate()),
        ("net.client.open.drain_ms", drain_ms),
        ("net.runtime.overhead_ms", (t.call_ms - r.wall_ms).max(0.0)),
        ("dur.wal.records_per_commit", per_commit(r.wal_records)),
        ("dur.wal.bytes_per_commit", per_commit(r.wal_bytes)),
        (
            "dur.wal.records_per_flush",
            ratio(r.wal_records as f64, r.wal_flushes as f64),
        ),
        (
            "mvcc.chain.appended_per_commit",
            per_commit(r.chain_appended),
        ),
        (
            "mvcc.chain.pruned_ratio",
            ratio(r.chain_pruned as f64, r.chain_appended as f64),
        ),
        ("mvcc.chain.live_peak", r.chain_live_peak as f64),
        (
            "mvcc.snapshot_reads_per_reader",
            ratio(r.snapshot_reads as f64, r.reader_commits as f64),
        ),
    ])
}

/// Group A: the median over the run's trials of each per-trial value.
pub fn group_a(w: &Workload, trials: &[Trial], specs: usize) -> Values {
    let per_trial: Vec<Values> = trials.iter().map(|t| group_a_of(w, t, specs)).collect();
    let Some(first) = per_trial.first() else {
        return Values::new();
    };
    first
        .keys()
        .map(|&name| {
            let vals: Vec<f64> = per_trial.iter().map(|v| v[name]).collect();
            (name, median(&vals))
        })
        .collect()
}

/// How often each layer's operation runs per commit in the live trials —
/// the multipliers of the ledger.
pub struct OpsPerCommit {
    /// Share of commits the scheduler saw (readers on the snapshot plane
    /// bypass it).
    pub scheduled: f64,
    pub arrives: f64,
    pub requests: f64,
    pub progresses: f64,
    pub step_completes: f64,
    pub history_events: f64,
    pub messages: f64,
    pub batched_inner: f64,
    pub frames: f64,
    pub write_chunks: f64,
    pub read_chunks: f64,
    pub wal_records: f64,
    pub wal_flushes: f64,
    pub chain_appended: f64,
    pub snapshot_reads: f64,
}

impl OpsPerCommit {
    pub fn of(r: &NetReport, specs: &[TxnSpec]) -> OpsPerCommit {
        let c = r.committed.max(1) as f64;
        let scheduled = r.committed.saturating_sub(r.reader_commits) as f64;
        // Chunks by mode, from the declared stream (every spec commits).
        let (mut wr, mut rd) = (0u64, 0u64);
        for st in specs.iter().flat_map(|s| s.steps()) {
            let chunks = st.actual_cost.units().div_ceil(CHUNK_UNITS);
            match st.mode {
                AccessMode::Write => wr += chunks,
                AccessMode::Read => rd += chunks,
            }
        }
        let n = specs.len().max(1) as f64;
        OpsPerCommit {
            scheduled: scheduled / c,
            arrives: (scheduled + r.rejected_admissions as f64) / c,
            requests: (r.msgs.access + r.delayed_retries) as f64 / c,
            progresses: r.msgs.stats_delta as f64 / c,
            step_completes: r.msgs.access_done as f64 / c,
            history_events: r.history_events as f64 / c,
            messages: r.messages_sent as f64 / c,
            batched_inner: r.batched_inner as f64 / c,
            frames: r.frames_sent as f64 / c,
            write_chunks: wr as f64 / n,
            read_chunks: rd as f64 / n,
            wal_records: r.wal_records as f64 / c,
            wal_flushes: r.wal_flushes as f64 / c,
            chain_appended: r.chain_appended as f64 / c,
            snapshot_reads: r.snapshot_reads as f64 / c,
        }
    }
}

/// µs per commit of one protocol drive layer: each call's sampled ns/op
/// times how often the live run makes that call per commit.
fn protocol_us_per_commit(tracer: &Tracer, layer: &str, ops: &OpsPerCommit) -> f64 {
    let ns = |name: &str| tracer.ns_per_op(layer, name);
    (ns("arrive") * ops.arrives
        + ns("request") * ops.requests
        + ns("progress") * ops.progresses
        + ns("step_complete") * ops.step_completes
        + ns("commit") * ops.scheduled)
        / 1e3
}

fn family_metrics(
    v: &mut Values,
    tracer: &Tracer,
    family: &Family,
    drive: &DriveResult,
    ops: &OpsPerCommit,
    names: [&'static str; 6],
) {
    let [arrive, request, progress, commit, us_per_commit, sched_ops] = names;
    v.insert(arrive, tracer.ns_per_op(family.control_layer, "arrive"));
    v.insert(request, tracer.ns_per_op(family.control_layer, "request"));
    v.insert(progress, tracer.ns_per_op(family.control_layer, "progress"));
    v.insert(commit, tracer.ns_per_op(family.control_layer, "commit"));
    v.insert(
        us_per_commit,
        protocol_us_per_commit(tracer, family.sched_layer, ops),
    );
    v.insert(
        sched_ops,
        ratio(drive.sched_ops as f64, drive.counts.commits as f64),
    );
}

/// Group B and the ledger. `own` is the workload's own scheduler family;
/// only its lines enter the ledger sum.
pub fn group_b(
    tracer: &Tracer,
    w: &Workload,
    own: &Family,
    chain: &DriveResult,
    kwtpg: &DriveResult,
    ops: &OpsPerCommit,
    cpu_us_per_commit: f64,
) -> Values {
    let ns = |layer: &str, name: &str| tracer.ns_per_op(layer, name);
    let mut v = Values::new();
    family_metrics(
        &mut v,
        tracer,
        &CHAIN,
        chain,
        ops,
        [
            "rt.control.chain.arrive_ns",
            "rt.control.chain.request_ns",
            "rt.control.chain.progress_ns",
            "rt.control.chain.commit_ns",
            "core.sched.chain.us_per_commit",
            "core.sched.chain.opts_per_commit",
        ],
    );
    family_metrics(
        &mut v,
        tracer,
        &KWTPG,
        kwtpg,
        ops,
        [
            "rt.control.k2.arrive_ns",
            "rt.control.k2.request_ns",
            "rt.control.k2.progress_ns",
            "rt.control.k2.commit_ns",
            "core.sched.kwtpg.us_per_commit",
            "core.sched.kwtpg.eq_evals_per_commit",
        ],
    );

    let feed_ns = ns("core.stream_certify", "feed");
    let retire_ns = ns("core.stream_certify", "retire_prefix");
    let replay_us = ns("core.certify", "replay") / 1e3;
    v.insert("core.stream_certify.feed_ns", feed_ns);
    v.insert("core.stream_certify.retire_ns", retire_ns);
    v.insert("core.certify.replay_us_per_commit", replay_us);

    v.insert("rt.queue.handoff_ns", ns("rt.queue", "handoff"));
    let (apply_wr, apply_rd) = (ns("rt.store", "apply_write"), ns("rt.store", "apply_read"));
    v.insert("rt.store.apply_write_ns", apply_wr);
    v.insert("rt.store.apply_read_ns", apply_rd);

    let (encode, decode) = (
        ns("net.codec", "encode_frame"),
        ns("net.codec", "decode_frame"),
    );
    v.insert("net.codec.encode_ns", encode);
    v.insert("net.codec.decode_ns", decode);
    // The codec runs once per frame each way, and only on a wire.
    let codec_us = (encode + decode) * ops.frames / 1e3;
    v.insert("net.codec.us_per_commit", codec_us);
    let push_flush = ns("net.batch", "push_flush");
    v.insert("net.batch.push_flush_ns", push_flush);

    let tcp_oneway_ns = ns("net.tcp", "oneway");
    let inproc_oneway_ns = ns("net.inproc", "oneway");
    v.insert("net.tcp.rtt_us", ns("net.tcp", "rtt") / 1e3);
    v.insert("net.tcp.oneway_msgs_per_s", ratio(1e9, tcp_oneway_ns));
    v.insert("net.inproc.rtt_us", ns("net.inproc", "rtt") / 1e3);
    v.insert("net.inproc.oneway_msgs_per_s", ratio(1e9, inproc_oneway_ns));

    let (append, flush) = (ns("dur.wal", "append"), ns("dur.wal", "flush"));
    v.insert("dur.wal.append_ns", append);
    v.insert("dur.wal.flush_us", flush / 1e3);
    v.insert("dur.wal.sync_us", ns("dur.wal", "sync") / 1e3);
    // One node's log of a measured trial where the workload keeps one (all
    // of one size; warm-up logs have their own span name), the emulated
    // node 0's fixed-size log elsewhere.
    let recover = if w.wal { "recover" } else { "recover_node0" };
    let (recover_ns, recovered_chunks) = tracer.total("dur.replay", recover);
    let recover_calls = tracer.calls("dur.replay", recover);
    v.insert(
        "dur.replay.recover_ms",
        ratio(recover_ns as f64 / 1e6, recover_calls as f64),
    );
    v.insert(
        "dur.replay.chunks_per_s",
        ratio(recovered_chunks as f64 * 1e9, recover_ns as f64),
    );

    let record = ns("mvcc.chain", "record");
    let snapshot_short = ns("mvcc.chain", "snapshot_cells_short");
    let seal = ns("mvcc.watermark", "seal");
    let floor = ns("mvcc.watermark", "gc_floor");
    let prune = ns("mvcc.chain", "prune_below");
    v.insert("mvcc.chain.record_ns", record);
    v.insert("mvcc.chain.snapshot_cells_len3_us", snapshot_short / 1e3);
    v.insert(
        "mvcc.chain.snapshot_cells_len64_us",
        ns("mvcc.chain", "snapshot_cells_64") / 1e3,
    );
    v.insert("mvcc.chain.prune_ns", prune);
    v.insert("mvcc.watermark.seal_ns", seal);
    v.insert("mvcc.watermark.gc_floor_ns", floor);

    let (sim_ns, sim_events) = tracer.total("sim.machine", "run");
    v.insert(
        "sim.machine.events_per_s",
        ratio(sim_events as f64 * 1e9, sim_ns as f64),
    );

    // The ledger: Σ over layers of (ns per op) × (ops per commit). The
    // control line is the control-node drive, which contains the
    // scheduler; the transport line is the one-way streaming cost per
    // message, which on TCP contains the codec.
    let certify_us = match w.load {
        Loop::Open { .. } => (feed_ns + retire_ns) * ops.history_events / 1e3,
        Loop::Closed => replay_us * ops.scheduled,
    };
    let transport_us = if w.tcp {
        tcp_oneway_ns * ops.frames / 1e3
    } else {
        inproc_oneway_ns * ops.messages / 1e3
    };
    let mvcc_us = if w.mvcc {
        ((record + seal + prune) * ops.chain_appended
            + (snapshot_short + floor) * ops.snapshot_reads)
            / 1e3
    } else {
        0.0
    };
    let sum = protocol_us_per_commit(tracer, own.control_layer, ops)
        + certify_us
        + (apply_wr * ops.write_chunks + apply_rd * ops.read_chunks) / 1e3
        + push_flush * ops.batched_inner / 1e3
        + transport_us
        + (append * ops.wal_records + flush * ops.wal_flushes) / 1e3
        + mvcc_us;
    v.insert("ledger.sum_us_per_commit", sum);
    v.insert("ledger.coverage", ratio(sum, cpu_us_per_commit));
    v
}
