//! Group B: spans around direct calls into each layer's public functions,
//! fed with the input the workload actually produces — its spec stream,
//! the message mix and batch fill its trials reported, chunk size 1000.
//!
//! Every function here records spans into the run's [`Tracer`] and returns
//! nothing else of note; `layers::group_b` turns the spans into metrics.
//! Loop sizes are fixed counts (not time boxes), so the work measured is
//! the same on every run and only its duration varies.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use wtpg_core::certify::{certify_history, CertifyMode};
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::time::Tick;
use wtpg_core::txn::{AccessMode, TxnId, TxnSpec};
use wtpg_core::StreamingCertifier;
use wtpg_dur::checkpoint::files;
use wtpg_dur::{ChunkRecord, Durability, WalWriter};
use wtpg_mvcc::{gc_floor, ActiveSnapshots, CommitLog, VersionChain};
use wtpg_net::codec::{decode_frame, encode_frame};
use wtpg_net::transport::{Fabric, MsgTx};
use wtpg_net::{Coalescer, InProc, Msg, NetReport, Tcp, Transport};
use wtpg_rt::control::{ControlAudit, ControlNode};
use wtpg_rt::queue::BoundedQueue;
use wtpg_rt::sched_by_name;
use wtpg_rt::store::NodeStore;
use wtpg_sim::{run_once, SchedKind};
use wtpg_workload::Experiment;

use crate::drive::{drive, Bare, DriveCounts};
use crate::spans::Tracer;
use crate::workloads::Workload;

/// Progress-chunk size, milli-objects — `NetConfig::chunk_units`' default.
pub const CHUNK_UNITS: u64 = 1000;
/// Transactions of the workload's stream each control drive commits.
const DRIVE_TXNS: usize = 4000;
/// Events between prefix retirements — the runtime's `RETIRE_EVERY`.
const RETIRE_EVERY: usize = 4096;

/// What the control drives found, per scheduler family.
pub struct DriveResult {
    pub counts: DriveCounts,
    /// `chain_opts` (CHAIN) or `eq_evals` (K-WTPG) summed over the drive.
    pub sched_ops: u64,
}

/// The scheduler families the ledger names, with their span layers.
pub struct Family {
    pub sched: &'static str,
    pub control_layer: &'static str,
    pub sched_layer: &'static str,
}

pub const CHAIN: Family = Family {
    sched: "chain",
    control_layer: "rt.control.chain",
    sched_layer: "core.sched.chain",
};
pub const KWTPG: Family = Family {
    sched: "k2",
    control_layer: "rt.control.k2",
    sched_layer: "core.sched.kwtpg",
};

/// The slice of the stream the scheduler sees: with the snapshot plane up,
/// read-only BATs never reach it.
fn scheduled_specs(w: &Workload, specs: &[TxnSpec], div: u64) -> Vec<TxnSpec> {
    specs
        .iter()
        .filter(|s| !(w.mvcc && s.is_read_only()))
        .take(DRIVE_TXNS / div as usize)
        .cloned()
        .collect()
}

/// Drives the workload's stream through a bare scheduler of `family` and
/// through a `ControlNode` wrapping one; returns the drive's counts and
/// the control node's recorded history (input to the certifier spans).
pub fn control_drives(
    w: &Workload,
    specs: &[TxnSpec],
    family: &Family,
    div: u64,
    tracer: &mut Tracer,
) -> Result<(DriveResult, ControlAudit, CertifyMode), String> {
    let stream = scheduled_specs(w, specs, div);
    let make = || sched_by_name(family.sched, 2, 5000).expect("families name known schedulers");

    let mut bare = Bare::new(make());
    let counts = tracer.span("bench", "drive", |t| {
        let r = drive(&mut bare, &stream, CHUNK_UNITS, t, family.sched_layer);
        (r, 1)
    })?;
    let sched_ops = u64::from(bare.ops.chain_opts) + u64::from(bare.ops.eq_evals);

    let mut node = ControlNode::new(make());
    let mode = node.certify_mode();
    let node_counts = tracer.span("bench", "drive", |t| {
        let r = drive(&mut node, &stream, CHUNK_UNITS, t, family.control_layer);
        (r, 1)
    })?;
    if node_counts != counts {
        return Err(format!(
            "control node drive diverged from the bare scheduler: {node_counts:?} vs {counts:?}"
        ));
    }
    Ok((DriveResult { counts, sched_ops }, node.into_audit(), mode))
}

/// Whole-history replay certification and the streaming certifier, over
/// the history a control drive recorded.
pub fn certifiers(
    audit: &ControlAudit,
    mode: CertifyMode,
    commits: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (history, specs) = (&audit.history, &audit.specs);
    tracer
        .span("core.certify", "replay", |_| {
            (certify_history(history, specs, mode).map(|_| ()), commits)
        })
        .map_err(|e| format!("drive history failed replay certification: {e}"))?;

    let mut cert = StreamingCertifier::new(mode);
    for spec in specs.values() {
        cert.declare(spec.clone());
    }
    for batch in history.events().chunks(RETIRE_EVERY) {
        tracer
            .span("core.stream_certify", "feed", |_| {
                let r = batch
                    .iter()
                    .try_for_each(|(tick, ev): &(Tick, _)| cert.feed(*tick, *ev));
                (r, batch.len() as u64)
            })
            .map_err(|e| format!("drive history failed streaming certification: {e}"))?;
        // Retirement is amortised over the events fed since the last one.
        tracer.span("core.stream_certify", "retire_prefix", |_| {
            (black_box(cert.retire_prefix()), batch.len() as u64)
        });
    }
    Ok(())
}

/// Two-thread push/pop through a `BoundedQueue` of inbox capacity.
pub fn queue_handoff(div: u64, tracer: &mut Tracer) {
    let items = 400_000 / div;
    let q: BoundedQueue<u64> = BoundedQueue::new(1024);
    tracer.span("rt.queue", "handoff", |_| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..items {
                    q.push(i);
                }
                q.close();
            });
            let mut sum = 0u64;
            while let Some(v) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum);
        });
        ((), items)
    });
}

/// Data node 0, emulated: every step of the stream homed there is applied
/// chunk by chunk to a `NodeStore` and logged through a `WalWriter`
/// (group-committing every `records_per_flush` records, with an
/// `fdatasync` barrier every 16th flush), then the store is rebuilt from
/// the log alone by `recover`, which must reproduce it.
pub fn store_wal_replay(
    catalog: &Catalog,
    specs: &[TxnSpec],
    records_per_flush: u64,
    div: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let max_chunks = 6_000 / div;
    const SYNC_EVERY: u64 = 16;
    let io = |e: wtpg_dur::DurError| e.to_string();
    let mut store = NodeStore::for_node(catalog, 0);
    let mut wal = WalWriter::open(
        &files::node_wal(dir, 0),
        Durability::Sync,
        0,
        BTreeMap::new(),
    )
    .map_err(io)?;
    let per_flush = records_per_flush.max(1);
    let (mut chunks, mut flushes) = (0u64, 0u64);
    let mut pending: Vec<ChunkRecord> = Vec::new();
    'stream: for spec in specs {
        for (step, st) in spec.steps().iter().enumerate() {
            if catalog.node_of(st.partition) != 0 {
                continue;
            }
            let units = st.actual_cost.units();
            let name = match st.mode {
                AccessMode::Write => "apply_write",
                AccessMode::Read => "apply_read",
            };
            // One span per step: apply every chunk, remember the records.
            let mut records = Vec::new();
            tracer.span("rt.store", name, |_| {
                let mut offset = 0u64;
                while offset < units {
                    let chunk = CHUNK_UNITS.min(units - offset);
                    let sum = match store.apply_chunk(st.partition, st.mode, offset, chunk) {
                        Ok(sum) => sum,
                        Err(e) => return (Err(e.to_string()), 0),
                    };
                    records.push(ChunkRecord {
                        lsn: 0,
                        prev_lsn: 0,
                        txn: spec.id,
                        step: step as u32,
                        chunk: records.len() as u64,
                        partition: st.partition,
                        mode: st.mode,
                        start_unit: offset,
                        units: chunk,
                        checksum: sum,
                        complete: offset + chunk >= units,
                    });
                    offset += chunk;
                }
                (Ok(()), records.len() as u64)
            })?;
            // One append span per group-commit group, then its flush.
            for rec in records {
                pending.push(rec);
                if (pending.len() as u64) < per_flush {
                    continue;
                }
                let n = pending.len() as u64;
                tracer
                    .span("dur.wal", "append", |_| {
                        (
                            pending
                                .drain(..)
                                .try_for_each(|r| wal.append(r).map(|_| ())),
                            n,
                        )
                    })
                    .map_err(io)?;
                chunks += n;
                flushes += 1;
                tracer
                    .span("dur.wal", "flush", |_| (wal.flush(), 1))
                    .map_err(io)?;
                if flushes % SYNC_EVERY == 0 {
                    tracer
                        .span("dur.wal", "sync", |_| (wal.sync(), 1))
                        .map_err(io)?;
                }
            }
            if chunks >= max_chunks {
                break 'stream;
            }
        }
    }
    pending
        .drain(..)
        .try_for_each(|r| wal.append(r).map(|_| ()))
        .map_err(io)?;
    wal.sync().map_err(io)?;
    drop(wal);
    let rec = tracer
        .span("dur.replay", "recover_node0", |_| {
            let r = wtpg_dur::replay::recover(catalog, 0, dir, crate::workloads::CLIENTS);
            let ops = r.as_ref().map_or(0, |r| r.replayed_chunks);
            (r, ops)
        })
        .map_err(io)?;
    if rec.store.cell_sum() != store.cell_sum() || rec.store.write_units() != store.write_units() {
        return Err(format!(
            "emulated node 0: recovered cells {} / units {}, live cells {} / units {}",
            rec.store.cell_sum(),
            rec.store.write_units(),
            store.cell_sum(),
            store.write_units()
        ));
    }
    Ok(())
}

/// A sender that swallows everything: isolates the `Coalescer`.
struct NullTx;

impl MsgTx for NullTx {
    fn send(&self, m: &Msg) -> bool {
        black_box(m);
        true
    }
}

fn msg_access(spec: &TxnSpec) -> Msg {
    let st = spec.steps()[0];
    Msg::Access {
        txn: spec.id,
        step: 0,
        partition: st.partition,
        mode: st.mode,
        units: st.actual_cost.units(),
        chunk_units: CHUNK_UNITS,
        seal: 0,
    }
}

fn msg_delta(spec: &TxnSpec, chunk: u64) -> Msg {
    Msg::StatsDelta {
        txn: spec.id,
        step: 0,
        chunk,
        units: CHUNK_UNITS,
    }
}

fn msg_done(spec: &TxnSpec) -> Msg {
    Msg::AccessDone {
        txn: spec.id,
        step: 0,
        checksum: spec.id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        units: spec.steps()[0].actual_cost.units(),
    }
}

/// Messages per `Batch` frame the trial observed, rounded; 1 when it sent
/// no batches.
pub fn batch_fill(report: &NetReport) -> u64 {
    if report.msgs.batch == 0 {
        1
    } else {
        (report.batched_inner as f64 / report.msgs.batch as f64).round() as u64
    }
}

/// A sample of wire frames in the proportions the trial's report counted
/// them (`report.msgs`), about `target` frames long. Plain frames are
/// built from the spec stream; each `Batch` frame carries the observed
/// batch fill of data-node replies, which is what travels batched.
pub fn message_mix(report: &NetReport, specs: &[TxnSpec], target: usize) -> Vec<Msg> {
    let m = &report.msgs;
    let total = report.messages_sent.max(1) as f64;
    let share = |n: u64| ((n as f64 / total) * target as f64).round() as usize;
    let fill = batch_fill(report).max(2);
    let mut spec_of = specs.iter().cycle();
    let mut next = || spec_of.next().expect("the stream is never empty");
    let mut out = Vec::with_capacity(target + 8);
    for _ in 0..share(m.submit) {
        let spec = next();
        out.push(Msg::Submit {
            client: 0,
            txn: spec.id,
            step: None,
            spec: Some(spec.clone()),
        });
    }
    for _ in 0..share(m.commit) {
        out.push(Msg::Commit {
            client: 0,
            txn: next().id,
        });
    }
    for _ in 0..share(m.access) {
        out.push(msg_access(next()));
    }
    for _ in 0..share(m.access_done) {
        out.push(msg_done(next()));
    }
    for i in 0..share(m.stats_delta) {
        out.push(msg_delta(next(), i as u64));
    }
    for _ in 0..share(m.snapshot_read) {
        let spec = next();
        out.push(Msg::SnapshotRead {
            txn: spec.id,
            step: 0,
            partition: spec.steps()[0].partition,
            units: spec.steps()[0].actual_cost.units(),
            horizon: 3,
            exclude: vec![1],
            floor: 0,
        });
    }
    for _ in 0..share(m.snapshot_reply) {
        let spec = next();
        out.push(Msg::SnapshotReply {
            txn: spec.id,
            step: 0,
            checksum: spec.id.0,
            units: spec.steps()[0].actual_cost.units(),
        });
    }
    for _ in 0..share(m.batch) {
        let spec = next();
        let mut inner: Vec<Msg> = (0..fill - 1).map(|c| msg_delta(spec, c)).collect();
        inner.push(msg_done(spec));
        out.push(Msg::Batch(inner));
    }
    if out.is_empty() {
        out.push(msg_access(next()));
    }
    out
}

/// `encode_frame` / `decode_frame` over the workload's message mix, and
/// the `Coalescer` pushing data-node replies into a null link at the
/// observed batch fill.
pub fn codec_and_coalescer(
    mix: &[Msg],
    fill: u64,
    specs: &[TxnSpec],
    div: u64,
    tracer: &mut Tracer,
) {
    let rounds = (40 / div).max(1);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for _ in 0..rounds {
        frames = tracer.span("net.codec", "encode_frame", |_| {
            let frames: Vec<Vec<u8>> = mix.iter().map(|m| encode_frame(black_box(m))).collect();
            (frames, mix.len() as u64)
        });
    }
    for _ in 0..rounds {
        tracer.span("net.codec", "decode_frame", |_| {
            for f in &frames {
                black_box(decode_frame(black_box(f)).expect("frames just encoded decode"));
            }
            ((), frames.len() as u64)
        });
    }

    let pushes = 200_000 / div;
    let fill = fill.max(1);
    let mut co = Coalescer::new(Arc::new(NullTx), 128);
    let replies: Vec<Msg> = specs.iter().take(1024).map(|s| msg_delta(s, 0)).collect();
    tracer.span("net.batch", "push_flush", |_| {
        for (i, m) in replies.iter().cycle().take(pushes as usize).enumerate() {
            co.push(m.clone());
            if (i as u64 + 1).is_multiple_of(fill) {
                co.flush();
            }
        }
        co.flush();
        ((), pushes)
    });
}

/// Ping-pong and a one-way stream between one client and the control
/// inbox of a `build(1, 1)` fabric.
pub fn transport(
    t: &dyn Transport,
    layer: &'static str,
    sample: &Msg,
    div: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let pings = 3000 / div;
    let stream = 60_000 / div;
    let Fabric {
        control_inbox,
        client_inboxes,
        to_data,
        to_clients,
        data_to_control,
        client_to_control,
        service,
        ..
    } = t.build(1, 1).map_err(|e| e.to_string())?;
    let up = &client_to_control[0];
    let down = &to_clients[0];
    let client_inbox = &client_inboxes[0];
    let gone = || format!("{layer}: link closed mid-measurement");

    tracer.span(layer, "rtt", |_| {
        for _ in 0..pings {
            if !up.send(sample) || control_inbox.pop().is_none() {
                return (Err(gone()), 0);
            }
            if !down.send(sample) || client_inbox.pop().is_none() {
                return (Err(gone()), 0);
            }
        }
        (Ok(()), pings)
    })?;

    tracer.span(layer, "oneway", |_| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..stream {
                    if !up.send(sample) {
                        break;
                    }
                }
            });
            for _ in 0..stream {
                if control_inbox.pop().is_none() {
                    return (Err(gone()), 0);
                }
            }
            (Ok(()), stream)
        })
    })?;

    // Dropping every sender EOFs the frame readers; only then do they join.
    drop((to_data, to_clients, data_to_control, client_to_control));
    for svc in service {
        svc.join()
            .map_err(|_| format!("{layer}: reader panicked"))?;
    }
    Ok(())
}

/// Both transports, carrying the workload's most common plain message.
pub fn transports(mix: &[Msg], div: u64, tracer: &mut Tracer) -> Result<(), String> {
    let sample = mix
        .iter()
        .find(|m| matches!(m, Msg::StatsDelta { .. } | Msg::Access { .. }))
        .unwrap_or(&mix[0]);
    transport(&Tcp, "net.tcp", sample, div, tracer)?;
    transport(&InProc, "net.inproc", sample, div, tracer)
}

/// Version chains and the GC watermark, at chain length 3 (the peak the
/// mixed workload reaches) and 64, over cells the size of the catalog's
/// first partition.
pub fn mvcc(catalog: &Catalog, div: u64, tracer: &mut Tracer) {
    let rounds = (400 / div).max(1);
    let reads = (2000 / div).max(1);
    const BURST: u64 = 64;
    let rows = catalog.size(PartitionId(0)).units().max(1) as usize;
    let cells = vec![7u64; rows];
    let short = 3u64;

    // Near steady state: the chain holds `short` entries, takes a burst of
    // records, and is pruned back one entry at a time.
    let mut chain = VersionChain::new();
    for seq in 0..short {
        chain.record(seq, TxnId(seq), CHUNK_UNITS);
    }
    for round in 0..rounds {
        let base = short + round * BURST;
        tracer.span("mvcc.chain", "record", |_| {
            for seq in base..base + BURST {
                black_box(chain.record(seq, TxnId(seq), CHUNK_UNITS));
            }
            ((), BURST)
        });
        tracer.span("mvcc.chain", "prune_below", |_| {
            for seq in base..base + BURST {
                black_box(chain.prune_below(seq + 1 - short));
            }
            ((), BURST)
        });
    }

    for (len, name) in [(short, "snapshot_cells_short"), (64, "snapshot_cells_64")] {
        let mut chain = VersionChain::new();
        for seq in 0..len {
            chain.record(seq, TxnId(seq), CHUNK_UNITS);
        }
        // A snapshot taken when a third of the chain was sealed: the rest
        // is subtracted by horizon, one earlier entry by exclusion.
        let horizon = len / 3 + 1;
        tracer.span("mvcc.chain", name, |_| {
            for _ in 0..reads {
                black_box(chain.snapshot_cells(black_box(&cells), horizon, &[0]));
            }
            ((), reads)
        });
    }

    // The control side: seal every write step, commit it, ask for the
    // floor — with a few readers holding snapshots, as in a mixed run.
    let mut log = CommitLog::new();
    let mut active = ActiveSnapshots::new();
    for r in 0..4u64 {
        active.begin(TxnId(u64::MAX - r), Tick(r));
    }
    for round in 0..rounds {
        let ids = round * BURST + 1..=(round + 1) * BURST;
        tracer.span("mvcc.watermark", "seal", |_| {
            for i in ids.clone() {
                black_box(log.seal((i % 4) as u32, TxnId(i), CHUNK_UNITS));
            }
            ((), BURST)
        });
        for i in ids.clone() {
            log.note_commit(TxnId(i), Tick(i));
        }
        tracer.span("mvcc.watermark", "gc_floor", |_| {
            for i in ids.clone() {
                black_box(gc_floor(&mut log, &active, (i % 4) as u32));
            }
            ((), BURST)
        });
    }
}

/// One fixed Experiment-1 CHAIN cell of the simulator (its own seed: this
/// guards the paper-repro path, it is not part of the workload).
pub fn sim_cell(div: u64, tracer: &mut Tracer) {
    let exp = Experiment::exp1();
    let mut params = exp.params().with_seed(1);
    params.sim_length_ms /= div;
    tracer.span("sim.machine", "run", |_| {
        let r = run_once(&params, SchedKind::Chain, |seed| exp.workload(seed), 0.9);
        let events = r.arrivals + r.rejections + r.blocks + r.delays + r.grants;
        (black_box(r.completed), events)
    });
}
