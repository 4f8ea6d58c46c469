//! `wtpg net`: run a batch of pattern transactions on the shared-nothing
//! message-passing runtime (control actor + one actor per data node) and
//! print (or record) the report.
//!
//! Single cell:
//!
//! ```text
//! wtpg net --sched chain --clients 4 --transport tcp --fault crash
//! wtpg net --fault kill --durability sync --wal-dir /tmp/wtpg-wal
//! ```
//!
//! `--fault kill` tears a data node down mid-run and restarts it from its
//! write-ahead log, so it needs a durability level that keeps one
//! (`buffered` or `sync`); when the flags are omitted a kill cell defaults
//! to `sync` with a fresh per-run temp directory.
//!
//! Grid mode sweeps scheduler × transport × fault plan (including kill)
//! and writes one JSON report per cell to `BENCH_net.json`, plus a
//! per-(scheduler, fault) in-proc vs TCP coordination-overhead comparison:
//!
//! ```text
//! wtpg net --grid --out BENCH_net.json
//! ```

use std::path::{Path, PathBuf};

use serde::Serialize;
use wtpg_net::{run_cell, Durability, FaultPlan, InProc, NetConfig, NetReport, Tcp, Transport};
use wtpg_rt::workload::pattern_specs;
use wtpg_rt::sched_by_name;
use wtpg_workload::{Pattern, ReadMix};

/// One grid cell of `BENCH_net.json`.
#[derive(Serialize)]
struct GridCell {
    pattern: String,
    report: NetReport,
}

/// In-proc vs TCP overhead for one (scheduler, fault) pair — the wire cost
/// of moving the same certified workload across real sockets.
#[derive(Serialize)]
struct OverheadRow {
    scheduler: String,
    fault: String,
    inproc_tps: f64,
    tcp_tps: f64,
    /// Extra wall-clock the TCP run took relative to in-proc, percent.
    tcp_overhead_pct: f64,
    tcp_bytes_per_commit: f64,
    tcp_msgs_per_commit: f64,
}

/// The whole `BENCH_net.json` document, stamped with enough run metadata
/// to reproduce it: build provenance plus the swept grid.
#[derive(Serialize)]
struct GridDoc {
    bench: &'static str,
    git_describe: String,
    git_sha: String,
    txns: usize,
    seed: u64,
    clients: usize,
    schedulers: Vec<String>,
    transports: Vec<String>,
    faults: Vec<String>,
    cells_certified: usize,
    cells_total: usize,
    overhead: Vec<OverheadRow>,
    cells: Vec<GridCell>,
}

struct NetArgs {
    sched: String,
    clients: usize,
    txns: usize,
    pattern: u32,
    hots: u32,
    groups: u32,
    seed: u64,
    transport: String,
    fault: String,
    chunk: u64,
    k: usize,
    keeptime: u64,
    shards: usize,
    batch_max: usize,
    batch_window: u64,
    pipeline: usize,
    admit_window: usize,
    certify: bool,
    durability: Option<String>,
    wal_dir: Option<String>,
    read_mix: f64,
    read_theta: f64,
    mvcc: bool,
    grid: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<NetArgs, String> {
    let mut a = NetArgs {
        sched: "chain".into(),
        clients: 4,
        txns: 500,
        pattern: 1,
        hots: 8,
        groups: 4,
        seed: 42,
        transport: "inproc".into(),
        fault: "none".into(),
        chunk: 1000,
        k: 2,
        keeptime: 5000,
        shards: 1,
        batch_max: 128,
        batch_window: 100,
        pipeline: 16,
        admit_window: 32,
        certify: true,
        durability: None,
        wal_dir: None,
        read_mix: 0.0,
        read_theta: 0.0,
        mvcc: false,
        grid: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| "missing option value".to_string())
        };
        match args[i].as_str() {
            "--sched" | "--scheduler" => a.sched = take(&mut i)?,
            "--clients" => a.clients = take(&mut i)?.parse().map_err(|_| "bad --clients")?,
            "--txns" => a.txns = take(&mut i)?.parse().map_err(|_| "bad --txns")?,
            "--pattern" => a.pattern = take(&mut i)?.parse().map_err(|_| "bad --pattern")?,
            "--hots" => a.hots = take(&mut i)?.parse().map_err(|_| "bad --hots")?,
            "--groups" => a.groups = take(&mut i)?.parse().map_err(|_| "bad --groups")?,
            "--seed" => a.seed = take(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--shards" => a.shards = take(&mut i)?.parse().map_err(|_| "bad --shards")?,
            "--batch-max" => {
                a.batch_max = take(&mut i)?.parse().map_err(|_| "bad --batch-max")?
            }
            "--batch-window" => {
                a.batch_window = take(&mut i)?.parse().map_err(|_| "bad --batch-window")?
            }
            "--pipeline" => a.pipeline = take(&mut i)?.parse().map_err(|_| "bad --pipeline")?,
            "--admit-window" => {
                a.admit_window = take(&mut i)?.parse().map_err(|_| "bad --admit-window")?
            }
            "--transport" => a.transport = take(&mut i)?,
            "--fault" => a.fault = take(&mut i)?,
            "--chunk" => a.chunk = take(&mut i)?.parse().map_err(|_| "bad --chunk")?,
            "--k" => a.k = take(&mut i)?.parse().map_err(|_| "bad --k")?,
            "--keeptime" => a.keeptime = take(&mut i)?.parse().map_err(|_| "bad --keeptime")?,
            "--no-certify" => a.certify = false,
            "--durability" => a.durability = Some(take(&mut i)?),
            "--wal-dir" => a.wal_dir = Some(take(&mut i)?),
            "--read-mix" => a.read_mix = take(&mut i)?.parse().map_err(|_| "bad --read-mix")?,
            "--read-theta" => {
                a.read_theta = take(&mut i)?.parse().map_err(|_| "bad --read-theta")?
            }
            "--mvcc" => a.mvcc = true,
            "--grid" => a.grid = true,
            "--out" => a.out = Some(take(&mut i)?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    if !(0.0..=1.0).contains(&a.read_mix) {
        return Err("--read-mix must be within 0..=1".into());
    }
    if a.read_theta < 0.0 {
        return Err("--read-theta must be non-negative".into());
    }
    Ok(a)
}

fn pattern_of(pattern: u32, hots: u32, groups: u32) -> Result<Pattern, String> {
    match pattern {
        1 => Ok(Pattern::One),
        2 => Ok(Pattern::Two { num_hots: hots }),
        3 => Ok(Pattern::Three { num_hots: hots }),
        // The sharding ablation: `--groups` disjoint conflict components,
        // each with `--hots` private hot partitions.
        4 => Ok(Pattern::Clustered {
            groups,
            hots_per_group: hots,
        }),
        other => Err(format!("--pattern must be 1, 2, 3 or 4, got {other}")),
    }
}

fn transport_of(name: &str) -> Result<&'static dyn Transport, String> {
    match name {
        "inproc" => Ok(&InProc),
        "tcp" => Ok(&Tcp),
        other => Err(format!("--transport must be inproc or tcp, got {other:?}")),
    }
}

/// Fault plans always target data node 0's control link; the plan seed is
/// derived from the run seed so `--seed` reproduces the fault schedule too.
/// `kill` tears node 0 down mid-run (in-memory state destroyed) and
/// restarts it from its write-ahead log, so it requires a durability level
/// that keeps one.
fn fault_of(name: &str, seed: u64) -> Result<FaultPlan, String> {
    match name {
        "none" => Ok(FaultPlan::none()),
        "fault" => Ok(FaultPlan::flaky_links(seed ^ 0x5bd1_e995)),
        "crash" => Ok(FaultPlan::flaky_with_crash(seed ^ 0x5bd1_e995, 0)),
        "kill" => Ok(FaultPlan::kill_node(0)),
        other => Err(format!(
            "--fault must be none, fault, crash or kill, got {other:?}"
        )),
    }
}

/// Resolves the durability level and WAL directory for one run. A kill
/// fault defaults to `sync` when `--durability` is absent (it cannot heal
/// without a log); a log-keeping level without `--wal-dir` gets a fresh
/// per-run temp directory. Returns `(level, dir, created)` — when
/// `created` is true the caller owns cleanup of the temp directory.
fn durability_setup(
    durability: Option<&str>,
    wal_dir: Option<&str>,
    fault: &str,
    tag: &str,
) -> Result<(Durability, Option<PathBuf>, bool), String> {
    let dur = match durability {
        Some(s) => Durability::parse(s)
            .ok_or_else(|| format!("--durability must be none, buffered or sync, got {s:?}"))?,
        None if fault == "kill" => Durability::Sync,
        None => Durability::None,
    };
    if fault == "kill" && !dur.requires_log() {
        return Err("--fault kill needs --durability buffered or sync (a log to restart from)".into());
    }
    if let Some(d) = wal_dir {
        return Ok((dur, Some(PathBuf::from(d)), false));
    }
    if !dur.requires_log() {
        return Ok((dur, None, false));
    }
    let dir = std::env::temp_dir().join(format!("wtpg-net-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ok((dur, Some(dir), true))
}

/// One grid cell beyond the base sweep's shared knobs: its own client
/// count, shard request and pattern (the 10× hot cell and the sharded
/// clustered cells need different ones).
struct CellShape {
    clients: usize,
    shards: usize,
    pattern: Pattern,
    /// Fraction of the batch rewritten into read-only BATs.
    read_mix: f64,
    /// MVCC snapshot plane on: read-only BATs bypass the scheduler. Off,
    /// the same readers take S-locks — the baseline the reader-latency
    /// comparison runs against.
    mvcc: bool,
}

fn run_one(
    a: &NetArgs,
    sched: &str,
    transport: &dyn Transport,
    fault: &FaultPlan,
    shape: &CellShape,
    durability: Durability,
    wal_dir: Option<&Path>,
) -> Result<NetReport, String> {
    let (catalog, mut specs) = pattern_specs(shape.pattern, a.txns, a.seed);
    // `fraction == 0` is a guaranteed no-op, so plain cells stay untouched.
    ReadMix::skewed(shape.read_mix, a.read_theta).apply(&catalog, &mut specs, a.seed);
    let cfg = NetConfig {
        clients: shape.clients,
        chunk_units: a.chunk,
        certify: a.certify,
        shards: shape.shards,
        batch_max: a.batch_max,
        batch_window_us: a.batch_window,
        pipeline: a.pipeline,
        admit_window: a.admit_window,
        durability,
        wal_dir: wal_dir.map(Path::to_path_buf),
        mvcc: shape.mvcc,
        ..NetConfig::default()
    };
    if sched_by_name(sched, a.k, a.keeptime).is_none() {
        return Err(format!("unknown scheduler {sched:?}"));
    }
    // Each control shard builds its own scheduler from the same recipe.
    let factory = || sched_by_name(sched, a.k, a.keeptime).expect("scheduler name checked above");
    run_cell(&cfg, &factory, &catalog, &specs, transport, fault).map_err(|e| e.to_string())
}

fn print_report(r: &NetReport, pattern: &str) {
    println!(
        "{} | {} transport | {} faults | {} clients × {} data nodes × {} control shards \
         | {} | {} txns",
        r.scheduler, r.transport, r.fault, r.clients, r.data_nodes, r.shards, pattern, r.submitted
    );
    println!(
        "  committed  : {}  ({:.1} TPS over {:.0} ms wall)",
        r.committed, r.throughput_tps, r.wall_ms
    );
    println!(
        "  latency    : mean {:.2} ms  p50 {:.2}  p95 {:.2}  max {:.2}",
        r.latency.mean_ms, r.latency.p50_ms, r.latency.p95_ms, r.latency.max_ms
    );
    println!("  round trips: bulk-step p95 {:.2} ms", r.data_rtt.p95_ms);
    println!(
        "  messages   : {} sent ({:.1} per commit) — {} submits, {} commit acks, \
         {} accesses, {} stats deltas",
        r.messages_sent,
        r.msgs_per_commit(),
        r.msgs.submit,
        r.msgs.commit,
        r.msgs.access,
        r.msgs.stats_delta
    );
    println!(
        "  batching   : {} batch frames carrying {} coalesced messages",
        r.msgs.batch, r.batched_inner
    );
    if r.bytes_sent > 0 {
        println!(
            "  wire       : {} bytes sent / {} received ({:.0} bytes per commit, \
             {} frames)",
            r.bytes_sent,
            r.bytes_received,
            r.bytes_per_commit(),
            r.frames_sent
        );
    } else {
        println!("  wire       : in-process (no frames)");
    }
    println!(
        "  faults     : {} delayed, {} duplicated, {} crash drops, {} access retries",
        r.delayed_deliveries, r.dup_deliveries, r.crash_drops, r.access_retries
    );
    println!(
        "  aborts     : {} rejected admissions, {} delayed retries, worst streak {}",
        r.rejected_admissions, r.delayed_retries, r.max_retry_streak
    );
    if r.certified {
        println!(
            "  certified  : clean ({} grants checked, {} E(q) spot checks)",
            r.certify_grants, r.certify_eq_checks
        );
    } else {
        println!("  certified  : skipped (--no-certify)");
    }
    println!(
        "  store      : {} / {} write units visible — {}",
        r.store_write_units,
        r.expected_write_units,
        if r.store_consistent { "consistent" } else { "INCONSISTENT" }
    );
    if r.reader_commits > 0 {
        println!(
            "  readers    : {} committed via {} snapshot reads — \
             reader p99 {:.2} ms vs writer p99 {:.2} ms",
            r.reader_commits,
            r.snapshot_reads,
            r.reader_latency.p99_ms,
            r.writer_latency.p99_ms
        );
        println!(
            "  chains     : {} versions appended, {} pruned, peak {} live — snapshots {}",
            r.chain_appended,
            r.chain_pruned,
            r.chain_live_peak,
            if r.snapshot_certified { "certified" } else { "UNCERTIFIED" }
        );
    } else if r.reader_latency.max_ms > 0.0 {
        println!(
            "  readers    : lock-path (S mode) — reader p99 {:.2} ms vs \
             writer p99 {:.2} ms",
            r.reader_latency.p99_ms, r.writer_latency.p99_ms
        );
    }
    if r.durability != "none" {
        println!(
            "  durability : {} — {} wal records ({} flushes, {} fsyncs), \
             {} recoveries replaying {} chunks, {} orders parked unavailable",
            r.durability,
            r.wal_records,
            r.wal_flushes,
            r.wal_fsyncs,
            r.recoveries,
            r.wal_replayed_chunks,
            r.node_unavailable
        );
    }
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    let pattern = pattern_of(a.pattern, a.hots, a.groups)?;
    if !a.grid {
        let transport = transport_of(&a.transport)?;
        let fault = fault_of(&a.fault, a.seed)?;
        let (dur, wal_dir, created) =
            durability_setup(a.durability.as_deref(), a.wal_dir.as_deref(), &a.fault, "cell")?;
        if a.mvcc && a.fault == "kill" {
            return Err(
                "--mvcc is incompatible with --fault kill: version chains are in-memory \
                 and do not survive a restart-from-log"
                    .into(),
            );
        }
        let shape = CellShape {
            clients: a.clients,
            shards: a.shards,
            pattern,
            read_mix: a.read_mix,
            mvcc: a.mvcc,
        };
        let report = run_one(&a, &a.sched, transport, &fault, &shape, dur, wal_dir.as_deref());
        if created {
            if let Some(d) = &wal_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let report = report?;
        print_report(&report, &pattern.label());
        if let Some(path) = &a.out {
            let json = serde_json::to_string_pretty(&report)
                .map_err(|e| format!("cannot serialise report: {e}"))?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        return Ok(());
    }

    // Grid provenance: the describe string is baked into the binary at
    // build time, so a stale or dirty build would stamp misleading numbers
    // into BENCH_net.json. Warn locally; refuse under CI.
    let describe = wtpg_obs::meta::git_describe();
    if describe.ends_with("-dirty") {
        if std::env::var_os("CI").is_some() {
            return Err(format!(
                "refusing to write a grid benchmark from a dirty build ({describe}) under CI; \
                 commit (or stash) and rebuild first"
            ));
        }
        eprintln!(
            "warning: benchmarking a dirty build ({describe}); \
             BENCH_net.json will carry the -dirty stamp"
        );
    }

    // Grid mode: scheduler × transport × fault, one report per cell. Kill
    // cells run under sync durability with a WAL in a fresh temp directory
    // (removed after the cell); the other fault plans keep durability off
    // so the base sweep's numbers stay comparable with earlier grids.
    let scheds = ["chain", "k2", "c2pl"];
    let transports: [(&str, &dyn Transport); 2] = [("inproc", &InProc), ("tcp", &Tcp)];
    let faults = ["none", "fault", "crash", "kill"];
    // The base sweep includes kill cells, which the snapshot plane refuses;
    // the grid carries its own mvcc-vs-baseline reader pair below instead.
    if a.mvcc {
        return Err("--grid sweeps its own mvcc cells; use --mvcc on single cells only".into());
    }
    let base_shape = CellShape {
        clients: a.clients,
        shards: a.shards,
        pattern,
        read_mix: a.read_mix,
        mvcc: false,
    };
    let print_row = |tname: &str, report: &NetReport| {
        println!(
            "{:>6} | {:>6} | {:>11} faults | {:>2} shards | {:>8.1} TPS | p95 {:>8.2} ms \
             | {:>5.1} msg/commit | {}",
            report.scheduler,
            tname,
            report.fault,
            report.shards,
            report.throughput_tps,
            report.latency.p95_ms,
            report.msgs_per_commit(),
            if report.certified { "certified" } else { "UNCERTIFIED" }
        );
    };
    let mut cells: Vec<GridCell> = Vec::new();
    for sched in scheds {
        for (tname, transport) in transports {
            for fname in faults {
                let fault = fault_of(fname, a.seed)?;
                let tag = format!("{sched}-{tname}-{fname}");
                let (dur, wal_dir, created) = durability_setup(None, None, fname, &tag)?;
                let report =
                    run_one(&a, sched, transport, &fault, &base_shape, dur, wal_dir.as_deref());
                if created {
                    if let Some(d) = &wal_dir {
                        let _ = std::fs::remove_dir_all(d);
                    }
                }
                let report = report?;
                print_row(tname, &report);
                cells.push(GridCell {
                    pattern: pattern.label(),
                    report,
                });
            }
        }
    }
    let base_cells = cells.len();

    // Beyond the base sweep: the high-contention in-proc cell (8 clients
    // hammering Pattern 2's hot set — the committed-tps headline) and the
    // sharded clustered cells (disjoint conflict components split across 4
    // control shards, exercised with and without fault plans on both
    // transports).
    let hot = CellShape {
        clients: 8,
        shards: 1,
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: a.read_mix,
        mvcc: false,
    };
    let clustered = |shards| CellShape {
        clients: 8,
        shards,
        pattern: Pattern::Clustered {
            groups: 4,
            hots_per_group: 4,
        },
        read_mix: a.read_mix,
        mvcc: false,
    };
    // The reader pair: the same high-contention hot-set cell with half the
    // batch rewritten into read-only BATs, run once over the S-lock path
    // (baseline) and once on the snapshot plane — the reader/writer
    // latency tails land side by side in BENCH_net.json.
    let readers = |mvcc| CellShape {
        clients: 8,
        shards: 1,
        pattern: Pattern::Two { num_hots: 4 },
        read_mix: 0.5,
        mvcc,
    };
    let extras: [(&str, &dyn Transport, &str, CellShape); 8] = [
        ("inproc", &InProc, "none", hot),
        ("inproc", &InProc, "none", clustered(4)),
        ("inproc", &InProc, "fault", clustered(4)),
        ("tcp", &Tcp, "none", clustered(4)),
        ("tcp", &Tcp, "crash", clustered(2)),
        ("inproc", &InProc, "none", readers(false)),
        ("inproc", &InProc, "none", readers(true)),
        ("tcp", &Tcp, "none", readers(true)),
    ];
    for (tname, transport, fname, shape) in extras {
        let fault = fault_of(fname, a.seed)?;
        let report = run_one(&a, "chain", transport, &fault, &shape, Durability::None, None)?;
        print_row(tname, &report);
        cells.push(GridCell {
            pattern: shape.pattern.label(),
            report,
        });
    }

    // Pair each (scheduler, fault) across transports: the TCP run moves
    // the identical workload, so the delta is pure coordination overhead.
    // Only the base sweep pairs up — its cells are laid out sched-major,
    // then transport, then fault; the extra cells after `base_cells` have
    // no in-proc/TCP twin.
    debug_assert_eq!(base_cells, scheds.len() * transports.len() * faults.len());
    let mut overhead = Vec::new();
    for (si, _) in scheds.iter().enumerate() {
        for (fi, fname) in faults.iter().enumerate() {
            let ip = &cells[si * transports.len() * faults.len() + fi].report;
            let tcp = &cells[si * transports.len() * faults.len() + faults.len() + fi].report;
            overhead.push(OverheadRow {
                scheduler: ip.scheduler.clone(),
                fault: fname.to_string(),
                inproc_tps: ip.throughput_tps,
                tcp_tps: tcp.throughput_tps,
                tcp_overhead_pct: if ip.wall_ms > 0.0 {
                    (tcp.wall_ms / ip.wall_ms - 1.0) * 100.0
                } else {
                    0.0
                },
                tcp_bytes_per_commit: tcp.bytes_per_commit(),
                tcp_msgs_per_commit: tcp.msgs_per_commit(),
            });
        }
    }

    let certified = cells.iter().filter(|c| c.report.certified).count();
    let consistent = cells.iter().filter(|c| c.report.store_consistent).count();
    let snapshotted = cells
        .iter()
        .filter(|c| c.report.snapshot_certified)
        .count();
    let n_cells = cells.len();
    println!(
        "{certified}/{n_cells} cells certified, {consistent}/{n_cells} stores consistent, \
         {snapshotted}/{n_cells} snapshot-certified"
    );
    if certified < n_cells || consistent < n_cells || snapshotted < n_cells {
        return Err("grid run left uncertified or inconsistent cells".into());
    }

    let out = a.out.as_deref().unwrap_or("BENCH_net.json");
    let doc = GridDoc {
        bench: "net",
        git_describe: wtpg_obs::meta::git_describe().to_string(),
        git_sha: wtpg_obs::meta::git_sha().to_string(),
        txns: a.txns,
        seed: a.seed,
        clients: a.clients,
        schedulers: scheds.iter().map(|s| s.to_string()).collect(),
        transports: transports.iter().map(|(t, _)| t.to_string()).collect(),
        faults: faults.iter().map(|f| f.to_string()).collect(),
        cells_certified: certified,
        cells_total: n_cells,
        overhead,
        cells,
    };
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| format!("cannot serialise grid: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({n_cells} cells)");
    Ok(())
}
