//! `wtpg load`: open-loop sustained-load harness. Arrivals come from a
//! Poisson process at target rate λ (not from client think-time), excess
//! arrivals are shed at a bounded in-flight window, the live event stream
//! is replay-certified incrementally (bounded memory — no full history),
//! and the per-window telemetry is judged against a declarative SLO.
//!
//! Runs λ transactions/s for `--secs` and prints the per-window verdict
//! stream plus the final SLO outcome:
//!
//! ```text
//! wtpg load --sched chain --lambda 4000 --secs 3 --slo "p99<50ms,abort<5%,sustain=4"
//! wtpg load --lambda 2000 --transport tcp --jsonl load.jsonl   # live-tail with `wtpg top`
//! ```
//!
//! The flags that describe the cell itself are shared with `wtpg net` and
//! parsed in [`crate::cell`]; this file owns the arrival process, the
//! window tap, the SLO verdict and the report.

use std::sync::{Arc, Mutex};

use serde::Serialize;
use wtpg_net::{run_cell_load, FaultPlan, NetConfig, NetReport, OpenLoop};
use wtpg_obs::slo::{evaluate, SloOutcome, SloSpec, WindowStats, WindowVerdict};
use wtpg_obs::wall::WallClock;
use wtpg_obs::wclock::{WindowFlusher, DEFAULT_WINDOW_MS};
use wtpg_obs::{EventKind, ObsEvent, Observer, Registry};

use crate::cell::{self, value};

/// Observer track the load harness emits window records on.
const WINDOW_TRACK: u32 = 9;

/// Appends each event to a JSONL file as it is recorded, flushing per
/// line, so `wtpg top` can follow the file while the run is still going.
struct JsonlFileSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlFileSink {
    fn create(path: &str) -> Result<JsonlFileSink, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        Ok(JsonlFileSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl Observer for JsonlFileSink {
    fn record(&self, ev: ObsEvent) {
        use std::io::Write;
        let line = wtpg_obs::jsonl::encode_event(&ev);
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Keeps each window's judged stats (for the verdict after the run) while
/// optionally tee-ing the record to a live JSONL file.
struct WindowTap {
    windows: Mutex<Vec<WindowStats>>,
    tee: Option<JsonlFileSink>,
}

impl WindowTap {
    fn new(tee: Option<JsonlFileSink>) -> WindowTap {
        WindowTap {
            windows: Mutex::new(Vec::new()),
            tee,
        }
    }

    fn stats(&self) -> Vec<WindowStats> {
        self.windows.lock().expect("window tap poisoned").clone()
    }
}

impl Observer for WindowTap {
    fn record(&self, ev: ObsEvent) {
        let stats = match &ev.kind {
            EventKind::Window(snap) => Some(WindowStats::from_snapshot(snap)),
            _ => None,
        };
        if let Some(tee) = &self.tee {
            tee.record(ev);
        }
        if let Some(stats) = stats {
            self.windows.lock().expect("window tap poisoned").push(stats);
        }
    }
}

/// What `wtpg load` takes beyond the shared cell flags.
struct LoadArgs {
    lambda: f64,
    secs: f64,
    inflight: usize,
    window_ms: u64,
    slo: String,
    jsonl: Option<String>,
    out: Option<String>,
}

/// One window row of the `--out` document: the judged stats plus the
/// derived rates, so the JSON is readable without recomputing.
#[derive(Serialize)]
struct WindowRow {
    seq: u64,
    dur_us: u64,
    offered: u64,
    shed: u64,
    committed: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    tps: f64,
    abort_rate: f64,
    ok: bool,
    breaches: Vec<String>,
}

fn window_rows(verdicts: &[WindowVerdict]) -> Vec<WindowRow> {
    verdicts
        .iter()
        .map(|v| WindowRow {
            seq: v.stats.seq,
            dur_us: v.stats.dur_us,
            offered: v.stats.offered,
            shed: v.stats.shed,
            committed: v.stats.committed,
            p50_us: v.stats.p50_us,
            p99_us: v.stats.p99_us,
            p999_us: v.stats.p999_us,
            tps: v.stats.tps(),
            abort_rate: v.stats.abort_rate(),
            ok: v.ok,
            breaches: v.breaches.clone(),
        })
        .collect()
}

#[derive(Serialize)]
struct SloDoc {
    spec: String,
    pass: bool,
    judged: u32,
    compliant: u32,
    tail_streak: u32,
    reason: String,
}

fn slo_doc(spec: &SloSpec, outcome: &SloOutcome) -> SloDoc {
    SloDoc {
        spec: spec.label(),
        pass: outcome.pass,
        judged: outcome.judged,
        compliant: outcome.compliant,
        tail_streak: outcome.tail_streak,
        reason: outcome.reason.clone(),
    }
}

/// The `--out` document of one run.
#[derive(Serialize)]
struct LoadCell {
    scheduler: String,
    transport: String,
    durability: String,
    pattern: String,
    /// Target arrival rate, transactions per second.
    lambda_tps: f64,
    txns: usize,
    slo: SloDoc,
    windows: Vec<WindowRow>,
    report: NetReport,
}

fn print_verdicts(verdicts: &[WindowVerdict], o: &SloOutcome, spec: &SloSpec) {
    println!(
        "  {:>4} | {:>8} | {:>8} | {:>5} | {:>8} | {:>8} | {:>8} | verdict",
        "win", "tps", "offered", "shed", "p50 ms", "p99 ms", "p99.9 ms"
    );
    for v in verdicts {
        println!(
            "  {:>4} | {:>8.1} | {:>8} | {:>5} | {:>8.2} | {:>8.2} | {:>8.2} | {}",
            v.stats.seq,
            v.stats.tps(),
            v.stats.offered,
            v.stats.shed,
            v.stats.p50_us as f64 / 1000.0,
            v.stats.p99_us as f64 / 1000.0,
            v.stats.p999_us as f64 / 1000.0,
            if v.ok {
                "ok".to_string()
            } else {
                v.breaches.join("; ")
            }
        );
    }
    println!(
        "  SLO [{}]: {} — {}",
        spec.label(),
        if o.pass { "PASS" } else { "FAIL" },
        o.reason
    );
}

fn print_run(r: &NetReport, lambda: f64) {
    println!(
        "{} | {} transport | {} durability | λ={:.0}/s open loop | {} clients × {} data nodes \
         × {} shards",
        r.scheduler,
        r.transport,
        r.durability,
        lambda,
        r.clients,
        r.data_nodes,
        r.shards
    );
    println!(
        "  offered {} → submitted {} (shed {} = {:.2}%), committed {} @ {:.1} TPS over {:.0} ms",
        r.offered,
        r.submitted,
        r.shed,
        r.shed_rate() * 100.0,
        r.committed,
        r.throughput_tps,
        r.wall_ms
    );
    println!(
        "  certified  : {} ({} grants, {} E(q) checks, streaming) | store {} ({} / {} units)",
        if r.certified { "clean" } else { "SKIPPED" },
        r.certify_grants,
        r.certify_eq_checks,
        if r.store_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        },
        r.store_write_units,
        r.expected_write_units
    );
    if r.reader_commits > 0 {
        println!(
            "  readers    : {} committed via {} snapshot reads ({}) — \
             reader p99 {:.2} ms vs writer p99 {:.2} ms",
            r.reader_commits,
            r.snapshot_reads,
            if r.snapshot_certified { "certified" } else { "UNCERTIFIED" },
            r.reader_latency.p99_ms,
            r.writer_latency.p99_ms
        );
    } else if r.reader_latency.max_ms > 0.0 {
        println!(
            "  readers    : lock-path (S mode) — reader p99 {:.2} ms vs \
             writer p99 {:.2} ms",
            r.reader_latency.p99_ms, r.writer_latency.p99_ms
        );
    }
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let mut a = LoadArgs {
        lambda: 2000.0,
        secs: 3.0,
        inflight: 32,
        window_ms: DEFAULT_WINDOW_MS,
        slo: "p99<50ms,abort<5%,sustain=4".into(),
        jsonl: None,
        out: None,
    };
    let shared = cell::parse(args, |flag, take| {
        match flag {
            "--lambda" | "--tps" => a.lambda = value(flag, take()?)?,
            "--secs" => a.secs = value(flag, take()?)?,
            "--inflight" => a.inflight = value(flag, take()?)?,
            "--window" => a.window_ms = value(flag, take()?)?,
            "--slo" => a.slo = take()?,
            "--jsonl" => a.jsonl = Some(take()?),
            "--out" => a.out = Some(take()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if a.lambda <= 0.0 {
        return Err("--lambda must be positive".into());
    }
    let spec = SloSpec::parse(&a.slo)?;
    let txns = shared.txns.unwrap_or((a.lambda * a.secs).ceil() as usize);
    let cell = shared.build(FaultPlan::none(), txns)?;
    let cfg = NetConfig {
        certify: false,
        stream_certify: true,
        open_loop: Some(OpenLoop {
            lambda_tps: a.lambda,
            seed: shared.seed,
            inflight: a.inflight,
        }),
        ..cell.cfg.clone()
    };

    let tee = a.jsonl.as_deref().map(JsonlFileSink::create).transpose()?;
    let tap = Arc::new(WindowTap::new(tee));
    // The flusher shares the run's own µs epoch only approximately (it
    // starts its clock here, the runtime starts another inside); windows
    // are judged on their own lengths, so a small epoch skew is harmless.
    // The registry is the run's books; bringing it makes the flush cadence
    // ours, and the final partial window carries what actors publish at
    // exit (message tallies, the scheduler's cache statistics).
    let reg = Arc::new(Registry::new());
    let flusher = WindowFlusher::spawn(
        Arc::clone(&reg),
        Arc::clone(&tap) as Arc<dyn Observer>,
        WallClock::start(),
        a.window_ms,
        WINDOW_TRACK,
    );
    let result = run_cell_load(
        &cfg,
        &|| cell.sched.make(),
        &cell.catalog,
        &cell.specs,
        cell.transport,
        &cell.fault,
        None,
        Some(reg),
    );
    flusher.stop();
    let report = result.map_err(|e| e.to_string())?;
    let (verdicts, outcome) = evaluate(&spec, &tap.stats());

    print_run(&report, a.lambda);
    print_verdicts(&verdicts, &outcome, &spec);
    if let Some(path) = &a.jsonl {
        println!("  trace      : {path} (follow live with `wtpg top {path}`)");
    }
    if let Some(path) = &a.out {
        let doc = LoadCell {
            scheduler: report.scheduler.clone(),
            transport: report.transport.clone(),
            durability: report.durability.clone(),
            pattern: cell.pattern.label(),
            lambda_tps: a.lambda,
            txns,
            slo: slo_doc(&spec, &outcome),
            windows: window_rows(&verdicts),
            report,
        };
        let json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("cannot serialise cell: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
