//! `wtpg engine`: run a batch of pattern transactions on the real
//! multi-threaded execution engine and print (or record) the report.
//!
//! ```text
//! wtpg engine --sched chain --threads 8 --txns 1000
//! ```
//!
//! `--trace FILE` records a structured trace of the run:
//! JSONL when `FILE` ends in `.jsonl` (inspect with `wtpg obs summary`),
//! Chrome trace_event JSON otherwise (open in chrome://tracing or Perfetto).

use std::sync::Arc;

use wtpg_obs::MemorySink;
use wtpg_rt::engine::run_engine_obs;
use wtpg_rt::workload::pattern_specs;
use wtpg_rt::{sched_by_name, EngineConfig, EngineReport};
use wtpg_workload::Pattern;

struct EngineArgs {
    sched: String,
    threads: usize,
    txns: usize,
    pattern: u32,
    hots: u32,
    seed: u64,
    queue: usize,
    k: usize,
    keeptime: u64,
    certify: bool,
    out: Option<String>,
    trace: Option<String>,
}

fn parse(args: &[String]) -> Result<EngineArgs, String> {
    let mut a = EngineArgs {
        sched: "chain".into(),
        threads: 8,
        txns: 1000,
        pattern: 1,
        hots: 8,
        seed: 42,
        queue: 64,
        k: 2,
        keeptime: 5000,
        certify: true,
        out: None,
        trace: None,
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
            "--threads" => a.threads = take(&mut i)?.parse().map_err(|_| "bad --threads")?,
            "--txns" => a.txns = take(&mut i)?.parse().map_err(|_| "bad --txns")?,
            "--pattern" => a.pattern = take(&mut i)?.parse().map_err(|_| "bad --pattern")?,
            "--hots" => a.hots = take(&mut i)?.parse().map_err(|_| "bad --hots")?,
            "--seed" => a.seed = take(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--queue" => a.queue = take(&mut i)?.parse().map_err(|_| "bad --queue")?,
            "--k" => a.k = take(&mut i)?.parse().map_err(|_| "bad --k")?,
            "--keeptime" => a.keeptime = take(&mut i)?.parse().map_err(|_| "bad --keeptime")?,
            "--no-certify" => a.certify = false,
            "--out" => a.out = Some(take(&mut i)?),
            "--trace" => a.trace = Some(take(&mut i)?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    Ok(a)
}

fn pattern_of(pattern: u32, hots: u32) -> Result<Pattern, String> {
    match pattern {
        1 => Ok(Pattern::One),
        2 => Ok(Pattern::Two { num_hots: hots }),
        3 => Ok(Pattern::Three { num_hots: hots }),
        other => Err(format!("--pattern must be 1, 2 or 3, got {other}")),
    }
}

fn print_report(r: &EngineReport, pattern: &str) {
    println!(
        "{} | {} threads | {} | {} txns submitted",
        r.scheduler, r.threads, pattern, r.submitted
    );
    println!(
        "  committed  : {}  ({:.1} TPS over {:.0} ms wall)",
        r.committed, r.throughput_tps, r.wall_ms
    );
    println!(
        "  latency    : mean {:.2} ms  p50 {:.2}  p95 {:.2}  max {:.2}",
        r.latency.mean_ms, r.latency.p50_ms, r.latency.p95_ms, r.latency.max_ms
    );
    println!(
        "  aborts     : {} rejected admissions ({:.1} % of attempts), \
         {} blocked + {} delayed retries, worst streak {}",
        r.rejected_admissions,
        r.abort_rate * 100.0,
        r.blocked_retries,
        r.delayed_retries,
        r.max_retry_streak
    );
    println!(
        "  control    : {} history events, {} logical ticks, {} deadlock tests, \
         {} W opts, {} E(q) evals",
        r.history_events, r.logical_ticks, r.deadlock_tests, r.chain_opts, r.eq_evals
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
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    let pattern = pattern_of(a.pattern, a.hots)?;
    let sink = a.trace.as_ref().map(|_| Arc::new(MemorySink::new()));
    let (catalog, specs) = pattern_specs(pattern, a.txns, a.seed);
    let cfg = EngineConfig {
        threads: a.threads,
        queue_depth: a.queue,
        certify: a.certify,
        seed: a.seed,
        ..EngineConfig::default()
    };
    let sched = sched_by_name(&a.sched, a.k, a.keeptime)
        .ok_or_else(|| format!("unknown scheduler {:?}", a.sched))?;
    let obs = sink.clone().map(|s| s as Arc<dyn wtpg_obs::Observer>);
    let report = run_engine_obs(&cfg, sched, &catalog, &specs, obs).map_err(|e| e.to_string())?;
    print_report(&report, &pattern.label());
    if let (Some(path), Some(sink)) = (&a.trace, sink) {
        // Engine events are wall-clock µs, so Chrome's ts unit is 1:1.
        crate::obs::write_trace(path, &sink.snapshot(), 1)?;
        println!("wrote trace {path}");
    }
    if let Some(path) = &a.out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialise report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
