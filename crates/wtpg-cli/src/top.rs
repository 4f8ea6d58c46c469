//! `wtpg top`: live (or one-shot) view of a run's windowed telemetry.
//!
//! Tails a JSONL trace carrying [`WindowSnapshot`] records — typically one
//! `wtpg load --jsonl FILE` is writing *right now* — and renders a
//! top-style table: throughput, commit-latency tail, queue depths,
//! backlog, abort rate (arrivals shed over arrivals offered — the SLO's
//! `abort<N%` term), WAL flush lag, and the per-shard commit balance. A
//! scheduler's admission rejections are retried inside the control actor
//! and show on the queue line as `sched … aborts`.
//!
//! ```text
//! wtpg load --lambda 4000 --secs 30 --jsonl load.jsonl &
//! wtpg top load.jsonl                # follow live, redraw each interval
//! wtpg top load.jsonl --once         # render the current state and exit
//! ```
//!
//! Partial trailing lines (the writer mid-`writeln!`) are skipped and
//! picked up on the next poll; parse errors on complete lines are
//! reported once per line, not fatal.

use wtpg_obs::slo::WindowStats;
use wtpg_obs::window::{metric, WindowSnapshot};
use wtpg_obs::{EventKind, ObsEvent};

struct TopArgs {
    path: String,
    once: bool,
    interval_ms: u64,
    rows: usize,
}

fn parse(args: &[String]) -> Result<TopArgs, String> {
    let mut a = TopArgs {
        path: String::new(),
        once: false,
        interval_ms: 500,
        rows: 12,
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
            "--once" => a.once = true,
            "--interval" => {
                a.interval_ms = take(&mut i)?.parse().map_err(|_| "bad --interval")?
            }
            "--rows" => a.rows = take(&mut i)?.parse().map_err(|_| "bad --rows")?,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}"))
            }
            other if a.path.is_empty() => a.path = other.to_string(),
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    if a.path.is_empty() {
        return Err("usage: wtpg top <trace.jsonl> [--once] [--interval MS] [--rows N]".into());
    }
    Ok(a)
}

/// Decodes the window records out of a trace, line by line, so one
/// unparseable line (a partial tail mid-write, a foreign record) skips
/// that line only.
fn windows_of(text: &str) -> Vec<WindowSnapshot> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(events) = wtpg_obs::jsonl::decode(line) else {
            continue;
        };
        for ev in events {
            if let ObsEvent {
                kind: EventKind::Window(snap),
                ..
            } = ev
            {
                out.push(*snap);
            }
        }
    }
    out
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn render(windows: &[WindowSnapshot], path: &str, rows: usize, live: bool) {
    if live {
        // Clear and home — an in-place redraw, not a scrolling log.
        print!("\x1b[2J\x1b[H");
    }
    println!("wtpg top — {path} — {} windows", windows.len());
    let Some(last) = windows.last() else {
        println!("  (no window records yet)");
        return;
    };
    let now = WindowStats::from_snapshot(last);
    println!(
        "  now: {:>8.1} tps | p50 {:>7.2} ms  p99 {:>7.2} ms  p99.9 {:>7.2} ms | abort {:>5.2}%",
        now.tps(),
        ms(now.p50_us),
        ms(now.p99_us),
        ms(now.p999_us),
        now.abort_rate() * 100.0
    );
    println!(
        "  queues: inflight {:>4} | backlog {:>4} parked {:>4} | wal lag {} B | sched {} grants \
         {} aborts {} delays",
        last.gauge(metric::INFLIGHT).unwrap_or(0),
        last.gauge_sum("ctrl/s", "/backlog"),
        last.gauge_sum("ctrl/s", "/parked"),
        last.gauge(metric::WAL_LAG).unwrap_or(0),
        last.counter(metric::SCHED_GRANTS),
        last.counter(metric::SCHED_ABORTS),
        last.counter(metric::SCHED_DELAYS),
    );
    let shard_commits = last.counter_matches("ctrl/s", "/commits");
    if shard_commits.len() > 1 {
        let balance: Vec<String> = shard_commits
            .iter()
            .map(|(n, v)| {
                let shard = n
                    .strip_prefix("ctrl/s")
                    .and_then(|s| s.strip_suffix("/commits"))
                    .unwrap_or(n);
                format!("s{shard}:{v}")
            })
            .collect();
        println!("  shards: {}", balance.join("  "));
    }
    println!(
        "  {:>5} | {:>8} | {:>8} | {:>5} | {:>8} | {:>8} | {:>8} | {:>6}",
        "win", "tps", "offered", "shed", "p50 ms", "p99 ms", "p99.9 ms", "abort%"
    );
    let start = windows.len().saturating_sub(rows);
    for w in windows[start..].iter().map(WindowStats::from_snapshot) {
        println!(
            "  {:>5} | {:>8.1} | {:>8} | {:>5} | {:>8.2} | {:>8.2} | {:>8.2} | {:>6.2}",
            w.seq,
            w.tps(),
            w.offered,
            w.shed,
            ms(w.p50_us),
            ms(w.p99_us),
            ms(w.p999_us),
            w.abort_rate() * 100.0
        );
    }
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    if a.once {
        let text = std::fs::read_to_string(&a.path)
            .map_err(|e| format!("cannot read {}: {e}", a.path))?;
        render(&windows_of(&text), &a.path, a.rows, false);
        return Ok(());
    }
    // Follow mode: poll the whole file each interval (window records are
    // small — hundreds of bytes per 250 ms — so re-reading beats keeping
    // byte offsets through truncation/rewrite) and redraw in place until
    // interrupted.
    let mut last_len = usize::MAX;
    loop {
        let text = std::fs::read_to_string(&a.path).unwrap_or_default();
        let windows = windows_of(&text);
        if windows.len() != last_len {
            last_len = windows.len();
            render(&windows, &a.path, a.rows, true);
            println!("  (following — ctrl-c to exit)");
        }
        std::thread::sleep(std::time::Duration::from_millis(a.interval_ms.max(50)));
    }
}
