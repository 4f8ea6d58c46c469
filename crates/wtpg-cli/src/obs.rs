//! `wtpg obs`: inspect JSONL traces produced by `wtpg simulate --trace`
//! (or any other writer of the `wtpg-obs` JSONL event format).
//!
//! ```text
//! wtpg obs summary <trace.jsonl>             percentiles, abort causes,
//!                                            cache-hit ratio
//! wtpg obs diff    <a.jsonl> <b.jsonl>       counter/span deltas between
//!                                            two traces
//! wtpg obs chrome  <trace.jsonl> [--out F]   convert to Chrome trace_event
//!                                            JSON (chrome://tracing,
//!                                            Perfetto)
//! ```

use wtpg_obs::{EventKind, ObsEvent, TraceSummary};

/// Loads a JSONL trace, reporting the offending line on parse failure.
fn load_trace(path: &str) -> Result<Vec<ObsEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    wtpg_obs::jsonl::decode(&text).map_err(|e| format!("{path}: {e}"))
}

/// Wall-clock traces (`wtpg load --jsonl`) are in µs, simulator traces in
/// ms ticks; Chrome's `ts` wants µs. A trace is wall-clock iff it holds a
/// `Window` record: the `WindowFlusher` stamps µs by construction, and the
/// simulator writes none — true of a file still being written, too.
fn us_per_unit(events: &[ObsEvent]) -> u64 {
    if events.iter().any(|e| matches!(e.kind, EventKind::Window(_))) {
        1
    } else {
        1000
    }
}

/// Writes `events` to `path`: JSONL when the extension is `.jsonl`, Chrome
/// trace_event JSON (for chrome://tracing / Perfetto) otherwise.
/// `us_per_unit` scales event timestamps to Chrome's µs `ts` field.
pub(crate) fn write_trace(
    path: &str,
    events: &[ObsEvent],
    us_per_unit: u64,
) -> Result<(), String> {
    let body = if path.ends_with(".jsonl") {
        wtpg_obs::jsonl::encode(events)
    } else {
        wtpg_obs::chrome::chrome_trace(events, us_per_unit)
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("summary") => {
            let path = args
                .get(1)
                .ok_or_else(|| "usage: wtpg obs summary <trace.jsonl>".to_string())?;
            let events = load_trace(path)?;
            let summary = TraceSummary::from_events(&events);
            print!("{}", summary.render());
            Ok(())
        }
        Some("diff") => {
            let a = args
                .get(1)
                .ok_or_else(|| "usage: wtpg obs diff <a.jsonl> <b.jsonl>".to_string())?;
            let b = args
                .get(2)
                .ok_or_else(|| "usage: wtpg obs diff <a.jsonl> <b.jsonl>".to_string())?;
            let sa = TraceSummary::from_events(&load_trace(a)?);
            let sb = TraceSummary::from_events(&load_trace(b)?);
            print!("{}", sa.diff(&sb));
            Ok(())
        }
        Some("chrome") => {
            let path = args
                .get(1)
                .ok_or_else(|| "usage: wtpg obs chrome <trace.jsonl> [--out FILE]".to_string())?;
            let out = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("--out"), Some(f)) => Some(f.clone()),
                (None, _) => None,
                _ => return Err("usage: wtpg obs chrome <trace.jsonl> [--out FILE]".into()),
            };
            let events = load_trace(path)?;
            let json = wtpg_obs::chrome::chrome_trace(&events, us_per_unit(&events));
            match out {
                Some(f) => {
                    std::fs::write(&f, json).map_err(|e| format!("cannot write {f}: {e}"))?;
                    println!("wrote {f}");
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        _ => Err(
            "usage: wtpg obs summary <trace.jsonl> | diff <a> <b> | chrome <trace.jsonl> \
             [--out FILE]"
                .into(),
        ),
    }
}
