//! Chrome `trace_event` export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and Perfetto open directly. Spans map to `ph:"B"` /
//! `ph:"E"` duration events, [`EventKind::Duration`] to complete `ph:"X"`
//! events, instants to `ph:"i"`, counters to `ph:"C"`, and histogram
//! snapshots to a `ph:"C"` carrying their percentile summary. All events
//! share `pid` 1; the event track becomes the `tid`.
//!
//! `ts` must be microseconds. Producers using logical ticks (milliseconds
//! of simulated time) pass `us_per_unit = 1000`; wall-clock traces are
//! already in µs and pass 1.

use crate::event::{EventKind, ObsEvent};

fn escape(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn record(ev: &ObsEvent, us_per_unit: u64) -> String {
    let ts = ev.at.saturating_mul(us_per_unit);
    let head = |name: &str, ph: &str| {
        format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{}",
            escape(name),
            ev.track
        )
    };
    match &ev.kind {
        EventKind::SpanBegin { name, id } => {
            format!("{},\"args\":{{\"id\":{id}}}}}", head(name, "B"))
        }
        EventKind::SpanEnd { name, id } => {
            format!("{},\"args\":{{\"id\":{id}}}}}", head(name, "E"))
        }
        EventKind::Instant { name, id } => {
            format!("{},\"s\":\"t\",\"args\":{{\"id\":{id}}}}}", head(name, "i"))
        }
        EventKind::Counter { name, value } => {
            format!("{},\"args\":{{\"value\":{value}}}}}", head(name, "C"))
        }
        EventKind::Duration { name, id, dur } => {
            format!(
                "{},\"dur\":{},\"args\":{{\"id\":{id}}}}}",
                head(name, "X"),
                dur.saturating_mul(us_per_unit)
            )
        }
        EventKind::Hist { name, hist } => {
            format!(
                "{},\"args\":{{\"count\":{},\"p50\":{},\"p95\":{},\"max\":{}}}}}",
                head(name, "C"),
                hist.count(),
                hist.percentile(0.5),
                hist.percentile(0.95),
                hist.max_bound()
            )
        }
        EventKind::Window(w) => {
            // One counter-phase record per window: counter deltas and
            // gauge levels inline, histograms as p50/p99 pairs.
            let mut args = format!("\"seq\":{}", w.seq);
            for (n, v) in &w.counters {
                args.push_str(&format!(",\"{}\":{v}", escape(n)));
            }
            for (n, v) in &w.gauges {
                args.push_str(&format!(",\"{}\":{v}", escape(n)));
            }
            for (n, h) in &w.hists {
                args.push_str(&format!(
                    ",\"{}.p50\":{},\"{}.p99\":{}",
                    escape(n),
                    h.percentile(0.5),
                    escape(n),
                    h.percentile(0.99)
                ));
            }
            format!("{},\"args\":{{{args}}}}}", head("window", "C"))
        }
    }
}

/// Renders a trace in Chrome `trace_event` JSON object format.
/// `us_per_unit` converts event timestamps to microseconds (1000 for
/// logical-tick traces, 1 for wall-clock µs traces).
pub fn chrome_trace(events: &[ObsEvent], us_per_unit: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&record(ev, us_per_unit));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn phases_and_scaling() {
        let mut h = Histogram::new();
        h.record(9);
        let evs = vec![
            ObsEvent::span_begin(1, 0, "txn", 3),
            ObsEvent::span_end(2, 0, "txn", 3),
            ObsEvent::instant(2, 1, "abort", 4),
            ObsEvent::counter(3, 0, "grants", 5),
            ObsEvent::duration(4, 2, "lock_wait", 3, 6),
            ObsEvent::hist(5, 0, "rt", h),
        ];
        let json = chrome_trace(&evs, 1000);
        assert!(json.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"X\"",
            "\"ts\":1000",
            "\"dur\":6000",
            "\"tid\":2",
            "\"p95\":11",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn names_are_escaped() {
        let evs = vec![ObsEvent::instant(0, 0, String::from("a\"b"), 1)];
        assert!(chrome_trace(&evs, 1).contains("a\\\"b"));
    }
}
