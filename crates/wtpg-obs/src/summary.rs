//! Trace summarisation and diffing — the logic behind `wtpg obs summary`
//! and `wtpg obs diff`.
//!
//! A summary folds a trace into: final cumulative counter values,
//! occurrence counts per instant name, and one duration [`Histogram`] per
//! span name (pairing `SpanBegin`/`SpanEnd` by `(name, id)`, folding in
//! complete [`EventKind::Duration`] events, and merging end-of-run
//! [`EventKind::Hist`] snapshots under `<name>` as recorded).
//!
//! Windowed traces fold the same way: each [`EventKind::Window`] record
//! accumulates its counter deltas into the summary's counters, overwrites
//! gauge levels (last window wins, like cumulative counters), and merges
//! its per-window histograms into the span map — so `wtpg obs summary`
//! and `diff` treat a windowed trace exactly like the equivalent
//! whole-run trace, and the fold stays byte-deterministic.

use std::collections::BTreeMap;

use crate::event::{EventKind, ObsEvent};
use crate::hist::Histogram;
use crate::stats::ControlStats;
use crate::window::metric;

/// Aggregated view of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events in the trace.
    pub events: usize,
    /// Final (latest) cumulative value per counter name.
    pub counters: BTreeMap<String, u64>,
    /// Occurrences per instant name.
    pub instants: BTreeMap<String, u64>,
    /// Duration histogram per span name (timestamp units of the trace).
    pub spans: BTreeMap<String, Histogram>,
    /// Span begin events that never closed (diagnostic; non-zero is legal
    /// for truncated traces).
    pub unclosed_spans: usize,
    /// Windowed-telemetry flush records folded into this summary.
    pub windows: usize,
}

impl TraceSummary {
    /// Builds a summary from decoded events.
    pub fn from_events(events: &[ObsEvent]) -> TraceSummary {
        let mut s = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let mut open: BTreeMap<(String, u64, u32), u64> = BTreeMap::new();
        for ev in events {
            match &ev.kind {
                EventKind::SpanBegin { name, id } => {
                    open.insert((name.to_string(), *id, ev.track), ev.at);
                }
                EventKind::SpanEnd { name, id } => {
                    if let Some(begin) = open.remove(&(name.to_string(), *id, ev.track)) {
                        s.spans
                            .entry(name.to_string())
                            .or_default()
                            .record(ev.at.saturating_sub(begin));
                    }
                }
                EventKind::Instant { name, .. } => {
                    *s.instants.entry(name.to_string()).or_insert(0) += 1;
                }
                EventKind::Counter { name, value } => {
                    s.counters.insert(name.to_string(), *value);
                }
                EventKind::Duration { name, dur, .. } => {
                    s.spans.entry(name.to_string()).or_default().record(*dur);
                }
                EventKind::Hist { name, hist } => {
                    s.spans.entry(name.to_string()).or_default().merge(hist);
                }
                EventKind::Window(w) => {
                    s.windows += 1;
                    for (name, delta) in &w.counters {
                        *s.counters.entry(name.to_string()).or_insert(0) += delta;
                    }
                    for (name, level) in &w.gauges {
                        s.counters.insert(name.to_string(), *level);
                    }
                    for (name, hist) in &w.hists {
                        s.spans.entry(name.to_string()).or_default().merge(hist);
                    }
                }
            }
        }
        s.unclosed_spans = open.len();
        s
    }

    /// Reconstructs the control-plane stats from the trace's counters
    /// (fields absent from the trace read as 0).
    pub fn control_stats(&self) -> ControlStats {
        let get = |k: &str| self.counters.get(k).copied().unwrap_or(0);
        ControlStats {
            w_recomputes: get("w_recomputes"),
            w_reuses: get("w_reuses"),
            eq_cache_hits: get("eq_cache_hits"),
            eq_cache_misses: get("eq_cache_misses"),
            eq_cache_invalidations: get("eq_cache_invalidations"),
            dd_cache_hits: get("dd_cache_hits"),
            dd_cache_misses: get("dd_cache_misses"),
            aborts_non_chain: get("aborts_non_chain"),
            aborts_k_conflict: get("aborts_k_conflict"),
            aborts_lock_denied: get("aborts_lock_denied"),
            delays_deadlock: get("delays_deadlock"),
            delays_minimality: get("delays_minimality"),
        }
    }

    /// Abort/delay causes present in the trace, most frequent first.
    pub fn top_abort_causes(&self) -> Vec<(String, u64)> {
        let mut causes: Vec<(String, u64)> = self
            .counters
            .iter()
            .filter(|(k, v)| (k.starts_with("aborts_") || k.starts_with("delays_")) && **v > 0)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        causes
    }

    /// The duration histogram recorded under `name`, if any.
    pub fn span(&self, name: &str) -> Option<&Histogram> {
        self.spans.get(name)
    }

    /// Network-plane messages sent per commit, when the trace carries a
    /// shared-nothing run's `msg/tx/<type>` and `load/commits` counters (a
    /// sent batch counts as one message, its coalesced contents do not).
    pub fn net_msgs_per_commit(&self) -> Option<f64> {
        let prefix = metric::msg_tx("");
        let sent: u64 = self
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .sum();
        let commits = self.counters.get(metric::COMMITS).copied().unwrap_or(0);
        (sent > 0 && commits > 0).then(|| sent as f64 / commits as f64)
    }

    /// Per-shard `(admissions, commits)` pairs recovered from the trace's
    /// `ctrl/s<i>/*` counters, in shard order; empty for traces of
    /// non-network runs.
    pub fn shard_balance(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for i in 0usize.. {
            let a = self.counters.get(&metric::shard_admissions(i));
            let c = self.counters.get(&metric::shard_commits(i));
            if a.is_none() && c.is_none() {
                break;
            }
            out.push((a.copied().unwrap_or(0), c.copied().unwrap_or(0)));
        }
        out
    }

    /// Renders the human-readable summary `wtpg obs summary` prints.
    pub fn render(&self) -> String {
        let mut out = format!("events: {}\n", self.events);
        if self.windows > 0 {
            out.push_str(&format!("windows: {}\n", self.windows));
        }
        let stats = self.control_stats();
        out.push_str(&format!(
            "cache: hits={} misses={} hit_ratio={:.3} (W reuse {}, E(q) {}, deadlock-pred {})\n",
            stats.cache_hits(),
            stats.cache_misses(),
            stats.cache_hit_ratio(),
            stats.w_reuses,
            stats.eq_cache_hits,
            stats.dd_cache_hits,
        ));
        if let Some(mpc) = self.net_msgs_per_commit() {
            let commits = self.counters.get(metric::COMMITS).copied().unwrap_or(0);
            let inner = self.counters.get(metric::BATCHED_INNER).copied().unwrap_or(0);
            out.push_str(&format!(
                "net: {commits} commits, {mpc:.2} msgs/commit, \
                 {inner} messages coalesced into batches\n"
            ));
            let shards = self.shard_balance();
            if shards.len() > 1 {
                let adm: Vec<String> = shards.iter().map(|(a, _)| a.to_string()).collect();
                let com: Vec<String> = shards.iter().map(|(_, c)| c.to_string()).collect();
                out.push_str(&format!(
                    "net shards: {} (admissions {}, commits {})\n",
                    shards.len(),
                    adm.join("/"),
                    com.join("/")
                ));
            }
        }
        let causes = self.top_abort_causes();
        if causes.is_empty() {
            out.push_str("abort/delay causes: none\n");
        } else {
            out.push_str("abort/delay causes:\n");
            for (name, n) in &causes {
                out.push_str(&format!("  {name:<24} {n}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (duration in trace time units):\n");
            for (name, h) in &self.spans {
                out.push_str(&format!(
                    "  {name:<24} count={} p50~{} p95~{} max<={}\n",
                    h.count(),
                    h.percentile(0.5),
                    h.percentile(0.95),
                    h.max_bound()
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters (final values):\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<24} {v}\n"));
            }
        }
        if !self.instants.is_empty() {
            out.push_str("instants:\n");
            for (name, n) in &self.instants {
                out.push_str(&format!("  {name:<24} {n}\n"));
            }
        }
        if self.unclosed_spans > 0 {
            out.push_str(&format!("unclosed spans: {}\n", self.unclosed_spans));
        }
        out
    }

    /// Renders a textual diff of two summaries (self = baseline, `other` =
    /// candidate). Identical traces produce only the two header lines.
    pub fn diff(&self, other: &TraceSummary) -> String {
        let mut out = format!("events: {} -> {}\n", self.events, other.events);
        let mut changes = 0usize;
        let keys: std::collections::BTreeSet<&String> =
            self.counters.keys().chain(other.counters.keys()).collect();
        for k in keys {
            let a = self.counters.get(k).copied().unwrap_or(0);
            let b = other.counters.get(k).copied().unwrap_or(0);
            if a != b {
                let delta = b as i128 - a as i128;
                out.push_str(&format!("  counter {k:<24} {a} -> {b} ({delta:+})\n"));
                changes += 1;
            }
        }
        let keys: std::collections::BTreeSet<&String> =
            self.spans.keys().chain(other.spans.keys()).collect();
        for k in keys {
            let empty = Histogram::new();
            let a = self.spans.get(k).unwrap_or(&empty);
            let b = other.spans.get(k).unwrap_or(&empty);
            if a != b {
                out.push_str(&format!(
                    "  span    {k:<24} count {} -> {}, p95 {} -> {}\n",
                    a.count(),
                    b.count(),
                    a.percentile(0.95),
                    b.percentile(0.95)
                ));
                changes += 1;
            }
        }
        if changes == 0 {
            out.push_str("no counter or span differences\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<ObsEvent> {
        vec![
            ObsEvent::span_begin(10, 0, "txn", 1),
            ObsEvent::counter(11, 0, "eq_cache_misses", 1),
            ObsEvent::counter(12, 0, "eq_cache_hits", 3),
            ObsEvent::instant(13, 0, "abort", 2),
            ObsEvent::counter(13, 0, "aborts_k_conflict", 1),
            ObsEvent::duration(14, 1, "lock_wait", 1, 4),
            ObsEvent::span_end(20, 0, "txn", 1),
            ObsEvent::span_begin(21, 0, "txn", 9),
        ]
    }

    #[test]
    fn summary_folds_counters_spans_and_instants() {
        let s = TraceSummary::from_events(&trace());
        assert_eq!(s.events, 8);
        assert_eq!(s.counters.get("eq_cache_hits"), Some(&3));
        assert_eq!(s.instants.get("abort"), Some(&1));
        let txn = s.span("txn").expect("txn span present");
        assert_eq!(txn.count(), 1);
        // Span lasted 10 units → bucket [8, 15], one sample → midpoint 11.
        assert_eq!(txn.percentile(1.0), 11);
        assert_eq!(s.span("lock_wait").map(Histogram::count), Some(1));
        assert_eq!(s.unclosed_spans, 1);
        assert_eq!(s.control_stats().eq_cache_hits, 3);
        assert!((s.control_stats().cache_hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(
            s.top_abort_causes(),
            vec![("aborts_k_conflict".to_string(), 1)]
        );
        let text = s.render();
        assert!(text.contains("hit_ratio=0.750"), "{text}");
        assert!(text.contains("aborts_k_conflict"), "{text}");
    }

    #[test]
    fn summary_renders_net_section_with_shard_balance() {
        // What a two-shard run's registry flushes, as one window record.
        let reg = crate::window::Registry::new();
        for (name, v) in [
            (metric::msg_tx("submit"), 40),
            (metric::msg_tx("access"), 120),
            (metric::msg_tx("batch"), 30),
            (metric::msg_rx("submit"), 40),
            (metric::BATCHED_INNER.to_string(), 150),
            (metric::COMMITS.to_string(), 40),
            (metric::shard_admissions(0), 22),
            (metric::shard_commits(0), 22),
            (metric::shard_admissions(1), 18),
            (metric::shard_commits(1), 18),
        ] {
            reg.counter(&name).add(v);
        }
        let s = TraceSummary::from_events(&[reg.flush(1, 0, 1)]);
        let mpc = s.net_msgs_per_commit().expect("net counters present");
        assert!((mpc - 190.0 / 40.0).abs() < 1e-12, "{mpc}");
        assert_eq!(s.shard_balance(), vec![(22, 22), (18, 18)]);
        let text = s.render();
        assert!(text.contains("net: 40 commits, 4.75 msgs/commit"), "{text}");
        assert!(text.contains("net shards: 2 (admissions 22/18, commits 22/18)"), "{text}");
        // A trace without net counters renders no net section.
        let quiet = TraceSummary::from_events(&trace());
        assert!(quiet.net_msgs_per_commit().is_none());
        assert!(!quiet.render().contains("net:"), "{}", quiet.render());
    }

    #[test]
    fn window_records_fold_like_the_equivalent_whole_run() {
        use crate::window::Registry;
        // Windowed trace: three windows of activity.
        let reg = Registry::new();
        let commits = reg.counter("load/commits");
        let lat = reg.hist("lat/commit_us");
        let backlog = reg.gauge("ctrl/s0/backlog");
        let mut windowed = Vec::new();
        for w in 0..3u64 {
            commits.add(10 + w);
            lat.record(100 * (w + 1));
            backlog.set(w);
            windowed.push(ObsEvent::window(
                (w + 1) * 250,
                0,
                reg.flush_snapshot(250),
            ));
        }
        let s = TraceSummary::from_events(&windowed);
        assert_eq!(s.windows, 3);
        // Counter deltas accumulate back to the cumulative total.
        assert_eq!(s.counters.get("load/commits"), Some(&(10 + 11 + 12)));
        // The last gauge level wins.
        assert_eq!(s.counters.get("ctrl/s0/backlog"), Some(&2));
        // Per-window histograms merge to the whole-run histogram.
        let mut whole = Histogram::new();
        for w in 0..3u64 {
            whole.record(100 * (w + 1));
        }
        assert_eq!(s.span("lat/commit_us"), Some(&whole));
        let text = s.render();
        assert!(text.contains("windows: 3"), "{text}");
        // Diff of a windowed trace against itself is quiet.
        assert!(
            s.diff(&s).contains("no counter or span differences"),
            "{}",
            s.diff(&s)
        );
    }

    #[test]
    fn windowed_summary_render_is_byte_deterministic() {
        use crate::window::Registry;
        // The summary of a windowed trace must render the same bytes on
        // every fold, and survive a JSONL round trip unchanged — `wtpg obs
        // summary`/`diff` on a windowed trace regress here, not in prose.
        let build = || {
            let reg = Registry::new();
            let commits = reg.counter("load/commits");
            let lat = reg.hist("lat/commit_us");
            let mut events = Vec::new();
            for w in 0..5u64 {
                commits.add(7 + w);
                for i in 0..20u64 {
                    lat.record(w * 500 + i * 13);
                }
                reg.gauge("ctrl/s0/backlog").set(w * 2);
                events.push(ObsEvent::window((w + 1) * 250, 0, reg.flush_snapshot(250)));
            }
            events
        };
        let events = build();
        let direct = TraceSummary::from_events(&events).render();
        let refold = TraceSummary::from_events(&events).render();
        assert_eq!(direct, refold);
        let rebuilt = TraceSummary::from_events(&build()).render();
        assert_eq!(direct, rebuilt);
        let text = crate::jsonl::encode(&events);
        let decoded = crate::jsonl::decode(&text).expect("round trip");
        let via_jsonl = TraceSummary::from_events(&decoded).render();
        assert_eq!(direct, via_jsonl);
    }

    #[test]
    fn diff_of_identical_traces_is_quiet() {
        let s = TraceSummary::from_events(&trace());
        let d = s.diff(&s);
        assert!(d.contains("no counter or span differences"), "{d}");
    }

    #[test]
    fn diff_reports_counter_and_span_changes() {
        let a = TraceSummary::from_events(&trace());
        let mut more = trace();
        more.push(ObsEvent::counter(30, 0, "eq_cache_hits", 5));
        more.push(ObsEvent::duration(31, 1, "lock_wait", 2, 900));
        let b = TraceSummary::from_events(&more);
        let d = a.diff(&b);
        assert!(d.contains("eq_cache_hits"), "{d}");
        assert!(d.contains("3 -> 5"), "{d}");
        assert!(d.contains("span    lock_wait"), "{d}");
    }
}
