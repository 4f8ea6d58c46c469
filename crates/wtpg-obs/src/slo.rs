//! The SLO engine: declarative service-level objectives evaluated against
//! windowed telemetry.
//!
//! An [`SloSpec`] is a set of per-window thresholds (`p99 < 50ms`,
//! `abort < 5%`, `tps > 1000`) plus a sustain requirement: the objective
//! counts as *met* when at least `sustain` consecutive loaded windows —
//! ending with the last loaded window of the run — are all compliant.
//! "Loaded" means the window saw offered arrivals; the drain tail after
//! the arrival process stops is never judged. Evaluation produces one
//! [`WindowVerdict`] per loaded window (the machine-readable verdict
//! stream) and a final [`SloOutcome`].
//!
//! Everything here is pure arithmetic over [`WindowStats`] values —
//! deterministic and clock-free, like the rest of the crate.

use crate::window::{metric, WindowSnapshot};

/// Per-window measurements the SLO thresholds are judged against,
/// extracted from a [`WindowSnapshot`] via the canonical
/// [`metric`](crate::window::metric) names.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Window sequence number.
    pub seq: u64,
    /// Window length, µs.
    pub dur_us: u64,
    /// Arrivals the load driver offered this window.
    pub offered: u64,
    /// Arrivals shed at the in-flight bound (backpressure signal).
    pub shed: u64,
    /// Commits acked this window.
    pub committed: u64,
    /// Commit-latency samples behind the percentiles below. Zero means the
    /// window's histogram was empty (or absent) — the percentiles are
    /// placeholders, not measurements, and must not be judged.
    pub lat_samples: u64,
    /// Commit latency median, µs (0 when no commits landed).
    pub p50_us: u64,
    /// Commit latency 99th percentile, µs.
    pub p99_us: u64,
    /// Commit latency 99.9th percentile, µs.
    pub p999_us: u64,
}

impl WindowStats {
    /// Extracts the judged measurements from one window record.
    pub fn from_snapshot(w: &WindowSnapshot) -> WindowStats {
        let lat = w.hist(metric::COMMIT_LAT_US);
        let pct = |q: f64| lat.and_then(|h| h.try_percentile(q)).unwrap_or(0);
        WindowStats {
            seq: w.seq,
            dur_us: w.len,
            offered: w.counter(metric::OFFERED),
            shed: w.counter(metric::SHED),
            committed: w.counter(metric::COMMITS),
            lat_samples: lat.map_or(0, |h| h.count()),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            p999_us: pct(0.999),
        }
    }

    /// Commits per second over this window (0 for a zero-length window).
    pub fn tps(&self) -> f64 {
        if self.dur_us == 0 {
            0.0
        } else {
            self.committed as f64 * 1_000_000.0 / self.dur_us as f64
        }
    }

    /// Arrivals shed at the in-flight bound over arrivals offered (over
    /// commits plus shed in a window working off a backlog). Shedding is the
    /// one way work is turned away for good: BATs never abort mid-run, and a
    /// scheduler's admission rejection is retried inside the control actor,
    /// unseen by clients — those are counted as `sched/aborts`, not here.
    pub fn abort_rate(&self) -> f64 {
        let denom = (self.committed + self.shed).max(self.offered);
        if denom == 0 {
            0.0
        } else {
            self.shed as f64 / denom as f64
        }
    }
}

/// A declarative SLO: per-window thresholds plus the sustain requirement.
/// Unset thresholds are not judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Median commit latency must stay under this, µs.
    pub p50_max_us: Option<u64>,
    /// p99 commit latency must stay under this, µs.
    pub p99_max_us: Option<u64>,
    /// p99.9 commit latency must stay under this, µs.
    pub p999_max_us: Option<u64>,
    /// Abort rate ([`WindowStats::abort_rate`]: shed over offers) must stay
    /// under this fraction.
    pub abort_rate_max: Option<f64>,
    /// Throughput must stay above this, commits/s.
    pub min_tps: Option<f64>,
    /// Consecutive compliant loaded windows required, ending at the last
    /// loaded window.
    pub sustain: u32,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            p50_max_us: None,
            p99_max_us: Some(50_000),
            p999_max_us: None,
            abort_rate_max: Some(0.05),
            min_tps: None,
            sustain: 4,
        }
    }
}

/// Parses one duration term like `50ms`, `200us`, `2s` into µs.
fn parse_dur_us(s: &str) -> Result<u64, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000.0)
    } else {
        return Err(format!("duration {s:?} needs a unit (us/ms/s)"));
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?}"))?;
    Ok((v * mult) as u64)
}

impl SloSpec {
    /// Parses the comma-separated spec grammar, e.g.
    /// `p99<50ms,abort<5%,sustain=8` or `p50<5ms,p999<200ms,tps>1000`.
    /// Terms: `p50<D`, `p99<D`, `p999<D` (D with unit us/ms/s),
    /// `abort<N%`, `tps>N`, `sustain=N`. An empty string is the default
    /// spec.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec {
            p50_max_us: None,
            p99_max_us: None,
            p999_max_us: None,
            abort_rate_max: None,
            min_tps: None,
            sustain: 4,
        };
        let mut any = false;
        for term in s.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            any = true;
            if let Some(rest) = term.strip_prefix("p999<") {
                spec.p999_max_us = Some(parse_dur_us(rest)?);
            } else if let Some(rest) = term.strip_prefix("p99<") {
                spec.p99_max_us = Some(parse_dur_us(rest)?);
            } else if let Some(rest) = term.strip_prefix("p50<") {
                spec.p50_max_us = Some(parse_dur_us(rest)?);
            } else if let Some(rest) = term.strip_prefix("abort<") {
                let pct = rest
                    .strip_suffix('%')
                    .ok_or_else(|| format!("abort bound {rest:?} needs a %"))?;
                let v: f64 = pct.parse().map_err(|_| format!("bad abort bound {rest:?}"))?;
                spec.abort_rate_max = Some(v / 100.0);
            } else if let Some(rest) = term.strip_prefix("tps>") {
                let v: f64 = rest.parse().map_err(|_| format!("bad tps bound {rest:?}"))?;
                spec.min_tps = Some(v);
            } else if let Some(rest) = term.strip_prefix("sustain=") {
                spec.sustain = rest
                    .parse()
                    .map_err(|_| format!("bad sustain count {rest:?}"))?;
            } else {
                return Err(format!("unknown SLO term {term:?}"));
            }
        }
        if !any {
            return Ok(SloSpec::default());
        }
        Ok(spec)
    }

    /// A canonical one-line rendering of the spec.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = self.p50_max_us {
            parts.push(format!("p50<{}ms", v as f64 / 1000.0));
        }
        if let Some(v) = self.p99_max_us {
            parts.push(format!("p99<{}ms", v as f64 / 1000.0));
        }
        if let Some(v) = self.p999_max_us {
            parts.push(format!("p999<{}ms", v as f64 / 1000.0));
        }
        if let Some(v) = self.abort_rate_max {
            parts.push(format!("abort<{}%", v * 100.0));
        }
        if let Some(v) = self.min_tps {
            parts.push(format!("tps>{v}"));
        }
        parts.push(format!("sustain={}", self.sustain));
        parts.join(",")
    }

    /// Judges one window: the list of breached thresholds (empty means
    /// compliant).
    pub fn breaches(&self, w: &WindowStats) -> Vec<String> {
        let mut out = Vec::new();
        // Latency thresholds are judged only against real samples: an empty
        // window histogram reports zeroed percentiles, and judging those
        // would silently *pass* any `p99<X` bound in a window where no
        // commit ever landed (the failure mode the `lat_samples` field
        // exists to block). Stalls are still caught by `tps>`/`abort<`.
        if w.lat_samples > 0 {
            if let Some(max) = self.p50_max_us {
                if w.p50_us >= max {
                    out.push(format!("p50 {}us >= {}us", w.p50_us, max));
                }
            }
            if let Some(max) = self.p99_max_us {
                if w.p99_us >= max {
                    out.push(format!("p99 {}us >= {}us", w.p99_us, max));
                }
            }
            if let Some(max) = self.p999_max_us {
                if w.p999_us >= max {
                    out.push(format!("p999 {}us >= {}us", w.p999_us, max));
                }
            }
        }
        if let Some(max) = self.abort_rate_max {
            let rate = w.abort_rate();
            if rate >= max {
                out.push(format!("abort_rate {:.4} >= {:.4}", rate, max));
            }
        }
        if let Some(min) = self.min_tps {
            let tps = w.tps();
            if tps <= min {
                out.push(format!("tps {:.1} <= {:.1}", tps, min));
            }
        }
        out
    }
}

/// The verdict for one loaded window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowVerdict {
    /// The judged measurements.
    pub stats: WindowStats,
    /// True when no threshold was breached.
    pub ok: bool,
    /// Human-readable breach descriptions (empty when `ok`).
    pub breaches: Vec<String>,
}

/// The final pass/fail of one run against one [`SloSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloOutcome {
    /// True when the SLO was met (see module docs for the sustain rule).
    pub pass: bool,
    /// Loaded windows judged.
    pub judged: u32,
    /// Judged windows that were compliant.
    pub compliant: u32,
    /// Length of the compliant streak ending at the last loaded window.
    pub tail_streak: u32,
    /// Why the run passed or failed, one line.
    pub reason: String,
}

/// Evaluates a run's window records against `spec`. Only loaded windows
/// (offered > 0) are judged — the warmup before arrivals start and the
/// drain tail after they stop are skipped. Returns the per-window verdict
/// stream and the final outcome.
pub fn evaluate(spec: &SloSpec, windows: &[WindowStats]) -> (Vec<WindowVerdict>, SloOutcome) {
    let verdicts: Vec<WindowVerdict> = windows
        .iter()
        .filter(|w| w.offered > 0)
        .map(|w| {
            let breaches = spec.breaches(w);
            WindowVerdict {
                stats: *w,
                ok: breaches.is_empty(),
                breaches,
            }
        })
        .collect();
    let judged = verdicts.len() as u32;
    let compliant = verdicts.iter().filter(|v| v.ok).count() as u32;
    let tail_streak = verdicts.iter().rev().take_while(|v| v.ok).count() as u32;
    let pass = judged >= spec.sustain && tail_streak >= spec.sustain;
    let reason = if judged < spec.sustain {
        format!("only {judged} loaded windows; sustain={} requires more", spec.sustain)
    } else if pass {
        format!(
            "last {tail_streak} loaded windows compliant (sustain={}, {compliant}/{judged} overall)",
            spec.sustain
        )
    } else {
        let last_bad = verdicts
            .iter()
            .rev()
            .find(|v| !v.ok)
            .map(|v| format!("window {}: {}", v.stats.seq, v.breaches.join("; ")))
            .unwrap_or_default();
        format!(
            "tail streak {tail_streak} < sustain={} ({compliant}/{judged} compliant; {last_bad})",
            spec.sustain
        )
    };
    (
        verdicts,
        SloOutcome {
            pass,
            judged,
            compliant,
            tail_streak,
            reason,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(seq: u64, offered: u64, committed: u64, shed: u64, p99_us: u64) -> WindowStats {
        WindowStats {
            seq,
            dur_us: 250_000,
            offered,
            shed,
            committed,
            lat_samples: committed,
            p50_us: p99_us / 2,
            p99_us,
            p999_us: p99_us * 2,
        }
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let spec = SloSpec::parse("p99<50ms,abort<5%,sustain=8").expect("parses");
        assert_eq!(spec.p99_max_us, Some(50_000));
        assert_eq!(spec.abort_rate_max, Some(0.05));
        assert_eq!(spec.sustain, 8);
        assert_eq!(spec.p50_max_us, None);
        let spec = SloSpec::parse("p50<500us,p999<2s,tps>100").expect("parses");
        assert_eq!(spec.p50_max_us, Some(500));
        assert_eq!(spec.p999_max_us, Some(2_000_000));
        assert_eq!(spec.min_tps, Some(100.0));
        assert_eq!(SloSpec::parse(""), Ok(SloSpec::default()));
        assert!(SloSpec::parse("p99<50").is_err(), "unit required");
        assert!(SloSpec::parse("nope").is_err());
        assert!(SloSpec::default().label().contains("p99<50ms"));
    }

    #[test]
    fn sustained_compliance_passes_and_tail_breach_fails() {
        let spec = SloSpec {
            p99_max_us: Some(50_000),
            abort_rate_max: Some(0.05),
            sustain: 3,
            ..SloSpec::parse("").unwrap_or_default()
        };
        // Warmup breach is forgiven once the tail sustains.
        let run = [
            w(0, 0, 0, 0, 0), // unloaded: skipped
            w(1, 100, 60, 0, 90_000),
            w(2, 100, 100, 0, 10_000),
            w(3, 100, 100, 1, 20_000),
            w(4, 100, 100, 0, 30_000),
            w(5, 0, 40, 0, 10_000), // drain: skipped
        ];
        let (verdicts, outcome) = evaluate(&spec, &run);
        assert_eq!(verdicts.len(), 4);
        assert!(!verdicts.first().map(|v| v.ok).unwrap_or(true));
        assert!(outcome.pass, "{}", outcome.reason);
        assert_eq!(outcome.tail_streak, 3);
        // A breach inside the tail window fails the run.
        let bad = [
            w(1, 100, 100, 0, 10_000),
            w(2, 100, 100, 0, 10_000),
            w(3, 100, 20, 30, 10_000), // shedding storm
            w(4, 100, 100, 0, 10_000),
        ];
        let (_, outcome) = evaluate(&spec, &bad);
        assert!(!outcome.pass, "{}", outcome.reason);
        assert!(outcome.reason.contains("abort_rate"), "{}", outcome.reason);
        // Too few loaded windows cannot pass.
        let (_, outcome) = evaluate(&spec, &run[1..3]);
        assert!(!outcome.pass);
    }

    #[test]
    fn empty_latency_window_is_not_judged_on_latency() {
        let spec = SloSpec {
            p50_max_us: Some(1),
            p99_max_us: Some(1),
            p999_max_us: Some(1),
            abort_rate_max: None,
            min_tps: None,
            sustain: 1,
        };
        // No samples: the zeroed percentiles must neither pass nor breach
        // the (impossible) `<1us` bounds — latency is simply not judged.
        let empty = WindowStats {
            offered: 10,
            ..w(0, 10, 0, 0, 0)
        };
        assert_eq!(empty.lat_samples, 0);
        assert!(spec.breaches(&empty).is_empty());
        // One real sample at 5us breaches all three bounds.
        let mut loaded = w(1, 10, 1, 0, 5);
        loaded.p50_us = 5;
        loaded.p999_us = 5;
        assert_eq!(spec.breaches(&loaded).len(), 3);
        // A stalled window is still caught by the throughput bound.
        let stall = SloSpec {
            min_tps: Some(1.0),
            ..spec
        };
        assert_eq!(stall.breaches(&empty), vec!["tps 0.0 <= 1.0".to_string()]);
    }

    #[test]
    fn abort_rate_counts_shed_against_offers() {
        assert!((w(0, 100, 90, 10, 1000).abort_rate() - 0.1).abs() < 1e-9);
        // Working off a backlog: more outcomes than offers this window.
        assert!((w(0, 100, 150, 10, 1000).abort_rate() - 10.0 / 160.0).abs() < 1e-9);
        assert!((w(0, 0, 0, 0, 0).abort_rate()).abs() < 1e-12);
        assert!((w(0, 100, 50, 0, 0).tps() - 200.0).abs() < 1e-9);
    }
}
