//! `bench compare A.json B.json`: the per-metric bounds applied to two
//! result files — the A/A check, and the before/after tool of later
//! changes.

use serde_json::Value;

use crate::metrics::{Better, EndToEnd, Stat, END_TO_END};
use crate::report::{plain_runs, summary_in};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is no worse than A's by more than the bound.
    Ok,
    /// It is worse by more than the bound (and the metric's absolute
    /// floor), and both sides' trials hold their values tightly enough to
    /// say so.
    Worse,
    /// Either side holds its value more loosely than the bound
    /// ([`EndToEnd::looseness`]), or — for a timed metric — the reference
    /// kernel itself ran at different speeds in the two runs: they cannot
    /// resolve a difference that small. Not the same as unchanged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's value B's is worse (negative: better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `disturbed`: the machine was not the same machine in the two runs (see
/// [`machines_differ`]). That disqualifies the metrics whose value is a best
/// trial (speeds and durations), not the counts.
pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary, disturbed: bool) -> Verdict {
    let (va, vb) = (m.value_of(a), m.value_of(b));
    if (disturbed && m.stat == Stat::Best) || m.looseness(a).max(m.looseness(b)) > m.bound {
        Verdict::Unresolved
    } else if worsening(m, va, vb) > m.bound && (vb - va).abs() > m.floor {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The reference kernel touches no code of the repository, so when its
/// median timing differs between two runs by more than this share, the
/// machine differed, not the program. On the reference VM each tenth the
/// kernel slows costs the workloads a tenth or more of their tps.
const MACHINE_TOLERANCE: f64 = 0.10;

fn machines_differ(run_a: &Value, run_b: &Value) -> bool {
    let ref_ms = |run: &Value| match run.get("ref_kernel_ms")?.get("median")? {
        Value::F64(ms) if *ms > 0.0 => Some(*ms),
        _ => None,
    };
    match (ref_ms(run_a), ref_ms(run_b)) {
        (Some(a), Some(b)) => a.max(b) / a.min(b) > 1.0 + MACHINE_TOLERANCE,
        _ => false,
    }
}

fn failed_of(run: &Value) -> u64 {
    match run.get("failed") {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

/// Prints one row per (workload, end-to-end metric) of A and returns how
/// many rows are `worse` — counting a workload whose B run is incorrect,
/// or fails more operations than A's, as one, and a workload or metric
/// that A has and B lacks as one each: a run that did not finish must not
/// compare clean.
pub fn compare(a: &Value, b: &Value) -> usize {
    let b_runs = plain_runs(b);
    let mut worse = 0usize;
    println!(
        "{:<18} {:<18} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A",
        "A [q1, q3]",
        "B",
        "B [q1, q3]",
        "worse by",
        "bound"
    );
    for (name, run_a) in plain_runs(a) {
        let Some((_, run_b)) = b_runs.iter().find(|(n, _)| *n == name) else {
            worse += 1;
            println!("{name:<18} (absent from B)  worse");
            continue;
        };
        if run_b.get("correct") != Some(&Value::Bool(true)) || failed_of(run_b) > failed_of(run_a) {
            worse += 1;
            println!(
                "{name:<18} {:<18} failed operations: A {}, B {}; B correct: {:?}  worse",
                "(correctness)",
                failed_of(run_a),
                failed_of(run_b),
                run_b.get("correct")
            );
        }
        let disturbed = machines_differ(run_a, run_b);
        if disturbed {
            println!("{name:<18} (the reference kernel's speed differs between A and B by more than 10 %)");
        }
        for m in END_TO_END {
            let Some(sa) = summary_in(run_a, m.name) else {
                continue; // a metric newer than A: nothing to hold B to
            };
            let Some(sb) = summary_in(run_b, m.name) else {
                worse += 1;
                println!("{name:<18} {:<18} (absent from B)  worse", m.name);
                continue;
            };
            let verdict = judge(m, &sa, &sb, disturbed);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{name:<18} {:<18} {:>12.4} {:>22} {:>12.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                m.value_of(&sa),
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                m.value_of(&sb),
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                worsening(m, m.value_of(&sa), m.value_of(&sb)) * 100.0,
                m.bound * 100.0,
                verdict.label()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_file, run_record};
    use crate::run::{MetricValue, RunOutput};

    const fn metric(name: &'static str, better: Better, stat: Stat, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name,
            unit: "x",
            better,
            stat,
            bound,
            floor,
        }
    }
    const MSGS: EndToEnd = metric("msgs_per_commit", Better::Lower, Stat::Median, 0.10, 0.0);
    const TPS: EndToEnd = metric("tps", Better::Higher, Stat::Best, 0.10, 0.0);
    const SETUP: EndToEnd = metric("setup_s", Better::Lower, Stat::Best, 0.25, 0.5);

    /// Trials within 1 % either side of `m`.
    fn tight(m: f64) -> Summary {
        Summary::of(&[m * 0.99, m * 0.995, m, m * 1.005, m * 1.01])
    }

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        // Best of a higher-is-better metric: the maximum.
        assert_eq!(TPS.value_of(&tight(1000.0)), 1010.0);
        assert_eq!(judge(&TPS, &tight(1000.0), &tight(1200.0), false), Verdict::Ok);
        assert_eq!(judge(&TPS, &tight(1000.0), &tight(950.0), false), Verdict::Ok);
        assert_eq!(judge(&TPS, &tight(1000.0), &tight(800.0), false), Verdict::Worse);
        // Median of a lower-is-better metric.
        assert_eq!(MSGS.value_of(&tight(8.0)), 8.0);
        assert_eq!(judge(&MSGS, &tight(8.0), &tight(4.0), false), Verdict::Ok);
        assert_eq!(judge(&MSGS, &tight(8.0), &tight(12.0), false), Verdict::Worse);
        assert!((worsening(&TPS, 1000.0, 800.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&MSGS, 1.0, 1.5) - 0.5).abs() < 1e-12);
        assert_eq!(worsening(&MSGS, 0.0, 3.0), 0.0);
    }

    #[test]
    fn a_change_under_the_absolute_floor_is_not_a_regression() {
        // +58 % but only +0.22 s: under the floor.
        assert_eq!(judge(&SETUP, &tight(0.38), &tight(0.60), false), Verdict::Ok);
        // +0.6 s but only +20 %: under the bound.
        assert_eq!(judge(&SETUP, &tight(3.0), &tight(3.6), false), Verdict::Ok);
        // Past both.
        assert_eq!(judge(&SETUP, &tight(1.0), &tight(1.6), false), Verdict::Worse);
    }

    #[test]
    fn a_value_held_more_loosely_than_the_bound_is_unresolved_not_ok() {
        // A median whose quartile range is 20 % of it, under a 10 % bound.
        let noisy = Summary::of(&[7.0, 7.2, 8.0, 8.8, 9.0]);
        assert!(MSGS.looseness(&noisy) > MSGS.bound);
        assert_eq!(judge(&MSGS, &noisy, &tight(8.0), false), Verdict::Unresolved);
        assert_eq!(judge(&MSGS, &tight(8.0), &noisy, false), Verdict::Unresolved);
        // Even a large rise cannot be called with runs this loose.
        assert_eq!(judge(&MSGS, &noisy, &tight(16.0), false), Verdict::Unresolved);
        // A best that stands 15 % clear of the upper quartile is as loose;
        // one the upper quartile reaches is not, however wide the rest.
        let lone = Summary::of(&[700.0, 700.0, 700.0, 700.0, 1000.0]); // q3 = 850
        assert_eq!(judge(&TPS, &lone, &tight(1000.0), false), Verdict::Unresolved);
        let backed = Summary::of(&[500.0, 700.0, 980.0, 990.0, 1000.0]);
        assert_eq!(judge(&TPS, &backed, &tight(1000.0), false), Verdict::Ok);
        // Runs on machines of different speed convict no timing, but their
        // counts still count.
        assert_eq!(judge(&TPS, &tight(1000.0), &tight(500.0), true), Verdict::Unresolved);
        assert_eq!(judge(&MSGS, &tight(8.0), &tight(12.0), true), Verdict::Worse);
    }

    /// A healthy plain-run record of `workload` holding `metrics`, all 1.0.
    fn run(workload: &str, metrics: &[&'static str]) -> Value {
        run_at(workload, metrics, 1.0, 3.3)
    }

    /// The same with every metric at `value`, on a machine whose reference
    /// kernel takes `ref_ms`.
    fn run_at(workload: &str, metrics: &[&'static str], value: f64, ref_ms: f64) -> Value {
        let out = RunOutput {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|&name| MetricValue::of(name, "x", vec![value]))
                .collect(),
            ref_kernel_ms: Summary::of(&[ref_ms]),
            errors: Vec::new(),
            spans_file: None,
        };
        run_record(workload, 1, 1, false, &out)
    }

    #[test]
    fn a_slower_machine_is_not_a_slower_program() {
        let a = result_file(1, vec![run_at("w", &["tps"], 1000.0, 3.3)]);
        // Half the tps on the same machine: worse.
        let b = result_file(1, vec![run_at("w", &["tps"], 500.0, 3.4)]);
        assert_eq!(compare(&a, &b), 1);
        // Half the tps with the reference kernel 30 % slower: unresolved.
        let c = result_file(1, vec![run_at("w", &["tps"], 500.0, 4.3)]);
        assert_eq!(compare(&a, &c), 0);
    }

    #[test]
    fn what_b_lacks_counts_as_worse() {
        let both = ["tps", "msgs_per_commit"];
        let a = result_file(1, vec![run("w1", &both), run("w2", &both)]);
        assert_eq!(compare(&a, &a), 0);
        // B lost a whole workload, and one metric of the other.
        let b = result_file(1, vec![run("w1", &both[..1])]);
        assert_eq!(compare(&a, &b), 2);
        // What only B has is not held against it.
        assert_eq!(compare(&b, &a), 0);
    }
}
