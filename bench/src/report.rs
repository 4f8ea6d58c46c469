//! Run results as text and JSON: the line-per-metric listing, the one-line
//! result object the regression gate reads, and the result files
//! `bench compare` reads.

use std::path::Path;

use serde_json::Value;

use crate::run::{MetricValue, RunOutput};
use crate::stats::Summary;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric a value and a unit.
pub fn result_line(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("metrics", obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always renders")
}

/// One metric per line: name, value, unit, and — where the run repeated
/// the measurement — median, quartiles and count.
pub fn print_metrics(metrics: &[MetricValue]) {
    for m in metrics {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "  {:<42} {:>14.4} {:<6} [median {:.4}, q1 {:.4}, q3 {:.4}, n {}]",
                m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
            );
        } else {
            println!("  {:<42} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// Everything one run of one workload found, as stored in result files.
pub fn run_record(workload: &str, seed: u64, seconds: u64, trace: bool, out: &RunOutput) -> Value {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                    ("median", Value::F64(m.summary.median)),
                    ("q1", Value::F64(m.summary.q1)),
                    ("q3", Value::F64(m.summary.q3)),
                    ("min", Value::F64(m.summary.min)),
                    ("max", Value::F64(m.summary.max)),
                    ("n", Value::U64(m.summary.n as u64)),
                    (
                        "values",
                        Value::Seq(m.values.iter().copied().map(Value::F64).collect()),
                    ),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("trace", Value::Bool(trace)),
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("unstable", Value::Bool(out.unstable())),
        (
            "ref_kernel_ms",
            obj(vec![
                ("median", Value::F64(out.ref_kernel_ms.median)),
                ("q1", Value::F64(out.ref_kernel_ms.q1)),
                ("q3", Value::F64(out.ref_kernel_ms.q3)),
            ]),
        ),
        (
            "errors",
            Value::Seq(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", obj(metrics)),
    ])
}

/// A result file: the runs of one invocation, with what they ran on.
pub fn result_file(seed: u64, runs: Vec<Value>) -> Value {
    obj(vec![
        ("seed", Value::U64(seed)),
        ("clients", Value::U64(crate::workloads::CLIENTS as u64)),
        ("runs", Value::Seq(runs)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).expect("a value tree always renders");
    std::fs::write(path, text + "\n")
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// The summary a run record holds for `metric`, if any.
pub fn summary_in(run: &Value, metric: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Summary {
        median: number(m.get("median")?)?,
        q1: number(m.get("q1")?)?,
        q3: number(m.get("q3")?)?,
        min: number(m.get("min")?)?,
        max: number(m.get("max")?)?,
        n: number(m.get("n")?)? as usize,
    })
}

/// The plain (untraced) run records of a result file, by workload name.
pub fn plain_runs(file: &Value) -> Vec<(String, &Value)> {
    let Some(Value::Seq(runs)) = file.get("runs") else {
        return Vec::new();
    };
    runs.iter()
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
        .filter_map(|r| match r.get("workload") {
            Some(Value::Str(name)) => Some((name.clone(), r)),
            _ => None,
        })
        .collect()
}
