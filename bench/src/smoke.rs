//! Whole-benchmark tests: `BENCHMARK.json` agrees with the tables the code
//! prints from, and a small run of each workload emits every metric it
//! names.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde_json::Value;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::report::read_json;
use crate::run::{run_plain, run_traced, RunArgs, RunOutput, Sizes};
use crate::workloads::{Workload, WORKLOADS};

fn manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    read_json(&path).expect("BENCHMARK.json sits at the repository root and parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected a list, found {other:?}"),
    }
}

fn label(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

#[test]
fn benchmark_json_mirrors_the_code() {
    let m = manifest();
    let Value::Map(entries) = &m else {
        panic!("BENCHMARK.json is an object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(items(&m, "paths"), [Value::Str("bench".into())]);
    assert_eq!(
        items(&m, "command"),
        [Value::Str("bash".into()), Value::Str("bench/run.sh".into())]
    );

    let workloads = items(&m, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let e2e = items(&m, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, t) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), t.name);
        assert_eq!(text(j, "unit"), t.unit, "{}", t.name);
        assert_eq!(text(j, "better"), label(t.better), "{}", t.name);
        assert_eq!(j.get("bound"), Some(&Value::F64(t.bound)), "{}", t.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|t| t.name == "setup_s")
        .expect("required by the gate");
    assert!(setup.unit == "s" && setup.better == Better::Lower);
    assert!(
        END_TO_END.iter().all(|t| t.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = items(&m, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, t) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), t.name);
        assert_eq!(text(j, "unit"), t.unit, "{}", t.name);
        assert_eq!(text(j, "better"), label(t.better), "{}", t.name);
    }
}

/// A run a hundredth the size of the real one.
fn smoke(w: &'static Workload, trace: bool) -> RunOutput {
    let out_dir = std::env::temp_dir().join(format!(
        "bench-smoke-{}-{}-{}",
        std::process::id(),
        w.name,
        u8::from(trace)
    ));
    let args = RunArgs {
        workload: w,
        seed: 11,
        sizes: Sizes {
            trial_txns: 2000,
            setup_reps: 1,
            trials: 2,
            traced_pairs: 1,
            ladder_secs: 0.05,
            micro_div: 20,
        },
        out_dir: &out_dir,
    };
    let out = if trace {
        run_traced(&args)
    } else {
        run_plain(&args)
    };
    if let Some(spans) = &out.spans_file {
        let text = std::fs::read_to_string(spans).expect("the span file was written");
        assert!(text.lines().count() > 100, "{}: spans recorded", w.name);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"layer\":\"bench\""));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    out
}

fn assert_emits(w: &Workload, out: &RunOutput, manifest_key: &str) {
    assert!(out.correct, "{}: {:?}", w.name, out.errors);
    assert!(
        out.attempted >= 4000,
        "{}: two 2k-txn trials were measured",
        w.name
    );
    let m = manifest();
    let wanted: BTreeSet<&str> = items(&m, manifest_key)
        .iter()
        .map(|j| text(j, "name"))
        .collect();
    let emitted: BTreeSet<&str> = out.metrics.iter().map(|v| v.name).collect();
    assert_eq!(emitted, wanted, "{} / {manifest_key}", w.name);
    assert_eq!(
        out.metrics.len(),
        wanted.len(),
        "{}: each metric once",
        w.name
    );
    for v in &out.metrics {
        assert!(v.summary.median.is_finite(), "{} / {}", w.name, v.name);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let out = smoke(w, false);
        assert_emits(w, &out, "end_to_end");
        // End-to-end metrics are gated as shares of a median: never 0.
        for v in &out.metrics {
            assert!(v.summary.median > 0.0, "{} / {}", w.name, v.name);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_its_spans() {
    for w in &WORKLOADS {
        let out = smoke(w, true);
        assert_emits(w, &out, "per_layer");
        assert!(out.spans_file.is_some(), "{}", w.name);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|v| v.name == name)
                .map_or(0.0, |v| v.summary.median)
        };
        assert!(value("ledger.coverage") > 0.0, "{}", w.name);
        assert!(value("net.control.ticks_per_commit") > 0.0, "{}", w.name);
        assert_eq!(
            value("net.tcp.frames_per_commit") > 0.0,
            w.tcp,
            "{}",
            w.name
        );
        assert_eq!(
            value("dur.wal.records_per_commit") > 0.0,
            w.wal,
            "{}",
            w.name
        );
        assert_eq!(
            value("mvcc.snapshot_reads_per_reader") > 0.0,
            w.mvcc,
            "{}",
            w.name
        );
    }
}
