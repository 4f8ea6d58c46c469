//! End-to-end tests of the `wtpg` binary.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::io::Write as _;
use std::process::{Command, Stdio};

const FIGURE1: &str =
    "T1: r(A:1) -> r(B:3) -> w(A:1)\nT2: r(C:1) -> w(A:1)\nT3: w(C:1) -> r(D:3)\n";

fn wtpg(args: &[&str], stdin: Option<&str>) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wtpg"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn wtpg");
    if let Some(input) = stdin {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("write stdin");
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("wait wtpg");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn plan_analyses_figure1() {
    let (stdout, _, ok) = wtpg(&["plan", "-"], Some(FIGURE1));
    assert!(ok);
    assert!(stdout.contains("chain-form: YES"));
    assert!(stdout.contains("optimal critical path 6"));
    assert!(stdout.contains("T1 -> T2"));
    assert!(stdout.contains("T3 -> T2"));
    assert!(stdout.contains("heuristic is optimal here"));
}

#[test]
fn dot_emits_graphviz() {
    let (stdout, _, ok) = wtpg(&["dot", "-"], Some(FIGURE1));
    assert!(ok);
    assert!(stdout.starts_with("digraph wtpg"));
    assert!(stdout.contains("style=dashed"));
}

#[test]
fn trace_narrates_chain_decisions() {
    let (stdout, _, ok) = wtpg(&["trace", "-", "--scheduler", "chain"], Some(FIGURE1));
    assert!(ok);
    assert!(stdout.contains("scheduler: CHAIN"));
    // Example 3.3: T2's first step is delayed at least once.
    assert!(stdout.contains("T2 step 0 r(P2:1) delayed"));
    assert!(stdout.contains("all 3 transactions committed"));
}

#[test]
fn trace_supports_every_scheduler_name() {
    for name in [
        "chain",
        "k2",
        "gwtpg",
        "asl",
        "c2pl",
        "chain-c2pl",
        "k2-c2pl",
        "nodc",
        // The aliases `net` and `load` take: one name table serves all.
        "2pl",
        "kwtpg",
        "g-wtpg",
    ] {
        let (stdout, stderr, ok) = wtpg(&["trace", "-", "--scheduler", name], Some(FIGURE1));
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains("all 3 transactions committed"), "{name}");
    }
}

#[test]
fn simulate_prints_a_report() {
    let (stdout, _, ok) = wtpg(
        &[
            "simulate",
            "--pattern",
            "2",
            "--hots",
            "4",
            "--scheduler",
            "k2",
            "--lambda",
            "0.5",
            "--sim-ms",
            "60000",
        ],
        None,
    );
    assert!(ok);
    assert!(stdout.contains("Pattern2(hots=4)"));
    assert!(stdout.contains("throughput"));
    assert!(stdout.contains("E(q) evals"));
}

#[test]
fn simulate_trace_feeds_obs_summary_diff_and_chrome() {
    let dir = std::env::temp_dir().join("wtpg-cli-obs-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("sim_trace.jsonl");
    let trace_str = trace.to_str().expect("utf-8 temp path");
    let (stdout, stderr, ok) = wtpg(
        &[
            "simulate", "--pattern", "1", "--scheduler", "chain", "--lambda", "0.5", "--sim-ms",
            "60000", "--trace", trace_str,
        ],
        None,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote trace"), "{stdout}");
    let (summary, stderr, ok) = wtpg(&["obs", "summary", trace_str], None);
    assert!(ok, "{stderr}");
    assert!(summary.contains("txn_response_ms"), "{summary}");
    assert!(summary.contains("cache: hits="), "{summary}");
    assert!(summary.contains("lock_wait"), "{summary}");
    assert!(summary.contains("txn"), "{summary}");

    let (diff, stderr, ok) = wtpg(&["obs", "diff", trace_str, trace_str], None);
    assert!(ok, "{stderr}");
    assert!(diff.contains("no counter or span differences"), "{diff}");

    // The Chrome export must be real JSON in trace_event object format.
    let (chrome, stderr, ok) = wtpg(&["obs", "chrome", trace_str], None);
    assert!(ok, "{stderr}");
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome output parses");
    let events = match doc.get("traceEvents") {
        Some(serde_json::Value::Seq(evs)) => evs,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    let mut open_spans = 0i64;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
        let ph = match ev.get("ph") {
            Some(serde_json::Value::Str(s)) => s.clone(),
            other => panic!("ph is not a string: {other:?}"),
        };
        match ph.as_str() {
            "B" => open_spans += 1,
            "E" => open_spans -= 1,
            "X" => assert!(ev.get("dur").is_some(), "X event missing dur: {ev:?}"),
            "C" | "i" => assert!(ev.get("args").is_some(), "{ph} event missing args: {ev:?}"),
            other => panic!("unexpected phase {other:?}"),
        }
        phases.insert(ph);
    }
    assert!(open_spans >= 0, "more span ends than begins");
    for needed in ["B", "E", "C", "X"] {
        assert!(phases.contains(needed), "no {needed} events in {phases:?}");
    }
    std::fs::remove_file(&trace).ok();
}

/// A live `wtpg load --jsonl` file holds window records and nothing else;
/// the run stamps them in µs, and Chrome's `ts` is µs, so the export
/// must not scale them as if they were the simulator's ms ticks.
#[test]
fn chrome_export_of_a_windows_only_trace_keeps_microseconds() {
    let reg = wtpg_obs::Registry::new();
    reg.counter(wtpg_obs::window::metric::COMMITS).add(7);
    let trace = std::env::temp_dir().join(format!("wtpg-cli-windows-{}.jsonl", std::process::id()));
    std::fs::write(&trace, wtpg_obs::jsonl::encode(&[reg.flush(250_000, 0, 250_000)]))
        .expect("write trace");
    let (chrome, stderr, ok) = wtpg(&["obs", "chrome", trace.to_str().expect("utf-8")], None);
    std::fs::remove_file(&trace).ok();
    assert!(ok, "{stderr}");
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome output parses");
    let Some(serde_json::Value::Seq(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing: {chrome}");
    };
    let [window] = events.as_slice() else {
        panic!("one window, one event: {chrome}");
    };
    assert_eq!(window.get("ts"), Some(&serde_json::Value::U64(250_000)), "{chrome}");
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, stderr, ok) = wtpg(&["plan", "-"], Some("T1: fly(A:1)"));
    assert!(!ok);
    assert!(stderr.contains("error"));
    let (_, stderr, ok) = wtpg(&["simulate", "--pattern", "9"], None);
    assert!(!ok);
    assert!(stderr.contains("pattern"));
    let (_, stderr, ok) = wtpg(&["frobnicate"], None);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn help_lists_commands() {
    let (_, stderr, ok) = wtpg(&["--help"], None);
    assert!(ok);
    for cmd in ["plan", "dot", "trace", "simulate", "net", "load", "obs"] {
        assert!(stderr.contains(cmd));
    }
}

/// Every way of asking for the usage gets it, and exits 0 — as a command,
/// as a flag, and as a flag of any command (where it used to be an unknown
/// option and exit 1).
#[test]
fn every_spelling_of_help_prints_the_usage_and_succeeds() {
    let (_, usage, ok) = wtpg(&["--help"], None);
    assert!(ok && usage.contains("usage:"));
    for args in [
        &["help"][..],
        &["-h"],
        &["net", "--help"],
        &["load", "--lambda", "100", "--help"],
        &["simulate", "--help"],
        &["plan", "--help"],
        &["obs", "summary", "--help"],
        &["top", "--help"],
    ] {
        let (stdout, stderr, ok) = wtpg(args, None);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stderr, usage, "{args:?}");
        assert_eq!(stdout, "", "{args:?} ran something");
    }
}

#[test]
fn illegal_cells_fail_with_the_plan_error_text() {
    let (_, stderr, ok) = wtpg(&["net", "--txns", "20", "--mvcc", "--fault", "kill"], None);
    assert!(!ok, "mvcc + kill must exit non-zero");
    assert!(
        stderr.contains("the MVCC snapshot plane is incompatible with kill faults"),
        "{stderr}"
    );
    let (_, stderr, ok) = wtpg(
        &["net", "--txns", "20", "--fault", "kill", "--durability", "none"],
        None,
    );
    assert!(!ok, "kill without a log must exit non-zero");
    assert!(
        stderr.contains("a kill fault needs durability buffered or sync"),
        "{stderr}"
    );
}

#[test]
fn a_used_wal_dir_is_refused_and_an_empty_one_accepted() {
    let dir = std::env::temp_dir().join(format!("wtpg-cli-wal-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the empty wal dir");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let cell = ["net", "--txns", "40", "--durability", "sync", "--wal-dir", dir_str];
    let (stdout, stderr, ok) = wtpg(&cell, None);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("committed  : 40"), "{stdout}");
    let (_, stderr, ok) = wtpg(&[&cell[..], &["--fault", "kill"]].concat(), None);
    assert!(!ok, "a second run into the same directory must exit non-zero");
    assert!(stderr.contains("already holds a run's state"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The retired `wtpg load` flag, spelled in two halves so that a grep for it
/// over the sources finds nothing.
const NO_TELEMETRY: &str = concat!("--no-", "telemetry");

#[test]
fn grid_mode_is_gone_like_any_unknown_flag() {
    // A data node applies and logs a step whole: there is no chunk size.
    for (cmd, flag) in [
        ("net", "--grid"),
        ("load", "--grid"),
        ("net", "--chunk"),
        ("load", "--chunk"),
    ] {
        let (_, stderr, ok) = wtpg(&[cmd, flag], None);
        assert!(!ok, "{cmd} {flag} must fail");
        let refused = format!("unknown option {flag:?}");
        assert!(stderr.contains(&refused), "{cmd}: {stderr}");
    }
    for flag in ["--endurance-txns", "--bisect-iters", "--probe-secs"] {
        let (_, stderr, ok) = wtpg(&["load", flag, "1"], None);
        assert!(!ok, "load {flag} must fail");
        assert!(stderr.contains("unknown option"), "{flag}: {stderr}");
    }
    // A run always keeps its books, so there is no mode without them.
    let (_, stderr, ok) = wtpg(&["load", NO_TELEMETRY], None);
    assert!(!ok, "load {NO_TELEMETRY} must fail");
    assert!(stderr.contains(&format!("unknown option {NO_TELEMETRY:?}")), "{stderr}");
    // The worker-thread engine went the same way, as a whole command: it
    // is refused like any word `wtpg` never knew, with the help after it.
    let out = Command::new(env!("CARGO_BIN_EXE_wtpg"))
        .args(["engine", "--sched", "chain"])
        .output()
        .expect("run wtpg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command \"engine\""), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("wtpg engine"), "help still lists the command: {stderr}");
}

/// One description of a cell: every flag that describes the cell itself is
/// taken by `net` and `load` alike, with the same spelling and meaning.
#[test]
fn net_and_load_accept_the_same_cell_flags() {
    let dir = std::env::temp_dir().join(format!("wtpg-cli-shared-test-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let shared: &[&[&str]] = &[
        &["--sched", "k2"],
        &["--transport", "tcp"],
        &["--pattern", "4"],
        &["--hots", "4"],
        &["--groups", "2"],
        &["--clients", "2"],
        &["--shards", "2"],
        &["--durability", "buffered"],
        &["--wal-dir", dir_str],
        &["--read-mix", "0.5"],
        &["--read-theta", "0.9"],
        &["--mvcc"],
        &["--seed", "7"],
        &["--txns", "60"],
        &["--k", "2"],
        &["--keeptime", "2000"],
    ];
    let flags: Vec<&str> = shared.iter().flat_map(|f| f.iter().copied()).collect();
    for cmd in [&["net"][..], &["load", "--lambda", "20000"][..]] {
        let _ = std::fs::remove_dir_all(&dir);
        let args = [cmd, &flags[..]].concat();
        let (stdout, stderr, ok) = wtpg(&args, None);
        assert!(ok, "{cmd:?}: {stderr}");
        assert!(stdout.contains("K-WTPG | tcp transport"), "{cmd:?}: {stdout}");
        assert!(stdout.contains("2 clients × 8 data nodes"), "{cmd:?}: {stdout}");
        assert!(stdout.contains("readers"), "{cmd:?}: {stdout}");
        assert!(dir.join("node0.wal").exists(), "{cmd:?}: --wal-dir ignored");
    }
    // One flag at a time, so a flag one command forgot cannot hide behind
    // the others.
    for flag in shared {
        for cmd in [&["net"][..], &["load", "--lambda", "20000"][..]] {
            let _ = std::fs::remove_dir_all(&dir);
            let args = [cmd, &["--txns", "20"][..], flag].concat();
            let (_, stderr, ok) = wtpg(&args, None);
            assert!(ok, "{cmd:?} {flag:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_no_longer_mentions_the_retired_flags() {
    let (_, stderr, ok) = wtpg(&["--help"], None);
    assert!(ok);
    for gone in [
        "--grid",
        "--endurance-txns",
        "--bisect-iters",
        "--probe-secs",
        "--chunk",
        NO_TELEMETRY,
    ] {
        assert!(!stderr.contains(gone), "help still mentions {gone}");
    }
    for kept in ["--lambda", "--slo", "--fault", "--wal-dir", "--mvcc"] {
        assert!(stderr.contains(kept), "help lost {kept}");
    }
}

/// The messages line counts what the actors handled, batched or not: a
/// closed-loop run of 400 transactions prints 400 submits and 400 commit
/// acks, however the client links coalesced them into frames.
#[test]
fn net_prints_the_true_submit_count() {
    let args: Vec<&str> = "net --sched k2 --pattern 2 --hots 4 --clients 2 --txns 400"
        .split(' ')
        .collect();
    let (stdout, stderr, ok) = wtpg(&args, None);
    assert!(ok, "{stderr}");
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("messages"))
        .unwrap_or_else(|| panic!("no messages line: {stdout}"));
    assert!(line.contains("— 400 submits, 400 commit acks"), "{line}");
}
