//! The fixture corpus proves each lint rule fires on known-bad input and
//! that the waiver mechanism silences justified occurrences, both through
//! the library API and through the installed binary's exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

use wtpg_lint::{lint_file, rules_for, rust_files, unsafe_scope, Rule, RuleSet, SourceFile};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn findings_for(name: &str) -> Vec<wtpg_lint::Finding> {
    lint_file(&fixture(name), RuleSet::ALL).expect("fixture readable")
}

#[test]
fn determinism_fixture_fires() {
    let f = findings_for("bad_determinism.rs");
    assert!(f.iter().all(|f| f.rule == Rule::Determinism), "{f:?}");
    for token in ["HashMap", "HashSet", "SystemTime", "Instant", "thread_rng"] {
        assert!(
            f.iter().any(|f| f.message.contains(token)),
            "no finding for {token}: {f:?}"
        );
    }
}

#[test]
fn panic_safety_fixture_fires() {
    let f = findings_for("bad_panic_safety.rs");
    assert!(f.iter().all(|f| f.rule == Rule::PanicSafety), "{f:?}");
    for needle in ["unwrap()", "expect()", "slice index", "panic!", "unreachable!", "todo!"] {
        assert!(
            f.iter().any(|f| f.message.contains(needle)),
            "no finding for {needle}: {f:?}"
        );
    }
}

#[test]
fn api_docs_fixture_fires() {
    let f = findings_for("bad_api_docs.rs");
    let docs: Vec<_> = f.iter().filter(|f| f.rule == Rule::ApiDocs).collect();
    // Exactly the three undocumented pub fns; the documented one and the
    // pub(crate) one must not fire.
    assert_eq!(docs.len(), 3, "{f:?}");
}

#[test]
fn waived_fixture_is_clean() {
    let f = findings_for("waived_clean.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn rt_scope_fixture_is_clean_under_runtime_rules_only() {
    // The `wtpg-rt` rule set: determinism off, panic-safety and api-docs on.
    let rt_rules = RuleSet {
        determinism: false,
        panic_safety: true,
        api_docs: true,
    };
    let clean = lint_file(&fixture("rt_scope.rs"), rt_rules).expect("fixture readable");
    assert!(clean.is_empty(), "{clean:?}");
    // Under the full rule set the same file has determinism findings
    // (Instant) and nothing else — proving the exemption is what keeps it
    // clean, not the file being trivially empty.
    let full = findings_for("rt_scope.rs");
    assert!(!full.is_empty(), "fixture must trip determinism under ALL");
    assert!(full.iter().all(|f| f.rule == Rule::Determinism), "{full:?}");
}

#[test]
fn workspace_policy_scopes_wtpg_rt() {
    // Runtime sources: determinism exempt, panic-safety + api-docs enforced.
    for file in [
        "crates/wtpg-rt/src/control.rs",
        "crates/wtpg-rt/src/queue.rs",
        "crates/wtpg-rt/src/lib.rs",
    ] {
        let r = rules_for(Path::new(file));
        assert!(!r.determinism, "{file}: determinism must be exempt");
        assert!(r.panic_safety, "{file}: panic-safety must be enforced");
        assert!(r.api_docs, "{file}: api-docs must be enforced");
    }
    // The simulator keeps the determinism rule.
    let sim = rules_for(Path::new("crates/wtpg-sim/src/machine.rs"));
    assert!(sim.determinism);
    // Core hot path keeps all three: the schedulers, the WTPG and the
    // id-keyed window the per-transaction books sit on.
    for file in [
        "crates/wtpg-core/src/sched/chain.rs",
        "crates/wtpg-core/src/wtpg.rs",
        "crates/wtpg-core/src/window.rs",
    ] {
        let core = rules_for(Path::new(file));
        assert!(
            core.determinism && core.panic_safety && core.api_docs,
            "{file}"
        );
    }
    // The rest of the core is held to determinism and api-docs only.
    let lock = rules_for(Path::new("crates/wtpg-core/src/lock.rs"));
    assert!(lock.determinism && !lock.panic_safety && lock.api_docs);
}

#[test]
fn obs_scope_fixture_is_clean_under_all_rules() {
    // The obs core rule set is ALL three rules; the fixture's `Instant`
    // phase names carry waivers. Unused waivers are themselves findings, so
    // emptiness proves the token fired *and* was suppressed.
    let f = findings_for("obs_scope.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn workspace_policy_scopes_wtpg_obs() {
    // The crate reads no clock: every file is under all three rules, the
    // old clock files' names included.
    for file in [
        "crates/wtpg-obs/src/event.rs",
        "crates/wtpg-obs/src/hist.rs",
        "crates/wtpg-obs/src/jsonl.rs",
        "crates/wtpg-obs/src/observer.rs",
        "crates/wtpg-obs/src/summary.rs",
        "crates/wtpg-obs/src/window.rs",
        "crates/wtpg-obs/src/wall.rs",
        "crates/wtpg-obs/src/wclock.rs",
    ] {
        assert_eq!(rules_for(Path::new(file)), RuleSet::ALL, "{file}");
    }
}

#[test]
fn workspace_policy_scopes_wtpg_dur() {
    // The log, its snapshots and replay read no clock: every file is under
    // all three rules.
    for file in [
        "crates/wtpg-dur/src/lib.rs",
        "crates/wtpg-dur/src/wal.rs",
        "crates/wtpg-dur/src/checkpoint.rs",
        "crates/wtpg-dur/src/replay.rs",
    ] {
        assert_eq!(rules_for(Path::new(file)), RuleSet::ALL, "{file}");
    }
}

#[test]
fn net_scope_fixture_is_clean_under_actor_rules_only() {
    // The actor-loop rule set: determinism off, panic-safety + api-docs on.
    let actor_rules = RuleSet {
        determinism: false,
        panic_safety: true,
        api_docs: true,
    };
    let clean = lint_file(&fixture("net_scope.rs"), actor_rules).expect("fixture readable");
    assert!(clean.is_empty(), "{clean:?}");
    // Under the full rule set the same file trips determinism (Instant) and
    // nothing else — the exemption is what keeps it clean.
    let full = findings_for("net_scope.rs");
    assert!(!full.is_empty(), "fixture must trip determinism under ALL");
    assert!(full.iter().all(|f| f.rule == Rule::Determinism), "{full:?}");
}

#[test]
fn workspace_policy_scopes_wtpg_net() {
    // Actor loops and the socket transport: wall clocks by design, but
    // panic-safety and api-docs still enforced.
    for file in [
        "crates/wtpg-net/src/actor.rs",
        "crates/wtpg-net/src/control.rs",
        "crates/wtpg-net/src/client.rs",
        "crates/wtpg-net/src/data.rs",
        "crates/wtpg-net/src/runtime.rs",
        "crates/wtpg-net/src/tcp.rs",
    ] {
        let r = rules_for(Path::new(file));
        assert!(!r.determinism, "{file}: determinism must be exempt");
        assert!(r.panic_safety, "{file}: panic-safety must be enforced");
        assert!(r.api_docs, "{file}: api-docs must be enforced");
    }
    // The protocol layer keeps all three: codecs, message types, fault
    // plans, the coalescer's delay line and reports must be deterministic
    // for replay-by-seed.
    for file in [
        "crates/wtpg-net/src/batch.rs",
        "crates/wtpg-net/src/msg.rs",
        "crates/wtpg-net/src/codec.rs",
        "crates/wtpg-net/src/error.rs",
        "crates/wtpg-net/src/fault.rs",
        "crates/wtpg-net/src/report.rs",
        "crates/wtpg-net/src/transport.rs",
        "crates/wtpg-net/src/lib.rs",
    ] {
        let r = rules_for(Path::new(file));
        assert!(r.determinism, "{file}: determinism must be enforced");
        assert!(r.panic_safety, "{file}: panic-safety must be enforced");
        assert!(r.api_docs, "{file}: api-docs must be enforced");
    }
}

/// Runs the installed binary with `args`, returning (success, stdout).
fn run_bin(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wtpg-lint"))
        .args(args)
        .output()
        .expect("lint binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn fx(name: &str) -> String {
    fixture(name).to_string_lossy().into_owned()
}

#[test]
fn lock_order_fixture_fires_and_ordered_twin_is_clean() {
    let manifest = fx("locks/lint-locks.toml");
    let (ok, out) = run_bin(&["--pass", "locks", "--manifest", &manifest, &fx("locks/actor.rs")]);
    assert!(!ok, "lock-cycle fixture must fail the lint:\n{out}");
    assert!(out.contains("out of declared order"), "{out}");
    assert!(out.contains("call to `touch_ctl`"), "transitive inversion missing:\n{out}");
    assert!(out.contains("undeclared lock acquisition"), "{out}");
    let (ok, out) = run_bin(&["--pass", "locks", "--manifest", &manifest, &fx("locks/ordered.rs")]);
    assert!(ok, "rank-respecting fixture must pass:\n{out}");
}

#[test]
fn protocol_fixtures_fire_missing_arm_batch_recursion_and_idempotency() {
    let msg = fx("proto/msg.rs");
    let (ok, out) = run_bin(&["--pass", "protocol", "--msg", &msg, &fx("proto/control.rs")]);
    assert!(!ok, "control fixture must fail the lint:\n{out}");
    assert!(out.contains("`Msg::Pong`"), "missing-arm finding absent:\n{out}");
    assert!(out.contains("nested batches"), "batch-recursion finding absent:\n{out}");
    let (ok, out) = run_bin(&["--pass", "protocol", "--msg", &msg, &fx("proto/data.rs")]);
    assert!(!ok, "data fixture must fail the lint:\n{out}");
    assert!(out.contains("dedup structure"), "idempotency finding absent:\n{out}");
}

#[test]
fn taint_fixture_fires_across_the_call_graph() {
    let (core, wall) = (fx("taint/core.rs"), fx("taint/wall.rs"));
    let (ok, out) = run_bin(&["--pass", "taint", "--protected", "core.rs", &core, &wall]);
    assert!(!ok, "taint leak must fail the lint:\n{out}");
    assert!(out.contains("reaches nondeterministic"), "{out}");
    assert!(out.contains("now_us"), "{out}");
    // With nothing protected, the same pair is clean: the wall-clock read
    // is sanctioned where it lives.
    let (ok, out) = run_bin(&["--pass", "taint", "--protected", "no-such-file", &core, &wall]);
    assert!(ok, "unprotected pair must pass:\n{out}");
}

#[test]
fn schema_fixture_detects_drift_and_accepts_matching_lock() {
    let (msg, codec) = (fx("schema/msg.rs"), fx("schema/codec.rs"));
    let good = fx("schema/good.lock");
    let (ok, out) = run_bin(&["--pass", "schema", "--msg", &msg, "--codec", &codec, "--lock", &good]);
    assert!(ok, "matching lock must pass:\n{out}");
    let drift = fx("schema/drift.lock");
    let (ok, out) = run_bin(&["--pass", "schema", "--msg", &msg, "--codec", &codec, "--lock", &drift]);
    assert!(!ok, "drifted lock must fail the lint:\n{out}");
    assert!(out.contains("wire tag for `Msg::Pong`"), "{out}");
    assert!(out.contains("`MAX_FRAME`"), "{out}");
}

#[test]
fn unsafe_scope_fixture_fires_outside_the_keywords_one_home() {
    let mut files: Vec<SourceFile> = rust_files(&fixture("unsafe_scope"))
        .expect("fixture tree")
        .iter()
        .map(|p| SourceFile::read(p).expect("fixture readable"))
        .collect();
    assert_eq!(files.len(), 5);
    let mut findings = Vec::new();
    unsafe_scope::check(&mut files, &mut findings);
    assert!(findings.iter().all(|f| f.rule == Rule::UnsafeScope), "{findings:?}");
    let at = |file: &str| -> Vec<(usize, &str)> {
        findings
            .iter()
            .filter(|f| f.file.ends_with(file))
            .map(|f| (f.line, f.message.as_str()))
            .collect()
    };
    // `wtpg-net`: `deny` at the root, the keyword in `poll.rs` — clean.
    assert!(at("wtpg-net/src/lib.rs").is_empty() && at("wtpg-net/src/poll.rs").is_empty());
    assert!(at("wtpg-rt/src/queue.rs").is_empty());
    // Any other crate: `deny` is not `forbid`, and each use of the keyword
    // fires — a block, an `unsafe impl`, a test module — but not the
    // comment, the string literal or the lint name.
    let rt = at("wtpg-rt/src/lib.rs");
    assert_eq!(rt.len(), 4, "{rt:?}");
    assert!(rt.contains(&(1, "crate root lacks `#![forbid(unsafe_code)]`")), "{rt:?}");
    for line in [11, 17, 25] {
        assert!(rt.iter().any(|(l, m)| *l == line && m.contains("`unsafe` outside")), "{rt:?}");
    }
    let bin = at("wtpg-rt/src/bin/tool.rs");
    assert_eq!(bin, [(1, "crate root lacks `#![forbid(unsafe_code)]`")]);
}

#[test]
fn json_output_is_wellformed_and_carries_rule_names() {
    let (ok, out) = run_bin(&["--format", "json", &fx("bad_determinism.rs")]);
    assert!(!ok);
    let t = out.trim();
    assert!(t.starts_with('[') && t.ends_with(']'), "{out}");
    assert!(t.contains("\"rule\":\"determinism\""), "{out}");
    assert!(t.contains("\"line\":"), "{out}");
    // Clean input yields an empty array, still exit 0.
    let (ok, out) = run_bin(&["--format", "json", &fx("waived_clean.rs")]);
    assert!(ok, "{out}");
    assert_eq!(out.trim(), "[]");
}

#[test]
fn binary_exits_nonzero_on_bad_corpus_and_zero_on_waived() {
    let bin = env!("CARGO_BIN_EXE_wtpg-lint");
    let bad = Command::new(bin)
        .arg(fixture("bad_determinism.rs"))
        .arg(fixture("bad_panic_safety.rs"))
        .arg(fixture("bad_api_docs.rs"))
        .output()
        .expect("lint binary runs");
    assert!(!bad.status.success(), "bad corpus must fail the lint");

    let clean = Command::new(bin)
        .arg(fixture("waived_clean.rs"))
        .output()
        .expect("lint binary runs");
    assert!(
        clean.status.success(),
        "waived fixture must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
}
