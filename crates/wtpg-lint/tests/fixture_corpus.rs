//! The fixture corpus proves each pass fires on known-bad input and passes
//! its clean twin, both through the library API and through the binary's
//! exit code. The rules clippy checks have their proof in CI, which applies
//! one mutation per rule to the checkout and requires the build to fail.

#![expect(
    clippy::expect_used,
    reason = "test code: a failed check is a failed test"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use wtpg_lint::{rust_files, unsafe_scope, Rule, SourceFile};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
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
fn the_binary_refuses_bare_paths() {
    let (ok, _) = run_bin(&[&fx("taint/core.rs")]);
    assert!(!ok, "a path without --pass is not a lint run");
}
