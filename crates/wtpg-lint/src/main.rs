//! `wtpg-lint` entry point.
//!
//! - `cargo run -p wtpg-lint` — lints the workspace: per-line rules under
//!   the scoping policy in [`wtpg_lint::rules_for`] plus the five
//!   workspace passes (lock-order, protocol, taint, wire-schema,
//!   unsafe-scope); exits non-zero on any unwaived finding.
//! - `--format json` — emit findings as a JSON array (CI artifact).
//! - `--write-schema-lock` — regenerate `wire-schema.lock` from
//!   `msg.rs`/`codec.rs` (the deliberate protocol-bump path).
//! - `cargo run -p wtpg-lint -- <path>...` — lints the given files or
//!   directories with **all** per-line rules enabled (fixture corpus).
//! - `--pass locks --manifest <toml> <path>...` — run only the lock-order
//!   pass with an explicit manifest (fixture corpus).
//! - `--pass schema --msg <rs> --codec <rs> --lock <lock>` — run only the
//!   schema pass against an explicit lock (fixture corpus).
//! - `--pass protocol --msg <rs> <actor>...` — run only the protocol pass
//!   with an explicit `Msg` enum (fixture corpus).
//! - `--pass taint --protected <substr> <path>...` — run only the
//!   determinism-taint pass; files whose path contains the substring are
//!   the protected set (fixture corpus).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wtpg_lint::{
    findings_to_json, lint_file, lint_workspace, locks, protocol, rust_files, schema, taint,
    Finding, RuleSet, SourceFile,
};

/// The workspace root: this binary is always built in-tree, two levels below.
fn workspace_root() -> PathBuf {
    let mut d = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    d.pop();
    d.pop();
    d
}

fn lint_paths(args: &[String]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for arg in args {
        let p = Path::new(arg);
        if p.is_dir() {
            for file in rust_files(p)? {
                findings.extend(lint_file(&file, RuleSet::ALL)?);
            }
        } else {
            findings.extend(lint_file(p, RuleSet::ALL)?);
        }
    }
    Ok(findings)
}

fn read_files(paths: &[String]) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for arg in paths {
        let p = Path::new(arg);
        if p.is_dir() {
            for file in rust_files(p)? {
                out.push(SourceFile::read(&file)?);
            }
        } else {
            out.push(SourceFile::read(p)?);
        }
    }
    Ok(out)
}

/// Pulls `--flag value` out of `args`, returning the value.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn run_pass(pass: &str, mut args: Vec<String>) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    match pass {
        "locks" => {
            let manifest_path = take_opt(&mut args, "--manifest")
                .ok_or("--pass locks needs --manifest <toml>")?;
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| format!("{manifest_path}: {e}"))?;
            let manifest = locks::LockManifest::parse(&text)?;
            let mut files = read_files(&args).map_err(|e| e.to_string())?;
            locks::check(&mut files, &manifest, &mut findings);
            for sf in &mut files {
                sf.finish(&mut findings);
            }
        }
        "schema" => {
            let msg = take_opt(&mut args, "--msg").ok_or("--pass schema needs --msg <rs>")?;
            let codec =
                take_opt(&mut args, "--codec").ok_or("--pass schema needs --codec <rs>")?;
            let lock = take_opt(&mut args, "--lock").ok_or("--pass schema needs --lock <file>")?;
            let files = read_files(&[msg, codec]).map_err(|e| e.to_string())?;
            schema::check_against_lock(&files, Path::new(&lock), &mut findings);
        }
        "protocol" => {
            let msg = take_opt(&mut args, "--msg").ok_or("--pass protocol needs --msg <rs>")?;
            let msg_sf = SourceFile::read(Path::new(&msg)).map_err(|e| e.to_string())?;
            let variants: Vec<String> = msg_sf
                .outline
                .enums
                .iter()
                .find(|e| e.name == "Msg")
                .map(|e| e.variants.iter().map(|v| v.name.clone()).collect())
                .ok_or("--pass protocol: no `enum Msg` in the --msg file")?;
            let mut files = read_files(&args).map_err(|e| e.to_string())?;
            protocol::check_actors(&variants, &mut files, &mut findings);
            for sf in &mut files {
                sf.finish(&mut findings);
            }
        }
        "taint" => {
            let pat = take_opt(&mut args, "--protected")
                .ok_or("--pass taint needs --protected <path-substring>")?;
            let mut files = read_files(&args).map_err(|e| e.to_string())?;
            taint::check(
                &mut files,
                &|p: &Path| p.to_string_lossy().replace('\\', "/").contains(&pat),
                &mut findings,
            );
            for sf in &mut files {
                sf.finish(&mut findings);
            }
        }
        other => return Err(format!("unknown pass `{other}`")),
    }
    Ok(findings)
}

fn write_schema_lock(root: &Path) -> Result<(), String> {
    let (msg, codec, lock) = schema::net_paths(root);
    let text = schema::render_current(&msg, &codec)?;
    std::fs::write(&lock, text).map_err(|e| format!("{}: {e}", lock.display()))?;
    println!("wtpg-lint: wrote {}", lock.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = {
        let before = args.len();
        args.retain(|a| a != "--format" && a != "json");
        // `--format json` is two tokens; anything else after --format is an
        // error surfaced as an unknown path below.
        before != args.len()
    };
    if args.iter().any(|a| a == "--write-schema-lock") {
        return match write_schema_lock(&workspace_root()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("wtpg-lint: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result: Result<Vec<Finding>, String> = if let Some(pass) = take_opt(&mut args, "--pass") {
        run_pass(&pass, args)
    } else if args.is_empty() {
        lint_workspace(&workspace_root()).map_err(|e| e.to_string())
    } else {
        lint_paths(&args).map_err(|e| e.to_string())
    };
    match result {
        Ok(findings) => {
            if json {
                println!("{}", findings_to_json(&findings));
            } else {
                for f in &findings {
                    println!("{f}");
                }
            }
            if findings.is_empty() {
                if !json {
                    println!("wtpg-lint: clean");
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("wtpg-lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wtpg-lint: {e}");
            ExitCode::from(2)
        }
    }
}
