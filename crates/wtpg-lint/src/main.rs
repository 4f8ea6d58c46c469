//! `wtpg-lint` entry point.
//!
//! - `cargo run -p wtpg-lint` — lints the workspace: the manifest check and
//!   the lock-order, protocol, determinism-taint and unsafe-scope passes;
//!   exits non-zero on any unwaived finding.
//! - `--pass locks --manifest <toml> <path>...` — run only the lock-order
//!   pass with an explicit manifest (fixture corpus).
//! - `--pass protocol --msg <rs> <actor>...` — run only the protocol pass
//!   with an explicit `Msg` enum (fixture corpus).
//! - `--pass taint --protected <substr> <path>...` — run only the
//!   determinism-taint pass; files whose path contains the substring are
//!   the protected set (fixture corpus).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wtpg_lint::{lint_workspace, locks, protocol, rust_files, taint, Finding, SourceFile};

/// The workspace root: this binary is always built in-tree, two levels below.
fn workspace_root() -> PathBuf {
    let mut d = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    d.pop();
    d.pop();
    d
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
        "protocol" => {
            let msg = take_opt(&mut args, "--msg").ok_or("--pass protocol needs --msg <rs>")?;
            let msg_sf = SourceFile::read(Path::new(&msg)).map_err(|e| e.to_string())?;
            let variants: Vec<String> = msg_sf
                .outline
                .enums
                .iter()
                .find(|e| e.name == "Msg")
                .map(|e| e.variants.clone())
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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<Vec<Finding>, String> = if let Some(pass) = take_opt(&mut args, "--pass") {
        run_pass(&pass, args)
    } else if args.is_empty() {
        lint_workspace(&workspace_root()).map_err(|e| e.to_string())
    } else {
        Err(format!("unexpected arguments {args:?}: a path is linted by `--pass <name>`"))
    };
    match result {
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("wtpg-lint: clean");
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
