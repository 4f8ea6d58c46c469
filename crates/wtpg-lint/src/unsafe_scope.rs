//! Crate-policy pass: the keyword `unsafe` lives in one file, and every
//! crate inherits the workspace's lint policy.
//!
//! The workspace makes exactly one foreign call from library code —
//! `ppoll(2)`, in `wtpg-net/src/poll.rs`, behind a safe function. Two checks
//! keep it that way:
//!
//! - the token `unsafe` (in code — not in a comment, a string or a longer
//!   identifier such as `unsafe_code`) in any other source file of a
//!   workspace crate is a finding, test modules included;
//! - every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) must
//!   carry `#![forbid(unsafe_code)]`, which no inner `allow` can override —
//!   except `wtpg-net/src/lib.rs`, which must carry `#![deny(unsafe_code)]`
//!   so that `poll.rs`, and nothing else without saying so, can opt out.
//!
//! A third check keeps the compiler-checked rules fail-closed: every
//! member's `Cargo.toml` must say `[lints] workspace = true`, so a new
//! crate is under the root manifest's `[workspace.lints]` (panic safety,
//! `missing_docs`, `unreachable_pub`) from its first build.
//!
//! Findings of this pass are not waivable: moving the boundary is an edit
//! to [`UNSAFE_HOME`], reviewed as such.

use std::path::Path;

use crate::{Finding, Rule, SourceFile};

/// The one file that may say `unsafe`, as a path suffix.
pub const UNSAFE_HOME: &str = "wtpg-net/src/poll.rs";

/// The crate root that lets [`UNSAFE_HOME`] opt out, as a path suffix.
const DENY_ROOT: &str = "wtpg-net/src/lib.rs";

/// True if `code` contains `unsafe` as a whole identifier.
fn says_unsafe(code: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(i, m)| {
        !code[..i].chars().next_back().is_some_and(ident)
            && !code[i + m.len()..].chars().next().is_some_and(ident)
    })
}

/// Is `path_slash` the root module of a lib, bin or `src/bin/` target?
fn is_crate_root(path_slash: &str) -> bool {
    let Some((dir, file)) = path_slash.rsplit_once('/') else {
        return false;
    };
    (dir.ends_with("/src") && (file == "lib.rs" || file == "main.rs")) || dir.ends_with("/src/bin")
}

/// Runs both checks over the source files of one or more crates.
pub fn check(files: &mut [SourceFile], out: &mut Vec<Finding>) {
    for sf in files {
        let path = sf.path.to_string_lossy().replace('\\', "/");
        if !path.ends_with(UNSAFE_HOME) {
            let hits: Vec<usize> = (0..sf.lines.len())
                .filter(|&i| sf.lines.get(i).is_some_and(|l| says_unsafe(&l.code)))
                .collect();
            for i in hits {
                let message = format!("`unsafe` outside {UNSAFE_HOME}");
                sf.emit(out, i, Rule::UnsafeScope, "unsafe", message);
            }
        }
        if is_crate_root(&path) {
            let level = if path.ends_with(DENY_ROOT) { "deny" } else { "forbid" };
            let want = format!("#![{level}(unsafe_code)]");
            if !sf.lines.iter().any(|l| l.code.trim() == want) {
                sf.emit(out, 0, Rule::UnsafeScope, level, format!("crate root lacks `{want}`"));
            }
        }
    }
}

/// Fails a member manifest (`Cargo.toml` text at `path`) that does not
/// inherit the workspace lints: a `[lints]` table saying `workspace = true`.
pub fn check_manifest(path: &Path, text: &str, out: &mut Vec<Finding>) {
    let mut in_lints = false;
    for line in text.lines().map(|l| l.split('#').next().unwrap_or("").trim()) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return;
        }
    }
    out.push(Finding {
        file: path.to_path_buf(),
        line: 1,
        rule: Rule::UnsafeScope,
        message: "manifest does not inherit the workspace lints (`[lints] workspace = true`)"
            .to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_bare_keyword_counts() {
        assert!(says_unsafe("let n = unsafe { poll(p, 1, 0) };"));
        assert!(says_unsafe("unsafe impl Send for X {}"));
        assert!(says_unsafe("pub unsafe fn f()"));
        assert!(!says_unsafe("#![forbid(unsafe_code)]"));
        assert!(!says_unsafe("let not_unsafe = 1;"));
        assert!(!says_unsafe(""));
    }

    #[test]
    fn crate_roots_are_lib_main_and_bin_targets() {
        for root in [
            "crates/wtpg-net/src/lib.rs",
            "crates/wtpg-cli/src/main.rs",
            "crates/wtpg-bench/src/bin/repro.rs",
        ] {
            assert!(is_crate_root(root), "{root}");
        }
        for inner in ["crates/wtpg-net/src/tcp.rs", "crates/wtpg-core/src/sched/lib.rs", "lib.rs"] {
            assert!(!is_crate_root(inner), "{inner}");
        }
    }

    #[test]
    fn a_manifest_must_inherit_the_workspace_lints() {
        let fails = |text: &str| {
            let mut out = Vec::new();
            check_manifest(Path::new("crates/x/Cargo.toml"), text, &mut out);
            !out.is_empty()
        };
        assert!(!fails("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"));
        assert!(fails("[package]\nname = \"x\"\n"));
        assert!(fails("[lints]\n# workspace = true\n"));
        assert!(fails("[lints.rust]\nworkspace = true\n"));
        assert!(fails("[dependencies]\nworkspace = true\n"));
    }
}
