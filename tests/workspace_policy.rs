//! The lint policy reaches every crate, and `unsafe` stays where it is.
//!
//! The root `Cargo.toml`'s `[workspace.lints]` denies `unsafe_code` and holds
//! the panic-safety and API-doc lints, but a member gets them only if its
//! manifest says `[lints] workspace = true`, and any file can lift the
//! `unsafe_code` level for itself. The compiler checks neither, so this test
//! reads the workspace's sources:
//!
//! - every member under `crates/` inherits the workspace lints;
//! - exactly [`UNSAFE_HOMES`] name `unsafe_code` in an `allow` or `expect`
//!   attribute: the one foreign call of the library code (`ppoll(2)`) and the
//!   two tests that count allocations through a global allocator.
//!
//! `bench/` and `vendor/` are packages outside the workspace and are not read.

use std::fs;
use std::path::{Path, PathBuf};

/// The files that may lift the `unsafe_code` level, relative to the root.
const UNSAFE_HOMES: [&str; 3] = [
    "crates/wtpg-dur/tests/snapshot_damage.rs",
    "crates/wtpg-net/src/poll.rs",
    "crates/wtpg-net/tests/alloc_budget.rs",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The members under `crates/`, sorted.
fn members() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Whether a manifest has a `[lints]` table saying `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(|l| l.split('#').next().unwrap_or("").trim()) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// `src` with every `//` comment and the contents of every string and
/// character literal blanked out, so that only code is left to read.
fn code_only(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        i += 1;
        match c {
            '/' if chars.get(i) == Some(&'/') => {
                while chars.get(i).is_some_and(|&c| c != '\n') {
                    i += 1;
                }
            }
            '"' => {
                while let Some(&c) = chars.get(i) {
                    i += if c == '\\' { 2 } else { 1 };
                    if c == '"' {
                        break;
                    }
                }
                out.push_str("\"\"");
            }
            // A character literal: `'x'` or `'\x'`, not a lifetime.
            '\'' if chars.get(i + 1) == Some(&'\'') => i += 2,
            '\'' if chars.get(i) == Some(&'\\') => {
                while chars.get(i).is_some_and(|&c| c != '\'') {
                    i += 1;
                }
                i += 1;
            }
            c => out.push(c),
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `text` holds `word` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(i, _)| {
        !text[..i].chars().next_back().is_some_and(is_ident)
            && !text[i + word.len()..].chars().next().is_some_and(is_ident)
    })
}

/// Whether `src` has an attribute that allows or expects `unsafe_code`:
/// `#[allow(..)]`, `#![expect(..)]`, or either inside a `cfg_attr`.
fn lifts_unsafe_code(src: &str) -> bool {
    let code = code_only(src);
    let mut rest = code.as_str();
    while let Some(at) = rest.find('#') {
        rest = &rest[at + 1..];
        let body = rest.strip_prefix('!').unwrap_or(rest).trim_start();
        let Some(body) = body.strip_prefix('[') else {
            continue;
        };
        let mut depth = 1;
        let end = body
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '[' => 1,
                    ']' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(body.len(), |(i, _)| i);
        let attr = &body[..end];
        if names(attr, "unsafe_code") && (names(attr, "allow") || names(attr, "expect")) {
            return true;
        }
    }
    false
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = members();
    assert!(members.len() >= 2, "no members found under crates/");
    let strays: Vec<String> = members
        .iter()
        .filter(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
            !inherits_workspace_lints(&manifest)
        })
        .map(|dir| dir.display().to_string())
        .collect();
    assert!(
        strays.is_empty(),
        "{strays:?} does not inherit the workspace lints: add `[lints] workspace = true`"
    );
}

#[test]
fn only_the_unsafe_homes_lift_unsafe_code() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let lifting: Vec<String> = files
        .iter()
        .filter(|f| lifts_unsafe_code(&fs::read_to_string(f).expect("source reads")))
        .map(|f| f.strip_prefix(&root).expect("under the root").display().to_string())
        .collect();
    assert_eq!(
        lifting, UNSAFE_HOMES,
        "the files that name unsafe_code in an allow or expect"
    );
}

#[test]
fn the_readers_see_what_they_look_for() {
    assert!(inherits_workspace_lints("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"));
    for stray in [
        "[package]\nname = \"x\"\n",
        "[lints]\n# workspace = true\n",
        "[lints.rust]\nworkspace = true\n",
        "[dependencies]\nworkspace = true\n",
    ] {
        assert!(!inherits_workspace_lints(stray), "{stray}");
    }
    let attr = |level: &str| format!("#![{level}(\n    unsafe_code,\n    reason = \"x\"\n)]\nfn f() {{}}\n");
    assert!(lifts_unsafe_code(&attr("allow")));
    assert!(lifts_unsafe_code(&attr("expect")));
    assert!(lifts_unsafe_code(&format!("#[cfg_attr(test, {}(unsafe_code))]", "allow")));
    assert!(!lifts_unsafe_code(&attr("forbid")));
    assert!(!lifts_unsafe_code(&attr("deny")));
    assert!(!lifts_unsafe_code(&format!("// #![{}(unsafe_code)]\n", "allow")));
    assert!(!lifts_unsafe_code(&format!("let s = \"#![{}(unsafe_code)]\";\n", "allow")));
    assert!(!lifts_unsafe_code(&format!("#![{}(clippy::unsafe_code_x)]\n", "allow")));
}
