//! Repo-specific static analysis for the WTPG workspace: the checks no
//! compiler lint can make.
//!
//! What rustc and clippy can check, they do (see DESIGN.md §10.1): panic
//! safety, API docs and the direct determinism bans are lints in the root
//! `Cargo.toml`'s `[workspace.lints]` and in `clippy.toml`, and an
//! exemption is an `#[expect(…, reason = "…")]` the compiler reports once
//! it suppresses nothing. This crate keeps the cross-file passes, built on
//! a dependency-free token stream ([`lex`]) and item outline
//! ([`outline`]) — functions, enums, match arms and call sites, no full
//! AST — feeding an approximate intra-crate call graph ([`callgraph`]):
//!
//! - [`locks`] — lock-order analysis against the checked-in
//!   `lint-locks.toml` hierarchy (strictly increasing ranks: the mailbox
//!   queue, then the leaf classes), propagated through the call graph;
//!   undeclared `.lock()` sites are findings (fail-closed).
//! - [`protocol`] — `Msg` exhaustiveness, `Batch`-recursion guards and
//!   dedup-before-side-effect checks for the `wtpg-net` actor loops.
//! - [`taint`] — call-graph determinism taint: a function in a file held
//!   to clippy's determinism bans calling into a clock-reading function of
//!   an exempt file is a finding, though its own file is clean.
//! - [`unsafe_scope`] — the token `unsafe` appears in
//!   `wtpg-net/src/poll.rs` and nowhere else, every crate root carries
//!   `#![forbid(unsafe_code)]` (`wtpg-net`'s: `deny`, so that one file can
//!   opt out), and every member's `Cargo.toml` inherits the workspace
//!   lints, so a new crate is under the whole policy from its first build.
//!
//! Findings are suppressed with an inline waiver comment carrying a reason:
//!
//! ```text
//! let g = mailbox.lock(); // lint:allow(lock-order) held alone: nothing else is taken
//! ```
//!
//! A waiver on its own line covers the *next* item: if that item opens a
//! brace block (for example an `fn`), the waiver covers the whole block. A
//! waiver may scope itself to specific findings with a detail list —
//! `lint:allow(protocol: Access, Commit) reason` waives only those `Msg`
//! variants. Waivers that suppress nothing are themselves findings —
//! stale waivers must not accumulate — and a waiver naming a rule this
//! crate does not check (such as the retired `panic-safety`) is one too.
//! `unsafe-scope` findings are not waivable.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "panic safety covers the runtime and the scheduler hot path; the lint is a build-time tool"
)]

pub mod callgraph;
pub mod lex;
pub mod locks;
pub mod outline;
pub mod protocol;
pub mod taint;
pub mod unsafe_scope;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::{LineInfo, Tok};
use outline::Outline;

/// The rule a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// A determinism-protected function calling into a nondeterministic
    /// function of an exempt file.
    Determinism,
    /// Lock acquisitions out of the declared `lint-locks.toml` order.
    LockOrder,
    /// Actor-loop protocol checks: `Msg` exhaustiveness, `Batch` recursion
    /// guards, dedup-before-side-effect for redeliverable messages.
    Protocol,
    /// `unsafe` outside its one home, a crate root without
    /// `#![forbid(unsafe_code)]`, or a member that does not inherit the
    /// workspace lints. Not waivable.
    UnsafeScope,
    /// Problems with the waiver mechanism itself (unknown rule, missing
    /// reason, waiver that suppresses nothing).
    Waiver,
}

impl Rule {
    /// The name used in `lint:allow(<name>)` waivers and in output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::Protocol => "protocol",
            Rule::UnsafeScope => "unsafe-scope",
            Rule::Waiver => "waiver",
        }
    }

    /// Parses a waiver rule name. `waiver` itself is not waivable, and
    /// neither is `unsafe-scope` (the boundary moves by editing the pass).
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "lock-order" => Some(Rule::LockOrder),
            "protocol" => Some(Rule::Protocol),
            _ => None,
        }
    }
}

/// One lint finding, pointing at a file/line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule that fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A parsed `lint:allow(...)` waiver.
struct Waiver {
    line: usize,
    rule: Option<Rule>,
    /// Optional finding keys (`lint:allow(protocol: Access, Commit)`): when
    /// non-empty, the waiver only suppresses findings with a matching key.
    details: Vec<String>,
    reason: String,
    /// Line range (inclusive) this waiver covers.
    covers: (usize, usize),
    used: bool,
}

const WAIVER_TAG: &str = "lint:allow(";

fn parse_waivers(lines: &[LineInfo]) -> (Vec<Waiver>, Vec<(usize, String)>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // Doc comments are documentation, not directives: a rustdoc line
        // quoting the waiver syntax must not register as a waiver.
        let c = line.comment.trim_start();
        if c.starts_with("///") || c.starts_with("//!") {
            continue;
        }
        let Some(tag) = line.comment.find(WAIVER_TAG) else {
            continue;
        };
        let rest = &line.comment[tag + WAIVER_TAG.len()..];
        let Some(close) = rest.find(')') else {
            errors.push((i, "malformed waiver: missing ')'".to_string()));
            continue;
        };
        let inner = rest[..close].trim();
        let (rule_name, details): (&str, Vec<String>) = match inner.split_once(':') {
            Some((r, d)) => (
                r.trim(),
                d.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            ),
            None => (inner, Vec::new()),
        };
        let reason = rest[close + 1..].trim().to_string();
        let rule = Rule::parse(rule_name);
        if rule.is_none() {
            errors.push((i, format!("waiver names unknown rule '{rule_name}'")));
        }
        if reason.is_empty() {
            errors.push((i, "waiver has no reason".to_string()));
        }
        let covers = if line.code.trim().is_empty() {
            standalone_coverage(lines, i)
        } else {
            (i, i)
        };
        waivers.push(Waiver {
            line: i,
            rule,
            details,
            reason,
            covers,
            used: false,
        });
    }
    (waivers, errors)
}

/// Coverage of a standalone waiver line: the next item. Attribute lines are
/// skipped when locating the item's first line; if the item opens a brace
/// block the coverage extends to the matching close, otherwise to the
/// terminating `;`.
fn standalone_coverage(lines: &[LineInfo], waiver_line: usize) -> (usize, usize) {
    let mut j = waiver_line + 1;
    while j < lines.len() {
        let t = lines[j].code.trim();
        if t.is_empty() || t.starts_with("#[") {
            j += 1;
        } else {
            break;
        }
    }
    if j >= lines.len() {
        return (waiver_line, waiver_line);
    }
    let start = j;
    let mut depth: i64 = 0;
    let mut opened = false;
    for (k, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened && depth == 0 => return (start, k),
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return (start, k);
        }
    }
    (start, lines.len().saturating_sub(1))
}

/// One fully lexed + outlined source file, with its waivers. Every pass
/// emits findings through [`SourceFile::emit`] so waivers apply uniformly,
/// and records the rules it ran with [`SourceFile::mark_ran`] so unused
/// waivers are only reported for rules that actually ran here.
pub struct SourceFile {
    /// Path findings are reported against.
    pub path: PathBuf,
    /// Lexed lines (code/comment split, `#[cfg(test)]` regions marked).
    pub lines: Vec<LineInfo>,
    /// Token stream of the non-test code.
    pub tokens: Vec<Tok>,
    /// Item outline parsed from the tokens.
    pub outline: Outline,
    waivers: Vec<Waiver>,
    waiver_errors: Vec<(usize, String)>,
    ran: Vec<Rule>,
}

impl SourceFile {
    /// Lexes, outlines and waiver-parses `source`.
    pub fn parse(path: &Path, source: &str) -> SourceFile {
        let mut lines = lex::lex(source);
        lex::mark_test_regions(&mut lines);
        let tokens = lex::tokenize(&lines);
        let outline = Outline::parse(&tokens);
        let (waivers, waiver_errors) = parse_waivers(&lines);
        SourceFile {
            path: path.to_path_buf(),
            lines,
            tokens,
            outline,
            waivers,
            waiver_errors,
            ran: Vec::new(),
        }
    }

    /// Reads and parses one file from disk.
    pub fn read(path: &Path) -> io::Result<SourceFile> {
        let source = fs::read_to_string(path)?;
        Ok(SourceFile::parse(path, &source))
    }

    /// Records that `rule` ran on this file (so its unused waivers are
    /// reported by [`SourceFile::finish`]).
    pub fn mark_ran(&mut self, rule: Rule) {
        if !self.ran.contains(&rule) {
            self.ran.push(rule);
        }
    }

    /// Emits one finding at 0-based `line0` unless a waiver covers it. A
    /// waiver matches when its rule matches, `line0` is in its coverage,
    /// and its detail list is empty or contains `key` (the pass-specific
    /// finding key: the banned token, lock class, or `Msg` variant).
    pub fn emit(&mut self, out: &mut Vec<Finding>, line0: usize, rule: Rule, key: &str, message: String) {
        for w in self.waivers.iter_mut() {
            if w.rule == Some(rule)
                && line0 >= w.covers.0
                && line0 <= w.covers.1
                && (w.details.is_empty() || w.details.iter().any(|d| d == key))
            {
                w.used = true;
                return;
            }
        }
        out.push(Finding {
            file: self.path.clone(),
            line: line0 + 1,
            rule,
            message,
        });
    }

    /// Reports waiver-mechanism findings: malformed waivers, and waivers
    /// for a rule that ran here but suppressed nothing. Call once, after
    /// every pass has run.
    pub fn finish(&mut self, out: &mut Vec<Finding>) {
        for (line, msg) in self.waiver_errors.drain(..) {
            out.push(Finding {
                file: self.path.clone(),
                line: line + 1,
                rule: Rule::Waiver,
                message: msg,
            });
        }
        for w in &self.waivers {
            // A waiver for a rule that did not run on this file is not
            // "unused" — only report waivers whose rule ran here and
            // suppressed nothing.
            let applicable = w.rule.is_some_and(|r| self.ran.contains(&r));
            if applicable && !w.used && !w.reason.is_empty() {
                out.push(Finding {
                    file: self.path.clone(),
                    line: w.line + 1,
                    rule: Rule::Waiver,
                    message: format!(
                        "unused waiver for `{}` — nothing to suppress",
                        w.rule.map(Rule::name).unwrap_or("?")
                    ),
                });
            }
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
pub fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Reads the workspace member list from `<root>/Cargo.toml`, expanding
/// `<dir>/*` globs against the directory, so the lint's coverage derives
/// from the same source of truth cargo uses: adding a crate to the
/// workspace adds it to the lint.
pub fn workspace_members(root: &Path) -> io::Result<Vec<String>> {
    let text = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut entries: Vec<String> = Vec::new();
    let mut in_members = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if !in_members {
            if let Some(rest) = line.strip_prefix("members") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    collect_quoted(rest, &mut entries);
                    if rest.contains(']') {
                        break;
                    }
                    in_members = true;
                }
            }
            continue;
        }
        collect_quoted(line, &mut entries);
        if line.contains(']') {
            break;
        }
    }
    let mut out = Vec::new();
    for m in entries {
        if let Some(prefix) = m.strip_suffix("/*") {
            let dir = root.join(prefix);
            let mut names: Vec<String> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            out.extend(names.into_iter().map(|n| format!("{prefix}/{n}")));
        } else {
            out.push(m);
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Pulls every double-quoted string out of `s`.
fn collect_quoted(s: &str, out: &mut Vec<String>) {
    let mut rest = s;
    while let Some(a) = rest.find('"') {
        let tail = &rest[a + 1..];
        let Some(b) = tail.find('"') else { break };
        out.push(tail[..b].to_string());
        rest = &tail[b + 1..];
    }
}

/// Lints the whole workspace rooted at `root`: per member, the manifest
/// check and the unsafe-scope, determinism-taint and lock-order passes
/// (against `lint-locks.toml`), and on `wtpg-net` the protocol pass.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let manifest_path = root.join("lint-locks.toml");
    let manifest = match fs::read_to_string(&manifest_path) {
        Ok(text) => match locks::LockManifest::parse(&text) {
            Ok(m) => Some(m),
            Err(e) => {
                findings.push(Finding {
                    file: manifest_path.clone(),
                    line: 1,
                    rule: Rule::LockOrder,
                    message: format!("bad lock manifest: {e}"),
                });
                None
            }
        },
        Err(_) => {
            findings.push(Finding {
                file: manifest_path.clone(),
                line: 1,
                rule: Rule::LockOrder,
                message: "missing lint-locks.toml (the declared lock hierarchy)".to_string(),
            });
            None
        }
    };
    for member in workspace_members(root)? {
        let cargo = root.join(&member).join("Cargo.toml");
        unsafe_scope::check_manifest(&cargo, &fs::read_to_string(&cargo)?, &mut findings);
        let src = root.join(&member).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut sfs = Vec::new();
        for file in rust_files(&src)? {
            sfs.push(SourceFile::read(&file)?);
        }
        let crate_exempt = sfs.iter().any(|sf| {
            (sf.path == src.join("lib.rs") || sf.path == src.join("main.rs")) && taint::opts_out(sf)
        });
        let exempt: Vec<PathBuf> = sfs
            .iter()
            .filter(|sf| crate_exempt || taint::opts_out(sf))
            .map(|sf| sf.path.clone())
            .collect();
        taint::check(&mut sfs, &|p| !exempt.iter().any(|e| e == p), &mut findings);
        if let Some(m) = &manifest {
            locks::check(&mut sfs, m, &mut findings);
        }
        unsafe_scope::check(&mut sfs, &mut findings);
        if member.ends_with("wtpg-net") {
            protocol::check_net(&mut sfs, &mut findings);
        }
        for sf in &mut sfs {
            sf.finish(&mut findings);
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `src` and reports its waiver findings after marking `ran`.
    fn waiver_findings(src: &str, ran: Rule) -> Vec<Finding> {
        let mut sf = SourceFile::parse(Path::new("test.rs"), src);
        sf.mark_ran(ran);
        let mut out = Vec::new();
        sf.finish(&mut out);
        out
    }

    #[test]
    fn a_waiver_suppresses_a_finding_on_its_line_or_item() {
        let src = "// lint:allow(lock-order) held alone\nfn f() {\n    let g = m.lock();\n}\n";
        let mut sf = SourceFile::parse(Path::new("test.rs"), src);
        let mut out = Vec::new();
        sf.mark_ran(Rule::LockOrder);
        sf.emit(&mut out, 2, Rule::LockOrder, "m", "undeclared".to_string());
        sf.finish(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waiver_details_scope_to_finding_keys() {
        let src = "// lint:allow(protocol: Access) send-only\nfn f() {}\n";
        let mut sf = SourceFile::parse(Path::new("test.rs"), src);
        let mut out = Vec::new();
        sf.emit(&mut out, 1, Rule::Protocol, "Commit", "Commit unhandled".to_string());
        sf.emit(&mut out, 1, Rule::Protocol, "Access", "Access unhandled".to_string());
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Commit"), "{out:?}");
    }

    #[test]
    fn unused_waiver_is_reported() {
        let f = waiver_findings("// lint:allow(lock-order) nothing here\nfn f() {}\n", Rule::LockOrder);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Waiver);
    }

    #[test]
    fn waivers_for_rules_the_compiler_checks_now_are_unknown() {
        for rule in ["panic-safety", "api-docs", "schema"] {
            let src = format!("fn f() {{ x.unwrap() }} // lint:allow({rule}) bounded\n");
            let f = waiver_findings(&src, Rule::Determinism);
            assert_eq!(f.len(), 1, "{f:?}");
            assert!(f[0].message.contains("unknown rule"), "{f:?}");
        }
    }

    #[test]
    fn doc_comments_quoting_waiver_syntax_are_not_waivers() {
        let src = "/// Suppress with `lint:allow(lock-order)` inline.\n//! Or even `lint:allow(bogus-rule)`.\nfn f() {}\n";
        assert!(waiver_findings(src, Rule::LockOrder).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_reported() {
        let f = waiver_findings("fn f() {} // lint:allow(protocol)\n", Rule::Protocol);
        assert!(f.iter().any(|f| f.message.contains("no reason")), "{f:?}");
    }
}
