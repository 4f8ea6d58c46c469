//! Repo-specific static analysis for the WTPG workspace.
//!
//! v2 is built around a dependency-free token stream ([`lex`]) and item
//! outline ([`outline`]) — functions, enums, consts, match arms and call
//! sites, no full AST — feeding an approximate intra-crate call graph
//! ([`callgraph`]). On top of that sit three per-line rules and five
//! workspace passes:
//!
//! Per-line rules (scoped per crate by [`rules_for`], see DESIGN.md §10/§15):
//!
//! - `determinism` — no `HashMap`/`HashSet` (iteration order is
//!   platform-dependent), no `SystemTime`/`std::time::Instant`
//!   (wall-clock reads), no ambient `thread_rng`. Applied to `wtpg-core`,
//!   `wtpg-sim`, `wtpg-workload`, `wtpg-graph`, `wtpg-lint`, `wtpg-mvcc`,
//!   `wtpg-obs`, `wtpg-dur` and `wtpg-net`'s protocol layer. An `Instant` token
//!   qualified by a non-`time` path — such as the observer's
//!   `EventKind::Instant` trace phase — is recognized as not being the
//!   clock type and does not fire.
//! - `panic-safety` — no `unwrap()`, undocumented `expect()`, panic-family
//!   macros, or possibly-panicking slice indexing on the scheduler hot
//!   path (`wtpg-core/src/wtpg.rs`, `estimate.rs`, `sched/*`) or anywhere
//!   in `wtpg-rt`/`wtpg-obs`/`wtpg-dur`/`wtpg-net` (an actor thread that
//!   panics poisons the mailbox locks its peers share and wedges everyone
//!   waiting on it).
//!   The accepted documented form is `expect("invariant: ...")`.
//! - `api-docs` — every `pub fn` carries a doc comment.
//!
//! Workspace passes (run by [`lint_workspace`], each with its own module):
//!
//! - [`locks`] — lock-order analysis against the checked-in
//!   `lint-locks.toml` hierarchy (strictly increasing ranks: the mailbox
//!   queue, then the leaf classes), propagated through the call graph;
//!   undeclared `.lock()` sites are findings (fail-closed).
//! - [`protocol`] — `Msg` exhaustiveness, `Batch`-recursion guards and
//!   dedup-before-side-effect checks for the `wtpg-net` actor loops.
//! - [`taint`] — call-graph determinism taint replacing the old per-file
//!   deny list: seeds (`SystemTime`, clock `Instant`, `thread_rng`,
//!   hash-ordered collections) propagate along intra-crate calls, and a
//!   determinism-protected function calling into a tainted exempt-file
//!   function is a finding even though its own file is clean.
//! - [`unsafe_scope`] — the token `unsafe` appears in
//!   `wtpg-net/src/poll.rs` and nowhere else, and every crate root carries
//!   `#![forbid(unsafe_code)]` (`wtpg-net`'s: `deny`, so that one file can
//!   opt out).
//! - [`schema`] — wire-schema stability: `msg.rs`/`codec.rs` are parsed
//!   and diffed against the checked-in `wire-schema.lock` (tags, field
//!   order, `MAX_FRAME`/`MAX_STEPS`/`MAX_BATCH`); drift is a finding until
//!   the lock is regenerated deliberately (`--write-schema-lock`).
//!
//! Findings are suppressed with an inline waiver comment carrying a reason:
//!
//! ```text
//! let x = v[i]; // lint:allow(panic-safety) i < v.len() checked above
//! ```
//!
//! A waiver on its own line covers the *next* item: if that item opens a
//! brace block (for example an `fn`), the waiver covers the whole block, so
//! one waiver can cover an index-heavy function with a locally provable
//! bound. A waiver may scope itself to specific findings with a detail
//! list — `lint:allow(protocol: Access, Commit) reason` waives only those
//! `Msg` variants. Waivers that suppress nothing are themselves findings —
//! stale waivers must not accumulate. `schema` findings are deliberately
//! not waivable: drift is fixed by regenerating the lock, never waived.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lex;
pub mod locks;
pub mod outline;
pub mod protocol;
pub mod schema;
pub mod taint;
pub mod unsafe_scope;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::{LineInfo, Tok};
use outline::Outline;

/// The rule a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Platform-stable execution: no hash-ordered collections or clocks.
    Determinism,
    /// No panics on the scheduler hot path.
    PanicSafety,
    /// Every `pub fn` documented.
    ApiDocs,
    /// Lock acquisitions out of the declared `lint-locks.toml` order.
    LockOrder,
    /// Actor-loop protocol checks: `Msg` exhaustiveness, `Batch` recursion
    /// guards, dedup-before-side-effect for redeliverable messages.
    Protocol,
    /// Wire-schema drift against `wire-schema.lock`. Not waivable.
    Schema,
    /// `unsafe` outside its one home, or a crate root without
    /// `#![forbid(unsafe_code)]`. Not waivable.
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
            Rule::PanicSafety => "panic-safety",
            Rule::ApiDocs => "api-docs",
            Rule::LockOrder => "lock-order",
            Rule::Protocol => "protocol",
            Rule::Schema => "schema",
            Rule::UnsafeScope => "unsafe-scope",
            Rule::Waiver => "waiver",
        }
    }

    /// Parses a waiver rule name. `waiver` itself is not waivable, and
    /// neither are `schema` (drift is fixed by regenerating the lock) and
    /// `unsafe-scope` (the boundary moves by editing the pass).
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "panic-safety" => Some(Rule::PanicSafety),
            "api-docs" => Some(Rule::ApiDocs),
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

/// Renders findings as a machine-readable JSON array for CI artifacts
/// (`wtpg-lint --format json`). Dependency-free: the four fields are
/// escaped by hand.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  {\"file\":\"");
        s.push_str(&json_escape(&f.file.to_string_lossy().replace('\\', "/")));
        s.push_str("\",\"line\":");
        s.push_str(&f.line.to_string());
        s.push_str(",\"rule\":\"");
        s.push_str(f.rule.name());
        s.push_str("\",\"message\":\"");
        s.push_str(&json_escape(&f.message));
        s.push_str("\"}");
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Which per-line rules to apply to a file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Apply the `determinism` rule.
    pub determinism: bool,
    /// Apply the `panic-safety` rule.
    pub panic_safety: bool,
    /// Apply the `api-docs` rule.
    pub api_docs: bool,
}

impl RuleSet {
    /// All rules on — used for explicit path arguments and fixtures.
    pub const ALL: RuleSet = RuleSet {
        determinism: true,
        panic_safety: true,
        api_docs: true,
    };
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

/// Panic-family macros banned by the panic-safety rule.
const PANIC_MACROS: &[&str] = &["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// True if `code` contains `ident[` — a possibly-panicking index expression.
/// Array/slice *types* and attributes are not preceded by an identifier
/// character, so they do not match.
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for i in 1..chars.len() {
        if chars[i] == '[' {
            let p = chars[i - 1];
            if p.is_alphanumeric() || p == '_' || p == ')' || p == ']' {
                return true;
            }
        }
    }
    false
}

/// Is this line the start of a `pub fn` item (not `pub(crate)`)?
fn is_pub_fn(code: &str) -> bool {
    let t = code.trim_start();
    let Some(rest) = t.strip_prefix("pub ") else {
        return false;
    };
    let rest = rest.trim_start();
    for qual in ["fn ", "const fn ", "async fn ", "unsafe fn "] {
        if rest.starts_with(qual) {
            return true;
        }
    }
    false
}

/// Does the `pub fn` at `lines[at]` have a doc comment (or `#[doc]`)
/// directly above it, allowing intervening attribute lines?
fn has_doc_above(lines: &[LineInfo], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        let raw = lines[j].raw.trim();
        if raw.starts_with("#[doc") {
            return true;
        }
        if raw.starts_with("///") || raw.starts_with("/**") || raw.ends_with("*/") {
            return true;
        }
        // Attributes and plain comments between the doc and the item do not
        // detach the doc comment.
        if raw.starts_with("#[") || raw.starts_with("//") {
            continue;
        }
        return false;
    }
    false
}

/// Runs the three per-line rules on one parsed file. The determinism rule
/// is token-based (shared with the taint pass's seed classifier), so a
/// qualified non-clock `Instant` — `EventKind::Instant` — does not fire.
fn run_line_rules(sf: &mut SourceFile, rules: RuleSet, out: &mut Vec<Finding>) {
    let mut seeds: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    if rules.determinism {
        sf.mark_ran(Rule::Determinism);
        for (line, tok) in taint::direct_seeds(&sf.tokens, &sf.outline) {
            let v = seeds.entry(line).or_default();
            if !v.contains(&tok) {
                v.push(tok);
            }
        }
    }
    if rules.panic_safety {
        sf.mark_ran(Rule::PanicSafety);
    }
    if rules.api_docs {
        sf.mark_ran(Rule::ApiDocs);
    }
    let mut cands: Vec<(usize, Rule, String, String)> = Vec::new();
    for (i, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(toks) = seeds.get(&i) {
            for t in toks {
                cands.push((
                    i,
                    Rule::Determinism,
                    t.clone(),
                    format!("nondeterministic construct `{t}`"),
                ));
            }
        }
        if rules.panic_safety {
            if line.code.contains(".unwrap()") {
                cands.push((
                    i,
                    Rule::PanicSafety,
                    String::new(),
                    "call to unwrap() on the hot path".to_string(),
                ));
            }
            if line.code.contains(".expect(") && !line.raw.contains(".expect(\"invariant:") {
                cands.push((
                    i,
                    Rule::PanicSafety,
                    String::new(),
                    "expect() without an `invariant:` justification".to_string(),
                ));
            }
            for mac in PANIC_MACROS {
                if line.code.contains(mac) {
                    cands.push((
                        i,
                        Rule::PanicSafety,
                        String::new(),
                        format!("panic-family macro `{}...`", mac),
                    ));
                }
            }
            if has_index_expr(&line.code) {
                cands.push((
                    i,
                    Rule::PanicSafety,
                    String::new(),
                    "possibly-panicking slice index".to_string(),
                ));
            }
        }
        if rules.api_docs && is_pub_fn(&line.code) && !has_doc_above(&sf.lines, i) {
            cands.push((
                i,
                Rule::ApiDocs,
                String::new(),
                "pub fn without a doc comment".to_string(),
            ));
        }
    }
    for (line, rule, key, msg) in cands {
        sf.emit(out, line, rule, &key, msg);
    }
}

/// Lints `source` with the per-line rules, reporting findings against
/// `path`. Test code (`#[cfg(test)]` regions) is exempt from every rule.
pub fn lint_source(path: &Path, source: &str, rules: RuleSet) -> Vec<Finding> {
    let mut sf = SourceFile::parse(path, source);
    let mut findings = Vec::new();
    run_line_rules(&mut sf, rules, &mut findings);
    sf.finish(&mut findings);
    findings
}

/// Lints one file from disk with the per-line rules.
pub fn lint_file(path: &Path, rules: RuleSet) -> io::Result<Vec<Finding>> {
    let source = fs::read_to_string(path)?;
    Ok(lint_source(path, &source, rules))
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

/// The crate a `crates/<name>/src/...` path belongs to, if any.
fn crate_of(path_slash: &str) -> Option<&str> {
    let i = path_slash.find("crates/")?;
    let rest = &path_slash[i + "crates/".len()..];
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// The workspace policy: which per-line rules apply to which file.
///
/// Known crates carry an explicit policy; **unknown** crates under
/// `crates/` get [`RuleSet::ALL`] (fail-closed — a new crate is fully
/// linted until a policy is written for it, never silently skipped):
///
/// - `determinism`: all of `wtpg-core`, `wtpg-sim`, `wtpg-workload`,
///   `wtpg-graph` and `wtpg-lint` (the lint's own output must be
///   platform-stable) — but **not** `wtpg-rt`, whose wall clocks and
///   free-running threads are the point (its runs are checked by replay
///   certification instead). All of `wtpg-obs` is also held to determinism
///   (traces of deterministic runs must be byte-deterministic): it reads no
///   clock, and every timestamp it carries is its producer's. So is all of
///   `wtpg-dur`: its log, snapshots and replay read no clock, and a run's
///   recovery is a function of the files it reads.
/// - `panic-safety`: `wtpg-core/src/wtpg.rs`, `estimate.rs`, `window.rs`
///   (the id-keyed window every per-transaction book sits on), `sched/*`, and
///   all of `wtpg-rt/src` (a panic on an actor thread poisons shared locks),
///   `wtpg-obs/src` (the executor bumps its handles for every actor),
///   `wtpg-dur/src` (a data node recovers inside its actor step) and
///   `wtpg-net/src` (a panicking actor deadlocks every peer waiting on it).
/// - `api-docs`: all of `wtpg-core/src`, `wtpg-rt/src`, `wtpg-obs/src`,
///   `wtpg-dur/src`, `wtpg-net/src` and `wtpg-lint/src`.
/// - `wtpg-net` splits on determinism: the pure protocol layer (`msg.rs`,
///   `codec.rs`, `fault.rs` decisions, the coalescer and its delay line in
///   `batch.rs`, `plan.rs`, `report.rs`) must be deterministic — the wire
///   format and fault schedules are replayable by seed, and the coalescer
///   runs on instants its actor hands in — while the actor loops
///   (`actor.rs`, `control.rs`, `client.rs`, `data.rs`, `runtime.rs`) and
///   the socket transport (`tcp.rs`) run on the executor's wall clock by
///   design, certified by replay. The taint pass still reaches into the exempt
///   files: a protocol-layer function calling a tainted actor-side helper
///   is a finding.
/// - `wtpg-bench` and `wtpg-cli` are measurement/driver tooling: they read
///   wall clocks to time real runs and report through the CLI, so no
///   per-line rule applies (their correctness is covered by tier-1 tests).
pub fn rules_for(path: &Path) -> RuleSet {
    let s = path.to_string_lossy().replace('\\', "/");
    let Some(krate) = crate_of(&s) else {
        return RuleSet::default();
    };
    match krate {
        "wtpg-core" => RuleSet {
            determinism: true,
            panic_safety: ["/wtpg.rs", "/estimate.rs", "/window.rs"].iter().any(|f| s.ends_with(f))
                || s.contains("/sched/"),
            api_docs: true,
        },
        "wtpg-sim" | "wtpg-workload" | "wtpg-graph" => RuleSet {
            determinism: true,
            panic_safety: false,
            api_docs: false,
        },
        "wtpg-rt" => RuleSet {
            determinism: false,
            panic_safety: true,
            api_docs: true,
        },
        "wtpg-obs" | "wtpg-dur" => RuleSet::ALL,
        "wtpg-net" => {
            let wall_clock = [
                "/tcp.rs",
                "/actor.rs",
                "/control.rs",
                "/client.rs",
                "/data.rs",
                "/runtime.rs",
            ]
            .iter()
            .any(|f| s.ends_with(f));
            RuleSet {
                determinism: !wall_clock,
                panic_safety: true,
                api_docs: true,
            }
        }
        "wtpg-mvcc" => RuleSet {
            // Version chains, snapshot certification, and the shared GC
            // cells are pure bookkeeping over seal sequences — no clocks,
            // no ambient randomness, everything replayable.
            determinism: true,
            panic_safety: true,
            api_docs: true,
        },
        "wtpg-lint" => RuleSet {
            determinism: true,
            panic_safety: false,
            api_docs: true,
        },
        "wtpg-bench" | "wtpg-cli" => RuleSet::default(),
        // Fail closed: a crate without an explicit policy is fully linted.
        _ => RuleSet::ALL,
    }
}

/// Reads the workspace member list from `<root>/Cargo.toml`, expanding
/// `<dir>/*` globs against the directory, so the lint's coverage derives
/// from the same source of truth cargo uses: adding a crate to the
/// workspace adds it to the lint, with [`RuleSet::ALL`] until a policy
/// exists for it.
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

/// Lints the whole workspace rooted at `root`: per-line rules under the
/// [`rules_for`] policy, plus the five workspace passes — determinism
/// taint (which owns the determinism rule here, adding call-graph
/// propagation to the direct token scan), lock-order against
/// `lint-locks.toml`, unsafe-scope, and the `wtpg-net` protocol and
/// wire-schema passes.
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
        let src = root.join(&member).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut sfs = Vec::new();
        for file in rust_files(&src)? {
            sfs.push(SourceFile::read(&file)?);
        }
        for sf in &mut sfs {
            let mut rules = rules_for(&sf.path);
            // The taint pass owns determinism in workspace runs: it emits
            // the same direct-seed findings plus call-graph propagation.
            rules.determinism = false;
            run_line_rules(sf, rules, &mut findings);
        }
        taint::check(&mut sfs, &|p| rules_for(p).determinism, &mut findings);
        if let Some(m) = &manifest {
            locks::check(&mut sfs, m, &mut findings);
        }
        unsafe_scope::check(&mut sfs, &mut findings);
        if member.ends_with("wtpg-net") {
            protocol::check_net(&mut sfs, &mut findings);
            schema::check_against_lock(&sfs, &root.join("wire-schema.lock"), &mut findings);
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

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, RuleSet::ALL)
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn determinism_tokens_fire() {
        let f = lint("use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
    }

    #[test]
    fn determinism_word_boundary() {
        assert!(lint("struct HashMapLike;\n").is_empty());
    }

    #[test]
    fn clock_instant_fires_but_trace_phase_instant_does_not() {
        // Bare `Instant` and `std::time::Instant` are the clock type.
        assert_eq!(lint("fn f() { let t = Instant::now(); }\n").len(), 1);
        assert_eq!(lint("use std::time::Instant;\n").len(), 1);
        // `EventKind::Instant` (qualified by a non-`time` path) is the
        // observer's trace-phase marker, not a clock.
        assert!(lint("fn f(k: EventKind) { if let EventKind::Instant { .. } = k {} }\n").is_empty());
        // A variant *named* Instant declared in this file is not a clock.
        assert!(lint("enum EventKind { Span, Instant { name: u32 } }\n").is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_ignored() {
        assert!(lint("// HashMap is banned\nconst S: &str = \"HashMap\";\n").is_empty());
    }

    #[test]
    fn unwrap_fires_and_waiver_suppresses() {
        let f = lint("fn f() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicSafety);
        let w = lint("fn f() { x.unwrap(); } // lint:allow(panic-safety) x set above\n");
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn invariant_expect_is_accepted() {
        assert!(lint("fn f() { x.expect(\"invariant: set in new\"); }\n").is_empty());
        let f = lint("fn f() { x.expect(\"oops\"); }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn index_expression_fires() {
        let f = lint("fn f() { let y = v[i]; }\n");
        assert_eq!(f.len(), 1);
        assert!(lint("fn f(v: &[u32; 4]) {}\n").is_empty());
    }

    #[test]
    fn standalone_waiver_covers_whole_fn() {
        let src = "// lint:allow(panic-safety) indices bounded by construction\n\
                   fn f(v: &Vec<u32>) -> u32 {\n    v[0] + v[1]\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn waiver_details_scope_to_finding_keys() {
        // A detailed determinism waiver only covers the named token.
        let src = "// lint:allow(determinism: HashSet) interned upstream\n\
                   fn f() {\n    let s = HashSet::new();\n    let m = HashMap::new();\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("HashMap"), "{f:?}");
    }

    #[test]
    fn unused_waiver_is_reported() {
        let f = lint("// lint:allow(panic-safety) nothing here\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Waiver);
    }

    #[test]
    fn doc_comments_quoting_waiver_syntax_are_not_waivers() {
        // A rustdoc line quoting the waiver idiom must neither waive
        // anything nor count as a malformed/unused waiver.
        let src = "/// Suppress with `lint:allow(panic-safety)` inline.\n\
                   //! Or even `lint:allow(bogus-rule)`.\n\
                   fn f() { v.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PanicSafety);
    }

    #[test]
    fn waiver_without_reason_is_reported() {
        let f = lint("fn f() { x.unwrap() } // lint:allow(panic-safety)\n");
        assert!(f.iter().any(|f| f.rule == Rule::Waiver), "{f:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn pub_fn_without_doc_fires() {
        let f = lint("pub fn undocumented() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ApiDocs);
        assert!(lint("/// Doc.\npub fn documented() {}\n").is_empty());
        assert!(lint("pub(crate) fn internal() {}\n").is_empty());
    }

    #[test]
    fn doc_above_attributes_counts() {
        assert!(lint("/// Doc.\n#[inline]\npub fn f() {}\n").is_empty());
    }

    #[test]
    fn raw_strings_are_stripped() {
        assert!(lint("const S: &str = r#\"HashMap .unwrap()\"#;\n").is_empty());
    }

    #[test]
    fn json_output_escapes_and_round_trips_shape() {
        let f = vec![Finding {
            file: PathBuf::from("a\\b.rs"),
            line: 3,
            rule: Rule::Schema,
            message: "tag \"x\" drifted".to_string(),
        }];
        let j = findings_to_json(&f);
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"rule\":\"schema\""), "{j}");
        assert!(j.contains("tag \\\"x\\\" drifted"), "{j}");
        assert_eq!(findings_to_json(&[]), "[]");
    }

    #[test]
    fn unknown_crates_fail_closed() {
        assert_eq!(
            rules_for(Path::new("crates/wtpg-future/src/lib.rs")),
            RuleSet::ALL
        );
        assert_eq!(
            rules_for(Path::new("crates/wtpg-bench/src/lib.rs")),
            RuleSet::default()
        );
        // Non-src paths (tests, fixtures) carry no per-line rules.
        assert_eq!(
            rules_for(Path::new("crates/wtpg-rt/tests/lock_order.rs")),
            RuleSet::default()
        );
    }
}
