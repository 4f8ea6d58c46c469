//! Pass 1: lock-order analysis against the declared hierarchy.
//!
//! The manifest (`lint-locks.toml`) declares lock *classes* — a name, a
//! rank, the file whose `.lock()` sites belong to it, and optionally the
//! receiver expression (`self.state`) to disambiguate several mutexes in
//! one file. Legal nesting acquires strictly increasing ranks; acquiring a
//! class of rank ≤ any held rank — including a second lock of the same
//! class or rank, the "two same-rank locks" deadlock shape — is a finding,
//! whether the acquisition is in the function itself or anywhere in its
//! (approximate, intra-crate) call graph.
//!
//! What counts as *held*: a `let`-bound guard — a statement whose
//! right-hand side is a `.lock()` chain post-processed only by
//! `expect`/`unwrap`/`unwrap_or_else`/`?` — from its binding until
//! `drop(name)` or the end of the function. Expression-position locks
//! (`self.nodes[i].lock().expect(…).apply(…)` tail calls, `if let Ok(g) =
//! m.lock()`) are temporaries: they are checked against the held set at
//! the acquisition point but conservatively not tracked as held. A
//! function whose signature returns a `MutexGuard` (a `locked()` helper)
//! is treated as an acquisition of its first acquired class at every call
//! site.
//!
//! Fail-closed: a `.lock()` site that no manifest class covers is itself a
//! finding — new mutexes must be declared (or waived with
//! `lint:allow(lock-order)`).

use crate::callgraph::CallGraph;
use crate::lex::Tok;
use crate::outline::{is_keyword, Outline};
use crate::{Finding, Rule, SourceFile};

/// One declared lock class.
#[derive(Debug)]
pub struct LockClass {
    /// Class name, used in findings and waiver detail keys.
    pub name: String,
    /// Acquisition rank: legal nesting is strictly increasing.
    pub rank: u32,
    /// Path suffix of the file whose `.lock()` sites this class covers.
    pub file: String,
    /// Receiver expression (`self.state`); empty matches any receiver in
    /// the file.
    pub recv: String,
}

/// The parsed manifest.
#[derive(Debug)]
pub struct LockManifest {
    /// Declared classes, in file order.
    pub classes: Vec<LockClass>,
}

#[derive(Default)]
struct ClassBuilder {
    name: Option<String>,
    rank: Option<u32>,
    file: Option<String>,
    recv: String,
}

impl ClassBuilder {
    fn build(self, at_line: usize) -> Result<LockClass, String> {
        Ok(LockClass {
            name: self
                .name
                .ok_or(format!("[[lock]] before line {at_line} has no `name`"))?,
            rank: self
                .rank
                .ok_or(format!("[[lock]] before line {at_line} has no `rank`"))?,
            file: self
                .file
                .ok_or(format!("[[lock]] before line {at_line} has no `file`"))?,
            recv: self.recv,
        })
    }
}

fn unquote(v: &str) -> Result<String, String> {
    let v = v.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|v| v.to_string())
        .ok_or(format!("expected a quoted string, got `{v}`"))
}

impl LockManifest {
    /// Parses the `lint-locks.toml` subset: `#` comments and `[[lock]]`
    /// tables with `name`/`rank`/`file`/`recv` keys.
    pub fn parse(text: &str) -> Result<LockManifest, String> {
        let mut classes: Vec<LockClass> = Vec::new();
        let mut cur: Option<ClassBuilder> = None;
        let mut lno = 0;
        for (i, raw) in text.lines().enumerate() {
            lno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[lock]]" {
                if let Some(b) = cur.take() {
                    classes.push(b.build(lno)?);
                }
                cur = Some(ClassBuilder::default());
                continue;
            }
            let Some(b) = cur.as_mut() else {
                return Err(format!("line {lno}: key outside a [[lock]] table"));
            };
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!("line {lno}: expected `key = value`"));
            };
            match k.trim() {
                "name" => b.name = Some(unquote(v)?),
                "file" => b.file = Some(unquote(v)?),
                "recv" => b.recv = unquote(v)?,
                "rank" => {
                    b.rank = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("line {lno}: bad rank `{}`", v.trim()))?,
                    )
                }
                other => return Err(format!("line {lno}: unknown key `{other}`")),
            }
        }
        if let Some(b) = cur.take() {
            classes.push(b.build(lno + 1)?);
        }
        if classes.is_empty() {
            return Err("no [[lock]] entries".to_string());
        }
        Ok(LockManifest { classes })
    }

    /// The class covering a `.lock()` site in `path_slash` with receiver
    /// `recv`, if declared.
    fn class_for(&self, path_slash: &str, recv: &str) -> Option<usize> {
        self.classes.iter().position(|c| {
            path_slash.ends_with(&c.file) && (c.recv.is_empty() || c.recv == recv)
        })
    }
}

/// Is `toks[i]` the `lock` of a `.lock()` acquisition?
fn is_acquire(toks: &[Tok], i: usize) -> bool {
    toks[i].text == "lock"
        && i >= 1
        && toks[i - 1].text == "."
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
        && toks.get(i + 2).is_some_and(|t| t.text == ")")
}

/// The receiver expression before the `.` at `dot_idx`, rebuilt by walking
/// left over idents, `self`, `.`/`::`/`?` and balanced `(…)`/`[…]` groups
/// (collapsed to `(..)`/`[..]`). Stops at anything else, so
/// `let g = self.state.lock()` yields `self.state`.
fn receiver_before(toks: &[Tok], dot_idx: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot_idx as i64 - 1;
    while j >= 0 {
        let t = toks[j as usize].text.as_str();
        if t == ")" || t == "]" {
            let (open, collapsed) = if t == ")" { ("(", "(..)") } else { ("[", "[..]") };
            let close = t;
            let mut depth = 1i64;
            let mut k = j - 1;
            while k >= 0 && depth > 0 {
                let u = toks[k as usize].text.as_str();
                if u == close {
                    depth += 1;
                } else if u == open {
                    depth -= 1;
                }
                k -= 1;
            }
            parts.push(collapsed.to_string());
            j = k;
            continue;
        }
        if t == "." || t == "::" || t == "?" || toks[j as usize].is_word() {
            if toks[j as usize].is_word() && is_keyword(t) {
                break;
            }
            parts.push(t.to_string());
            j -= 1;
            continue;
        }
        break;
    }
    parts.reverse();
    parts.concat()
}

/// Index of the `)` matching the `(` at `open`.
fn close_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Guard-preserving chain methods: the only post-processing that still
/// yields a `MutexGuard` binding.
const GUARD_CHAIN: &[&str] = &["expect", "unwrap", "unwrap_or_else"];

/// Does the token range `[from, to)` consist only of guard-preserving
/// chain steps (`.expect(…)`, `.unwrap()`, `.unwrap_or_else(…)`, `?`)?
/// Anything else — a field access, `.clone()` — means the statement binds
/// derived data, not the guard.
fn chain_extends_to(toks: &[Tok], from: usize, to: usize) -> bool {
    let mut j = from;
    loop {
        if j >= to {
            return j == to;
        }
        let t = toks[j].text.as_str();
        if t == "?" {
            j += 1;
            continue;
        }
        if t == "."
            && toks
                .get(j + 1)
                .is_some_and(|t| GUARD_CHAIN.contains(&t.text.as_str()))
            && toks.get(j + 2).is_some_and(|t| t.text == "(")
        {
            j = close_paren(toks, j + 2) + 1;
            continue;
        }
        return false;
    }
}

/// One pending violation, pre-`emit`: `(file, line, key, message)`.
type Emit = (usize, usize, String, String);

/// Runs the lock-order pass over one crate's files.
pub fn check(files: &mut [SourceFile], manifest: &LockManifest, out: &mut Vec<Finding>) {
    let parts: Vec<(&[Tok], &Outline)> = files
        .iter()
        .map(|sf| (sf.tokens.as_slice(), &sf.outline))
        .collect();
    let cg = CallGraph::build(&parts);
    let n = cg.nodes.len();

    // Direct acquisition classes per fn, undeclared sites, guard-returners.
    let mut direct: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut guard_class: Vec<Option<usize>> = vec![None; n];
    let mut emits: Vec<Emit> = Vec::new();
    for (ni, node) in cg.nodes.iter().enumerate() {
        let sf = &files[node.file];
        let path = sf.path.to_string_lossy().replace('\\', "/");
        let fun = &sf.outline.fns[node.fn_idx];
        for i in fun.body.0..fun.body.1.min(sf.tokens.len()) {
            if !is_acquire(&sf.tokens, i) {
                continue;
            }
            let recv = receiver_before(&sf.tokens, i - 1);
            match manifest.class_for(&path, &recv) {
                Some(c) => {
                    if !direct[ni].contains(&c) {
                        direct[ni].push(c);
                    }
                }
                None => emits.push((
                    node.file,
                    sf.tokens[i].line,
                    recv.clone(),
                    format!(
                        "undeclared lock acquisition (receiver `{recv}`) — add a [[lock]] class to lint-locks.toml"
                    ),
                )),
            }
        }
        let sig_has_guard = sf.tokens[fun.sig.0..fun.sig.1.min(sf.tokens.len())]
            .iter()
            .any(|t| t.text == "MutexGuard");
        if sig_has_guard {
            guard_class[ni] = direct[ni].first().copied();
        }
    }

    // Transitive acquisition classes per fn.
    let mut trans: Vec<Vec<usize>> = vec![Vec::new(); n];
    for ni in 0..n {
        let mut set = direct[ni].clone();
        for r in cg.reachable(ni) {
            for &c in &direct[r] {
                if !set.contains(&c) {
                    set.push(c);
                }
            }
        }
        trans[ni] = set;
    }

    // Simulate each fn's body linearly.
    for (ni, node) in cg.nodes.iter().enumerate() {
        simulate(
            files, &cg, manifest, &direct, &trans, &guard_class, ni, node.file, &mut emits,
        );
    }

    for sf in files.iter_mut() {
        sf.mark_ran(Rule::LockOrder);
    }
    for (fi, line, key, msg) in emits {
        files[fi].emit(out, line, Rule::LockOrder, &key, msg);
    }
}

/// Checks acquiring `class` while `held` locks are live; records a
/// violation for each held class of rank ≥ the new class's rank.
fn record_conflicts(
    manifest: &LockManifest,
    held: &[(String, usize)],
    class: usize,
    fi: usize,
    line: usize,
    via: Option<&str>,
    emits: &mut Vec<Emit>,
) {
    for (_, hc) in held {
        let (c, h) = (&manifest.classes[class], &manifest.classes[*hc]);
        if c.rank > h.rank {
            continue;
        }
        let msg = match via {
            Some(callee) => format!(
                "call to `{callee}` acquires lock class `{}` (rank {}) while holding `{}` (rank {}) — out of declared order",
                c.name, c.rank, h.name, h.rank
            ),
            None => format!(
                "acquires lock class `{}` (rank {}) while holding `{}` (rank {}) — out of declared order",
                c.name, c.rank, h.name, h.rank
            ),
        };
        emits.push((fi, line, c.name.clone(), msg));
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    files: &[SourceFile],
    cg: &CallGraph,
    manifest: &LockManifest,
    _direct: &[Vec<usize>],
    trans: &[Vec<usize>],
    guard_class: &[Option<usize>],
    ni: usize,
    fi: usize,
    emits: &mut Vec<Emit>,
) {
    let node = &cg.nodes[ni];
    let sf = &files[fi];
    let toks = &sf.tokens;
    let path = sf.path.to_string_lossy().replace('\\', "/");
    let fun = &sf.outline.fns[node.fn_idx];
    let (start, end) = (fun.body.0, fun.body.1.min(toks.len()));

    let mut held: Vec<(String, usize)> = Vec::new();
    // Binding name of a `let` statement awaiting its `;`.
    let mut pending_let: Option<String> = None;
    // Last acquisition chain: (class, token index just past the chain).
    let mut last_chain: Option<(usize, usize)> = None;

    let mut i = start;
    while i < end {
        let t = toks[i].text.as_str();
        if t == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            pending_let = match (toks.get(j), toks.get(j + 1)) {
                (Some(name), Some(next))
                    if name.is_word()
                        && !is_keyword(&name.text)
                        && (next.text == ":" || next.text == "=") =>
                {
                    Some(name.text.clone())
                }
                _ => None,
            };
            last_chain = None;
            i += 1;
            continue;
        }
        if t == "drop"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 2).is_some_and(|t| t.is_word())
            && toks.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let name = toks[i + 2].text.clone();
            held.retain(|(h, _)| *h != name);
            i += 4;
            continue;
        }
        if t == ";" {
            if let (Some(name), Some((class, chain_end))) = (&pending_let, &last_chain) {
                if chain_extends_to(toks, *chain_end, i) {
                    held.push((name.clone(), *class));
                }
            }
            pending_let = None;
            last_chain = None;
            i += 1;
            continue;
        }
        if is_acquire(toks, i) {
            let recv = receiver_before(toks, i - 1);
            if let Some(c) = manifest.class_for(&path, &recv) {
                record_conflicts(manifest, &held, c, fi, toks[i].line, None, emits);
                last_chain = Some((c, i + 3));
            }
            i += 3; // past `lock ( )`
            continue;
        }
        // Resolvable call site: check the callee's transitive acquisitions
        // against the held set; a MutexGuard-returning callee acts as an
        // acquisition chain for `let` binding purposes.
        if toks[i].is_word()
            && !is_keyword(t)
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let resolvable = match prev {
                Some(".") => i >= 2 && toks[i - 2].text == "self",
                Some("fn") => false,
                _ => true,
            };
            if resolvable {
                if let Some(targets) = cg.by_name.get(t) {
                    let line = toks[i].line;
                    let mut flagged: Vec<usize> = Vec::new();
                    for &tgt in targets {
                        if tgt == ni {
                            continue;
                        }
                        for &c in &trans[tgt] {
                            if flagged.contains(&c) {
                                continue;
                            }
                            let before = emits.len();
                            record_conflicts(
                                manifest,
                                &held,
                                c,
                                fi,
                                line,
                                Some(&cg.nodes[tgt].qual),
                                emits,
                            );
                            if emits.len() > before {
                                flagged.push(c);
                            }
                        }
                        if let Some(gc) = guard_class[tgt] {
                            last_chain = Some((gc, close_paren(toks, i + 1) + 1));
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MANIFEST: &str = r#"
[[lock]]
name = "alpha"
rank = 0
file = "locks_test.rs"
recv = "self.a"

[[lock]]
name = "beta"
rank = 1
file = "locks_test.rs"
recv = "self.b"
"#;

    fn run(src: &str) -> Vec<Finding> {
        let m = LockManifest::parse(MANIFEST).expect("manifest parses");
        let mut files = vec![SourceFile::parse(&PathBuf::from("locks_test.rs"), src)];
        let mut out = Vec::new();
        check(&mut files, &m, &mut out);
        out
    }

    #[test]
    fn ordered_nesting_is_clean() {
        let src = "impl S { fn f(&self) {\n    let g = self.a.lock().unwrap();\n    let h = self.b.lock().unwrap();\n    drop(h); drop(g);\n} }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn inverted_nesting_fires() {
        let src = "impl S { fn f(&self) {\n    let g = self.b.lock().unwrap();\n    let h = self.a.lock().unwrap();\n} }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`alpha`"), "{f:?}");
        assert!(f[0].message.contains("`beta`"), "{f:?}");
    }

    #[test]
    fn double_same_class_fires() {
        let src = "impl S { fn f(&self) {\n    let g = self.a.lock().unwrap();\n    let h = self.a.lock().unwrap();\n} }\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "impl S { fn f(&self) {\n    let g = self.b.lock().unwrap();\n    drop(g);\n    let h = self.a.lock().unwrap();\n} }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn derived_binding_is_not_a_guard() {
        // Binds a length, not the guard — the lock is a temporary.
        let src = "impl S { fn f(&self) {\n    let len = self.b.lock().unwrap().items.len();\n    let g = self.a.lock().unwrap();\n} }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn violation_through_call_graph_fires() {
        let src = "impl S {\n    fn low(&self) { let g = self.a.lock().unwrap(); }\n    fn f(&self) {\n        let h = self.b.lock().unwrap();\n        self.low();\n    }\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("call to `S::low`"), "{f:?}");
    }

    #[test]
    fn undeclared_receiver_fires() {
        let src = "impl S { fn f(&self) { let g = self.other.lock().unwrap(); } }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("undeclared"), "{f:?}");
        assert!(f[0].message.contains("self.other"), "{f:?}");
    }

    #[test]
    fn manifest_rejects_missing_keys() {
        assert!(LockManifest::parse("[[lock]]\nname = \"x\"\n").is_err());
        assert!(LockManifest::parse("rank = 1\n").is_err());
    }
}
