//! Pass 3: call-graph determinism taint.
//!
//! The old determinism rule was a per-file deny list: exempt files
//! (the net actor loops, `tcp.rs`) could do anything, and a
//! protected file calling into them was invisible. This pass keeps the
//! same *seeds* — `SystemTime`, clock `Instant`, `thread_rng`,
//! hash-ordered collections — but propagates them along the approximate
//! intra-crate call graph:
//!
//! 1. every seed token in a *protected* file is a direct finding (same
//!    message the per-line rule used, so existing waivers keep working);
//! 2. a function is *tainted* if its own tokens contain a seed or if it
//!    calls (by any resolvable form) a tainted function;
//! 3. a protected function calling a tainted function that lives in an
//!    *exempt* file is a finding at the call site — the leak the per-file
//!    rule could never see.
//!
//! Only the three resolvable call forms (`self.f(…)`, `f(…)`,
//! `Path::f(…)`) propagate (see [`crate::outline::calls_in`]); general
//! method calls would wire unrelated same-named methods together.
//! Cross-crate calls are not modeled — each crate's protection boundary
//! is checked within that crate.

use std::path::Path;

use crate::callgraph::CallGraph;
use crate::lex::Tok;
use crate::outline::{calls_in, Outline};
use crate::{Finding, Rule, SourceFile};

/// Tokens that seed determinism taint. Word-exact matched on the token
/// stream; `Instant` is additionally path-qualified (see [`direct_seeds`]).
pub const SEED_TOKENS: &[&str] = &["HashMap", "HashSet", "SystemTime", "Instant", "thread_rng"];

/// Classifies the token at `i`: returns the canonical seed name if it is a
/// determinism seed. `Instant` is the subtle one — the observer has an
/// `EventKind::Instant` trace phase that is not a clock — so a qualified
/// `X::Instant` seeds only when the path segment before it is `time`, and
/// a bare `Instant` on the declaration line of an enum variant named
/// `Instant` is the variant, not the type.
fn seed_at(toks: &[Tok], i: usize, outline: &Outline) -> Option<&'static str> {
    let text = toks[i].text.as_str();
    let canon = SEED_TOKENS.iter().find(|s| **s == text)?;
    if text == "Instant" {
        if i >= 1 && toks[i - 1].text == "::" {
            if i >= 2 && toks[i - 2].text == "time" {
                return Some(canon);
            }
            return None;
        }
        let line = toks[i].line;
        let declared_variant = outline.enums.iter().any(|e| {
            e.variants
                .iter()
                .any(|v| v.name == "Instant" && v.line == line)
        });
        if declared_variant {
            return None;
        }
    }
    Some(canon)
}

/// Every seed occurrence in the token stream, as `(0-based line, token)`.
/// Shared with the per-line determinism rule so file-level and taint-level
/// checks agree on what a seed is.
pub fn direct_seeds(toks: &[Tok], outline: &Outline) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if let Some(canon) = seed_at(toks, i, outline) {
            out.push((toks[i].line, canon.to_string()));
        }
    }
    out
}

/// A tainted function's witness: where the seed actually is.
#[derive(Clone)]
struct Witness {
    file: usize,
    line: usize,
    token: String,
}

/// Runs the taint pass over one crate's files. `protected` decides which
/// files are determinism-protected (the workspace driver passes
/// `rules_for(path).determinism`); the rest are exempt but still
/// propagate taint.
pub fn check(files: &mut [SourceFile], protected: &dyn Fn(&Path) -> bool, out: &mut Vec<Finding>) {
    let prot: Vec<bool> = files.iter().map(|sf| protected(&sf.path)).collect();
    if !prot.iter().any(|&b| b) {
        return;
    }
    let parts: Vec<(&[Tok], &Outline)> = files
        .iter()
        .map(|sf| (sf.tokens.as_slice(), &sf.outline))
        .collect();
    let cg = CallGraph::build(&parts);

    // Direct seeds per function (signature + body — a clock-typed
    // parameter taints the fn just like a clock read).
    let n = cg.nodes.len();
    let mut tainted: Vec<Option<Witness>> = vec![None; n];
    for (ni, node) in cg.nodes.iter().enumerate() {
        let sf = &files[node.file];
        let fun = &sf.outline.fns[node.fn_idx];
        for range in [fun.sig, fun.body] {
            for i in range.0..range.1.min(sf.tokens.len()) {
                if let Some(canon) = seed_at(&sf.tokens, i, &sf.outline) {
                    tainted[ni] = Some(Witness {
                        file: node.file,
                        line: sf.tokens[i].line,
                        token: canon.to_string(),
                    });
                    break;
                }
            }
            if tainted[ni].is_some() {
                break;
            }
        }
    }
    // Fixpoint: a caller of a tainted fn inherits its witness.
    loop {
        let mut changed = false;
        for ni in 0..n {
            if tainted[ni].is_some() {
                continue;
            }
            let hit = cg.nodes[ni]
                .callees
                .iter()
                .find_map(|&c| tainted[c].clone());
            if let Some(w) = hit {
                tainted[ni] = Some(w);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Collect findings first (emit needs &mut files).
    let mut emits: Vec<(usize, usize, String, String)> = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        if !prot[fi] {
            continue;
        }
        // 1. Direct seeds anywhere in the protected file (module level
        //    included), deduped per (line, token).
        let mut seen: Vec<(usize, String)> = Vec::new();
        for (line, tok) in direct_seeds(&sf.tokens, &sf.outline) {
            if seen.contains(&(line, tok.clone())) {
                continue;
            }
            seen.push((line, tok.clone()));
            emits.push((
                fi,
                line,
                tok.clone(),
                format!("nondeterministic construct `{tok}`"),
            ));
        }
        // 2. Calls from this file's fns into tainted fns of exempt files.
        for (gi, fun) in sf.outline.fns.iter().enumerate() {
            if cg.node_at(fi, gi).is_none() {
                continue;
            }
            for call in calls_in(&sf.tokens, fun.body) {
                let Some(targets) = cg.by_name.get(&call.name) else {
                    continue;
                };
                for &t in targets {
                    let tn = &cg.nodes[t];
                    if prot[tn.file] {
                        continue; // its own direct finding covers it
                    }
                    if let Some(w) = &tainted[t] {
                        let wfile = files[w.file]
                            .path
                            .file_name()
                            .map(|f| f.to_string_lossy().into_owned())
                            .unwrap_or_default();
                        emits.push((
                            fi,
                            call.line,
                            call.name.clone(),
                            format!(
                                "call to `{}` reaches nondeterministic `{}` ({}:{})",
                                tn.qual,
                                w.token,
                                wfile,
                                w.line + 1
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
    for (fi, sf) in files.iter_mut().enumerate() {
        if prot[fi] {
            sf.mark_ran(Rule::Determinism);
        }
    }
    for (fi, line, key, msg) in emits {
        files[fi].emit(out, line, Rule::Determinism, &key, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(name: &str, src: &str) -> SourceFile {
        SourceFile::parse(&PathBuf::from(name), src)
    }

    #[test]
    fn taint_leaks_across_files_through_calls() {
        let clock = "pub fn now_ms() -> u64 { SystemTime::now().into() }\n\
                     pub fn mid() -> u64 { now_ms() + 1 }\n\
                     pub fn pure() -> u64 { 7 }\n";
        let user = "pub fn tick() -> u64 { mid() }\npub fn fine() -> u64 { pure() }\n";
        let mut files = vec![sf("exempt/clock.rs", clock), sf("prot/user.rs", user)];
        let mut out = Vec::new();
        check(&mut files, &|p| p.to_string_lossy().contains("prot/"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("mid"), "{out:?}");
        assert!(out[0].message.contains("SystemTime"), "{out:?}");
        assert!(out[0].file.ends_with("user.rs"));
    }

    #[test]
    fn direct_seed_in_protected_file_fires_once() {
        let mut files = vec![sf("prot/a.rs", "fn f() { let t = Instant::now(); }\n")];
        let mut out = Vec::new();
        check(&mut files, &|_| true, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Instant"));
    }

    #[test]
    fn clean_exempt_helper_is_callable() {
        let helper = "pub fn shift(x: u64) -> u64 { x << 1 }\n";
        let user = "pub fn twice(x: u64) -> u64 { shift(shift(x)) }\n";
        let mut files = vec![sf("exempt/h.rs", helper), sf("prot/u.rs", user)];
        let mut out = Vec::new();
        check(&mut files, &|p| p.to_string_lossy().contains("prot/"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
