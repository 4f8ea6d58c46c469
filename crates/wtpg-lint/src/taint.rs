//! Call-graph determinism taint.
//!
//! Clippy bans the direct seeds — hash-ordered collections
//! (`disallowed-types`), clock reads and `thread_rng`
//! (`disallowed-methods`, both in `clippy.toml`) — wherever they are
//! written. A file that must read the wall clock opts out with
//! `#![expect(clippy::disallowed_methods, reason = "…")]`, or its crate
//! root does for the whole crate: those are the *exempt* files, and
//! every other file is *protected*. What clippy cannot see is a protected
//! function calling into an exempt one, so this pass keeps the seeds
//! (`SystemTime`, clock `Instant`, `thread_rng`, `HashMap`, `HashSet`) and
//! propagates them along the approximate intra-crate call graph:
//!
//! 1. a function is *tainted* if its own tokens contain a seed or if it
//!    calls (by any resolvable form) a tainted function;
//! 2. a protected function calling a tainted function that lives in an
//!    exempt file is a finding at the call site.
//!
//! Only the three resolvable call forms (`self.f(…)`, `f(…)`,
//! `Path::f(…)`) propagate (see [`crate::outline::calls_in`]); general
//! method calls would wire unrelated same-named methods together, and a
//! `self.f(…)` call never reaches a free function.
//! Cross-crate calls are not modeled — each crate's protection boundary
//! is checked within that crate.

use std::path::Path;

use crate::callgraph::CallGraph;
use crate::lex::Tok;
use crate::outline::{calls_in, Outline};
use crate::{Finding, Rule, SourceFile};

/// Classifies the token at `i`: returns the seed's name if the token is
/// one of what clippy bans — a hash-ordered collection, `SystemTime`,
/// `thread_rng`, or a clock read (`Instant::now`, `.elapsed()`). Naming
/// the `Instant` type is no seed: the machines are handed their instants.
fn seed_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    let word = |j: usize| toks.get(j).map(|t| t.text.as_str());
    match word(i)? {
        "HashMap" => Some("HashMap"),
        "HashSet" => Some("HashSet"),
        "SystemTime" => Some("SystemTime"),
        "thread_rng" => Some("thread_rng"),
        "now" if i >= 2 && word(i - 1) == Some("::") && word(i - 2) == Some("Instant") => {
            Some("Instant::now")
        }
        "elapsed" if word(i + 1) == Some("(") => Some("elapsed"),
        _ => None,
    }
}

/// Does `sf` carry the inner attribute that exempts it from clippy's
/// determinism bans: `#![expect(…clippy::disallowed_methods…)]` (or
/// `disallowed_types`)?
pub fn opts_out(sf: &SourceFile) -> bool {
    let t = &sf.tokens;
    let mut i = 0;
    while i + 3 < t.len() {
        let head = [&t[i].text, &t[i + 1].text, &t[i + 2].text, &t[i + 3].text];
        if head == ["#", "!", "[", "expect"] {
            let close = (i..t.len()).find(|&j| t[j].text == "]").unwrap_or(t.len());
            if t[i..close]
                .iter()
                .any(|w| w.text == "disallowed_methods" || w.text == "disallowed_types")
            {
                return true;
            }
            i = close;
        }
        i += 1;
    }
    false
}

/// A tainted function's witness: where the seed actually is.
#[derive(Clone)]
struct Witness {
    file: usize,
    line: usize,
    token: String,
}

/// Runs the taint pass over one crate's files. `protected` decides which
/// files are determinism-protected (the workspace driver passes "neither
/// the file nor its crate root [`opts_out`]"); the rest are exempt but
/// still propagate taint.
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
                if let Some(canon) = seed_at(&sf.tokens, i) {
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
        // Calls from this file's fns into tainted fns of exempt files.
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
                    if call.via_self && !tn.qual.contains("::") {
                        continue; // a method call, and `tn` is a free fn
                    }
                    if prot[tn.file] {
                        continue; // clippy bans its seeds where they are
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
    fn direct_seeds_are_left_to_clippy() {
        let mut files = vec![sf("prot/a.rs", "fn f() { let t = Instant::now(); }\n")];
        let mut out = Vec::new();
        check(&mut files, &|_| true, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn an_inner_expect_of_a_determinism_ban_opts_out() {
        let multi = "//! Doc.\n#![expect(\n    clippy::disallowed_methods,\n    reason = \"x\"\n)]\nfn f() {}\n";
        assert!(opts_out(&sf("a.rs", multi)));
        assert!(opts_out(&sf("a.rs", "#![expect(clippy::disallowed_types, reason = \"x\")]\n")));
        assert!(!opts_out(&sf("a.rs", "#![expect(clippy::indexing_slicing, reason = \"x\")]\n")));
        // An outer attribute on one item, or a test module's, is not a file's opt-out.
        let item = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() {}\n";
        assert!(!opts_out(&sf("a.rs", item)));
    }

    #[test]
    fn clock_reads_seed_and_handed_in_instants_do_not() {
        let seeds = |src: &str| {
            let t = sf("a.rs", src).tokens;
            (0..t.len()).filter_map(|i| seed_at(&t, i)).collect::<Vec<_>>()
        };
        assert!(seeds("fn f(now: Instant, k: EventKind) { g(now, EventKind::Instant) }\n").is_empty());
        assert_eq!(seeds("fn f() -> Duration { Instant::now().elapsed() }\n"), ["Instant::now", "elapsed"]);
        assert_eq!(seeds("fn f(m: HashMap<u32, u32>) { thread_rng(); }\n"), ["HashMap", "thread_rng"]);
    }

    #[test]
    fn a_method_call_does_not_reach_a_free_fn_of_the_same_name() {
        let exempt = "pub fn drive() -> u64 { Instant::now().elapsed().as_secs() }\n";
        let user = "impl Ctl {\n    fn drive(&mut self) {}\n    fn step(&mut self) { self.drive(); }\n}\n";
        let mut files = vec![sf("exempt/run.rs", exempt), sf("prot/ctl.rs", user)];
        let mut out = Vec::new();
        check(&mut files, &|p| p.to_string_lossy().contains("prot/"), &mut out);
        assert!(out.is_empty(), "{out:?}");
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
