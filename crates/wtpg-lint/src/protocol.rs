//! Pass 2: protocol exhaustiveness & idempotency for the net actor loops.
//!
//! Three checks per actor file (`control.rs`, `data.rs`, `client.rs`):
//!
//! 1. **Exhaustiveness** — every variant of `enum Msg` (parsed from
//!    `msg.rs`) must be *named* in some match-arm pattern of the file, or
//!    explicitly waived (`lint:allow(protocol: Access, Commit) reason`).
//!    Wildcard arms deliberately don't count: when a variant is added to
//!    the protocol, every actor must make a conscious decision about it.
//! 2. **Batch recursion** — a `Msg::Batch` arm whose body re-dispatches
//!    through the enclosing handler must contain a nested-batch guard
//!    (some mention of `Msg::Batch` in the body — the
//!    `debug_assert!(!matches!(sub, Msg::Batch(_)))` idiom); otherwise a
//!    malicious or buggy peer nesting batches recurses unboundedly.
//! 3. **Idempotency** — handlers for redeliverable messages must consult
//!    their dedup structure before any side effect, because the
//!    redelivery timer can deliver a message twice. The structure names
//!    are pinned per actor below and cross-checked by the runtime tests.

use crate::outline::{calls_in, matches_in};
use crate::lex::Tok;
use crate::{Finding, Rule, SourceFile};

/// One idempotency obligation: the handler for `variant` must touch one of
/// `dedup` before any of `effects`.
pub struct DedupRule {
    /// `Msg` variant the obligation applies to.
    pub variant: &'static str,
    /// Dedup-structure tokens (field names) that must appear first.
    pub dedup: &'static [&'static str],
    /// Side-effect tokens that must not precede the dedup check.
    pub effects: &'static [&'static str],
}

/// Control actor: the in-flight step's order, filed in its transaction's
/// record, gates `step_complete` (the reply takes it: `answered`) and, by
/// the chunk cursor inside it, `progress` (`in_flight`; see
/// `wtpg-net/src/control.rs`).
const CONTROL_DEDUP: &[DedupRule] = &[
    DedupRule {
        variant: "AccessDone",
        dedup: &["answered"],
        effects: &["step_complete"],
    },
    DedupRule {
        variant: "StatsDelta",
        dedup: &["in_flight"],
        effects: &["progress"],
    },
];

/// Data actor: applied-marks gate chunk application.
const DATA_DEDUP: &[DedupRule] = &[DedupRule {
    variant: "Access",
    dedup: &["marks"],
    effects: &["apply_chunk"],
}];

/// Client: the inflight map gates latency booking.
const CLIENT_DEDUP: &[DedupRule] = &[DedupRule {
    variant: "Commit",
    dedup: &["inflight"],
    effects: &["book_commit"],
}];

/// The actor files of the net runtime, by file-name suffix, with their
/// idempotency obligations.
const ACTOR_FILES: &[(&str, &[DedupRule])] = &[
    ("control.rs", CONTROL_DEDUP),
    ("data.rs", DATA_DEDUP),
    ("client.rs", CLIENT_DEDUP),
];

/// `Msg`-variant names appearing as `Msg::X` sequences in `[start, end)`.
fn msg_variants_in(toks: &[Tok], range: (usize, usize)) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let end = range.1.min(toks.len());
    let mut i = range.0;
    while i + 2 < end {
        if toks[i].text == "Msg" && toks[i + 1].text == "::" && toks[i + 2].is_word() {
            out.push((toks[i + 2].text.clone(), toks[i + 2].line));
            i += 3;
            continue;
        }
        i += 1;
    }
    out
}

/// Runs the protocol pass over the `wtpg-net` crate's files: finds
/// `enum Msg` in `msg.rs` and checks every actor file against it.
pub fn check_net(files: &mut [SourceFile], out: &mut Vec<Finding>) {
    let variants: Vec<String> = match files
        .iter()
        .find(|f| f.path.to_string_lossy().replace('\\', "/").ends_with("/msg.rs"))
        .and_then(|f| f.outline.enums.iter().find(|e| e.name == "Msg"))
    {
        Some(e) => e.variants.clone(),
        None => return, // no protocol enum — nothing to check
    };
    check_actors(&variants, files, out);
}

/// Checks every actor file (matched by file-name suffix) against the
/// given `Msg` variant list. Split from [`check_net`] so fixtures can
/// supply their own enum.
pub fn check_actors(variants: &[String], files: &mut [SourceFile], out: &mut Vec<Finding>) {
    for sf in files.iter_mut() {
        let path = sf.path.to_string_lossy().replace('\\', "/");
        let Some((_, dedup)) = ACTOR_FILES
            .iter()
            .find(|(name, _)| path.ends_with(&format!("/{name}")) || path == *name)
        else {
            continue;
        };
        check_file(variants, sf, dedup, out);
    }
}

fn check_file(
    variants: &[String],
    sf: &mut SourceFile,
    dedup_rules: &[DedupRule],
    out: &mut Vec<Finding>,
) {
    sf.mark_ran(Rule::Protocol);
    let mut emits: Vec<(usize, String, String)> = Vec::new();

    // Walk every match arm in every fn; collect the variants named in
    // patterns (constructions in arm bodies don't count).
    let mut matched: Vec<String> = Vec::new();
    let mut anchor: Option<usize> = None;
    for fun in &sf.outline.fns {
        for m in matches_in(&sf.tokens, fun.body) {
            for arm in &m.arms {
                let named = msg_variants_in(&sf.tokens, arm.pat);
                if !named.is_empty() && anchor.is_none() {
                    anchor = Some(m.line);
                }
                for (v, _) in &named {
                    if !matched.contains(v) {
                        matched.push(v.clone());
                    }
                }
                // Batch recursion: re-dispatch without a nested-batch guard.
                if named.iter().any(|(v, _)| v == "Batch") {
                    let recurses = calls_in(&sf.tokens, arm.body)
                        .iter()
                        .any(|c| c.name == fun.name);
                    let guarded = !msg_variants_in(&sf.tokens, arm.body).is_empty();
                    if recurses && !guarded {
                        emits.push((
                            arm.line,
                            "Batch".to_string(),
                            format!(
                                "`Msg::Batch` arm re-dispatches via `{}` without guarding against nested batches",
                                fun.name
                            ),
                        ));
                    }
                }
                // Idempotency: dedup structure before side effects.
                for rule in dedup_rules {
                    if !named.iter().any(|(v, _)| v == rule.variant) {
                        continue;
                    }
                    let body = &sf.tokens[arm.body.0..arm.body.1.min(sf.tokens.len())];
                    let eff = body
                        .iter()
                        .position(|t| rule.effects.contains(&t.text.as_str()));
                    let ded = body
                        .iter()
                        .position(|t| rule.dedup.contains(&t.text.as_str()));
                    if let Some(e) = eff {
                        if ded.is_none_or(|d| d > e) {
                            emits.push((
                                arm.line,
                                rule.variant.to_string(),
                                format!(
                                    "handler for redeliverable `Msg::{}` must consult its dedup structure ({}) before side effects (`{}`)",
                                    rule.variant,
                                    rule.dedup.join("/"),
                                    body[e].text
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    match anchor {
        Some(line) => {
            for v in variants {
                if !matched.contains(v) {
                    emits.push((
                        line,
                        v.clone(),
                        format!(
                            "actor loop never names `Msg::{v}` in a match pattern (wildcards don't count) — handle it or waive with `lint:allow(protocol: {v})`"
                        ),
                    ));
                }
            }
        }
        None => {
            emits.push((
                0,
                String::new(),
                "actor file has no match naming any `Msg` variant".to_string(),
            ));
        }
    }

    for (line, key, msg) in emits {
        sf.emit(out, line, Rule::Protocol, &key, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn variants() -> Vec<String> {
        ["Ping", "Pong", "Access", "Batch"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn run(file: &str, src: &str) -> Vec<Finding> {
        let mut files = vec![SourceFile::parse(&PathBuf::from(file), src)];
        let mut out = Vec::new();
        check_actors(&variants(), &mut files, &mut out);
        out
    }

    #[test]
    fn missing_variant_fires_and_waiver_with_detail_covers() {
        let src = "impl A { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => self.pong(),\n        Msg::Pong => {}\n        Msg::Access => {}\n        Msg::Batch(_) => {}\n        _ => {}\n    }\n} }\n";
        assert!(run("x/control.rs", src).is_empty(), "{:?}", run("x/control.rs", src));
        let missing = "impl A { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Access => {}\n        Msg::Batch(_) => {}\n        _ => {}\n    }\n} }\n";
        let f = run("x/control.rs", missing);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Msg::Pong"), "{f:?}");
        let waived = "impl A {\n    // lint:allow(protocol: Pong) pong is send-only for this actor\n    fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Access => {}\n        Msg::Batch(_) => {}\n        _ => {}\n    }\n} }\n";
        assert!(run("x/control.rs", waived).is_empty(), "{:?}", run("x/control.rs", waived));
    }

    #[test]
    fn unguarded_batch_recursion_fires() {
        let bad = "impl A { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Pong => {}\n        Msg::Access => {}\n        Msg::Batch(inner) => {\n            for s in inner { self.handle(s); }\n        }\n    }\n} }\n";
        let f = run("x/control.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("nested batches"), "{f:?}");
        let good = "impl A { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Pong => {}\n        Msg::Access => {}\n        Msg::Batch(inner) => {\n            for s in inner { debug_assert!(!matches!(s, Msg::Batch(_))); self.handle(s); }\n        }\n    }\n} }\n";
        assert!(run("x/control.rs", good).is_empty(), "{:?}", run("x/control.rs", good));
    }

    #[test]
    fn side_effect_before_dedup_fires() {
        let bad = "impl D { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Pong => {}\n        Msg::Batch(_) => {}\n        Msg::Access => {\n            self.store.apply_chunk(1);\n            self.marks.insert(1);\n        }\n    }\n} }\n";
        let f = run("x/data.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("dedup"), "{f:?}");
        let good = "impl D { fn handle(&mut self, m: Msg) {\n    match m {\n        Msg::Ping => {}\n        Msg::Pong => {}\n        Msg::Batch(_) => {}\n        Msg::Access => {\n            if self.marks.contains(&1) { return; }\n            self.store.apply_chunk(1);\n        }\n    }\n} }\n";
        assert!(run("x/data.rs", good).is_empty(), "{:?}", run("x/data.rs", good));
    }

    #[test]
    fn non_actor_files_are_skipped() {
        assert!(run("x/msg.rs", "fn f() {}\n").is_empty());
    }
}
