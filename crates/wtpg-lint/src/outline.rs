//! The item-outline parser: recursive descent over the token stream.
//!
//! Not a full AST — just the shapes the passes need:
//!
//! * functions with their qualified name (`Type::name` inside an `impl`,
//!   `Trait::name` inside a `trait`),
//!   signature and body token ranges;
//! * `enum` declarations with their variant names;
//! * `match` expressions inside a body, split into arms with pattern and
//!   body token ranges.
//!
//! Brace matching over the lexed token stream is exact (strings and
//! comments are already gone), which is what makes the extraction reliable
//! without parsing types or expressions.

use crate::lex::Tok;

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Simple name.
    pub name: String,
    /// `Type::name` for methods in an `impl` block (`Trait::name` in a
    /// `trait` block), else the simple name.
    pub qual: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Token range `[start, end)` of the signature: after the name, up to
    /// (excluding) the body's `{` or the terminating `;`.
    pub sig: (usize, usize),
    /// Token range `[start, end)` strictly inside the body braces
    /// (`start == end` for bodiless declarations).
    pub body: (usize, usize),
}

/// One `enum` item.
#[derive(Debug)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// Everything the outline parser extracted from one file.
#[derive(Debug, Default)]
pub struct Outline {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Enums, in source order.
    pub enums: Vec<EnumItem>,
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// stream is unbalanced — lexing guarantees balance for valid Rust).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
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

/// Keywords that look like call targets but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "fn", "let", "else", "in", "as", "move",
    "mut", "ref", "break", "continue", "unsafe", "async", "await", "dyn", "impl", "where",
];

/// True if `name` is a Rust keyword (so `if (x)` is not a call).
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

impl Outline {
    /// Parses the outline of one file's token stream.
    pub fn parse(toks: &[Tok]) -> Outline {
        let mut out = Outline::default();
        let mut depth = 0i64;
        // (depth the impl block's `{` sits at, type name)
        let mut impl_stack: Vec<(i64, String)> = Vec::new();
        let mut pending_impl: Option<String> = None;
        let mut i = 0;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(name) = pending_impl.take() {
                        impl_stack.push((depth, name));
                    }
                    i += 1;
                }
                "}" => {
                    if impl_stack.last().is_some_and(|(d, _)| *d == depth) {
                        impl_stack.pop();
                    }
                    depth -= 1;
                    i += 1;
                }
                "impl" => {
                    pending_impl = Some(impl_type_name(toks, i + 1));
                    i += 1;
                }
                // A trait's methods are qualified by the trait: `self.f()`
                // may reach them, as it never reaches a free fn.
                "trait" if toks.get(i + 1).is_some_and(Tok::is_word) => {
                    pending_impl = toks.get(i + 1).map(|t| t.text.clone());
                    i += 1;
                }
                "enum" => {
                    i = parse_enum(toks, i, &mut out);
                }
                "fn" => {
                    i = parse_fn(toks, i, impl_stack.last().map(|(_, n)| n.as_str()), &mut out);
                }
                _ => i += 1,
            }
        }
        out
    }
}

/// The self-type of an `impl` header starting after the `impl` keyword:
/// first identifier after `for` when present (`impl Trait for Type`), else
/// the first identifier (`impl Type`, generics skipped).
fn impl_type_name(toks: &[Tok], from: usize) -> String {
    let mut first = None;
    let mut after_for = None;
    let mut saw_for = false;
    let mut angle = 0i64;
    for t in toks.iter().skip(from) {
        match t.text.as_str() {
            "{" => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => saw_for = true,
            w if angle == 0 && !w.is_empty() && toks_is_type_word(w) => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(w.to_string());
                    }
                } else if first.is_none() {
                    first = Some(w.to_string());
                }
            }
            _ => {}
        }
    }
    after_for.or(first).unwrap_or_default()
}

fn toks_is_type_word(w: &str) -> bool {
    w.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') && !is_keyword(w)
}

/// Parses `fn name(...) ... { body }` (or a bodiless `;` declaration),
/// records it, and returns the index just past the signature (the body
/// tokens are *not* skipped so nested items and depth tracking still see
/// them — the caller's loop keeps walking).
fn parse_fn(toks: &[Tok], fn_idx: usize, impl_type: Option<&str>, out: &mut Outline) -> usize {
    let Some(name_tok) = toks.get(fn_idx + 1) else {
        return fn_idx + 1;
    };
    if !name_tok.is_word() {
        return fn_idx + 1;
    }
    let name = name_tok.text.clone();
    let sig_start = fn_idx + 2;
    // The signature ends at the first `{` or `;` at paren depth 0. Generic
    // bounds never contain braces, so this is exact in practice.
    let mut paren = 0i64;
    let mut j = sig_start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => break,
            ";" if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let body = if toks.get(j).is_some_and(|t| t.text == "{") {
        let close = match_brace(toks, j);
        (j + 1, close)
    } else {
        (j, j)
    };
    let qual = match impl_type {
        Some(t) if !t.is_empty() => format!("{t}::{name}"),
        _ => name.clone(),
    };
    out.fns.push(FnItem {
        name,
        qual,
        line: toks[fn_idx].line,
        sig: (sig_start, j),
        body,
    });
    j + 1
}

/// Parses `enum Name { Variant { a, b }, Tuple(X, Y), Unit, … }` and
/// returns the index just past the enum's closing brace.
fn parse_enum(toks: &[Tok], enum_idx: usize, out: &mut Outline) -> usize {
    let Some(name_tok) = toks.get(enum_idx + 1) else {
        return enum_idx + 1;
    };
    if !name_tok.is_word() {
        return enum_idx + 1;
    }
    let name = name_tok.text.clone();
    let mut j = enum_idx + 2;
    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
        j += 1;
    }
    if toks.get(j).is_none_or(|t| t.text != "{") {
        return j; // `enum` in some other position; bail.
    }
    let close = match_brace(toks, j);
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        // Skip attributes `#[...]`.
        if toks[k].text == "#" && toks.get(k + 1).is_some_and(|t| t.text == "[") {
            let mut bd = 0i64;
            while k < close {
                match toks[k].text.as_str() {
                    "[" => bd += 1,
                    "]" => {
                        bd -= 1;
                        if bd == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            continue;
        }
        if toks[k].text == "," {
            k += 1;
            continue;
        }
        if !toks[k].is_word() {
            k += 1;
            continue;
        }
        variants.push(toks[k].text.clone());
        // Skip the variant's fields and discriminant, up to its comma.
        let mut bd = 0i64;
        while k < close {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => bd += 1,
                ")" | "]" | "}" => bd -= 1,
                "," if bd == 0 => break,
                _ => {}
            }
            k += 1;
        }
    }
    out.enums.push(EnumItem { name, variants });
    close + 1
}

/// One arm of a `match`.
#[derive(Debug)]
pub struct MatchArm {
    /// Token range `[start, end)` of the pattern (before `=>`), guard
    /// included.
    pub pat: (usize, usize),
    /// Token range `[start, end)` of the arm body (inside braces for block
    /// bodies, up to the arm-separating `,` otherwise).
    pub body: (usize, usize),
    /// 0-based line the pattern starts on.
    pub line: usize,
}

/// One `match` expression.
#[derive(Debug)]
pub struct MatchExpr {
    /// Token range `[start, end)` of the scrutinee.
    pub scrutinee: (usize, usize),
    /// The arms, in order.
    pub arms: Vec<MatchArm>,
    /// 0-based line of the `match` keyword.
    pub line: usize,
}

/// Extracts every `match` expression (outer and nested) inside the token
/// range `[start, end)`.
pub fn matches_in(toks: &[Tok], range: (usize, usize)) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    let mut i = range.0;
    while i < range.1.min(toks.len()) {
        if toks[i].text != "match" {
            i += 1;
            continue;
        }
        // Scrutinee: up to the first `{` at paren depth 0 (struct literals
        // are not allowed in match scrutinees without parens, so this `{`
        // is the match block).
        let mut paren = 0i64;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        let close = match_brace(toks, j);
        let arms = parse_arms(toks, j + 1, close);
        out.push(MatchExpr {
            scrutinee: (i + 1, j),
            arms,
            line: toks[i].line,
        });
        // Continue *inside* the block so nested matches are found too.
        i = j + 1;
    }
    out
}

/// Parses the arms between a match block's braces `[start, end)`.
fn parse_arms(toks: &[Tok], start: usize, end: usize) -> Vec<MatchArm> {
    let mut arms = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].text == "," {
            i += 1;
            continue;
        }
        let pat_start = i;
        // Pattern (and optional guard): up to `=>` at depth 0 relative to
        // the arm — patterns may contain `{ .. }`, `( .. )`, `[ .. ]`.
        let mut bd = 0i64;
        let mut j = i;
        while j < end {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => bd += 1,
                ")" | "]" | "}" => bd -= 1,
                "=>" if bd == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= end {
            break; // trailing tokens with no arrow — not an arm
        }
        let pat = (pat_start, j);
        let line = toks[pat_start].line;
        let body_first = j + 1;
        let body;
        let next_i;
        if toks.get(body_first).is_some_and(|t| t.text == "{") {
            let bclose = match_brace(toks, body_first);
            body = (body_first + 1, bclose);
            next_i = bclose + 1;
        } else {
            // Expression body: up to `,` at depth 0, or the block's end.
            let mut bd2 = 0i64;
            let mut k = body_first;
            while k < end {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => bd2 += 1,
                    ")" | "]" | "}" => bd2 -= 1,
                    "," if bd2 == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            body = (body_first, k);
            next_i = k;
        }
        arms.push(MatchArm { pat, body, line });
        i = next_i;
    }
    arms
}

/// A call site found inside a body range.
#[derive(Debug)]
pub struct CallSite {
    /// The callee's simple name (last path segment).
    pub name: String,
    /// 0-based line of the call.
    pub line: usize,
    /// Call form: `self.name(...)`, bare `name(...)`, or `Path::name(...)`.
    pub via_self: bool,
}

/// Extracts call sites from `[start, end)`. Only the three resolvable
/// forms produce calls — `self.name(…)`, bare `name(…)`, and
/// `Path::name(…)` — because a general method call `x.name(…)` cannot be
/// resolved without types and would wire unrelated same-named methods
/// together. Macros (`name!(…)`) are excluded.
pub fn calls_in(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if !toks[i].is_word() || is_keyword(&toks[i].text) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        // Exclude macro invocations `name!(`.
        // (The `!` sits between the name and `(`, so this form never gets
        // here; `name !` with a space still tokenizes the same way.)
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        match prev {
            Some(".") => {
                // Method call: resolvable only on `self`.
                let recv = i.checked_sub(2).map(|p| toks[p].text.as_str());
                if recv == Some("self") {
                    out.push(CallSite {
                        name: toks[i].text.clone(),
                        line: toks[i].line,
                        via_self: true,
                    });
                }
            }
            Some("::") => {
                out.push(CallSite {
                    name: toks[i].text.clone(),
                    line: toks[i].line,
                    via_self: false,
                });
            }
            Some("fn") => {} // a definition, not a call
            _ => {
                out.push(CallSite {
                    name: toks[i].text.clone(),
                    line: toks[i].line,
                    via_self: false,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, mark_test_regions, tokenize};

    fn outline(src: &str) -> (Vec<Tok>, Outline) {
        let mut lines = lex(src);
        mark_test_regions(&mut lines);
        let toks = tokenize(&lines);
        let o = Outline::parse(&toks);
        (toks, o)
    }

    #[test]
    fn fns_and_impls_are_qualified() {
        let src = "fn free() { a(); }\nimpl Foo {\n    fn method(&self) -> u32 { 1 }\n}\nimpl Bar for Baz { fn trait_m(&self) {} }\npub trait Step: Send { fn go(&self); fn twice(&self) { self.go(); } }\n";
        let (_, o) = outline(src);
        let quals: Vec<&str> = o.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["free", "Foo::method", "Baz::trait_m", "Step::go", "Step::twice"]);
    }

    #[test]
    fn enum_variants_parse() {
        let src = "pub enum Msg {\n    Submit { client: u32, txn: TxnId },\n    Shutdown,\n    Batch(Vec<Msg>),\n    Tagged = 4,\n}\n";
        let (_, o) = outline(src);
        assert_eq!(o.enums.len(), 1);
        assert_eq!(o.enums[0].name, "Msg");
        assert_eq!(o.enums[0].variants, ["Submit", "Shutdown", "Batch", "Tagged"]);
    }

    #[test]
    fn match_arms_split_patterns_and_bodies() {
        let src = "fn f(m: Msg) {\n    match m {\n        Msg::Batch(inner) => {\n            for s in inner { self.handle(s); }\n        }\n        Msg::Shutdown => stop(),\n        other => fail(other),\n    }\n}\n";
        let (toks, o) = outline(src);
        let ms = matches_in(&toks, o.fns[0].body);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].arms.len(), 3);
        let pat0: Vec<&str> = toks[ms[0].arms[0].pat.0..ms[0].arms[0].pat.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(pat0, ["Msg", "::", "Batch", "(", "inner", ")"]);
    }

    #[test]
    fn calls_resolve_self_bare_and_path_only() {
        let src = "fn f(&self) {\n    self.drive(t);\n    helper(1);\n    Wall::now_us();\n    other.method(2);\n    vec.push(3);\n    assert!(x);\n}\n";
        let (toks, o) = outline(src);
        let calls: Vec<String> = calls_in(&toks, o.fns[0].body)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(calls, ["drive", "helper", "now_us"]);
    }
}
