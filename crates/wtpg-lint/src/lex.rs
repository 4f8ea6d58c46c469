//! Lexing: the line-oriented string/comment stripper (v1) and the token
//! stream built on top of it (v2).
//!
//! The line lexer strips string literals and comments (tracking nested
//! block comments and raw strings across lines) and produces per-line
//! code/comment views; `#[cfg(test)]` regions are marked so every rule and
//! pass can skip test code. The token stream then splits the surviving
//! code into identifier/number words and punctuation, each token tagged
//! with its 0-based line — just enough structure for the outline parser,
//! and still dependency-free.

/// One source line after lexing: executable code with strings/comments
/// removed, and the comment text (for waiver parsing).
#[derive(Debug)]
pub struct LineInfo {
    /// Code with string literals collapsed and comments removed.
    pub code: String,
    /// The comment text of the line (waivers live here).
    pub comment: String,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Lexer state carried across lines.
enum LexState {
    Normal,
    BlockComment { depth: usize },
    RawString { hashes: usize },
}

/// Strips string literals and comments, producing per-line code/comment
/// views. Block comments may nest (Rust allows it); raw strings may span
/// lines. Char literals and lifetimes are disambiguated heuristically.
pub fn lex(source: &str) -> Vec<LineInfo> {
    let mut out = Vec::new();
    let mut state = LexState::Normal;
    for raw in source.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            match state {
                LexState::BlockComment { ref mut depth } => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        i += 2;
                        if *depth == 0 {
                            state = LexState::Normal;
                        }
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        i += 2;
                    } else {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                LexState::RawString { hashes } => {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            code.push('"');
                            i += 1 + hashes;
                            state = LexState::Normal;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Normal => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        comment.push_str(&raw[byte_offset(raw, i)..]);
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment { depth: 1 };
                        i += 2;
                    } else if c == 'r' && !prev_is_ident(&chars, i) {
                        if let Some(hashes) = raw_string_hashes(&chars, i + 1) {
                            code.push('"');
                            i += 2 + hashes;
                            state = LexState::RawString { hashes };
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '"' {
                        // Ordinary string literal: skip to the closing quote,
                        // honouring escapes. Unterminated ⇒ rest of line.
                        code.push('"');
                        i += 1;
                        while i < chars.len() {
                            if chars[i] == '\\' {
                                i += 2;
                            } else if chars[i] == '"' {
                                code.push('"');
                                i += 1;
                                break;
                            } else {
                                i += 1;
                            }
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: a char literal closes
                        // with ' after one (possibly escaped) character.
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to closing quote.
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                            code.push_str("' '");
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push_str("' '");
                            i += 3;
                        } else {
                            // Lifetime: keep the tick, it is inert.
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(LineInfo {
            code,
            comment,
            in_test: false,
        });
    }
    out
}

fn byte_offset(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[from..]` begins `#*"` (a raw-string opener after `r`), returns
/// the hash count.
fn raw_string_hashes(chars: &[char], from: usize) -> Option<usize> {
    let mut hashes = 0;
    let mut i = from;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Marks lines inside `#[cfg(test)]` items: from the attribute through the
/// matching close brace (or trailing `;` for brace-less items).
pub fn mark_test_regions(lines: &mut [LineInfo]) {
    let mut depth: i64 = 0;
    let mut test_until_depth: Option<i64> = None;
    let mut pending = false;
    for line in lines.iter_mut() {
        let mut this_in_test = test_until_depth.is_some();
        if line.code.contains("#[cfg(test)]") && test_until_depth.is_none() {
            pending = true;
        }
        if pending {
            this_in_test = true;
        }
        let mut end_after = false;
        let mut pending_done_by_semi = false;
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && test_until_depth.is_none() {
                        test_until_depth = Some(depth - 1);
                        pending = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(d) = test_until_depth {
                        if depth <= d {
                            end_after = true;
                        }
                    }
                }
                // `#[cfg(test)] use ...;` — brace-less item ends here.
                ';' if pending && test_until_depth.is_none() => {
                    pending_done_by_semi = true;
                }
                _ => {}
            }
        }
        line.in_test = this_in_test;
        if end_after {
            test_until_depth = None;
        }
        if pending_done_by_semi {
            pending = false;
        }
    }
}

/// One token of the non-test code: an identifier/number word or a single
/// punctuation mark (with `::`, `->`, `=>`, `<<` kept whole), tagged with
/// its 0-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// The token text.
    pub text: String,
    /// 0-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// True if the token is an identifier or number word.
    pub fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Splits the lexed non-test code into a token stream. String literals are
/// already collapsed to `"` pairs by [`lex`], so no token ever comes from
/// inside a string; whole `#[cfg(test)]` regions are dropped (they are
/// brace-balanced, so the stream stays balanced).
pub fn tokenize(lines: &[LineInfo]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() || c == '"' {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
                continue;
            }
            let pair: Option<&str> = match (c, chars.get(i + 1)) {
                (':', Some(':')) => Some("::"),
                ('-', Some('>')) => Some("->"),
                ('=', Some('>')) => Some("=>"),
                ('<', Some('<')) => Some("<<"),
                _ => None,
            };
            if let Some(p) = pair {
                out.push(Tok {
                    text: p.to_string(),
                    line: lineno,
                });
                i += 2;
            } else {
                out.push(Tok {
                    text: c.to_string(),
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<String> {
        let mut lines = lex(src);
        mark_test_regions(&mut lines);
        tokenize(&lines).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn words_and_punct_split() {
        assert_eq!(
            toks("fn f(x: u32) -> u32 { x << 2 }"),
            ["fn", "f", "(", "x", ":", "u32", ")", "->", "u32", "{", "x", "<<", "2", "}"]
        );
    }

    #[test]
    fn paths_and_arrows_stay_whole() {
        assert_eq!(
            toks("Msg::Batch(_) => 10,"),
            ["Msg", "::", "Batch", "(", "_", ")", "=>", "10", ","]
        );
    }

    #[test]
    fn strings_and_comments_yield_no_tokens() {
        assert_eq!(toks("let s = \"HashMap .lock()\"; // Instant"), ["let", "s", "=", ";"]);
    }

    #[test]
    fn test_regions_are_dropped_balanced() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { if x { } } }\nfn c() {}\n";
        assert_eq!(toks(src), ["fn", "a", "(", ")", "{", "}", "fn", "c", "(", ")", "{", "}"]);
    }
}
