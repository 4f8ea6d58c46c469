//! Pass 4: wire-schema stability.
//!
//! Parses `enum Msg` and `fn tag` from `msg.rs` and the
//! `MAX_FRAME`/`MAX_STEPS`/`MAX_BATCH` consts from `codec.rs`, and diffs
//! the result against the checked-in `wire-schema.lock` snapshot. Any
//! drift — a variant's wire tag, its field order, a variant added,
//! removed or reordered, or a codec ceiling — is a finding until the lock
//! is regenerated deliberately (`wtpg-lint --write-schema-lock`), making
//! codec drift a lint failure instead of a runtime proptest catch. These
//! findings are not waivable by design.
//!
//! The lock format is line-oriented and shared with `wtpg-net`'s golden
//! test (single source of truth):
//!
//! ```text
//! max_frame = 1048576
//! max_steps = 4096
//! max_batch = 4096
//! msg Submit = 0 [client, txn, step, spec]
//! msg Shutdown = 9 []
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use crate::outline::matches_in;
use crate::{Finding, Rule, SourceFile};

/// One message variant's wire shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgSchema {
    /// Variant name.
    pub name: String,
    /// Wire tag byte.
    pub tag: u64,
    /// Field names in wire (declaration) order; tuple fields are `"0"`, …
    pub fields: Vec<String>,
}

/// The full wire schema: codec ceilings plus every variant in declaration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSchema {
    /// `codec::MAX_FRAME`.
    pub max_frame: u64,
    /// `codec::MAX_STEPS`.
    pub max_steps: u64,
    /// `codec::MAX_BATCH`.
    pub max_batch: u64,
    /// `codec::MAX_EXCLUDE`.
    pub max_exclude: u64,
    /// `codec::MAX_FORGET`.
    pub max_forget: u64,
    /// Variants in declaration order.
    pub msgs: Vec<MsgSchema>,
}

/// Source lines (0-based) for anchoring drift findings at the code side.
struct SchemaLines {
    enum_line: usize,
    variant_lines: Vec<(String, usize)>,
    frame_line: usize,
    steps_line: usize,
    batch_line: usize,
    exclude_line: usize,
    forget_line: usize,
}

/// Evaluates a const value expression: a plain integer or `a << b`.
fn eval_const(value: &str) -> Option<u64> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    match parts.as_slice() {
        [a] => a.parse().ok(),
        [a, "<<", b] => {
            let a: u64 = a.parse().ok()?;
            let b: u32 = b.parse().ok()?;
            a.checked_shl(b)
        }
        _ => None,
    }
}

fn const_of(sf: &SourceFile, name: &str) -> Result<(u64, usize), String> {
    let c = sf
        .outline
        .consts
        .iter()
        .find(|c| c.name == name)
        .ok_or(format!("no `const {name}`"))?;
    let v = eval_const(&c.value).ok_or(format!("cannot evaluate `{name} = {}`", c.value))?;
    Ok((v, c.line))
}

/// Extracts the current wire schema from parsed `msg.rs` and `codec.rs`.
fn extract(msg: &SourceFile, codec: &SourceFile) -> Result<(WireSchema, SchemaLines), String> {
    let e = msg
        .outline
        .enums
        .iter()
        .find(|e| e.name == "Msg")
        .ok_or("no `enum Msg` in msg.rs")?;
    let tag_fn = msg
        .outline
        .fns
        .iter()
        .find(|f| f.name == "tag")
        .ok_or("no `fn tag` in msg.rs")?;
    let ms = matches_in(&msg.tokens, tag_fn.body);
    let m = ms.first().ok_or("`fn tag` has no match")?;
    let mut tags: Vec<(String, u64)> = Vec::new();
    for arm in &m.arms {
        let pat = &msg.tokens[arm.pat.0..arm.pat.1.min(msg.tokens.len())];
        let name = pat
            .windows(3)
            .find(|w| w[0].text == "Msg" && w[1].text == "::" && w[2].is_word())
            .map(|w| w[2].text.clone());
        let Some(name) = name else { continue };
        let body = &msg.tokens[arm.body.0..arm.body.1.min(msg.tokens.len())];
        let Some(tag) = body.iter().find_map(|t| t.text.parse::<u64>().ok()) else {
            continue;
        };
        tags.push((name, tag));
    }
    let mut msgs = Vec::new();
    let mut variant_lines = Vec::new();
    let enum_line = msg
        .tokens
        .get(e.body.0)
        .map(|t| t.line.saturating_sub(1))
        .unwrap_or(0);
    for v in &e.variants {
        let tag = tags
            .iter()
            .find(|(n, _)| *n == v.name)
            .map(|(_, t)| *t)
            .ok_or(format!("`fn tag` has no arm for `Msg::{}`", v.name))?;
        variant_lines.push((v.name.clone(), v.line));
        msgs.push(MsgSchema {
            name: v.name.clone(),
            tag,
            fields: v.fields.clone(),
        });
    }
    let (max_frame, frame_line) = const_of(codec, "MAX_FRAME")?;
    let (max_steps, steps_line) = const_of(codec, "MAX_STEPS")?;
    let (max_batch, batch_line) = const_of(codec, "MAX_BATCH")?;
    let (max_exclude, exclude_line) = const_of(codec, "MAX_EXCLUDE")?;
    let (max_forget, forget_line) = const_of(codec, "MAX_FORGET")?;
    Ok((
        WireSchema {
            max_frame,
            max_steps,
            max_batch,
            max_exclude,
            max_forget,
            msgs,
        },
        SchemaLines {
            enum_line,
            variant_lines,
            frame_line,
            steps_line,
            batch_line,
            exclude_line,
            forget_line,
        },
    ))
}

/// Renders a schema in the lock format, with a regeneration header.
pub fn render(ws: &WireSchema) -> String {
    let mut s = String::new();
    s.push_str("# wire-schema.lock — the pinned wtpg-net wire protocol.\n");
    s.push_str("# One line per Msg variant, in declaration order: `msg <Name> = <tag> [fields…]`,\n");
    s.push_str("# plus the codec's frame/step/batch ceilings. wtpg-lint's schema pass and\n");
    s.push_str("# wtpg-net's golden test both consume this file; regenerate it deliberately\n");
    s.push_str("# with: cargo run -p wtpg-lint -- --write-schema-lock\n");
    s.push_str(&format!("max_frame = {}\n", ws.max_frame));
    s.push_str(&format!("max_steps = {}\n", ws.max_steps));
    s.push_str(&format!("max_batch = {}\n", ws.max_batch));
    s.push_str(&format!("max_exclude = {}\n", ws.max_exclude));
    s.push_str(&format!("max_forget = {}\n", ws.max_forget));
    for m in &ws.msgs {
        s.push_str(&format!("msg {} = {} [{}]\n", m.name, m.tag, m.fields.join(", ")));
    }
    s
}

/// Parses the lock format back into a schema. Shared with `wtpg-net`'s
/// golden test.
pub fn parse_lock(text: &str) -> Result<WireSchema, String> {
    let mut max_frame = None;
    let mut max_steps = None;
    let mut max_batch = None;
    let mut max_exclude = None;
    let mut max_forget = None;
    let mut msgs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("msg ") {
            let (name, rest) = rest
                .split_once('=')
                .ok_or(format!("line {lno}: expected `msg Name = tag [fields]`"))?;
            let rest = rest.trim();
            let (tag_s, fields_s) = rest
                .split_once('[')
                .ok_or(format!("line {lno}: expected `[fields]`"))?;
            let tag = tag_s
                .trim()
                .parse()
                .map_err(|_| format!("line {lno}: bad tag `{}`", tag_s.trim()))?;
            let fields_s = fields_s
                .strip_suffix(']')
                .ok_or(format!("line {lno}: missing `]`"))?;
            let fields = fields_s
                .split(',')
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty())
                .collect();
            msgs.push(MsgSchema {
                name: name.trim().to_string(),
                tag,
                fields,
            });
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or(format!("line {lno}: expected `key = value`"))?;
        let v: u64 = v
            .trim()
            .parse()
            .map_err(|_| format!("line {lno}: bad value `{}`", v.trim()))?;
        match k.trim() {
            "max_frame" => max_frame = Some(v),
            "max_steps" => max_steps = Some(v),
            "max_batch" => max_batch = Some(v),
            "max_exclude" => max_exclude = Some(v),
            "max_forget" => max_forget = Some(v),
            other => return Err(format!("line {lno}: unknown key `{other}`")),
        }
    }
    Ok(WireSchema {
        max_frame: max_frame.ok_or("lock has no max_frame")?,
        max_steps: max_steps.ok_or("lock has no max_steps")?,
        max_batch: max_batch.ok_or("lock has no max_batch")?,
        max_exclude: max_exclude.ok_or("lock has no max_exclude")?,
        max_forget: max_forget.ok_or("lock has no max_forget")?,
        msgs,
    })
}

fn finding(file: &Path, line0: usize, message: String) -> Finding {
    Finding {
        file: file.to_path_buf(),
        line: line0 + 1,
        rule: Rule::Schema,
        message,
    }
}

/// Diffs the current schema against the locked one, anchoring findings at
/// the code side (`msg.rs` variant lines, `codec.rs` const lines).
fn diff(
    cur: &WireSchema,
    lines: &SchemaLines,
    locked: &WireSchema,
    msg_path: &Path,
    codec_path: &Path,
    out: &mut Vec<Finding>,
) {
    const BUMP: &str = "regenerate wire-schema.lock deliberately (--write-schema-lock) if this protocol change is intended";
    for (field, cur_v, lock_v, line) in [
        ("MAX_FRAME", cur.max_frame, locked.max_frame, lines.frame_line),
        ("MAX_STEPS", cur.max_steps, locked.max_steps, lines.steps_line),
        ("MAX_BATCH", cur.max_batch, locked.max_batch, lines.batch_line),
        (
            "MAX_EXCLUDE",
            cur.max_exclude,
            locked.max_exclude,
            lines.exclude_line,
        ),
        ("MAX_FORGET", cur.max_forget, locked.max_forget, lines.forget_line),
    ] {
        if cur_v != lock_v {
            out.push(finding(
                codec_path,
                line,
                format!("`{field}` is {cur_v} but wire-schema.lock pins {lock_v} — {BUMP}"),
            ));
        }
    }
    let cur_names: Vec<&str> = cur.msgs.iter().map(|m| m.name.as_str()).collect();
    let lock_names: Vec<&str> = locked.msgs.iter().map(|m| m.name.as_str()).collect();
    if cur_names != lock_names {
        out.push(finding(
            msg_path,
            lines.enum_line,
            format!(
                "Msg variant set/order changed: code has [{}], wire-schema.lock pins [{}] — {BUMP}",
                cur_names.join(", "),
                lock_names.join(", ")
            ),
        ));
    }
    for m in &cur.msgs {
        let Some(l) = locked.msgs.iter().find(|l| l.name == m.name) else {
            continue; // covered by the set/order finding
        };
        let line = lines
            .variant_lines
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, l)| *l)
            .unwrap_or(lines.enum_line);
        if m.tag != l.tag {
            out.push(finding(
                msg_path,
                line,
                format!(
                    "wire tag for `Msg::{}` is {} but wire-schema.lock pins {} — {BUMP}",
                    m.name, m.tag, l.tag
                ),
            ));
        }
        if m.fields != l.fields {
            out.push(finding(
                msg_path,
                line,
                format!(
                    "field order for `Msg::{}` is [{}] but wire-schema.lock pins [{}] — {BUMP}",
                    m.name,
                    m.fields.join(", "),
                    l.fields.join(", ")
                ),
            ));
        }
    }
}

/// Runs the schema pass: locate `msg.rs`/`codec.rs` among `files`, extract
/// the current schema, and diff it against `lock_path`. Missing or
/// unparsable inputs are findings (fail-closed).
pub fn check_against_lock(files: &[SourceFile], lock_path: &Path, out: &mut Vec<Finding>) {
    let by_suffix = |suffix: &str| {
        files.iter().find(|f| {
            f.path
                .to_string_lossy()
                .replace('\\', "/")
                .ends_with(suffix)
        })
    };
    let (Some(msg), Some(codec)) = (by_suffix("/msg.rs"), by_suffix("/codec.rs")) else {
        return; // not the net crate layout
    };
    let (cur, lines) = match extract(msg, codec) {
        Ok(x) => x,
        Err(e) => {
            out.push(finding(&msg.path, 0, format!("cannot extract wire schema: {e}")));
            return;
        }
    };
    let locked = match fs::read_to_string(lock_path) {
        Ok(text) => match parse_lock(&text) {
            Ok(l) => l,
            Err(e) => {
                out.push(finding(lock_path, 0, format!("bad wire-schema.lock: {e}")));
                return;
            }
        },
        Err(_) => {
            out.push(finding(
                lock_path,
                0,
                "missing wire-schema.lock — generate it with `wtpg-lint --write-schema-lock`"
                    .to_string(),
            ));
            return;
        }
    };
    diff(&cur, &lines, &locked, &msg.path, &codec.path, out);
}

/// Extracts the current schema from `msg.rs`/`codec.rs` paths and renders
/// the lock text (the `--write-schema-lock` path).
pub fn render_current(msg_path: &Path, codec_path: &Path) -> Result<String, String> {
    let read = |p: &Path| -> Result<SourceFile, String> {
        let src = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(SourceFile::parse(p, &src))
    };
    let msg = read(msg_path)?;
    let codec = read(codec_path)?;
    let (cur, _) = extract(&msg, &codec)?;
    Ok(render(&cur))
}

/// The conventional locations of the schema inputs under a workspace root.
pub fn net_paths(root: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (
        root.join("crates/wtpg-net/src/msg.rs"),
        root.join("crates/wtpg-net/src/codec.rs"),
        root.join("wire-schema.lock"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSG: &str = "pub enum Msg {\n    Ping { a: u32, b: u32 },\n    Pong,\n    Batch(Vec<Msg>),\n}\nimpl Msg {\n    pub fn tag(&self) -> u8 {\n        match self {\n            Msg::Ping { .. } => 0,\n            Msg::Pong => 1,\n            Msg::Batch(_) => 2,\n        }\n    }\n}\n";
    const CODEC: &str = "pub const MAX_FRAME: usize = 1 << 20;\npub const MAX_STEPS: u32 = 4096;\npub const MAX_BATCH: u32 = 4096;\npub const MAX_EXCLUDE: u32 = 65536;\npub const MAX_FORGET: u32 = 4096;\n";

    fn current() -> (WireSchema, SchemaLines) {
        let msg = SourceFile::parse(Path::new("x/msg.rs"), MSG);
        let codec = SourceFile::parse(Path::new("x/codec.rs"), CODEC);
        extract(&msg, &codec).expect("extracts")
    }

    #[test]
    fn extract_reads_tags_fields_and_consts() {
        let (ws, _) = current();
        assert_eq!(ws.max_frame, 1 << 20);
        assert_eq!(ws.msgs.len(), 3);
        assert_eq!(ws.msgs[0].name, "Ping");
        assert_eq!(ws.msgs[0].tag, 0);
        assert_eq!(ws.msgs[0].fields, ["a", "b"]);
        assert_eq!(ws.msgs[2].fields, ["0"]);
    }

    #[test]
    fn render_parse_round_trips() {
        let (ws, _) = current();
        let text = render(&ws);
        let back = parse_lock(&text).expect("parses");
        assert_eq!(back, ws);
    }

    #[test]
    fn drift_is_detected() {
        let (ws, lines) = current();
        let mut locked = ws.clone();
        locked.msgs[1].tag = 9; // Pong drifts
        locked.max_frame = 4096;
        let mut out = Vec::new();
        diff(&ws, &lines, &locked, Path::new("x/msg.rs"), Path::new("x/codec.rs"), &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("MAX_FRAME")), "{out:?}");
        assert!(
            out.iter().any(|f| f.message.contains("`Msg::Pong`")),
            "{out:?}"
        );
        let mut clean = Vec::new();
        diff(&ws, &lines, &ws, Path::new("m"), Path::new("c"), &mut clean);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn variant_reorder_is_detected() {
        let (ws, lines) = current();
        let mut locked = ws.clone();
        locked.msgs.swap(0, 1);
        let mut out = Vec::new();
        diff(&ws, &lines, &locked, Path::new("m"), Path::new("c"), &mut out);
        assert!(
            out.iter().any(|f| f.message.contains("set/order")),
            "{out:?}"
        );
    }
}
