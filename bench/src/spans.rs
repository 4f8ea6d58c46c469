//! The benchmark's own spans: recorded around its calls into each layer's
//! public functions, kept in memory, written out as JSONL when the run
//! ends. Nothing here reaches into the program — in-program phase spans
//! are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `layer` is the module path of the code the span
/// wraps (`net.codec`, `dur.wal`, …; `bench` for the harness itself);
/// `ops` is how many operations of kind `name` ran inside it, so
/// `self_ns / ops` is a per-operation cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began (`None` for the root).
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, crediting it
    /// with `ops` operations. Returns its duration in ns.
    pub fn exit(&mut self, id: u32, ops: u64) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ops = ops;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span; `f` returns its result and the op count.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        let id = self.enter(layer, name);
        let (out, ops) = f(self);
        self.exit(id, ops);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time and Σ ops over every closed span of `(layer, name)`.
    pub fn total(&self, layer: &str, name: &str) -> (u64, u64) {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.layer == layer && s.name == name)
            .fold((0, 0), |(ns, ops), (s, self_ns)| {
                (ns + self_ns, ops + s.ops)
            })
    }

    /// How many spans of `(layer, name)` were recorded.
    pub fn calls(&self, layer: &str, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .count()
    }

    /// Self ns per operation over every span of `(layer, name)`; 0 when
    /// none ran.
    pub fn ns_per_op(&self, layer: &str, name: &str) -> f64 {
        let (ns, ops) = self.total(layer, name);
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64
        }
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"ops\":{}}}",
                s.id, s.layer, s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children of one parent never overlap (the
/// tracer is a stack), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let slot = &mut selfs[p as usize];
            *slot = slot.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100; children 10..30 and 40..90; grandchild 50..70.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn tracer_nests_and_totals_by_layer_and_name() {
        let mut t = Tracer::new();
        let root = t.enter("bench", "root");
        for _ in 0..3 {
            t.span("net.codec", "encode", |_| ((), 10));
        }
        let inner = t.span("bench", "outer", |t| {
            (t.span("net.codec", "decode", |_| (7, 5)), 1)
        });
        assert_eq!(inner, 7);
        t.exit(root, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..4].iter().all(|s| s.parent == Some(root)));
        assert_eq!(spans[5].parent, Some(spans[4].id));
        assert_eq!(t.total("net.codec", "encode").1, 30);
        assert_eq!(t.total("net.codec", "decode").1, 5);
        assert_eq!(t.ns_per_op("net.codec", "missing"), 0.0);
        let selfs = self_times(spans);
        let children: u64 = spans[1..5].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(selfs[0], spans[0].end_ns - spans[0].start_ns - children);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new();
        t.span("bench", "root", |t| {
            (t.span("rt.queue", "handoff", |_| ((), 4)), 1)
        });
        let path = std::env::temp_dir().join(format!("bench-spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("temp dir is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        std::fs::remove_file(&path).expect("just written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"layer\":\"bench\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].ends_with("\"ops\":4}"));
    }
}
