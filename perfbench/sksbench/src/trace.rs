//! In-memory span recorder for the traced run: one span per phase, per
//! client op and per call into the engine or a layer probe, written out
//! once the run is over.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    /// Id shared by an op span and its calls; 0 outside any op.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            ops: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Opens the span of a new client op: it and every span under it
    /// carry a fresh op id.
    pub fn begin_op(&mut self, name: &'static str) {
        self.ops += 1;
        self.op = self.ops;
        self.begin(name);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("span open") as usize;
        self.spans[id].end_ns = self.now();
        self.op = self.open.last().map_or(0, |&p| self.spans[p as usize].op);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// One JSON object per line: id, parent (null at a root), op id, name,
    /// start and end in nanoseconds since the recorder was created.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `begin` on an optional recorder (untraced runs pass `None`).
pub fn begin(t: &mut Option<Tracer>, name: &'static str) {
    if let Some(t) = t {
        t.begin(name);
    }
}

pub fn begin_op(t: &mut Option<Tracer>, name: &'static str) {
    if let Some(t) = t {
        t.begin_op(name);
    }
}

pub fn end(t: &mut Option<Tracer>) {
    if let Some(t) = t {
        t.end();
    }
}
