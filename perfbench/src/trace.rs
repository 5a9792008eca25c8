//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, kept in memory, and written as JSON lines when the run ends.
//! Each span has a name, start and end (ns since the run began), the
//! index of the span that caused it, and the id of the operation it
//! belongs to. With tracing off, [`Trace::span`] only calls its closure.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Trace {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. A span opened with no span
    /// around it starts a new operation; nested spans share their
    /// parent's operation id.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let op = match parent {
            Some(p) => self.spans.borrow()[p].op,
            None => self.new_op(),
        };
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name: name.to_string(),
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// A fresh operation id.
    pub fn new_op(&self) -> u64 {
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        op
    }

    /// Records a span whose bounds were measured elsewhere (for example
    /// from a response's own timestamps). Returns its index for use as
    /// a parent.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_an_operation_and_name_their_parent() {
        let t = Trace::new(true);
        t.span("phase", || t.span("call", || {}));
        t.span("phase", || {});
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, spans[0].op);
        assert_ne!(spans[2].op, spans[0].op);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
