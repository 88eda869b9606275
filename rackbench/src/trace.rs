//! Spans recorded from the benchmark's side of every public call.
//!
//! A span has a name, a start and end (host ns since the tracer started),
//! a parent, and the id of the request that caused it. The layer of a span
//! is its name up to the first `.`; the request span itself is named `op`.
//! Spans stay in memory; [`Tracer::write_jsonl`] writes them out once the
//! run has ended. With tracing off every call is a no-op that reads no
//! clock, so the untraced run pays nothing for the hooks.

use crate::clock::{self, Stopwatch};
use std::collections::BTreeMap;
use std::io::Write;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (`layer` or `layer.detail`).
    pub name: &'static str,
    /// Host ns since the tracer started.
    pub start: u64,
    /// Host ns since the tracer started.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id shared by every span of one op.
    pub req: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (`None` while tracing is off).
pub type Open = Option<u32>;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: clock::start(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tag the spans that follow with request `id`.
    pub fn request(&mut self, id: u64) {
        self.req = id;
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.clock.ns();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close `span`.
    pub fn exit(&mut self, span: Open) {
        let Some(idx) = span else { return };
        let now = self.clock.ns();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == idx) {
            self.stack.truncate(pos);
        }
        self.spans[idx as usize].end = now;
    }

    /// Durations of every span named `name`, in host ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover, summed by layer. The request span `op` is left out: its
    /// self time is the unattributed remainder.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            if s.name != "op" {
                *out.entry(s.layer()).or_insert(0) += s.dur().saturating_sub(c);
            }
        }
        out
    }

    /// Write the first `limit` spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}
