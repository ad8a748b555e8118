//! In-memory spans, written out once when the run ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented. A span that covers a loop
//! of `count` identical calls (one stage applied to one batch) carries
//! that count, so per-call cost is `duration / count` without paying two
//! clock reads — 40 to 60 ns — around calls that take 100 to 300 ns.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
/// Cap on spans written per file; the aggregates always use every span.
const MAX_SPANS_WRITTEN: usize = 200_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id for per-request spans, batch number for per-batch ones.
    pub id: u64,
    /// Calls the span covers.
    pub count: u32,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace { epoch, spans: Vec::new() }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; [`Trace::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64, count: u32) -> u32 {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id, count });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `index` and returns its duration in nanoseconds.
    pub fn close(&mut self, index: u32) -> u64 {
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Moves the spans of `other`, recorded against another epoch, into
    /// this trace.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.ns(other.epoch);
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + base },
            ..s
        }));
    }

    /// Total nanoseconds and calls over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + u64::from(s.count)))
    }

    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        let mut out = String::with_capacity(96 * written + 256);
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\
             \"spans_written\":{written},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\
                 \"count\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.count,
                if i + 1 == written { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
