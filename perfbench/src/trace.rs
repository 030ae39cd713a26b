//! In-memory spans recorded around calls into each layer.
//!
//! The program itself has no span instrumentation; the benchmark wraps
//! its own calls into each crate's public functions. Spans of one request
//! share its id, and a span may name the span that caused it. They stay
//! in memory while the run measures and are written out when it ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::Samples;

/// One timed call: `[start_ns, end_ns)` from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A count measured at a span boundary: rows returned, blocks read.
#[derive(Debug, Clone)]
pub struct Count {
    pub name: &'static str,
    pub request: u64,
    pub value: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns its index.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, request, parent);
        let r = f();
        self.end(s);
        r
    }

    /// Records a span measured elsewhere (from the tracer's clock).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: u64) {
        self.counts.push(Count {
            name,
            request,
            value,
        });
    }

    /// Sum of every count called `name`.
    pub fn count_sum(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.us());
        }
        s
    }

    /// Writes every span as one tab-separated line
    /// (`span  index  name  request  parent  start_ns  end_ns`), then
    /// every count (`count  name  request  value`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "span\t{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        for c in &self.counts {
            let _ = writeln!(text, "count\t{}\t{}\t{}", c.name, c.request, c.value);
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.flush()
    }
}
