//! In-memory spans for the traced run: one per call the benchmark
//! makes into a layer's public functions, written out when the run
//! ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregates of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl SpanStats {
    /// Self time of a name that may not have been recorded.
    pub fn self_of(summary: &BTreeMap<&'static str, SpanStats>, name: &str) -> f64 {
        summary.get(name).map_or(0.0, |s| s.self_ns)
    }

    /// Total time of a name that may not have been recorded.
    pub fn total_of(summary: &BTreeMap<&'static str, SpanStats>, name: &str) -> f64 {
        summary.get(name).map_or(0.0, |s| s.total_ns)
    }
}

/// A bounded span recorder. Spans nest: a span begun while another is
/// open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder holding at most `capacity` spans, all allocated now.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Whether `more` further spans still fit without growing.
    pub fn has_room(&self, more: usize) -> bool {
        self.spans.capacity() - self.spans.len() >= more
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Count, total time and self time per span name. A span's self
    /// time is its duration minus the part of it its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur as f64;
            e.self_ns += dur.saturating_sub(child) as f64;
        }
        out
    }

    /// Writes every span as one CSV row `id,parent,name,start_ns,end_ns`
    /// (`parent` is empty for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(w, "{i},,{},{},{}", s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(w, "{i},{},{},{},{}", s.parent, s.name, s.start_ns, s.end_ns)?;
            }
        }
        w.flush()
    }
}
