//! Spans recorded by the benchmark around its calls into each layer: name,
//! start, end, parent, operation id.  Kept in memory, written out at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u32,
}

/// Handle of an open (or closed) span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    /// A disabled tracer reads no clock and stores nothing: the same
    /// pipeline code runs with and without it, and the difference is the
    /// tracing overhead.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name statistics over the recorded spans.
pub struct SpanStats {
    pub durations_ns: Vec<u64>,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { enabled: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        self.open.retain(|&open| open != id);
    }

    /// Records a child of `parent` whose duration was read from the
    /// program's own stage histograms (a probe delta) rather than timed here;
    /// such children are laid end to end from the parent's start.
    pub fn child(&mut self, parent: SpanId, name: &'static str, duration_ns: u64) {
        let Some(parent_id) = parent.0 else { return };
        // Children are recorded after their parent, so only the tail is scanned.
        let covered: u64 = self.spans[parent_id as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent_id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let (start_ns, op) = {
            let p = &self.spans[parent_id as usize];
            (p.start_ns + covered, p.op)
        };
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent_id),
            op,
        });
    }

    /// A position in the recording; see [`Tracer::total_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the spans named in `names` recorded since `mark`.
    pub fn total_since(&self, mark: usize, names: &[&str]) -> u64 {
        self.spans[mark..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let stats = by_name.entry(span.name).or_insert(SpanStats {
                durations_ns: Vec::new(),
                total_ns: 0,
                self_ns: 0,
            });
            stats.durations_ns.push(duration);
            stats.total_ns += duration;
            stats.self_ns += duration.saturating_sub(covered);
        }
        by_name
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        write!(file, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                file,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(file, "\n]}}")?;
        file.flush()
    }
}
