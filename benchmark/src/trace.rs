//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The program itself is not instrumented: a traced run drives a pipeline
//! stage by stage from the benchmark's own code and records one span per
//! stage (name, start, end, parent, operation id).  Spans stay in memory and
//! are written out once, when the run ends.  A span's *self time* is its
//! duration minus the time its child spans cover.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (request, batch, round, probe) share this.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.  The traced pipelines run on the calling
/// thread, so a stack of open spans is all the bookkeeping needed.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
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

    /// Runs `f` inside a span named `name` for operation `op`; spans opened
    /// by `f` (through the tracer it is handed) become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in the given unit
    /// (`per = 1e3` for µs, `1e6` for ms); 0.0 when there are none.
    pub fn p50(&self, name: &str, per: f64) -> f64 {
        median(&self.durations_ns(name)) / per
    }

    /// Self time of every span: duration minus its children's durations.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// For each operation rooted at a span called `root`: the summed self
    /// time (ns) of the root's descendants — what the named stages account
    /// for — and the root's own duration (ns).  The root's self time is the
    /// part of the operation no stage covers (loop and tracer overhead).
    /// Spans named `harness.*` are the benchmark's own work inside an
    /// operation (reading counters) and count towards neither.
    pub fn stage_cover(&self, root: &str) -> (Vec<f64>, Vec<f64>) {
        let own = self.self_times_ns();
        // Every span's root ancestor, by walking parents (spans are stored in
        // opening order, so a parent always precedes its children).
        let mut root_of: Vec<usize> = (0..self.spans.len()).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                root_of[i] = root_of[parent];
            }
        }
        // Per root: (stage self time, the harness's own time inside it).
        let mut staged: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let r = root_of[i];
            if self.spans[r].name == root {
                let entry = staged.entry(r).or_insert((0, 0));
                if span.name.starts_with("harness.") {
                    entry.1 += span.duration_ns();
                } else if span.parent.is_some() {
                    entry.0 += own[i];
                }
            }
        }
        let covered = staged.values().map(|&(ns, _)| ns as f64).collect();
        let whole = staged
            .iter()
            .map(|(&r, &(_, harness))| (self.spans[r].duration_ns() - harness) as f64)
            .collect();
        (covered, whole)
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_cover_the_root_and_harness_spans_count_for_nothing() {
        let mut tracer = Tracer::new();
        let spin = |ms: u64| {
            let start = Instant::now();
            while start.elapsed().as_millis() < u128::from(ms) {}
        };
        for op in 0..3 {
            tracer.span("op", op, |t| {
                t.span("stage.a", op, |_| spin(2));
                t.span("stage.b", op, |t| {
                    spin(1);
                    t.span("harness.peek", op, |_| spin(5));
                });
            });
            tracer.span("aside", op, |_| spin(1));
        }
        let (covered, whole) = tracer.stage_cover("op");
        assert_eq!(covered.len(), 3);
        let roots = tracer.durations_ns("op");
        for ((covered, whole), root) in covered.iter().zip(&whole).zip(&roots) {
            // 2 ms + 1 ms of stages; the 5 ms of harness work is in neither.
            // (Relations only: the machine may stall any of the spins.)
            assert!(*covered >= 2.9e6, "covered {covered}");
            assert!(whole >= covered, "whole {whole} under covered {covered}");
            assert!(*whole <= root - 4.9e6, "whole {whole} of root {root}");
        }
        assert_eq!(tracer.durations_ns("stage.a").len(), 3);
        assert!(tracer.p50("aside", 1e6) >= 1.0);
        assert_eq!(tracer.p50("missing", 1e6), 0.0);
    }
}
