//! In-memory spans recorded around the benchmark's calls into each layer.
//! A span holds its name, start, end, parent and request id; spans are
//! written out once, when the run ends. A disabled tracer records nothing
//! and never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The id a disabled tracer hands out.
const NONE: usize = usize::MAX;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; records only if `on`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, req: u64) -> usize {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|&p| p != NONE),
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if id != NONE {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// The span `id`, if this tracer recorded it.
    pub fn get(&self, id: usize) -> Option<&Span> {
        self.spans.get(id)
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Each span's self time in ms: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort_unstable();
                let (mut union, mut reach) = (0u64, 0u64);
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        union += b - a;
                        reach = b;
                    }
                }
                s.ms() - union as f64 / 1e6
            })
            .collect()
    }

    /// Self times in ms, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            by_name.entry(s.name.as_str()).or_default().push(ms);
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::off();
        tr.spans = vec![
            span("root", 0, 10_000_000, None),
            span("a", 1_000_000, 4_000_000, Some(0)),
            span("b", 3_000_000, 5_000_000, Some(0)),
            span("c", 8_000_000, 12_000_000, Some(0)),
        ];
        let self_ms = tr.self_ms();
        // Children cover [1, 5) and [8, 10) of the root's [0, 10).
        assert!((self_ms[0] - 4.0).abs() < 1e-9, "{self_ms:?}");
        assert!((self_ms[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.begin("x", None, 1);
        tr.end(id);
        assert!(tr.spans.is_empty());
        assert!(tr.get(id).is_none());
    }
}
