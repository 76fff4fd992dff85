//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a group id shared by the spans
//! of one cell, block or recovery, a parent, and start and end times.
//! Spans stay in memory and are written out once, at exit. With tracing
//! off, [`Tracer::open`] and [`Tracer::close`] record nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (an index into the tracer's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (or at the root).
    pub fn open(&mut self, name: &'static str, group: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: parent.and_then(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, group, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in seconds, of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that its direct children cover. Overlapping children
/// are counted once; a child sticking out of its parent is clipped.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("bench.cell", None, 0, 100),
            span("workloads.build", Some(0), 10, 30),
            span("sim.run", Some(0), 30, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 60]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("a.root", None, 0, 100),
            span("b.x", Some(0), 10, 50),
            span("b.y", Some(0), 40, 60),
            span("b.z", Some(0), 45, 55),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("a.root", None, 10, 20), span("b.x", Some(0), 0, 15)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("a.root", None, 0, 100),
            span("b.mid", Some(0), 0, 50),
            span("c.leaf", Some(1), 0, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 0, 50]);
        let layers = layer_self_s(&spans);
        assert_eq!(layers["a"], 50e-9);
        assert_eq!(layers["b"], 0.0);
        assert_eq!(layers["c"], 50e-9);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a.x", 0, None);
        t.close(id);
        assert_eq!(t.span("a.y", 0, Some(id), || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_tracer_that_is_on_links_parents() {
        let mut t = Tracer::new(true);
        let root = t.open("a.root", 3, None);
        t.span("b.child", 3, Some(root), || ());
        t.close(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].group, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
