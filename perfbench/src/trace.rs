//! In-memory span recording around calls into the program's layers.
//!
//! Spans are recorded by the benchmark's own code only: the program
//! itself carries no tracing for this benchmark. A disabled tracer
//! reads no clock, so the untraced pass runs the same calls without
//! the recording cost, and the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `epoch` is shared by all spans of one epoch (or
/// one fleet tick); `parent` indexes the enclosing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        epoch: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch,
        });
        self.stack.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The recording cost inside one leaf span: the median duration of
/// empty spans. Leaf self times are reported net of it.
pub fn span_cost_ns() -> f64 {
    let mut tracer = Tracer::new(true);
    for i in 0..20_001 {
        tracer.span("empty", i, |_| ());
    }
    let durations: Vec<f64> = tracer
        .spans()
        .iter()
        .map(|s| s.duration_ns() as f64)
        .collect();
    crate::stats::median(&durations).unwrap_or(0.0)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerRow {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerRow {
    pub fn self_ns_per_call(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64
    }

    pub fn total_ns_per_call(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

/// Aggregates spans by name, ordered by name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(span.name).or_default();
        row.calls += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += self_ns;
    }
    table
}

/// Writes spans as tab-separated `id parent epoch name start_ns end_ns`.
pub fn dump(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tepoch\tname\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.epoch, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one runs past the parent end.
        let spans = vec![
            span("p", 0, 100, None),
            span("c", 10, 60, Some(0)),
            span("c", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // covered = [10,80) + [90,100) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn table_aggregates_by_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("leaf", 0, 30, Some(0)),
            span("leaf", 30, 50, Some(0)),
        ];
        let table = layer_table(&spans);
        assert_eq!(
            table["leaf"],
            LayerRow {
                calls: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(table["root"].self_ns, 50);
        assert!((table["leaf"].self_ns_per_call() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        let out = tracer.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.epoch == 7));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
