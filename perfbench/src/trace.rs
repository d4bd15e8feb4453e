//! In-memory spans recorded around calls into the program's layers.
//!
//! A disabled tracer runs the closure and records nothing, so the untraced
//! run pays one branch per call site. Spans are kept in memory and written
//! out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `blocking.probe`.
    pub name: &'static str,
    /// Unique span id (> 0).
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Spans of one request (or one unit of work) share a group id.
    pub group: u64,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Span recorder. `Tracer::off()` records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh id, usable as a group id.
    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name`. `f` receives the span id, which
    /// child spans pass as their parent (0 when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.fresh_id();
        let start = self.now();
        let out = f(id);
        self.record(Span {
            name,
            id,
            parent,
            group,
            start,
            end: self.now(),
        });
        out
    }

    /// Record a span measured elsewhere (e.g. a request's due-to-done
    /// interval). No-op when disabled.
    pub fn record(&self, span: Span) {
        if self.on {
            self.spans.lock().unwrap().push(span);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().unwrap().iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"group\":{},\"start\":{:.9},\"end\":{:.9}}}",
                s.name, s.id, s.parent, s.group, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover (overlapping children count once), summed
/// over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0.0, |c| {
            union_len(
                c.iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| b > a)
                    .collect(),
            )
        });
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}

/// Total duration per span name (children included).
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.end - s.start;
    }
    out
}

/// Share of the window `[start, end]` that no span other than those named
/// in `exclude` covers.
pub fn uncovered_share(spans: &[Span], start: f64, end: f64, exclude: &[&str]) -> f64 {
    let covered = union_len(
        spans
            .iter()
            .filter(|s| !exclude.contains(&s.name))
            .map(|s| (s.start.max(start), s.end.min(end)))
            .filter(|(a, b)| b > a)
            .collect(),
    );
    ((end - start - covered) / (end - start)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            group: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 1, 0, 0.0, 10.0),
            span("a", 2, 1, 1.0, 4.0),
            // Overlapping siblings (parallel children) count once: 3..6.
            span("b", 3, 1, 3.0, 6.0),
            span("leaf", 4, 2, 1.5, 2.0),
            // A child spilling past its parent only covers the overlap.
            span("c", 5, 1, 9.0, 12.0),
        ];
        let st = self_times(&spans);
        assert!((st["root"] - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
        assert!((st["a"] - 2.5).abs() < 1e-12);
        assert!((st["b"] - 3.0).abs() < 1e-12);
        assert!((st["leaf"] - 0.5).abs() < 1e-12);
        let tt = total_times(&spans);
        assert!((tt["root"] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn self_times_sum_to_root_duration_for_nested_spans() {
        let spans = vec![
            span("root", 1, 0, 0.0, 8.0),
            span("x", 2, 1, 0.5, 3.0),
            span("y", 3, 2, 1.0, 2.0),
            span("x", 4, 1, 4.0, 7.5),
        ];
        let total: f64 = self_times(&spans).values().sum();
        assert!((total - 8.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_share_ignores_excluded_roots() {
        let spans = vec![
            span("root", 1, 0, 0.0, 10.0),
            span("a", 2, 1, 0.0, 4.0),
            span("b", 3, 1, 2.0, 6.0),
        ];
        let u = uncovered_share(&spans, 0.0, 10.0, &["root"]);
        assert!((u - 0.4).abs() < 1e-12);
        assert_eq!(uncovered_share(&spans, 0.0, 10.0, &[]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", 0, 0, |id| id + 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::on();
        let id = t.span("x", 0, 3, |id| id);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].id, spans[0].group), (id, 3));
        assert!(spans[0].end >= spans[0].start);
    }
}
