//! Spans recorded from outside the program, at the boundary of each layer
//! the benchmark calls into.
//!
//! A span has a name (`<layer>.<boundary>`), a start, an end, the span that
//! caused it and the op it belongs to.  Spans are kept in memory and written
//! out when the run ends.  A span's self time is its duration minus the part
//! of that interval its children cover (children of one span may overlap
//! when campaign workers run cases in parallel).  With tracing off nothing
//! is recorded and no clock is read on the tracer's behalf.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The parent of a root span.
pub const ROOT: u32 = 0;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span being timed: its id (for children to name as parent) and start.
/// Inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    pub id: u32,
    start: Option<Instant>,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off; spans already open still record.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Starts a span now.
    pub fn start(&self) -> Timer {
        self.start_at(Instant::now())
    }

    /// Starts a span at an instant the caller already took.
    pub fn start_at(&self, at: Instant) -> Timer {
        if self.enabled() {
            Timer { id: self.next.fetch_add(1, Ordering::Relaxed), start: Some(at) }
        } else {
            Timer { id: ROOT, start: None }
        }
    }

    /// Ends `timer` now and records it as `name` under `parent`.
    pub fn finish(&self, timer: Timer, name: &'static str, parent: u32, op: u32) {
        if let Some(start) = timer.start {
            self.push(timer.id, name, parent, op, start, Instant::now());
        }
    }

    /// Records a span whose end the caller measured.
    pub fn finish_at(&self, timer: Timer, name: &'static str, parent: u32, op: u32, end: Instant) {
        if let Some(start) = timer.start {
            self.push(timer.id, name, parent, op, start, end);
        }
    }

    fn push(&self, id: u32, name: &'static str, parent: u32, op: u32, start: Instant, end: Instant) {
        let since = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { id, parent, op, name, start_ns: since(start), end_ns: since(end) };
        self.spans.lock().expect("a span recorder panicked").push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time of `parent`: its duration minus the union of its children's
/// intervals, each clipped to the parent's.
pub fn self_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|child| (child.start_ns.max(parent.start_ns), child.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((open, close)) if start <= close => Some((open, close.max(end))),
            Some((open, close)) => {
                covered += close - open;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((open, close)) = current {
        covered += close - open;
    }
    parent.duration_ns() - covered
}

/// Per-name wall and self times (milliseconds) of a span set.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub wall_ms: BTreeMap<&'static str, Vec<f64>>,
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
}

/// Each span with its self time, in recording order.
fn with_self_ns(spans: &[Span]) -> impl Iterator<Item = (&Span, u64)> {
    let mut children: HashMap<u32, Vec<Span>> = HashMap::new();
    for span in spans {
        children.entry(span.parent).or_default().push(*span);
    }
    spans
        .iter()
        .map(move |span| (span, self_ns(span, children.get(&span.id).map_or(&[][..], Vec::as_slice))))
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Self {
        let mut breakdown = Breakdown::default();
        for (span, self_ns) in with_self_ns(spans) {
            breakdown.wall_ms.entry(span.name).or_default().push(span.duration_ns() as f64 / 1e6);
            breakdown.self_ms.entry(span.name).or_default().push(self_ns as f64 / 1e6);
        }
        breakdown
    }

    pub fn wall(&self, name: &str) -> &[f64] {
        self.wall_ms.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn self_time(&self, name: &str) -> &[f64] {
        self.self_ms.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Writes spans as NDJSON, one object per line, with their self times.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in with_self_ns(spans) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, span.parent, span.op, span.name, span.start_ns, span.end_ns, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, ROOT, "explore.step", 0, 100);
        assert_eq!(self_ns(&parent, &[]), 100);
        // Disjoint children.
        let disjoint = [span(2, 1, "controller.case", 10, 30), span(3, 1, "controller.case", 50, 60)];
        assert_eq!(self_ns(&parent, &disjoint), 70);
        // Overlapping children (two workers) count their union once.
        let overlapping = [span(2, 1, "controller.case", 10, 40), span(3, 1, "controller.case", 20, 60)];
        assert_eq!(self_ns(&parent, &overlapping), 50);
        // A child nested in a sibling, and one touching it end to start.
        let nested = [span(2, 1, "a", 10, 50), span(3, 1, "b", 20, 30), span(4, 1, "c", 50, 70)];
        assert_eq!(self_ns(&parent, &nested), 40);
        // Children spilling past the parent are clipped to it.
        let spilling = [span(2, 1, "a", 0, 5), span(3, 1, "b", 90, 130)];
        assert_eq!(self_ns(&span(1, ROOT, "p", 3, 100), &spilling), 85);
        // Children that cover the parent leave no self time.
        assert_eq!(self_ns(&parent, &[span(2, 1, "all", 0, 100)]), 0);
    }

    #[test]
    fn breakdown_groups_self_time_by_name_over_a_tree() {
        // op ── step ─┬─ case ─┬─ runtime.setup
        //             │        └─ runtime.run
        //             └─ case ── runtime.run
        let spans = [
            span(1, ROOT, "hunt.op", 0, 1000),
            span(2, 1, "explore.step", 100, 900),
            span(3, 2, "controller.case", 200, 500),
            span(4, 3, "runtime.setup", 200, 250),
            span(5, 3, "runtime.run", 260, 460),
            span(6, 2, "controller.case", 500, 800),
            span(7, 6, "runtime.run", 520, 700),
        ];
        let breakdown = Breakdown::of(&spans);
        assert_eq!(breakdown.self_time("hunt.op"), &[0.0002]);
        assert_eq!(breakdown.self_time("explore.step"), &[0.0002]);
        assert_eq!(breakdown.self_time("controller.case"), &[0.00005, 0.00012]);
        assert_eq!(breakdown.wall("runtime.run"), &[0.0002, 0.00018]);
        assert_eq!(breakdown.self_time("runtime.run"), breakdown.wall("runtime.run"));
        assert!(breakdown.self_time("absent").is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let timer = tracer.start();
        assert_eq!(timer.id, ROOT);
        tracer.finish(timer, "x", ROOT, 0);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        let outer = tracer.start();
        let inner = tracer.start();
        tracer.finish(inner, "inner", outer.id, 7);
        tracer.finish(outer, "outer", ROOT, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
