//! In-memory span recorder and self-time arithmetic for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions. Each span has an id, a parent, a name (the
//! layer: a module path such as `metrics.paths.bfs`), a start, an end
//! and a request id (a snapshot day in `analyze`, an HTTP request in
//! `serve-read`). Nothing is written until the run ends.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! interval covered by that span's children (overlapping children count
//! once, and a child running past its parent's end is clipped).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. A disabled recorder hands out inert
/// guards, so the same code path serves the untraced comparison run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; the span is recorded when the guard drops.
#[derive(Debug)]
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    request: u64,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of its children; `None`
    /// from a disabled recorder.
    pub fn id(&self) -> Option<u64> {
        self.recorder.enabled.then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.recorder.enabled {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.recorder.ns_since_epoch(self.start),
            end_ns: self.recorder.ns_since_epoch(end),
            request: self.request,
        };
        // A poisoned lock only means another span's push panicked; the
        // vector itself is still a valid list of finished spans.
        let mut spans = match self.recorder.spans.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        spans.push(span);
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span named `name` under `parent` for request `request`.
    pub fn enter(&self, name: &'static str, parent: Option<u64>, request: u64) -> Guard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            recorder: self,
            id,
            parent,
            name,
            start: Instant::now(),
            request,
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.enter(name, parent, request);
        f()
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = match self.spans.lock() {
            Ok(s) => s.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let busy = covered(kids, s.start_ns, s.end_ns);
            (s.id, s.duration_ns().saturating_sub(busy))
        })
        .collect()
}

/// Count, total and self time per layer name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Self time per request of the spans named `name` (requests with no
/// such span are absent).
pub fn self_ns_by_request(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_default() += selfs[&s.id];
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    Ok(())
}

/// Human-readable per-layer table (count, total, self), widest self
/// time first.
pub fn render_layers(totals: &BTreeMap<&'static str, LayerTotals>) -> String {
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<32} {:>10} {:>12} {:>12}\n",
        "layer", "count", "total_ms", "self_ms"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "{:<32} {:>10} {:>12.3} {:>12.3}\n",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100]
        //   a [10,30] and b [20,50] overlap: together they cover 40
        //     a.x [12,18] is a's child only
        //   c [90,120] runs past the root's end: only 10 counts
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 50),
            span(4, Some(2), "x", 12, 18),
            span(5, Some(1), "c", 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 6);
        assert_eq!(selfs[&5], 30);

        let totals = layer_totals(&spans);
        assert_eq!(
            totals["root"],
            LayerTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        // Self times add up to the root's interval, plus the 10 ns where
        // a and b overlap (parallel work counts on both), plus c's 20 ns
        // overhang.
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100 + 10 + 20);
    }

    #[test]
    fn recorder_links_parents_and_stays_silent_when_disabled() {
        let rec = Recorder::new(true);
        {
            let root = rec.enter("root", None, 7);
            rec.time("leaf", root.id(), 7, || ());
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.parent, Some(root.id));
        assert!(leaf.start_ns >= root.start_ns && leaf.end_ns <= root.end_ns);
        assert_eq!(self_ns_by_request(&spans, "leaf").len(), 1);

        let off = Recorder::new(false);
        let g = off.enter("root", None, 0);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![span(1, None, "root", 0, 5), span(2, Some(1), "a", 1, 2)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":1,"));
    }
}
