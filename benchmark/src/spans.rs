//! In-memory span recording for the traced pass.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! library layer (outside-in): the library itself carries no tracing. A
//! span is `{id, parent, name, start_ns, end_ns, req}`, where `req` is the
//! rep or day the span belongs to. Spans stay in memory until the process
//! writes them out at exit.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span open around this one when it started, if any.
    pub parent: Option<u32>,
    /// `module.layer` name of the timed call.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The rep or day the call served.
    pub req: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Request id stamped on every span opened from now on.
    pub req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), req: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let now = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns: now, end_ns: now, req: self.req });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total wall time of all spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
}

/// Self time per span name, summed over every span of that name: a span's
/// duration minus the part of its interval that its child spans cover
/// (children clipped to the parent, overlaps counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if let Some(list) = children.get_mut(parent as usize) {
                list.push((span.start_ns, span.end_ns));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(span.start_ns, span.end_ns, kids);
        *out.entry(span.name).or_insert(0) += span.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end, req: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 90),
            span(3, Some(2), "c", 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], 100 - 20 - 50);
        assert_eq!(st["a"], 20);
        assert_eq!(st["b"], 50 - 10);
        assert_eq!(st["c"], 10);
        // Self times partition the root's wall time.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "a", 30, 70),
            span(3, Some(0), "b", 90, 120),
        ];
        // Union of [10,70] and [90,100] once clipped: 70 ns covered.
        assert_eq!(self_times(&spans)["pass"], 30);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![span(0, None, "x", 0, 5), span(1, None, "x", 10, 17)];
        assert_eq!(self_times(&spans)["x"], 12);
        assert_eq!(total_ns(&spans, "x"), 12);
        assert_eq!(total_ns(&spans, "y"), 0);
    }

    #[test]
    fn tracer_nests_and_stamps_requests() {
        let mut tr = Tracer::default();
        let outer = tr.open("outer");
        tr.req = 7;
        tr.time("inner", || std::hint::black_box(3 + 4));
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
