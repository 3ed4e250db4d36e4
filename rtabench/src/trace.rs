//! In-memory spans recorded around calls into each layer, and their self
//! times.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and the request it belongs to. The
//! spans live in memory while the workload runs and are written out once,
//! at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `model.json.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request (frame or task set) the span served.
    pub request: u64,
}

/// A span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: the spans of the first `requests`
    /// requests recorded, each with its self time (the cap keeps the file
    /// small; the metrics use every span).
    pub fn to_jsonl(&self, requests: usize) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        let mut seen = std::collections::BTreeSet::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if !seen.contains(&s.request) {
                if seen.len() == requests {
                    continue;
                }
                seen.insert(s.request);
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.request, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (concurrent
/// work under one parent) or stick out of the parent; only the union of
/// their intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start; // end of the union covered so far
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on [20, 30): the union is [10, 40).
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A child nested inside another child's interval adds nothing.
            span("c", 25, 28, Some(0)),
            // A child sticking out past the parent's end counts up to it.
            span("d", 90, 120, Some(0)),
            // A grandchild only reduces its own parent.
            span("e", 12, 18, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 6);
        // Leaves keep their full duration.
        assert_eq!(selfs[3], 3);
    }

    #[test]
    fn disjoint_children_leave_the_gaps_as_self_time() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("root", None, 1);
        t.span("child", Some(root), 1, || std::hint::black_box(3 + 4));
        t.span("child", Some(root), 1, || ());
        t.end(root);
        let selfs = self_times(t.spans());
        let s = t.spans();
        assert_eq!(selfs[0] + selfs[1] + selfs[2], s[0].end - s[0].start);
        assert_eq!(t.to_jsonl(1).lines().count(), 3);
        t.span("other", None, 2, || ());
        assert_eq!(t.to_jsonl(1).lines().count(), 3);
        assert_eq!(t.to_jsonl(2).lines().count(), 4);
    }
}
