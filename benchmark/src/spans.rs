//! Harness-side spans: one record around every call into a layer, kept in
//! a pre-allocated vector and written out when the run ends. Spans inside
//! the program are a later issue; these are taken from outside, at the
//! public functions.

use hashing_is_sorting::obs::json::JsonValue;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one query share `query`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with one clock origin.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose clock starts at `origin`, pre-allocated so that
    /// recording does not allocate inside a window (the busiest traced
    /// window logs a few thousand spans).
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, query: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        (self.spans.len() - 1) as u32
    }

    /// Close a span now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another log (a second client connection), keeping parent
    /// links and making query ids unique.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        let query_base = self.spans.iter().map(|s| s.query + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.query += query_base;
            s
        }));
    }
}

/// The log and query id a traced query records under; `None` untraced.
pub type Tracing<'a> = Option<(&'a mut SpanLog, u32)>;

/// Open a span if the query is traced.
pub fn open(log: &mut Tracing, name: &'static str, parent: u32) -> Option<u32> {
    log.as_mut().map(|(l, query)| l.open(name, parent, *query))
}

/// Close a span [`open`] returned.
pub fn close(log: &mut Tracing, id: Option<u32>) {
    if let (Some((l, _)), Some(id)) = (log.as_mut(), id) {
        l.close(id);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// Share of all `root`-named spans' time that their children cover.
pub fn child_coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.name == root {
            total += s.nanos();
            own += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// The trace document written to `out/trace-<workload>.json`.
pub fn trace_json(workload: &str, spans: &[Span]) -> JsonValue {
    let selfs = self_times(spans);
    let rows = spans.iter().zip(selfs).map(|(s, self_ns)| {
        let parent =
            if s.parent == NO_PARENT { JsonValue::Null } else { JsonValue::U64(s.parent.into()) };
        JsonValue::obj([
            ("name", JsonValue::str(s.name)),
            ("start_ns", JsonValue::U64(s.start_ns)),
            ("end_ns", JsonValue::U64(s.end_ns)),
            ("parent", parent),
            ("query", JsonValue::U64(s.query.into())),
            ("self_ns", JsonValue::U64(self_ns)),
        ])
    });
    JsonValue::obj([
        ("workload", JsonValue::str(workload)),
        ("spans", JsonValue::Array(rows.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, query: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("query", 0, 100, NO_PARENT),
            span("new", 0, 10, 0),
            span("push", 10, 70, 0),
            span("inner", 20, 50, 2), // grandchild: only `push` pays for it
            span("finish", 70, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 30, 30, 25]);
        assert!((child_coverage(&spans, "query") - 0.95).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("query", 10, 110, NO_PARENT),
            span("a", 10, 60, 0),
            span("b", 40, 80, 0),   // overlaps `a` by 20
            span("c", 100, 150, 0), // overhangs the parent by 40
        ];
        // Covered: [10,80) and [100,110) = 80 of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn absorb_keeps_links_and_separates_queries() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        let q = a.open("query", NO_PARENT, 0);
        let c = a.open("child", q, 0);
        a.close(c);
        a.close(q);
        let mut b = SpanLog::new(origin);
        let q = b.open("query", NO_PARENT, 0);
        let c = b.open("child", q, 0);
        b.close(c);
        b.close(q);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!((spans[1].query, spans[3].query), (0, 1));
    }
}
