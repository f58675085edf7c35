//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the one clock every timing in the benchmark reads.
//!
//! A [`SpanLog`] belongs to one thread and is written out once, after
//! the measurement.

use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's clock.
pub fn now() -> Instant {
    // nsai-lint: allow(determinism): the benchmark is the measurement apparatus; every timing it reports starts here.
    Instant::now()
}

/// Seconds from `since` to now.
pub fn secs_since(since: Instant) -> f64 {
    now().duration_since(since).as_secs_f64()
}

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (case id) the span belongs to.
    pub request: u64,
}

/// Spans of one thread. A disabled log records nothing and costs one
/// branch per call, which is how the untraced run uses it.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle to a span opened with [`SpanLog::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a top-level span.
    pub fn root() -> Self {
        SpanId(None)
    }
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        SpanLog {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off for the following spans (the traced run
    /// records every other round or request, to measure its own cost).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.open_at(name, parent, request, now())
    }

    /// Open a span that started at `start`.
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, now());
    }

    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if let Some(index) = id.0 {
            let end_ns = self.ns(end);
            self.spans[index].end_ns = end_ns;
        }
    }

    /// A span covering `f`, returning its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines of a `{"spans": [...]}` document, each
    /// with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"spans\": [\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"self_ns\": {self_ns}}}{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, parts
/// outside the parent ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - union
        })
        .collect()
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
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("send", 10, 30, Some(0)),
            // Overlaps `send` by 10 ns: covered once.
            span("recv", 20, 50, Some(0)),
            // Sticks out of the parent: only 90..100 counts.
            span("late", 90, 120, Some(0)),
            span("inner", 12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 2, 30, 30, 2]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, now());
        let id = log.open("episode", SpanId(None), 3);
        log.close(id);
        assert_eq!(log.span("report", id, 3, || 5), 5);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut a = SpanLog::new(true, now());
        let root = a.open("round", SpanId(None), 0);
        a.span("episode", root, 7, || ());
        a.close(root);
        let req = a.open("request", SpanId(None), 9);
        a.span("send", req, 9, || ());
        a.close(req);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        let json = a.to_json();
        assert_eq!(json.matches("\"name\"").count(), 4);
        assert!(json.contains("\"parent\": 2"));
    }
}
