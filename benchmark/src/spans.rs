//! Benchmark-side spans: host-time intervals recorded around calls into
//! each crate's public functions, kept in memory and written out when the
//! run ends. Spans inside the program are a later change; these are taken
//! from outside.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) interval. `end_ns == 0` while open.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// The crate the timed call belongs to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a stack of open spans; a span opened while
/// another is open becomes its child.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span and returns its result with the span's
    /// duration in seconds.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            layer,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part its direct children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    /// The spans as a JSON array, one object per span, with self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of `spans[id]`: duration minus the duration of its direct
/// children (children of one parent never overlap: the log is a stack).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: "bench",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 25), // grandchild: counts against 1, not 0
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut log = SpanLog::new();
        let ((), outer_s) = log.span("run", "bench", |log| {
            log.span("facade.build", "facade", |_| ());
            log.span("facade.loop", "facade", |log| {
                log.span("facade.slice[0]", "facade", |_| ());
            });
        });
        assert!(outer_s >= 0.0);
        let parents: Vec<Option<usize>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(log.self_ns(0) <= log.spans()[0].duration_ns());
        assert!(log.to_json().contains("\"name\": \"facade.slice[0]\""));
    }
}
