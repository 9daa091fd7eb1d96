//! In-memory spans for the traced run.
//!
//! A span records a name, its start and end (nanoseconds since the
//! tracer was created), the span that was open when it started, and the
//! unit of work it belongs to. Spans are only recorded around calls the
//! benchmark itself makes into a layer; nothing inside the library is
//! instrumented. A disabled tracer records nothing and only runs the
//! closure, so the untraced run pays one branch per call site.

use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by direct children.
    pub self_ns: u64,
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for unit `unit`.
    pub fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        self.nest(name, unit, |_| f())
    }

    /// Runs `f`, which may open child spans, inside a span named `name`.
    pub fn nest<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time of every span named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut t = SpanTotals::default();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                t.count += 1;
                t.total_ns += span.duration_ns();
                t.self_ns += span.duration_ns().saturating_sub(child_ns[i]);
            }
        }
        t
    }

    /// The spans as JSON lines (`{"name":..,"start_ns":..,...}`), for
    /// writing out when the run ends.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::enabled();
        t.nest("outer", 0, |t| {
            t.time("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.time("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
