//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer
//! (`qasm::parse`, `Ecmas::session`, `Profiled::map`, ...). Spans live in
//! a `Vec` until the process ends, when [`Tracer::to_chrome_json`] renders
//! them once as Chrome Trace Event JSON. With tracing off, `begin`, `end`
//! and `record` return at once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `core.schedule`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: the compile row or daemon job number.
    pub request: u64,
    /// Display lane (Chrome `tid`): spans on one lane nest properly.
    pub lane: u32,
}

/// A handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
}

/// Records spans when enabled; a clock otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        let lane = parent.map_or(0, |p| self.spans[p].lane);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request, lane });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open { index: Some(index) }
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Records an already-finished span from two instants (used for the
    /// daemon's queue and service intervals, which are derived from
    /// outside timestamps rather than wrapped around a call).
    pub fn record(&mut self, name: &'static str, request: u64, from: Instant, to: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let lane = (request % 2) as u32 + 1;
        let span = Span { name, start_ns: ns(from), end_ns: ns(to), parent: None, request, lane };
        self.spans.push(span);
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Renders every span as Chrome Trace Event JSON (complete `X`
    /// events; microsecond timestamps), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let selfs = t.self_ms();
        assert!(selfs["inner"] >= 5.0);
        assert!(selfs["outer"] < selfs["inner"]);
        let json = t.to_chrome_json("test");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        t.record("y", 1, Instant::now(), Instant::now());
        assert!(t.spans.is_empty());
    }
}
