//! Benchmark-side spans: recorded around calls into each crate's public
//! functions, kept in memory, written as Chrome trace-event JSON at exit.
//! The program crates are not instrumented — in-program spans are a later
//! change — so a span's layer is the crate the timed call enters.

use std::time::Instant;

use crate::json::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<what>`, e.g. `datacutter.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Frame the call worked for (first frame of a multi-frame run).
    pub frame: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for the benchmark's own (single) thread. Disabled, it
/// runs the closure and records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (spans already open still close).
    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name` for `frame`; spans opened by
    /// `f` through the same tracer become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        frame: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            frame,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto):
    /// one complete (`"ph": "X"`) event per span, microsecond times, with
    /// the span's id, parent id, frame and self time under `args`.
    pub fn to_chrome_json(&self, process_name: &str) -> Json {
        let self_ns = self_times(&self.spans);
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("args", Json::obj([("name", Json::str(process_name))])),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                (
                    "cat",
                    Json::str(s.name.split('.').next().unwrap_or_default()),
                ),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("frame", Json::Num(s.frame as f64)),
                        ("self_us", Json::Num(self_ns[id] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap — one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "layer.call",
            start_ns,
            end_ns,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn nesting_links_parents_and_off_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("a.outer", 7, |t| {
            t.span("b.inner", 7, |_| 1) + t.span("b.inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        t.enable(false);
        t.span("c.skipped", 8, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        let doc = t.to_chrome_json("dcbench test");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("cat").and_then(Json::as_str), Some("b"));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("frame").and_then(Json::as_f64), Some(7.0));
    }
}
