//! Spans around the calls the benchmark makes into each layer.
//!
//! Recorded in memory by the thread that drives the workload, written as
//! Chrome-trace JSON when the run ends. A span's *self time* is its
//! duration minus the part its child spans cover.

use std::time::Instant;

use crate::alloc;
use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the unit the span belongs to (all spans of one unit share
    /// it — the identifier that ties a unit's spans together).
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the recorder) of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Off, `enter`/`exit` cost one branch.
pub struct Spans {
    on: bool,
    origin: Instant,
    unit: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for an open span; `None` while recording is off.
#[must_use]
pub struct Open(Option<usize>);

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: false,
            origin: Instant::now(),
            unit: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with unit `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        // The recorder's own allocations must not show up in the counts
        // of the unit it records.
        alloc::uncounted(|| {
            let now = self.now_ns();
            self.spans.push(Span {
                name: name.to_string(),
                unit: self.unit,
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
        });
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, `args` carrying the unit, the parent's
    /// index and the self time.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let selfs = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(i, (s, &self_ns))| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(workload.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("unit", Json::Num(f64::from(s.unit))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
        .to_pretty()
    }
}

/// Self time per span: duration minus the durations of its direct
/// children (children nest inside their parent and do not overlap each
/// other, because one thread records them innermost-first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            unit: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("unit", 0, 1_000, None),
            span("parse", 100, 150, Some(0)),
            span("run", 150, 900, Some(0)),
            span("job", 200, 500, Some(2)),
            span("check", 900, 950, Some(0)),
        ];
        // unit: 1000 - (50 + 750 + 50); run: 750 - 300.
        assert_eq!(self_times_ns(&spans), vec![150, 50, 450, 300, 50]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut s = Spans::new();
        s.scope("ignored", |_| ());
        assert!(s.all().is_empty());

        s.set_recording(true);
        s.set_unit(3);
        s.scope("outer", |s| {
            s.scope("inner", |_| ());
            s.scope("inner", |_| ());
        });
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert!(all.iter().all(|sp| sp.unit == 3));
        assert!(all[0].start_ns <= all[1].start_ns && all[2].end_ns <= all[0].end_ns);
        let json = Json::parse(&s.to_chrome_json("w")).unwrap();
        assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }
}
