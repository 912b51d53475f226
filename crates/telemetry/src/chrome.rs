//! Chrome trace-event emitter (`chrome://tracing` / Perfetto).
//!
//! Maps the lifecycle stream onto the trace-event JSON format: one
//! *process* per scenario case, one *thread* per core, a complete (`"X"`)
//! event per dispatched service chunk (dispatch → the next lifecycle
//! point), and instant (`"i"`) events for the remaining points. Load
//! `out.json` in a trace viewer to see HoL blocking, steals and
//! preemptions laid out per core over time.

use std::fmt::Write as _;

use crate::decomp::group_by_request;
use crate::trace::{TraceEvent, TraceKind};

/// Incremental builder for one trace file spanning several processes
/// (scenario cases).
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names process `pid` (one per scenario case).
    pub fn add_process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Adds one case's lifecycle stream (any order) under `pid`.
    pub fn add_events(&mut self, pid: u32, events: &[TraceEvent]) {
        // Service chunks need each request's events adjacent and in
        // order: the decomposition's grouping.
        let evs = group_by_request(events);
        for (i, e) in evs.iter().enumerate() {
            let ts = e.t_ns as f64 / 1_000.0;
            if e.kind == TraceKind::Dispatch {
                // Complete event: runs until the request's next point.
                let end = evs[i + 1..]
                    .iter()
                    .take_while(|n| n.seq == e.seq)
                    .map(|n| n.t_ns)
                    .next()
                    .unwrap_or(e.t_ns);
                let dur = (end - e.t_ns) as f64 / 1_000.0;
                self.events.push(format!(
                    "{{\"name\":\"req{}\",\"cat\":\"service\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":{pid},\"tid\":{}}}",
                    e.seq, e.core
                ));
            } else {
                self.events.push(format!(
                    "{{\"name\":\"{:?}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":{},\"args\":{{\"seq\":{}}}}}",
                    e.kind, e.core, e.seq
                ));
            }
        }
    }

    /// Serializes the accumulated trace as a JSON array.
    pub fn finish(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(out, "{e}");
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_instants_and_service_chunks() {
        let evs = vec![
            TraceEvent {
                t_ns: 0,
                seq: 5,
                core: 2,
                kind: TraceKind::Arrival,
            },
            TraceEvent {
                t_ns: 100,
                seq: 5,
                core: 2,
                kind: TraceKind::Dispatch,
            },
            TraceEvent {
                t_ns: 400,
                seq: 5,
                core: 2,
                kind: TraceKind::Completion,
            },
        ];
        let mut t = ChromeTrace::new();
        t.add_process(1, "ZygOS \"static\"");
        t.add_events(1, &evs);
        let json = t.finish();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\\\"static\\\""), "name is escaped");
        // One X event with the 0.3µs service chunk.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":0.3"));
        // Arrival and completion as instants.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }
}
