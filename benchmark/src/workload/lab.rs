//! `lab-gate`: the CI gate users wait for — every deterministic
//! committed scenario parsed, run at smoke scale, serialized and checked
//! against its claims and its committed baseline, all in memory.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use zygos_lab::{
    check_baseline, check_claims, check_telemetry, run_scenario, scenario_from_toml, Report,
};

use super::{digest_words, UnitOutcome, Workload};
use crate::est::percentile_sorted;
use crate::span::Spans;
use crate::spec::LAB_SCENARIOS;

/// The repository this benchmark was built from: scenarios are read from
/// the same commit as the code that runs them.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

struct Input {
    stem: &'static str,
    span_name: String,
    toml: String,
    baseline: String,
}

/// Host time one scenario took in the last unit, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioTimes {
    pub parse_ns: u64,
    pub run_ns: u64,
    pub json_ns: u64,
    pub check_ns: u64,
}

impl ScenarioTimes {
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.run_ns + self.json_ns + self.check_ns
    }
}

pub struct LabGate {
    inputs: Vec<Input>,
    /// Phase times of the most recent unit, in [`LAB_SCENARIOS`] order.
    pub last_times: Vec<ScenarioTimes>,
    /// Each scenario's fastest gate so far, in microseconds. A scenario
    /// is deterministic work of 7–230 ms, so the machine can only slow
    /// it, and a 20 ms job finds an undisturbed slot far more often than
    /// a whole unit does: between runs, the median scenario's time in one
    /// unit spread 15 %, its fastest over a run's units 3–7 %.
    best_us: Vec<f64>,
}

impl LabGate {
    /// Reads the pinned scenario files and their baselines.
    pub fn load() -> Result<Self, String> {
        let dir = repo_root().join("scenarios");
        let read = |p: PathBuf| {
            std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))
        };
        let inputs = LAB_SCENARIOS
            .iter()
            .map(|&stem| {
                let toml = read(dir.join(format!("{stem}.toml")))?;
                // The baseline is filed under the scenario's own name.
                let name = scenario_from_toml(&toml)
                    .map_err(|e| format!("{stem}: {e}"))?
                    .name;
                let baseline = read(dir.join("baselines").join(format!("{name}.json")))?;
                Ok(Input {
                    stem,
                    span_name: format!("scenario[{stem}]"),
                    toml,
                    baseline,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LabGate {
            best_us: vec![f64::INFINITY; inputs.len()],
            inputs,
            last_times: Vec::new(),
        })
    }
}

/// Runs `f` as a span and returns its result and duration.
fn timed<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let open = spans.enter(name);
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    spans.exit(open);
    (out, ns)
}

/// One scenario through the whole gate. Returns its violations, a digest
/// of its report and the phase times.
fn gate(input: &Input, spans: &mut Spans) -> (Vec<String>, u64, ScenarioTimes) {
    let mut times = ScenarioTimes::default();
    let (parsed, ns) = timed(spans, "lab.scenario_from_toml", || {
        scenario_from_toml(black_box(&input.toml))
    });
    times.parse_ns = ns;
    let sc = match parsed {
        Ok(sc) => sc,
        Err(e) => return (vec![format!("parse: {e}")], 0, times),
    };
    let (ran, ns) = timed(spans, "lab.run_scenario", || run_scenario(&sc, true));
    times.run_ns = ns;
    let report = match ran {
        Ok(r) => r,
        Err(e) => return (vec![format!("run: {e}")], 0, times),
    };
    let (json, ns) = timed(spans, "lab.report_to_json", || report.to_json());
    times.json_ns = ns;
    let (violations, ns) = timed(spans, "lab.check", || {
        let mut v = check_claims(&sc, &report);
        v.extend(check_telemetry(&sc, &report));
        match Report::from_json(black_box(&input.baseline)) {
            Ok(baseline) => v.extend(check_baseline(&sc, &report, &baseline)),
            Err(e) => v.push(format!("baseline does not parse: {e}")),
        }
        v
    });
    times.check_ns = ns;
    let digest = digest_words(json.bytes().map(u64::from));
    (violations, digest, times)
}

impl Workload for LabGate {
    fn ops_per_unit(&self) -> u64 {
        self.inputs.len() as u64
    }

    fn unit(&mut self, spans: &mut Spans) -> UnitOutcome {
        let mut errors = Vec::new();
        let mut failed = 0;
        let mut digests = Vec::new();
        self.last_times.clear();
        for input in &self.inputs {
            let open = spans.enter(&input.span_name);
            let (violations, digest, times) = gate(input, spans);
            spans.exit(open);
            if !violations.is_empty() {
                failed += 1;
                errors.extend(violations.iter().map(|v| format!("{}: {v}", input.stem)));
            }
            digests.push(digest);
            self.last_times.push(times);
        }
        // The op a user waits for is one scenario: its latency is host
        // time, the median and the slowest of the eleven.
        for (best, t) in self.best_us.iter_mut().zip(&self.last_times) {
            *best = best.min(t.total_ns() as f64 / 1e3);
        }
        let mut per_scenario_us = self.best_us.clone();
        per_scenario_us.sort_by(f64::total_cmp);
        let ops = self.ops_per_unit();
        UnitOutcome {
            ops,
            failed,
            p50_us: percentile_sorted(&per_scenario_us, 0.5),
            p99_us: percentile_sorted(&per_scenario_us, 0.99),
            goodput: (ops - failed) as f64 / ops as f64,
            digest: Some(digest_words(digests)),
            errors,
        }
    }
}
