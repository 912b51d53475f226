//! `lab`: where a `lab-gate` unit's time goes — per scenario, and the
//! share that is the lab crate's own parsing, serializing and checking
//! rather than simulation.

use zygos_lab::{run_scenario, run_scenario_threads, scenario_from_toml};

use super::{fastest, Scale, Values};
use crate::span::Spans;
use crate::spec::{lab_run_metric, LAB_SCENARIOS};
use crate::workload::lab::{repo_root, LabGate, ScenarioTimes};
use crate::workload::Workload;

pub fn probe(scale: Scale, spans: &mut Spans, v: &mut Values) -> Result<(), String> {
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let mut gate = LabGate::load()?;
    // Per scenario and phase, the fastest of the repetitions.
    let mut best: Vec<ScenarioTimes> = Vec::new();
    for rep in 0..scale.reps {
        spans.set_unit(rep as u32);
        let unit = spans.scope("probes[lab].unit", |s| gate.unit(s));
        if unit.failed > 0 {
            return Err(format!("lab probe: {}", unit.errors.join("; ")));
        }
        if best.is_empty() {
            best = gate.last_times.clone();
        }
        for (b, t) in best.iter_mut().zip(&gate.last_times) {
            b.parse_ns = b.parse_ns.min(t.parse_ns);
            b.run_ns = b.run_ns.min(t.run_ns);
            b.json_ns = b.json_ns.min(t.json_ns);
            b.check_ns = b.check_ns.min(t.check_ns);
        }
    }
    let n = best.len() as f64;
    let sum = |f: fn(&ScenarioTimes) -> u64| best.iter().map(f).sum::<u64>() as f64;
    let (parse, json, check) = (sum(|t| t.parse_ns), sum(|t| t.json_ns), sum(|t| t.check_ns));
    put("lab.parse_us_per_scenario", parse / n / 1e3);
    put("lab.json_us_per_scenario", json / n / 1e3);
    put("lab.check_us_per_scenario", check / n / 1e3);
    put(
        "lab.self_share",
        (parse + json + check) / sum(|t| t.total_ns()),
    );
    for (stem, t) in LAB_SCENARIOS.iter().zip(&best) {
        put(&lab_run_metric(stem), t.run_ns as f64 / 1e6);
    }

    // What the job fan-out buys on the scenario with the most jobs.
    let path = repo_root().join("scenarios/fig13_overload.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let sc = scenario_from_toml(&text).map_err(|e| e.to_string())?;
    let (sequential, ok1) = fastest(scale.reps, || run_scenario_threads(&sc, true, 1).is_ok());
    let (parallel, ok2) = fastest(scale.reps, || run_scenario(&sc, true).is_ok());
    if !(ok1 && ok2) {
        return Err("lab probe: fig13_overload did not run".to_string());
    }
    put("lab.par_speedup", sequential / parallel);
    Ok(())
}
