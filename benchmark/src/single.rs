//! One run of one workload — what the driver invokes, and what `run`
//! starts as a fresh child process per workload and round.
//!
//! `--trace 0` (the timed pass): set up a few times, then repeat the unit
//! with tracing and allocation counting off until `--seconds` have
//! passed; report the end-to-end metrics. `--trace 1` (the traced pass):
//! alternate plain and traced units, run the layer probes, write the
//! spans; report the per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::est::{median, quartiles, Estimator};
use crate::json::Json;
use crate::probes;
use crate::span::Spans;
use crate::spec::{self, WorkloadSpec, END_TO_END};
use crate::workload::{self, UnitOutcome, Workload};

pub struct SingleArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke scale: one set-up, one unit, short probes.
    pub quick: bool,
    /// Where the traced pass writes `trace-<workload>.json`.
    pub out: PathBuf,
}

/// A timed run sets up at least this many times, and goes on while
/// set-ups are cheap, until [`SETUP_SECONDS`] have passed: a 0.12 s
/// set-up is as exposed to a noisy phase as a 0.12 s unit, and three
/// samples of it moved 48 % between runs.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed units (or plain/traced pairs) in a run, however short
/// `--seconds` is.
const MIN_UNITS: usize = 3;

/// What a run prints as its last line of standard output.
pub struct RunResult {
    pub line: Json,
    pub correct: bool,
}

/// Where traces and results go unless told otherwise: `benchmark/out/`.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Checked ops and failures over every unit a run executes, warm-ups
/// included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference_digest: Option<u64>,
}

impl Tally {
    /// Runs one unit. A unit that panics has failed all its ops; it does
    /// not take the run down with it. Returns the outcome and the unit's
    /// wall time in seconds.
    fn run_unit(&mut self, w: &mut dyn Workload, spans: &mut Spans) -> (UnitOutcome, f64) {
        let t = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| spans.scope("unit", |s| w.unit(s))));
        let secs = t.elapsed().as_secs_f64();
        let mut out = caught.unwrap_or_else(|_| {
            UnitOutcome::all_failed(w.ops_per_unit(), "the unit panicked".to_string())
        });
        // Units of a deterministic workload are the same computation:
        // any difference in their outputs is a failure of all of them.
        if let Some(d) = out.digest {
            let reference = *self.reference_digest.get_or_insert(d);
            if d != reference {
                out.failed = out.ops;
                out.errors.push(format!(
                    "output digest {d:#x} differs from the first unit's {reference:#x}"
                ));
            }
        }
        for e in &out.errors {
            eprintln!("# CHECK FAILED: {e}");
        }
        self.attempted += out.ops;
        self.failed += out.failed;
        (out, secs)
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn finite(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    values.into_iter().filter(|v| v.is_finite()).collect()
}

/// Ops per second of host time over `units`, by the workload's estimator.
fn ops_per_s(est: Estimator, units: &[(UnitOutcome, f64)]) -> f64 {
    let secs_per_op: Vec<f64> = units.iter().map(|(o, s)| s / o.ops as f64).collect();
    1.0 / est.of_times(&secs_per_op)
}

fn describe(label: &str, unit: &str, est: Estimator, samples: &[f64]) {
    let (q1, q3) = quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "#   {label}: {} by {}; fastest {min:.6} q1 {q1:.6} median {:.6} q3 {q3:.6} {unit} over {} units",
        est.of_times(samples),
        est.label(),
        median(samples),
        samples.len()
    );
}

fn result_line(tally: &Tally, metrics: Vec<(String, &'static str, f64)>) -> RunResult {
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    let metrics = Json::obj(metrics.into_iter().map(|(name, unit, value)| {
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]);
        (name, entry)
    }));
    RunResult {
        line: Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", metrics),
        ]),
        correct,
    }
}

pub fn run(args: &SingleArgs) -> Result<RunResult, String> {
    let spec = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    eprintln!(
        "# {} seed {} {} pass, {} s, {} hardware threads",
        spec.name,
        args.seed,
        if args.trace { "traced" } else { "timed" },
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        traced_pass(spec, args)
    } else {
        timed_pass(spec, args)
    }
}

fn timed_pass(spec: &WorkloadSpec, args: &SingleArgs) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut spans = Spans::new(); // Never recording in this pass.
    let est = spec.estimator;

    // Set-up, several times over: inputs, start, one discarded warm-up
    // unit. The last instance is the one measured.
    let (min_setups, setup_seconds) = if args.quick {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_SECONDS)
    };
    let mut setup_s = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    let setting_up = Instant::now();
    while setup_s.len() < min_setups || setting_up.elapsed().as_secs_f64() < setup_seconds {
        drop(current.take()); // Tear down outside the timed set-up.
        let t = Instant::now();
        let mut w = workload::setup(spec.name, args.seed)?;
        tally.run_unit(w.as_mut(), &mut spans);
        setup_s.push(t.elapsed().as_secs_f64());
        current = Some(w);
    }
    let mut w = current.expect("at least one set-up");

    // One counted unit: allocations are a cost of the program, but
    // counting them is not, so it stays out of the timed units.
    let ((audit, _), allocs) = alloc::counted(|| tally.run_unit(w.as_mut(), &mut spans));
    let allocs_per_op = allocs as f64 / audit.ops as f64;

    let min_units = if args.quick { 1 } else { MIN_UNITS };
    let mut units = Vec::new();
    let start = Instant::now();
    while units.len() < min_units || start.elapsed().as_secs_f64() < args.seconds {
        units.push(tally.run_unit(w.as_mut(), &mut spans));
    }
    drop(w);

    let p50 = finite(units.iter().map(|(o, _)| o.p50_us));
    let p99 = finite(units.iter().map(|(o, _)| o.p99_us));
    if p50.is_empty() || p99.is_empty() {
        return Err("no unit produced a latency".to_string());
    }
    let goodput = units.iter().map(|(o, _)| o.goodput).sum::<f64>() / units.len() as f64;
    let secs: Vec<f64> = units.iter().map(|(_, s)| *s).collect();
    describe("unit time", "s", est, &secs);
    describe("p50", "us", est, &p50);
    describe("p99", "us", est, &p99);
    describe("set-up", "s", est, &setup_s);

    let values = [
        ops_per_s(est, &units),
        est.of_times(&p50),
        est.of_times(&p99),
        goodput,
        allocs_per_op,
        est.of_times(&setup_s),
        peak_rss_mib()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), m.unit, v))
        .collect();
    Ok(result_line(&tally, metrics))
}

fn traced_pass(spec: &WorkloadSpec, args: &SingleArgs) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let est = spec.estimator;

    let mut w = workload::setup(spec.name, args.seed)?;
    tally.run_unit(w.as_mut(), &mut spans);

    // Plain and traced units alternate, so a noisy phase of the machine
    // falls on both sides of the overhead ratio.
    let min_pairs = if args.quick { 1 } else { MIN_UNITS };
    let (mut plain, mut traced, mut traced_allocs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < min_pairs || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        plain.push(tally.run_unit(w.as_mut(), &mut spans));
        spans.set_recording(true);
        spans.set_unit(traced.len() as u32);
        let (unit, allocs) = alloc::counted(|| tally.run_unit(w.as_mut(), &mut spans));
        spans.set_recording(false);
        traced.push(unit);
        traced_allocs.push(allocs);
    }
    drop(w);
    if spec.is_sim() {
        if let Some(&odd) = traced_allocs.iter().find(|&&a| a != traced_allocs[0]) {
            tally.failed += traced[0].0.ops;
            eprintln!(
                "# CHECK FAILED: a unit made {odd} allocations, the first made {}",
                traced_allocs[0]
            );
        }
    }
    let overhead = 1.0 - ops_per_s(est, &traced) / ops_per_s(est, &plain);
    eprintln!(
        "#   {} pairs; {} allocations per traced unit; trace overhead {:.4}",
        plain.len(),
        traced_allocs[0],
        overhead
    );

    let mut values = probes::run_all(args.seed, args.quick, &mut spans)?;
    values.insert("bench.trace_overhead".to_string(), overhead);
    probes::print_calibration(&values);

    let dir = &args.out;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, spans.to_chrome_json(spec.name))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("#   wrote {} ({} spans)", path.display(), spans.all().len());

    let metrics = spec::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = values
                .get(&name)
                .copied()
                .ok_or_else(|| format!("no probe reported {name}"))?;
            Ok((name, unit, v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(result_line(&tally, metrics))
}
