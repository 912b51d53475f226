//! `run`: the whole benchmark — a timed pass of several rounds, then a
//! traced pass — with every workload of every round in a fresh child
//! process, workloads interleaved round-robin.
//!
//! The machine has noisy phases that last tens of seconds. Interleaving
//! makes a phase fall on all workloads alike, and lets every workload
//! sample the whole run instead of one stretch of it.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::est::{median, quartiles, spread};
use crate::json::Json;
use crate::spec::{self, is_exact, WorkloadSpec, END_TO_END, WORKLOADS};

pub struct RunArgs {
    pub seed: u64,
    /// One round of one unit and short probes: a smoke run.
    pub quick: bool,
    pub out: PathBuf,
}

/// Rounds of the timed pass. Eight rounds of a second and a half give
/// every workload twelve seconds of timed units spread over the run, and
/// eight values per metric: with four rounds of three seconds, one round
/// in a noisy phase set a quartile by itself and `compare` called three
/// rows of two back-to-back runs unresolved.
const ROUNDS: usize = 8;
const SECONDS_PER_ROUND: f64 = 1.5;
/// Seconds of alternating plain and traced units in the traced pass.
const TRACED_SECONDS: f64 = 6.0;
/// A child that has not finished by now is killed and counts as failed.
const CHILD_LIMIT: Duration = Duration::from_secs(180);

pub const RESULTS_FILE: &str = "results.json";

/// The last line a child printed, parsed.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    args: &RunArgs,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().map_err(|e| format!("starting a child: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("no result within {CHILD_LIMIT:?}; killed"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    // A child prints one short line, well within the pipe's buffer, so
    // reading after it has exited cannot have blocked it.
    let mut text = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("no result ({status})"))?;
    let json = Json::parse(line).map_err(|e| format!("unreadable result: {e}"))?;
    let num = |k: &str| {
        json.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result lacks {k:?}"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result lacks \"metrics\"")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            v.map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildResult {
        correct: json.get("correct") == Some(&Json::Bool(true)) && status.success(),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// Median, quartiles and the raw values of one metric.
fn summary(values: &[f64]) -> Vec<(&'static str, Json)> {
    let (q1, q3) = quartiles(values);
    vec![
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ]
}

#[derive(Default)]
struct PerWorkload {
    attempted: f64,
    failed: f64,
    /// A child that failed outright (no result, killed, incorrect).
    broken: Vec<String>,
    /// End-to-end metric → one value per round.
    rounds: BTreeMap<String, Vec<f64>>,
    trace_overhead: Option<f64>,
}

impl PerWorkload {
    fn absorb(
        &mut self,
        what: &str,
        r: Result<ChildResult, String>,
    ) -> Option<BTreeMap<String, f64>> {
        match r {
            Ok(r) => {
                self.attempted += r.attempted;
                self.failed += r.failed;
                if !r.correct {
                    self.broken.push(format!("{what}: output checks failed"));
                }
                Some(r.metrics)
            }
            Err(e) => {
                self.broken.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

fn print_e2e(w: &WorkloadSpec, pw: &PerWorkload) {
    println!("{} (op: {})", w.name, w.op);
    for m in &END_TO_END {
        let Some(values) = pw.rounds.get(m.name).filter(|v| !v.is_empty()) else {
            println!("  {:<16} no value", m.name);
            continue;
        };
        let (q1, q3) = quartiles(values);
        println!(
            "  {:<16} {:>16.6} {:<9} q1 {:.6} q3 {:.6} over {} rounds{}",
            m.name,
            median(values),
            m.unit,
            q1,
            q3,
            values.len(),
            if is_exact(w, m.name) { " (exact)" } else { "" },
        );
    }
    let ratio = if pw.attempted > 0.0 {
        pw.failed / pw.attempted
    } else {
        1.0
    };
    println!(
        "  {:<16} {:>16.6} {:<9} {} of {} ops failed",
        "fail_ratio", ratio, "fraction", pw.failed, pw.attempted
    );
}

/// Runs the whole benchmark. `Ok(true)` when every check passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let (rounds, seconds, traced_seconds) = if args.quick {
        (1, 0.0, 0.0)
    } else {
        (ROUNDS, SECONDS_PER_ROUND, TRACED_SECONDS)
    };
    let started = Instant::now();
    let mut per: BTreeMap<&str, PerWorkload> = BTreeMap::new();

    eprintln!("# timed pass: {rounds} round(s), tracing and allocation counting off");
    for round in 0..rounds {
        for w in &WORKLOADS {
            let pw = per.entry(w.name).or_default();
            let what = format!("round {round}");
            if let Some(metrics) = pw.absorb(&what, run_child(w.name, args, seconds, false)) {
                for (name, v) in metrics {
                    pw.rounds.entry(name).or_default().push(v);
                }
            }
        }
    }

    eprintln!("# traced pass: spans, counting allocator, layer probes");
    // Probe name → one value per traced child (the probes do not depend
    // on the workload, so six children give six readings).
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for w in &WORKLOADS {
        let pw = per.entry(w.name).or_default();
        if let Some(mut metrics) =
            pw.absorb("traced pass", run_child(w.name, args, traced_seconds, true))
        {
            pw.trace_overhead = metrics.remove("bench.trace_overhead");
            for (name, v) in metrics {
                layers.entry(name).or_default().push(v);
            }
        }
    }

    println!("# end-to-end metrics (timed pass; median over rounds)");
    for w in &WORKLOADS {
        print_e2e(w, &per[w.name]);
    }
    println!("# per-layer metrics (traced pass; median, quartiles over the traced children)");
    for (name, unit, _) in spec::per_layer() {
        if name == "bench.trace_overhead" {
            for w in &WORKLOADS {
                match per[w.name].trace_overhead {
                    Some(v) => println!("  {:<44} {:>14.4} {:<9} {}", name, v, unit, w.name),
                    None => println!("  {:<44} no value {}", name, w.name),
                }
            }
            continue;
        }
        match layers.get(&name) {
            Some(v) => {
                let (q1, q3) = quartiles(v);
                println!(
                    "  {:<44} {:>14.4} {:<9} q1 {:.4} q3 {:.4}",
                    name,
                    median(v),
                    unit,
                    q1,
                    q3
                );
            }
            None => println!("  {name:<44} no value"),
        }
    }

    let mut ok = true;
    for w in &WORKLOADS {
        let pw = &per[w.name];
        for b in &pw.broken {
            ok = false;
            println!("FAILED {}: {b}", w.name);
        }
        if pw.failed > 0.0 {
            ok = false;
            println!(
                "FAILED {}: {} of {} ops failed",
                w.name, pw.failed, pw.attempted
            );
        }
    }

    let workloads = Json::obj(WORKLOADS.iter().map(|w| {
        let pw = &per[w.name];
        let e2e = Json::obj(END_TO_END.iter().filter_map(|m| {
            let values = pw.rounds.get(m.name).filter(|v| !v.is_empty())?;
            let mut fields = vec![
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.label().into())),
                ("bound", Json::Num(m.bound)),
                ("exact", Json::Bool(is_exact(w, m.name))),
                ("spread", Json::Num(spread(values))),
            ];
            fields.extend(summary(values));
            Some((m.name, Json::obj(fields)))
        }));
        let entry = Json::obj([
            ("attempted", Json::Num(pw.attempted)),
            ("failed", Json::Num(pw.failed)),
            ("end_to_end", e2e),
            (
                "trace_overhead",
                pw.trace_overhead.map_or(Json::Null, Json::Num),
            ),
        ]);
        (w.name, entry)
    }));
    let per_layer = Json::obj(
        spec::per_layer()
            .into_iter()
            .filter_map(|(name, unit, better)| {
                let values = layers.get(&name)?;
                let mut fields = vec![
                    ("unit", Json::Str(unit.into())),
                    ("better", Json::Str(better.label().into())),
                ];
                fields.extend(summary(values));
                Some((name, Json::obj(fields)))
            }),
    );
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "hardware_threads",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("passed", Json::Bool(ok)),
        ("workloads", workloads),
        ("per_layer", per_layer),
    ]);
    let path = args.out.join(RESULTS_FILE);
    std::fs::write(&path, results.to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# wrote {} and one trace per workload; {:.0} s in all; {}",
        path.display(),
        started.elapsed().as_secs_f64(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Reads a results file written by [`run`].
pub fn read_results(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
