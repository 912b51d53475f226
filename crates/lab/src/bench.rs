//! `lab bench` — the experiment plane's performance trajectory.
//!
//! Times a fixed set of canonical workloads and reports events/sec
//! (simulator engine throughput) and points/sec (scenario sweep
//! throughput). The committed baseline at the repo root
//! ([`BENCH_BASELINE`]) is the trajectory anchor: `lab bench --check`
//! fails when a rate regresses more than [`REGRESSION_TOLERANCE`] below
//! it, so a future PR cannot quietly give back the experiment plane's
//! speed. See `docs/PERFORMANCE.md` for the design and the numbers.
//!
//! Wall-clock caveats: rates are machine-dependent, so the baseline is
//! only meaningful against the machine class that wrote it, and the check
//! tolerance is deliberately loose (30%) to ride out shared-runner noise.
//! Rates, not wall times, are compared — they are stable across the
//! smoke/full scales.

use std::time::Instant;

use zygos_sim::dist::ServiceDist;
use zygos_sysim::{
    latency_throughput_sweep, latency_throughput_sweep_cold, run_fleet, run_system, CoreLayout,
    FleetConfig, RoutePolicy, StagedConfig, SysConfig, SystemKind, TelemetryConfig,
};

use crate::report::Json;
use crate::runner::run_scenario_threads;
use crate::spec::{Case, Scenario, SimHost};

/// Repo-root baseline file name.
pub const BENCH_BASELINE: &str = "BENCH_expplane.json";

/// Maximum tolerated relative rate regression against the baseline.
pub const REGRESSION_TOLERANCE: f64 = 0.30;

/// The untraced/traced twin workloads the telemetry overhead gate
/// compares *within one bench run* (same binary, same machine, back to
/// back — so the comparison is noise-correlated in a way cross-run
/// baseline diffs cannot be). The untraced twin runs with telemetry
/// `None`, which is also the state a scenario without a `[telemetry]`
/// block runs in: its cost over the pre-telemetry engine is one
/// predictable `Option` branch per lifecycle point, gated by the
/// committed baseline ratchet (see `docs/PERFORMANCE.md`).
pub const TRACE_PAIR: (&str, &str) = ("engine-zygos-0.8", "engine-zygos-0.8-traced");

/// Documented bound on full-fidelity tracing overhead: with every
/// request's whole lifecycle recorded (`sample_period = 1`, the worst
/// case — ~7 ring stores per request plus one copy of the rings at
/// collection), the traced twin's events/sec must stay within this
/// fraction of the untraced twin. Measured 12–43% (median 24%) on the
/// reference machine since trace post-processing stopped sorting, 28–57%
/// (median 49%) before (see `docs/PERFORMANCE.md`); the bound leaves
/// shared-runner headroom. Production-style tracing uses
/// `sample_period > 1`, which divides the cost by the period.
pub const TRACE_ON_MAX_OVERHEAD: f64 = 0.60;

/// The cold/warm twin sweeps the warm-start gate compares within one
/// bench run: the same deep-warmup ascending grid, run once point by
/// point from scratch and once as a checkpoint warm-start chain. Like
/// [`TRACE_PAIR`], the comparison is a same-run ratio, so it is immune
/// to machine-class drift.
pub const WARM_PAIR: (&str, &str) = ("sweep-cold", "sweep-warm");

/// Required points/sec speedup of the warm twin over the cold twin. The
/// chain re-simulates only `warmup/8` requests per point instead of the
/// full warmup, worth ~2.8x on the canonical deep-warmup grid (see
/// `docs/TAIL.md`); the gate leaves headroom for scheduler noise.
pub const WARM_MIN_SPEEDUP: f64 = 2.0;

/// The sequential/parallel twin sweeps of the canonical scenario.
pub const PAR_PAIR: (&str, &str) = ("lab-sweep-seq", "lab-sweep-par");

/// Required points/sec ratio of the parallel sweep over the sequential
/// one. On a single-core runner the fan-out degrades to sequential plus
/// scheduling overhead, so the floor only guards against a pathological
/// slowdown, not a parallelism win.
pub const PAR_MIN_RATIO: f64 = 0.8;

/// Baseline schema version. v2 added the [`WARM_PAIR`] twin sweeps; v3
/// added the `engine-staged-split` workload; v4 added
/// `engine-retry-storm`.
pub const BENCH_SCHEMA: u32 = 4;

/// One timed workload.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Workload name (stable across PRs; the baseline joins on it).
    pub name: String,
    /// Wall-clock of the run, milliseconds.
    pub wall_ms: f64,
    /// Engine events processed (0 for scenario-sweep entries).
    pub events: u64,
    /// Events per second (0 for scenario-sweep entries).
    pub events_per_sec: f64,
    /// Grid points produced (0 for single-run engine entries).
    pub points: u64,
    /// Points per second (0 for single-run engine entries).
    pub points_per_sec: f64,
}

/// A full bench run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Schema version of the JSON layout.
    pub schema: u32,
    /// Whether this ran at smoke scale.
    pub smoke: bool,
    /// One entry per canonical workload.
    pub entries: Vec<BenchEntry>,
}

/// Scales a request count down for smoke mode.
fn scale(requests: u64, warmup: u64, smoke: bool) -> (u64, u64) {
    if smoke {
        (requests / 5, warmup / 5)
    } else {
        (requests, warmup)
    }
}

/// The canonical engine workloads: one per distinct hot path of the
/// simulator (steal/IPI loop, elastic control plane + preemption, credit
/// AIMD under overload, run-to-completion batching, FCFS + far-horizon
/// events).
fn engine_workloads(smoke: bool) -> Vec<(&'static str, SysConfig)> {
    let mut out = Vec::new();

    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.8);
    (cfg.requests, cfg.warmup) = scale(200_000, 20_000, smoke);
    out.push(("engine-zygos-0.8", cfg));

    let mut cfg = SysConfig::paper(
        SystemKind::Elastic { min_cores: 2 },
        ServiceDist::exponential_us(10.0),
        0.3,
    );
    (cfg.requests, cfg.warmup) = scale(120_000, 12_000, smoke);
    cfg.preemption_quantum_us = 25.0;
    out.push(("engine-elastic-quantum", cfg));

    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
    (cfg.requests, cfg.warmup) = scale(120_000, 12_000, smoke);
    cfg.admission = Some(zygos_sched::CreditConfig::for_cores(cfg.cores, 70.0));
    out.push(("engine-credits-1.3", cfg));

    // The traced twin of engine-zygos-0.8: identical workload with the
    // lifecycle tracer at full fidelity. check_bench compares the pair.
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.8);
    (cfg.requests, cfg.warmup) = scale(200_000, 20_000, smoke);
    cfg.telemetry = Some(TelemetryConfig::full_trace());
    out.push(("engine-zygos-0.8-traced", cfg));

    let mut cfg = SysConfig::paper(SystemKind::Ix, ServiceDist::exponential_us(10.0), 0.8);
    (cfg.requests, cfg.warmup) = scale(200_000, 20_000, smoke);
    cfg.rx_batch = 16;
    out.push(("engine-ix-batch16", cfg));

    // The staged pipeline engine: the paper's three-stage decomposition
    // on a split-net layout — the staged plane's hot path (per-stage
    // queues, segment handoff events, per-stage wait telemetry).
    let mut cfg = SysConfig::paper(SystemKind::Staged, ServiceDist::exponential_us(10.0), 0.8);
    (cfg.requests, cfg.warmup) = scale(150_000, 15_000, smoke);
    let mut plan = StagedConfig::paper_pipeline(&cfg.cost);
    plan.layout = CoreLayout::SplitNet { net_cores: 2 };
    cfg.staged = Some(plan);
    out.push(("engine-staged-split", cfg));

    let mut cfg = SysConfig::paper(
        SystemKind::LinuxFloating,
        ServiceDist::exponential_us(50.0),
        0.6,
    );
    (cfg.requests, cfg.warmup) = scale(100_000, 10_000, smoke);
    out.push(("engine-linux-floating", cfg));

    // The closed-loop retry plane's hot path: credit admission under
    // overload with every rejection feeding the jittered-backoff retry
    // queue — the adversarial-workload machinery (retry scheduling,
    // give-up accounting, wheel traffic from retry timers) on top of
    // the AIMD loop engine-credits-1.3 already times.
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
    (cfg.requests, cfg.warmup) = scale(120_000, 12_000, smoke);
    cfg.admission = Some(zygos_sched::CreditConfig::for_cores(cfg.cores, 70.0));
    cfg.retry = Some(zygos_load::retry::RetryPolicy::Backoff {
        base_us: 50,
        factor: 2.0,
        max_attempts: 4,
    });
    out.push(("engine-retry-storm", cfg));

    out
}

/// The canonical sweep scenario (a fig06-shaped grid over four hosts).
fn sweep_scenario() -> Scenario {
    Scenario::builder("bench-fig06-sweep")
        .service(ServiceDist::exponential_us(10.0))
        .cores(16)
        .conns(2752)
        .loads(vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9])
        .requests(30_000, 6_000)
        .smoke(6_000, 1_200)
        .smoke_loads(vec![0.3, 0.6, 0.9])
        .case(Case::sim("linux-floating", SimHost::LinuxFloating))
        .case(Case::sim("ix", SimHost::Ix))
        .case(Case::sim("zygos-noint", SimHost::ZygosNoInterrupts))
        .case(Case::sim("zygos", SimHost::Zygos))
        .build()
        .expect("canonical sweep scenario is valid")
}

/// Runs the canonical workloads and returns the timed report.
pub fn run_bench(smoke: bool) -> BenchReport {
    let mut entries = Vec::new();
    for (name, cfg) in engine_workloads(smoke) {
        let start = Instant::now();
        let out = run_system(&cfg);
        let wall = start.elapsed();
        let secs = wall.as_secs_f64().max(1e-9);
        entries.push(BenchEntry {
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            events: out.events,
            events_per_sec: out.events as f64 / secs,
            points: 0,
            points_per_sec: 0.0,
        });
    }
    // The fleet engine: four 4-core ZygOS shards behind a po2c balancer
    // with one shard serving at 3x cost — the scenario plane's `fleet:*`
    // hot path, including the degraded-capacity lowering.
    let mut base = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.75);
    base.cores = 4;
    base.conns = 256;
    (base.requests, base.warmup) = scale(120_000, 12_000, smoke);
    let mut fc = FleetConfig::new(base, 4, RoutePolicy::PowerOfTwoChoices);
    fc.degraded = vec![(0, 3.0)];
    let start = Instant::now();
    let out = run_fleet(&fc);
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    entries.push(BenchEntry {
        name: "engine-fleet-po2c".to_string(),
        wall_ms: wall.as_secs_f64() * 1e3,
        events: out.events(),
        events_per_sec: out.events() as f64 / secs,
        points: 0,
        points_per_sec: 0.0,
    });
    // The warm-start twin sweeps: a deliberately deep warmup (the regime
    // the checkpoint chain exists for) over an ascending grid. Cold runs
    // pay convergence + measurement at every point; warm chains pay only
    // warmup/8 re-equilibration plus the measurement window. Smoke only
    // halves this pair (not /5): the warm side's wall time must stay
    // large enough that its rate — and the warm/cold ratio the
    // [`WARM_MIN_SPEEDUP`] gate reads — is not scheduler-jitter noise.
    let (requests, warmup) = if smoke {
        (2_500, 30_000)
    } else {
        (5_000, 60_000)
    };
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.3);
    cfg.requests = requests;
    cfg.warmup = warmup;
    let loads = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    for (name, warm) in [(WARM_PAIR.0, false), (WARM_PAIR.1, true)] {
        let start = Instant::now();
        let pts = if warm {
            latency_throughput_sweep(&cfg, &loads)
        } else {
            latency_throughput_sweep_cold(&cfg, &loads)
        };
        let wall = start.elapsed();
        let secs = wall.as_secs_f64().max(1e-9);
        entries.push(BenchEntry {
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            events: 0,
            events_per_sec: 0.0,
            points: pts.len() as u64,
            points_per_sec: pts.len() as f64 / secs,
        });
    }
    let sc = sweep_scenario();
    for (name, threads) in [(PAR_PAIR.0, 1usize), (PAR_PAIR.1, 0usize)] {
        let start = Instant::now();
        let report = if threads == 1 {
            run_scenario_threads(&sc, smoke, 1)
        } else {
            crate::runner::run_scenario(&sc, smoke)
        }
        .expect("canonical sweep runs");
        let wall = start.elapsed();
        let secs = wall.as_secs_f64().max(1e-9);
        let points: u64 = report.series.iter().map(|s| s.points.len() as u64).sum();
        entries.push(BenchEntry {
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            events: 0,
            events_per_sec: 0.0,
            points,
            points_per_sec: points as f64 / secs,
        });
    }
    BenchReport {
        schema: BENCH_SCHEMA,
        smoke,
        entries,
    }
}

/// Compares a fresh run against the committed baseline. Returns every
/// violation (empty = pass). Only *rates* are compared, and only
/// downward: faster is never an error (rewrite the baseline to ratchet).
pub fn check_bench(fresh: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut errs = Vec::new();
    if baseline.smoke != fresh.smoke {
        errs.push(format!(
            "baseline was recorded at {} scale, this run is {} — compare matching modes \
             or regenerate with --write",
            if baseline.smoke { "smoke" } else { "full" },
            if fresh.smoke { "smoke" } else { "full" },
        ));
        return errs;
    }
    for b in &baseline.entries {
        let Some(f) = fresh.entries.iter().find(|f| f.name == b.name) else {
            errs.push(format!(
                "baseline entry {:?} missing from this run — regenerate with --write",
                b.name
            ));
            continue;
        };
        let (bv, fv, what) = if b.events_per_sec > 0.0 {
            (b.events_per_sec, f.events_per_sec, "events/sec")
        } else {
            (b.points_per_sec, f.points_per_sec, "points/sec")
        };
        if fv < bv * (1.0 - tolerance) {
            errs.push(format!(
                "[{}] {what} regressed: baseline {:.0}, this run {:.0} \
                 (allowed floor {:.0}; wall-clock noise is documented in docs/PERFORMANCE.md)",
                b.name,
                bv,
                fv,
                bv * (1.0 - tolerance),
            ));
        }
    }
    // The telemetry overhead gate rides the same fresh run: full-fidelity
    // tracing must stay within its documented bound of the untraced twin.
    let entry = |name: &str| fresh.entries.iter().find(|e| e.name == name);
    if let (Some(off), Some(on)) = (entry(TRACE_PAIR.0), entry(TRACE_PAIR.1)) {
        let floor = off.events_per_sec * (1.0 - TRACE_ON_MAX_OVERHEAD);
        if on.events_per_sec < floor {
            errs.push(format!(
                "[{}] full-fidelity tracing overhead breaches its documented bound: \
                 traced {:.0} events/sec vs untraced {:.0} (floor {:.0}, bound {:.0}%)",
                TRACE_PAIR.1,
                on.events_per_sec,
                off.events_per_sec,
                floor,
                TRACE_ON_MAX_OVERHEAD * 100.0,
            ));
        }
    }
    // The warm-start gate rides the same fresh run: the chained sweep
    // must actually deliver its speedup over the cold twin, or the
    // tail-acceleration machinery has silently stopped warming.
    if let (Some(cold), Some(warm)) = (entry(WARM_PAIR.0), entry(WARM_PAIR.1)) {
        let floor = cold.points_per_sec * WARM_MIN_SPEEDUP;
        if warm.points_per_sec < floor {
            errs.push(format!(
                "[{}] warm-start sweep lost its speedup: warm {:.1} points/sec vs \
                 cold {:.1} (required >= {:.1}x, floor {:.1})",
                WARM_PAIR.1, warm.points_per_sec, cold.points_per_sec, WARM_MIN_SPEEDUP, floor,
            ));
        }
    }
    // The parallel sweep must not fall meaningfully behind the
    // sequential twin (it may not beat it on a one-core runner).
    if let (Some(seq), Some(par)) = (entry(PAR_PAIR.0), entry(PAR_PAIR.1)) {
        let floor = seq.points_per_sec * PAR_MIN_RATIO;
        if par.points_per_sec < floor {
            errs.push(format!(
                "[{}] parallel sweep fell behind the sequential twin: {:.1} points/sec \
                 vs {:.1} (floor {:.1})",
                PAR_PAIR.1, par.points_per_sec, seq.points_per_sec, floor,
            ));
        }
    }
    errs
}

impl BenchReport {
    /// Serializes to pretty JSON (same shortest-round-trip convention as
    /// the scenario reports).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"wall_ms\": {}, \"events\": {}, \
                 \"events_per_sec\": {}, \"points\": {}, \"points_per_sec\": {}}}",
                e.name,
                num(e.wall_ms),
                e.events,
                num(e.events_per_sec),
                e.points,
                num(e.points_per_sec),
            );
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the output of [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let Json::Obj(top) = v else {
            return Err("bench baseline: expected an object".into());
        };
        let num_of = |j: &Json, what: &str| -> Result<f64, String> {
            match j {
                Json::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        };
        let schema = num_of(top.get("schema").ok_or("missing key \"schema\"")?, "schema")? as u32;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "bench baseline schema v{schema} does not match this binary's v{BENCH_SCHEMA}; \
                 regenerate it with --write"
            ));
        }
        let smoke = match top.get("smoke").ok_or("missing key \"smoke\"")? {
            Json::Bool(b) => *b,
            other => return Err(format!("smoke: expected bool, got {other:?}")),
        };
        let Some(Json::Arr(items)) = top.get("entries") else {
            return Err("entries: expected array".into());
        };
        let mut entries = Vec::new();
        for it in items {
            let Json::Obj(o) = it else {
                return Err("entry: expected object".into());
            };
            let f = |k: &str| -> Result<f64, String> {
                num_of(o.get(k).ok_or_else(|| format!("missing key {k:?}"))?, k)
            };
            let name = match o.get("name").ok_or("missing key \"name\"")? {
                Json::Str(s) => s.clone(),
                other => return Err(format!("name: expected string, got {other:?}")),
            };
            entries.push(BenchEntry {
                name,
                wall_ms: f("wall_ms")?,
                events: f("events")? as u64,
                events_per_sec: f("events_per_sec")?,
                points: f("points")? as u64,
                points_per_sec: f("points_per_sec")?,
            });
        }
        Ok(BenchReport {
            schema,
            smoke,
            entries,
        })
    }
}

/// JSON has no NaN/Inf; rates are physical, clamp any slip-through.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            smoke: true,
            entries: vec![
                BenchEntry {
                    name: "engine-zygos-0.8".into(),
                    wall_ms: 100.0,
                    events: 1_000_000,
                    events_per_sec: 10_000_000.0,
                    points: 0,
                    points_per_sec: 0.0,
                },
                BenchEntry {
                    name: "lab-sweep-seq".into(),
                    wall_ms: 200.0,
                    events: 0,
                    events_per_sec: 0.0,
                    points: 12,
                    points_per_sec: 60.0,
                },
            ],
        }
    }

    #[test]
    fn bench_json_round_trips() {
        let r = sample();
        assert_eq!(BenchReport::from_json(&r.to_json()).expect("parses"), r);
    }

    #[test]
    fn check_flags_regressions_only_downward() {
        let base = sample();
        let mut fresh = sample();
        // 10% slower: within the 30% tolerance.
        fresh.entries[0].events_per_sec = 9_000_000.0;
        assert!(check_bench(&fresh, &base, REGRESSION_TOLERANCE).is_empty());
        // 40% slower: flagged.
        fresh.entries[0].events_per_sec = 6_000_000.0;
        let errs = check_bench(&fresh, &base, REGRESSION_TOLERANCE);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("events/sec regressed"));
        // 10x faster: never an error.
        fresh.entries[0].events_per_sec = 100_000_000.0;
        assert!(check_bench(&fresh, &base, REGRESSION_TOLERANCE).is_empty());
    }

    #[test]
    fn check_catches_scale_mismatch_and_missing_entries() {
        let base = sample();
        let mut fresh = sample();
        fresh.smoke = false;
        let errs = check_bench(&fresh, &base, REGRESSION_TOLERANCE);
        assert!(errs[0].contains("smoke"), "{errs:?}");
        let mut fresh = sample();
        fresh.entries.remove(1);
        let errs = check_bench(&fresh, &base, REGRESSION_TOLERANCE);
        assert!(errs[0].contains("missing"), "{errs:?}");
    }

    #[test]
    fn trace_overhead_gate_compares_the_twin_pair() {
        let pair = |on_rate: f64| {
            let mut r = sample();
            r.entries.push(BenchEntry {
                name: TRACE_PAIR.1.into(),
                wall_ms: 100.0,
                events: 1_000_000,
                events_per_sec: on_rate,
                points: 0,
                points_per_sec: 0.0,
            });
            r
        };
        // Traced twin 50% slower than the untraced run: within the bound.
        let fresh = pair(5_000_000.0);
        assert!(check_bench(&fresh, &fresh, REGRESSION_TOLERANCE).is_empty());
        // Traced twin 65% slower: the overhead gate fires.
        let fresh = pair(3_500_000.0);
        let errs = check_bench(&fresh, &fresh, REGRESSION_TOLERANCE);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("tracing overhead"), "{errs:?}");
        // Without the traced twin in the run, the gate stays silent.
        let fresh = sample();
        assert!(check_bench(&fresh, &fresh, REGRESSION_TOLERANCE).is_empty());
    }

    #[test]
    fn warm_start_gate_compares_the_twin_sweeps() {
        let pair = |cold_rate: f64, warm_rate: f64| {
            let mut r = sample();
            for (name, rate) in [(WARM_PAIR.0, cold_rate), (WARM_PAIR.1, warm_rate)] {
                r.entries.push(BenchEntry {
                    name: name.into(),
                    wall_ms: 100.0,
                    events: 0,
                    events_per_sec: 0.0,
                    points: 6,
                    points_per_sec: rate,
                });
            }
            r
        };
        // 2.5x speedup: comfortably above the 2x floor.
        let fresh = pair(10.0, 25.0);
        assert!(check_bench(&fresh, &fresh, REGRESSION_TOLERANCE).is_empty());
        // 1.5x: the warm-start machinery has stopped paying for itself.
        let fresh = pair(10.0, 15.0);
        let errs = check_bench(&fresh, &fresh, REGRESSION_TOLERANCE);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("warm-start sweep"), "{errs:?}");
        // Without the pair in the run, the gate stays silent.
        let fresh = sample();
        assert!(check_bench(&fresh, &fresh, REGRESSION_TOLERANCE).is_empty());
    }

    #[test]
    fn parallel_ratio_gate_compares_the_twin_sweeps() {
        let pair = |par_rate: f64| {
            let mut r = sample();
            // sample() already carries lab-sweep-seq at 60 points/sec.
            r.entries.push(BenchEntry {
                name: PAR_PAIR.1.into(),
                wall_ms: 100.0,
                events: 0,
                events_per_sec: 0.0,
                points: 12,
                points_per_sec: par_rate,
            });
            r
        };
        // Parallel at 90% of sequential: a one-core runner, fine.
        let fresh = pair(54.0);
        assert!(check_bench(&fresh, &fresh, REGRESSION_TOLERANCE).is_empty());
        // Parallel at half the sequential rate: pathological, flagged.
        let fresh = pair(30.0);
        let errs = check_bench(&fresh, &fresh, REGRESSION_TOLERANCE);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("parallel sweep"), "{errs:?}");
    }

    #[test]
    fn smoke_bench_produces_all_entries() {
        let r = run_bench(true);
        assert_eq!(r.entries.len(), 13);
        assert!(
            r.entries.iter().any(|e| e.name == "engine-staged-split"),
            "the staged engine workload is part of the canonical set"
        );
        assert!(
            r.entries.iter().any(|e| e.name == "engine-retry-storm"),
            "the closed-loop retry workload is part of the canonical set"
        );
        for e in &r.entries {
            assert!(
                e.events_per_sec > 0.0 || e.points_per_sec > 0.0,
                "{} has no rate",
                e.name
            );
        }
        for name in [WARM_PAIR.0, WARM_PAIR.1, PAR_PAIR.0, PAR_PAIR.1] {
            assert!(
                r.entries.iter().any(|e| e.name == name),
                "{name} missing from the bench run"
            );
        }
    }
}
