//! Executing scenarios: the only place experiment descriptions become
//! host configurations.
//!
//! * [`run_scenario`] sweeps every case over the load grid and returns
//!   the unified [`Report`].
//! * [`sys_config_for`] / [`runtime_config_for`] are the **single**
//!   lowering points from a [`Scenario`] to `zygos_sysim::SysConfig` and
//!   `zygos_runtime::RuntimeConfig` — fig binaries and examples no
//!   longer assemble host configs by hand, which is what keeps sim/live
//!   parity checkable (see `tests/scenario.rs`).
//! * A scenario's `[search]` block runs the paper's "maximum load @
//!   SLO" bisection over every deterministic case; it is the only
//!   max-load search, so the figures print what the gate certifies.
//!
//! The live host runs the same scenario against a real multithreaded
//! server: the replay thread pre-samples arrivals and service times
//! (deterministic in the scenario seed), sends open-loop, and reduces
//! client-observed latencies to the same [`PointMetrics`] schema. Wall
//! clocks are not simulators: live series are marked
//! non-deterministic and scenario authors should size live cases in the
//! hundreds-of-µs service range (see `docs/SCENARIOS.md`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos_net::flow::ConnId;
use zygos_net::packet::RpcMessage;
use zygos_runtime::server::REJECT_OPCODE;
use zygos_runtime::{ClientPort, RuntimeConfig, Server};
use zygos_sched::CreditConfig;
use zygos_sim::queueing::{self, Policy, QueueConfig};
use zygos_sim::rng::Xoshiro256;
use zygos_sim::stats::LatencyHistogram;
use zygos_sysim::{
    max_load_at_quantile_slo_counting, run_fleet, run_system_chain, AdmissionMode, FleetConfig,
    FleetOutput, RoutePolicy, SysConfig, SysOutput, SystemKind, WARM_MAX_LOAD,
};
use zygos_telemetry::{decompose, decomposition_at_quantile, TelemetryOut, TimeSeries};

use crate::report::{PointMetrics, Report, SearchResult, Series, TraceSeries, SCHEMA_VERSION};
use zygos_load::source::{ArrivalSpec, Phase};

use crate::spec::{
    AdmissionSpec, Case, FaultsSpec, HostSpec, LiveHost, Scenario, SearchSpec, SimHost, SpecError,
};

/// Hard per-point completion cap for live cases: wall-clock experiments
/// exist to prove parity and mechanism, not to soak a CI runner.
pub const LIVE_POINT_CAP: u64 = 4_000;

/// Deadline for one live point's drain (a hung server fails loudly).
const LIVE_POINT_DEADLINE: Duration = Duration::from_secs(60);

/// Worker threads for [`run_scenario`]: the host's parallelism, capped so
/// a big machine does not oversubscribe itself against the OS.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs every case of a scenario over its load grid.
///
/// Simulator and model work is a pure function of `(config, seed)`, so
/// it fans out across worker threads; results are reassembled in grid
/// order, which makes the parallel run **byte-identical** to a sequential
/// one (pinned by `parallel_report_matches_sequential`). Live points are
/// wall-clock measurements and always run sequentially, after the
/// deterministic points have finished — a saturated machine would distort
/// their latencies.
pub fn run_scenario(sc: &Scenario, smoke: bool) -> Result<Report, SpecError> {
    run_scenario_threads(sc, smoke, default_parallelism())
}

/// One deterministic work item. The job list is a pure function of the
/// scenario and its load grid — never of thread timing — which is what
/// keeps the parallel fan-out byte-identical to a sequential run even
/// though warm-start chains couple consecutive grid points.
enum Job {
    /// Consecutive grid indices of one case, run as one warm-start chain
    /// (singleton for hosts that cannot warm-start).
    Chain { ci: usize, lis: Vec<usize> },
    /// The case's `[search]` bisection.
    Search { ci: usize },
}

enum JobOut {
    Points(Vec<PointMetrics>),
    Search(SearchResult),
}

fn run_job(sc: &Scenario, job: &Job, loads: &[f64], smoke: bool) -> Result<JobOut, SpecError> {
    match job {
        Job::Chain { ci, lis } => {
            let chain: Vec<f64> = lis.iter().map(|&li| loads[li]).collect();
            run_chain(sc, &sc.cases[*ci], &chain, smoke).map(JobOut::Points)
        }
        Job::Search { ci } => run_search(sc, &sc.cases[*ci], smoke).map(JobOut::Search),
    }
}

/// The deterministic job list: one [`Job::Chain`] per warm-start chain of
/// a simulator case (per grid point on other hosts), plus the case's
/// `[search]`. `run_system_chain` runs cold whichever chained points it
/// may not warm-start (telemetry on, say).
fn jobs_for(sc: &Scenario, loads: &[f64]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (ci, case) in sc.cases.iter().enumerate() {
        if matches!(case.host, HostSpec::Live(_)) {
            continue;
        }
        if matches!(case.host, HostSpec::Sim(_)) {
            jobs.extend(
                warm_chains(loads)
                    .into_iter()
                    .map(|lis| Job::Chain { ci, lis }),
            );
        } else {
            jobs.extend((0..loads.len()).map(|li| Job::Chain { ci, lis: vec![li] }));
        }
        if sc.search.is_some() {
            jobs.push(Job::Search { ci });
        }
    }
    jobs
}

/// Splits a load grid into maximal strictly-ascending runs at or below
/// [`WARM_MAX_LOAD`] — the spans `run_system_chain` may warm-start end to
/// end. A pure function of the grid, so parallel workers and a sequential
/// run carve up identical chains.
fn warm_chains(loads: &[f64]) -> Vec<Vec<usize>> {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for i in 0..loads.len() {
        let chainable = i > 0 && loads[i - 1] < loads[i] && loads[i] <= WARM_MAX_LOAD;
        if chainable {
            chains.last_mut().expect("i > 0 has a chain").push(i);
        } else {
            chains.push(vec![i]);
        }
    }
    chains
}

/// [`run_scenario`] with an explicit worker count (`1` = sequential).
pub fn run_scenario_threads(
    sc: &Scenario,
    smoke: bool,
    threads: usize,
) -> Result<Report, SpecError> {
    let loads = sc.loads(smoke).to_vec();
    // One slot per deterministic job; live points are computed afterwards.
    let jobs = jobs_for(sc, &loads);
    let threads = threads.clamp(1, jobs.len().max(1));
    let results: Vec<Mutex<Option<Result<JobOut, SpecError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    if threads <= 1 {
        for (slot, job) in jobs.iter().enumerate() {
            *results[slot].lock().expect("poisoned") = Some(run_job(sc, job, &loads, smoke));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(slot) else {
                        return;
                    };
                    let out = run_job(sc, job, &loads, smoke);
                    *results[slot].lock().expect("poisoned") = Some(out);
                });
            }
        });
    }
    let mut by_case: Vec<Vec<Option<PointMetrics>>> =
        sc.cases.iter().map(|_| vec![None; loads.len()]).collect();
    let mut searches: Vec<Option<SearchResult>> = vec![None; sc.cases.len()];
    for (slot, job) in jobs.iter().enumerate() {
        let out = results[slot]
            .lock()
            .expect("poisoned")
            .take()
            .expect("every job ran")?;
        match (job, out) {
            (Job::Chain { ci, lis }, JobOut::Points(points)) => {
                for (&li, p) in lis.iter().zip(points) {
                    by_case[*ci][li] = Some(p);
                }
            }
            (Job::Search { ci }, JobOut::Search(s)) => searches[*ci] = Some(s),
            _ => unreachable!("job and result kinds always agree"),
        }
    }
    let mut series = Vec::with_capacity(sc.cases.len());
    for (ci, case) in sc.cases.iter().enumerate() {
        let live = matches!(case.host, HostSpec::Live(_));
        let points = if live {
            run_chain(sc, case, &loads, smoke)?
        } else {
            by_case[ci]
                .iter_mut()
                .map(|p| p.take().expect("deterministic point computed"))
                .collect()
        };
        series.push(Series {
            label: case.label.clone(),
            host: case.host.id(),
            deterministic: !live,
            points,
            search: searches[ci].take(),
        });
    }
    Ok(Report {
        schema: SCHEMA_VERSION,
        scenario: sc.name.clone(),
        smoke,
        series,
    })
}

/// Runs one case over consecutive grid loads. A simulator case runs them
/// as one warm-start chain; every other host runs each load on its own.
/// The first point of a chain is bit-identical to a cold run, so
/// splitting a grid into chains never changes which numbers are
/// possible — only how much warmup is re-simulated.
fn run_chain(
    sc: &Scenario,
    case: &Case,
    chain: &[f64],
    smoke: bool,
) -> Result<Vec<PointMetrics>, SpecError> {
    match case.host {
        HostSpec::Sim(_) => {
            let base = sys_config_for(sc, case, chain.first().copied().unwrap_or(0.5), smoke)?;
            Ok(run_system_chain(&base, chain)
                .into_iter()
                .zip(chain)
                .map(|(out, &load)| sim_metrics(load, out, case))
                .collect())
        }
        HostSpec::Model(policy) => Ok(chain
            .iter()
            .map(|&load| model_metrics(sc, load, model_run(sc, policy, load, smoke)))
            .collect()),
        HostSpec::Fleet(_) => chain
            .iter()
            .map(|&load| {
                let fc = fleet_config_for(sc, case, load, smoke)?;
                Ok(fleet_metrics(load, run_fleet(&fc), case))
            })
            .collect(),
        HostSpec::Live(_) => chain
            .iter()
            .map(|&load| run_live_point(sc, case, load, smoke))
            .collect(),
    }
}

/// Runs the `[search]` block for one deterministic case: the paper's
/// "maximum load @ SLO" bisection. Simulator cases warm-start every
/// probe above the first from a checkpoint prefix (`cold_probes` stays
/// 1); model probes are cheap and always cold.
fn run_search(sc: &Scenario, case: &Case, smoke: bool) -> Result<SearchResult, SpecError> {
    let sp = sc
        .search
        .as_ref()
        .ok_or_else(|| SpecError::new("run_search needs a [search] block"))?;
    let (max_load, probes, cold_probes) = match case.host {
        HostSpec::Sim(_) => {
            // The lowering load is irrelevant: the bisection overwrites
            // `cfg.load` per probe.
            let base = sys_config_for(sc, case, 0.5, smoke)?;
            max_load_at_quantile_slo_counting(&base, sp.quantile, sp.bound_us, sp.resolution)
        }
        HostSpec::Model(policy) => cold_search(sp, |load| {
            model_run(sc, policy, load, smoke)
                .latency
                .quantile_us(sp.quantile)
        }),
        HostSpec::Fleet(_) => {
            // The bisection overwrites the fleet-level load knob per
            // probe; everything else in the lowering is load-independent.
            let base = fleet_config_for(sc, case, 0.5, smoke)?;
            cold_search(sp, |load| {
                let mut fc = base.clone();
                fc.base.load = load;
                run_fleet(&fc).quantile_us(sp.quantile)
            })
        }
        HostSpec::Live(_) => {
            return Err(SpecError::new(
                "a [search] block cannot run on a wall-clock host",
            ));
        }
    };
    Ok(SearchResult {
        quantile: sp.quantile,
        bound_us: sp.bound_us,
        resolution: sp.resolution as u32,
        max_load,
        probes,
        cold_probes,
    })
}

/// A bisection whose every probe runs cold: `(max_load, probes, probes)`.
fn cold_search(sp: &SearchSpec, mut probe: impl FnMut(f64) -> f64) -> (f64, u32, u32) {
    let mut probes = 0u32;
    let max_load = queueing::max_load_at_slo(
        |load| {
            probes += 1;
            probe(load)
        },
        sp.bound_us,
        sp.resolution,
    );
    (max_load, probes, probes)
}

/// One zero-overhead queueing-model run of the scenario's workload.
fn model_run(sc: &Scenario, policy: Policy, load: f64, smoke: bool) -> queueing::SimOutput {
    let (requests, warmup) = sc.scale.window(smoke);
    queueing::simulate(&QueueConfig {
        servers: sc.workload.cores,
        load,
        service: sc.workload.service.clone(),
        policy,
        requests,
        seed: sc.scale.seed,
        warmup,
    })
}

/// Reduces a queueing-model run to the unified schema.
fn model_metrics(sc: &Scenario, load: f64, out: queueing::SimOutput) -> PointMetrics {
    PointMetrics {
        load,
        mrps: if out.sim_time_us > 0.0 {
            out.completed as f64 / out.sim_time_us
        } else {
            0.0
        },
        p50_us: out.latency.p50_us(),
        p99_us: out.latency.p99_us(),
        p999_us: out.latency.quantile_us(0.999),
        avg_cores: sc.workload.cores as f64,
        core_seconds: sc.workload.cores as f64 * out.sim_time_us / 1e6,
        ..PointMetrics::default()
    }
}

/// Lowers a simulator case at one load to a `SysConfig` — the single
/// construction point for simulator experiments.
pub fn sys_config_for(
    sc: &Scenario,
    case: &Case,
    load: f64,
    smoke: bool,
) -> Result<SysConfig, SpecError> {
    let HostSpec::Sim(host) = case.host else {
        return Err(SpecError::new(format!(
            "case {:?} does not run on the simulator",
            case.label
        )));
    };
    Ok(lower_sim(sc, case, host, load, smoke))
}

/// The shared sim-world lowering behind [`sys_config_for`] and
/// [`fleet_config_for`].
fn lower_sim(sc: &Scenario, case: &Case, host: SimHost, load: f64, smoke: bool) -> SysConfig {
    let p = &case.policy;
    let system = match host {
        SimHost::Zygos => SystemKind::Zygos,
        SimHost::ZygosNoInterrupts => SystemKind::ZygosNoInterrupts,
        SimHost::Elastic => SystemKind::Elastic {
            min_cores: p.min_cores.unwrap_or(2),
        },
        SimHost::Ix => SystemKind::Ix,
        SimHost::LinuxPartitioned => SystemKind::LinuxPartitioned,
        SimHost::LinuxFloating => SystemKind::LinuxFloating,
        SimHost::Staged => SystemKind::Staged,
    };
    let mut cfg = SysConfig::paper(system, sc.workload.service.clone(), load);
    if host == SimHost::Staged {
        // Build validation pairs every staged case with a [[stages]]
        // block, so the plan is always present here.
        if let Some(stages) = &sc.stages {
            cfg.staged = Some(crate::spec::staged_plan(stages, p));
        }
    }
    cfg.cores = sc.workload.cores;
    cfg.conns = sc.workload.conns;
    cfg.arrivals = sc.workload.arrivals.clone();
    let (requests, warmup) = sc.scale.window(smoke);
    cfg.requests = requests;
    cfg.warmup = warmup;
    cfg.seed = sc.scale.seed;
    if let Some(b) = p.rx_batch {
        cfg.rx_batch = b;
    }
    if let Some(q) = p.quantum_us {
        cfg.preemption_quantum_us = q;
    }
    if let Some(o) = p.background_order {
        cfg.background_order = o;
    }
    if let Some(r) = p.randomize_steal_order {
        cfg.randomize_steal_order = r;
    }
    if let Some(ns) = p.ipi_delivery_ns {
        cfg.cost.ipi_delivery_ns = ns;
    }
    if let Some(ns) = p.steal_extra_ns {
        cfg.cost.steal_extra_ns = ns;
    }
    cfg.slo = p.slo.clone();
    if let Some(a) = &p.admission {
        cfg.admission = Some(credit_config_for(a, sc.workload.cores));
        cfg.admission_mode = a.mode;
    }
    cfg.retry = p.retry;
    cfg.retry_timeout_us = p.retry_timeout_us;
    cfg.telemetry = sc.telemetry.as_ref().map(|t| t.to_config());
    if let Some(fl) = &sc.faults {
        apply_faults(&mut cfg, fl);
    }
    cfg
}

/// Lowers the scenario's `[faults]` block onto one sim world: the burst
/// re-plans the arrival process as phased Poisson.
fn apply_faults(cfg: &mut SysConfig, fl: &FaultsSpec) {
    if let Some((at_us, duration_us, factor)) = fl.burst {
        // Phased arrivals cycle, so the burst gets a tail phase sized to
        // outlive any plausible run — the cycle must never wrap into a
        // second burst. The base rate is NOT renormalized: `load` keeps
        // its steady-state meaning and the burst is extra offered work.
        let est_us = (cfg.warmup + cfg.requests) as f64 / cfg.lambda_per_us();
        let horizon_us = 8.0 * est_us.max(1.0) + at_us + duration_us;
        cfg.arrivals = ArrivalSpec::Phased(vec![
            Phase {
                duration_us: at_us,
                rate_factor: 1.0,
            },
            Phase {
                duration_us,
                rate_factor: factor,
            },
            Phase {
                duration_us: horizon_us,
                rate_factor: 1.0,
            },
        ]);
    }
}

/// Lowers a fleet case at one load to a `FleetConfig` — the single
/// construction point for fleet experiments. The base world is lowered
/// exactly like a `sim:*` case (`lower_sim`), so each shard runs the
/// case's credit pool as its own. Shards harvest time-series only
/// (namespaced by the fleet engine, which forces lifecycle tracing off
/// because correlation keys collide across shards).
fn fleet_config_for(
    sc: &Scenario,
    case: &Case,
    load: f64,
    smoke: bool,
) -> Result<FleetConfig, SpecError> {
    let HostSpec::Fleet(host) = case.host else {
        return Err(SpecError::new(format!(
            "case {:?} does not run on the fleet host",
            case.label
        )));
    };
    let Some(f) = &sc.fleet else {
        return Err(SpecError::new(format!(
            "case {:?} needs a [fleet] block",
            case.label
        )));
    };
    let p = &case.policy;
    let base = lower_sim(sc, case, host, load, smoke);
    let mut fc = FleetConfig::new(
        base,
        f.shards,
        p.routing.unwrap_or(RoutePolicy::ConsistentHash),
    );
    fc.degraded = p.degraded.clone().unwrap_or_default();
    fc.loss = p.loss;
    fc.fanout = p.fanout.unwrap_or(1);
    Ok(fc)
}

/// Lowers a live case to a `RuntimeConfig` — the single construction
/// point for live experiments.
pub fn runtime_config_for(sc: &Scenario, case: &Case) -> Result<RuntimeConfig, SpecError> {
    let HostSpec::Live(host) = case.host else {
        return Err(SpecError::new(format!(
            "case {:?} does not run on the live runtime",
            case.label
        )));
    };
    let p = &case.policy;
    let preset = match host {
        LiveHost::Zygos => RuntimeConfig::zygos,
        LiveHost::Partitioned => RuntimeConfig::partitioned,
        LiveHost::Elastic => RuntimeConfig::elastic,
    };
    let mut cfg = preset(sc.workload.cores, sc.workload.conns);
    cfg.slo = p.slo.clone();
    if let Some(a) = &p.admission {
        cfg.admission = Some(credit_config_for(a, sc.workload.cores));
        cfg.client_credits = a.mode == AdmissionMode::ClientSide;
    }
    Ok(cfg)
}

/// The credit pool a case runs: `CreditConfig::for_cores` at the case's
/// target. With SLO classes configured the AIMD runs in ratio space and
/// the µs target is irrelevant (any positive value); 1.0 is used then.
fn credit_config_for(a: &AdmissionSpec, cores: usize) -> CreditConfig {
    CreditConfig::for_cores(cores, a.target_us.unwrap_or(1.0))
}

/// Reduces a simulator run to the unified schema.
fn sim_metrics(load: f64, out: SysOutput, case: &Case) -> PointMetrics {
    let per_class = |f: &dyn Fn(usize) -> f64| per_class(case, f);
    let (p99_queue_us, p99_service_us, p99_steal_us, p99_preempt_us) = out
        .telemetry
        .as_ref()
        .and_then(|t| {
            let mut decomps = decompose(&t.events);
            decomposition_at_quantile(&mut decomps, 0.99).map(|d| d.as_us())
        })
        .unwrap_or_default();
    PointMetrics {
        load,
        mrps: out.throughput_mrps(),
        p50_us: out.latency.p50_us(),
        p99_us: out.p99_us(),
        p999_us: out.latency.quantile_us(0.999),
        steal_fraction: out.steal_fraction(),
        ipis_per_req: if out.completed == 0 {
            0.0
        } else {
            out.ipis as f64 / out.completed as f64
        },
        preemptions_per_req: out.preemptions_per_req(),
        avg_cores: out.avg_active_cores,
        core_seconds: out.core_seconds_used(),
        shed_fraction: out.shed_fraction(),
        wasted_wire_us: out.wasted_wire_us(),
        retry_rate: out.retry_rate(),
        give_up_rate: out.give_up_rate(),
        goodput: out.goodput_fraction(),
        shed_share_by_class: per_class(&|c| out.shed_share_of_class(c)),
        shed_rate_by_class: per_class(&|c| out.shed_rate_of_class(c)),
        p99_queue_us,
        p99_service_us,
        p99_steal_us,
        p99_preempt_us,
        stage_p99_wait_us: out.stage_p99_wait_us.clone(),
        timeseries: series_of(out.telemetry.as_ref()),
    }
}

/// Reduces a fleet run to the unified schema. Every reduction is the
/// Σ-across-shards form of the matching [`sim_metrics`] formula, so for a
/// single shard each collapses to the identical floating-point operations
/// — that is what keeps the N=1 pass-through fleet **bit-identical** to
/// its `sim:*` base case (pinned by `tests/fleet_differential.rs`).
fn fleet_metrics(load: f64, out: FleetOutput, case: &Case) -> PointMetrics {
    let per_class = |f: &dyn Fn(usize) -> f64| per_class(case, f);
    let sum = |f: &dyn Fn(&SysOutput) -> u64| -> u64 { out.shards.iter().map(f).sum() };
    let sumf = |f: &dyn Fn(&SysOutput) -> f64| -> f64 { out.shards.iter().map(f).sum() };
    let completed = sum(&|s| s.completed);
    let per_req = |n: u64| {
        if completed == 0 {
            0.0
        } else {
            n as f64 / completed as f64
        }
    };
    let local = sum(&|s| s.local_events);
    let stolen = sum(&|s| s.stolen_events);
    let offered = sum(&|s| s.admitted) + sum(&|s| s.rejected);
    let rejected_total: u64 = sum(&|s| s.rejected_by_class.iter().sum());
    let generated = out.generated();
    let per_generated = |n: u64| {
        if generated == 0 {
            0.0
        } else {
            n as f64 / generated as f64
        }
    };
    PointMetrics {
        load,
        // User-request throughput and tail: sub-request sums over the
        // fan-out, and the max-of-M quantile transform. Both collapse to
        // the plain merged reductions at fanout = 1 (exactly — ÷1.0 is
        // an IEEE 754 identity), preserving the N=1 bit-identity.
        mrps: out.throughput_mrps(),
        p50_us: out.quantile_us(0.5),
        p99_us: out.p99_us(),
        p999_us: out.quantile_us(0.999),
        steal_fraction: if local + stolen == 0 {
            0.0
        } else {
            stolen as f64 / (local + stolen) as f64
        },
        ipis_per_req: per_req(sum(&|s| s.ipis)),
        preemptions_per_req: per_req(sum(&|s| s.preemptions)),
        // Fleet-wide granted cores: the sum of each shard's average grant
        // (a 4-shard × 4-core healthy fleet reads 16).
        avg_cores: sumf(&|s| s.avg_active_cores),
        core_seconds: sumf(&|s| s.core_seconds_used()),
        shed_fraction: if offered == 0 {
            0.0
        } else {
            sum(&|s| s.rejected) as f64 / offered as f64
        },
        wasted_wire_us: sumf(&|s| s.wasted_wire_us()),
        retry_rate: per_generated(out.retries()),
        give_up_rate: per_generated(out.give_ups()),
        goodput: if generated == 0 {
            1.0
        } else {
            1.0 - out.give_ups() as f64 / generated as f64
        },
        shed_share_by_class: per_class(&|c| {
            if rejected_total == 0 {
                0.0
            } else {
                sum(&|s| s.rejected_by_class[c]) as f64 / rejected_total as f64
            }
        }),
        shed_rate_by_class: per_class(&|c| {
            let offered_c = sum(&|s| s.admitted_by_class[c]) + sum(&|s| s.rejected_by_class[c]);
            if offered_c == 0 {
                0.0
            } else {
                sum(&|s| s.rejected_by_class[c]) as f64 / offered_c as f64
            }
        }),
        timeseries: series_of(out.telemetry.as_ref()),
        // Fleet worlds never trace, so the p99 decomposition stays zero —
        // same as an untraced sim case. Per-stage waits are not merged
        // across shards either.
        ..PointMetrics::default()
    }
}

/// One value per tenant class of `case`; empty with fewer than two.
fn per_class(case: &Case, f: &dyn Fn(usize) -> f64) -> Vec<f64> {
    match classes_of(case) {
        1 => Vec::new(),
        classes => (0..classes).map(f).collect(),
    }
}

/// A telemetry harvest's time-series in the report's schema.
fn series_of(t: Option<&TelemetryOut>) -> Vec<TraceSeries> {
    let series = t.map_or(&[][..], |t| &t.series);
    let convert = |s: &TimeSeries| TraceSeries {
        name: s.name.clone(),
        points: s.points.clone(),
    };
    series.iter().map(convert).collect()
}

/// Tenant-class count of a case (1 without SLO classes).
fn classes_of(case: &Case) -> usize {
    case.policy.slo.as_ref().map_or(1, |t| t.classes().len())
}

/// One pre-sampled request of the live replay.
struct PlannedReq {
    at_us: f64,
    conn: u32,
    service_ns: u64,
}

/// Runs one live point: start the server, replay the arrival schedule
/// open-loop, reduce client-observed latencies.
fn run_live_point(
    sc: &Scenario,
    case: &Case,
    load: f64,
    smoke: bool,
) -> Result<PointMetrics, SpecError> {
    let cfg = runtime_config_for(sc, case)?;
    let (requests, warmup) = sc.scale.window(smoke);
    let total = requests.clamp(1, LIVE_POINT_CAP);
    let warmup = warmup.min(total / 4);

    // Pre-sample the open-loop schedule: deterministic in the seed, and
    // the generator never slows down with the server (§3.1).
    let rate_per_us = load * sc.workload.cores as f64 / sc.workload.service.mean_us();
    let mut rng = Xoshiro256::new(sc.scale.seed);
    let mut arrivals = sc.workload.arrivals.source(rate_per_us);
    let mut plan = Vec::with_capacity(total as usize);
    let mut t = 0.0f64;
    for _ in 0..total {
        t += arrivals.next_gap_us(&mut rng);
        plan.push(PlannedReq {
            at_us: t,
            conn: rng.next_bounded(sc.workload.conns as u64) as u32,
            service_ns: sc.workload.service.sample(&mut rng).as_nanos(),
        });
    }

    // The app burns each request's pre-sampled service time (carried in
    // the request body), so the live host serves the same workload the
    // simulator models.
    let app = |_c: ConnId, req: &RpcMessage| {
        let ns = req
            .body
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .unwrap_or(0);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
        RpcMessage::new(0, req.header.req_id, Bytes::new())
    };
    let (server, client) = Server::start(cfg, Arc::new(app));

    let mut sent_at: Vec<Option<Instant>> = vec![None; total as usize];
    let mut latency = LatencyHistogram::new();
    let mut completions = 0u64;
    let mut wire_rejects = 0u64;
    let mut sent = 0u64;
    let mut core_samples = (0u64, 0.0f64);
    let mut window: (Option<Instant>, Option<Instant>) = (None, None);
    let start = Instant::now();
    let mut next = 0usize;
    let deadline = start + LIVE_POINT_DEADLINE;

    let drain = |client: &ClientPort,
                 sent_at: &mut [Option<Instant>],
                 latency: &mut LatencyHistogram,
                 completions: &mut u64,
                 wire_rejects: &mut u64,
                 window: &mut (Option<Instant>, Option<Instant>)| {
        while let Some((_, resp)) = client.recv_timeout(Duration::ZERO) {
            let id = resp.header.req_id as usize;
            if resp.header.opcode == REJECT_OPCODE {
                *wire_rejects += 1;
                continue;
            }
            let now = Instant::now();
            *completions += 1;
            if *completions == warmup.max(1) {
                window.0 = Some(now);
            }
            if *completions > warmup {
                if let Some(sent) = sent_at.get(id).copied().flatten() {
                    latency.record_nanos(now.duration_since(sent).as_nanos() as u64);
                }
                window.1 = Some(now);
            }
        }
    };

    // Send loop: dispatch due arrivals, harvest responses in the gaps.
    while next < plan.len() && Instant::now() < deadline {
        let due = start + Duration::from_nanos((plan[next].at_us * 1_000.0) as u64);
        let now = Instant::now();
        if now < due {
            drain(
                &client,
                &mut sent_at,
                &mut latency,
                &mut completions,
                &mut wire_rejects,
                &mut window,
            );
            let still = due.saturating_duration_since(Instant::now());
            if still > Duration::from_micros(200) {
                std::thread::sleep(still / 2);
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let req = &plan[next];
        let msg = RpcMessage::new(
            1,
            next as u64,
            Bytes::copy_from_slice(&req.service_ns.to_le_bytes()),
        );
        sent_at[next] = Some(Instant::now());
        if client.try_send(ConnId(req.conn), &msg) {
            sent += 1;
        } else {
            sent_at[next] = None; // Shed locally (zero-balance client credits).
        }
        next += 1;
        if next.is_multiple_of(64) {
            if let Some(active) = server.active_cores() {
                core_samples.0 += 1;
                core_samples.1 += active as f64;
            }
        }
    }

    // Drain until every sent request is answered (or the deadline).
    while completions + wire_rejects < sent && Instant::now() < deadline {
        drain(
            &client,
            &mut sent_at,
            &mut latency,
            &mut completions,
            &mut wire_rejects,
            &mut window,
        );
        if let Some(active) = server.active_cores() {
            core_samples.0 += 1;
            core_samples.1 += active as f64;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let local_sheds = client.local_sheds();
    server.shutdown();

    let window_us = match window {
        (Some(a), Some(b)) if b > a => b.duration_since(a).as_nanos() as f64 / 1_000.0,
        _ => start.elapsed().as_nanos() as f64 / 1_000.0,
    };
    let measured = completions.saturating_sub(warmup);
    let avg_cores = if core_samples.0 > 0 {
        core_samples.1 / core_samples.0 as f64
    } else {
        sc.workload.cores as f64
    };
    let offered = sent + local_sheds;
    Ok(PointMetrics {
        load,
        mrps: if window_us > 0.0 {
            measured as f64 / window_us
        } else {
            0.0
        },
        p50_us: if latency.is_empty() {
            0.0
        } else {
            latency.p50_us()
        },
        p99_us: if latency.is_empty() {
            0.0
        } else {
            latency.p99_us()
        },
        p999_us: if latency.is_empty() {
            0.0
        } else {
            latency.quantile_us(0.999)
        },
        avg_cores,
        core_seconds: avg_cores * window_us / 1e6,
        shed_fraction: if offered == 0 {
            0.0
        } else {
            (wire_rejects + local_sheds) as f64 / offered as f64
        },
        // The loopback wire has no modelled RTT: live rejects burn
        // scheduling work but zero wire time by construction.
        wasted_wire_us: 0.0,
        ..PointMetrics::default()
    })
}

/// Convenience: `(x, y)` pairs for printing a metric of a series.
pub fn xy(
    points: &[PointMetrics],
    x: impl Fn(&PointMetrics) -> f64,
    y: impl Fn(&PointMetrics) -> f64,
) -> Vec<(f64, f64)> {
    points.iter().map(|p| (x(p), y(p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Case;
    use zygos_sim::dist::ServiceDist;
    use zygos_sysim::run_system;

    fn tiny() -> Scenario {
        Scenario::builder("tiny")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(16)
            .loads(vec![0.3])
            .requests(4_000, 1_000)
            .smoke(1_500, 300)
            .case(Case::sim("zygos", SimHost::Zygos))
            .build()
            .expect("valid")
    }

    #[test]
    fn fanned_fleet_reports_every_quantile_at_the_user_level() {
        // A user request of a fanout-M fleet completes at the slowest of M
        // sub-requests, so p50, p99 and p99.9 all read the merged
        // sub-request histogram at q^(1/M).
        let sc = Scenario::builder("fan")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(64)
            .loads(vec![0.6])
            .smoke(2_000, 400)
            .fleet(crate::spec::FleetSpec { shards: 4 })
            .case(Case::fleet("m4", SimHost::Zygos).fanout(4))
            .build()
            .expect("valid");
        let case = &sc.cases[0];
        let out = run_fleet(&fleet_config_for(&sc, case, 0.6, true).expect("a fleet case"));
        let m = fleet_metrics(0.6, out.clone(), case);
        let at = |q: f64| out.latency.quantile_us(q.powf(1.0 / 4.0));
        assert_eq!(m.p50_us.to_bits(), at(0.5).to_bits());
        assert_eq!(m.p99_us.to_bits(), at(0.99).to_bits());
        assert_eq!(m.p999_us.to_bits(), at(0.999).to_bits());
        assert!(m.p50_us > out.latency.p50_us(), "{} user p50", m.p50_us);
    }

    #[test]
    fn sim_case_produces_schema_metrics() {
        let sc = tiny();
        let report = run_scenario(&sc, true).expect("runs");
        assert_eq!(report.series.len(), 1);
        let p = &report.series[0].points[0];
        assert_eq!(p.load, 0.3);
        assert!(
            p.p99_us > 40.0,
            "exp(10) p99 ≈ 46µs + overheads: {}",
            p.p99_us
        );
        assert!(p.mrps > 0.0);
        assert!(report.series[0].deterministic);
    }

    #[test]
    fn sim_runs_are_reproducible() {
        let sc = tiny();
        let a = run_scenario(&sc, true).expect("runs");
        let b = run_scenario(&sc, true).expect("runs");
        assert_eq!(a, b, "same scenario, same seed, same report");
    }

    #[test]
    fn parallel_report_matches_sequential() {
        // Deterministic work is a pure function of (config, seed): the
        // parallel fan-out must emit byte-identical report JSON even
        // though warm-start chains couple consecutive grid points and
        // [search] jobs interleave with them.
        use crate::spec::{FleetSpec, SearchSpec};
        let sc = Scenario::builder("par")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(16)
            .loads(vec![0.2, 0.5, 0.8])
            .requests(4_000, 1_000)
            .smoke(1_200, 240)
            .case(Case::sim("zygos", SimHost::Zygos))
            .case(Case::sim("ix", crate::spec::SimHost::Ix))
            .case(Case::model("mg4", zygos_sim::queueing::Policy::CentralFcfs))
            .fleet(FleetSpec { shards: 3 })
            .case(Case::fleet("fleet-ch", SimHost::Zygos))
            .case(
                Case::fleet("fleet-po2c-degraded", SimHost::Zygos)
                    .routing(RoutePolicy::PowerOfTwoChoices)
                    .degraded(vec![(1, 2.0)]),
            )
            .search(SearchSpec {
                bound_us: 120.0,
                resolution: 8,
                ..SearchSpec::default()
            })
            .build()
            .expect("valid");
        let seq = run_scenario_threads(&sc, true, 1).expect("runs");
        let par = run_scenario_threads(&sc, true, 4).expect("runs");
        assert_eq!(seq.to_json(), par.to_json(), "byte-identical JSON");
    }

    #[test]
    fn search_populates_the_report() {
        use crate::spec::SearchSpec;
        let sc = Scenario::builder("st")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(16)
            .loads(vec![0.3, 0.6])
            .requests(4_000, 1_000)
            .smoke(1_500, 300)
            .case(Case::sim("zygos", SimHost::Zygos))
            .case(Case::sim("ix", crate::spec::SimHost::Ix))
            .search(SearchSpec {
                quantile: 0.99,
                bound_us: 100.0,
                resolution: 8,
            })
            .build()
            .expect("valid");
        let a = run_scenario(&sc, true).expect("runs");
        let b = run_scenario(&sc, true).expect("runs");
        assert_eq!(a, b, "search results are deterministic");
        let zygos = a.series("zygos").expect("series");
        let ix = a.series("ix").expect("series");
        // Every deterministic case carries a search result; warm-start
        // prefix reuse leaves exactly one cold probe on either host.
        for s in [zygos, ix] {
            let r = s.search.as_ref().expect("sim cases search");
            assert!(r.max_load > 0.0 && r.max_load < 1.0, "{r:?}");
            assert_eq!(r.cold_probes, 1, "{}: {r:?}", s.label);
            assert!(r.probes > r.cold_probes, "{}: {r:?}", s.label);
        }
        // A one-case scenario reproduces the full-report series exactly.
        let one = Scenario {
            cases: vec![sc.case("zygos").expect("case").clone()],
            ..sc.clone()
        };
        let direct = run_scenario(&one, true).expect("runs");
        assert_eq!(&direct.series[0], zygos);
    }

    #[test]
    fn a_search_only_scenario_reports_its_search_and_no_points() {
        use crate::spec::SearchSpec;
        let sc = Scenario::builder("search-only")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(16)
            .requests(4_000, 1_000)
            .smoke(1_500, 300)
            .case(Case::sim("zygos", SimHost::Zygos))
            .case(Case::model("bound", Policy::CentralFcfs))
            .search(SearchSpec {
                quantile: 0.99,
                bound_us: 100.0,
                resolution: 8,
            })
            .build()
            .expect("a [search] needs no grid");
        let report = run_scenario(&sc, true).expect("runs");
        assert_eq!(report.series.len(), 2);
        for series in &report.series {
            assert!(
                series.points.is_empty(),
                "{}: no grid, no points",
                series.label
            );
            let search = series.search.as_ref().expect("searched");
            assert!(search.max_load > 0.0 && search.probes > 0, "{search:?}");
        }
        assert_eq!(
            Report::from_json(&report.to_json()).expect("parses"),
            report
        );
    }

    #[test]
    fn warm_chains_are_a_pure_function_of_the_grid() {
        // Ascending spans chain; descents, repeats and beyond-cap loads
        // break them.
        assert_eq!(
            warm_chains(&[0.2, 0.5, 0.8]),
            vec![vec![0, 1, 2]],
            "ascending grid is one chain"
        );
        assert_eq!(
            warm_chains(&[0.5, 0.3, 0.6]),
            vec![vec![0], vec![1, 2]],
            "a descent starts a new chain"
        );
        assert_eq!(
            warm_chains(&[0.9, 1.2, 1.4]),
            vec![vec![0], vec![1], vec![2]],
            "beyond WARM_MAX_LOAD every point is cold"
        );
        assert_eq!(warm_chains(&[]), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn model_case_runs_below_saturation() {
        let sc = Scenario::builder("model")
            .service(ServiceDist::exponential_us(1.0))
            .cores(16)
            .conns(16)
            .loads(vec![0.5])
            .requests(5_000, 1_000)
            .smoke(2_000, 400)
            .case(Case::model(
                "M/G/16/FCFS",
                zygos_sim::queueing::Policy::CentralFcfs,
            ))
            .build()
            .expect("valid");
        let report = run_scenario(&sc, true).expect("runs");
        let p = &report.series[0].points[0];
        assert!(p.p99_us > 4.0, "exp p99 ≥ 4.6·S̄: {}", p.p99_us);
        assert_eq!(p.steal_fraction, 0.0, "models have no stealing");
    }

    #[test]
    fn live_case_round_trips_the_same_schema() {
        let sc = Scenario::builder("live")
            .service(ServiceDist::deterministic_us(200.0))
            .cores(2)
            .conns(8)
            .loads(vec![0.2])
            .requests(400, 50)
            .smoke(200, 25)
            .case(Case::live("zygos", LiveHost::Zygos))
            .build()
            .expect("valid");
        let report = run_scenario(&sc, true).expect("runs");
        let s = &report.series[0];
        assert!(!s.deterministic);
        let p = &s.points[0];
        assert!(
            p.p99_us >= 200.0,
            "latency at least the service time: {}",
            p.p99_us
        );
        assert!(p.shed_fraction == 0.0, "no gate, no sheds");
    }

    #[test]
    fn telemetry_decomposes_the_tail_and_carries_series() {
        use crate::spec::TelemetrySpec;
        use zygos_sysim::SeriesKind;
        let gated = |host| {
            Case::sim(HostSpec::Sim(host).id(), host)
                .admission(AdmissionMode::ServerEdge)
                .credit_target_us(70.0)
        };
        let sc = Scenario::builder("telem")
            .service(ServiceDist::exponential_us(10.0))
            .cores(4)
            .conns(64)
            .loads(vec![1.3])
            .requests(6_000, 1_200)
            .smoke(3_000, 600)
            .case(gated(SimHost::Zygos))
            .case(gated(SimHost::LinuxFloating))
            .case(gated(SimHost::Ix))
            .telemetry(TelemetrySpec {
                series: vec![SeriesKind::AdmittedRate, SeriesKind::CreditCapacity],
                ..TelemetrySpec::default()
            })
            .build()
            .expect("valid");
        let report = run_scenario(&sc, true).expect("runs");
        // Every host traces. The decomposition is an exact partition of
        // the tail sojourn: components sum to the measured p99 within
        // bucket precision.
        for s in &report.series {
            let p = &s.points[0];
            let sum = p.p99_queue_us + p.p99_service_us + p.p99_steal_us + p.p99_preempt_us;
            assert!(
                (sum - p.p99_us).abs() <= 0.01 * p.p99_us,
                "{}: decomposition {sum:.2} vs p99 {:.2}",
                s.label,
                p.p99_us
            );
            assert!(
                p.p99_queue_us > 0.0 && p.p99_service_us > 0.0,
                "{}",
                s.label
            );
        }
        // Every host's client edge harvests the series.
        for s in &report.series {
            for want in ["admitted_rate", "credit_capacity"] {
                assert!(
                    s.points[0]
                        .timeseries
                        .iter()
                        .any(|t| t.name == want && !t.points.is_empty()),
                    "series {want} missing from {}",
                    s.label
                );
            }
        }
        assert_eq!(
            crate::check::check_telemetry(&sc, &report),
            Vec::<String>::new()
        );
    }

    #[test]
    fn settles_claims_read_any_simulated_host() {
        use crate::spec::{Claim, Op};
        // Every `sim:` world harvests control-tick series behind its client
        // edge, so a settles claim may name IX.
        let text = "name = \"ix-settles\"\n[workload]\nservice = \"exponential\"\nmean_us = 10.0\n\
                    cores = 4\nconns = 64\nloads = [0.8]\n[scale]\nrequests = 12_000\nwarmup = 2_000\n\
                    smoke_requests = 12_000\nsmoke_warmup = 2_000\n\
                    [faults]\nburst = [8_000.0, 4_000.0, 2.0]\n\
                    [telemetry]\ntrace = false\nseries = [\"admitted_rate\"]\nseries_every = 8\n\
                    [[case]]\nlabel = \"ix\"\nhost = \"sim:ix\"\nadmission = true\n\
                    credit_target_us = 70.0\n\
                    [[claim]]\nseries = \"admitted_rate\"\ncase = \"ix\"\nsettle_windows = 4\n\
                    op = \">=\"\nvalue = 0.5\n";
        let mut sc = crate::fromtoml::scenario_from_toml(text).expect("builds");
        let report = run_scenario(&sc, true).expect("runs");
        assert_eq!(
            crate::check::check_claims(&sc, &report),
            Vec::<String>::new()
        );
        // Evaluated, not skipped: the negated claim fails on the same run.
        let Claim::Settles(s) = &mut sc.claims[0] else {
            unreachable!("one settles claim")
        };
        s.op = Op::Lt;
        let errs = crate::check::check_claims(&sc, &report);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("admitted_rate mean past"), "{errs:?}");
    }

    #[test]
    fn tracing_leaves_base_report_metrics_bit_identical() {
        use crate::spec::TelemetrySpec;
        use zygos_sysim::{CoreLayout, StagedConfig};
        // The same scenario with and without the tracer, on every server
        // model: every base metric must match bit-for-bit (tracing only
        // observes), and each traced run additionally decomposes its p99.
        let stages = StagedConfig::paper_pipeline(&zygos_net::cost::CostModel::zygos()).stages;
        let hosts = |telemetry: Option<TelemetrySpec>| {
            let mut sc = Scenario::builder("hosts")
                .service(ServiceDist::exponential_us(10.0))
                .cores(4)
                .conns(16)
                .loads(vec![0.3])
                .smoke(1_500, 300)
                .stages(stages.clone())
                .case(Case::sim("zygos", SimHost::Zygos))
                .case(Case::sim("ix", SimHost::Ix))
                .case(Case::sim("linux", SimHost::LinuxPartitioned))
                .case(
                    Case::sim("staged", SimHost::Staged)
                        .layout(CoreLayout::SplitNet { net_cores: 1 }),
                )
                .build()
                .expect("valid");
            sc.telemetry = telemetry;
            sc
        };
        let a = run_scenario(&hosts(None), true).expect("runs");
        // Trace, no series.
        let b = run_scenario(&hosts(Some(TelemetrySpec::default())), true).expect("runs");
        for (sa, sb) in a.series.iter().zip(&b.series) {
            let (pa, pb) = (&sa.points[0], &sb.points[0]);
            for (x, y, name) in [
                (pa.mrps, pb.mrps, "mrps"),
                (pa.p50_us, pb.p50_us, "p50"),
                (pa.p99_us, pb.p99_us, "p99"),
                (pa.p999_us, pb.p999_us, "p999"),
                (pa.steal_fraction, pb.steal_fraction, "steal"),
                (pa.avg_cores, pb.avg_cores, "cores"),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{}: {name} perturbed", sa.label);
            }
            assert_eq!(pa.p99_queue_us, 0.0, "{}: untraced decomposes", sa.label);
            let sum = pb.p99_queue_us + pb.p99_service_us + pb.p99_steal_us + pb.p99_preempt_us;
            assert!(
                pb.p99_service_us > 0.0 && (sum - pb.p99_us).abs() <= 0.01 * pb.p99_us,
                "{}: decomposition {sum:.2} vs p99 {:.2}",
                sa.label,
                pb.p99_us
            );
        }
    }

    #[test]
    fn every_simulated_reader_of_a_model_knob_is_moved_by_it() {
        use crate::spec::CASE_KNOBS;
        use zygos_sysim::StagedConfig;
        // CASE_KNOBS names the hosts that read each knob the lowering
        // copies into the model's config. On every `sim:` host it names,
        // one tiny run with the knob off its default must move p99 or the
        // event count: a knob a model never reads would leave both alone.
        // `min_cores` runs at a load where the elastic host parks cores.
        type Setter = fn(Case) -> Case;
        let knobs: [(&str, f64, Setter); 5] = [
            ("min_cores", 0.3, |c| c.min_cores(4)),
            ("rx_batch", 0.5, |c| c.rx_batch(2)),
            ("randomize_steal_order", 0.5, Case::sequential_steal),
            ("ipi_delivery_ns", 0.5, |c| c.ipi_delivery_ns(20_000)),
            ("steal_extra_ns", 0.5, |c| c.steal_extra_ns(8_000)),
        ];
        let stages = StagedConfig::zygos_equivalent().stages;
        let run = |case: Case, load: f64| {
            let mut b = Scenario::builder("knob")
                .service(ServiceDist::exponential_us(10.0))
                .cores(4)
                .conns(64)
                .loads(vec![load])
                .requests(4_000, 500);
            if case.host == HostSpec::Sim(SimHost::Staged) {
                b = b.stages(stages.clone());
            }
            let sc = b.case(case).build().expect("valid");
            let out = run_system(&sys_config_for(&sc, &sc.cases[0], load, false).expect("sim"));
            (out.latency.p99_us(), out.events)
        };
        for (key, load, set) in knobs {
            let &(_, reads, _) = CASE_KNOBS.iter().find(|k| k.0 == key).expect("a knob");
            let mut readers = 0;
            for host in HostSpec::all().filter(|&h| reads(h)) {
                let HostSpec::Sim(sim) = host else { continue };
                let base = run(Case::sim("c", sim), load);
                let moved = run(set(Case::sim("c", sim)), load);
                assert_ne!(moved, base, "{key} leaves {} unmoved", host.id());
                readers += 1;
            }
            assert!(readers > 0, "{key} has a simulated reader");
        }
    }

    #[test]
    fn max_load_search_is_monotone_sane() {
        let sc = Scenario {
            search: Some(SearchSpec {
                quantile: 0.99,
                bound_us: 100.0,
                resolution: 8,
            }),
            ..tiny()
        };
        let report = run_scenario(&sc, true).expect("runs");
        let l = report.series[0].search.as_ref().expect("searched").max_load;
        assert!((0.25..1.0).contains(&l), "load@SLO = {l}");
    }
}
