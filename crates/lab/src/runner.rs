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
//! * [`max_load_at_slo`] runs the paper's "maximum load @ SLO" search
//!   over one case (simulator and model hosts).
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
use zygos_runtime::{ClientPort, RuntimeConfig, SchedulerKind, Server};
use zygos_sched::CreditConfig;
use zygos_sim::queueing::{self, QueueConfig};
use zygos_sim::rng::Xoshiro256;
use zygos_sim::stats::LatencyHistogram;
use zygos_sysim::{
    max_load_at_quantile_slo_counting, run_fleet, run_restart, run_system, run_system_chain,
    warmable, AdmissionMode, AdmissionTopology, FleetConfig, FleetOutput, RoutePolicy, SysConfig,
    SysOutput, SystemKind, TailConfig, WARM_MAX_LOAD,
};
use zygos_telemetry::{decompose, decomposition_at_quantile, TelemetryConfig};

use crate::report::{
    PointMetrics, Report, SearchResult, Series, TailResult, TraceSeries, SCHEMA_VERSION,
};
use zygos_load::source::{ArrivalSpec, Phase};

use crate::spec::{
    AdmissionSpec, Case, FaultsSpec, HostSpec, LiveHost, Readers, Scenario, SimHost, SpecError,
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
    /// The case's `[tail]` importance-splitting run.
    Tail { ci: usize },
}

enum JobOut {
    Points(Vec<PointMetrics>),
    Search(SearchResult),
    Tail(TailResult),
}

fn run_job(sc: &Scenario, job: &Job, loads: &[f64], smoke: bool) -> Result<JobOut, SpecError> {
    match job {
        Job::Chain { ci, lis } => {
            let chain: Vec<f64> = lis.iter().map(|&li| loads[li]).collect();
            run_chain(sc, &sc.cases[*ci], &chain, smoke).map(JobOut::Points)
        }
        Job::Search { ci } => run_search(sc, &sc.cases[*ci], smoke).map(JobOut::Search),
        Job::Tail { ci } => run_tail(sc, &sc.cases[*ci], smoke).map(JobOut::Tail),
    }
}

/// The deterministic job list: one [`Job::Chain`] per warm-start chain
/// (per grid point for hosts that cannot warm), plus the case's
/// `[search]` and `[tail]` work.
fn jobs_for(sc: &Scenario, loads: &[f64], smoke: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (ci, case) in sc.cases.iter().enumerate() {
        if matches!(case.host, HostSpec::Live(_)) {
            continue;
        }
        if case_is_warmable(sc, case, loads, smoke) {
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
        if sc.tail.is_some() && Readers::ZygosSim.reads(case.host) {
            jobs.push(Job::Tail { ci });
        }
    }
    jobs
}

/// Whether a case's lowered config can warm-start from a checkpoint
/// (ZygOS-family simulator, no tracing armed — see
/// `zygos_sysim::warmable` and `docs/TAIL.md`).
fn case_is_warmable(sc: &Scenario, case: &Case, loads: &[f64], smoke: bool) -> bool {
    matches!(case.host, HostSpec::Sim(_))
        && !loads.is_empty()
        && sys_config_for(sc, case, loads[0], smoke).is_ok_and(|cfg| warmable(&cfg))
}

/// Splits a load grid into maximal strictly-ascending runs at or below
/// [`WARM_MAX_LOAD`] — exactly the spans `run_system_chain` will
/// warm-start end to end. A pure function of the grid, so parallel
/// workers and a sequential run carve up identical chains.
fn warm_chains(loads: &[f64]) -> Vec<Vec<usize>> {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for i in 0..loads.len() {
        let chainable = i > 0
            && loads[i - 1] < loads[i]
            && loads[i - 1] <= WARM_MAX_LOAD
            && loads[i] <= WARM_MAX_LOAD;
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
    let jobs = jobs_for(sc, &loads, smoke);
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
    let mut tails: Vec<Option<TailResult>> = vec![None; sc.cases.len()];
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
            (Job::Tail { ci }, JobOut::Tail(t)) => tails[*ci] = Some(t),
            _ => unreachable!("job and result kinds always agree"),
        }
    }
    let mut series = Vec::with_capacity(sc.cases.len());
    for (ci, case) in sc.cases.iter().enumerate() {
        if matches!(case.host, HostSpec::Live(_)) {
            series.push(run_case(sc, case, smoke)?);
        } else {
            series.push(Series {
                label: case.label.clone(),
                host: case.host.id(),
                deterministic: true,
                points: by_case[ci]
                    .iter_mut()
                    .map(|p| p.take().expect("deterministic point computed"))
                    .collect(),
                search: searches[ci].take(),
                tail: tails[ci].take(),
            });
        }
    }
    Ok(Report {
        schema: SCHEMA_VERSION,
        scenario: sc.name.clone(),
        smoke,
        series,
    })
}

/// Runs one case over the load grid. A deterministic case runs as the
/// one-case scenario through the same job list as [`run_scenario`], so it
/// reproduces its series in the full report exactly.
pub fn run_case(sc: &Scenario, case: &Case, smoke: bool) -> Result<Series, SpecError> {
    if !matches!(case.host, HostSpec::Live(_)) {
        let one = Scenario {
            cases: vec![case.clone()],
            ..sc.clone()
        };
        let mut report = run_scenario_threads(&one, smoke, 1)?;
        return Ok(report.series.pop().expect("one case, one series"));
    }
    let points = sc
        .loads(smoke)
        .iter()
        .map(|&load| run_point(sc, case, load, smoke));
    Ok(Series {
        label: case.label.clone(),
        host: case.host.id(),
        deterministic: false,
        points: points.collect::<Result<_, _>>()?,
        search: None,
        tail: None,
    })
}

/// Runs one case over consecutive grid loads as a warm-start chain
/// (simulator hosts; model points are independent anyway). The first
/// point of a chain is bit-identical to a cold run, so splitting a grid
/// into chains never changes which numbers are possible — only how much
/// warmup is re-simulated.
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
        _ => chain
            .iter()
            .map(|&load| run_point(sc, case, load, smoke))
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
        HostSpec::Model(policy) => {
            let (requests, warmup) = sc.scale.window(smoke);
            let mut probes = 0u32;
            let max_load = queueing::max_load_at_slo(
                |load| {
                    probes += 1;
                    queueing::simulate(&QueueConfig {
                        servers: sc.workload.cores,
                        load,
                        service: sc.workload.service.clone(),
                        policy,
                        requests,
                        seed: sc.scale.seed,
                        warmup,
                    })
                    .latency
                    .quantile_us(sp.quantile)
                },
                sp.bound_us,
                sp.resolution,
            );
            (max_load, probes, probes)
        }
        HostSpec::Fleet(_) => {
            // The bisection overwrites the fleet-level load knob per
            // probe; everything else in the lowering is load-independent.
            let base = fleet_config_for(sc, case, 0.5, smoke)?;
            let mut probes = 0u32;
            let max_load = queueing::max_load_at_slo(
                |load| {
                    probes += 1;
                    let mut fc = base.clone();
                    fc.base.load = load;
                    run_fleet(&fc).latency.quantile_us(sp.quantile)
                },
                sp.bound_us,
                sp.resolution,
            );
            (max_load, probes, probes)
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

/// Runs the `[tail]` block for one ZygOS-family simulator case: RESTART
/// importance splitting next to the brute-force estimate from the same
/// master trajectory. The splitting engine owns the clone trajectories
/// and per-event tracing cannot splice across clones, so tail runs
/// always go untraced.
fn run_tail(sc: &Scenario, case: &Case, smoke: bool) -> Result<TailResult, SpecError> {
    let tp = sc
        .tail
        .as_ref()
        .ok_or_else(|| SpecError::new("run_tail needs a [tail] block"))?;
    let mut cfg = sys_config_for(sc, case, tp.load, smoke)?;
    cfg.telemetry = None;
    let (_, t) = run_restart(
        &cfg,
        &TailConfig {
            quantile: tp.quantile,
            levels: tp.levels.clone(),
            splits: tp.splits,
            check_every: tp.check_every,
            clone_budget: tp.clone_budget,
        },
    );
    Ok(TailResult {
        load: tp.load,
        quantile: t.quantile,
        value_us: t.value_us,
        brute_value_us: t.brute_value_us,
        samples: t.samples as u64,
        total_weight: t.total_weight,
        clones: t.clones,
        truncated: t.truncated,
        master_events: t.master_events,
        clone_events: t.clone_events,
        max_backlog: t.max_backlog as u64,
    })
}

/// Runs one case at one load.
pub fn run_point(
    sc: &Scenario,
    case: &Case,
    load: f64,
    smoke: bool,
) -> Result<PointMetrics, SpecError> {
    match case.host {
        HostSpec::Sim(_) => {
            let cfg = sys_config_for(sc, case, load, smoke)?;
            Ok(sim_metrics(load, run_system(&cfg), case))
        }
        HostSpec::Model(policy) => {
            let (requests, warmup) = sc.scale.window(smoke);
            let out = queueing::simulate(&QueueConfig {
                servers: sc.workload.cores,
                load,
                service: sc.workload.service.clone(),
                policy,
                requests,
                seed: sc.scale.seed,
                warmup,
            });
            Ok(PointMetrics {
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
            })
        }
        HostSpec::Fleet(_) => {
            let fc = fleet_config_for(sc, case, load, smoke)?;
            Ok(fleet_metrics(load, run_fleet(&fc), case))
        }
        HostSpec::Live(_) => run_live_point(sc, case, load, smoke),
    }
}

/// The paper's "maximum load @ SLO" metric over one case (simulator or
/// model hosts; a wall-clock host cannot binary-search loads honestly).
pub fn max_load_at_slo(
    sc: &Scenario,
    case_label: &str,
    slo_us: f64,
    resolution: usize,
    smoke: bool,
) -> Result<f64, SpecError> {
    let case = sc
        .case(case_label)
        .ok_or_else(|| SpecError::new(format!("no case labelled {case_label:?}")))?;
    match case.host {
        HostSpec::Live(_) => Err(SpecError::new(
            "max_load_at_slo needs a deterministic host (sim or model)",
        )),
        _ => Ok(queueing::max_load_at_slo(
            |load| {
                run_point(sc, case, load, smoke)
                    .map(|p| p.p99_us)
                    .unwrap_or(f64::INFINITY)
            },
            slo_us,
            resolution,
        )),
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
    let mut cfg = lower_sim(sc, case, host, load, smoke);
    // Every world's client edge harvests series; only the ZygOS models
    // carry the lifecycle trace points.
    cfg.telemetry = telemetry_for(sc, Readers::ZygosSim.reads(case.host));
    Ok(cfg)
}

/// The scenario's `[telemetry]` block lowered for one world, with the
/// lifecycle trace kept only where `traced`; `None` when that leaves
/// nothing to record.
fn telemetry_for(sc: &Scenario, traced: bool) -> Option<TelemetryConfig> {
    let mut tc = sc.telemetry.as_ref()?.to_config();
    tc.trace &= traced;
    (!tc.is_off()).then_some(tc)
}

/// The shared sim-world lowering behind [`sys_config_for`] and
/// [`fleet_config_for`]: everything except telemetry (whose rules differ
/// between a single traced world and a series-only fleet shard).
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
    if let Some(k) = p.alloc {
        cfg.elastic.alloc = k;
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
    if let Some(j) = p.retry_jitter {
        cfg.retry_jitter = j;
    }
    cfg.retry_timeout_us = p.retry_timeout_us;
    if let Some(fl) = &sc.faults {
        apply_faults(&mut cfg, fl);
    }
    cfg
}

/// Lowers the scenario's `[faults]` block onto one sim world: burst and
/// churn re-plan the arrival process as phased Poisson, slow clients
/// inflate the service distribution mean-field. The shard `slowdown`
/// lowers in [`fleet_config_for`] instead — it needs the fleet topology.
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
    if let Some((interval_us, spike_us, factor)) = fl.churn {
        // Churn is the cyclic twin: a reconnect stampede every interval.
        cfg.arrivals = ArrivalSpec::Phased(vec![
            Phase {
                duration_us: interval_us,
                rate_factor: 1.0,
            },
            Phase {
                duration_us: spike_us,
                rate_factor: factor,
            },
        ]);
    }
    if let Some((fraction, stall_us)) = fl.slow_clients {
        // Mean-field lowering: a `fraction` of responses stalling the
        // drain path for `stall_us` inflates expected per-request service
        // by `fraction × stall`; scaled() keeps the shape (cv²) so only
        // the mean moves.
        let mean = cfg.service.mean_us();
        cfg.service = cfg.service.scaled((mean + fraction * stall_us) / mean);
    }
}

/// Lowers a fleet case at one load to a `FleetConfig` — the single
/// construction point for fleet experiments. The base world is lowered
/// exactly like a `sim:*` case (`lower_sim`); only the credit-pool
/// sizing and the telemetry rules differ:
///
/// * With [`AdmissionTopology::FleetWide`] the derived pool is sized for
///   the whole fleet (`shards × cores`) and split across shards by the
///   engine; per-shard topology sizes it for one shard's cores, same as
///   a single world. An explicit `credits` override always passes
///   through verbatim — it *is* the pool at whichever scope the topology
///   names.
/// * Fleet worlds harvest time-series only (shard-namespaced by the
///   engine); lifecycle tracing is forced off because correlation keys
///   collide across shards.
pub fn fleet_config_for(
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
    let mut base = lower_sim(sc, case, host, load, smoke);
    let topology = p.fleet_admission.unwrap_or(AdmissionTopology::PerShard);
    if let Some(a) = &p.admission {
        let pool_cores = match topology {
            AdmissionTopology::FleetWide => sc.workload.cores * f.shards,
            AdmissionTopology::PerShard => sc.workload.cores,
        };
        base.admission = Some(credit_config_for(a, pool_cores));
    }
    base.telemetry = telemetry_for(sc, false);
    let mut fc = FleetConfig::new(
        base,
        f.shards,
        p.routing.unwrap_or(RoutePolicy::ConsistentHash),
    );
    fc.admission = topology;
    fc.degraded = p.degraded.clone().unwrap_or_default();
    fc.loss = p.loss;
    fc.fanout = p.fanout.unwrap_or(1);
    // The [faults] shard slowdown composes with the case's own degraded
    // list: factors multiply on an already-degraded shard.
    if let Some((shard, factor)) = sc.faults.as_ref().and_then(|fl| fl.slowdown) {
        match fc.degraded.iter_mut().find(|d| d.0 == shard) {
            Some(d) => d.1 *= factor,
            None => fc.degraded.push((shard, factor)),
        }
    }
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
    let scheduler = match host {
        LiveHost::Zygos => SchedulerKind::Zygos { steal: true },
        LiveHost::Partitioned => SchedulerKind::Zygos { steal: false },
        LiveHost::Floating => SchedulerKind::Floating,
        LiveHost::Elastic => SchedulerKind::Elastic {
            steal: true,
            quantum_events: p.quantum_events.unwrap_or(64),
        },
    };
    let mut cfg = RuntimeConfig::zygos(sc.workload.cores, sc.workload.conns);
    cfg.scheduler = scheduler;
    cfg.slo = p.slo.clone();
    if let Some(a) = &p.admission {
        cfg.admission = Some(credit_config_for(a, sc.workload.cores));
        if a.mode == AdmissionMode::ClientSide {
            cfg.client_credits = true;
        }
        if a.overcommit {
            cfg.client_credits = true;
            cfg.credit_overcommit = true;
        }
    }
    Ok(cfg)
}

/// The credit pool a case runs: an explicit override, or
/// `CreditConfig::for_cores` at the case's target. With SLO classes
/// configured the AIMD runs in ratio space and the µs target is
/// irrelevant (any positive value); 1.0 is used then.
fn credit_config_for(a: &AdmissionSpec, cores: usize) -> CreditConfig {
    a.credits
        .unwrap_or_else(|| CreditConfig::for_cores(cores, a.target_us.unwrap_or(1.0)))
}

/// Reduces a simulator run to the unified schema.
fn sim_metrics(load: f64, out: SysOutput, case: &Case) -> PointMetrics {
    let classes = classes_of(case);
    let per_class = |f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        if classes >= 2 {
            (0..classes).map(f).collect()
        } else {
            Vec::new()
        }
    };
    let (p99_queue_us, p99_service_us, p99_steal_us, p99_preempt_us) = out
        .telemetry
        .as_ref()
        .and_then(|t| {
            let mut decomps = decompose(&t.events);
            decomposition_at_quantile(&mut decomps, 0.99).map(|d| d.as_us())
        })
        .unwrap_or_default();
    let timeseries = out
        .telemetry
        .as_ref()
        .map(|t| {
            t.series
                .iter()
                .map(|s| TraceSeries {
                    name: s.name.clone(),
                    points: s.points.clone(),
                })
                .collect()
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
        timeseries,
    }
}

/// Reduces a fleet run to the unified schema. Every reduction is the
/// Σ-across-shards form of the matching [`sim_metrics`] formula, so for a
/// single shard each collapses to the identical floating-point operations
/// — that is what keeps the N=1 pass-through fleet **bit-identical** to
/// its `sim:*` base case (pinned by `tests/fleet_differential.rs`).
fn fleet_metrics(load: f64, out: FleetOutput, case: &Case) -> PointMetrics {
    let classes = classes_of(case);
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
    let per_class = |f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        if classes >= 2 {
            (0..classes).map(f).collect()
        } else {
            Vec::new()
        }
    };
    let timeseries = out
        .telemetry
        .as_ref()
        .map(|t| {
            t.series
                .iter()
                .map(|s| TraceSeries {
                    name: s.name.clone(),
                    points: s.points.clone(),
                })
                .collect()
        })
        .unwrap_or_default();
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
        p50_us: out.latency.p50_us(),
        p99_us: out.p99_us(),
        p999_us: out.latency.quantile_us(0.999),
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
        // Fleet worlds never trace, so the p99 decomposition stays zero —
        // same as an untraced sim case. Staged hosts cannot shard, so
        // the per-stage waits stay empty too.
        p99_queue_us: 0.0,
        p99_service_us: 0.0,
        p99_steal_us: 0.0,
        p99_preempt_us: 0.0,
        stage_p99_wait_us: Vec::new(),
        timeseries,
    }
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
        // [search]/[tail] jobs interleave with them.
        use crate::spec::{FleetSpec, SearchSpec, TailSpec};
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
            .tail(TailSpec {
                load: 0.8,
                quantile: 0.99,
                levels: vec![8, 16],
                ..TailSpec::default()
            })
            .build()
            .expect("valid");
        let seq = run_scenario_threads(&sc, true, 1).expect("runs");
        let par = run_scenario_threads(&sc, true, 4).expect("runs");
        assert_eq!(seq.to_json(), par.to_json(), "byte-identical JSON");
    }

    #[test]
    fn search_and_tail_populate_the_report() {
        use crate::spec::{SearchSpec, TailSpec};
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
            .tail(TailSpec {
                load: 0.7,
                quantile: 0.99,
                levels: vec![8, 16],
                ..TailSpec::default()
            })
            .build()
            .expect("valid");
        let a = run_scenario(&sc, true).expect("runs");
        let b = run_scenario(&sc, true).expect("runs");
        assert_eq!(a, b, "search and tail results are deterministic");
        let zygos = a.series("zygos").expect("series");
        let ix = a.series("ix").expect("series");
        // Every deterministic case carries a search result; warm-start
        // prefix reuse leaves exactly one cold probe on the ZygOS case.
        let zs = zygos.search.as_ref().expect("zygos searches");
        assert!(zs.max_load > 0.0 && zs.max_load < 1.0, "{zs:?}");
        assert_eq!(zs.cold_probes, 1, "{zs:?}");
        assert!(zs.probes > zs.cold_probes, "{zs:?}");
        let ixs = ix.search.as_ref().expect("ix searches");
        assert_eq!(ixs.cold_probes, ixs.probes, "IX cannot warm-start");
        // [tail] runs only on the ZygOS-family case, and its brute
        // estimate comes from the same master trajectory.
        let zt = zygos.tail.as_ref().expect("zygos has a tail result");
        assert!(
            ix.tail.is_none(),
            "IX hosts cannot run the splitting engine"
        );
        assert!(zt.value_us > 0.0 && zt.brute_value_us > 0.0, "{zt:?}");
        assert!(zt.samples > 0 && zt.total_weight > 0.0, "{zt:?}");
        // run_case reproduces the full-report series exactly.
        let direct = run_case(&sc, sc.case("zygos").expect("case"), true).expect("runs");
        assert_eq!(&direct, zygos);
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
        let p = &report.series[0].points[0];
        // The decomposition is an exact partition of the tail sojourn:
        // components sum to the measured p99 within bucket precision.
        let sum = p.p99_queue_us + p.p99_service_us + p.p99_steal_us + p.p99_preempt_us;
        assert!(
            (sum - p.p99_us).abs() <= 0.01 * p.p99_us,
            "decomposition {sum:.2} vs p99 {:.2}",
            p.p99_us
        );
        assert!(p.p99_queue_us > 0.0 && p.p99_service_us > 0.0);
        // Every host's client edge harvests the series; only ZygOS traces.
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
        assert_eq!(report.series[1].points[0].p99_queue_us, 0.0, "Linux traces");
        assert_eq!(
            crate::check::check_telemetry(&sc, &report),
            Vec::<String>::new()
        );
    }

    #[test]
    fn tracing_leaves_base_report_metrics_bit_identical() {
        use crate::spec::TelemetrySpec;
        // The same scenario with and without the tracer: every base
        // metric must match bit-for-bit (tracing only observes), and the
        // traced run additionally carries the decomposition.
        let plain = tiny();
        let mut traced = tiny();
        traced.telemetry = Some(TelemetrySpec::default()); // trace, no series
        let a = run_scenario(&plain, true).expect("runs");
        let b = run_scenario(&traced, true).expect("runs");
        let (pa, pb) = (&a.series[0].points[0], &b.series[0].points[0]);
        for (x, y, name) in [
            (pa.mrps, pb.mrps, "mrps"),
            (pa.p50_us, pb.p50_us, "p50"),
            (pa.p99_us, pb.p99_us, "p99"),
            (pa.p999_us, pb.p999_us, "p999"),
            (pa.steal_fraction, pb.steal_fraction, "steal"),
            (pa.avg_cores, pb.avg_cores, "cores"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} perturbed by tracing");
        }
        assert_eq!(
            pa.p99_queue_us, 0.0,
            "untraced run carries no decomposition"
        );
        assert!(
            pb.p99_queue_us + pb.p99_service_us > 0.0,
            "traced run decomposes"
        );
    }

    #[test]
    fn max_load_search_is_monotone_sane() {
        let sc = tiny();
        let l = max_load_at_slo(&sc, "zygos", 100.0, 8, true).expect("searches");
        assert!((0.25..1.0).contains(&l), "load@SLO = {l}");
    }
}
