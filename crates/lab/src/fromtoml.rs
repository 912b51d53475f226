//! TOML scenario specs → [`crate::spec::Scenario`].
//!
//! The file format (see `docs/SCENARIOS.md` for the full reference):
//!
//! ```toml
//! name = "fig13-overload"
//!
//! [workload]
//! service = "exponential"   # deterministic | bimodal-1 | bimodal-2 | two-point | lognormal
//! mean_us = 10.0
//! cores = 16
//! conns = 2752
//! loads = [0.8, 1.2, 1.4]
//! arrivals = "poisson"      # or "diurnal" (bundled trace), or phases = [[dur_us, factor], ...]
//!
//! [scale]
//! requests = 50_000
//! warmup = 10_000
//! smoke_requests = 8_000
//! smoke_warmup = 2_000
//!
//! [[case]]
//! label = "ZygOS (credits)"
//! host = "sim:zygos"
//! admission = true
//! admission_mode = "server-edge"
//! credit_target_us = 70.0
//!
//! [[claim]]
//! metric = "p99_us"
//! cases = ["ZygOS (credits)"]
//! op = "<="
//! value = 200.0
//! min_load = 1.19
//! ```
//!
//! Every key is checked: unknown keys, wrong types, and contradictory
//! combinations (`admission_mode` without `admission = true`, a quantum
//! on a host that cannot preempt, …) are errors. Everything funnels into
//! [`crate::spec::ScenarioBuilder::build`], so TOML-built and
//! programmatically-built scenarios pass the same validation.

use std::sync::Arc;

use zygos_load::slo::{Slo, SloClass, TenantSlos};
use zygos_load::source::{ArrivalSpec, Phase, Trace};
use zygos_sched::BackgroundOrder;
use zygos_sim::dist::ServiceDist;
use zygos_sysim::config::AllocKind;
use zygos_sysim::AdmissionMode;

use zygos_sysim::SeriesKind;

use zygos_sysim::fleet::AdmissionTopology;
use zygos_sysim::RoutePolicy;

use zygos_sysim::{CoreLayout, QueueDiscipline, StageSpec};

use zygos_load::retry::RetryPolicy;

use crate::spec::{
    Case, Claim, Compare, FaultsSpec, FleetSpec, HostSpec, Op, Recovers, Rhs, Scenario, SearchSpec,
    Select, Settles, SpecError, TailSpec, TelemetrySpec,
};
use crate::toml::{self, Table, Value};

/// Parses a scenario from TOML text.
pub fn scenario_from_toml(text: &str) -> Result<Scenario, SpecError> {
    let doc = toml::parse(text).map_err(SpecError::new)?;
    check_keys("top level", &doc.root, &["name"])?;
    for table in doc.tables.keys() {
        if !matches!(
            table.as_str(),
            "workload" | "scale" | "fleet" | "faults" | "telemetry" | "search" | "tail" | "check"
        ) {
            return Err(SpecError::new(format!("unknown table [{table}]")));
        }
    }
    for array in doc.arrays.keys() {
        if !matches!(array.as_str(), "case" | "stages" | "claim") {
            return Err(SpecError::new(format!("unknown array [[{array}]]")));
        }
    }
    let name = req_str(&doc.root, "name", "top level")?;
    let mut b = Scenario::builder(name);

    let Some(w) = doc.tables.get("workload") else {
        return Err(SpecError::new("missing [workload] table"));
    };
    check_keys(
        "[workload]",
        w,
        &[
            "service",
            "mean_us",
            "fast_us",
            "slow_us",
            "p_fast",
            "cv2",
            "cores",
            "conns",
            "loads",
            "arrivals",
            "trace_file",
            "phases",
        ],
    )?;
    b = b.service(parse_service(w)?);
    b = b.arrivals(parse_arrivals(w)?);
    if let Some(v) = opt_num(w, "cores", "[workload]")? {
        b = b.cores(as_count(v, "cores")?);
    }
    if let Some(v) = opt_num(w, "conns", "[workload]")? {
        b = b.conns(as_count(v, "conns")? as u32);
    }
    b = b.loads(req_num_array(w, "loads", "[workload]")?);

    if let Some(s) = doc.tables.get("scale") {
        check_keys(
            "[scale]",
            s,
            &[
                "requests",
                "warmup",
                "smoke_requests",
                "smoke_warmup",
                "smoke_loads",
                "seed",
            ],
        )?;
        let full_req = opt_num(s, "requests", "[scale]")?;
        let full_warm = opt_num(s, "warmup", "[scale]")?;
        if let (Some(r), Some(wu)) = (full_req, full_warm) {
            b = b.requests(
                as_count(r, "requests")? as u64,
                as_count(wu, "warmup")? as u64,
            );
        } else if full_req.is_some() || full_warm.is_some() {
            return Err(SpecError::new("[scale] requests and warmup come together"));
        }
        let sr = opt_num(s, "smoke_requests", "[scale]")?;
        let sw = opt_num(s, "smoke_warmup", "[scale]")?;
        if let (Some(r), Some(wu)) = (sr, sw) {
            b = b.smoke(
                as_count(r, "smoke_requests")? as u64,
                as_count(wu, "smoke_warmup")? as u64,
            );
        } else if sr.is_some() || sw.is_some() {
            return Err(SpecError::new(
                "[scale] smoke_requests and smoke_warmup come together",
            ));
        }
        if let Some(loads) = s.get("smoke_loads") {
            b = b.smoke_loads(num_array(loads, "smoke_loads")?);
        }
        if let Some(seed) = opt_num(s, "seed", "[scale]")? {
            b = b.seed(as_count(seed, "seed")? as u64);
        }
    }

    let Some(cases) = doc.arrays.get("case") else {
        return Err(SpecError::new("a scenario needs at least one [[case]]"));
    };
    for (i, t) in cases.iter().enumerate() {
        b = b.case(parse_case(t, i)?);
    }

    if let Some(stages) = doc.arrays.get("stages") {
        let mut out = Vec::new();
        for (i, t) in stages.iter().enumerate() {
            let ctx = format!("[[stages]] #{}", i + 1);
            check_keys(
                &ctx,
                t,
                &["name", "batch_fixed_ns", "fixed_ns", "discipline"],
            )?;
            let mut spec = StageSpec {
                name: req_str(t, "name", &ctx)?,
                batch_fixed_ns: 0,
                fixed_ns: 0,
                discipline: QueueDiscipline::default(),
            };
            if let Some(v) = opt_num(t, "batch_fixed_ns", &ctx)? {
                spec.batch_fixed_ns = as_count(v, "batch_fixed_ns")? as u64;
            }
            if let Some(v) = opt_num(t, "fixed_ns", &ctx)? {
                spec.fixed_ns = as_count(v, "fixed_ns")? as u64;
            }
            if let Some(v) = t.get("discipline") {
                spec.discipline = parse_discipline(&str_of(v, "discipline")?, &ctx)?;
            }
            out.push(spec);
        }
        b = b.stages(out);
    }

    if let Some(f) = doc.tables.get("fleet") {
        check_keys("[fleet]", f, &["shards"])?;
        let shards = opt_num(f, "shards", "[fleet]")?
            .ok_or_else(|| SpecError::new("[fleet] needs shards"))?;
        b = b.fleet(FleetSpec {
            shards: as_count(shards, "shards")?,
        });
    }
    if let Some(t) = doc.tables.get("faults") {
        b = b.faults(parse_faults(t)?);
    }
    if let Some(t) = doc.tables.get("telemetry") {
        b = b.telemetry(parse_telemetry(t)?);
    }
    if let Some(t) = doc.tables.get("search") {
        b = b.search(parse_search(t)?);
    }
    if let Some(t) = doc.tables.get("tail") {
        b = b.tail(parse_tail(t)?);
    }
    for (i, t) in doc.arrays.get("claim").into_iter().flatten().enumerate() {
        b = b.claim(parse_claim(t, i)?);
    }
    if let Some(c) = doc.tables.get("check") {
        check_keys("[check]", c, &["tolerance"])?;
        if let Some(t) = opt_num(c, "tolerance", "[check]")? {
            b = b.check_tolerance(t);
        }
    }
    b.build()
}

fn parse_service(w: &Table) -> Result<ServiceDist, SpecError> {
    let kind = req_str(w, "service", "[workload]")?;
    let mean = |key: &str| -> Result<f64, SpecError> {
        opt_num(w, key, "[workload]")?
            .ok_or_else(|| SpecError::new(format!("service {kind:?} needs {key}")))
    };
    Ok(match kind.as_str() {
        "deterministic" => ServiceDist::deterministic_us(mean("mean_us")?),
        "exponential" => ServiceDist::exponential_us(mean("mean_us")?),
        "bimodal-1" => ServiceDist::bimodal1_us(mean("mean_us")?),
        "bimodal-2" => ServiceDist::bimodal2_us(mean("mean_us")?),
        "lognormal" => ServiceDist::lognormal_us(mean("mean_us")?, mean("cv2")?),
        "two-point" => ServiceDist::TwoPoint {
            fast_us: mean("fast_us")?,
            slow_us: mean("slow_us")?,
            p_fast: mean("p_fast")?,
        },
        other => {
            return Err(SpecError::new(format!(
                "unknown service distribution {other:?}"
            )))
        }
    })
}

fn parse_arrivals(w: &Table) -> Result<ArrivalSpec, SpecError> {
    let named = w
        .get("arrivals")
        .map(|v| str_of(v, "arrivals"))
        .transpose()?;
    let trace_file = w
        .get("trace_file")
        .map(|v| str_of(v, "trace_file"))
        .transpose()?;
    let phases = w.get("phases");
    let armed = [named.is_some(), trace_file.is_some(), phases.is_some()]
        .iter()
        .filter(|&&b| b)
        .count();
    if armed > 1 {
        return Err(SpecError::new("pick one of arrivals / trace_file / phases"));
    }
    if let Some(path) = trace_file {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("trace_file {path:?}: {e}")))?;
        let trace = Trace::parse(&text).map_err(SpecError::new)?;
        return Ok(ArrivalSpec::Trace(Arc::new(trace)));
    }
    if let Some(v) = phases {
        let mut out = Vec::new();
        for (i, item) in v
            .as_arr()
            .ok_or_else(|| SpecError::new("phases must be an array"))?
            .iter()
            .enumerate()
        {
            let pair = item.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                SpecError::new(format!("phases[{i}] must be [duration_us, factor]"))
            })?;
            out.push(Phase {
                duration_us: pair[0]
                    .as_num()
                    .ok_or_else(|| SpecError::new("phase duration must be a number"))?,
                rate_factor: pair[1]
                    .as_num()
                    .ok_or_else(|| SpecError::new("phase factor must be a number"))?,
            });
        }
        return Ok(ArrivalSpec::Phased(out));
    }
    match named.as_deref() {
        None | Some("poisson") => Ok(ArrivalSpec::Poisson),
        Some("diurnal") => Ok(ArrivalSpec::Trace(crate::traces::diurnal())),
        Some(other) => Err(SpecError::new(format!(
            "unknown arrivals {other:?} (poisson, diurnal, or use trace_file/phases)"
        ))),
    }
}

fn parse_case(t: &Table, index: usize) -> Result<Case, SpecError> {
    let ctx = format!("[[case]] #{}", index + 1);
    check_keys(
        &ctx,
        t,
        &[
            "label",
            "host",
            "min_cores",
            "alloc",
            "quantum_us",
            "quantum_events",
            "background_order",
            "rx_batch",
            "randomize_steal_order",
            "ipi_delivery_ns",
            "steal_extra_ns",
            "admission",
            "admission_mode",
            "credit_target_us",
            "overcommit",
            "slo_classes",
            "slo_bound_us",
            "routing",
            "fleet_admission",
            "degraded",
            "loss",
            "fanout",
            "retry",
            "retry_jitter",
            "retry_timeout_us",
            "layout",
            "net_cores",
            "poll_cores",
            "stack_cores",
            "discipline",
        ],
    )?;
    let label = req_str(t, "label", &ctx)?;
    let host = HostSpec::parse(&req_str(t, "host", &ctx)?)?;
    let mut case = Case {
        label,
        host,
        policy: Default::default(),
    };

    // Admission: `admission = true` arms the gate; `admission_mode`
    // without it is the canonical contradictory spec and is rejected.
    let armed = match t.get("admission") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SpecError::new(format!("{ctx}: admission must be true/false")))?,
    };
    let mode = t
        .get("admission_mode")
        .map(|v| str_of(v, "admission_mode"))
        .transpose()?;
    let overcommit = match t.get("overcommit") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SpecError::new(format!("{ctx}: overcommit must be true/false")))?,
    };
    if !armed {
        if let Some(m) = &mode {
            return Err(SpecError::new(format!(
                "{ctx}: admission_mode = {m:?} with admission off — arm `admission = true` \
                 or drop the mode"
            )));
        }
        if t.get("credit_target_us").is_some() || overcommit {
            return Err(SpecError::new(format!(
                "{ctx}: credit knobs with admission off"
            )));
        }
    } else {
        let mode = match mode.as_deref() {
            None | Some("server-edge") => AdmissionMode::ServerEdge,
            Some("client-side") => AdmissionMode::ClientSide,
            Some(other) => {
                return Err(SpecError::new(format!(
                    "{ctx}: unknown admission_mode {other:?}"
                )))
            }
        };
        case = case.admission(mode);
        if let Some(target) = opt_num(t, "credit_target_us", &ctx)? {
            case = case.credit_target_us(target);
        }
        if overcommit {
            case = case.overcommit();
            case = case.admission(mode); // overcommit() must not change the mode
        }
    }

    if let Some(v) = opt_num(t, "min_cores", &ctx)? {
        case = case.min_cores(as_count(v, "min_cores")?);
    }
    if let Some(v) = t.get("alloc") {
        case = case.alloc(match str_of(v, "alloc")?.as_str() {
            "utilization" => AllocKind::Utilization,
            "slo-driven" => AllocKind::SloDriven,
            other => return Err(SpecError::new(format!("{ctx}: unknown alloc {other:?}"))),
        });
    }
    if let Some(v) = opt_num(t, "quantum_us", &ctx)? {
        case = case.quantum_us(v);
    }
    if let Some(v) = opt_num(t, "quantum_events", &ctx)? {
        case = case.quantum_events(as_count(v, "quantum_events")?);
    }
    if let Some(v) = t.get("background_order") {
        case = case.background_order(match str_of(v, "background_order")?.as_str() {
            "fcfs" => BackgroundOrder::Fcfs,
            "srpt" => BackgroundOrder::Srpt,
            other => {
                return Err(SpecError::new(format!(
                    "{ctx}: unknown background_order {other:?}"
                )))
            }
        });
    }
    if let Some(v) = opt_num(t, "rx_batch", &ctx)? {
        case = case.rx_batch(as_count(v, "rx_batch")? as u64);
    }
    if let Some(v) = t.get("randomize_steal_order") {
        let randomize = v
            .as_bool()
            .ok_or_else(|| SpecError::new(format!("{ctx}: randomize_steal_order must be bool")))?;
        if !randomize {
            case = case.sequential_steal();
        } else {
            case.policy.randomize_steal_order = Some(true);
        }
    }
    if let Some(v) = opt_num(t, "ipi_delivery_ns", &ctx)? {
        case = case.ipi_delivery_ns(as_count(v, "ipi_delivery_ns")? as u64);
    }
    if let Some(v) = opt_num(t, "steal_extra_ns", &ctx)? {
        case = case.steal_extra_ns(as_count(v, "steal_extra_ns")? as u64);
    }

    // Fleet knobs: balancer policy, admission topology, and the injected
    // shard faults. Host/topology consistency is the builder's job.
    if let Some(v) = t.get("routing") {
        let name = str_of(v, "routing")?;
        case = case
            .routing(RoutePolicy::parse(&name).map_err(|e| SpecError::new(format!("{ctx}: {e}")))?);
    }
    if let Some(v) = t.get("fleet_admission") {
        case = case.fleet_admission(match str_of(v, "fleet_admission")?.as_str() {
            "per-shard" => AdmissionTopology::PerShard,
            "fleet-wide" => AdmissionTopology::FleetWide,
            other => {
                return Err(SpecError::new(format!(
                    "{ctx}: unknown fleet_admission {other:?} (per-shard, fleet-wide)"
                )))
            }
        });
    }
    if let Some(v) = t.get("degraded") {
        let mut out = Vec::new();
        for (i, item) in v
            .as_arr()
            .ok_or_else(|| SpecError::new(format!("{ctx}: degraded must be an array")))?
            .iter()
            .enumerate()
        {
            let pair = item.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                SpecError::new(format!("{ctx}: degraded[{i}] must be [shard, factor]"))
            })?;
            let shard = pair[0]
                .as_num()
                .ok_or_else(|| SpecError::new(format!("{ctx}: degraded shard must be a number")))?;
            let factor = pair[1].as_num().ok_or_else(|| {
                SpecError::new(format!("{ctx}: degradation factor must be a number"))
            })?;
            out.push((as_count(shard, "degraded shard")?, factor));
        }
        if out.is_empty() {
            return Err(SpecError::new(format!("{ctx}: degraded is empty")));
        }
        case = case.degraded(out);
    }
    if let Some(v) = t.get("loss") {
        let pair = v
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| SpecError::new(format!("{ctx}: loss must be [shard, at_us]")))?;
        let shard = pair[0]
            .as_num()
            .ok_or_else(|| SpecError::new(format!("{ctx}: lost shard must be a number")))?;
        let at_us = pair[1]
            .as_num()
            .ok_or_else(|| SpecError::new(format!("{ctx}: loss time must be a number")))?;
        case = case.loss(as_count(shard, "lost shard")?, at_us);
    }
    if let Some(v) = opt_num(t, "fanout", &ctx)? {
        case = case.fanout(as_count(v, "fanout")?);
    }

    // Retry-plane knobs: the closed feedback loop, its jitter, and the
    // client timeout that feeds it.
    if let Some(v) = t.get("retry") {
        case = case.retry(parse_retry(v, &ctx)?);
    }
    if let Some(v) = t.get("retry_jitter") {
        let on = v
            .as_bool()
            .ok_or_else(|| SpecError::new(format!("{ctx}: retry_jitter must be true/false")))?;
        case = case.retry_jitter(on);
    }
    if let Some(v) = opt_num(t, "retry_timeout_us", &ctx)? {
        case = case.retry_timeout_us(v);
    }

    // Staged-pipeline knobs: the layout plus the core counts that size
    // it, and the whole-pipeline discipline override.
    let net_cores = opt_num(t, "net_cores", &ctx)?;
    let poll_cores = opt_num(t, "poll_cores", &ctx)?;
    let stack_cores = opt_num(t, "stack_cores", &ctx)?;
    let layout = t.get("layout").map(|v| str_of(v, "layout")).transpose()?;
    match layout.as_deref() {
        None => {
            if net_cores.is_some() || poll_cores.is_some() || stack_cores.is_some() {
                return Err(SpecError::new(format!(
                    "{ctx}: net_cores/poll_cores/stack_cores size a layout; set `layout` first"
                )));
            }
        }
        Some("unified") => {
            if net_cores.is_some() || poll_cores.is_some() || stack_cores.is_some() {
                return Err(SpecError::new(format!(
                    "{ctx}: the unified layout takes no core counts"
                )));
            }
            case = case.layout(CoreLayout::Unified);
        }
        Some("split-net") => {
            if poll_cores.is_some() || stack_cores.is_some() {
                return Err(SpecError::new(format!(
                    "{ctx}: poll_cores/stack_cores size the split-full layout"
                )));
            }
            let n = net_cores.ok_or_else(|| {
                SpecError::new(format!("{ctx}: layout \"split-net\" needs net_cores"))
            })?;
            case = case.layout(CoreLayout::SplitNet {
                net_cores: as_count(n, "net_cores")?,
            });
        }
        Some("split-full") => {
            if net_cores.is_some() {
                return Err(SpecError::new(format!(
                    "{ctx}: net_cores sizes the split-net layout"
                )));
            }
            let p = poll_cores.ok_or_else(|| {
                SpecError::new(format!("{ctx}: layout \"split-full\" needs poll_cores"))
            })?;
            let s = stack_cores.ok_or_else(|| {
                SpecError::new(format!("{ctx}: layout \"split-full\" needs stack_cores"))
            })?;
            case = case.layout(CoreLayout::SplitFull {
                poll_cores: as_count(p, "poll_cores")?,
                stack_cores: as_count(s, "stack_cores")?,
            });
        }
        Some(other) => {
            return Err(SpecError::new(format!(
                "{ctx}: unknown layout {other:?} (unified, split-net, split-full)"
            )))
        }
    }
    if let Some(v) = t.get("discipline") {
        case = case.discipline(parse_discipline(&str_of(v, "discipline")?, &ctx)?);
    }

    // SLO classes: either a full list or a uniform single-bound shortcut.
    if t.get("slo_classes").is_some() && t.get("slo_bound_us").is_some() {
        return Err(SpecError::new(format!(
            "{ctx}: pick one of slo_classes / slo_bound_us"
        )));
    }
    if let Some(v) = opt_num(t, "slo_bound_us", &ctx)? {
        case = case.slo(TenantSlos::uniform(Slo::p99(v)));
    }
    if let Some(v) = t.get("slo_classes") {
        let mut classes = Vec::new();
        for (i, item) in v
            .as_arr()
            .ok_or_else(|| SpecError::new(format!("{ctx}: slo_classes must be an array")))?
            .iter()
            .enumerate()
        {
            let pair = item.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                SpecError::new(format!(
                    "{ctx}: slo_classes[{i}] must be [name, p99_bound_us]"
                ))
            })?;
            let name = pair[0]
                .as_str()
                .ok_or_else(|| SpecError::new(format!("{ctx}: class name must be a string")))?;
            let bound = pair[1]
                .as_num()
                .ok_or_else(|| SpecError::new(format!("{ctx}: class bound must be a number")))?;
            classes.push(SloClass::new(name, Slo::p99(bound)));
        }
        if classes.is_empty() {
            return Err(SpecError::new(format!("{ctx}: slo_classes is empty")));
        }
        case = case.slo(TenantSlos::new(classes));
    }
    Ok(case)
}

fn parse_discipline(name: &str, ctx: &str) -> Result<QueueDiscipline, SpecError> {
    QueueDiscipline::parse(name).ok_or_else(|| {
        SpecError::new(format!(
            "{ctx}: unknown discipline {name:?} (cfcfs, dfcfs, dfcfs-steal)"
        ))
    })
}

/// `[telemetry]`: `trace` (default true — writing the block means you
/// want the decomposition), `sample_period`, `series` (registry names),
/// `series_every`, `max_series_points`.
fn parse_telemetry(t: &Table) -> Result<TelemetrySpec, SpecError> {
    check_keys(
        "[telemetry]",
        t,
        &[
            "trace",
            "sample_period",
            "series",
            "series_every",
            "max_series_points",
        ],
    )?;
    let mut spec = TelemetrySpec::default();
    if let Some(v) = t.get("trace") {
        spec.trace = v
            .as_bool()
            .ok_or_else(|| SpecError::new("[telemetry] trace must be true/false"))?;
    }
    if let Some(v) = opt_num(t, "sample_period", "[telemetry]")? {
        spec.sample_period = as_count(v, "sample_period")? as u32;
    }
    if let Some(v) = opt_num(t, "series_every", "[telemetry]")? {
        spec.series_every = as_count(v, "series_every")? as u32;
    }
    if let Some(v) = opt_num(t, "max_series_points", "[telemetry]")? {
        spec.max_series_points = as_count(v, "max_series_points")?;
    }
    if let Some(v) = t.get("series") {
        let items = v
            .as_arr()
            .ok_or_else(|| SpecError::new("[telemetry] series must be an array of strings"))?;
        for item in items {
            let name = item
                .as_str()
                .ok_or_else(|| SpecError::new("[telemetry] series must hold strings"))?;
            let kind = SeriesKind::parse(name).ok_or_else(|| {
                SpecError::new(format!(
                    "[telemetry] unknown series {name:?} (admitted_rate, credit_capacity, \
                     active_cores, shed_by_class)"
                ))
            })?;
            spec.series.push(kind);
        }
    }
    Ok(spec)
}

/// `[search]`: `metric` (`"p50"` / `"p99"` / `"p999"`, default p99),
/// `bound_us` (required), `resolution` (default 16).
fn parse_search(t: &Table) -> Result<SearchSpec, SpecError> {
    check_keys("[search]", t, &["metric", "bound_us", "resolution"])?;
    let mut spec = SearchSpec::default();
    if let Some(v) = t.get("metric") {
        spec.quantile = match str_of(v, "metric")?.as_str() {
            "p50" => 0.50,
            "p99" => 0.99,
            "p999" => 0.999,
            other => {
                return Err(SpecError::new(format!(
                    "[search] unknown metric {other:?} (p50, p99, p999)"
                )))
            }
        };
    }
    spec.bound_us = opt_num(t, "bound_us", "[search]")?
        .ok_or_else(|| SpecError::new("[search] needs bound_us"))?;
    if let Some(v) = opt_num(t, "resolution", "[search]")? {
        spec.resolution = as_count(v, "resolution")?;
    }
    Ok(spec)
}

/// `[tail]`: `load` (required), `quantile`, `levels`, `splits`,
/// `check_every`, `clone_budget` — see `docs/TAIL.md` for how to pick
/// the levels.
fn parse_tail(t: &Table) -> Result<TailSpec, SpecError> {
    check_keys(
        "[tail]",
        t,
        &[
            "load",
            "quantile",
            "levels",
            "splits",
            "check_every",
            "clone_budget",
        ],
    )?;
    let mut spec = TailSpec {
        load: opt_num(t, "load", "[tail]")?
            .ok_or_else(|| SpecError::new("[tail] needs a load to study"))?,
        ..TailSpec::default()
    };
    if let Some(v) = opt_num(t, "quantile", "[tail]")? {
        spec.quantile = v;
    }
    if let Some(v) = t.get("levels") {
        spec.levels = num_array(v, "levels")?
            .into_iter()
            .map(|l| as_count(l, "levels"))
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = opt_num(t, "splits", "[tail]")? {
        spec.splits = as_count(v, "splits")?;
    }
    if let Some(v) = opt_num(t, "check_every", "[tail]")? {
        spec.check_every = as_count(v, "check_every")? as u64;
    }
    if let Some(v) = opt_num(t, "clone_budget", "[tail]")? {
        spec.clone_budget = as_count(v, "clone_budget")? as u64;
    }
    Ok(spec)
}

/// `[[claim]]`: one of three forms, told apart by their lead key —
/// `recovers = [base, worse, fixed]` (+ `metric`, `fraction`), `series`
/// (+ `case`, `settle_windows`, `op`, `value`), else a compare (`metric`,
/// `cases`, `op`, then `value` or `times` [`of`, `of_metric`], then
/// `min_load`/`max_load` or `at`).
fn parse_claim(t: &Table, index: usize) -> Result<Claim, SpecError> {
    let ctx = format!("[[claim]] #{}", index + 1);
    let err = |msg: &str| SpecError::new(format!("{ctx}: {msg}"));
    let opt_str = |key: &str| t.get(key).map(|v| str_of(v, key)).transpose();
    let req_num = |key: &str| opt_num(t, key, &ctx)?.ok_or_else(|| err(&format!("missing {key}")));
    let op = || {
        let s = req_str(t, "op", &ctx)?;
        Op::parse(&s).ok_or_else(|| err(&format!("unknown op {s:?} (<, <=, >, >=)")))
    };
    let labels = |key: &str| -> Result<Vec<String>, SpecError> {
        let items = t.get(key).and_then(Value::as_arr);
        items
            .and_then(|a| a.iter().map(|x| x.as_str().map(str::to_string)).collect())
            .ok_or_else(|| err(&format!("{key} must be an array of case labels")))
    };
    if t.contains_key("recovers") {
        check_keys(&ctx, t, &["recovers", "metric", "fraction"])?;
        let Ok([base, worse, fixed]) = <[String; 3]>::try_from(labels("recovers")?) else {
            return Err(err("recovers must be [base, worse, fixed]"));
        };
        return Ok(Claim::Recovers(Recovers {
            metric: req_str(t, "metric", &ctx)?,
            base,
            worse,
            fixed,
            fraction: req_num("fraction")?,
        }));
    }
    if t.contains_key("series") {
        check_keys(
            &ctx,
            t,
            &["series", "case", "settle_windows", "op", "value"],
        )?;
        return Ok(Claim::Settles(Settles {
            series: req_str(t, "series", &ctx)?,
            case: req_str(t, "case", &ctx)?,
            settle_windows: as_count(req_num("settle_windows")?, "settle_windows")?,
            op: op()?,
            value: req_num("value")?,
        }));
    }
    check_keys(
        &ctx,
        t,
        &[
            "metric",
            "cases",
            "op",
            "value",
            "times",
            "of",
            "of_metric",
            "min_load",
            "max_load",
            "at",
        ],
    )?;
    let (of, of_metric) = (opt_str("of")?, opt_str("of_metric")?);
    let rhs = match (opt_num(t, "value", &ctx)?, opt_num(t, "times", &ctx)?) {
        (Some(v), None) if of.is_none() && of_metric.is_none() => Rhs::Value(v),
        (Some(_), None) => return Err(err("of/of_metric belong to `times`, not `value`")),
        (None, Some(times)) => Rhs::Times {
            times,
            of,
            of_metric,
        },
        _ => return Err(err("a compare claim takes exactly one of value / times")),
    };
    let (min_load, max_load) = (opt_num(t, "min_load", &ctx)?, opt_num(t, "max_load", &ctx)?);
    let select = match opt_str("at")?.as_deref() {
        None => Select::Window { min_load, max_load },
        Some(_) if min_load.is_some() || max_load.is_some() => {
            return Err(err("pick one of `at` / min_load, max_load"))
        }
        Some("lowest") => Select::Lowest,
        Some("highest") => Select::Highest,
        Some(other) => return Err(err(&format!("unknown at {other:?} (lowest, highest)"))),
    };
    Ok(Claim::Compare(Compare {
        metric: req_str(t, "metric", &ctx)?,
        cases: labels("cases")?,
        op: op()?,
        rhs,
        select,
    }))
}

/// `[faults]`: scenario-wide adversarial injections — `burst`
/// `[at_us, duration_us, factor]`, `churn` `[interval_us, spike_us,
/// factor]`, `slow_clients` `[fraction, stall_us]`, `slowdown`
/// `[shard, factor]`.
fn parse_faults(t: &Table) -> Result<FaultsSpec, SpecError> {
    check_keys(
        "[faults]",
        t,
        &["burst", "churn", "slow_clients", "slowdown"],
    )?;
    let nums = |v: &Value, n: usize, what: &str, shape: &str| -> Result<Vec<f64>, SpecError> {
        let items = v
            .as_arr()
            .filter(|a| a.len() == n)
            .ok_or_else(|| SpecError::new(format!("[faults] {what} must be {shape}")))?;
        items
            .iter()
            .map(|x| {
                x.as_num()
                    .ok_or_else(|| SpecError::new(format!("[faults] {what} must hold numbers")))
            })
            .collect()
    };
    let mut spec = FaultsSpec::default();
    if let Some(v) = t.get("burst") {
        let p = nums(v, 3, "burst", "[at_us, duration_us, factor]")?;
        spec.burst = Some((p[0], p[1], p[2]));
    }
    if let Some(v) = t.get("churn") {
        let p = nums(v, 3, "churn", "[interval_us, spike_us, factor]")?;
        spec.churn = Some((p[0], p[1], p[2]));
    }
    if let Some(v) = t.get("slow_clients") {
        let p = nums(v, 2, "slow_clients", "[fraction, stall_us]")?;
        spec.slow_clients = Some((p[0], p[1]));
    }
    if let Some(v) = t.get("slowdown") {
        let p = nums(v, 2, "slowdown", "[shard, factor]")?;
        spec.slowdown = Some((as_count(p[0], "slowdown shard")?, p[1]));
    }
    Ok(spec)
}

/// `retry = "drop"`, `["backoff", base_us, factor, max_attempts]`, or
/// `["hedge", deadline_us]`.
fn parse_retry(v: &Value, ctx: &str) -> Result<RetryPolicy, SpecError> {
    let shapes = "\"drop\", [\"backoff\", base_us, factor, max_attempts], \
                  or [\"hedge\", deadline_us]";
    if let Some(s) = v.as_str() {
        return match s {
            "drop" => Ok(RetryPolicy::Drop),
            other => Err(SpecError::new(format!(
                "{ctx}: unknown retry {other:?} ({shapes})"
            ))),
        };
    }
    let items = v
        .as_arr()
        .ok_or_else(|| SpecError::new(format!("{ctx}: retry must be {shapes}")))?;
    let kind = items
        .first()
        .and_then(|x| x.as_str())
        .ok_or_else(|| SpecError::new(format!("{ctx}: retry must be {shapes}")))?;
    let num = |i: usize, what: &str| -> Result<f64, SpecError> {
        items
            .get(i)
            .and_then(|x| x.as_num())
            .ok_or_else(|| SpecError::new(format!("{ctx}: retry {what} must be a number")))
    };
    match kind {
        "backoff" if items.len() == 4 => Ok(RetryPolicy::Backoff {
            base_us: as_count(num(1, "base_us")?, "retry base_us")? as u64,
            factor: num(2, "factor")?,
            max_attempts: as_count(num(3, "max_attempts")?, "retry max_attempts")? as u32,
        }),
        "hedge" if items.len() == 2 => Ok(RetryPolicy::HedgeToDeadline {
            deadline_us: as_count(num(1, "deadline_us")?, "retry deadline_us")? as u64,
        }),
        _ => Err(SpecError::new(format!("{ctx}: retry must be {shapes}"))),
    }
}

// --- small typed readers -------------------------------------------------

fn check_keys(ctx: &str, table: &Table, allowed: &[&str]) -> Result<(), SpecError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::new(format!("{ctx}: unknown key {key:?}")));
        }
    }
    Ok(())
}

fn str_of(v: &Value, what: &str) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError::new(format!("{what} must be a string")))
}

fn req_str(t: &Table, key: &str, ctx: &str) -> Result<String, SpecError> {
    t.get(key)
        .ok_or_else(|| SpecError::new(format!("{ctx}: missing {key}")))
        .and_then(|v| str_of(v, key))
}

fn opt_num(t: &Table, key: &str, ctx: &str) -> Result<Option<f64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_num()
            .map(Some)
            .ok_or_else(|| SpecError::new(format!("{ctx}: {key} must be a number"))),
    }
}

fn num_array(v: &Value, what: &str) -> Result<Vec<f64>, SpecError> {
    v.as_arr()
        .ok_or_else(|| SpecError::new(format!("{what} must be an array")))?
        .iter()
        .map(|x| {
            x.as_num()
                .ok_or_else(|| SpecError::new(format!("{what} must hold numbers")))
        })
        .collect()
}

fn req_num_array(t: &Table, key: &str, ctx: &str) -> Result<Vec<f64>, SpecError> {
    num_array(
        t.get(key)
            .ok_or_else(|| SpecError::new(format!("{ctx}: missing {key}")))?,
        key,
    )
}

fn as_count(v: f64, what: &str) -> Result<usize, SpecError> {
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Ok(v as usize)
    } else {
        Err(SpecError::new(format!(
            "{what} must be a non-negative integer, got {v}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
name = "mini"
[workload]
service = "exponential"
mean_us = 10.0
cores = 4
conns = 32
loads = [0.3, 0.6]
[[case]]
label = "ZygOS"
host = "sim:zygos"
"#;

    #[test]
    fn minimal_spec_parses() {
        let s = scenario_from_toml(MINIMAL).expect("valid");
        assert_eq!(s.name, "mini");
        assert_eq!(s.workload.cores, 4);
        assert_eq!(s.workload.loads, vec![0.3, 0.6]);
        assert_eq!(s.cases[0].host.id(), "sim:zygos");
    }

    #[test]
    fn admission_mode_without_admission_is_contradictory() {
        let text = MINIMAL.replace(
            "host = \"sim:zygos\"",
            "host = \"sim:zygos\"\nadmission_mode = \"client-side\"",
        );
        let e = scenario_from_toml(&text).expect_err("reject");
        assert!(e.to_string().contains("admission off"), "{e}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let text = MINIMAL.replace("mean_us = 10.0", "mean_us = 10.0\nfrobnicate = 3");
        let e = scenario_from_toml(&text).expect_err("reject");
        assert!(e.to_string().contains("frobnicate"), "{e}");
    }

    #[test]
    fn telemetry_block_parses_and_rejects_unknown_series() {
        let text = MINIMAL.to_string()
            + r#"
[telemetry]
series = ["admitted_rate", "active_cores", "shed_by_class"]
series_every = 8
sample_period = 2
"#;
        let s = scenario_from_toml(&text).expect("valid");
        let t = s.telemetry.as_ref().expect("armed");
        assert!(t.trace, "block present defaults the tracer on");
        assert_eq!(t.sample_period, 2);
        assert_eq!(t.series_every, 8);
        assert_eq!(
            t.series,
            vec![
                SeriesKind::AdmittedRate,
                SeriesKind::ActiveCores,
                SeriesKind::ShedByClass
            ]
        );
        let bad = text.replace("\"active_cores\"", "\"warp_factor\"");
        let e = scenario_from_toml(&bad).expect_err("reject");
        assert!(e.to_string().contains("warp_factor"), "{e}");
    }

    #[test]
    fn search_and_tail_tables_parse() {
        let text = MINIMAL.to_string()
            + r#"
[search]
metric = "p999"
bound_us = 250.0
resolution = 32
[tail]
load = 0.6
quantile = 0.9995
levels = [24, 48, 96]
splits = 8
check_every = 32
clone_budget = 500_000
"#;
        let s = scenario_from_toml(&text).expect("valid");
        let search = s.search.as_ref().expect("armed");
        assert_eq!(search.quantile, 0.999);
        assert_eq!(search.bound_us, 250.0);
        assert_eq!(search.resolution, 32);
        let tail = s.tail.as_ref().expect("armed");
        assert_eq!(tail.load, 0.6);
        assert_eq!(tail.levels, vec![24, 48, 96]);
        assert_eq!(tail.splits, 8);
        assert_eq!(tail.check_every, 32);
        assert_eq!(tail.clone_budget, 500_000);
        // Unknown metrics and missing required keys are loud.
        let e = scenario_from_toml(&text.replace("\"p999\"", "\"p42\"")).expect_err("reject");
        assert!(e.to_string().contains("p42"), "{e}");
        let e = scenario_from_toml(&text.replace("bound_us = 250.0", "")).expect_err("reject");
        assert!(e.to_string().contains("bound_us"), "{e}");
        let e = scenario_from_toml(&text.replace("load = 0.6", "")).expect_err("reject");
        assert!(e.to_string().contains("load"), "{e}");
    }

    #[test]
    fn staged_blocks_parse() {
        let text = r#"
name = "staged"
[workload]
service = "two-point"
fast_us = 2.0
slow_us = 200.0
p_fast = 0.95
cores = 16
conns = 256
loads = [0.5, 0.8]
[[stages]]
name = "net_poll"
batch_fixed_ns = 500
fixed_ns = 120
discipline = "dfcfs"
[[stages]]
name = "net_stack"
fixed_ns = 450
discipline = "dfcfs"
[[stages]]
name = "app"
fixed_ns = 830
[[case]]
label = "unified"
host = "sim:staged"
layout = "unified"
discipline = "cfcfs"
[[case]]
label = "split"
host = "sim:staged"
layout = "split-net"
net_cores = 1
"#;
        let s = scenario_from_toml(text).expect("valid");
        let stages = s.stages.as_ref().expect("parsed");
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].name, "net_poll");
        assert_eq!(stages[0].batch_fixed_ns, 500);
        assert_eq!(stages[1].discipline, QueueDiscipline::Dfcfs);
        assert_eq!(stages[2].discipline, QueueDiscipline::DfcfsSteal);
        let unified = s.case("unified").expect("present");
        assert_eq!(unified.policy.layout, Some(CoreLayout::Unified));
        assert_eq!(unified.policy.discipline, Some(QueueDiscipline::Cfcfs));
        let split = s.case("split").expect("present");
        assert_eq!(
            split.policy.layout,
            Some(CoreLayout::SplitNet { net_cores: 1 })
        );
        // Contradictions stay loud: core counts without a layout, counts
        // of the wrong layout, unknown discipline names.
        let e = scenario_from_toml(
            &text.replace("layout = \"split-net\"\nnet_cores = 1", "net_cores = 1"),
        )
        .expect_err("counts without layout");
        assert!(e.to_string().contains("set `layout` first"), "{e}");
        let e = scenario_from_toml(&text.replace(
            "layout = \"split-net\"\nnet_cores = 1",
            "layout = \"split-net\"\npoll_cores = 1",
        ))
        .expect_err("wrong counts");
        assert!(e.to_string().contains("split-full"), "{e}");
        let e =
            scenario_from_toml(&text.replace("discipline = \"cfcfs\"", "discipline = \"lifo\""))
                .expect_err("unknown discipline");
        assert!(e.to_string().contains("lifo"), "{e}");
    }

    #[test]
    fn faults_retry_and_adversarial_claims_parse() {
        let text = r#"
name = "storm"
[workload]
service = "exponential"
mean_us = 10.0
cores = 4
conns = 64
loads = [0.5, 1.4]
[faults]
burst = [2000.0, 1000.0, 1.5]
slow_clients = [0.1, 200.0]
[telemetry]
series = ["window_p99_us", "credit_capacity"]
[[case]]
label = "backoff"
host = "sim:zygos"
admission = true
credit_target_us = 70.0
retry = ["backoff", 20, 2.0, 4]
retry_jitter = false
[[case]]
label = "drop"
host = "sim:zygos"
admission = true
credit_target_us = 70.0
retry = "drop"
[[case]]
label = "naive"
host = "sim:zygos"
retry = ["backoff", 1, 1.0, 8]
retry_timeout_us = 400.0
"#;
        let s = scenario_from_toml(text).expect("valid");
        let faults = s.faults.as_ref().expect("armed");
        assert_eq!(faults.burst, Some((2_000.0, 1_000.0, 1.5)));
        assert_eq!(faults.slow_clients, Some((0.1, 200.0)));
        let backoff = s.case("backoff").expect("present");
        assert_eq!(
            backoff.policy.retry,
            Some(RetryPolicy::Backoff {
                base_us: 20,
                factor: 2.0,
                max_attempts: 4
            })
        );
        assert_eq!(backoff.policy.retry_jitter, Some(false));
        assert_eq!(
            s.case("drop").unwrap().policy.retry,
            Some(RetryPolicy::Drop)
        );
        assert_eq!(
            s.case("naive").unwrap().policy.retry_timeout_us,
            Some(400.0)
        );
        // Unknown policy spellings and malformed shapes stay loud.
        let e = scenario_from_toml(&text.replace("\"drop\"", "\"shrug\"")).expect_err("reject");
        assert!(e.to_string().contains("shrug"), "{e}");
        let e = scenario_from_toml(&text.replace("[\"backoff\", 20, 2.0, 4]", "[\"backoff\", 20]"))
            .expect_err("reject");
        assert!(e.to_string().contains("backoff"), "{e}");
        let e =
            scenario_from_toml(&text.replace("burst = [2000.0, 1000.0, 1.5]", "burst = [2000.0]"))
                .expect_err("reject");
        assert!(e.to_string().contains("burst"), "{e}");
    }

    #[test]
    fn fanout_and_scatter_gather_parse() {
        let text = r#"
name = "sg"
[workload]
service = "exponential"
mean_us = 10.0
cores = 4
conns = 64
loads = [0.5]
[fleet]
shards = 8
[[case]]
label = "m1"
host = "fleet:zygos"
routing = "least-loaded"
[[case]]
label = "m4"
host = "fleet:zygos"
routing = "least-loaded"
fanout = 4
[[case]]
label = "m4r"
host = "fleet:zygos"
routing = "po2c"
fanout = 4
"#;
        let s = scenario_from_toml(text).expect("valid");
        assert_eq!(s.case("m1").unwrap().policy.fanout, None);
        assert_eq!(s.case("m4").unwrap().policy.fanout, Some(4));
        let e = scenario_from_toml(&text.replace("po2c\"\nfanout = 4", "po2c\"\nfanout = 9"))
            .expect_err("reject");
        assert!(e.to_string().contains("exceeds"), "{e}");
    }

    #[test]
    fn claim_tables_parse_print_and_validate() {
        // Cases a (sim:zygos), b (sim:ix), c (sim:zygos) over loads
        // [0.3, 1.4] (smoke [0.3, 0.6]) with a burst and one harvested
        // series; `claim` is spliced in as the scenario's only [[claim]].
        let text = |claim: &str| {
            let grids = "loads = [0.3, 1.4]\n[scale]\nsmoke_loads = [0.3, 0.6]";
            let base = MINIMAL
                .replace("loads = [0.3, 0.6]", grids)
                .replace("label = \"ZygOS\"", "label = \"a\"");
            let more = "[[case]]\nlabel = \"b\"\nhost = \"sim:ix\"\n[[case]]\nlabel = \"c\"\n\
                        host = \"sim:zygos\"\n[faults]\nburst = [2000.0, 1000.0, 1.5]\n[telemetry]\n\
                        trace = false\nseries = [\"window_p99_us\"]\n[[claim]]\n";
            format!("{base}{more}{claim}")
        };
        let compare = "metric = \"p99_us\"\ncases = [\"a\"]\nop = \"<=\"\nvalue = 90.0";
        let settles = "series = \"window_p99_us\"\ncase = \"a\"\nsettle_windows = 4\nop = \"<\"\n\
                       value = 1.5";
        // One of each form parses, and prints its keys as written.
        for claim in [
            compare,
            "metric = \"goodput\"\ncases = [\"a\", \"c\"]\nop = \">=\"\ntimes = 0.8\nof = \"b\"\n\
             min_load = 0.2\nmax_load = 0.5",
            "metric = \"shed_share_by_class.1\"\ncases = [\"a\"]\nop = \">\"\ntimes = 1.0\n\
             of_metric = \"shed_share_by_class.0\"\nat = \"highest\"",
            "recovers = [\"a\", \"b\", \"c\"]\nmetric = \"p99_us\"\nfraction = 0.5",
            settles,
        ] {
            let sc = scenario_from_toml(&text(claim)).unwrap_or_else(|e| panic!("{claim}: {e}"));
            assert_eq!(sc.claims[0].to_string(), claim.replace('\n', ", "));
        }
        // Each row edits one claim (`from => to`) into a rejection.
        let rejects = |claim: &str, rows: &[(&str, &str)]| {
            for (edit, needle) in rows {
                let (from, to) = edit.split_once(" => ").expect("from => to");
                let e = scenario_from_toml(&text(&claim.replace(from, to))).expect_err(needle);
                assert!(e.to_string().contains(needle), "{edit}: {e}");
            }
        };
        let malformed = [
            ("\"<=\" => \"=<\"", "unknown op"),
            (
                "value = 90.0 => value = 90.0\ntimes = 2.0",
                "exactly one of",
            ),
            (
                "value = 90.0 => value = 90.0\nof = \"b\"",
                "belong to `times`",
            ),
            (
                "value = 90.0 => value = 9.0\nat = \"lowest\"\nmin_load = 0.3",
                "pick one",
            ),
            (
                "value = 90.0 => value = 90.0\nat = \"median\"",
                "unknown at",
            ),
            (
                "value = 90.0 => value = 90.0\nfraction = 0.5",
                "unknown key",
            ),
            ("[\"a\"] => \"a\"", "array of case labels"),
        ];
        rejects(compare, &malformed);
        // The generic build-time rules.
        let unbacked = [
            ("p99_us => p98_us", "unknown metric \"p98_us\""),
            ("p99_us => shed_share.1", "unknown metric"),
            ("[\"a\"] => [\"a\", \"z\"]", "unknown case \"z\""),
            ("[\"a\"] => [\"a\", \"a\"]", "named twice"),
            ("value = 90.0 => times = 2.0\nof = \"a\"", "named twice"),
            ("value = 90.0 => times = 2.0", "`times` needs"),
            ("value = 90.0 => value = 1e999", "finite"),
            ("[\"a\"] => []", "`cases` is empty"),
            // Overload claims need overload points — in the smoke grid too.
            (
                "value = 90.0 => value = 9.0\nmin_load = 1.19",
                "no point of the smoke grid",
            ),
            (
                "value = 90.0 => value = 9.0\nmin_load = 1.5",
                "no point of the full grid",
            ),
        ];
        rejects(compare, &unbacked);
        let unsettled = [
            (
                "window_p99_us => credit_capacity",
                "not listed in [telemetry]",
            ),
            (
                "case = \"a\" => case = \"b\"",
                "ZygOS-family simulator host",
            ),
        ];
        rejects(settles, &unsettled);
        // An extreme needs two loads to be extreme among; a settles claim
        // needs a burst to settle after.
        let one_load = text(&format!("{compare}\nat = \"highest\"")).replace(", 0.6]", "]");
        let e = scenario_from_toml(&one_load).expect_err("one smoke load");
        assert!(e.to_string().contains("two distinct loads"), "{e}");
        let no_burst = text(settles).replace("[faults]\nburst = [2000.0, 1000.0, 1.5]\n", "");
        let e = scenario_from_toml(&no_burst).expect_err("no burst");
        assert!(e.to_string().contains("[faults] burst"), "{e}");
        // The retired table is an unknown table, not a silent no-op.
        let e = scenario_from_toml(&text(compare).replace("[[claim]]", "[claims]"));
        assert!(e
            .expect_err("retired")
            .to_string()
            .contains("unknown table [claims]"));
    }

    #[test]
    fn full_featured_case_parses() {
        let s = scenario_from_toml(
            r#"
name = "full"
[workload]
service = "two-point"
fast_us = 0.5
slow_us = 500.0
p_fast = 0.995
cores = 16
conns = 2752
loads = [0.3, 0.7, 1.2]
arrivals = "diurnal"
[scale]
requests = 20_000
warmup = 4_000
smoke_requests = 2_000
smoke_warmup = 500
smoke_loads = [0.3, 1.2]
seed = 7
[[case]]
label = "elastic srpt"
host = "sim:elastic"
min_cores = 2
quantum_us = 25.0
background_order = "srpt"
alloc = "slo-driven"
[[case]]
label = "tenants"
host = "sim:zygos"
admission = true
admission_mode = "server-edge"
slo_classes = [["interactive", 100.0], ["batch", 1000.0]]
[check]
tolerance = 0.4
"#,
        )
        .expect("valid");
        assert_eq!(s.cases.len(), 2);
        assert!(matches!(s.workload.arrivals, ArrivalSpec::Trace(_)));
        assert_eq!(s.scale.seed, 7);
        assert_eq!(s.check_tolerance, 0.4);
        let tenants = s.case("tenants").expect("present");
        assert_eq!(
            tenants.policy.slo.as_ref().map(|t| t.classes().len()),
            Some(2)
        );
    }
}
