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
//! Every key is named once, where it is read. Each block is read through
//! a `Keys` reader whose accessors (`num`, `count`, `str`, `bool`,
//! `choice`, `list`, `tuple`, `take`) *remove* the key they read; when
//! the block is read, `Keys::finish` rejects the first key left over as
//! `{block}: unknown key "k"`, and a table or array of tables no reader
//! took is an `unknown table [x]` / `unknown array [[x]]`. So there is no
//! allow-list to keep in step with the readers. Wrong types, counts that
//! do not fit their field, and contradictory combinations
//! (`admission_mode` without `admission = true`, …) are errors too.
//! Everything funnels into [`crate::spec::ScenarioBuilder::build`], so
//! TOML-built and programmatically-built scenarios pass the same
//! validation, including which hosts read which knob
//! ([`crate::spec::CASE_KNOBS`]).

use std::borrow::Cow;
use std::sync::Arc;

use zygos_load::retry::RetryPolicy;
use zygos_load::slo::{Slo, SloClass, TenantSlos};
use zygos_load::source::{ArrivalSpec, Phase, Trace};
use zygos_sched::BackgroundOrder;
use zygos_sim::dist::ServiceDist;
use zygos_sysim::{AdmissionMode, CoreLayout, QueueDiscipline, RoutePolicy, SeriesKind, StageSpec};

use crate::spec::{
    AdmissionSpec, Case, Claim, Compare, FaultsSpec, FleetSpec, HostSpec, Op, PolicySpec, Recovers,
    Rhs, Scenario, SearchSpec, Select, Settles, SpecError, TelemetrySpec,
};
use crate::toml::{self, Table, Value};

/// Parses a scenario from TOML text.
pub fn scenario_from_toml(text: &str) -> Result<Scenario, SpecError> {
    let toml::Document {
        root,
        mut tables,
        mut arrays,
    } = toml::parse(text).map_err(SpecError::new)?;
    let mut top = Keys::new("top level", root);
    let mut b = Scenario::builder(top.req("name", Keys::str)?);
    top.finish()?;

    let Some(w) = tables.remove("workload") else {
        return Err(SpecError::new("missing [workload] table"));
    };
    let mut w = Keys::new("[workload]", w);
    b = b.service(parse_service(&mut w)?);
    b = b.arrivals(parse_arrivals(&mut w)?);
    if let Some(n) = w.count("cores")? {
        b = b.cores(n);
    }
    if let Some(n) = w.count("conns")? {
        b = b.conns(n);
    }
    b = b.loads(w.req("loads", Keys::nums)?);
    w.finish()?;

    if let Some(s) = tables.remove("scale") {
        let mut s = Keys::new("[scale]", s);
        match (s.count("requests")?, s.count("warmup")?) {
            (Some(r), Some(wu)) => b = b.requests(r, wu),
            (None, None) => {}
            _ => return Err(s.err("requests and warmup come together")),
        }
        match (s.count("smoke_requests")?, s.count("smoke_warmup")?) {
            (Some(r), Some(wu)) => b = b.smoke(r, wu),
            (None, None) => {}
            _ => return Err(s.err("smoke_requests and smoke_warmup come together")),
        }
        if let Some(loads) = s.nums("smoke_loads")? {
            b = b.smoke_loads(loads);
        }
        if let Some(seed) = s.count("seed")? {
            b = b.seed(seed);
        }
        s.finish()?;
    }

    let Some(cases) = arrays.remove("case") else {
        return Err(SpecError::new("a scenario needs at least one [[case]]"));
    };
    for (i, t) in cases.into_iter().enumerate() {
        b = b.case(parse_case(Keys::new(format!("[[case]] #{}", i + 1), t))?);
    }
    if let Some(stages) = arrays.remove("stages") {
        let stages = stages
            .into_iter()
            .enumerate()
            .map(|(i, t)| parse_stage(Keys::new(format!("[[stages]] #{}", i + 1), t)));
        b = b.stages(stages.collect::<Result<_, _>>()?);
    }
    if let Some(f) = tables.remove("fleet") {
        let mut f = Keys::new("[fleet]", f);
        b = b.fleet(FleetSpec {
            shards: f.req("shards", Keys::count)?,
        });
        f.finish()?;
    }
    if let Some(t) = tables.remove("faults") {
        b = b.faults(parse_faults(Keys::new("[faults]", t))?);
    }
    if let Some(t) = tables.remove("telemetry") {
        b = b.telemetry(parse_telemetry(Keys::new("[telemetry]", t))?);
    }
    if let Some(t) = tables.remove("search") {
        b = b.search(parse_search(Keys::new("[search]", t))?);
    }
    for (i, t) in arrays.remove("claim").into_iter().flatten().enumerate() {
        b = b.claim(parse_claim(Keys::new(format!("[[claim]] #{}", i + 1), t))?);
    }
    if let Some(c) = tables.remove("check") {
        let mut c = Keys::new("[check]", c);
        if let Some(t) = c.num("tolerance")? {
            b = b.check_tolerance(t);
        }
        c.finish()?;
    }
    if let Some(name) = tables.keys().next() {
        return Err(SpecError::new(format!("unknown table [{name}]")));
    }
    if let Some(name) = arrays.keys().next() {
        return Err(SpecError::new(format!("unknown array [[{name}]]")));
    }
    b.build()
}

fn parse_service(w: &mut Keys) -> Result<ServiceDist, SpecError> {
    let kind = w.req("service", Keys::str)?;
    let mut need = |key: &str| -> Result<f64, SpecError> {
        w.num(key)?
            .ok_or_else(|| SpecError::new(format!("service {kind:?} needs {key}")))
    };
    Ok(match kind.as_str() {
        "deterministic" => ServiceDist::deterministic_us(need("mean_us")?),
        "exponential" => ServiceDist::exponential_us(need("mean_us")?),
        "bimodal-1" => ServiceDist::bimodal1_us(need("mean_us")?),
        "bimodal-2" => ServiceDist::bimodal2_us(need("mean_us")?),
        "lognormal" => ServiceDist::lognormal_us(need("mean_us")?, need("cv2")?),
        "two-point" => ServiceDist::TwoPoint {
            fast_us: need("fast_us")?,
            slow_us: need("slow_us")?,
            p_fast: need("p_fast")?,
        },
        other => {
            return Err(SpecError::new(format!(
                "unknown service distribution {other:?}"
            )))
        }
    })
}

fn parse_arrivals(w: &mut Keys) -> Result<ArrivalSpec, SpecError> {
    let named = w.str("arrivals")?;
    let trace_file = w.str("trace_file")?;
    let phases = w.list("phases", "[duration_us, factor] pairs", |v| {
        let [duration_us, rate_factor] = nums_of(&v)?;
        Some(Phase {
            duration_us,
            rate_factor,
        })
    })?;
    let armed = [named.is_some(), trace_file.is_some(), phases.is_some()];
    if armed.iter().filter(|&&b| b).count() > 1 {
        return Err(w.err("pick one of arrivals / trace_file / phases"));
    }
    if let Some(path) = trace_file {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("trace_file {path:?}: {e}")))?;
        let trace = Trace::parse(&text).map_err(SpecError::new)?;
        return Ok(ArrivalSpec::Trace(Arc::new(trace)));
    }
    if let Some(phases) = phases {
        return Ok(ArrivalSpec::Phased(phases));
    }
    match named.as_deref() {
        None | Some("poisson") => Ok(ArrivalSpec::Poisson),
        Some("diurnal") => Ok(ArrivalSpec::Trace(crate::traces::diurnal())),
        Some(other) => Err(w.err(format!(
            "unknown arrivals {other:?} (poisson, diurnal, or use trace_file/phases)"
        ))),
    }
}

/// A `[[case]]` table, read straight into its [`PolicySpec`]; which
/// hosts read each knob is the builder's job.
fn parse_case(mut t: Keys) -> Result<Case, SpecError> {
    let label = t.req("label", Keys::str)?;
    let host = HostSpec::parse(&t.req("host", Keys::str)?)?;
    let mut p = PolicySpec::default();

    // Admission: `admission = true` arms the gate; its mode or target
    // without it is the canonical contradictory spec.
    let armed = t.bool("admission")?.unwrap_or(false);
    let mode = t.choice(
        "admission_mode",
        &[
            ("server-edge", AdmissionMode::ServerEdge),
            ("client-side", AdmissionMode::ClientSide),
        ],
    )?;
    let target_us = t.num("credit_target_us")?;
    if armed {
        p.admission = Some(AdmissionSpec {
            mode: mode.unwrap_or(AdmissionMode::ServerEdge),
            target_us,
        });
    } else if mode.is_some() {
        return Err(
            t.err("admission_mode with admission off — arm `admission = true` or drop the mode")
        );
    } else if target_us.is_some() {
        return Err(t.err("credit knobs with admission off"));
    }

    p.min_cores = t.count("min_cores")?;
    p.quantum_us = t.num("quantum_us")?;
    p.background_order = t.choice(
        "background_order",
        &[
            ("fcfs", BackgroundOrder::Fcfs),
            ("srpt", BackgroundOrder::Srpt),
        ],
    )?;
    p.rx_batch = t.count("rx_batch")?;
    p.randomize_steal_order = t.bool("randomize_steal_order")?;
    p.ipi_delivery_ns = t.count("ipi_delivery_ns")?;
    p.steal_extra_ns = t.count("steal_extra_ns")?;

    // Fleet knobs: balancer policy and the injected shard faults.
    if let Some(name) = t.str("routing")? {
        p.routing = Some(RoutePolicy::parse(&name).map_err(|e| t.err(e))?);
    }
    if let Some(pairs) = t.list("degraded", "[shard, factor] pairs", |v| nums_of(&v))? {
        if pairs.is_empty() {
            return Err(t.err("degraded is empty"));
        }
        let shards = pairs
            .into_iter()
            .map(|[shard, factor]| Ok((as_count(shard, "degraded shard")?, factor)));
        p.degraded = Some(shards.collect::<Result<_, SpecError>>()?);
    }
    if let Some([shard, at_us]) = t.tuple("loss", "[shard, at_us]")? {
        p.loss = Some((as_count(shard, "lost shard")?, at_us));
    }
    p.fanout = t.count("fanout")?;

    // Retry plane: the closed feedback loop and the client timeout that
    // feeds it.
    if let Some(v) = t.take("retry") {
        p.retry = Some(parse_retry(v, &t)?);
    }
    p.retry_timeout_us = t.num("retry_timeout_us")?;

    // Staged pipeline: the layout plus the core counts that size it, and
    // the whole-pipeline discipline override.
    let counts = (
        t.count("net_cores")?,
        t.count("poll_cores")?,
        t.count("stack_cores")?,
    );
    p.layout = match (t.str("layout")?.as_deref(), counts) {
        (None, (None, None, None)) => None,
        (None, _) => {
            return Err(t.err("net_cores/poll_cores/stack_cores size a layout; set `layout` first"))
        }
        (Some("unified"), (None, None, None)) => Some(CoreLayout::Unified),
        (Some("unified"), _) => return Err(t.err("the unified layout takes no core counts")),
        (Some("split-net"), (Some(net_cores), None, None)) => {
            Some(CoreLayout::SplitNet { net_cores })
        }
        (Some("split-net"), (None, None, None)) => {
            return Err(t.err("layout \"split-net\" needs net_cores"))
        }
        (Some("split-net"), _) => {
            return Err(t.err("poll_cores/stack_cores size the split-full layout"))
        }
        (Some("split-full"), (None, Some(poll_cores), Some(stack_cores))) => {
            Some(CoreLayout::SplitFull {
                poll_cores,
                stack_cores,
            })
        }
        (Some("split-full"), (Some(_), _, _)) => {
            return Err(t.err("net_cores sizes the split-net layout"))
        }
        (Some("split-full"), _) => {
            return Err(t.err("layout \"split-full\" needs poll_cores and stack_cores"))
        }
        (Some(other), _) => {
            return Err(t.err(format!(
                "unknown layout {other:?} (unified, split-net, split-full)"
            )))
        }
    };
    p.discipline = discipline(&mut t)?;

    let classes = t.list("slo_classes", "[name, p99_bound_us] pairs", |v| match v {
        Value::Arr(pair) => match <[Value; 2]>::try_from(pair) {
            Ok([Value::Str(name), Value::Num(bound)]) => Some(SloClass::new(name, Slo::p99(bound))),
            _ => None,
        },
        _ => None,
    })?;
    p.slo = match classes {
        Some(classes) if classes.is_empty() => return Err(t.err("slo_classes is empty")),
        Some(classes) => Some(TenantSlos::new(classes)),
        None => None,
    };
    t.finish()?;
    Ok(Case {
        label,
        host,
        policy: p,
    })
}

/// A `[[stages]]` table.
fn parse_stage(mut t: Keys) -> Result<StageSpec, SpecError> {
    let spec = StageSpec {
        name: t.req("name", Keys::str)?,
        batch_fixed_ns: t.count("batch_fixed_ns")?.unwrap_or(0),
        fixed_ns: t.count("fixed_ns")?.unwrap_or(0),
        discipline: discipline(&mut t)?.unwrap_or_default(),
    };
    t.finish()?;
    Ok(spec)
}

/// The `discipline` key a `[[stages]]` and a `[[case]]` table share.
fn discipline(t: &mut Keys) -> Result<Option<QueueDiscipline>, SpecError> {
    let Some(name) = t.str("discipline")? else {
        return Ok(None);
    };
    QueueDiscipline::parse(&name).map(Some).ok_or_else(|| {
        t.err(format!(
            "unknown discipline {name:?} (cfcfs, dfcfs, dfcfs-steal)"
        ))
    })
}

/// `[telemetry]`: `trace` (default true — writing the block means you
/// want the decomposition), `sample_period`, `series` (registry names),
/// `series_every`, `max_series_points`.
fn parse_telemetry(mut t: Keys) -> Result<TelemetrySpec, SpecError> {
    let d = TelemetrySpec::default();
    let names = t
        .list("series", "strings", Value::into_str)?
        .unwrap_or_default();
    let series = names.iter().map(|name| {
        SeriesKind::parse(name).ok_or_else(|| t.err(format!("unknown series {name:?}")))
    });
    let spec = TelemetrySpec {
        series: series.collect::<Result<_, _>>()?,
        trace: t.bool("trace")?.unwrap_or(d.trace),
        sample_period: t.count("sample_period")?.unwrap_or(d.sample_period),
        series_every: t.count("series_every")?.unwrap_or(d.series_every),
        max_series_points: t.count("max_series_points")?.unwrap_or(d.max_series_points),
    };
    t.finish()?;
    Ok(spec)
}

/// `[search]`: `metric` (`"p50"` / `"p99"` / `"p999"`, default p99),
/// `bound_us` (required), `resolution` (default 16).
fn parse_search(mut t: Keys) -> Result<SearchSpec, SpecError> {
    let d = SearchSpec::default();
    let metrics = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)];
    let spec = SearchSpec {
        quantile: t.choice("metric", &metrics)?.unwrap_or(d.quantile),
        bound_us: t.req("bound_us", Keys::num)?,
        resolution: t.count("resolution")?.unwrap_or(d.resolution),
    };
    t.finish()?;
    Ok(spec)
}

/// `[[claim]]`: one of three forms, told apart by their lead key —
/// `recovers = [base, worse, fixed]` (+ `metric`, `fraction`), `series`
/// (+ `case`, `settle_windows`, `op`, `value`), else a compare (`metric`,
/// `cases`, `op`, then `value` or `times` [`of`, `of_metric`], then
/// `min_load`/`max_load` or `at`).
fn parse_claim(mut t: Keys) -> Result<Claim, SpecError> {
    let claim = if t.table.contains_key("recovers") {
        let Ok([base, worse, fixed]) = <[String; 3]>::try_from(t.labels("recovers")?) else {
            return Err(t.err("recovers must be [base, worse, fixed]"));
        };
        Claim::Recovers(Recovers {
            metric: t.req("metric", Keys::str)?,
            base,
            worse,
            fixed,
            fraction: t.req("fraction", Keys::num)?,
        })
    } else if let Some(series) = t.str("series")? {
        Claim::Settles(Settles {
            series,
            case: t.req("case", Keys::str)?,
            settle_windows: t.req("settle_windows", Keys::count)?,
            op: parse_op(&mut t)?,
            value: t.req("value", Keys::num)?,
        })
    } else {
        let metric = t.req("metric", Keys::str)?;
        let cases = t.labels("cases")?;
        let op = parse_op(&mut t)?;
        let (of, of_metric) = (t.str("of")?, t.str("of_metric")?);
        let rhs = match (t.num("value")?, t.num("times")?) {
            (Some(v), None) if of.is_none() && of_metric.is_none() => Rhs::Value(v),
            (Some(_), None) => return Err(t.err("of/of_metric belong to `times`, not `value`")),
            (None, Some(times)) => Rhs::Times {
                times,
                of,
                of_metric,
            },
            _ => return Err(t.err("a compare claim takes exactly one of value / times")),
        };
        let (min_load, max_load) = (t.num("min_load")?, t.num("max_load")?);
        let extremes = [("lowest", Select::Lowest), ("highest", Select::Highest)];
        let select = match t.choice("at", &extremes)? {
            None => Select::Window { min_load, max_load },
            Some(_) if min_load.is_some() || max_load.is_some() => {
                return Err(t.err("pick one of `at` / min_load, max_load"))
            }
            Some(at) => at,
        };
        Claim::Compare(Compare {
            metric,
            cases,
            op,
            rhs,
            select,
        })
    };
    t.finish()?;
    Ok(claim)
}

fn parse_op(t: &mut Keys) -> Result<Op, SpecError> {
    let s = t.req("op", Keys::str)?;
    Op::parse(&s).ok_or_else(|| t.err(format!("unknown op {s:?} (<, <=, >, >=)")))
}

/// `[faults]`: scenario-wide adversarial injections — `burst`
/// `[at_us, duration_us, factor]`.
fn parse_faults(mut t: Keys) -> Result<FaultsSpec, SpecError> {
    let spec = FaultsSpec {
        burst: t
            .tuple("burst", "[at_us, duration_us, factor]")?
            .map(|[at, duration, factor]| (at, duration, factor)),
    };
    t.finish()?;
    Ok(spec)
}

/// `retry = "drop"` or `["backoff", base_us, factor, max_attempts]`.
fn parse_retry(v: Value, t: &Keys) -> Result<RetryPolicy, SpecError> {
    let shapes = "\"drop\" or [\"backoff\", base_us, factor, max_attempts]";
    let bad = || t.err(format!("retry must be {shapes}"));
    let items = match v {
        Value::Str(s) if s == "drop" => return Ok(RetryPolicy::Drop),
        Value::Str(s) => return Err(t.err(format!("unknown retry {s:?} ({shapes})"))),
        Value::Arr(items) => items,
        _ => return Err(bad()),
    };
    let num = |i: usize| items.get(i).and_then(Value::as_num).ok_or_else(bad);
    match (items.first().and_then(Value::as_str), items.len()) {
        (Some("backoff"), 4) => Ok(RetryPolicy::Backoff {
            base_us: as_count(num(1)?, "retry base_us")?,
            factor: num(2)?,
            max_attempts: as_count(num(3)?, "retry max_attempts")?,
        }),
        _ => Err(bad()),
    }
}

// --- the consuming reader ------------------------------------------------

/// One TOML table being read. Every accessor *removes* the key it reads,
/// so what is left once the block is read is a key no reader took:
/// [`Keys::finish`] rejects it.
struct Keys {
    /// The block, as errors name it: `[workload]`, `[[case]] #2`, ….
    ctx: Cow<'static, str>,
    table: Table,
}

impl Keys {
    fn new(ctx: impl Into<Cow<'static, str>>, table: Table) -> Keys {
        Keys {
            ctx: ctx.into(),
            table,
        }
    }

    fn err(&self, msg: impl std::fmt::Display) -> SpecError {
        SpecError::new(format!("{}: {msg}", self.ctx))
    }

    /// The value of `key` as written.
    fn take(&mut self, key: &str) -> Option<Value> {
        self.table.remove(key)
    }

    /// `key` through `convert`; `what` names the shape it must have.
    fn typed<T>(
        &mut self,
        key: &str,
        what: &str,
        convert: impl FnOnce(Value) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        match self.take(key).map(convert) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(self.err(format!("{key} must be {what}"))),
        }
    }

    fn num(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        self.typed(key, "a number", |v| v.as_num())
    }

    fn bool(&mut self, key: &str) -> Result<Option<bool>, SpecError> {
        self.typed(key, "true/false", |v| v.as_bool())
    }

    fn str(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        self.typed(key, "a string", Value::into_str)
    }

    /// A number that is a non-negative integer fitting `T`.
    fn count<T: TryFrom<u64>>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        self.num(key)?.map(|v| as_count(v, key)).transpose()
    }

    /// `N` numbers; `shape` spells them out, e.g. `[shard, at_us]`.
    fn tuple<const N: usize>(
        &mut self,
        key: &str,
        shape: &str,
    ) -> Result<Option<[f64; N]>, SpecError> {
        self.typed(key, shape, |v| nums_of(&v))
    }

    /// An array whose every element `item` converts; `what` names the
    /// elements.
    fn list<T>(
        &mut self,
        key: &str,
        what: &str,
        item: impl FnMut(Value) -> Option<T>,
    ) -> Result<Option<Vec<T>>, SpecError> {
        let items = match self.take(key) {
            None => return Ok(None),
            Some(Value::Arr(items)) => items.into_iter().map(item).collect(),
            Some(_) => None,
        };
        items
            .map(Some)
            .ok_or_else(|| self.err(format!("{key} must be an array of {what}")))
    }

    fn nums(&mut self, key: &str) -> Result<Option<Vec<f64>>, SpecError> {
        self.list(key, "numbers", |v| v.as_num())
    }

    fn labels(&mut self, key: &str) -> Result<Vec<String>, SpecError> {
        self.req(key, |t, key| t.list(key, "case labels", Value::into_str))
    }

    /// One of `options`, by name.
    fn choice<T: Clone>(
        &mut self,
        key: &str,
        options: &[(&str, T)],
    ) -> Result<Option<T>, SpecError> {
        let Some(name) = self.str(key)? else {
            return Ok(None);
        };
        match options.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => Ok(Some(v.clone())),
            None => {
                let names: Vec<&str> = options.iter().map(|(n, _)| *n).collect();
                let names = names.join(", ");
                Err(self.err(format!("unknown {key} {name:?} ({names})")))
            }
        }
    }

    /// A key that must be present, read by `read`.
    fn req<T>(
        &mut self,
        key: &str,
        read: fn(&mut Keys, &str) -> Result<Option<T>, SpecError>,
    ) -> Result<T, SpecError> {
        read(self, key)?.ok_or_else(|| self.err(format!("missing {key}")))
    }

    /// Rejects the first key no reader took.
    fn finish(self) -> Result<(), SpecError> {
        match self.table.keys().next() {
            Some(key) => Err(self.err(format!("unknown key {key:?}"))),
            None => Ok(()),
        }
    }
}

/// `v` as exactly `N` numbers.
fn nums_of<const N: usize>(v: &Value) -> Option<[f64; N]> {
    let items = v.as_arr().filter(|a| a.len() == N)?;
    let mut out = [0.0; N];
    for (o, x) in out.iter_mut().zip(items) {
        *o = x.as_num()?;
    }
    Some(out)
}

/// `v` as a count of type `T`: a non-negative integer that fits it, so
/// an out-of-range value is an error rather than silently narrowed.
fn as_count<T: TryFrom<u64>>(v: f64, what: &str) -> Result<T, SpecError> {
    let whole = v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64;
    let n = whole
        .then_some(v as u64)
        .ok_or_else(|| SpecError::new(format!("{what} must be a non-negative integer, got {v}")))?;
    T::try_from(n).map_err(|_| {
        let ty = std::any::type_name::<T>();
        SpecError::new(format!("{what} = {v} does not fit in {ty}"))
    })
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

    /// A scenario with every block and each `[[claim]]` form.
    const EVERY_BLOCK: &str = r#"name = "every-block"
[workload]
service = "exponential"
mean_us = 10.0
cores = 4
conns = 16
loads = [0.5, 0.8]
[scale]
smoke_requests = 1_000
smoke_warmup = 200
[[case]]
label = "a"
host = "sim:zygos"
[[case]]
label = "b"
host = "sim:staged"
[[case]]
label = "c"
host = "fleet:zygos"
[[stages]]
name = "app"
[fleet]
shards = 2
[faults]
burst = [2000.0, 1000.0, 1.5]
[telemetry]
series = ["window_p99_us"]
[search]
bound_us = 100.0
[check]
tolerance = 0.5
[[claim]]
metric = "p99_us"
cases = ["a"]
op = "<="
value = 90.0
[[claim]]
recovers = ["a", "b", "c"]
metric = "p99_us"
fraction = 0.5
[[claim]]
series = "window_p99_us"
case = "a"
settle_windows = 4
op = "<"
value = 1.5"#;

    #[test]
    fn unknown_keys_are_rejected() {
        scenario_from_toml(EVERY_BLOCK).expect("valid");
        let reject = |text: &str, want: &str| {
            let e = scenario_from_toml(text).expect_err(want);
            assert_eq!(e.to_string(), format!("invalid scenario: {want}"));
        };
        // A key nobody reads, in every block: the error names both.
        reject(
            &format!("frobnicate = 1\n{EVERY_BLOCK}"),
            "top level: unknown key \"frobnicate\"",
        );
        let lines: Vec<&str> = EVERY_BLOCK.lines().collect();
        let mut seen = std::collections::BTreeMap::new();
        let mut blocks = 0;
        for (i, line) in lines.iter().enumerate() {
            let block = if line.starts_with("[[") {
                let n = seen.entry(*line).or_insert(0);
                *n += 1;
                format!("{line} #{n}")
            } else if line.starts_with('[') {
                line.to_string()
            } else {
                continue;
            };
            let mut edited = lines.clone();
            edited.insert(i + 1, "frobnicate = 1");
            reject(
                &edited.join("\n"),
                &format!("{block}: unknown key \"frobnicate\""),
            );
            blocks += 1;
        }
        assert_eq!(blocks, 14, "every block but the top level");
        // Retired knobs are unknown keys like any other.
        let retired = [
            ("[[case]]", "alloc = \"utilization\""),
            ("[[case]]", "quantum_events = 8"),
            ("[[case]]", "overcommit = true"),
            ("[[case]]", "fleet_admission = \"fleet-wide\""),
            ("[[case]]", "retry_jitter = false"),
            ("[[case]]", "slo_bound_us = 100.0"),
            ("[faults]", "churn = [5000.0, 500.0, 3.0]"),
            ("[faults]", "slow_clients = [0.1, 200.0]"),
            ("[faults]", "slowdown = [0, 3.0]"),
        ];
        for (header, line) in retired {
            let key = line.split(" = ").next().expect("a key");
            let block = match header {
                "[[case]]" => "[[case]] #1",
                _ => header,
            };
            reject(
                &EVERY_BLOCK.replacen(header, &format!("{header}\n{line}"), 1),
                &format!("{block}: unknown key \"{key}\""),
            );
        }
        // Tables and arrays of tables nobody reads, the deleted RESTART
        // block among them.
        let unread = [
            ("[frobnicate]", "unknown table [frobnicate]"),
            ("[tail]\nload = 0.85\nsplits = 4", "unknown table [tail]"),
            ("[[frobnicate]]", "unknown array [[frobnicate]]"),
        ];
        for (block, want) in unread {
            reject(&format!("{EVERY_BLOCK}\n{block}"), want);
        }
    }

    #[test]
    fn every_case_knob_is_rejected_on_the_hosts_that_do_not_read_it() {
        use crate::spec::CASE_KNOBS;
        // One row per knob: its key, the knob with what it needs, and a
        // host that reads it.
        let rows = [
            ("min_cores", "min_cores = 2", "sim:elastic"),
            (
                "background_order",
                "quantum_us = 25.0\nbackground_order = \"srpt\"",
                "sim:zygos",
            ),
            ("quantum_us", "quantum_us = 25.0", "fleet:elastic"),
            (
                "admission",
                "admission = true\ncredit_target_us = 70.0",
                "live:partitioned",
            ),
            (
                "slo_classes",
                "slo_classes = [[\"interactive\", 100.0]]",
                "sim:zygos",
            ),
            ("rx_batch", "rx_batch = 8", "sim:ix"),
            (
                "randomize_steal_order",
                "randomize_steal_order = false",
                "sim:zygos",
            ),
            ("ipi_delivery_ns", "ipi_delivery_ns = 500", "sim:zygos"),
            ("steal_extra_ns", "steal_extra_ns = 100", "fleet:zygos"),
            ("routing", "routing = \"po2c\"", "fleet:zygos"),
            ("degraded", "degraded = [[0, 2.0]]", "fleet:zygos"),
            ("loss", "loss = [1, 500.0]", "fleet:zygos-nointerrupts"),
            ("fanout", "fanout = 2", "fleet:zygos"),
            (
                "retry",
                "retry = \"drop\"\nretry_timeout_us = 400.0",
                "sim:elastic",
            ),
            ("layout", "layout = \"unified\"", "sim:staged"),
            ("discipline", "discipline = \"cfcfs\"", "sim:staged"),
        ];
        assert_eq!(rows.len(), CASE_KNOBS.len());
        let build = |host: &str, knob: &str| {
            let mut text = format!(
                "name = \"k\"\n[workload]\nservice = \"exponential\"\nmean_us = 10.0\n\
                 cores = 4\nconns = 16\nloads = [0.5]\n[[case]]\nlabel = \"c\"\n\
                 host = \"{host}\"\n{knob}\n"
            );
            if host.starts_with("fleet:") {
                text += "[fleet]\nshards = 2\n";
            }
            if host == "sim:staged" {
                text += "[[stages]]\nname = \"app\"\n";
            }
            scenario_from_toml(&text)
        };
        for ((key, knob, reader), &(table_key, reads, _)) in rows.iter().zip(CASE_KNOBS) {
            assert_eq!(*key, table_key, "rows follow CASE_KNOBS");
            let host = HostSpec::parse(reader).expect("a host");
            assert!(reads(host), "{reader} reads {key}");
            build(reader, knob).unwrap_or_else(|e| panic!("{key} on {reader}: {e}"));
            for host in HostSpec::all().filter(|&h| !reads(h)) {
                let e = build(&host.id(), knob).expect_err(key);
                assert!(e.to_string().contains(key), "{key} on {}: {e}", host.id());
            }
        }
    }

    #[test]
    fn counts_that_do_not_fit_their_field_are_rejected() {
        // 2^32 + 1 connections used to narrow to 1 without an error.
        let e = scenario_from_toml(&MINIMAL.replace("conns = 32", "conns = 4294967297"))
            .expect_err("does not fit u32");
        assert!(e.to_string().contains("conns"), "{e}");
        let retry = "retry = [\"backoff\", 20, 2.0, 4294967296]\nretry_timeout_us = 400.0";
        let text = MINIMAL.replace(
            "host = \"sim:zygos\"",
            &format!("host = \"sim:zygos\"\n{retry}"),
        );
        let e = scenario_from_toml(&text).expect_err("does not fit u32");
        assert!(e.to_string().contains("max_attempts"), "{e}");
        for fraction in ["conns = 2.5", "conns = -1"] {
            let e = scenario_from_toml(&MINIMAL.replace("conns = 32", fraction))
                .expect_err("not a count");
            assert!(e.to_string().contains("non-negative integer"), "{e}");
        }
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
    fn search_table_parses() {
        let text = MINIMAL.to_string()
            + r#"
[search]
metric = "p999"
bound_us = 250.0
resolution = 32
"#;
        let s = scenario_from_toml(&text).expect("valid");
        let search = s.search.as_ref().expect("armed");
        assert_eq!(search.quantile, 0.999);
        assert_eq!(search.bound_us, 250.0);
        assert_eq!(search.resolution, 32);
        // Unknown metrics and missing required keys are loud.
        let e = scenario_from_toml(&text.replace("\"p999\"", "\"p42\"")).expect_err("reject");
        assert!(e.to_string().contains("p42"), "{e}");
        let e = scenario_from_toml(&text.replace("bound_us = 250.0", "")).expect_err("reject");
        assert!(e.to_string().contains("bound_us"), "{e}");
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
[telemetry]
series = ["window_p99_us", "credit_capacity"]
[[case]]
label = "backoff"
host = "sim:zygos"
admission = true
credit_target_us = 70.0
retry = ["backoff", 20, 2.0, 4]
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
        let backoff = s.case("backoff").expect("present");
        assert_eq!(
            backoff.policy.retry,
            Some(RetryPolicy::Backoff {
                base_us: 20,
                factor: 2.0,
                max_attempts: 4
            })
        );
        assert_eq!(
            s.case("drop").unwrap().policy.retry,
            Some(RetryPolicy::Drop)
        );
        assert_eq!(
            s.case("naive").unwrap().policy.retry_timeout_us,
            Some(400.0)
        );
        // Unknown policy spellings, hosts and malformed shapes stay loud.
        let backoff = "[\"backoff\", 20, 2.0, 4]";
        for (from, to, want) in [
            (
                "retry = \"drop\"",
                "retry = \"shrug\"",
                "unknown retry \"shrug\"",
            ),
            (backoff, "[\"backoff\", 20]", "retry must be"),
            (backoff, "[\"hedge\", 800.0]", "retry must be"),
            (
                "host = \"sim:zygos\"",
                "host = \"live:floating\"",
                "unknown host",
            ),
            ("burst = [2000.0, 1000.0, 1.5]", "burst = [2000.0]", "burst"),
        ] {
            let e = scenario_from_toml(&text.replacen(from, to, 1)).expect_err(to);
            assert!(e.to_string().contains(want), "{to}: {e}");
        }
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
                        host = \"sim:zygos\"\n[[case]]\nlabel = \"d\"\nhost = \"live:zygos\"\n[faults]\nburst = [2000.0, 1000.0, 1.5]\n[telemetry]\n\
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
            ("case = \"a\" => case = \"d\"", "must be a simulator host"),
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
