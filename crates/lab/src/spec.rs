//! The declarative experiment model: what a scenario *is*.
//!
//! A [`Scenario`] is the single description of one experiment matrix:
//!
//! * a [`WorkloadSpec`] — service-time distribution, arrival process
//!   ([`zygos_load::source::ArrivalSpec`]: Poisson, phases or trace
//!   replay), connection count and the offered-load grid;
//! * one or more [`Case`]s — each a host ([`HostSpec`]: the
//!   discrete-event simulator, the live multithreaded runtime, or a
//!   zero-overhead queueing model) plus a [`PolicySpec`] (allocation,
//!   admission, SLO classes, dispatch knobs);
//! * a [`ScaleSpec`] — full-size and smoke-size measurement windows;
//! * optional [`Claim`]s — the acceptance assertions `lab --check`
//!   enforces, and a baseline tolerance for regression diffing.
//!
//! Construction goes through [`Scenario::builder`], and **every** way of
//! building a scenario funnels through [`ScenarioBuilder::build`], which
//! validates the spec as a whole: contradictory combinations (client-side
//! admission with no admission gate, a preemption quantum on a host that
//! cannot preempt, elastic knobs on a static host, claims over cases that
//! do not exist…) are rejected with a [`SpecError`] instead of being
//! silently ignored by whichever host happens not to read the field.

use zygos_load::retry::RetryPolicy;
use zygos_load::slo::TenantSlos;
use zygos_load::source::ArrivalSpec;
use zygos_sched::BackgroundOrder;
use zygos_sim::dist::ServiceDist;
use zygos_sim::queueing::Policy;
use zygos_sysim::{
    AdmissionMode, CoreLayout, QueueDiscipline, RoutePolicy, SeriesKind, StageSpec, StagedConfig,
    TelemetryConfig,
};

/// Which simulator system model a [`HostSpec::Sim`] case runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimHost {
    /// ZygOS with work stealing and IPIs.
    Zygos,
    /// ZygOS without IPIs (cooperative ablation).
    ZygosNoInterrupts,
    /// ZygOS under the elastic control plane (`min_cores` and the
    /// preemption quantum come from the [`PolicySpec`]).
    Elastic,
    /// IX: shared-nothing run-to-completion.
    Ix,
    /// Linux, partitioned epoll sets.
    LinuxPartitioned,
    /// Linux, one floating epoll set.
    LinuxFloating,
    /// Staged multi-phase pipeline (`net_poll → … → app`) with a core
    /// layout; the pipeline comes from the scenario's `[[stages]]` block,
    /// the layout and discipline from the [`PolicySpec`].
    Staged,
}

/// Which live-runtime scheduler a [`HostSpec::Live`] case runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveHost {
    /// ZygOS with stealing.
    Zygos,
    /// Partitioned run-to-completion (stealing off).
    Partitioned,
    /// Elastic core gating with a 64-event cooperative quantum.
    Elastic,
}

/// Where a case runs. One scenario may mix hosts — that is the point:
/// the same workload and policy run on the simulator and on the live
/// runtime, and both emit the same [`crate::report::Report`] schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostSpec {
    /// The full-system discrete-event simulator (`zygos-sysim`).
    Sim(SimHost),
    /// The live multithreaded runtime (`zygos-runtime`).
    Live(LiveHost),
    /// A zero-overhead idealized queueing model (`zygos_sim::queueing`).
    Model(Policy),
    /// A sharded fleet of simulator worlds behind an L4 balancer
    /// (`zygos_sysim::fleet`); the inner host is the per-shard model.
    /// Needs a `[fleet]` block.
    Fleet(SimHost),
}

/// Every single-world host under its id: the one list [`HostSpec::id`],
/// [`HostSpec::parse`] and [`HostSpec::all`] read. A `fleet:*` host is
/// not listed: its id is its shard's `sim:` id with the prefix swapped.
const HOSTS: &[(&str, HostSpec)] = &[
    ("sim:zygos", HostSpec::Sim(SimHost::Zygos)),
    (
        "sim:zygos-nointerrupts",
        HostSpec::Sim(SimHost::ZygosNoInterrupts),
    ),
    ("sim:elastic", HostSpec::Sim(SimHost::Elastic)),
    ("sim:ix", HostSpec::Sim(SimHost::Ix)),
    (
        "sim:linux-partitioned",
        HostSpec::Sim(SimHost::LinuxPartitioned),
    ),
    ("sim:linux-floating", HostSpec::Sim(SimHost::LinuxFloating)),
    ("sim:staged", HostSpec::Sim(SimHost::Staged)),
    ("live:zygos", HostSpec::Live(LiveHost::Zygos)),
    ("live:partitioned", HostSpec::Live(LiveHost::Partitioned)),
    ("live:elastic", HostSpec::Live(LiveHost::Elastic)),
    ("model:central-fcfs", HostSpec::Model(Policy::CentralFcfs)),
    (
        "model:partitioned-fcfs",
        HostSpec::Model(Policy::PartitionedFcfs),
    ),
    ("model:central-ps", HostSpec::Model(Policy::CentralPs)),
    (
        "model:partitioned-ps",
        HostSpec::Model(Policy::PartitionedPs),
    ),
];

impl HostSpec {
    /// Stable string form (used in reports and TOML specs), e.g.
    /// `"sim:zygos"`, `"live:elastic"`, `"fleet:zygos"`.
    pub fn id(&self) -> String {
        let (shard, fleet) = match *self {
            HostSpec::Fleet(h) => (HostSpec::Sim(h), true),
            host => (host, false),
        };
        let (id, _) = HOSTS
            .iter()
            .find(|(_, h)| *h == shard)
            .expect("every single-world host is listed");
        if fleet {
            id.replacen("sim:", "fleet:", 1)
        } else {
            id.to_string()
        }
    }

    /// Parses [`HostSpec::id`]'s format.
    pub fn parse(s: &str) -> Result<HostSpec, SpecError> {
        let shard = s.strip_prefix("fleet:");
        let found = HOSTS.iter().find_map(|&(id, host)| match shard {
            None => (id == s).then_some(host),
            Some(shard) if id.strip_prefix("sim:") == Some(shard) => host.fleet_of(),
            Some(_) => None,
        });
        found.ok_or_else(|| SpecError::new(format!("unknown host {s:?}")))
    }

    /// Every host: the listed single-world hosts, then a `fleet:*` host
    /// per simulator world.
    pub fn all() -> impl Iterator<Item = HostSpec> {
        let hosts = HOSTS.iter().map(|&(_, host)| host);
        hosts.clone().chain(hosts.filter_map(HostSpec::fleet_of))
    }

    /// The fleet of this world, if it is a simulator world.
    fn fleet_of(self) -> Option<HostSpec> {
        match self {
            HostSpec::Sim(h) => Some(HostSpec::Fleet(h)),
            _ => None,
        }
    }

    /// The simulator model this host runs: its own on `sim:*`, its
    /// shards' on `fleet:*`.
    fn world(self) -> Option<SimHost> {
        match self {
            HostSpec::Sim(h) | HostSpec::Fleet(h) => Some(h),
            _ => None,
        }
    }
}

/// A class of hosts that read a knob or a block. Each class's membership
/// is stated once, in [`Readers::reads`]; a [`CASE_KNOBS`] row names a
/// class, or narrows one to the models that read its knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Readers {
    /// Every simulated world: `sim:*` and `fleet:*`.
    Simulated,
    /// Worlds of the ZygOS model, single or sharded: `sim:zygos`,
    /// `sim:zygos-nointerrupts`, `sim:elastic` and their `fleet:*` hosts.
    ZygosWorlds,
    /// Hosts behind a client edge with a credit gate and SLO windows:
    /// every host except `model:*`.
    Gated,
    /// Every `fleet:*` host.
    Fleet,
    /// `sim:staged` and `fleet:staged`.
    Staged,
}

impl Readers {
    /// Whether `host` is in this class.
    pub fn reads(self, host: HostSpec) -> bool {
        let world = host.world();
        match self {
            Readers::Simulated => world.is_some(),
            Readers::ZygosWorlds => matches!(
                world,
                Some(SimHost::Zygos | SimHost::ZygosNoInterrupts | SimHost::Elastic)
            ),
            Readers::Gated => !matches!(host, HostSpec::Model(_)),
            Readers::Fleet => matches!(host, HostSpec::Fleet(_)),
            Readers::Staged => world == Some(SimHost::Staged),
        }
    }
}

/// One [`CASE_KNOBS`] row: the TOML key, whether a host reads the knob,
/// and whether a case sets it.
pub type Knob = (&'static str, fn(HostSpec) -> bool, fn(&PolicySpec) -> bool);

/// **The** capability matrix: every [`PolicySpec`] knob under its TOML
/// key, the hosts that read it, and whether a case sets it. Setting a
/// knob on a host that does not read it is a validation error, so a
/// scenario never silently drops a knob. A knob precedes the knobs it
/// needs (`background_order` before `quantum_us`), so a rejection names
/// the knob the host cannot read rather than its prerequisite.
/// `docs/SCENARIOS.md` renders this table; a unit test pins the copy.
#[rustfmt::skip]
pub const CASE_KNOBS: &[Knob] = &[
    // The live elastic runtime keeps `AllocatorConfig::paper`'s floor.
    ("min_cores", |h| h.world() == Some(SimHost::Elastic), |p| p.min_cores.is_some()),
    ("background_order", |h| Readers::ZygosWorlds.reads(h), |p| p.background_order.is_some()),
    ("quantum_us", |h| Readers::ZygosWorlds.reads(h), |p| p.quantum_us.is_some()),
    ("admission", |h| Readers::Gated.reads(h), |p| p.admission.is_some()),
    ("slo_classes", |h| Readers::Gated.reads(h), |p| p.slo.is_some()),
    // The Linux models take no batch.
    ("rx_batch", |h| Readers::Simulated.reads(h) && !is_linux(h), |p| p.rx_batch.is_some()),
    // The staged steal stage walks its victims in a fixed order.
    ("randomize_steal_order", |h| Readers::ZygosWorlds.reads(h), |p| {
        p.randomize_steal_order.is_some()
    }),
    // Only the ZygOS worlds that interrupt a busy home core send IPIs.
    ("ipi_delivery_ns", |h| matches!(h.world(), Some(SimHost::Zygos | SimHost::Elastic)), |p| {
        p.ipi_delivery_ns.is_some()
    }),
    ("steal_extra_ns", |h| Readers::ZygosWorlds.reads(h) || Readers::Staged.reads(h), |p| {
        p.steal_extra_ns.is_some()
    }),
    ("routing", |h| Readers::Fleet.reads(h), |p| p.routing.is_some()),
    ("degraded", |h| Readers::Fleet.reads(h), |p| p.degraded.is_some()),
    ("loss", |h| Readers::Fleet.reads(h), |p| p.loss.is_some()),
    ("fanout", |h| Readers::Fleet.reads(h), |p| p.fanout.is_some()),
    ("retry", |h| Readers::Simulated.reads(h), |p| p.retry.is_some()),
    ("layout", |h| Readers::Staged.reads(h), |p| p.layout.is_some()),
    ("discipline", |h| Readers::Staged.reads(h), |p| p.discipline.is_some()),
];

/// Whether `host` runs a Linux model, single or sharded.
fn is_linux(host: HostSpec) -> bool {
    matches!(
        host.world(),
        Some(SimHost::LinuxPartitioned | SimHost::LinuxFloating)
    )
}

/// The workload every case of a scenario runs.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Application service-time distribution.
    pub service: ServiceDist,
    /// Shape of the arrival process (mean rate comes from the load grid).
    pub arrivals: ArrivalSpec,
    /// Server cores / workers.
    pub cores: usize,
    /// Client connections.
    pub conns: u32,
    /// Offered loads to sweep (fractions of ideal saturation).
    pub loads: Vec<f64>,
}

/// Admission-control selection for a case.
#[derive(Clone, Debug)]
pub struct AdmissionSpec {
    /// Where a creditless request is shed.
    pub mode: AdmissionMode,
    /// AIMD latency target in µs of the pool
    /// `CreditConfig::for_cores(cores, target)` (ignored when
    /// [`PolicySpec::slo`] is set — per-class targets then derive from
    /// the bounds).
    pub target_us: Option<f64>,
}

/// Per-case policy knobs. Each is an `Option`: leaving one `None` takes
/// the host's default, *setting* one on a host that does not read it is a
/// validation error — a scenario never silently drops a knob.
/// [`CASE_KNOBS`] names the hosts that read each knob.
#[derive(Clone, Debug, Default)]
pub struct PolicySpec {
    /// Elastic floor on granted cores (default 2).
    pub min_cores: Option<usize>,
    /// Preemptive quantum in µs.
    pub quantum_us: Option<f64>,
    /// Background (preempted) queue order (requires `quantum_us`).
    pub background_order: Option<BackgroundOrder>,
    /// Credit-based admission control; `None` admits everything.
    pub admission: Option<AdmissionSpec>,
    /// Per-tenant SLO classes.
    pub slo: Option<TenantSlos>,
    /// RX batch bound override.
    pub rx_batch: Option<u64>,
    /// Steal-victim order randomization (default true).
    pub randomize_steal_order: Option<bool>,
    /// IPI delivery latency override, ns.
    pub ipi_delivery_ns: Option<u64>,
    /// Per-steal cost override, ns.
    pub steal_extra_ns: Option<u64>,
    /// L4 connection-routing policy (default consistent-hash;
    /// pass-through requires a single shard).
    pub routing: Option<RoutePolicy>,
    /// Degraded shards as `(shard, service factor)`.
    pub degraded: Option<Vec<(usize, f64)>>,
    /// Shard loss as `(shard, at_us)` (needs Poisson arrivals and >= 2
    /// shards).
    pub loss: Option<(usize, f64)>,
    /// Closed-loop retry: sheds and timeouts re-enter the arrival stream
    /// under this policy (`None` keeps the open-loop client).
    pub retry: Option<RetryPolicy>,
    /// Client-side timeout feeding the retry policy, µs (requires
    /// `retry`). Timed-out work is *not* recalled from the server — the
    /// wasted service is what sustains a metastable failure.
    pub retry_timeout_us: Option<f64>,
    /// Scatter-gather fan-out: every user request fans to this many
    /// distinct shards and completes at the slowest sub-request (default
    /// 1; incompatible with shard loss).
    pub fanout: Option<usize>,
    /// Core layout of a staged pipeline (default unified).
    pub layout: Option<CoreLayout>,
    /// Queue-discipline override applied to every stage of a staged
    /// pipeline (default: each stage keeps the discipline its
    /// `[[stages]]` entry declares).
    pub discipline: Option<QueueDiscipline>,
}

/// Assembles the pipeline a `sim:staged` case runs: the scenario's shared
/// `[[stages]]` table with the case's layout and discipline overrides
/// applied. Lowering and validation both go through here, so a scenario
/// that builds is exactly a scenario whose every staged case runs.
pub fn staged_plan(stages: &[StageSpec], policy: &PolicySpec) -> StagedConfig {
    let mut stages = stages.to_vec();
    if let Some(d) = policy.discipline {
        for s in &mut stages {
            s.discipline = d;
        }
    }
    StagedConfig {
        stages,
        layout: policy.layout.unwrap_or_default(),
    }
}

/// One case: a label, a host, and the policy it runs.
#[derive(Clone, Debug)]
pub struct Case {
    /// Series label in reports (unique within a scenario).
    pub label: String,
    /// Where it runs.
    pub host: HostSpec,
    /// What it runs.
    pub policy: PolicySpec,
}

impl Case {
    /// A simulator case.
    pub fn sim(label: impl Into<String>, host: SimHost) -> Case {
        Case {
            label: label.into(),
            host: HostSpec::Sim(host),
            policy: PolicySpec::default(),
        }
    }

    /// A live-runtime case.
    pub fn live(label: impl Into<String>, host: LiveHost) -> Case {
        Case {
            label: label.into(),
            host: HostSpec::Live(host),
            policy: PolicySpec::default(),
        }
    }

    /// A zero-overhead queueing-model case.
    pub fn model(label: impl Into<String>, policy: Policy) -> Case {
        Case {
            label: label.into(),
            host: HostSpec::Model(policy),
            policy: PolicySpec::default(),
        }
    }

    /// A fleet case: `host` is the per-shard simulator model (ZygOS
    /// family only); the shard count comes from the scenario's `[fleet]`
    /// block.
    pub fn fleet(label: impl Into<String>, host: SimHost) -> Case {
        Case {
            label: label.into(),
            host: HostSpec::Fleet(host),
            policy: PolicySpec::default(),
        }
    }

    /// Selects the fleet's L4 routing policy.
    pub fn routing(mut self, r: RoutePolicy) -> Case {
        self.policy.routing = Some(r);
        self
    }

    /// Degrades shards: each `(shard, factor)` serves at `factor ×` its
    /// healthy cost.
    pub fn degraded(mut self, d: Vec<(usize, f64)>) -> Case {
        self.policy.degraded = Some(d);
        self
    }

    /// Loses a shard mid-run: `(shard, at_us)`.
    pub fn loss(mut self, shard: usize, at_us: f64) -> Case {
        self.policy.loss = Some((shard, at_us));
        self
    }

    /// Arms the closed retry loop: sheds and timeouts re-enter the
    /// arrival stream under `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Case {
        self.policy.retry = Some(policy);
        self
    }

    /// Arms the client-side timeout that feeds the retry policy (µs).
    pub fn retry_timeout_us(mut self, t: f64) -> Case {
        self.policy.retry_timeout_us = Some(t);
        self
    }

    /// Sets the scatter-gather fan-out of a fleet case.
    pub fn fanout(mut self, m: usize) -> Case {
        self.policy.fanout = Some(m);
        self
    }

    /// Selects the staged pipeline's core layout (`sim:staged` only).
    pub fn layout(mut self, l: CoreLayout) -> Case {
        self.policy.layout = Some(l);
        self
    }

    /// Overrides every stage's queue discipline (`sim:staged` only).
    pub fn discipline(mut self, d: QueueDiscipline) -> Case {
        self.policy.discipline = Some(d);
        self
    }

    /// Sets the elastic floor on granted cores.
    pub fn min_cores(mut self, n: usize) -> Case {
        self.policy.min_cores = Some(n);
        self
    }

    /// Arms the simulator's preemptive quantum.
    pub fn quantum_us(mut self, q: f64) -> Case {
        self.policy.quantum_us = Some(q);
        self
    }

    /// Orders the background (preempted) queue.
    pub fn background_order(mut self, o: BackgroundOrder) -> Case {
        self.policy.background_order = Some(o);
        self
    }

    /// Arms credit-based admission control shedding in `mode`.
    pub fn admission(mut self, mode: AdmissionMode) -> Case {
        let spec = self.policy.admission.get_or_insert(AdmissionSpec {
            mode,
            target_us: None,
        });
        spec.mode = mode;
        self
    }

    /// Sets the admission AIMD latency target (µs).
    pub fn credit_target_us(mut self, t: f64) -> Case {
        let spec = self.policy.admission.get_or_insert(AdmissionSpec {
            mode: AdmissionMode::ServerEdge,
            target_us: None,
        });
        spec.target_us = Some(t);
        self
    }

    /// Overrides the RX batch bound.
    pub fn rx_batch(mut self, b: u64) -> Case {
        self.policy.rx_batch = Some(b);
        self
    }

    /// Disables steal-victim randomization (ablation).
    pub fn sequential_steal(mut self) -> Case {
        self.policy.randomize_steal_order = Some(false);
        self
    }

    /// Overrides the IPI delivery latency (ablation).
    pub fn ipi_delivery_ns(mut self, ns: u64) -> Case {
        self.policy.ipi_delivery_ns = Some(ns);
        self
    }

    /// Overrides the per-steal cost (ablation).
    pub fn steal_extra_ns(mut self, ns: u64) -> Case {
        self.policy.steal_extra_ns = Some(ns);
        self
    }
}

/// Telemetry requested for a scenario's simulator cases: lifecycle
/// tracing (which puts the p99 sojourn decomposition into the report)
/// and/or control-tick time-series. Every simulated world harvests the
/// series; every `sim:*` host traces (fleet shards never do), so validation
/// rejects a trace request no case can record.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySpec {
    /// Arm the lifecycle tracer (decomposition fields in the report).
    pub trace: bool,
    /// Record every `sample_period`-th request (1 = every request).
    pub sample_period: u32,
    /// Time-series to harvest on the control tick.
    pub series: Vec<SeriesKind>,
    /// Harvest one point every `series_every` control ticks.
    pub series_every: u32,
    /// Cap on stored points per series (excess is counted, not kept).
    pub max_series_points: usize,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        let d = TelemetryConfig::default();
        TelemetrySpec {
            trace: true,
            sample_period: d.sample_period,
            series: Vec::new(),
            series_every: d.series_every,
            max_series_points: d.max_series_points,
        }
    }
}

impl TelemetrySpec {
    /// The host-side config this spec lowers to.
    pub fn to_config(&self) -> TelemetryConfig {
        TelemetryConfig {
            trace: self.trace,
            sample_period: self.sample_period,
            series: self.series.clone(),
            series_every: self.series_every,
            max_series_points: self.max_series_points,
        }
    }
}

/// A `[search]` block: the paper's "maximum load @ SLO" metric as a
/// committed gate. Every deterministic (sim or model) case bisects the
/// load axis for the highest load whose latency quantile meets the
/// bound; warmable simulator cases reuse checkpoint prefixes across the
/// probes (see `docs/TAIL.md`), so only the first probe pays a cold
/// warmup. Live cases carry no search result — a wall clock cannot
/// binary-search loads honestly.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchSpec {
    /// Which latency quantile the SLO binds (0.5, 0.99, 0.999, …).
    pub quantile: f64,
    /// The SLO bound on that quantile, µs.
    pub bound_us: f64,
    /// Load-grid resolution of the bisection (16 ⇒ 1/16-load steps).
    pub resolution: usize,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            quantile: 0.99,
            bound_us: 100.0,
            resolution: 16,
        }
    }
}

/// Measurement sizing, full and smoke.
#[derive(Clone, Debug)]
pub struct ScaleSpec {
    /// Completions measured per point (full mode).
    pub requests: u64,
    /// Warmup completions discarded per point (full mode).
    pub warmup: u64,
    /// Completions measured per point under `--smoke`.
    pub smoke_requests: u64,
    /// Warmup under `--smoke`.
    pub smoke_warmup: u64,
    /// Load grid override under `--smoke` (`None` keeps the full grid).
    pub smoke_loads: Option<Vec<f64>>,
    /// RNG seed (arrivals, service sampling, victim shuffles).
    pub seed: u64,
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            requests: 50_000,
            warmup: 10_000,
            smoke_requests: 8_000,
            smoke_warmup: 2_000,
            smoke_loads: None,
            seed: 0x5A47,
        }
    }
}

impl ScaleSpec {
    /// The `(requests, warmup)` pair for a mode.
    pub fn window(&self, smoke: bool) -> (u64, u64) {
        if smoke {
            (self.smoke_requests, self.smoke_warmup)
        } else {
            (self.requests, self.warmup)
        }
    }
}

/// The fleet topology shared by a scenario's `fleet:*` cases: N
/// independent shards, each `workload.cores` wide, behind the L4
/// balancer. `workload.conns` is the fleet-wide connection count the
/// routing policy partitions; `workload.loads` are fractions of the
/// *fleet's* ideal saturation (`shards × cores` healthy cores); the
/// `[scale]` windows are fleet totals, divided by connection share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of server shards.
    pub shards: usize,
}

/// A `[faults]` block: scenario-wide adversarial injections, lowered by
/// the runner onto the arrival/service machinery every host already
/// models (no fault-specific code paths in the hosts — see
/// `docs/FAULTS.md`). The burst must be armed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultsSpec {
    /// Overload burst `(at_us, duration_us, factor)`: the arrival rate
    /// multiplies by `factor` from `at_us` for `duration_us`, then
    /// returns to the configured load — the metastable-failure probe.
    /// Needs Poisson arrivals (lowered as phased Poisson).
    pub burst: Option<(f64, f64, f64)>,
}

/// Comparison operator of a [`Claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    /// The TOML spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    /// Parses [`Op::symbol`]'s spelling.
    pub fn parse(s: &str) -> Option<Op> {
        [Op::Lt, Op::Le, Op::Gt, Op::Ge]
            .into_iter()
            .find(|op| op.symbol() == s)
    }

    /// `lhs op rhs`; false when either side is NaN.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Op::Lt => lhs < rhs,
            Op::Le => lhs <= rhs,
            Op::Gt => lhs > rhs,
            Op::Ge => lhs >= rhs,
        }
    }
}

/// The right-hand side of a [`Compare`].
#[derive(Clone, Debug, PartialEq)]
pub enum Rhs {
    /// `value`: a constant.
    Value(f64),
    /// `times ×` a metric read at the same load: from case `of` (absent:
    /// the case under test), metric `of_metric` (absent: the claim's own
    /// metric). At least one of the two must be named.
    Times {
        /// The factor.
        times: f64,
        /// Label of the reference case.
        of: Option<String>,
        /// Metric read on the reference side.
        of_metric: Option<String>,
    },
}

/// Which load points a [`Compare`] reads.
#[derive(Clone, Debug, PartialEq)]
pub enum Select {
    /// Every grid load in `[min_load, max_load]`; an absent bound is open.
    Window {
        /// Inclusive lower bound.
        min_load: Option<f64>,
        /// Inclusive upper bound.
        max_load: Option<f64>,
    },
    /// `at = "lowest"`: only the lowest grid load.
    Lowest,
    /// `at = "highest"`: only the highest grid load.
    Highest,
}

impl Select {
    /// Indices into `loads` of the points this selection reads.
    pub(crate) fn indices(&self, loads: &[f64]) -> Vec<usize> {
        let all = 0..loads.len();
        let by_load = |a: &usize, b: &usize| loads[*a].total_cmp(&loads[*b]);
        match self {
            Select::Window { min_load, max_load } => all
                .filter(|&i| {
                    min_load.is_none_or(|m| loads[i] >= m) && max_load.is_none_or(|m| loads[i] <= m)
                })
                .collect(),
            Select::Lowest => all.min_by(by_load).into_iter().collect(),
            Select::Highest => all.max_by(by_load).into_iter().collect(),
        }
    }
}

/// `metric` of every case in `cases`, at every selected load, `op` the
/// right-hand side.
#[derive(Clone, Debug, PartialEq)]
pub struct Compare {
    /// The metric read on the left-hand side.
    pub metric: String,
    /// Labels of the cases under test.
    pub cases: Vec<String>,
    /// The comparison.
    pub op: Op,
    /// What the metric is compared against.
    pub rhs: Rhs,
    /// Which load points are read.
    pub select: Select,
}

/// At every grid load, `fixed` closes at least `fraction` of the gap
/// `worse` opened over `base`:
/// `worse − fixed >= fraction × (worse − base)` on `metric`.
#[derive(Clone, Debug, PartialEq)]
pub struct Recovers {
    /// The metric the gap is measured on.
    pub metric: String,
    /// Label of the reference case.
    pub base: String,
    /// Label of the case that opened the gap.
    pub worse: String,
    /// Label of the case that must close it.
    pub fixed: String,
    /// The fraction of the gap that must be closed.
    pub fraction: f64,
}

/// At every grid load, the time-series `series` of `case` settles after
/// the `[faults]` burst: its mean from `settle_windows` series intervals
/// past burst end onwards `op` `value ×` its pre-burst mean.
#[derive(Clone, Debug, PartialEq)]
pub struct Settles {
    /// Registry name of the series (listed in `[telemetry]`).
    pub series: String,
    /// Label of the case whose series is read.
    pub case: String,
    /// Settling deadline after burst end, in series intervals.
    pub settle_windows: usize,
    /// The comparison.
    pub op: Op,
    /// The factor on the pre-burst mean.
    pub value: f64,
}

/// One acceptance claim `lab --check` enforces over a scenario's report
/// — a `[[claim]]` table. Every quantitative statement a scenario makes
/// has one of these three shapes; cases are named by label and metrics
/// by their [`crate::report::PointMetrics`] field name (`name.N` indexes
/// a per-class vector), so a new claim is data, not code.
#[derive(Clone, Debug, PartialEq)]
pub enum Claim {
    /// A metric against a constant or another metric.
    Compare(Compare),
    /// A closed gap.
    Recovers(Recovers),
    /// A settled time-series.
    Settles(Settles),
}

/// Prints the claim's own keys in their `[[claim]]` spelling — the prefix
/// of every violation and validation error.
impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn opt<T: std::fmt::Debug>(key: &str, v: &Option<T>) -> String {
            v.as_ref()
                .map_or(String::new(), |v| format!(", {key} = {v:?}"))
        }
        match self {
            Claim::Compare(c) => {
                let (metric, cases, op) = (&c.metric, &c.cases, c.op.symbol());
                write!(f, "metric = {metric:?}, cases = {cases:?}, op = {op:?}")?;
                match &c.rhs {
                    Rhs::Value(v) => write!(f, ", value = {v:?}")?,
                    Rhs::Times {
                        times,
                        of,
                        of_metric,
                    } => {
                        let (of, of_metric) = (opt("of", of), opt("of_metric", of_metric));
                        write!(f, ", times = {times:?}{of}{of_metric}")?
                    }
                }
                match &c.select {
                    Select::Window { min_load, max_load } => {
                        let (min, max) = (opt("min_load", min_load), opt("max_load", max_load));
                        write!(f, "{min}{max}")
                    }
                    Select::Lowest => write!(f, ", at = \"lowest\""),
                    Select::Highest => write!(f, ", at = \"highest\""),
                }
            }
            Claim::Recovers(r) => write!(
                f,
                "recovers = [{:?}, {:?}, {:?}], metric = {:?}, fraction = {:?}",
                r.base, r.worse, r.fixed, r.metric, r.fraction
            ),
            Claim::Settles(s) => write!(
                f,
                "series = {:?}, case = {:?}, settle_windows = {}, op = {:?}, value = {:?}",
                s.series,
                s.case,
                s.settle_windows,
                s.op.symbol(),
                s.value
            ),
        }
    }
}

/// A validated experiment description. Construct via
/// [`Scenario::builder`] (or the TOML front end, which goes through the
/// same builder).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (also the baseline file stem).
    pub name: String,
    /// The shared workload.
    pub workload: WorkloadSpec,
    /// The cases (series) to run.
    pub cases: Vec<Case>,
    /// Measurement sizing.
    pub scale: ScaleSpec,
    /// Fleet topology shared by the scenario's `fleet:*` cases (required
    /// exactly when such a case exists).
    pub fleet: Option<FleetSpec>,
    /// The pipeline shared by the scenario's `sim:staged` cases (required
    /// exactly when such a case exists); cases reshape it via their
    /// layout/discipline knobs, see [`staged_plan`].
    pub stages: Option<Vec<StageSpec>>,
    /// Adversarial fault injections shared by every case (`None` injects
    /// nothing).
    pub faults: Option<FaultsSpec>,
    /// Telemetry recorded by simulator cases (`None` records nothing).
    pub telemetry: Option<TelemetrySpec>,
    /// Max-load@SLO search over every deterministic case.
    pub search: Option<SearchSpec>,
    /// Acceptance claims, in file order (empty: `--check` only diffs the
    /// baseline).
    pub claims: Vec<Claim>,
    /// Relative tolerance for baseline diffs (default 0.5 — smoke
    /// windows are deterministic but small, and the gate exists to catch
    /// regressions, not formatting noise).
    pub check_tolerance: f64,
}

impl Scenario {
    /// Starts a builder.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            service: None,
            arrivals: ArrivalSpec::Poisson,
            cores: 16,
            conns: 2752,
            loads: Vec::new(),
            cases: Vec::new(),
            scale: ScaleSpec::default(),
            fleet: None,
            stages: None,
            faults: None,
            telemetry: None,
            search: None,
            claims: Vec::new(),
            check_tolerance: 0.5,
        }
    }

    /// The case with `label`, if any.
    pub fn case(&self, label: &str) -> Option<&Case> {
        self.cases.iter().find(|c| c.label == label)
    }

    /// The load grid for a mode.
    pub fn loads(&self, smoke: bool) -> &[f64] {
        match (&self.scale.smoke_loads, smoke) {
            (Some(l), true) => l,
            _ => &self.workload.loads,
        }
    }
}

/// A rejected scenario: what contradicted what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SpecError { msg: msg.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Builds and validates a [`Scenario`].
pub struct ScenarioBuilder {
    name: String,
    service: Option<ServiceDist>,
    arrivals: ArrivalSpec,
    cores: usize,
    conns: u32,
    loads: Vec<f64>,
    cases: Vec<Case>,
    scale: ScaleSpec,
    fleet: Option<FleetSpec>,
    stages: Option<Vec<StageSpec>>,
    faults: Option<FaultsSpec>,
    telemetry: Option<TelemetrySpec>,
    search: Option<SearchSpec>,
    claims: Vec<Claim>,
    check_tolerance: f64,
}

impl ScenarioBuilder {
    /// Sets the service-time distribution (required).
    pub fn service(mut self, d: ServiceDist) -> Self {
        self.service = Some(d);
        self
    }

    /// Sets the arrival process (default Poisson).
    pub fn arrivals(mut self, a: ArrivalSpec) -> Self {
        self.arrivals = a;
        self
    }

    /// Sets the core count (default 16, the paper's testbed).
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Sets the connection count (default 2752, the paper's testbed).
    pub fn conns(mut self, n: u32) -> Self {
        self.conns = n;
        self
    }

    /// Sets the offered-load grid (required, non-empty).
    pub fn loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    /// Adds a case.
    pub fn case(mut self, case: Case) -> Self {
        self.cases.push(case);
        self
    }

    /// Sets full-mode measurement sizing.
    pub fn requests(mut self, requests: u64, warmup: u64) -> Self {
        self.scale.requests = requests;
        self.scale.warmup = warmup;
        self
    }

    /// Sets smoke-mode measurement sizing.
    pub fn smoke(mut self, requests: u64, warmup: u64) -> Self {
        self.scale.smoke_requests = requests;
        self.scale.smoke_warmup = warmup;
        self
    }

    /// Overrides the smoke-mode load grid.
    pub fn smoke_loads(mut self, loads: Vec<f64>) -> Self {
        self.scale.smoke_loads = Some(loads);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scale.seed = seed;
        self
    }

    /// Sets the fleet topology for `fleet:*` cases.
    pub fn fleet(mut self, f: FleetSpec) -> Self {
        self.fleet = Some(f);
        self
    }

    /// Sets the pipeline for `sim:staged` cases.
    pub fn stages(mut self, s: Vec<StageSpec>) -> Self {
        self.stages = Some(s);
        self
    }

    /// Arms scenario-wide adversarial fault injections.
    pub fn faults(mut self, f: FaultsSpec) -> Self {
        self.faults = Some(f);
        self
    }

    /// Arms scenario-wide telemetry (simulator cases).
    pub fn telemetry(mut self, t: TelemetrySpec) -> Self {
        self.telemetry = Some(t);
        self
    }

    /// Arms the max-load@SLO search over deterministic cases.
    pub fn search(mut self, s: SearchSpec) -> Self {
        self.search = Some(s);
        self
    }

    /// Adds an acceptance claim.
    pub fn claim(mut self, claim: Claim) -> Self {
        self.claims.push(claim);
        self
    }

    /// Sets the baseline-diff tolerance.
    pub fn check_tolerance(mut self, tol: f64) -> Self {
        self.check_tolerance = tol;
        self
    }

    /// Validates everything and returns the scenario.
    pub fn build(self) -> Result<Scenario, SpecError> {
        let err = |msg: String| Err(SpecError::new(msg));
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return err(format!(
                "name {:?} must be non-empty [a-zA-Z0-9_-] (it names the baseline file)",
                self.name
            ));
        }
        let Some(service) = self.service else {
            return err("a workload needs a service-time distribution".into());
        };
        if self.cores == 0 {
            return err("cores must be >= 1".into());
        }
        if self.conns == 0 {
            return err("conns must be >= 1".into());
        }
        // A scenario that wants only its max load @ SLO needs no grid: the
        // search probes loads of its own.
        if self.loads.is_empty() && self.search.is_none() {
            return err("the load grid is empty".into());
        }
        for grid in [Some(&self.loads), self.scale.smoke_loads.as_ref()]
            .into_iter()
            .flatten()
        {
            for &l in grid {
                if !(l > 0.0 && l <= 4.0) {
                    return err(format!("load {l} out of range (0, 4]"));
                }
            }
        }
        if self.scale.requests == 0 || self.scale.smoke_requests == 0 {
            return err("requests must be >= 1 in both modes".into());
        }
        if self.cases.is_empty() {
            return err("a scenario needs at least one case".into());
        }
        for (i, case) in self.cases.iter().enumerate() {
            if case.label.is_empty() {
                return err(format!("case {i} has an empty label"));
            }
            if self.cases[..i].iter().any(|c| c.label == case.label) {
                return err(format!("duplicate case label {:?}", case.label));
            }
            validate_case(case, self.cores)?;
        }
        let fleet_cases: Vec<&Case> = (self.cases.iter())
            .filter(|c| Readers::Fleet.reads(c.host))
            .collect();
        match (&self.fleet, fleet_cases.is_empty()) {
            (None, false) => {
                return err("fleet:* cases need a [fleet] block naming the shard count".into())
            }
            (Some(_), true) => {
                return err("a [fleet] block with no fleet:* case to shard".into());
            }
            _ => {}
        }
        if let Some(f) = &self.fleet {
            if f.shards == 0 {
                return err("fleet shards must be >= 1".into());
            }
            for case in &fleet_cases {
                let fail =
                    |msg: String| Err(SpecError::new(format!("case {:?}: {msg}", case.label)));
                let p = &case.policy;
                if p.routing == Some(RoutePolicy::PassThrough) && f.shards != 1 {
                    return fail(format!(
                        "pass-through routing is the 1-shard differential wire; \
                         this fleet has {} shards",
                        f.shards
                    ));
                }
                if let Some(degraded) = &p.degraded {
                    for &(shard, factor) in degraded {
                        if shard >= f.shards {
                            return fail(format!(
                                "degraded shard {shard} out of range [0, {})",
                                f.shards
                            ));
                        }
                        if !(factor.is_finite() && factor > 0.0) {
                            return fail(format!(
                                "degradation factor must be positive, got {factor}"
                            ));
                        }
                        if degraded.iter().filter(|d| d.0 == shard).count() > 1 {
                            return fail(format!("shard {shard} degraded twice"));
                        }
                    }
                }
                if let Some((shard, at_us)) = p.loss {
                    if shard >= f.shards {
                        return fail(format!("lost shard {shard} out of range [0, {})", f.shards));
                    }
                    if f.shards < 2 {
                        return fail("shard loss needs >= 2 shards (someone must survive)".into());
                    }
                    if !(at_us.is_finite() && at_us > 0.0) {
                        return fail(format!("loss time must be positive, got {at_us}"));
                    }
                    if !matches!(self.arrivals, ArrivalSpec::Poisson) {
                        return fail(
                            "shard loss re-plans survivor arrivals as phased Poisson; \
                             it needs the Poisson arrival process"
                                .into(),
                        );
                    }
                }
                if let Some(m) = p.fanout {
                    if m < 1 {
                        return fail("fanout must be >= 1".into());
                    }
                    if m > f.shards {
                        return fail(format!(
                            "fan-out {m} exceeds {} shards (replica sets are distinct)",
                            f.shards
                        ));
                    }
                    if m > 1 && p.loss.is_some() {
                        return fail(
                            "scatter-gather is incompatible with shard loss \
                             (a fanned request has no survivor re-plan)"
                                .into(),
                        );
                    }
                }
            }
        }
        if let Some(fl) = &self.faults {
            let Some((at_us, duration_us, factor)) = fl.burst else {
                return err("a [faults] block that injects nothing: arm burst".into());
            };
            if !matches!(self.arrivals, ArrivalSpec::Poisson) {
                return err("[faults] burst lowers onto phased Poisson; \
                     it needs the Poisson arrival process"
                    .into());
            }
            if self.cases.iter().any(|c| c.policy.loss.is_some()) {
                return err("[faults] burst and shard loss both re-plan arrivals; pick one".into());
            }
            for (v, what) in [
                (at_us, "at_us"),
                (duration_us, "duration_us"),
                (factor, "factor"),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    return err(format!("[faults] burst {what} must be positive, got {v}"));
                }
            }
        }
        let staged_cases: Vec<&Case> = (self.cases.iter())
            .filter(|c| Readers::Staged.reads(c.host))
            .collect();
        match (&self.stages, staged_cases.is_empty()) {
            (None, false) => {
                return err("staged cases need a [[stages]] block naming the pipeline".into())
            }
            (Some(_), true) => {
                return err("a [[stages]] block with no staged case to run it".into());
            }
            _ => {}
        }
        if let Some(stages) = &self.stages {
            for case in &staged_cases {
                if let Err(msg) = staged_plan(stages, &case.policy).validate(self.cores) {
                    return err(format!("case {:?}: {msg}", case.label));
                }
            }
        }
        if self
            .cases
            .iter()
            .any(|c| matches!(c.host, HostSpec::Model(_)))
        {
            for grid in [Some(&self.loads), self.scale.smoke_loads.as_ref()]
                .into_iter()
                .flatten()
            {
                if grid.iter().any(|&l| l >= 1.0) {
                    return err(
                        "zero-overhead queueing models are only stable below saturation: \
                         a model case needs every load < 1.0"
                            .into(),
                    );
                }
            }
        }
        if let Some(t) = &self.telemetry {
            if t.to_config().is_off() {
                return err(
                    "a [telemetry] block that records nothing: arm `trace` or list series".into(),
                );
            }
            if t.sample_period == 0 || t.series_every == 0 || t.max_series_points == 0 {
                return err("telemetry periods and caps must be >= 1".into());
            }
            // Every simulated world harvests series; fleet worlds never
            // trace (lifecycle correlation keys collide across shards).
            if t.trace
                && !self
                    .cases
                    .iter()
                    .any(|c| matches!(c.host, HostSpec::Sim(_)))
            {
                return err("lifecycle tracing is recorded by sim:* hosts only; \
                     every case here would silently record nothing"
                    .into());
            }
        }
        if let Some(s) = &self.search {
            if !(s.quantile > 0.0 && s.quantile < 1.0) {
                return err(format!(
                    "search quantile {} out of range (0, 1)",
                    s.quantile
                ));
            }
            if !s.bound_us.is_finite() || s.bound_us <= 0.0 {
                return err(format!(
                    "search bound_us must be positive, got {}",
                    s.bound_us
                ));
            }
            if !(2..=1000).contains(&s.resolution) {
                return err(format!(
                    "search resolution {} out of range [2, 1000]",
                    s.resolution
                ));
            }
            if self
                .cases
                .iter()
                .all(|c| matches!(c.host, HostSpec::Live(_)))
            {
                return err(
                    "a [search] block needs a deterministic (sim or model) case; \
                     a wall clock cannot binary-search loads honestly"
                        .into(),
                );
            }
        }
        validate_claims(
            &self.claims,
            &self.cases,
            &self.loads,
            &self.scale,
            self.faults.as_ref(),
            self.telemetry.as_ref(),
        )?;
        if self.check_tolerance <= 0.0 {
            return err("check tolerance must be positive".into());
        }
        Ok(Scenario {
            name: self.name,
            workload: WorkloadSpec {
                service,
                arrivals: self.arrivals,
                cores: self.cores,
                conns: self.conns,
                loads: self.loads,
            },
            cases: self.cases,
            scale: self.scale,
            fleet: self.fleet,
            stages: self.stages,
            faults: self.faults,
            telemetry: self.telemetry,
            search: self.search,
            claims: self.claims,
            check_tolerance: self.check_tolerance,
        })
    }
}

/// Per-case consistency: the host exists, it reads every knob the case
/// sets ([`CASE_KNOBS`]), and the values and cross-knob rules hold.
fn validate_case(case: &Case, cores: usize) -> Result<(), SpecError> {
    let p = &case.policy;
    let label = &case.label;
    let fail = |msg: String| Err(SpecError::new(format!("case {label:?}: {msg}")));
    for &(key, reads, is_set) in CASE_KNOBS {
        if is_set(p) && !reads(case.host) {
            let hosts: Vec<String> = HostSpec::all()
                .filter(|&h| reads(h))
                .map(|h| h.id())
                .collect();
            return fail(format!(
                "{} does not read {key}; only {} do",
                case.host.id(),
                hosts.join(", ")
            ));
        }
    }
    if let Some(q) = p.quantum_us {
        if q <= 0.0 {
            return fail(format!("quantum_us must be positive, got {q}"));
        }
    }
    if p.background_order.is_some() && p.quantum_us.is_none() {
        return fail("background_order orders the preempted queue; it needs quantum_us".into());
    }
    if let Some(m) = p.min_cores {
        if m == 0 || m > cores {
            return fail(format!("min_cores {m} out of range [1, {cores}]"));
        }
    }
    if p.retry.is_none() && p.retry_timeout_us.is_some() {
        return fail("retry_timeout_us feeds the retry loop; arm `retry` first".into());
    }
    if let Some(r) = &p.retry {
        // A policy with nothing to feed it never fires: retries are
        // triggered by sheds (admission) or client timeouts.
        if p.admission.is_none() && p.retry_timeout_us.is_none() {
            return fail(
                "a retry policy with nothing to feed it: arm admission (sheds) \
                 or retry_timeout_us (timeouts)"
                    .into(),
            );
        }
        if let Some(t) = p.retry_timeout_us {
            if !(t.is_finite() && t > 0.0) {
                return fail(format!("retry_timeout_us must be positive, got {t}"));
            }
        }
        if let RetryPolicy::Backoff {
            factor,
            max_attempts,
            ..
        } = r
        {
            if !(factor.is_finite() && *factor >= 1.0) {
                return fail(format!("backoff factor must be >= 1, got {factor}"));
            }
            if *max_attempts == 0 {
                return fail("backoff max_attempts must be >= 1".into());
            }
        }
    }
    // Host-independent admission consistency — the headline rejection:
    // a shed location without a gate to shed from.
    if let Some(a) = &p.admission {
        if a.target_us.is_none() && p.slo.is_none() {
            return fail(
                "admission with no credit pool: set credit_target_us, \
                 or SLO classes to derive targets from"
                    .into(),
            );
        }
        if let Some(t) = a.target_us {
            if t <= 0.0 {
                return fail(format!("credit_target_us must be positive, got {t}"));
            }
        }
    }
    Ok(())
}

/// The generic claim rules: everything a claim names must exist, and it
/// must read at least one point in every grid `--check` will see.
fn validate_claims(
    claims: &[Claim],
    cases: &[Case],
    loads: &[f64],
    scale: &ScaleSpec,
    faults: Option<&FaultsSpec>,
    telemetry: Option<&TelemetrySpec>,
) -> Result<(), SpecError> {
    let grids = [
        ("full", Some(loads)),
        ("smoke", scale.smoke_loads.as_deref()),
    ];
    for (i, claim) in claims.iter().enumerate() {
        let fail = |msg: String| {
            let n = i + 1;
            Err(SpecError::new(format!("claim #{n} {{{claim}}}: {msg}")))
        };
        // Everything the claim names: case labels, metrics, numbers.
        let (labels, metrics, numbers): (Vec<&String>, Vec<&String>, Vec<f64>) = match claim {
            Claim::Compare(c) => {
                let (factor, of, of_metric) = match &c.rhs {
                    Rhs::Value(v) => (*v, None, None),
                    Rhs::Times {
                        times,
                        of,
                        of_metric,
                    } => (*times, of.as_ref(), of_metric.as_ref()),
                };
                let window = match c.select {
                    Select::Window { min_load, max_load } => [min_load, max_load],
                    _ => [None, None],
                };
                (
                    c.cases.iter().chain(of).collect(),
                    [&c.metric].into_iter().chain(of_metric).collect(),
                    [factor]
                        .into_iter()
                        .chain(window.into_iter().flatten())
                        .collect(),
                )
            }
            Claim::Recovers(r) => (
                vec![&r.base, &r.worse, &r.fixed],
                vec![&r.metric],
                vec![r.fraction],
            ),
            Claim::Settles(s) => (vec![&s.case], vec![], vec![s.value]),
        };
        if let Some(m) = metrics.iter().find(|m| !crate::report::metric_exists(m)) {
            return fail(format!("unknown metric {m:?}"));
        }
        for (j, label) in labels.iter().enumerate() {
            if !cases.iter().any(|c| &c.label == *label) {
                return fail(format!("unknown case {label:?}"));
            }
            if labels[..j].contains(label) {
                return fail(format!("case {label:?} is named twice"));
            }
        }
        if numbers.iter().any(|n| !n.is_finite()) {
            return fail("every number must be finite".into());
        }
        match claim {
            Claim::Compare(c) => {
                if c.cases.is_empty() {
                    return fail("`cases` is empty".into());
                }
                if matches!(
                    &c.rhs,
                    Rhs::Times {
                        of: None,
                        of_metric: None,
                        ..
                    }
                ) {
                    return fail("`times` needs `of` and/or `of_metric` to multiply".into());
                }
                for (mode, grid) in grids {
                    let Some(grid) = grid else { continue };
                    if c.select.indices(grid).is_empty() {
                        return fail(format!(
                            "the load window selects no point of the {mode} grid {grid:?}"
                        ));
                    }
                    let extreme = !matches!(c.select, Select::Window { .. });
                    if extreme && grid.iter().all(|&l| l == grid[0]) {
                        return fail(format!(
                            "`at` needs two distinct loads; the {mode} grid is {grid:?}"
                        ));
                    }
                }
            }
            Claim::Recovers(_) => {}
            Claim::Settles(s) => {
                if faults.and_then(|f| f.burst).is_none() {
                    return fail(
                        "a settles claim settles after the [faults] burst; arm one".into(),
                    );
                }
                let series = &s.series;
                if !telemetry.is_some_and(|t| t.series.iter().any(|k| series.starts_with(k.name())))
                {
                    return fail(format!("series {series:?} is not listed in [telemetry]"));
                }
                let harvested = |c: &Case| c.label == s.case && matches!(c.host, HostSpec::Sim(_));
                if !cases.iter().any(harvested) {
                    return fail(format!(
                        "case {:?} must be a simulator host \
                         (only those harvest control-tick series)",
                        s.case
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zygos_load::source::Phase;

    fn base() -> ScenarioBuilder {
        Scenario::builder("t")
            .service(ServiceDist::exponential_us(10.0))
            .loads(vec![0.5])
    }

    #[test]
    fn minimal_scenario_builds() {
        let s = base().case(Case::sim("zygos", SimHost::Zygos)).build();
        let s = s.expect("valid");
        assert_eq!(s.cases.len(), 1);
        assert_eq!(s.cases[0].host.id(), "sim:zygos");
    }

    #[test]
    fn host_ids_round_trip() {
        let hosts: Vec<HostSpec> = HostSpec::all().collect();
        assert_eq!(
            hosts.len(),
            21,
            "14 single-world hosts and a fleet per sim:*"
        );
        for &host in &hosts {
            assert_eq!(HostSpec::parse(&host.id()).expect("parses"), host);
        }
        assert_eq!(HostSpec::Fleet(SimHost::Elastic).id(), "fleet:elastic");
        assert_eq!(
            HostSpec::parse("fleet:ix"),
            Ok(HostSpec::Fleet(SimHost::Ix))
        );
        for bad in [
            "sim:does-not-exist",
            "live:floating",
            "fleet:live:zygos",
            "fleet:model:central-fcfs",
            "fleet:fleet:zygos",
        ] {
            assert!(HostSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn scenarios_doc_renders_the_knob_table() {
        // docs/SCENARIOS.md carries CASE_KNOBS as a knob × host table, so
        // the doc cannot drift from what validation enforces.
        let hosts: Vec<HostSpec> = HostSpec::all().collect();
        let mut table = String::from("| knob |");
        for h in &hosts {
            table += &format!(" `{}` |", h.id());
        }
        table += &format!("\n|---|{}", "---|".repeat(hosts.len()));
        for &(key, reads, _) in CASE_KNOBS {
            table += &format!("\n| `{key}` |");
            for &h in &hosts {
                table += if reads(h) { " ✓ |" } else { " |" };
            }
        }
        let doc = include_str!("../../../docs/SCENARIOS.md");
        assert!(
            doc.contains(&table),
            "docs/SCENARIOS.md must contain the CASE_KNOBS table:\n{table}"
        );
    }

    #[test]
    fn contradictory_specs_are_rejected() {
        // Client-side admission with no pool to draw credits from.
        let e = base()
            .case(Case::sim("c", SimHost::Zygos).admission(AdmissionMode::ClientSide))
            .build()
            .expect_err("must reject");
        assert!(e.to_string().contains("no credit pool"), "{e}");
        // A preemption quantum on a host that cannot preempt.
        assert!(base()
            .case(Case::sim("q", SimHost::Ix).quantum_us(25.0))
            .build()
            .is_err());
        assert!(base()
            .case(Case::live("lq", LiveHost::Zygos).quantum_us(25.0))
            .build()
            .is_err());
        // Elastic knobs on a static host.
        assert!(base()
            .case(Case::sim("m", SimHost::Zygos).min_cores(2))
            .build()
            .is_err());
        // Background order without a quantum.
        assert!(base()
            .case(Case::sim("b", SimHost::Zygos).background_order(BackgroundOrder::Srpt))
            .build()
            .is_err());
        // Policy knobs on a zero-overhead model.
        assert!(base()
            .case(Case::model("p", Policy::CentralFcfs).rx_batch(64))
            .build()
            .is_err());
        // Duplicate labels.
        assert!(base()
            .case(Case::sim("x", SimHost::Zygos))
            .case(Case::sim("x", SimHost::Ix))
            .build()
            .is_err());
    }

    #[test]
    fn retry_specs_validate() {
        let backoff = RetryPolicy::Backoff {
            base_us: 20,
            factor: 2.0,
            max_attempts: 4,
        };
        // A retry policy with nothing to feed it (no sheds, no timeouts).
        let e = base()
            .case(Case::sim("r", SimHost::Zygos).retry(backoff))
            .build()
            .expect_err("nothing feeds it");
        assert!(e.to_string().contains("nothing to feed"), "{e}");
        // Retry on hosts that do not model the closed loop; every
        // simulated host does, through its client edge.
        for c in [
            Case::model("m", Policy::CentralFcfs)
                .retry(backoff)
                .retry_timeout_us(500.0),
            Case::live("lv", LiveHost::Zygos)
                .retry(backoff)
                .retry_timeout_us(500.0),
        ] {
            assert!(base().case(c).build().is_err());
        }
        assert!(base()
            .case(
                Case::sim("ix", SimHost::Ix)
                    .retry(backoff)
                    .retry_timeout_us(500.0)
            )
            .build()
            .is_ok());
        // A timeout without a policy to feed.
        assert!(base()
            .case(Case::sim("t", SimHost::Zygos).retry_timeout_us(500.0))
            .build()
            .is_err());
        // Degenerate policy parameters.
        assert!(base()
            .case(
                Case::sim("f", SimHost::Zygos)
                    .retry(RetryPolicy::Backoff {
                        base_us: 20,
                        factor: 0.5,
                        max_attempts: 4,
                    })
                    .retry_timeout_us(500.0)
            )
            .build()
            .is_err());
        // Timeout-fed retry on a plain sim host builds.
        base()
            .case(
                Case::sim("ok", SimHost::Zygos)
                    .retry(backoff)
                    .retry_timeout_us(500.0),
            )
            .build()
            .expect("valid");
    }

    #[test]
    fn fanout_specs_validate() {
        // Fan-out on a non-fleet host.
        assert!(base()
            .case(Case::sim("z", SimHost::Zygos).fanout(2))
            .build()
            .is_err());
        // Fan-out wider than the fleet.
        let e = base()
            .case(Case::fleet("f", SimHost::Zygos).fanout(5))
            .fleet(FleetSpec { shards: 4 })
            .build()
            .expect_err("wider than fleet");
        assert!(e.to_string().contains("exceeds"), "{e}");
        // Fan-out with shard loss.
        assert!(base()
            .case(Case::fleet("f", SimHost::Zygos).fanout(2).loss(0, 500.0))
            .fleet(FleetSpec { shards: 4 })
            .build()
            .is_err());
        base()
            .case(Case::fleet("f", SimHost::Zygos).fanout(4))
            .fleet(FleetSpec { shards: 4 })
            .build()
            .expect("valid");
    }

    #[test]
    fn faults_specs_validate() {
        let burst = FaultsSpec {
            burst: Some((2_000.0, 1_000.0, 1.5)),
        };
        // An empty block injects nothing.
        let e = base()
            .case(Case::sim("z", SimHost::Zygos))
            .faults(FaultsSpec::default())
            .build()
            .expect_err("empty faults");
        assert!(e.to_string().contains("injects nothing"), "{e}");
        // Burst needs Poisson arrivals.
        assert!(base()
            .arrivals(ArrivalSpec::Phased(vec![Phase {
                duration_us: 1_000.0,
                rate_factor: 1.0,
            }]))
            .case(Case::sim("z", SimHost::Zygos))
            .faults(burst.clone())
            .build()
            .is_err());
        // Burst and shard loss both re-plan arrivals.
        assert!(base()
            .case(Case::fleet("f", SimHost::Zygos).loss(0, 500.0))
            .fleet(FleetSpec { shards: 2 })
            .faults(burst.clone())
            .build()
            .is_err());
        // A non-positive burst factor.
        assert!(base()
            .case(Case::sim("z", SimHost::Zygos))
            .faults(FaultsSpec {
                burst: Some((2_000.0, 1_000.0, 0.0)),
            })
            .build()
            .is_err());
        // A valid burst rides along untouched.
        let sc = base()
            .case(Case::sim("z", SimHost::Zygos))
            .faults(burst.clone())
            .build()
            .expect("valid");
        assert_eq!(sc.faults, Some(burst));
    }

    #[test]
    fn staged_specs_validate() {
        let stages = || StagedConfig::zygos_equivalent().stages;
        // A staged case with no [[stages]] block to lower.
        let e = base()
            .case(Case::sim("s", SimHost::Staged))
            .build()
            .expect_err("no stages");
        assert!(e.to_string().contains("[[stages]]"), "{e}");
        // A [[stages]] block with no staged case to run it.
        let e = base()
            .case(Case::sim("z", SimHost::Zygos))
            .stages(stages())
            .build()
            .expect_err("no staged case");
        assert!(e.to_string().contains("no staged case"), "{e}");
        // Staged knobs on hosts that would silently drop them.
        let e = base()
            .case(Case::sim("z", SimHost::Zygos).layout(CoreLayout::Unified))
            .build()
            .expect_err("layout on zygos");
        assert!(e.to_string().contains("sim:staged"), "{e}");
        assert!(base()
            .case(Case::sim("ix", SimHost::Ix).discipline(QueueDiscipline::Cfcfs))
            .build()
            .is_err());
        // A layout the pipeline cannot satisfy (split of a 1-stage plan).
        let e = base()
            .case(Case::sim("s", SimHost::Staged).layout(CoreLayout::SplitNet { net_cores: 2 }))
            .stages(stages())
            .build()
            .expect_err("split of single stage");
        assert!(e.to_string().contains("case \"s\""), "{e}");
        // A staged fleet needs the pipeline too, and reads the staged knobs.
        let fleet = || {
            base()
                .case(
                    Case::fleet("f", SimHost::Staged).layout(CoreLayout::SplitNet { net_cores: 1 }),
                )
                .fleet(FleetSpec { shards: 2 })
        };
        assert!(fleet().build().is_err());
        assert!(fleet()
            .stages(StagedConfig::paper_pipeline(&zygos_net::cost::CostModel::zygos()).stages)
            .build()
            .is_ok());
        // A valid staged pair builds, and overrides flow into the plan.
        let sc = base()
            .case(Case::sim("unified", SimHost::Staged).discipline(QueueDiscipline::Cfcfs))
            .case(Case::sim("split", SimHost::Staged).layout(CoreLayout::SplitNet { net_cores: 1 }))
            .stages(StagedConfig::paper_pipeline(&zygos_net::cost::CostModel::zygos()).stages)
            .build()
            .expect("valid");
        let plan = staged_plan(
            sc.stages.as_ref().expect("kept"),
            &sc.case("unified").expect("exists").policy,
        );
        assert!(plan
            .stages
            .iter()
            .all(|s| s.discipline == QueueDiscipline::Cfcfs));
        assert_eq!(plan.layout, CoreLayout::Unified);
    }

    #[test]
    fn telemetry_needs_a_host_that_records() {
        // An all-off block is contradictory.
        let off = TelemetrySpec {
            trace: false,
            series: Vec::new(),
            ..TelemetrySpec::default()
        };
        let e = base()
            .case(Case::sim("z", SimHost::Zygos))
            .telemetry(off)
            .build()
            .expect_err("records nothing");
        assert!(e.to_string().contains("records nothing"), "{e}");
        // Tracing over hosts that record no lifecycle.
        let e = base()
            .case(Case::model("m", Policy::CentralFcfs))
            .telemetry(TelemetrySpec::default())
            .build()
            .expect_err("no traced host");
        assert!(e.to_string().contains("sim:* hosts only"), "{e}");
        // Every sim:* host traces: tracing on IX builds and lowers
        // faithfully.
        let sc = base()
            .case(Case::sim("ix", SimHost::Ix))
            .telemetry(TelemetrySpec {
                series: vec![SeriesKind::ActiveCores],
                series_every: 4,
                ..TelemetrySpec::default()
            })
            .build()
            .expect("valid");
        let cfg = sc.telemetry.as_ref().expect("kept").to_config();
        assert!(cfg.trace && !cfg.is_off());
        assert_eq!(cfg.series, vec![SeriesKind::ActiveCores]);
        assert_eq!(cfg.series_every, 4);
    }

    #[test]
    fn search_block_validates() {
        // A valid block builds and is carried through.
        let sc = base()
            .case(Case::sim("z", SimHost::Zygos))
            .search(SearchSpec {
                quantile: 0.99,
                bound_us: 100.0,
                resolution: 16,
            })
            .build()
            .expect("valid");
        assert_eq!(sc.search.as_ref().map(|s| s.resolution), Some(16));
        // A search needs no load grid; without one, an empty grid fails.
        let gridless = || {
            Scenario::builder("t")
                .service(ServiceDist::exponential_us(10.0))
                .case(Case::sim("z", SimHost::Zygos))
        };
        let sc =
            (gridless().search(SearchSpec::default()).build()).expect("a [search] needs no grid");
        assert!(sc.workload.loads.is_empty());
        let e = gridless().build().expect_err("no grid, no search");
        assert_eq!(e.to_string(), "invalid scenario: the load grid is empty");
        // A search over live-only cases has nothing honest to bisect.
        let e = Scenario::builder("t")
            .service(ServiceDist::exponential_us(200.0))
            .loads(vec![0.2])
            .case(Case::live("l", LiveHost::Zygos))
            .search(SearchSpec::default())
            .build()
            .expect_err("live only");
        assert!(e.to_string().contains("deterministic"), "{e}");
        // A degenerate resolution is rejected.
        assert!(base()
            .case(Case::sim("z", SimHost::Zygos))
            .search(SearchSpec {
                resolution: 1,
                ..SearchSpec::default()
            })
            .build()
            .is_err());
    }
}
