//! `zygos-telemetry` — the telemetry plane shared by both hosts.
//!
//! Three layers, each usable on its own (see `docs/OBSERVABILITY.md` for
//! the full catalog and the decomposition math):
//!
//! * [`trace`] — a per-core, zero-alloc, fixed-capacity ring-buffer
//!   tracer of request lifecycle points (arrival, admit/shed, enqueue,
//!   dispatch, steal, preempt, background-requeue, completion). The
//!   simulator stamps events with sim time; the live runtime stamps them
//!   with nanoseconds since ingress. Recording is a bounds-checked store
//!   into a preallocated ring — no allocation, no branching beyond the
//!   sampling gate — so the PR-5 hot loop stays inside its bench gate.
//! * [`registry`] — named, bounded time-series that
//!   both `zygos-sysim`'s control tick and the live runtime's worker-0
//!   control tick publish into, replacing ad-hoc output-field accretion.
//! * [`decomp`] — turns a merged event stream back into per-request
//!   sojourn decompositions (`total = queue + service + steal + preempt`,
//!   an exact partition) and per-quantile breakdowns, plus a Chrome
//!   trace-event emitter ([`chrome`]) for flamegraph-style inspection.
//!
//! # Example
//!
//! ```
//! use zygos_telemetry::trace::{TraceKind, Tracer};
//! use zygos_telemetry::decomp::{decompose, decomposition_at_quantile};
//!
//! let mut t = Tracer::new(1, 64, 1);
//! // One request: queued 900ns behind a long job, then 100ns of service.
//! t.record(0, 0, TraceKind::Arrival, 0);
//! t.record(0, 0, TraceKind::Enqueue, 10);
//! t.record(0, 0, TraceKind::Dispatch, 910);
//! t.record(0, 0, TraceKind::Completion, 1010);
//! let mut d = decompose(&t.collect());
//! assert_eq!(d.len(), 1);
//! assert_eq!(d[0].queue_ns, 910);
//! assert_eq!(d[0].service_ns, 100);
//! assert_eq!(d[0].total_ns, d[0].sum_ns());
//! let p99 = decomposition_at_quantile(&mut d, 0.99).unwrap();
//! assert_eq!(p99.total_ns, 1010);
//! ```

pub mod chrome;
pub mod decomp;
pub mod registry;
pub mod trace;

pub use chrome::ChromeTrace;
pub use decomp::{decompose, decomposition_at_quantile, Decomposition};
pub use registry::{Registry, SeriesId, TimeSeries};
pub use trace::{TraceEvent, TraceKind, Tracer};

/// Which time-series a host should harvest on its control tick.
///
/// The scenario plane lowers a `[telemetry]` block onto this; both hosts
/// publish under the same [`registry`] naming scheme so reports and tests
/// read one vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Admitted throughput over the tick window (MRPS).
    AdmittedRate,
    /// Credit pool capacity (total credits the AIMD gate will extend).
    CreditCapacity,
    /// Granted (unparked) cores.
    ActiveCores,
    /// Per-class shed rate over the tick window (one series per class).
    ShedByClass,
    /// p99 of completions inside the tick window (µs) — the signal the
    /// metastable-recovery gates read: unlike the whole-run histogram it
    /// forgets the burst once the burst is over.
    WindowP99,
    /// Retry re-issues over the tick window (MRPS of retried sends) —
    /// how hard the closed retry loop is feeding back.
    RetryRate,
}

impl SeriesKind {
    /// Canonical registry name (per-class kinds take a class suffix).
    pub fn name(&self) -> &'static str {
        match self {
            SeriesKind::AdmittedRate => "admitted_rate",
            SeriesKind::CreditCapacity => "credit_capacity",
            SeriesKind::ActiveCores => "active_cores",
            SeriesKind::ShedByClass => "shed_rate_class",
            SeriesKind::WindowP99 => "window_p99_us",
            SeriesKind::RetryRate => "retry_rate",
        }
    }

    /// Parses the scenario-plane spelling.
    pub fn parse(s: &str) -> Option<SeriesKind> {
        Some(match s {
            "admitted_rate" => SeriesKind::AdmittedRate,
            "credit_capacity" => SeriesKind::CreditCapacity,
            "active_cores" => SeriesKind::ActiveCores,
            "shed_by_class" => SeriesKind::ShedByClass,
            "window_p99_us" => SeriesKind::WindowP99,
            "retry_rate" => SeriesKind::RetryRate,
            _ => return None,
        })
    }
}

/// Telemetry knobs a host run is configured with.
///
/// `None`-like defaults everywhere: an all-off config records nothing and
/// costs one predictable branch per lifecycle point.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Arm the lifecycle tracer.
    pub trace: bool,
    /// Record every `sample_period`-th request (1 = every request). The
    /// gate is per-request, not per-event: a sampled request's whole
    /// lifecycle is recorded so decomposition never sees torn lifecycles.
    pub sample_period: u32,
    /// Time-series to harvest on the control tick.
    pub series: Vec<SeriesKind>,
    /// Harvest one series point every `series_every` control ticks.
    pub series_every: u32,
    /// Hard cap on stored points per series (oldest kept; the tail is
    /// dropped and counted, never reallocated).
    pub max_series_points: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace: false,
            sample_period: 1,
            series: Vec::new(),
            series_every: 1,
            max_series_points: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Full-fidelity tracing, no series: what `lab trace` runs with.
    pub fn full_trace() -> Self {
        TelemetryConfig {
            trace: true,
            ..TelemetryConfig::default()
        }
    }

    /// True when this config asks for nothing at all.
    pub fn is_off(&self) -> bool {
        !self.trace && self.series.is_empty()
    }
}

/// What a traced host run hands back: the merged event stream plus the
/// harvested time-series, both deterministic for deterministic hosts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryOut {
    /// Lifecycle events, in recording order per core (core 0's first;
    /// see [`Tracer::collect`]). Not time-sorted: group by request, as
    /// [`decompose`] does.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wrap-around (0 = complete capture).
    pub dropped: u64,
    /// Harvested time-series (time in µs since run start).
    pub series: Vec<TimeSeries>,
}

impl TelemetryOut {
    /// Prefixes every series name with `prefix` — the fleet plane's
    /// per-shard namespacing (`shard3/credit.capacity`), applied before
    /// shard harvests are merged into one fleet-level report so the
    /// registry's flat names stay unambiguous. Lifecycle events are left
    /// untouched: their correlation keys are per-world sequence numbers,
    /// which collide across shards — the fleet host merges series only.
    pub fn namespace_series(&mut self, prefix: &str) {
        for s in &mut self.series {
            s.name = format!("{prefix}{}", s.name);
        }
    }
}
