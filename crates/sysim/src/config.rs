//! Experiment configuration and output types.

use zygos_load::retry::RetryPolicy;
use zygos_load::slo::TenantSlos;
use zygos_load::source::ArrivalSpec;
use zygos_net::cost::CostModel;
use zygos_sched::{BackgroundOrder, CreditConfig};
use zygos_sim::dist::ServiceDist;
use zygos_sim::stats::LatencyHistogram;
use zygos_telemetry::{TelemetryConfig, TelemetryOut};

use crate::staged::StagedConfig;

/// Which system model to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// ZygOS with work stealing and IPIs.
    Zygos,
    /// ZygOS in purely cooperative mode (no IPIs) — the
    /// `ZygOS (no interrupts)` curve of Figure 6.
    ZygosNoInterrupts,
    /// ZygOS with the `zygos-sched` elastic control plane: a periodic
    /// controller grants/revokes cores with hysteresis, parked cores hand
    /// their RSS queues to active ones, and (with a nonzero
    /// [`SysConfig::preemption_quantum_us`]) long application chunks are
    /// preempted at quantum expiry and requeued.
    Elastic {
        /// Floor on granted cores (the controller never parks below this).
        min_cores: usize,
    },
    /// IX: shared-nothing run-to-completion with adaptive bounded batching
    /// ([`SysConfig::rx_batch`] = the paper's `B`). Runs on the staged
    /// engine as [`StagedConfig::paper_pipeline`] (unified layout, per-core
    /// dFCFS head queue, no stealing) and ignores [`SysConfig::staged`].
    Ix,
    /// Linux, connections partitioned across epoll sets.
    LinuxPartitioned,
    /// Linux, one shared (floating) epoll set behind a lock.
    LinuxFloating,
    /// The staged service plane: a request as an explicit multi-phase
    /// pipeline (`net_poll → net_stack → app`) with per-stage queues and
    /// a core layout, described by [`SysConfig::staged`]. The degenerate
    /// single-stage pipeline runs as plain [`SystemKind::Zygos`],
    /// bit-for-bit (see `crate::staged`).
    Staged,
}

impl SystemKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Zygos => "ZygOS",
            SystemKind::ZygosNoInterrupts => "ZygOS (no interrupts)",
            SystemKind::Elastic { .. } => "ZygOS (elastic)",
            SystemKind::Ix => "IX",
            SystemKind::LinuxPartitioned => "Linux (partitioned connections)",
            SystemKind::LinuxFloating => "Linux (floating connections)",
            SystemKind::Staged => "Staged pipeline",
        }
    }
}

/// Which [`zygos_sched::AllocPolicy`] the elastic controller runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocKind {
    /// The PR-1 `util + β·√util` rule ([`zygos_sched::UtilizationPolicy`]).
    Utilization,
    /// The SLO-margin controller ([`zygos_sched::SloController`]) — the
    /// default. Without a configured [`SysConfig::slo`] it receives no
    /// latency signal and degrades to exactly the utilization rule, so the
    /// default is safe for SLO-less experiments.
    #[default]
    SloDriven,
}

pub use zygos_load::slo::CREDIT_HEADROOM;

/// Where the credit gate sheds a request that finds no credit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionMode {
    /// At the server edge: the request travels the wire, is rejected on
    /// arrival, and the explicit reject travels back — a full RTT burned
    /// per shed request (what PR 2 shipped).
    #[default]
    ServerEdge,
    /// At the client: credits are distributed to senders (Breakwater's
    /// sender-side scheme, piggybacked on response headers in the live
    /// runtime's wire format), so a creditless request is never *sent* —
    /// the shed costs zero wire RTT. The simulator models the converged
    /// state of that distribution: the client consults the shared pool
    /// before issuing the request.
    ClientSide,
}

/// Control-plane knobs for [`SystemKind::Elastic`]: the controller's tick
/// period plus the allocator's shared decision-rule tuning (see
/// [`zygos_sched::AllocatorTuning`] for each knob's meaning).
#[derive(Clone, Copy, Debug)]
pub struct ElasticKnobs {
    /// Controller tick period in microseconds.
    pub control_period_us: f64,
    /// Allocator decision-rule knobs.
    pub tuning: zygos_sched::AllocatorTuning,
    /// Which allocation policy staffs the data plane.
    pub alloc: AllocKind,
}

impl Default for ElasticKnobs {
    fn default() -> Self {
        ElasticKnobs {
            control_period_us: 25.0,
            tuning: zygos_sched::AllocatorTuning::default(),
            alloc: AllocKind::default(),
        }
    }
}

/// Full configuration of one system-simulation run.
#[derive(Clone, Debug)]
pub struct SysConfig {
    /// System model under test.
    pub system: SystemKind,
    /// Number of server cores (paper: 16 hyperthreads).
    pub cores: usize,
    /// Number of client connections (paper: 2752).
    pub conns: u32,
    /// Offered load as a fraction of ideal saturation
    /// (`λ = load · cores / S̄`).
    pub load: f64,
    /// Shape of the arrival process ([`ArrivalSpec::Poisson`] is the
    /// paper's constant-rate process; phases and trace replay modulate
    /// the instantaneous rate while preserving the long-run mean, so
    /// [`SysConfig::load`] keeps meaning "fraction of ideal saturation").
    pub arrivals: ArrivalSpec,
    /// Application service-time distribution.
    pub service: ServiceDist,
    /// Per-operation cost model.
    pub cost: CostModel,
    /// Receive batch bound `B` (IX adaptive bounded batching; ZygOS RX
    /// path). `1` disables batching.
    pub rx_batch: u64,
    /// Completions to measure after warmup.
    pub requests: u64,
    /// Completions to discard first.
    pub warmup: u64,
    /// RNG seed.
    pub seed: u64,
    /// Randomize the victim order of steal sweeps (§5; `false` scans
    /// victims in core order — an ablation knob, see
    /// `ablation_steal_ipi`).
    pub randomize_steal_order: bool,
    /// Preemptive time-slice for application execution in the ZygOS-family
    /// models, in microseconds; `0.0` (the paper's behaviour) runs every
    /// request to completion. At quantum expiry the simulator interrupts
    /// the in-flight chunk (reusing the IPI/epoch machinery), charges the
    /// IPI-handler cost, and moves the remainder to a low-priority
    /// background queue that runs only in idle gaps (approximate SJF;
    /// aging promotes entries after ~20 quanta so sustained overload
    /// cannot starve them).
    pub preemption_quantum_us: f64,
    /// Ordering of the background (preempted) queue — FCFS-with-aging or
    /// SRPT on the remaining-time stamps a preempted request carries.
    pub background_order: BackgroundOrder,
    /// Controller knobs; consulted only by [`SystemKind::Elastic`].
    pub elastic: ElasticKnobs,
    /// Credit-based admission control (Breakwater-style) at every
    /// simulated host's client edge: arrivals without a credit are shed
    /// before any processing, and an AIMD controller resizes the pool from
    /// the measured window tail latency ([`CreditConfig::target`] is in µs
    /// here). With [`SysConfig::slo`] also set, the AIMD target is derived
    /// *per tenant class* from the SLO bounds (at [`crate::CREDIT_HEADROOM`])
    /// and the loosest class sheds first. `None` admits everything — the
    /// paper's behaviour.
    pub admission: Option<CreditConfig>,
    /// Whether the credit gate sheds at the server edge (burning an RTT
    /// per reject) or at the client (creditless requests are never sent).
    /// Ignored unless [`SysConfig::admission`] is set.
    pub admission_mode: AdmissionMode,
    /// Closed-loop retry feedback at every simulated host's client edge:
    /// a shed request (client-side credit refusal or server-edge reject)
    /// and a timed-out request ([`SysConfig::retry_timeout_us`]) re-enter
    /// the arrival stream through this policy instead of vanishing — the
    /// behaviour that turns overload into retry storms and, unchecked, into
    /// metastable failure. `None` (the default) keeps the pure open-loop
    /// world: sheds are final.
    pub retry: Option<RetryPolicy>,
    /// Apply deterministic per-connection jitter to
    /// [`RetryPolicy::Backoff`] delays
    /// ([`RetryPolicy::on_shed_jittered`]). Ignored without
    /// [`SysConfig::retry`].
    pub retry_jitter: bool,
    /// Client request timeout in microseconds: a request not completed
    /// within this budget is abandoned by the client and fed to the
    /// retry policy (the server still finishes the stale work — that
    /// wasted service is exactly the metastable-failure fuel). `None`
    /// disables timeouts; requires [`SysConfig::retry`] to have any
    /// effect.
    pub retry_timeout_us: Option<f64>,
    /// Per-tenant SLO classes (connection → class round-robin). Feeds the
    /// worst p99-vs-bound ratio to the [`AllocKind::SloDriven`] controller
    /// and, with [`SysConfig::admission`], the per-class credit targets
    /// and weighted-fair shed order.
    pub slo: Option<TenantSlos>,
    /// Staged-pipeline description (stage table + core layout); consulted
    /// only by [`SystemKind::Staged`]. `None` on a staged run falls back
    /// to [`StagedConfig::paper_pipeline`]. [`SystemKind::Ix`] runs on the
    /// same engine but always with the paper pipeline; every other system
    /// kind ignores it (and keeps it `None`, which is what the degenerate
    /// staged host's bit-identity to plain ZygOS rides on).
    pub staged: Option<StagedConfig>,
    /// Telemetry plane: control-tick time-series (every simulated host) and
    /// lifecycle tracing (the ZygOS-family models; see
    /// `zygos_telemetry::TelemetryConfig`). `None` — the default — costs
    /// one untaken branch per lifecycle point. Tracing only *records*: it
    /// never touches an RNG or reorders an event, so every other
    /// [`SysOutput`] field is bit-identical traced or not.
    pub telemetry: Option<TelemetryConfig>,
}

impl SysConfig {
    /// A 16-core, 2752-connection configuration matching the paper's
    /// testbed, with defaults suitable for figure regeneration.
    pub fn paper(system: SystemKind, service: ServiceDist, load: f64) -> Self {
        let cost = match system {
            SystemKind::Zygos
            | SystemKind::ZygosNoInterrupts
            | SystemKind::Elastic { .. }
            | SystemKind::Staged => CostModel::zygos(),
            SystemKind::Ix => CostModel::ix(),
            SystemKind::LinuxPartitioned | SystemKind::LinuxFloating => CostModel::linux(),
        };
        let rx_batch = match system {
            // IX is evaluated with batching disabled unless stated (§3.3).
            SystemKind::Ix => 1,
            // ZygOS batches adaptively on the RX path only (§6.2); the
            // staged plane batches at the pipeline head the same way.
            SystemKind::Zygos
            | SystemKind::ZygosNoInterrupts
            | SystemKind::Elastic { .. }
            | SystemKind::Staged => 64,
            _ => 1,
        };
        let staged = match system {
            SystemKind::Staged => Some(StagedConfig::paper_pipeline(&cost)),
            _ => None,
        };
        SysConfig {
            system,
            cores: 16,
            conns: 2752,
            load,
            arrivals: ArrivalSpec::Poisson,
            service,
            cost,
            rx_batch,
            requests: 60_000,
            warmup: 10_000,
            seed: 0x5A47,
            randomize_steal_order: true,
            preemption_quantum_us: 0.0,
            background_order: BackgroundOrder::Fcfs,
            elastic: ElasticKnobs::default(),
            admission: None,
            admission_mode: AdmissionMode::default(),
            retry: None,
            retry_jitter: true,
            retry_timeout_us: None,
            slo: None,
            staged,
            telemetry: None,
        }
    }

    /// Arrival rate in requests per microsecond.
    pub fn lambda_per_us(&self) -> f64 {
        self.load * self.cores as f64 / self.service.mean_us()
    }
}

/// Measured output of a system-simulation run.
#[derive(Clone)]
pub struct SysOutput {
    /// End-to-end (client-observed) latency histogram.
    pub latency: LatencyHistogram,
    /// Completions measured (excludes warmup).
    pub completed: u64,
    /// Requests generated by the arrival source over the whole run
    /// (including warmup and shed requests). With
    /// [`SysOutput::completed_total`] and [`SysOutput::rejected`] this
    /// closes the conservation identity a cold run obeys at drain:
    /// `generated + retries == completed_total + rejected + in_flight`,
    /// with `in_flight >= 0` the requests still queued, in service, or
    /// waiting out a backoff delay when the completion target stopped
    /// the engine ([`SysOutput::retries`] is zero without a retry
    /// policy, recovering the pre-retry identity). (Warm-started
    /// segments inherit a source mid-stream, so the identity is
    /// per-chain there, not per-segment.)
    pub generated: u64,
    /// Completions over the whole run, warmup included (the measured
    /// window is [`SysOutput::completed`]).
    pub completed_total: u64,
    /// Discrete events the engine processed over the whole run (including
    /// warmup) — a machine-independent cost count: the benchmark's
    /// `sysim.*.events_per_req` probes divide it by completions, and
    /// `driver.rs`'s `warm_chain_processes_a_fraction_of_the_cold_events`
    /// gates warm-start chains on it.
    pub events: u64,
    /// Simulated duration in microseconds (measurement window).
    pub sim_time_us: f64,
    /// Events executed on their home core. The staged engine (IX
    /// included) counts an item when a core takes it from its own queue,
    /// so a batch still in flight when the run stops is counted too.
    pub local_events: u64,
    /// Events executed on a stealing core.
    pub stolen_events: u64,
    /// IPIs delivered.
    pub ipis: u64,
    /// Quantum-expiry preemptions (0 unless `preemption_quantum_us` > 0).
    pub preemptions: u64,
    /// Time-averaged granted cores over the run. Equals the configured core
    /// count for statically provisioned systems; below it when
    /// [`SystemKind::Elastic`] parks cores.
    pub avg_active_cores: f64,
    /// Requests admitted past the credit gate (0 when admission is off).
    pub admitted: u64,
    /// Requests shed by the credit gate (0 when admission is off).
    pub rejected: u64,
    /// Shed requests that burned wire RTT (travelled to the server and
    /// were rejected there). Every reject under
    /// [`AdmissionMode::ServerEdge`]; zero under
    /// [`AdmissionMode::ClientSide`], where creditless requests are never
    /// sent.
    pub wire_rejects: u64,
    /// Round-trip wire latency (µs) charged per wire-travelling reject.
    pub rtt_us: f64,
    /// Retry re-issues the closed feedback loop put back into the
    /// arrival stream (0 without [`SysConfig::retry`]) — each one is an
    /// extra offered request the open-loop source never emitted, so
    /// `(generated + retries) / generated` is the retry amplification
    /// the clients inflicted on themselves.
    pub retries: u64,
    /// Logical requests the retry policy permanently abandoned after at
    /// least one shed or timeout (0 without [`SysConfig::retry`]).
    pub give_ups: u64,
    /// Client-side timeout expiries that fed the retry policy (0 unless
    /// [`SysConfig::retry_timeout_us`] is armed).
    pub timeouts: u64,
    /// Requests shed per tenant SLO class (one slot per class; a single
    /// slot when no [`SysConfig::slo`] is configured).
    pub rejected_by_class: Vec<u64>,
    /// Requests admitted per tenant SLO class (same shape as
    /// [`SysOutput::rejected_by_class`]). With round-robin class
    /// assignment every class is offered near-equal load, so
    /// `admitted_c / (admitted_c + rejected_c)` is the class's admit
    /// rate — what the per-class occupancy rule guarantees a floor for.
    pub admitted_by_class: Vec<u64>,
    /// Items that finished each pipeline stage's processing, in stage
    /// order — the staged plane's conservation ledger (non-increasing
    /// along the pipeline; the final entry equals
    /// [`SysOutput::completed_total`]). Filled by the staged engine
    /// ([`SystemKind::Staged`] and [`SystemKind::Ix`]); empty on ZygOS
    /// and Linux runs and on the degenerate staged run delegated to the
    /// ZygOS model.
    pub stage_counts: Vec<u64>,
    /// p99 queue wait (µs) ahead of each pipeline stage over the
    /// measurement window — the staged plane's tail-decomposition
    /// buckets. `0` for stages that run back-to-back inside a segment
    /// (they have no queue; on IX only `net_poll`, the RX queue, is
    /// non-zero); empty wherever [`SysOutput::stage_counts`] is.
    pub stage_p99_wait_us: Vec<f64>,
    /// Telemetry harvest: the merged lifecycle event stream and the
    /// control-tick time-series. `None` unless [`SysConfig::telemetry`]
    /// armed the plane. Every host reports series; the staged engine (IX
    /// included) and the Linux models record no lifecycle events.
    pub telemetry: Option<TelemetryOut>,
}

impl SysOutput {
    /// 99th-percentile end-to-end latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.p99_us()
    }

    /// Measured throughput in requests per microsecond (≈ MRPS).
    pub fn throughput_mrps(&self) -> f64 {
        if self.sim_time_us == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.sim_time_us
        }
    }

    /// Figure 8's metric: fraction of events executed by a non-home core.
    pub fn steal_fraction(&self) -> f64 {
        let total = self.local_events + self.stolen_events;
        if total == 0 {
            0.0
        } else {
            self.stolen_events as f64 / total as f64
        }
    }

    /// Core-seconds consumed over the measurement window — the elastic
    /// controller's cost metric (granted cores × wall time, whether busy
    /// or polling: a granted core burns its CPU either way).
    pub fn core_seconds_used(&self) -> f64 {
        self.avg_active_cores * self.sim_time_us / 1_000_000.0
    }

    /// Fraction of arrivals shed by the credit gate (0 with admission
    /// off). The complement of the paper's "goodput" view: admitted
    /// requests keep a bounded tail; this is what the surplus paid.
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }

    /// Total wire time (µs) burned by shed requests: requests that
    /// travelled to the server only to be rejected, plus their reject
    /// replies. The cost client-side credit distribution exists to
    /// eliminate — creditless requests are dropped (or retried later) at
    /// the sender for free.
    pub fn wasted_wire_us(&self) -> f64 {
        self.wire_rejects as f64 * self.rtt_us
    }

    /// The fraction of **all sheds** that fell on one tenant class:
    /// `rejected_c / Σ rejected`. With round-robin class assignment every
    /// class is offered (near-)equal load, so this share is the direct
    /// reading of the weighted-fair claim: "the loosest class sheds
    /// first" means its share approaches 1. It is *not* a per-class shed
    /// rate; that is [`SysOutput::shed_rate_of_class`].
    pub fn shed_share_of_class(&self, class: usize) -> f64 {
        let total: u64 = self.rejected_by_class.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.rejected_by_class[class] as f64 / total as f64
        }
    }

    /// The fraction of one class's **own offered load** that was shed:
    /// `rejected_c / (admitted_c + rejected_c)`. Unlike
    /// [`SysOutput::shed_share_of_class`] this is a per-class rate, so it
    /// can certify a floor ("the batch class still admits ≥ x% of its
    /// arrivals under strict-tenant saturation").
    pub fn shed_rate_of_class(&self, class: usize) -> f64 {
        let offered = self.admitted_by_class[class] + self.rejected_by_class[class];
        if offered == 0 {
            0.0
        } else {
            self.rejected_by_class[class] as f64 / offered as f64
        }
    }

    /// How many offered requests each generated request turned into:
    /// `(generated + retries) / generated`. 1.0 with retries off; the
    /// divergence signal of a retry storm — naive immediate retry under
    /// sustained overload pushes it toward `1 + max_attempts`.
    pub fn retry_amplification(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            (self.generated + self.retries) as f64 / self.generated as f64
        }
    }

    /// Fraction of generated (logical) requests the client did *not*
    /// abandon: `1 - give_ups / generated`. The retry plane's goodput
    /// reading — with retries off nothing is ever given up and this is
    /// 1.0, even though the gate may still be shedding (those sheds are
    /// final but counted in [`SysOutput::shed_fraction`]).
    pub fn goodput_fraction(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            1.0 - self.give_ups as f64 / self.generated as f64
        }
    }

    /// Retry re-issues per generated request — the per-request feedback
    /// rate (`retry_amplification() - 1`).
    pub fn retry_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.retries as f64 / self.generated as f64
        }
    }

    /// Permanent client abandons per generated request
    /// (`1 - goodput_fraction()`).
    pub fn give_up_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.give_ups as f64 / self.generated as f64
        }
    }

    /// Preemptions per measured request.
    pub fn preemptions_per_req(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.preemptions as f64 / self.completed as f64
        }
    }
}
