//! Full-system discrete-event simulation of the paper's testbed.
//!
//! A 16-core server behind a multi-queue NIC (real RSS mapping from
//! `zygos-net`), 2752 client connections, open-loop Poisson arrivals, and
//! three server models:
//!
//! * [`config::SystemKind::Zygos`] — the paper's system: per-core network
//!   stacks, shuffle queues with connection-granularity work stealing,
//!   remote batched syscalls, and IPIs ([`SystemKind::ZygosNoInterrupts`]
//!   disables the IPIs for the cooperative ablation).
//! * [`config::SystemKind::LinuxPartitioned`] / [`SystemKind::LinuxFloating`]
//!   — the epoll baselines with Linux's per-request kernel cost.
//! * [`config::SystemKind::Elastic`] — ZygOS under the `zygos-sched`
//!   control plane: a 25 µs control tick grants/revokes cores (through
//!   the SLO-margin `SloController`, fed per-tenant classes via
//!   [`SysConfig::slo`], which degrades to the `util + β·√util` rule
//!   without them), parked cores redirect their RSS queues
//!   and stop polling ([`SysOutput::avg_active_cores`] reports the
//!   grant), and a nonzero [`SysConfig::preemption_quantum_us`] arms
//!   Shinjuku-style quantum preemption: over-quantum application chunks
//!   are interrupted and their remainders continue from a background
//!   queue ordered FCFS-with-aging or SRPT
//!   ([`SysConfig::background_order`]). `fig12_elastic` sweeps both
//!   against the static systems.
//! * [`config::SystemKind::Staged`] — the staged service plane: a request
//!   as an explicit `net_poll → net_stack → app` pipeline with per-stage
//!   queues and disciplines (cFCFS / dFCFS / dFCFS+steal) and a
//!   [`staged::CoreLayout`] assigning core roles (unified run-to-completion
//!   vs dedicated net/app core splits); see [`staged`].
//!   [`config::SystemKind::Ix`] — shared-nothing run-to-completion with
//!   adaptive bounded batching (`rx_batch` = the paper's `B`) — runs on
//!   this engine as [`StagedConfig::paper_pipeline`]: unified layout, a
//!   per-core dFCFS head queue, no stealing.
//!
//! Every model routes its queue-pick decisions through the shared
//! `zygos_sched::DispatchPolicy` ladder (the same objects the live
//! runtime's workers walk) — this crate owns mechanisms, not order — and
//! runs behind one client edge: the arrival source, the recorder, a
//! [`SysConfig::admission`] credit gate (Breakwater-style AIMD credits),
//! the [`SysConfig::retry`] loop and the telemetry series are written
//! once for every model. `fig13` sweeps offered load past saturation to
//! show the admitted tail staying within 2× the SLO while ungated
//! policies diverge.
//!
//! Why a simulator: the original evaluation needs a 16-hyperthread Xeon,
//! Intel 82599 NICs and an 11-machine client cluster. This environment has
//! one CPU. Every result in the paper is a function of the arrival process,
//! the service-time distribution, the per-operation costs and the
//! scheduling policy — all of which the simulator reproduces exactly and
//! deterministically (the paper itself validates its steal rates against a
//! discrete-event simulation of the shuffle queue, §6.1). The per-operation
//! costs come from the calibrated [`zygos_net::cost::CostModel`].
//!
//! # Example
//!
//! ```
//! use zygos_sysim::{SysConfig, SystemKind, run_system};
//! use zygos_sim::dist::ServiceDist;
//!
//! let mut cfg = SysConfig::paper(
//!     SystemKind::Zygos,
//!     ServiceDist::exponential_us(10.0),
//!     0.6,
//! );
//! cfg.requests = 5_000;
//! cfg.warmup = 1_000;
//! let out = run_system(&cfg);
//! assert!(out.p99_us() > 46.0); // At least the service-time p99.
//! assert!(out.steal_fraction() > 0.0); // Work stealing is active.
//! ```

mod arena;
mod arrivals;
pub mod config;
pub mod driver;
mod edge;
pub mod fleet;
mod linux;
pub mod staged;
pub mod tail;
mod zygos;

pub use config::{AdmissionMode, SysConfig, SysOutput, SystemKind, CREDIT_HEADROOM};
pub use driver::{
    latency_throughput_sweep, latency_throughput_sweep_cold, max_load_at_quantile_slo_counting,
    run_system, run_system_chain, warmable, SweepPoint, WARM_MAX_GROWTH, WARM_MAX_LOAD,
};
pub use fleet::{run_fleet, run_fleet_threads, FleetConfig, FleetOutput, FLEET_SEED_STRIDE};
pub use staged::{CoreLayout, QueueDiscipline, StageSpec, StagedConfig};
pub use tail::{run_restart, TailConfig, TailOutput};
pub use zygos_load::route::RoutePolicy;
pub use zygos_load::source::ArrivalSpec;
// The telemetry vocabulary callers need to arm [`SysConfig::telemetry`]
// and to read [`SysOutput::telemetry`].
pub use zygos_telemetry::{SeriesKind, TelemetryConfig, TelemetryOut, TraceEvent, TraceKind};
