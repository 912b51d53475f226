//! Open-loop load generation and SLO measurement (mutilate-style, §3.1).
//!
//! * [`recorder`] — thread-safe latency recording for the live runtime
//!   (a shared log-bucketed histogram behind a mutex).
//! * [`slo`] — SLO specifications (`p99 ≤ k·S̄`), multi-tenant SLO classes
//!   ([`slo::TenantSlos`]: the source of the allocation ratio, the
//!   per-class credit-AIMD targets, and the weighted-fair shed order),
//!   and the control tick's latency window ([`slo::ControlWindow`]) both
//!   hosts read their SLO ratio, credit ratio and window tail from.
//! * [`retry`] — reject-aware retry policies ([`retry::RetryPolicy`]:
//!   drop / exponential backoff) for clients facing a
//!   credit-gated server.
//! * [`route`] — L4 connection routing for the fleet host
//!   ([`route::Balancer`]): pluggable policies (pass-through,
//!   consistent-hash, least-loaded, power-of-two-choices) mapping client
//!   connections onto server shards, with capacity weights and
//!   shard-loss remap.
//! * [`source`] — arrival processes as one enum ([`source::Arrivals`],
//!   built by [`ArrivalSpec::source`]): the paper's constant-rate Poisson
//!   ("incoming requests follow a Poisson inter-arrival time"),
//!   piecewise-Poisson phases, and trace replay from a timestamped
//!   request log ([`source::Trace`]) — the scenario plane's workload
//!   input.
//!
//! Everything here is host-agnostic: the live runtime, the discrete-event
//! simulator and the tests consume the same arrival processes, SLO
//! arithmetic and retry decisions.

pub mod recorder;
pub mod retry;
pub mod route;
pub mod slo;
pub mod source;

pub use recorder::SharedRecorder;
pub use retry::{RetryDecision, RetryPolicy};
pub use route::{Balancer, RoutePolicy};
pub use slo::{ControlWindow, Slo, WindowSignals};
pub use source::{ArrivalSpec, Arrivals, Trace};
