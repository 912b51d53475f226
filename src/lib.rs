//! # ZygOS — work-conserving scheduling for µs-scale networked tasks
//!
//! A from-scratch Rust reproduction of *ZygOS: Achieving Low Tail Latency
//! for Microsecond-scale Networked Tasks* (Prekas, Kogias, Bugnion —
//! SOSP 2017).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! * [`sim`] — discrete-event simulation kernel, distributions and the four
//!   idealized queueing models of the paper's §2.3.
//! * [`net`] — the network substrate: packets, RSS, NIC descriptor rings,
//!   TCP-like framing, and the calibrated cost model.
//! * [`core`] — the paper's contribution as reusable machinery: shuffle
//!   queues, per-connection state machines, idle-loop policy, IPI doorbells.
//! * [`sysim`] — the full-system simulator with the ZygOS, IX and Linux
//!   system models used to regenerate every figure, plus the
//!   `SystemKind::Elastic` model combining them with the `sched` control
//!   plane.
//! * [`sched`] — the **policy plane**: every dispatch and allocation
//!   decision in the workspace, written once. A `DispatchPolicy` trait
//!   (rung-ladder dispatch, steal/preempt/background-order decisions)
//!   drives both the simulator's system models and the live runtime's
//!   workers; one `SloController` (SLO-margin staffing over the
//!   `util + β·√util` `CoreAllocator`, to which it reduces without an
//!   SLO) staffs the elastic data plane on both hosts; Breakwater-style
//!   credits (`CreditPool`/`CreditGate`) shed load under overload — per-tenant
//!   SLO-derived AIMD targets, weighted fair shedding (loosest class
//!   first), and sender-side credit grants piggybacked on response
//!   headers. Knobs: `SysConfig::{preemption_quantum_us,
//!   background_order, admission, admission_mode, slo}`,
//!   `SchedulerKind::Elastic` and `RuntimeConfig::{admission, slo,
//!   client_credits}`.
//! * [`silo`] — a Silo-style OCC in-memory transactional database with a
//!   complete TPC-C implementation.
//! * [`kv`] — a memcached-like key-value store with USR/ETC workloads.
//! * [`load`] — open-loop arrival processes (one `Arrivals` enum:
//!   Poisson, phased, trace replay), SLO tooling (`TenantSlos`: per-class
//!   bounds, credit targets, shed order; `ControlWindow`: the control
//!   tick's latency window both hosts read) and reject-aware retry
//!   policies.
//! * [`runtime`] — a live multithreaded implementation of the ZygOS
//!   scheduler (plus IX / Linux baselines) over a loopback transport,
//!   running the same closed SLO loop as the simulator from a measured
//!   (ingress-stamped) latency signal.
//! * [`lab`] — the **scenario plane**: one declarative experiment API
//!   over every host. A `Scenario` (workload incl. trace-replay
//!   arrivals, cases over sim/live/model hosts, policy, claims) is the
//!   single way experiments are described; `lab run scenarios/*.toml
//!   --smoke --check` is the regression gate, and every fig binary is a
//!   thin wrapper over a scenario.
//!
//! See `docs/ARCHITECTURE.md` for the crate map, the policy plane and
//! the end-to-end SLO loop; `docs/SCENARIOS.md` for the scenario spec
//! format and baseline-check workflow; `docs/FIGURES.md` maps every
//! paper figure to its reproduction binary and expected numbers;
//! `docs/OFFLINE_BUILDS.md` explains the offline dependency shims.

pub use zygos_core as core;
pub use zygos_kv as kv;
pub use zygos_lab as lab;
pub use zygos_load as load;
pub use zygos_net as net;
pub use zygos_runtime as runtime;
pub use zygos_sched as sched;
pub use zygos_silo as silo;
pub use zygos_sim as sim;
pub use zygos_sysim as sysim;
