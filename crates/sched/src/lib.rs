//! The scheduling policy plane (`zygos-sched`).
//!
//! ZygOS (SOSP'17) argues that tail latency is decided by the dispatch
//! discipline. This crate is where every dispatch and allocation decision
//! in the workspace lives — written **once**, driven by two hosts: the
//! discrete-event system simulator (`zygos-sysim`) from virtual time, and
//! the live multithreaded runtime (`zygos-runtime`) from wall-clock ticks.
//! The policies are pure (no clocks, no threads, no I/O), which is what
//! lets `tests/proptest_policy.rs` model-check them without either host.
//!
//! # Architecture: who owns which decision
//!
//! ```text
//!                      ┌────────────────────────────────────────────┐
//!                      │            zygos-sched (policy)            │
//!                      │                                            │
//!   what runs next?    │  DispatchPolicy ── ladder of Rungs,        │
//!                      │    ├ FcfsPolicy      steal / preempt /     │
//!                      │    ├ RtcPolicy       background order      │
//!                      │    └ ZygosPolicy ──── QuantumPolicy        │
//!                      │                                            │
//!   how many cores?    │  SloController ── PolicySignal → Decision  │
//!                      │    └ CoreAllocator  (utilization rule)     │
//!                      │                                            │
//!   admit or shed?     │  CreditPool ── AIMD credits (Breakwater)   │
//!                      └───────▲──────────────────────────▲─────────┘
//!                              │                          │
//!                  ┌───────────┴─────────┐   ┌────────────┴──────────┐
//!                  │ zygos-sysim         │   │ zygos-runtime         │
//!                  │ (mechanisms: rings, │   │ (mechanisms: MPSC     │
//!                  │  shuffle queues,    │   │  rings, shuffle layer,│
//!                  │  virtual IPIs)      │   │  doorbells, threads)  │
//!                  └─────────────────────┘   └───────────────────────┘
//! ```
//!
//! * [`policy`] — the **dispatch plane**. [`DispatchPolicy`] expresses a
//!   core's scheduling loop as an ordered ladder of [`policy::Rung`]s over
//!   an abstract per-core queue view; hosts own the queue *mechanisms* and
//!   consult the policy for the *order*, the steal decisions, the
//!   preemption (`slice`) decision and the background-queue discipline
//!   ([`policy::BackgroundOrder::Fcfs`] or SRPT). `FcfsPolicy` (Linux
//!   baselines, the staged engine's centralized FCFS), `RtcPolicy` (IX) and `ZygosPolicy` (the
//!   paper's priority loop, with the elastic/preemptive extensions) cover
//!   every system model in the workspace.
//! * [`slo_ctl`] — the **allocation plane**. One [`PolicySignal`] per
//!   control tick (time-averaged busy cores, queue backlog, and the
//!   measured tail-latency-to-SLO ratio), one [`Decision`] out.
//!   [`SloController`] is the one allocator every elastic host holds: it
//!   staffs from the p99-vs-SLO margin and, with no SLO signal, makes
//!   exactly the embedded `util + β·√util` [`CoreAllocator`]'s decision.
//! * [`credit`] — the **admission plane**. [`CreditPool`] bounds admitted
//!   in-flight requests with AIMD-resized Breakwater-style credits so that
//!   under sustained overload (`util > 1`) admitted requests keep a
//!   bounded tail while the surplus is shed with explicit, client-visible
//!   rejects (`fig13` sweeps this).
//! * [`alloc`] — the hysteretic [`CoreAllocator`] (demand estimation,
//!   square-root staffing, consecutive-signal thresholds, cooldown) and
//!   the [`CoreSecondsMeter`]; the utilization rule inside
//!   [`SloController`].
//! * [`quantum`] — the preemptive time-slice policy ([`QuantumPolicy`]),
//!   Shinjuku-style microsecond preemption.
//! * [`gate`] — the lock-free [`ElasticGate`] the live runtime uses to
//!   park worker threads cooperatively.

pub mod alloc;
pub mod credit;
pub mod gate;
pub mod policy;
pub mod quantum;
pub mod slo_ctl;

pub use alloc::{
    AllocatorConfig, AllocatorTuning, CoreAllocator, CoreSecondsMeter, Decision, LoadSignal,
};
pub use credit::{CreditConfig, CreditGate, CreditPool};
pub use gate::ElasticGate;
pub use policy::{
    BackgroundOrder, BuiltinDispatch, DispatchPolicy, FcfsPolicy, PolicySignal, RtcPolicy, Rung,
    ZygosPolicy,
};
pub use quantum::QuantumPolicy;
pub use slo_ctl::{SloController, SloTuning};
