//! A live, multithreaded implementation of the ZygOS scheduler.
//!
//! Worker threads stand in for the paper's cores; a loopback
//! [`client::ClientPort`] stands in for the NIC: it applies the real RSS
//! mapping from `zygos-net` and delivers request frames into per-core
//! ingress rings. The workers run the actual concurrent machinery from
//! `zygos-core` — shuffle queues, the connection state machine, trylock
//! steals, remote-syscall shipping, and doorbells.
//!
//! Three scheduling modes ([`config::SchedulerKind`]):
//!
//! * **Zygos** — the paper's design: home-core network processing,
//!   connection-granularity stealing, syscalls shipped home, doorbell
//!   "IPIs". `steal: false` degenerates it to a run-to-completion
//!   partitioned dataplane (the IX/Linux-partitioned shape).
//! * **Floating** — all ready events in one shared queue that any worker
//!   may claim, with no ownership: the Linux-floating model, *including*
//!   its §4.3 hazard (per-connection response order is not guaranteed) —
//!   kept deliberately to demonstrate what the shuffle layer's busy-state
//!   exclusivity buys.
//!
//! ## Honest limits of the live runtime
//!
//! True exit-less IPIs cannot preempt a Rust closure, so the doorbell is
//! checked at event boundaries (and wakes parked workers immediately); a
//! single long-running handler still blocks its core — in the *simulator*
//! (`zygos-sysim`) IPIs do preempt, which is why all paper figures come
//! from there. On a 1-CPU host the runtime's wall-clock numbers are
//! meaningless; its job is to prove the scheduler logic correct under real
//! concurrency, which the test suite does.

pub mod app;
pub mod client;
pub mod config;
mod responses;
pub mod server;

pub use app::RpcApp;
pub use client::ClientPort;
pub use config::{RuntimeConfig, SchedulerKind};
pub use server::Server;
// What [`Server::metric_series`] returns — re-exported so callers need
// not depend on `zygos-telemetry` directly.
pub use zygos_telemetry::TimeSeries;
