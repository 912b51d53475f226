//! The Linux baselines (paper §3.3).
//!
//! * **Linux-partitioned**: each thread (pinned one per core) owns the
//!   connections RSS steers to it and epolls over that private set.
//!   Idealized by `n×M/G/1/FCFS` with Linux's per-request kernel cost.
//! * **Linux-floating**: all connections live in one shared pool from which
//!   every thread may poll; claiming a ready socket requires a serializing
//!   lock (the paper's implementation uses "a simple locking protocol to
//!   serialize access to the same socket"). Idealized by `M/G/n/FCFS` plus
//!   the lock's serialization and the same per-request kernel cost.
//!
//! Both models charge `linux_per_req_ns` of kernel time per request
//! (softirq RX, `epoll_wait`, `read`, `write`, scheduler wakeups), the
//! overhead that makes Linux converge to its ideal bound only for tasks of
//! ~100µs and up (Figure 3).
//!
//! Dispatch order comes from the shared policy plane: both variants run
//! the [`FcfsPolicy`] ladder (serve the ready queue, never steal —
//! rebalancing, where it exists, comes from the queue being shared), so
//! this file owns only the Linux *mechanisms*: the per-core/shared queues,
//! the kernel cost and the floating-pool lock.

use std::collections::VecDeque;

use zygos_sched::{DispatchPolicy, FcfsPolicy, Rung};
use zygos_sim::time::{SimDuration, SimTime};
use zygos_telemetry::TraceKind;

use crate::arrivals::Req;
use crate::config::{SysConfig, SystemKind};
use crate::edge::{Cx, Server, ServerStats, World};

#[derive(Clone)]
pub(crate) enum Ev {
    Run(usize),
    Done { core: usize, req: Req },
}

#[derive(Clone)]
pub(crate) struct LinuxModel {
    cfg: SysConfig,
    /// One queue per core (partitioned) or a single queue (floating).
    queues: Vec<VecDeque<Req>>,
    busy: Vec<bool>,
    floating: bool,
    /// The shared dispatch policy: FCFS, no stealing.
    dispatch: FcfsPolicy,
    /// Floating only: time at which the shared-pool lock frees up.
    lock_free_at: SimTime,
    events_done: u64,
}

impl LinuxModel {
    fn new(cfg: &SysConfig) -> Self {
        let floating = cfg.system == SystemKind::LinuxFloating;
        LinuxModel {
            queues: vec![VecDeque::new(); if floating { 1 } else { cfg.cores }],
            busy: vec![false; cfg.cores],
            floating,
            dispatch: FcfsPolicy,
            lock_free_at: SimTime::ZERO,
            cfg: cfg.clone(),
            events_done: 0,
        }
    }

    fn queue_of(&self, core: usize) -> usize {
        if self.floating {
            0
        } else {
            core
        }
    }

    /// The core loop: walk the policy's dispatch ladder. The Linux models
    /// have no separate network stage (the kernel cost is charged per
    /// request), so only the ready-queue rung binds to a mechanism here.
    fn run_core(&mut self, core: usize, cx: &mut Cx<Ev>) {
        if self.busy[core] {
            return;
        }
        let policy = self.dispatch;
        for &rung in policy.ladder() {
            let took = match rung {
                Rung::LocalReady => self.rung_local_ready(core, cx),
                // No per-rung mechanism in this model; in particular the
                // steal rungs never appear (FCFS policies do not steal).
                _ => false,
            };
            if took {
                return;
            }
        }
    }

    /// Serve the next request of this core's FCFS queue (the shared pool
    /// when floating, behind its serializing lock).
    fn rung_local_ready(&mut self, core: usize, cx: &mut Cx<Ev>) -> bool {
        let q = self.queue_of(core);
        let Some(req) = self.queues[q].pop_front() else {
            return false;
        };
        self.busy[core] = true;
        let cost = &self.cfg.cost;
        let now = cx.now();
        let mut start = now;
        if self.floating {
            // Serialize on the shared-pool lock: wait for it, hold it for
            // the claim, then proceed.
            let acquire = now.max(self.lock_free_at);
            self.lock_free_at = acquire + SimDuration::from_nanos(cost.linux_float_lock_ns);
            start = self.lock_free_at;
        }
        let end = start + SimDuration::from_nanos(cost.linux_per_req_ns) + req.service;
        cx.edge
            .trace(core as u16, req.seq, TraceKind::Dispatch, start);
        cx.at(end, Ev::Done { core, req });
        true
    }
}

impl Server for LinuxModel {
    type Event = Ev;

    fn packet(&mut self, req: Req, cx: &mut Cx<Ev>) {
        cx.edge
            .trace(req.home, req.seq, TraceKind::Enqueue, cx.now());
        let q = if self.floating { 0 } else { req.home as usize };
        self.queues[q].push_back(req);
        if self.floating {
            // EPOLLEXCLUSIVE semantics: wake one idle thread.
            if let Some(core) = (0..self.cfg.cores).find(|&c| !self.busy[c]) {
                cx.at(cx.now(), Ev::Run(core));
            }
        } else {
            cx.at(cx.now(), Ev::Run(q));
        }
    }

    fn handle(&mut self, ev: Ev, cx: &mut Cx<Ev>) {
        match ev {
            Ev::Run(core) => self.run_core(core, cx),
            Ev::Done { core, req } => {
                // The request finishes: its response leaves now.
                cx.edge.complete(&req, cx.now());
                self.events_done += 1;
                self.busy[core] = false;
                self.run_core(core, cx);
            }
        }
    }

    fn active_cores(&self) -> usize {
        self.cfg.cores
    }

    fn retarget(&mut self, cfg: &SysConfig) {
        self.cfg = cfg.clone();
        self.events_done = 0;
    }

    fn stats(self, _end: SimTime) -> ServerStats {
        ServerStats {
            local_events: self.events_done,
            avg_active_cores: self.cfg.cores as f64,
            ..ServerStats::default()
        }
    }
}

/// A fresh Linux world for `cfg` (partitioned or floating).
pub(crate) fn world(cfg: &SysConfig) -> World<LinuxModel> {
    World::new(cfg, LinuxModel::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SysOutput;
    use crate::driver::run_system as run;
    use zygos_sim::dist::ServiceDist;

    fn quick(system: SystemKind, load: f64, mean_us: f64) -> SysOutput {
        let mut cfg = SysConfig::paper(system, ServiceDist::exponential_us(mean_us), load);
        cfg.requests = 20_000;
        cfg.warmup = 4_000;
        run(&cfg)
    }

    #[test]
    fn both_variants_complete() {
        for s in [SystemKind::LinuxPartitioned, SystemKind::LinuxFloating] {
            let out = quick(s, 0.3, 25.0);
            assert_eq!(out.completed, 20_000, "{}", s.label());
        }
    }

    #[test]
    fn floating_beats_partitioned_tail_for_medium_tasks() {
        // The paper's Figure 3(b): the centralized (floating) model
        // rebalances and wins for larger tasks despite the lock.
        let part = quick(SystemKind::LinuxPartitioned, 0.6, 50.0);
        let float = quick(SystemKind::LinuxFloating, 0.6, 50.0);
        assert!(
            float.p99_us() < part.p99_us(),
            "floating {} vs partitioned {}",
            float.p99_us(),
            part.p99_us()
        );
    }

    #[test]
    fn linux_overhead_visible_at_small_tasks() {
        // With 5µs tasks and ~11µs of kernel cost per request, latency is
        // dominated by overhead: p99 well above the bare service p99.
        let out = quick(SystemKind::LinuxPartitioned, 0.2, 5.0);
        let bare = 5.0 * 100f64.ln();
        assert!(out.p99_us() > bare + 8.0, "p99 = {}", out.p99_us());
    }

    #[test]
    fn floating_lock_serializes_at_extreme_rates() {
        // Offered dequeue rate above 1/lock_ns must saturate: p99 explodes.
        let mut cfg = SysConfig::paper(
            SystemKind::LinuxFloating,
            ServiceDist::deterministic_us(1.0),
            0.95,
        );
        cfg.requests = 10_000;
        cfg.warmup = 1_000;
        // 0.95 × 16/1µs = 15.2 req/µs offered, lock supports ~2.2/µs.
        let out = run(&cfg);
        assert!(out.p99_us() > 100.0, "p99 = {}", out.p99_us());
    }
}
