//! Runtime configuration.

use zygos_load::slo::TenantSlos;
use zygos_sched::CreditConfig;

/// Which scheduling discipline the workers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The ZygOS design. With `steal: false` every connection is served
    /// exclusively by its home core (partitioned run-to-completion — the
    /// IX shape, useful for live A/B comparisons).
    Zygos {
        /// Enable work stealing between cores.
        steal: bool,
    },
    /// The ZygOS design under the `zygos-sched` elastic control plane —
    /// the live, best-effort analogue of the simulator's
    /// `SystemKind::Elastic` + preemption quantum:
    ///
    /// * **cooperative yield**: at most [`RuntimeConfig::conn_batch`]
    ///   events are taken from one connection per dequeue (64 in
    ///   [`RuntimeConfig::elastic`]), so a deep pipeline cannot hold its
    ///   core indefinitely (true preemption of a Rust closure is
    ///   impossible in user space; the simulator models that part);
    /// * **core gating**: a controller (piggybacked on worker 0) feeds
    ///   duty-cycle, queue-depth and, with [`RuntimeConfig::slo`], measured
    ///   latency signals to the simulator's `SloController`; workers above
    ///   the granted count stop stealing and park an order of magnitude
    ///   longer when idle, freeing CPU on an oversubscribed host. Parked
    ///   workers still drain their own ingress rings — RSS cannot be
    ///   reprogrammed on the loopback port, so home duties remain.
    ///
    /// Granted workers always steal.
    Elastic,
}

/// Configuration of a [`crate::Server`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads ("cores").
    pub cores: usize,
    /// Number of pre-registered client connections.
    pub conns: u32,
    /// Scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Capacity of each per-core ingress ring; also the most sent frames
    /// the client port and each worker keep for reuse.
    pub ring_capacity: usize,
    /// Maximum events taken from one connection per dequeue (the per-flow
    /// batch bound and the elastic mode's cooperative quantum; must be
    /// ≥ 1; `usize::MAX` = all pending, the paper's behaviour).
    pub conn_batch: usize,
    /// Credit-based admission control (Breakwater-style) at the RX edge:
    /// a framed request without a credit is answered immediately with a
    /// [`crate::server::REJECT_OPCODE`] reply instead of being queued.
    /// Worker 0 resizes the pool by AIMD on measured sojourns, as the
    /// simulator's control tick does: the per-tenant tails against
    /// SLO-derived targets when [`RuntimeConfig::slo`] is set, the window
    /// p99 against [`CreditConfig::target`] (µs) otherwise. `None` admits
    /// everything.
    pub admission: Option<CreditConfig>,
    /// Per-tenant SLO classes (connection → class round-robin by id).
    /// Arms the runtime's latency signal: ingress-stamped requests feed
    /// per-class sojourn windows, the elastic controller becomes the
    /// SLO-margin `SloController` (fed the measured worst p99-vs-bound
    /// ratio), the credit AIMD steers to per-class targets, and shedding
    /// becomes weighted-fair (loosest class first). `None` leaves the
    /// elastic controller on the utilization rule alone.
    pub slo: Option<TenantSlos>,
    /// Distribute credits to the sender (Breakwater's client-side half):
    /// responses piggyback a credit grant in the wire header and
    /// [`crate::ClientPort::try_send`] refuses to send while the
    /// connection's local balance is zero — a shed request then costs no
    /// wire RTT at all. Only meaningful with
    /// [`RuntimeConfig::admission`] set.
    pub client_credits: bool,
}

impl RuntimeConfig {
    /// A sensible default: ZygOS scheduling with stealing enabled.
    pub fn zygos(cores: usize, conns: u32) -> Self {
        RuntimeConfig {
            cores,
            conns,
            scheduler: SchedulerKind::Zygos { steal: true },
            ring_capacity: 4096,
            conn_batch: usize::MAX,
            admission: None,
            slo: None,
            client_credits: false,
        }
    }

    /// Arms the credit gate on any base configuration.
    pub fn with_admission(mut self, credits: CreditConfig) -> Self {
        self.admission = Some(credits);
        self
    }

    /// Arms the per-tenant latency signal (and with it the SLO-driven
    /// allocation and admission loops) on any base configuration.
    pub fn with_slo(mut self, slo: TenantSlos) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Switches the credit gate to sender-side distribution: grants ride
    /// on response headers and the client stops sending at zero balance.
    pub fn with_client_credits(mut self) -> Self {
        self.client_credits = true;
        self
    }

    /// Partitioned run-to-completion (stealing disabled).
    pub fn partitioned(cores: usize, conns: u32) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::Zygos { steal: false },
            ..RuntimeConfig::zygos(cores, conns)
        }
    }

    /// Elastic ZygOS: stealing plus core gating with a 64-event
    /// cooperative quantum.
    pub fn elastic(cores: usize, conns: u32) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::Elastic,
            conn_batch: 64,
            ..RuntimeConfig::zygos(cores, conns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let z = RuntimeConfig::zygos(4, 64);
        assert_eq!(z.scheduler, SchedulerKind::Zygos { steal: true });
        let p = RuntimeConfig::partitioned(4, 64);
        assert_eq!(p.scheduler, SchedulerKind::Zygos { steal: false });
        let e = RuntimeConfig::elastic(4, 64);
        assert_eq!(e.scheduler, SchedulerKind::Elastic);
        assert_eq!(e.conn_batch, 64);
    }
}
