//! The unified policy plane: dispatch as a trait, allocation as one
//! controller.
//!
//! Before this module existed, dispatch/allocation decisions were written
//! three times — once per `zygos-sysim` system model, once in the live
//! runtime's worker loop, and once in this crate's allocator — so every
//! policy change had to be implemented in triplicate. This module is the
//! single home of those decisions:
//!
//! * [`DispatchPolicy`] — *which queue does a core serve next?* Expressed
//!   as an ordered **ladder** of [`Rung`]s over an abstract per-core queue
//!   view (remote syscalls, background/preempted work, local ready
//!   connections, the NIC ring, steal targets, IPI scans), plus the
//!   preemption (`slice`) and background-ordering decisions. Hosts own the
//!   *mechanisms* (rings, shuffle queues, doorbells); the policy owns the
//!   *order* and the steal/preempt choices.
//! * [`PolicySignal`] — *how many cores should be granted?* One signal per
//!   control tick goes into [`crate::SloController`], one
//!   [`crate::Decision`] comes out. Without an SLO ratio the controller makes the
//!   [`crate::CoreAllocator`]'s utilization-rule decision, so the simulator's
//!   `Control` event and the live runtime's worker-0 controller hold the
//!   same object with or without tenant SLOs.
//!
//! The concrete dispatch policies:
//!
//! * [`FcfsPolicy`] — single-queue FCFS (the Linux baselines and the
//!   runtime's floating mode): the ladder is just "serve the ready queue"
//!   (preceded by network ingress where the host has one).
//! * [`RtcPolicy`] — shared-nothing run-to-completion (IX): serve the own
//!   NIC ring, never steal.
//! * [`ZygosPolicy`] — the paper's priority loop, parameterized by the
//!   steal/IPI ablation knobs, the preemptive quantum and the background
//!   queue order ([`BackgroundOrder`]).

use crate::alloc::LoadSignal;
use crate::quantum::{QuantumPolicy, Slice};

/// One rung of a dispatch ladder: a class of work a core can serve.
///
/// Hosts map each rung onto their concrete mechanism and try the rungs in
/// ladder order, taking the first that yields work. A host without the
/// mechanism for a rung (e.g. the live runtime has no preempted-remainder
/// queue) simply skips it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Pending remote syscalls (responses of stolen executions) — they
    /// hold finished work, so they outrank everything.
    RemoteSyscalls,
    /// Background (preempted) entries past the aging bound: overdue work
    /// promoted ahead of fresh work (starvation avoidance).
    AgedBackground,
    /// The core's own ready queue (shuffle queue / FCFS queue).
    LocalReady,
    /// The core's own NIC ring: run the network stack over a batch.
    LocalNet,
    /// Steal a ready connection from another core.
    StealReady,
    /// The core's own background (preempted) queue.
    LocalBackground,
    /// Steal a background entry from another core.
    StealBackground,
    /// Scan remote NIC rings and IPI home cores stuck in application code.
    IpiScan,
}

/// Ordering discipline of the background (preempted) queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackgroundOrder {
    /// First-come-first-served (arrival order of the preemptions).
    #[default]
    Fcfs,
    /// Shortest-remaining-processing-time: the remainder with the least
    /// service time left runs first. Preempted requests carry their
    /// remaining-time stamps, so SRPT is free to compute and optimal for
    /// mean sojourn of the known-long class.
    Srpt,
}

/// The dispatch-policy trait: the decision half of a core's scheduling
/// loop, shared verbatim by the simulator and the live runtime.
pub trait DispatchPolicy: Send + Sync {
    /// The priority ladder, highest first. Hosts try each rung in order.
    fn ladder(&self) -> &[Rung];

    /// Whether this core may execute the steal rungs right now.
    /// `core_active` is the host's grant state (always `true` for
    /// statically provisioned hosts).
    fn may_steal(&self, core_active: bool) -> bool;

    /// Whether steal sweeps visit victims in randomized order.
    fn randomize_victims(&self) -> bool {
        true
    }

    /// Preempt-victim decision: whether (and where) to slice an
    /// application chunk of `chunk_ns`. `None` runs it to completion.
    fn slice(&self, chunk_ns: u64) -> Option<Slice> {
        let _ = chunk_ns;
        None
    }

    /// Ordering of the background (preempted) queue.
    fn background_order(&self) -> BackgroundOrder {
        BackgroundOrder::Fcfs
    }

    /// Age (ns) after which a background entry outranks fresh work.
    /// `u64::MAX` disables aging.
    fn background_aging_ns(&self) -> u64 {
        u64::MAX
    }
}

/// Single-queue FCFS dispatch (Linux baselines; floating runtime mode).
///
/// The ladder serves network ingress first (where the host separates it)
/// and then the ready queue; there is no stealing — rebalancing, if any,
/// comes from the queue being shared.
#[derive(Clone, Copy, Debug, Default)]
pub struct FcfsPolicy;

const FCFS_LADDER: [Rung; 2] = [Rung::LocalNet, Rung::LocalReady];

impl DispatchPolicy for FcfsPolicy {
    fn ladder(&self) -> &[Rung] {
        &FCFS_LADDER
    }

    fn may_steal(&self, _core_active: bool) -> bool {
        false
    }
}

/// Shared-nothing run-to-completion dispatch (IX).
#[derive(Clone, Copy, Debug, Default)]
pub struct RtcPolicy;

const RTC_LADDER: [Rung; 1] = [Rung::LocalNet];

impl DispatchPolicy for RtcPolicy {
    fn ladder(&self) -> &[Rung] {
        &RTC_LADDER
    }

    fn may_steal(&self, _core_active: bool) -> bool {
        false
    }
}

/// The ZygOS priority loop as a policy: remote syscalls, then (aged
/// background), own shuffle queue, own NIC ring, steal, (background),
/// IPI scan — §4–§5 of the paper plus the PR-1 elastic extensions.
#[derive(Clone, Debug)]
pub struct ZygosPolicy {
    ladder: Vec<Rung>,
    steal: bool,
    randomize: bool,
    quantum: QuantumPolicy,
    bg_order: BackgroundOrder,
    aging_ns: u64,
}

impl ZygosPolicy {
    /// Background-queue aging bound, in preemption quanta: a preempted
    /// connection waits at most this many quanta before it outranks fresh
    /// work (multilevel-feedback starvation avoidance).
    pub const BG_AGING_QUANTA: u64 = 20;

    /// Builds the policy. `steal` gates the steal rungs, `ipis` the IPI
    /// scan (the paper's two ablation knobs); a nonzero `quantum` arms
    /// preemption and with it the background rungs, ordered by `bg_order`.
    pub fn new(steal: bool, ipis: bool, quantum: QuantumPolicy, bg_order: BackgroundOrder) -> Self {
        let preempt = quantum.is_enabled();
        let mut ladder = vec![Rung::RemoteSyscalls];
        if preempt {
            ladder.push(Rung::AgedBackground);
        }
        ladder.push(Rung::LocalReady);
        ladder.push(Rung::LocalNet);
        if steal {
            ladder.push(Rung::StealReady);
        }
        if preempt {
            ladder.push(Rung::LocalBackground);
            if steal {
                ladder.push(Rung::StealBackground);
            }
        }
        if ipis {
            ladder.push(Rung::IpiScan);
        }
        let aging_ns = if preempt {
            quantum.quantum_ns().saturating_mul(Self::BG_AGING_QUANTA)
        } else {
            u64::MAX
        };
        ZygosPolicy {
            ladder,
            steal,
            randomize: true,
            quantum,
            bg_order,
            aging_ns,
        }
    }

    /// Disables victim-order randomization (the `ablation_steal_ipi`
    /// knob: scan victims in core order instead).
    pub fn with_randomized_victims(mut self, randomize: bool) -> Self {
        self.randomize = randomize;
        self
    }

    /// The quantum policy in force.
    pub fn quantum(&self) -> QuantumPolicy {
        self.quantum
    }
}

impl DispatchPolicy for ZygosPolicy {
    fn ladder(&self) -> &[Rung] {
        &self.ladder
    }

    fn may_steal(&self, core_active: bool) -> bool {
        self.steal && core_active
    }

    fn randomize_victims(&self) -> bool {
        self.randomize
    }

    fn slice(&self, chunk_ns: u64) -> Option<Slice> {
        self.quantum.slice(chunk_ns)
    }

    fn background_order(&self) -> BackgroundOrder {
        self.bg_order
    }

    fn background_aging_ns(&self) -> u64 {
        self.aging_ns
    }
}

/// The three built-in dispatch policies as one enum: hosts that pick a
/// policy at configuration time hold this instead of a boxed trait
/// object, so the per-dispatch ladder walk is a match over three
/// inlinable arms rather than a virtual call per decision.
#[derive(Clone, Debug)]
pub enum BuiltinDispatch {
    /// The ZygOS priority loop ([`ZygosPolicy`]).
    Zygos(ZygosPolicy),
    /// Shared-nothing run-to-completion ([`RtcPolicy`]).
    Rtc(RtcPolicy),
    /// Single-queue FCFS ([`FcfsPolicy`]).
    Fcfs(FcfsPolicy),
}

impl DispatchPolicy for BuiltinDispatch {
    fn ladder(&self) -> &[Rung] {
        match self {
            BuiltinDispatch::Zygos(p) => p.ladder(),
            BuiltinDispatch::Rtc(p) => p.ladder(),
            BuiltinDispatch::Fcfs(p) => p.ladder(),
        }
    }

    fn may_steal(&self, core_active: bool) -> bool {
        match self {
            BuiltinDispatch::Zygos(p) => p.may_steal(core_active),
            BuiltinDispatch::Rtc(p) => p.may_steal(core_active),
            BuiltinDispatch::Fcfs(p) => p.may_steal(core_active),
        }
    }

    fn randomize_victims(&self) -> bool {
        match self {
            BuiltinDispatch::Zygos(p) => p.randomize_victims(),
            BuiltinDispatch::Rtc(p) => p.randomize_victims(),
            BuiltinDispatch::Fcfs(p) => p.randomize_victims(),
        }
    }

    fn slice(&self, chunk_ns: u64) -> Option<Slice> {
        match self {
            BuiltinDispatch::Zygos(p) => p.slice(chunk_ns),
            BuiltinDispatch::Rtc(p) => p.slice(chunk_ns),
            BuiltinDispatch::Fcfs(p) => p.slice(chunk_ns),
        }
    }

    fn background_order(&self) -> BackgroundOrder {
        match self {
            BuiltinDispatch::Zygos(p) => p.background_order(),
            BuiltinDispatch::Rtc(p) => p.background_order(),
            BuiltinDispatch::Fcfs(p) => p.background_order(),
        }
    }

    fn background_aging_ns(&self) -> u64 {
        match self {
            BuiltinDispatch::Zygos(p) => p.background_aging_ns(),
            BuiltinDispatch::Rtc(p) => p.background_aging_ns(),
            BuiltinDispatch::Fcfs(p) => p.background_aging_ns(),
        }
    }
}

/// One control tick's observation of the data plane, as consumed by
/// [`crate::SloController::observe`]. Extends the utilization-rule [`LoadSignal`] with the
/// measured tail-latency margin the SLO-driven policy staffs on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PolicySignal {
    /// Cores executing foreground work, time-averaged since the previous
    /// tick.
    pub busy_cores: f64,
    /// Items queued and not yet in execution at tick time.
    pub backlog: usize,
    /// Worst tail-latency-to-SLO ratio over the last window: the maximum
    /// across tenant SLO classes of `quantile(percentile) / bound`.
    /// `> 1` means the SLO is violated; `None` when no SLO is configured
    /// or the window had too few completions to measure.
    pub slo_ratio: Option<f64>,
}

impl PolicySignal {
    /// The utilization-rule view of this signal.
    pub fn load(&self) -> LoadSignal {
        LoadSignal {
            busy_cores: self.busy_cores,
            backlog: self.backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_and_rtc_never_steal() {
        assert!(!FcfsPolicy.may_steal(true));
        assert!(!RtcPolicy.may_steal(true));
        assert_eq!(FcfsPolicy.ladder(), &[Rung::LocalNet, Rung::LocalReady]);
        assert_eq!(RtcPolicy.ladder(), &[Rung::LocalNet]);
        assert_eq!(FcfsPolicy.slice(u64::MAX), None);
        assert_eq!(FcfsPolicy.background_aging_ns(), u64::MAX);
    }

    #[test]
    fn zygos_ladder_reflects_knobs() {
        let full = ZygosPolicy::new(
            true,
            true,
            QuantumPolicy::from_us(25.0),
            BackgroundOrder::Fcfs,
        );
        assert_eq!(
            full.ladder(),
            &[
                Rung::RemoteSyscalls,
                Rung::AgedBackground,
                Rung::LocalReady,
                Rung::LocalNet,
                Rung::StealReady,
                Rung::LocalBackground,
                Rung::StealBackground,
                Rung::IpiScan,
            ]
        );
        assert!(full.may_steal(true));
        assert!(!full.may_steal(false), "parked cores must not steal");
        assert!(full.slice(500_000).is_some());
        assert_eq!(full.background_aging_ns(), 25_000 * 20);

        let coop = ZygosPolicy::new(
            true,
            false,
            QuantumPolicy::disabled(),
            BackgroundOrder::Fcfs,
        );
        assert_eq!(
            coop.ladder(),
            &[
                Rung::RemoteSyscalls,
                Rung::LocalReady,
                Rung::LocalNet,
                Rung::StealReady,
            ]
        );
        assert_eq!(coop.slice(u64::MAX), None);

        let partitioned = ZygosPolicy::new(
            false,
            false,
            QuantumPolicy::disabled(),
            BackgroundOrder::Fcfs,
        );
        assert!(!partitioned.may_steal(true));
        assert!(!partitioned.ladder().contains(&Rung::StealReady));
    }
}
