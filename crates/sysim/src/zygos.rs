//! The ZygOS system model (paper §4–§5) on the discrete-event engine.
//!
//! Each simulated core owns a NIC ring (RSS-fed), a shuffle queue of ready
//! connections, and a remote-syscall queue. The *order* in which a core
//! serves those queues is no longer written here: it comes from the shared
//! [`zygos_sched::DispatchPolicy`] ladder (the same object the live
//! runtime's worker loop consults), built as a [`ZygosPolicy`] whose rungs
//! for the paper's system are:
//!
//! 1. execute pending **remote syscalls** (TX for stolen executions),
//! 2. dequeue the next ready connection from the **own shuffle queue**,
//! 3. run the **network stack** over a bounded batch from the own NIC ring,
//! 4. **steal** a ready connection from a random other core,
//! 5. if IPIs are enabled, scan other cores' NIC rings and **send an IPI**
//!    to a home core that sits in application code with undrained packets,
//! 6. go idle (woken by any state change it could act on).
//!
//! IPIs interrupt *application* execution only: the handler replenishes the
//! shuffle queue from the NIC ring and flushes remote syscalls, extending
//! the interrupted event's completion by the handler cost — exactly the
//! preemption a real exit-less IPI performs, which the live runtime cannot
//! do (a Rust closure is uninterruptible; see the host-split table in
//! `docs/ARCHITECTURE.md`) and the simulator can.
//!
//! The `ZygosNoInterrupts` variant drops the IPI rung from the ladder: the
//! cooperative mode whose head-of-line blocking the paper's Figure 6
//! quantifies.
//!
//! # Elastic mode and preemptive quanta
//!
//! [`SystemKind::Elastic`] layers the `zygos-sched` control plane on this
//! model. A periodic `Control` event feeds a [`PolicySignal`] (busy-core
//! and backlog counts plus, when [`SysConfig::slo`] is set, the measured
//! worst p99-vs-SLO ratio of the last window) to an [`AllocPolicy`] — the
//! SLO-margin [`SloController`] by default, or the PR-1 utilization rule
//! via [`AllocKind::Utilization`]. Revoked cores drain their queues into
//! an active core and stop participating (their RSS queues are redirected,
//! modeling indirection-table reprogramming); granted cores rejoin and
//! steal immediately. A nonzero [`SysConfig::preemption_quantum_us`] arms
//! a per-chunk timer: application chunks longer than the quantum end in a
//! `Preempt` event (same epoch-guard machinery as IPIs) that charges the
//! context save/restore cost and moves the remainder to a **background
//! queue** below all fresh work — FCFS-with-aging or SRPT on the
//! remaining-time stamps, per [`SysConfig::background_order`] — bounding
//! head-of-line blocking under dispersive service times.
//!
//! # Admission control
//!
//! With [`SysConfig::admission`] set, arrivals pass a Breakwater-style
//! [`CreditPool`]: no credit → the request is shed before it costs any
//! processing, and an AIMD loop on the `Control` tick resizes the pool
//! from the measured window tail. This is what keeps the *admitted* tail
//! bounded under sustained overload (`fig13`). Three refinements close
//! the loop end-to-end:
//!
//! * [`AdmissionMode`] picks *where* the shed happens: at the server edge
//!   (the reject burns a full wire RTT — request there, explicit reject
//!   back) or at the client (sender-side credits; a creditless request is
//!   never sent, so the shed is free on the wire). The simulator models
//!   the converged state of Breakwater's credit distribution by letting
//!   the source consult the shared pool at send time; the live runtime
//!   implements the actual distribution by piggybacking grants on
//!   response headers.
//! * With [`SysConfig::slo`] set, the AIMD target is **per tenant class**
//!   ([`zygos_load::slo::TenantSlos::aimd_targets_us`] at [`CREDIT_HEADROOM`]) and the
//!   control tick feeds the worst per-class `tail/target` ratio — one
//!   AIMD rule serving µs-scale and ms-scale tenants simultaneously.
//! * Shedding is **weighted-fair** ([`zygos_load::slo::TenantSlos::admit_fractions`]):
//!   each class is admitted against a fraction of the pool, smallest for
//!   the loosest class, so the tenants with the most latency headroom
//!   absorb the overload first.

use std::collections::{HashMap, VecDeque};

use zygos_load::retry::RetryDecision;
use zygos_load::route::conn_key;
use zygos_sched::{
    AllocPolicy, AllocatorConfig, BackgroundOrder, CoreAllocator, CoreSecondsMeter, CreditPool,
    Decision, DispatchPolicy, PolicySignal, QuantumPolicy, Rung, SloController, SloTuning,
    UtilizationPolicy, ZygosPolicy,
};
use zygos_sim::engine::{Engine, Model, Scheduler};
use zygos_sim::stats::WindowHistogram;
use zygos_sim::time::{SimDuration, SimTime};
use zygos_telemetry::{Registry, SeriesId, SeriesKind, TelemetryOut, TraceKind, Tracer};

use crate::arrivals::{Recorder, Req, Source};
use crate::config::{AdmissionMode, AllocKind, SysConfig, SysOutput, SystemKind, CREDIT_HEADROOM};

#[derive(Clone)]
pub(crate) enum Ev {
    /// Generate the next client request.
    Gen,
    /// A request packet reaches its home core's NIC ring; the `u32` is
    /// which transmission attempt this is (0 = the original send, >0 =
    /// a retry re-issue fed back by the retry policy).
    Packet(Req, u32),
    /// The retry policy's backoff delay expired: the client re-issues
    /// the request (attempt number carried), re-entering the same
    /// admission path the original took.
    Retry { req: Req, attempt: u32 },
    /// The client's per-request timeout fired for this attempt; stale
    /// (and ignored) unless the attempt is still the live one.
    Timeout { req: Req, attempt: u32 },
    /// Core scheduling-loop entry.
    Run(usize),
    /// The core's current work chunk completes (stale if epoch mismatches).
    WorkDone { core: usize, epoch: u64 },
    /// An IPI arrives at a core.
    Ipi(usize),
    /// The quantum timer fires on a core mid-chunk (stale if epoch
    /// mismatches).
    Preempt { core: usize, epoch: u64 },
    /// Control-plane tick (elastic allocation and/or credit AIMD).
    Control,
}

#[derive(Clone)]
enum Work {
    /// Running the network stack over an RX batch.
    Net { batch: Vec<Req> },
    /// Executing one application event; the rest of the connection's batch
    /// follows.
    App {
        conn: u32,
        cur: Req,
        rest: VecDeque<Req>,
        stolen: bool,
        /// Chunk came from the background (preempted) queue: it fills idle
        /// capacity by policy and is excluded from the controller's
        /// foreground-utilization signal.
        bg: bool,
    },
    /// Executing remote batched syscalls (TX for stolen events).
    RemoteTx { batch: Vec<Req> },
}

/// One background (preempted) queue entry. A quantum-expired remainder is
/// *known long*, so it only runs when no fresh work is visible anywhere —
/// and it carries its remaining-time stamp, which is what makes SRPT
/// ordering free.
#[derive(Clone)]
struct BgEntry {
    conn: u32,
    /// Enqueue time, for the aging promotion.
    since: SimTime,
    /// Remaining service of the connection's interrupted event (the SRPT
    /// key).
    remaining_ns: u64,
}

#[derive(Clone)]
struct Core {
    ring: VecDeque<Req>,
    shuffle: VecDeque<u32>,
    /// Preempted connections (Shinjuku-style second-level queue), ordered
    /// per [`DispatchPolicy::background_order`]: FCFS keeps arrival order,
    /// SRPT keeps the least-remaining entry at the front. Entries older
    /// than the policy's aging bound are promoted ahead of fresh work:
    /// without aging, sustained overload starves preempted connections —
    /// and with them every later request pipelined on the same socket
    /// (§4.3 ordering holds per connection).
    bg: VecDeque<BgEntry>,
    remote_sys: Vec<Req>,
    work: Option<Work>,
    /// Completion time of the current work chunk (valid when `work` is set).
    end: SimTime,
    /// Epoch guard: bumping it invalidates the scheduled `WorkDone`.
    epoch: u64,
    ipi_pending: bool,
    /// Service nanoseconds of the current app chunk still unexecuted at its
    /// scheduled `Preempt`; `0` when the chunk runs to completion.
    slice_remaining_ns: u64,
    /// Elastic mode: whether this core is granted (always `true` for the
    /// static systems).
    active: bool,
}

impl Core {
    fn is_idle(&self) -> bool {
        self.work.is_none()
    }

    fn in_app(&self) -> bool {
        matches!(self.work, Some(Work::App { .. }))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnSt {
    Idle,
    Ready,
    Busy,
}

/// A per-core occupancy bitmask. The scheduling loop's sweeps (steal,
/// IPI scan, idle wakeups) are pure emptiness scans over all cores; these
/// masks answer them from a word or two instead of walking sixteen `Core`
/// structs' queue headers on every loop entry. The `Core` fields remain
/// the source of truth — the masks are maintained at every queue/work
/// transition and validated against them in debug builds.
#[derive(Clone)]
struct CoreMask {
    w: Vec<u64>,
}

impl CoreMask {
    fn new(cores: usize) -> Self {
        CoreMask {
            w: vec![0; cores.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.w[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.w[i >> 6] &= !(1 << (i & 63));
    }

    #[inline]
    fn put(&mut self, i: usize, v: bool) {
        if v {
            self.set(i)
        } else {
            self.clear(i)
        }
    }

    #[inline]
    fn test(&self, i: usize) -> bool {
        self.w[i >> 6] & (1 << (i & 63)) != 0
    }
}

/// True if `a ∧ ¬b` is non-empty.
#[inline]
fn any_and_not(a: &CoreMask, b: &CoreMask) -> bool {
    a.w.iter().zip(&b.w).any(|(&aw, &bw)| aw & !bw != 0)
}

/// True if `a ∧ b` minus core `except` is non-empty — the word-level
/// short-circuit for a steal sweep: when no other active core has matching
/// occupancy, the whole victim walk is skipped.
#[inline]
fn any_other(a: &CoreMask, b: &CoreMask, except: usize) -> bool {
    for (wi, (&aw, &bw)) in a.w.iter().zip(&b.w).enumerate() {
        let mut bits = aw & bw;
        if wi == except >> 6 {
            bits &= !(1 << (except & 63));
        }
        if bits != 0 {
            return true;
        }
    }
    false
}

#[derive(Clone)]
struct Conn {
    st: ConnSt,
    pending: VecDeque<Req>,
}

/// Shorthand for nanosecond durations.
fn ns(v: u64) -> SimDuration {
    SimDuration::from_nanos(v)
}

/// Minimum completions in a control window before its tail is trusted as
/// a signal — shared with the live runtime's control tick via
/// `zygos-load` so the hosts cannot drift.
use zygos_load::slo::MIN_WINDOW_SAMPLES;

/// Elastic-mode control-plane state.
#[derive(Clone)]
struct Elastic {
    allocator: Box<dyn AllocPolicy>,
    meter: CoreSecondsMeter,
    /// RSS redirection: home core → serving core (identity while active).
    redirect: Vec<usize>,
    /// Busy-core integral at the previous control tick (for time-averaged
    /// utilization between ticks).
    last_ctl_busy_integral: u128,
    last_ctl_ns: u64,
    /// Granted-core integral snapshot taken when the measurement window
    /// opened, so reported core-seconds exclude the warmup (during which
    /// the fleet starts fully granted).
    meas_snapshot: Option<(u64, u128)>,
}

/// The model's telemetry plane: the per-core lifecycle tracer plus the
/// metrics registry the control tick harvests time-series into. `None`
/// (the default) costs each hook site one untaken branch on the `Option`
/// discriminant — the PR-5 zero-alloc hot loop is otherwise untouched.
struct SimTelemetry {
    /// Per-core ring tracer; `trace_on == false` leaves it empty (the
    /// config asked only for series).
    tracer: Tracer,
    trace_on: bool,
    /// Named counter/gauge/series store, harvested on the control tick.
    reg: Registry,
    /// Which series the scenario asked to record.
    harvest: Vec<SeriesKind>,
    /// Record a series point every N control ticks.
    series_every: u32,
    tick: u32,
    s_admitted: Option<SeriesId>,
    s_credits: Option<SeriesId>,
    s_active: Option<SeriesId>,
    s_shed: Vec<SeriesId>,
    s_window_p99: Option<SeriesId>,
    s_retry: Option<SeriesId>,
    /// Counter snapshots at the previous harvested tick, for rates.
    last_admitted: u64,
    last_rejected: Vec<u64>,
    last_retries: u64,
    last_t_ns: u64,
    /// The most recent control-tick window tail (µs), stashed by
    /// `control()` before the window is cleared so the harvest can
    /// publish it (NaN when the window had too few samples).
    last_window_tail: f64,
}

pub(crate) struct ZygosModel {
    cfg: SysConfig,
    source: Source,
    rec: Recorder,
    /// Lifecycle tracer + metrics registry (`None` = telemetry off).
    telem: Option<SimTelemetry>,
    cores: Vec<Core>,
    conns: Vec<Conn>,
    /// Scratch buffer for randomized victim order.
    victims: Vec<usize>,
    /// Dedicated RNG for victim-order shuffles. Keeping it off the
    /// workload RNG means arrivals and service times are identical across
    /// policies for a given seed (paired comparisons), and lets the loop
    /// skip the shuffle entirely when a sweep's occupancy mask is empty —
    /// each shuffle fully re-randomizes, so skipping no-op shuffles leaves
    /// the victim-order distribution unchanged.
    victims_rng: zygos_sim::rng::Xoshiro256,
    /// The shared dispatch policy: rung order, steal/preempt decisions,
    /// background discipline. The model owns the queues; this owns the
    /// choices. Held concretely (not `Box<dyn DispatchPolicy>`) so every
    /// per-dispatch decision is a direct, inlinable call.
    dispatch: ZygosPolicy,
    /// Copy of the policy's ladder (iterating it while mutating the model
    /// must not borrow the policy).
    ladder: Vec<Rung>,
    elastic: Option<Elastic>,
    /// Control tick period (armed when elastic or admission is on).
    ctl_period: SimDuration,
    /// Credit-based admission gate.
    admission: Option<CreditPool>,
    /// Per-class pool fractions for weighted fair shedding (all 1.0 when
    /// no tenant SLOs are configured).
    admit_fractions: Vec<f64>,
    /// Per-class AIMD latency targets (µs), derived from the SLO bounds at
    /// [`CREDIT_HEADROOM`]; empty when no tenant SLOs are configured (the
    /// AIMD loop then steers the raw window tail to `CreditConfig::target`).
    credit_targets_us: Vec<f64>,
    /// Sheds per tenant class.
    rejected_by_class: Vec<u64>,
    /// Admissions per tenant class.
    admitted_by_class: Vec<u64>,
    /// Sheds that burned wire RTT (server-edge rejects).
    wire_rejects: u64,
    /// The closed-loop retry plane (all dormant when [`SysConfig::retry`]
    /// is `None`, which keeps the open-loop engine bit-identical):
    /// retry re-issues scheduled, logical requests abandoned, and
    /// client-timeout expiries.
    retries: u64,
    give_ups: u64,
    timeouts_fired: u64,
    /// Live attempt number per in-flight request sequence, maintained
    /// only when a client timeout is armed: a `Timeout` event is stale —
    /// the attempt was superseded or the logical request completed —
    /// unless its attempt matches this map. World state (clones and
    /// warm-retargets carry it), touched only off the completion fast
    /// path when timeouts are off.
    retry_live: HashMap<u32, u32>,
    /// Precomputed `retry_timeout_us` (`None` = timeouts off).
    timeout_dur: Option<SimDuration>,
    /// Per-SLO-class latency window of the current control tick (single
    /// class when no tenant SLOs are configured). Constant-memory
    /// histograms: recording is O(1) and the per-tick harvest touches
    /// only the used buckets, instead of flatten + `sort_unstable` over
    /// every completion of the window.
    win: Vec<WindowHistogram>,
    /// Whether completions are sampled into `win` at all.
    collect_window: bool,
    /// Free-list of request-batch buffers (RX batches, remote-syscall
    /// flushes): the hot loop recycles them instead of allocating a
    /// `Vec<Req>` per batch.
    batch_pool: Vec<Vec<Req>>,
    /// Occupancy masks over cores (see [`CoreMask`]).
    m_active: CoreMask,
    m_busy: CoreMask,
    m_inapp: CoreMask,
    m_ring: CoreMask,
    m_shuffle: CoreMask,
    m_bg: CoreMask,
    m_remote: CoreMask,
    m_ipi: CoreMask,
    /// Cores with a queued-but-unfired `Ev::Run`. A queued run re-reads
    /// all queue state when it fires, so while one is in flight further
    /// wakeups for the same core are redundant and are not scheduled —
    /// this is what keeps a wake *storm* (every ready batch waking every
    /// idle core) from flooding the event queue at low load.
    m_run_pending: CoreMask,
    // Telemetry.
    local_events: u64,
    stolen_events: u64,
    ipis_delivered: u64,
    preemptions: u64,
    /// All cores with work installed (telemetry).
    busy: BusyMeter,
    /// Cores running *foreground* work — everything except background
    /// (preempted) application chunks, which fill idle capacity by policy
    /// and must not read as demand to the elastic controller.
    fg_busy: BusyMeter,
}

/// Integrates a core-count signal over simulated time.
#[derive(Clone, Copy, Default)]
struct BusyMeter {
    count: usize,
    integral_ns: u128,
    last_ns: u64,
}

impl BusyMeter {
    /// Flushes the integral to `ns` and applies `delta` to the count.
    fn update(&mut self, ns: u64, delta: i64) {
        self.integral_ns += ns.saturating_sub(self.last_ns) as u128 * self.count as u128;
        self.last_ns = self.last_ns.max(ns);
        self.count = (self.count as i64 + delta) as usize;
    }
}

/// Checkpoint semantics: a clone is the *entire simulated world* — every
/// queue, connection state, RNG position, credit, allocator EWMA, and
/// occupancy mask — with one deliberate exception: the telemetry plane.
/// Telemetry is a pure observer (pinned bit-identical by
/// `tracing_leaves_metrics_and_event_counts_bit_identical`), so dropping
/// it cannot perturb the trajectory; cloning a multi-megabyte trace ring
/// per checkpoint would make warm-start sweeps pay for a plane they are
/// required to run without (the drivers only warm-start telemetry-off
/// configs).
impl Clone for ZygosModel {
    fn clone(&self) -> Self {
        ZygosModel {
            cfg: self.cfg.clone(),
            source: self.source.clone(),
            rec: self.rec.clone(),
            telem: None,
            cores: self.cores.clone(),
            conns: self.conns.clone(),
            victims: self.victims.clone(),
            victims_rng: self.victims_rng.clone(),
            dispatch: self.dispatch.clone(),
            ladder: self.ladder.clone(),
            elastic: self.elastic.clone(),
            ctl_period: self.ctl_period,
            admission: self.admission.clone(),
            admit_fractions: self.admit_fractions.clone(),
            credit_targets_us: self.credit_targets_us.clone(),
            rejected_by_class: self.rejected_by_class.clone(),
            admitted_by_class: self.admitted_by_class.clone(),
            wire_rejects: self.wire_rejects,
            retries: self.retries,
            give_ups: self.give_ups,
            timeouts_fired: self.timeouts_fired,
            retry_live: self.retry_live.clone(),
            timeout_dur: self.timeout_dur,
            win: self.win.clone(),
            collect_window: self.collect_window,
            batch_pool: self.batch_pool.clone(),
            m_active: self.m_active.clone(),
            m_busy: self.m_busy.clone(),
            m_inapp: self.m_inapp.clone(),
            m_ring: self.m_ring.clone(),
            m_shuffle: self.m_shuffle.clone(),
            m_bg: self.m_bg.clone(),
            m_remote: self.m_remote.clone(),
            m_ipi: self.m_ipi.clone(),
            m_run_pending: self.m_run_pending.clone(),
            local_events: self.local_events,
            stolen_events: self.stolen_events,
            ipis_delivered: self.ipis_delivered,
            preemptions: self.preemptions,
            busy: self.busy,
            fg_busy: self.fg_busy,
        }
    }
}

impl ZygosModel {
    pub(crate) fn new(cfg: SysConfig) -> Self {
        let source = Source::new(&cfg);
        let rec = Recorder::new(&cfg, source.half_rtt);
        let ipis_enabled = matches!(cfg.system, SystemKind::Zygos | SystemKind::Elastic { .. });
        let quantum = QuantumPolicy::from_us(cfg.preemption_quantum_us);
        let dispatch = ZygosPolicy::new(true, ipis_enabled, quantum, cfg.background_order)
            .with_randomized_victims(cfg.randomize_steal_order);
        let ladder = dispatch.ladder().to_vec();
        let elastic = match cfg.system {
            SystemKind::Elastic { min_cores } => {
                let alloc_cfg = AllocatorConfig {
                    min_cores: min_cores.clamp(1, cfg.cores),
                    max_cores: cfg.cores,
                    tuning: cfg.elastic.tuning,
                };
                let allocator: Box<dyn AllocPolicy> = match cfg.elastic.alloc {
                    AllocKind::Utilization => {
                        Box::new(UtilizationPolicy::new(CoreAllocator::new(alloc_cfg)))
                    }
                    AllocKind::SloDriven => {
                        Box::new(SloController::new(alloc_cfg, SloTuning::default()))
                    }
                };
                Some(Elastic {
                    allocator,
                    meter: CoreSecondsMeter::new(0, cfg.cores),
                    redirect: (0..cfg.cores).collect(),
                    last_ctl_busy_integral: 0,
                    last_ctl_ns: 0,
                    meas_snapshot: None,
                })
            }
            _ => None,
        };
        let classes = cfg.slo.as_ref().map_or(1, |t| t.classes().len());
        let admission = cfg.admission.map(|c| CreditPool::with_classes(c, classes));
        // The window histograms feed the AIMD/SLO controllers, and also
        // the `window_p99_us` series when a scenario asks for it with no
        // controller armed (the metastable gates read the *ungated* twin
        // through exactly that series).
        let wants_window_p99 = cfg
            .telemetry
            .as_ref()
            .is_some_and(|t| t.series.contains(&SeriesKind::WindowP99));
        let collect_window = admission.is_some() || cfg.slo.is_some() || wants_window_p99;
        let (admit_fractions, credit_targets_us) = match (&admission, &cfg.slo) {
            (Some(_), Some(slo)) => (slo.admit_fractions(), slo.aimd_targets_us(CREDIT_HEADROOM)),
            _ => (vec![1.0; classes], Vec::new()),
        };
        let telem = cfg.telemetry.as_ref().filter(|t| !t.is_off()).map(|t| {
            // Ring capacity: every completed lifecycle has ≤ 8 points plus
            // preempt slices, and under overload each *shed* arrival adds
            // two more (Arrival, Shed) — at offered load L the gate turns
            // away ~(L-1)/L of arrivals, so budget 16 points per completed
            // lifecycle (covers sheds up to ~4x the completion count).
            // A wrapped ring tears the *oldest* lifecycles, which skews any
            // trace-derived quantile; size to hold the full run so drops
            // only happen under pathological preemption/overload storms.
            let lifecycles = (cfg.requests + cfg.warmup) / t.sample_period.max(1) as u64 + 1;
            let per_core = (lifecycles as usize * 16 / cfg.cores.max(1)).clamp(4_096, 1 << 21);
            let mut reg = Registry::default();
            let mut s_admitted = None;
            let mut s_credits = None;
            let mut s_active = None;
            let mut s_shed = Vec::new();
            let mut s_window_p99 = None;
            let mut s_retry = None;
            for kind in &t.series {
                match kind {
                    SeriesKind::AdmittedRate => {
                        s_admitted = Some(reg.register_series(kind.name(), t.max_series_points));
                    }
                    SeriesKind::CreditCapacity => {
                        s_credits = Some(reg.register_series(kind.name(), t.max_series_points));
                    }
                    SeriesKind::ActiveCores => {
                        s_active = Some(reg.register_series(kind.name(), t.max_series_points));
                    }
                    SeriesKind::ShedByClass => {
                        s_shed = (0..classes)
                            .map(|c| {
                                reg.register_series(
                                    &format!("{}{c}", kind.name()),
                                    t.max_series_points,
                                )
                            })
                            .collect();
                    }
                    SeriesKind::WindowP99 => {
                        s_window_p99 = Some(reg.register_series(kind.name(), t.max_series_points));
                    }
                    SeriesKind::RetryRate => {
                        s_retry = Some(reg.register_series(kind.name(), t.max_series_points));
                    }
                }
            }
            SimTelemetry {
                tracer: Tracer::new(cfg.cores, per_core, t.sample_period),
                trace_on: t.trace,
                reg,
                harvest: t.series.clone(),
                series_every: t.series_every.max(1),
                tick: 0,
                s_admitted,
                s_credits,
                s_active,
                s_shed,
                s_window_p99,
                s_retry,
                last_admitted: 0,
                last_rejected: vec![0; classes],
                last_retries: 0,
                last_t_ns: 0,
                last_window_tail: f64::NAN,
            }
        });
        ZygosModel {
            telem,
            cores: (0..cfg.cores)
                .map(|_| Core {
                    ring: VecDeque::new(),
                    shuffle: VecDeque::new(),
                    bg: VecDeque::new(),
                    remote_sys: Vec::new(),
                    work: None,
                    end: SimTime::ZERO,
                    epoch: 0,
                    ipi_pending: false,
                    slice_remaining_ns: 0,
                    active: true,
                })
                .collect(),
            conns: (0..cfg.conns)
                .map(|_| Conn {
                    st: ConnSt::Idle,
                    pending: VecDeque::new(),
                })
                .collect(),
            victims: (0..cfg.cores).collect(),
            victims_rng: zygos_sim::rng::Xoshiro256::new(cfg.seed ^ 0x0056_4543_544F_5253), // "VECTORS"
            source,
            rec,
            dispatch,
            ladder,
            elastic,
            ctl_period: SimDuration::from_micros_f64(cfg.elastic.control_period_us.max(1.0)),
            admission,
            admit_fractions,
            credit_targets_us,
            rejected_by_class: vec![0; classes],
            admitted_by_class: vec![0; classes],
            wire_rejects: 0,
            retries: 0,
            give_ups: 0,
            timeouts_fired: 0,
            retry_live: HashMap::new(),
            timeout_dur: match (cfg.retry, cfg.retry_timeout_us) {
                (Some(_), Some(t)) if t > 0.0 => Some(SimDuration::from_micros_f64(t)),
                _ => None,
            },
            // The window buckets are ~¼MB per class: only materialized
            // when a controller actually harvests them.
            win: if collect_window {
                (0..classes).map(|_| WindowHistogram::new()).collect()
            } else {
                Vec::new()
            },
            collect_window,
            batch_pool: Vec::new(),
            m_active: {
                let mut m = CoreMask::new(cfg.cores);
                for i in 0..cfg.cores {
                    m.set(i);
                }
                m
            },
            m_busy: CoreMask::new(cfg.cores),
            m_inapp: CoreMask::new(cfg.cores),
            m_ring: CoreMask::new(cfg.cores),
            m_shuffle: CoreMask::new(cfg.cores),
            m_bg: CoreMask::new(cfg.cores),
            m_remote: CoreMask::new(cfg.cores),
            m_ipi: CoreMask::new(cfg.cores),
            m_run_pending: CoreMask::new(cfg.cores),
            cfg,
            local_events: 0,
            stolen_events: 0,
            ipis_delivered: 0,
            preemptions: 0,
            busy: BusyMeter::default(),
            fg_busy: BusyMeter::default(),
        }
    }

    /// True when the model arms the periodic `Control` tick.
    pub(crate) fn has_control_plane(&self) -> bool {
        self.elastic.is_some() || self.admission.is_some()
    }

    /// True when the periodic `Control` tick must be armed: a control
    /// plane is present, or the telemetry config asked for time-series
    /// (the harvest rides the same tick, so telemetry alone arms it).
    pub(crate) fn wants_control_tick(&self) -> bool {
        self.has_control_plane() || self.telem.as_ref().is_some_and(|t| !t.harvest.is_empty())
    }

    /// Publishes the requested time-series into the registry. Rides the
    /// control tick; rate series are deltas over the harvest interval.
    fn telem_harvest(&mut self, now: SimTime) {
        let Some(tl) = &mut self.telem else { return };
        if tl.harvest.is_empty() {
            return;
        }
        tl.tick += 1;
        if tl.tick % tl.series_every != 0 {
            return;
        }
        let t_us = now.as_micros_f64();
        let dt_s = (now.as_nanos() - tl.last_t_ns) as f64 / 1e9;
        if dt_s <= 0.0 {
            return;
        }
        if let Some(id) = tl.s_admitted {
            let total: u64 = self.admitted_by_class.iter().sum();
            tl.reg
                .push(id, t_us, (total - tl.last_admitted) as f64 / dt_s);
            tl.last_admitted = total;
        }
        if let Some(id) = tl.s_credits {
            let cap = self.admission.as_ref().map_or(0.0, |p| p.capacity() as f64);
            tl.reg.push(id, t_us, cap);
        }
        if let Some(id) = tl.s_active {
            let active: u32 = self.m_active.w.iter().map(|w| w.count_ones()).sum();
            tl.reg.push(id, t_us, active as f64);
        }
        for c in 0..tl.s_shed.len() {
            let id = tl.s_shed[c];
            let total = self.rejected_by_class[c];
            tl.reg
                .push(id, t_us, (total - tl.last_rejected[c]) as f64 / dt_s);
            tl.last_rejected[c] = total;
        }
        if let Some(id) = tl.s_window_p99 {
            // NaN windows (too few samples to call a tail) are skipped
            // rather than recorded: a gap is honest, a zero is a lie.
            if tl.last_window_tail.is_finite() {
                tl.reg.push(id, t_us, tl.last_window_tail);
            }
        }
        if let Some(id) = tl.s_retry {
            tl.reg
                .push(id, t_us, (self.retries - tl.last_retries) as f64 / dt_s);
            tl.last_retries = self.retries;
        }
        tl.last_t_ns = now.as_nanos();
    }

    /// Accounts a `Core::work` presence transition at `now` (`delta` is +1
    /// for install, −1 for removal, 0 to flush the integrals; `fg` is
    /// false only for background application chunks).
    fn note_busy(&mut self, now: SimTime, delta: i64, fg: bool) {
        self.busy.update(now.as_nanos(), delta);
        self.fg_busy
            .update(now.as_nanos(), if fg { delta } else { 0 });
    }

    /// The core that serves packets homed on `home` (identity unless the
    /// home core is parked and its RSS queue was redirected).
    fn serving_core(&self, home: usize) -> usize {
        match &self.elastic {
            Some(e) => e.redirect[home],
            None => home,
        }
    }

    /// Spends a credit for an arriving request of `conn`'s tenant class
    /// (weighted fair shedding: looser classes are capped at a smaller
    /// pool share and shed first). `true` when admission is off or a
    /// credit was granted.
    fn gate_admit(&mut self, conn: u32) -> bool {
        let Some(pool) = &mut self.admission else {
            return true;
        };
        let class = self.cfg.slo.as_ref().map_or(0, |t| t.class_of(conn));
        if pool.try_admit_weighted(class, self.admit_fractions[class]) {
            self.admitted_by_class[class] += 1;
            true
        } else {
            self.rejected_by_class[class] += 1;
            false
        }
    }

    /// Arms the client timeout for `attempt` of `req` at its send time
    /// (no-op unless both a retry policy and a timeout are configured).
    /// The map entry makes this the request's *live* attempt; any older
    /// `Timeout` event still in the queue is thereby stale.
    fn arm_timeout(&mut self, req: Req, attempt: u32, now: SimTime, sched: &mut Scheduler<Ev>) {
        if let Some(t) = self.timeout_dur {
            self.retry_live.insert(req.seq, attempt);
            sched.at(now + t, Ev::Timeout { req, attempt });
        }
    }

    /// Feeds one shed or timed-out attempt to the retry policy — the
    /// closed loop's single entry point. `notify_delay` is how long the
    /// *client* takes to learn of the failure (zero for a local shed or
    /// timeout, half an RTT for a server-edge reject); the re-issue, if
    /// any, fires `notify_delay + backoff` from `now` and re-enters the
    /// full admission path via [`Ev::Retry`]. Does nothing (and touches
    /// no counter) when no policy is armed, keeping the open-loop world
    /// bit-identical.
    fn feed_retry(
        &mut self,
        req: Req,
        attempt: u32,
        now: SimTime,
        notify_delay: SimDuration,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(policy) = self.cfg.retry else { return };
        let noticed = now + notify_delay;
        let elapsed_us = noticed.duration_since(req.send).as_micros_f64() as u64;
        let decision = if self.cfg.retry_jitter {
            policy.on_shed_jittered(
                attempt,
                elapsed_us,
                conn_key(self.cfg.seed, req.conn as usize),
            )
        } else {
            policy.on_shed(attempt, elapsed_us)
        };
        let delay_us = match decision {
            RetryDecision::GiveUp => {
                self.give_ups += 1;
                return;
            }
            RetryDecision::RetryNow => 0,
            RetryDecision::RetryAfterUs(d) => d,
        };
        self.retries += 1;
        let at = noticed + SimDuration::from_micros_f64(delay_us as f64);
        sched.at(
            at,
            Ev::Retry {
                req,
                attempt: attempt + 1,
            },
        );
    }

    /// Issues (or re-issues) `req` as transmission `attempt`: the same
    /// client-side gating the original send went through, plus timeout
    /// arming. A client-side shed feeds straight back into the policy.
    fn issue(&mut self, req: Req, attempt: u32, now: SimTime, sched: &mut Scheduler<Ev>) {
        let client_gated = self.cfg.admission_mode != AdmissionMode::ServerEdge;
        if !client_gated || self.gate_admit(req.conn) {
            if client_gated && self.admission.is_some() {
                self.trace(req.home, req.seq, TraceKind::Admit, now);
            }
            self.arm_timeout(req, attempt, now, sched);
            sched.after(self.source.half_rtt, Ev::Packet(req, attempt));
        } else {
            self.trace(req.home, req.seq, TraceKind::Shed, now);
            self.feed_retry(req, attempt, now, SimDuration::ZERO, sched);
        }
    }

    /// Records one lifecycle trace point (one untaken branch when
    /// telemetry is off or tracing was not requested).
    #[inline]
    fn trace(&mut self, core: u16, seq: u32, kind: TraceKind, t: SimTime) {
        if let Some(tl) = &mut self.telem {
            if tl.trace_on {
                tl.tracer.record(core, seq, kind, t.as_nanos());
            }
        }
    }

    /// Records a completed request: recorder, credit return, and the
    /// control window's per-class latency sample.
    fn complete_req(&mut self, req: &Req, tx_time: SimTime) {
        if self.timeout_dur.is_some() {
            // The logical request is answered (by whichever attempt got
            // here first): any pending timeout for it becomes stale.
            self.retry_live.remove(&req.seq);
        }
        let measured = self.rec.complete(req, tx_time);
        if measured {
            // Trace exactly the histogram's population, timestamped at the
            // client's observation (send → client_rx = the recorded
            // latency), so trace-derived tails match the report's.
            let client_rx = tx_time + self.source.half_rtt;
            self.trace(req.home, req.seq, TraceKind::Completion, client_rx);
        }
        let class = self.cfg.slo.as_ref().map_or(0, |t| t.class_of(req.conn));
        if let Some(pool) = &mut self.admission {
            pool.release_class(class);
        }
        if self.collect_window {
            let client_rx = tx_time + self.source.half_rtt;
            let lat_ns = client_rx.duration_since(req.send).as_nanos();
            self.win[class].record_nanos(lat_ns);
        }
    }

    /// Wakes every idle granted core (something steal-able appeared).
    /// Cores with a run already queued are skipped (see `m_run_pending`).
    fn wake_idle(&mut self, sched: &mut Scheduler<Ev>) {
        for wi in 0..self.m_active.w.len() {
            let mut bits = self.m_active.w[wi] & !self.m_busy.w[wi] & !self.m_run_pending.w[wi];
            while bits != 0 {
                let i = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                debug_assert!(self.cores[i].active && self.cores[i].is_idle());
                self.m_run_pending.set(i);
                sched.at(sched.now(), Ev::Run(i));
            }
        }
    }

    /// Wakes one core if granted, idle, and not already woken.
    fn wake(&mut self, core: usize, sched: &mut Scheduler<Ev>) {
        if self.m_active.test(core) && !self.m_busy.test(core) && !self.m_run_pending.test(core) {
            self.m_run_pending.set(core);
            sched.at(sched.now(), Ev::Run(core));
        }
    }

    /// Sends an IPI to `target` if one is not already in flight.
    fn send_ipi(&mut self, target: usize, sched: &mut Scheduler<Ev>) {
        if !self.cores[target].ipi_pending {
            self.cores[target].ipi_pending = true;
            self.m_ipi.set(target);
            sched.after(ns(self.cfg.cost.ipi_delivery_ns), Ev::Ipi(target));
        }
    }

    /// Whether the ladder includes the IPI-scan rung.
    fn ipis_enabled(&self) -> bool {
        self.ladder.contains(&Rung::IpiScan)
    }

    /// Enqueues a preempted remainder on `home`'s background queue per the
    /// policy's ordering discipline.
    fn bg_enqueue(&mut self, home: usize, entry: BgEntry) {
        self.m_bg.set(home);
        let q = &mut self.cores[home].bg;
        match self.dispatch.background_order() {
            BackgroundOrder::Fcfs => q.push_back(entry),
            BackgroundOrder::Srpt => {
                // Keep the least-remaining entry at the front. Stable on
                // ties (insert after equal keys) to preserve arrival order.
                let at = q.partition_point(|e| e.remaining_ns <= entry.remaining_ns);
                q.insert(at, entry);
            }
        }
    }

    /// Applies RX-batch effects: packets join their connections' event
    /// queues; idle connections become ready on this core's shuffle queue.
    /// The batch buffer is drained and recycled through the pool.
    fn apply_net_batch(&mut self, core: usize, mut batch: Vec<Req>, sched: &mut Scheduler<Ev>) {
        // In elastic mode the executing core may have been parked while
        // this net chunk was in flight (apply_allocation drains queues
        // only on the transition): enqueue on its serving core, or the
        // ready connections would be stranded on a queue nothing scans.
        let dst = self.serving_core(core);
        let mut newly_ready = false;
        for req in batch.drain(..) {
            let conn = &mut self.conns[req.conn as usize];
            conn.pending.push_back(req);
            if conn.st == ConnSt::Idle {
                conn.st = ConnSt::Ready;
                self.cores[dst].shuffle.push_back(req.conn);
                newly_ready = true;
            }
        }
        self.batch_pool.push(batch);
        if newly_ready {
            self.m_shuffle.set(dst);
            // Ready connections are steal-able: every idle core may act.
            self.wake_idle(sched);
        }
    }

    /// Begins executing an application event batch for `conn` on `core`.
    #[allow(clippy::too_many_arguments)]
    fn begin_app(
        &mut self,
        core: usize,
        conn: u32,
        extra_ns: u64,
        stolen: bool,
        bg: bool,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let c = &mut self.conns[conn as usize];
        debug_assert_eq!(c.st, ConnSt::Busy);
        let mut events = std::mem::take(&mut c.pending);
        debug_assert!(!events.is_empty(), "ready connection without events");
        let cur = events.pop_front().expect("non-empty");
        self.schedule_app_chunk(core, conn, cur, events, stolen, bg, extra_ns, now, sched);
    }

    /// Installs one application chunk on `core` and schedules its end event
    /// — `WorkDone` at completion, or `Preempt` at quantum expiry when the
    /// policy decides to slice the chunk.
    #[allow(clippy::too_many_arguments)]
    fn schedule_app_chunk(
        &mut self,
        core: usize,
        conn: u32,
        mut cur: Req,
        rest: VecDeque<Req>,
        stolen: bool,
        bg: bool,
        extra_ns: u64,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        self.trace(core as u16, cur.seq, TraceKind::Dispatch, now);
        self.note_busy(now, 1, !bg);
        self.m_busy.set(core);
        self.m_inapp.set(core);
        let slice = self.dispatch.slice(cur.service.as_nanos());
        let core_ref = &mut self.cores[core];
        core_ref.epoch += 1;
        let epoch = core_ref.epoch;
        match slice {
            Some(s) => {
                // Run one quantum of service, then take the timer interrupt
                // (charged at the calibrated context save/restore cost) and
                // requeue the rest. The completion syscalls are not issued
                // by a preempted slice, so only the dispatch cost applies
                // on this chunk.
                cur.service = SimDuration::from_nanos(s.run_ns);
                let dur = self.cfg.cost.event_dispatch_ns
                    + s.run_ns
                    + self.cfg.cost.ctx_save_restore_ns
                    + extra_ns;
                let core_ref = &mut self.cores[core];
                core_ref.slice_remaining_ns = s.remaining_ns;
                core_ref.work = Some(Work::App {
                    conn,
                    cur,
                    rest,
                    stolen,
                    bg,
                });
                core_ref.end = now + ns(dur);
                sched.at(core_ref.end, Ev::Preempt { core, epoch });
            }
            None => {
                let dur = self.event_exec_ns(&cur, stolen) + extra_ns;
                let core_ref = &mut self.cores[core];
                core_ref.slice_remaining_ns = 0;
                core_ref.work = Some(Work::App {
                    conn,
                    cur,
                    rest,
                    stolen,
                    bg,
                });
                core_ref.end = now + ns(dur);
                sched.at(core_ref.end, Ev::WorkDone { core, epoch });
            }
        }
    }

    /// CPU time of one application event on its execution core.
    ///
    /// Home execution transmits inline (eager TX, §6.2); stolen execution
    /// ships its syscalls home instead (the shipping enqueue is folded into
    /// the home core's `remote_syscall_ns`).
    fn event_exec_ns(&self, req: &Req, stolen: bool) -> u64 {
        let c = &self.cfg.cost;
        let mut ns = c.event_dispatch_ns + req.service.as_nanos() + c.syscall_batch_ns;
        if !stolen {
            ns += c.stack_tx_per_msg_ns;
        }
        ns
    }

    /// The core scheduling loop: tries each rung of the shared dispatch
    /// ladder in policy order and takes the first that yields work.
    fn run_core(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        if !self.cores[core].active {
            return; // Parked by the elastic controller; queues were drained.
        }
        if self.cores[core].work.is_some() {
            return; // Busy; it will rerun at WorkDone.
        }
        // Victim order is (re)shuffled at most once per loop entry, by the
        // first rung that actually scans other cores (sweeps whose
        // occupancy mask is empty skip both the walk and the shuffle), and
        // shared by the rest.
        let mut victims_ready = false;
        for i in 0..self.ladder.len() {
            let took = match self.ladder[i] {
                Rung::RemoteSyscalls => self.rung_remote_tx(core, now, sched),
                Rung::AgedBackground => self.rung_aged_bg(core, now, sched),
                Rung::LocalReady => self.rung_local_ready(core, now, sched),
                Rung::LocalNet => self.rung_local_net(core, now, sched),
                Rung::StealReady => self.rung_steal_ready(core, now, sched, &mut victims_ready),
                Rung::LocalBackground => self.rung_local_bg(core, now, sched),
                Rung::StealBackground => self.rung_steal_bg(core, now, sched, &mut victims_ready),
                Rung::IpiScan => {
                    self.rung_ipi_scan(core, sched, &mut victims_ready);
                    false // The scan kicks another core; this one stays idle.
                }
            };
            if took {
                return;
            }
        }
        // Idle. Woken by wake()/wake_idle() on any actionable change.
    }

    /// Shuffles the victim scan order once per scheduling-loop entry (when
    /// the policy asks for randomization). Runs on the dedicated
    /// victim-order RNG, so the workload stream is untouched.
    fn prepare_victims(&mut self, ready: &mut bool) {
        if !*ready {
            if self.dispatch.randomize_victims() {
                self.victims_rng.shuffle(&mut self.victims);
            }
            *ready = true;
        }
    }

    /// Remote syscalls (TX for stolen executions): they hold finished
    /// responses.
    fn rung_remote_tx(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) -> bool {
        if self.cores[core].remote_sys.is_empty() {
            return false;
        }
        let per_msg = self.cfg.cost.remote_syscall_ns + self.cfg.cost.stack_tx_per_msg_ns;
        let spare = self.batch_pool.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.cores[core].remote_sys, spare);
        self.m_remote.clear(core);
        let dur = per_msg * batch.len() as u64;
        self.note_busy(now, 1, true);
        self.m_busy.set(core);
        let c = &mut self.cores[core];
        c.work = Some(Work::RemoteTx { batch });
        c.epoch += 1;
        c.end = now + ns(dur);
        sched.at(
            c.end,
            Ev::WorkDone {
                core,
                epoch: c.epoch,
            },
        );
        true
    }

    /// Aged background connection: a preempted remainder past the policy's
    /// aging bound outranks fresh work.
    fn rung_aged_bg(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) -> bool {
        let age_bound = self.dispatch.background_aging_ns();
        if age_bound == u64::MAX || !self.m_bg.test(core) {
            return false;
        }
        let bound = ns(age_bound);
        // Promote the oldest aged entry. Even under FCFS the front is not
        // guaranteed oldest: apply_allocation's park-time drain appends a
        // parked core's entries behind the target's regardless of age, and
        // SRPT orders by remaining time — so scan (queues are short).
        let idx = self.cores[core]
            .bg
            .iter()
            .enumerate()
            .filter(|(_, e)| now.duration_since(e.since) >= bound)
            .min_by_key(|(_, e)| e.since)
            .map(|(i, _)| i);
        let Some(idx) = idx else {
            return false;
        };
        let entry = self.cores[core].bg.remove(idx).expect("index valid");
        if self.cores[core].bg.is_empty() {
            self.m_bg.clear(core);
        }
        debug_assert_eq!(self.conns[entry.conn as usize].st, ConnSt::Ready);
        self.conns[entry.conn as usize].st = ConnSt::Busy;
        // Promoted by aging: overdue work is foreground demand.
        let extra = self.cfg.cost.shuffle_op_ns;
        self.begin_app(core, entry.conn, extra, false, false, now, sched);
        true
    }

    /// Own shuffle queue.
    fn rung_local_ready(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) -> bool {
        let Some(conn) = self.cores[core].shuffle.pop_front() else {
            return false;
        };
        if self.cores[core].shuffle.is_empty() {
            self.m_shuffle.clear(core);
        }
        debug_assert_eq!(self.conns[conn as usize].st, ConnSt::Ready);
        self.conns[conn as usize].st = ConnSt::Busy;
        let extra = self.cfg.cost.shuffle_op_ns;
        self.begin_app(core, conn, extra, false, false, now, sched);
        true
    }

    /// Own NIC ring: run the network stack over a bounded batch.
    fn rung_local_net(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) -> bool {
        if self.cores[core].ring.is_empty() {
            return false;
        }
        let fixed = self.cfg.cost.driver_batch_fixed_ns;
        let per_pkt = self.cfg.cost.driver_per_pkt_ns + self.cfg.cost.stack_rx_per_pkt_ns;
        let k = (self.cores[core].ring.len() as u64).min(self.cfg.rx_batch.max(1));
        let mut batch = self.batch_pool.pop().unwrap_or_default();
        batch.extend(self.cores[core].ring.drain(..k as usize));
        if self.cores[core].ring.is_empty() {
            self.m_ring.clear(core);
        }
        let dur = fixed + k * per_pkt;
        self.note_busy(now, 1, true);
        self.m_busy.set(core);
        let c = &mut self.cores[core];
        c.work = Some(Work::Net { batch });
        c.epoch += 1;
        c.end = now + ns(dur);
        sched.at(
            c.end,
            Ev::WorkDone {
                core,
                epoch: c.epoch,
            },
        );
        true
    }

    /// Steal a ready connection from another core's shuffle queue.
    fn rung_steal_ready(
        &mut self,
        core: usize,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        victims_ready: &mut bool,
    ) -> bool {
        if !self.dispatch.may_steal(true) {
            return false;
        }
        if !any_other(&self.m_active, &self.m_shuffle, core) {
            return false; // Nothing stealable anywhere: skip the walk.
        }
        self.prepare_victims(victims_ready);
        let mut stolen_conn = None;
        for idx in 0..self.victims.len() {
            let v = self.victims[idx];
            if v == core || !self.m_active.test(v) || !self.m_shuffle.test(v) {
                continue;
            }
            let conn = self.cores[v].shuffle.pop_front().expect("mask says ready");
            if self.cores[v].shuffle.is_empty() {
                self.m_shuffle.clear(v);
            }
            stolen_conn = Some(conn);
            break;
        }
        let Some(conn) = stolen_conn else {
            return false;
        };
        debug_assert_eq!(self.conns[conn as usize].st, ConnSt::Ready);
        self.conns[conn as usize].st = ConnSt::Busy;
        if self.telem.is_some() {
            // The stolen batch's first request (`begin_app` pops it next).
            if let Some(seq) = self.conns[conn as usize].pending.front().map(|r| r.seq) {
                self.trace(core as u16, seq, TraceKind::Steal, now);
            }
        }
        let extra = self.cfg.cost.shuffle_op_ns + self.cfg.cost.steal_extra_ns;
        self.begin_app(core, conn, extra, true, false, now, sched);
        true
    }

    /// Own background (preempted) queue. It runs only when no fresh work
    /// is visible anywhere: a quantum-expired request is known long, and
    /// deferring it behind everything short is the approximate-SJF move
    /// that bounds the dispersive tail (Shinjuku's two-level queue).
    fn rung_local_bg(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) -> bool {
        let Some(entry) = self.cores[core].bg.pop_front() else {
            return false;
        };
        if self.cores[core].bg.is_empty() {
            self.m_bg.clear(core);
        }
        debug_assert_eq!(self.conns[entry.conn as usize].st, ConnSt::Ready);
        self.conns[entry.conn as usize].st = ConnSt::Busy;
        let extra = self.cfg.cost.shuffle_op_ns;
        self.begin_app(core, entry.conn, extra, false, true, now, sched);
        true
    }

    /// Steal a background entry from another core.
    fn rung_steal_bg(
        &mut self,
        core: usize,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        victims_ready: &mut bool,
    ) -> bool {
        if !self.dispatch.may_steal(true) {
            return false;
        }
        if !any_other(&self.m_active, &self.m_bg, core) {
            return false; // Nothing stealable anywhere: skip the walk.
        }
        self.prepare_victims(victims_ready);
        let mut found = None;
        for idx in 0..self.victims.len() {
            let v = self.victims[idx];
            if v == core || !self.m_active.test(v) || !self.m_bg.test(v) {
                continue;
            }
            let entry = self.cores[v].bg.pop_front().expect("mask says ready");
            if self.cores[v].bg.is_empty() {
                self.m_bg.clear(v);
            }
            found = Some(entry);
            break;
        }
        let Some(entry) = found else {
            return false;
        };
        debug_assert_eq!(self.conns[entry.conn as usize].st, ConnSt::Ready);
        self.conns[entry.conn as usize].st = ConnSt::Busy;
        if self.telem.is_some() {
            if let Some(seq) = self.conns[entry.conn as usize]
                .pending
                .front()
                .map(|r| r.seq)
            {
                self.trace(core as u16, seq, TraceKind::Steal, now);
            }
        }
        let extra = self.cfg.cost.shuffle_op_ns + self.cfg.cost.steal_extra_ns;
        self.begin_app(core, entry.conn, extra, true, true, now, sched);
        true
    }

    /// Scan remote NIC rings; IPI home cores stuck in application code
    /// ("aggressively sends interrupts as soon as a remote core detects a
    /// pending packet in the hardware queue and the home core is executing
    /// at user-level", §5).
    fn rung_ipi_scan(&mut self, core: usize, sched: &mut Scheduler<Ev>, victims_ready: &mut bool) {
        if !any_other(&self.m_ring, &self.m_inapp, core) {
            return; // No undrained ring under an app chunk anywhere.
        }
        self.prepare_victims(victims_ready);
        let mut target = None;
        for idx in 0..self.victims.len() {
            let v = self.victims[idx];
            if v == core || !self.m_active.test(v) {
                continue;
            }
            if self.m_ring.test(v) && self.m_inapp.test(v) && !self.m_ipi.test(v) {
                debug_assert!(!self.cores[v].ring.is_empty() && self.cores[v].in_app());
                target = Some(v);
                break;
            }
        }
        if let Some(v) = target {
            self.send_ipi(v, sched);
        }
    }

    fn work_done(&mut self, core: usize, epoch: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.cores[core].epoch != epoch {
            return; // Invalidated by an IPI extension.
        }
        let work = self.cores[core]
            .work
            .take()
            .expect("work present at WorkDone");
        let was_bg = matches!(work, Work::App { bg: true, .. });
        self.note_busy(now, -1, !was_bg);
        self.m_busy.clear(core);
        self.m_inapp.clear(core);
        match work {
            Work::Net { batch } => {
                self.apply_net_batch(core, batch, sched);
            }
            Work::RemoteTx { mut batch } => {
                for req in batch.drain(..) {
                    self.complete_req(&req, now);
                }
                self.batch_pool.push(batch);
            }
            Work::App {
                conn,
                cur,
                mut rest,
                stolen,
                bg,
            } => {
                if stolen {
                    self.stolen_events += 1;
                    self.trace(core as u16, cur.seq, TraceKind::StolenDone, now);
                    // Ship the response home; the home core (or, in
                    // elastic mode, whichever core serves its queues)
                    // transmits.
                    let home = self.serving_core(cur.home as usize);
                    self.cores[home].remote_sys.push(cur);
                    self.m_remote.set(home);
                    if self.cores[home].is_idle() {
                        self.wake(home, sched);
                    } else if self.ipis_enabled() && self.cores[home].in_app() {
                        self.send_ipi(home, sched);
                    }
                } else {
                    self.local_events += 1;
                    self.complete_req(&cur, now);
                }
                if let Some(next) = rest.pop_front() {
                    // Continue the connection's event batch (implicit
                    // per-flow batching, §6.2).
                    self.schedule_app_chunk(core, conn, next, rest, stolen, bg, 0, now, sched);
                    return;
                }
                // Batch finished: Figure 5 transition out of busy.
                let connref = &mut self.conns[conn as usize];
                if connref.pending.is_empty() {
                    connref.st = ConnSt::Idle;
                    // Recycle the exhausted batch buffer as the
                    // connection's next pending queue.
                    connref.pending = rest;
                } else {
                    connref.st = ConnSt::Ready;
                    let home = self.serving_core(self.source.home_of(conn) as usize);
                    self.cores[home].shuffle.push_back(conn);
                    self.m_shuffle.set(home);
                    self.wake_idle(sched);
                }
            }
        }
        // Re-enter the scheduling loop.
        self.run_core(core, now, sched);
    }

    /// Quantum expiry: requeue the remainder of the interrupted request on
    /// its serving core's background queue, behind any shorter requests
    /// that arrived meanwhile — the anti-head-of-line move.
    fn preempt(&mut self, core: usize, epoch: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.cores[core].epoch != epoch {
            return; // Invalidated (e.g. an IPI extended the chunk).
        }
        let remaining = self.cores[core].slice_remaining_ns;
        self.cores[core].slice_remaining_ns = 0;
        let work = self.cores[core]
            .work
            .take()
            .expect("work present at Preempt");
        let was_bg = matches!(work, Work::App { bg: true, .. });
        self.note_busy(now, -1, !was_bg);
        self.m_busy.clear(core);
        self.m_inapp.clear(core);
        let Work::App {
            conn,
            mut cur,
            mut rest,
            ..
        } = work
        else {
            unreachable!("only application chunks are sliced");
        };
        debug_assert!(remaining > 0, "preempted chunk must have a remainder");
        self.preemptions += 1;
        self.trace(core as u16, cur.seq, TraceKind::Preempt, now);
        cur.service = SimDuration::from_nanos(remaining);
        // Requeue: the remainder stays the connection's oldest event (so
        // per-connection ordering holds), followed by the rest of the taken
        // batch, then anything that arrived during the slice. Reuses the
        // taken batch's buffer as the new pending queue.
        let seq = cur.seq;
        let connref = &mut self.conns[conn as usize];
        debug_assert_eq!(connref.st, ConnSt::Busy);
        let arrived = std::mem::take(&mut connref.pending);
        rest.push_front(cur);
        rest.extend(arrived);
        connref.pending = rest;
        connref.st = ConnSt::Ready;
        let home = self.serving_core(self.source.home_of(conn) as usize);
        self.trace(home as u16, seq, TraceKind::BgRequeue, now);
        self.bg_enqueue(
            home,
            BgEntry {
                conn,
                since: now,
                remaining_ns: remaining,
            },
        );
        self.wake_idle(sched);
        // The interrupted core re-enters its scheduling loop (the handler
        // cost was charged inside the chunk).
        self.run_core(core, now, sched);
    }

    /// Harvests the control window: the worst per-class p99-vs-SLO ratio
    /// (for the SLO-driven allocator), the overall window tail in µs (for
    /// the untargeted credit AIMD; `NaN` when the window is too thin), and
    /// the worst per-class tail-vs-credit-target ratio (for the SLO-driven
    /// credit AIMD; `NaN` likewise).
    fn window_signal(&mut self) -> (Option<f64>, f64, f64) {
        let ratio = self
            .cfg
            .slo
            .as_ref()
            .and_then(|slo| slo.worst_ratio_hist(&mut self.win, MIN_WINDOW_SAMPLES));
        let credit_ratio = if self.credit_targets_us.is_empty() {
            f64::NAN
        } else {
            self.cfg
                .slo
                .as_ref()
                .expect("targets derive from slo")
                .worst_credit_ratio_hist(&mut self.win, &self.credit_targets_us, MIN_WINDOW_SAMPLES)
                .unwrap_or(f64::NAN)
        };
        // The untargeted window tail. Only the single-class configuration
        // consumes it (with tenant SLOs the AIMD runs on `credit_ratio`),
        // so the multi-class merge the old exact-sort path paid for is
        // gone.
        let tail_us = match &mut self.win[..] {
            [only] if only.count() >= MIN_WINDOW_SAMPLES as u64 => only.quantile_us(0.99),
            _ => f64::NAN,
        };
        for w in &mut self.win {
            w.clear();
        }
        (ratio, tail_us, credit_ratio)
    }

    /// Debug-build invariant: every occupancy mask mirrors the core state
    /// it accelerates. Cheap enough to run per control tick in tests.
    #[cfg(debug_assertions)]
    fn debug_check_masks(&self) {
        for (i, c) in self.cores.iter().enumerate() {
            debug_assert_eq!(self.m_active.test(i), c.active, "active mask, core {i}");
            debug_assert_eq!(self.m_busy.test(i), c.work.is_some(), "busy mask, core {i}");
            debug_assert_eq!(self.m_inapp.test(i), c.in_app(), "in-app mask, core {i}");
            debug_assert_eq!(self.m_ipi.test(i), c.ipi_pending, "ipi mask, core {i}");
            debug_assert_eq!(
                self.m_ring.test(i),
                !c.ring.is_empty(),
                "ring mask, core {i}"
            );
            debug_assert_eq!(
                self.m_shuffle.test(i),
                !c.shuffle.is_empty(),
                "shuffle mask, core {i}"
            );
            debug_assert_eq!(self.m_bg.test(i), !c.bg.is_empty(), "bg mask, core {i}");
            debug_assert_eq!(
                self.m_remote.test(i),
                !c.remote_sys.is_empty(),
                "remote mask, core {i}"
            );
        }
    }

    /// Control tick: harvest the window, drive the allocation policy (if
    /// elastic) and the credit AIMD (if admitting), reschedule.
    fn control(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        #[cfg(debug_assertions)]
        self.debug_check_masks();
        let (slo_ratio, tail_us, credit_ratio) = self.window_signal();
        if let Some(tl) = &mut self.telem {
            tl.last_window_tail = tail_us;
        }
        let slo_targeted = !self.credit_targets_us.is_empty();
        if let Some(pool) = &mut self.admission {
            if slo_targeted {
                // Per-tenant-class targets derived from the SLO bounds:
                // 1.0 means the worst class sits exactly at its target.
                pool.update_ratio(credit_ratio);
            } else {
                pool.update(tail_us);
            }
        }
        self.note_busy(now, 0, true); // Flush the busy integrals up to `now`.
        let busy_integral = self.fg_busy.integral_ns;
        let fg_count = self.fg_busy.count;
        if self.elastic.is_some() {
            // Utilization, time-averaged since the previous tick:
            // instantaneous busy-core counts swing wildly under bursty
            // Poisson arrivals.
            let elastic = self.elastic.as_mut().expect("checked");
            let dt = now.as_nanos() - elastic.last_ctl_ns;
            let busy = if dt == 0 {
                fg_count as f64
            } else {
                (busy_integral - elastic.last_ctl_busy_integral) as f64 / dt as f64
            };
            elastic.last_ctl_busy_integral = busy_integral;
            elastic.last_ctl_ns = now.as_nanos();
            // Backlog = work waiting involuntarily. Un-aged background
            // entries are deferred *by policy* (they run in idle gaps) and
            // would otherwise read as queue pressure that blocks parking at
            // low load; only overdue (aged) entries count.
            let age_bound = self.dispatch.background_aging_ns();
            let bound = if age_bound == u64::MAX {
                None
            } else {
                Some(ns(age_bound))
            };
            let mut backlog = 0;
            for c in &self.cores {
                if c.active {
                    backlog += c.ring.len() + c.shuffle.len() + c.remote_sys.len();
                    if let Some(b) = bound {
                        backlog +=
                            c.bg.iter()
                                .filter(|e| now.duration_since(e.since) >= b)
                                .count();
                    }
                }
            }
            let elastic = self.elastic.as_mut().expect("checked");
            let decision = elastic.allocator.observe(&PolicySignal {
                busy_cores: busy,
                backlog,
                slo_ratio,
            });
            let target = elastic.allocator.active();
            if decision != Decision::Hold {
                self.apply_allocation(target, now, sched);
            }
        }
        self.telem_harvest(now);
        sched.after(self.ctl_period, Ev::Control);
    }

    /// Reconfigures the data plane to `target` granted cores: cores
    /// `[0, target)` are active, the rest park after draining their queues
    /// into an active core (modeling RSS indirection-table reprogramming
    /// plus queue migration — both controller-side, off the data path).
    fn apply_allocation(&mut self, target: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let n = self.cores.len();
        for i in 0..n {
            let was = self.cores[i].active;
            self.cores[i].active = i < target;
            self.m_active.put(i, i < target);
            if was && !self.cores[i].active {
                // Drain a newly parked core into its redirect target.
                let dst = i % target;
                let ring: Vec<Req> = self.cores[i].ring.drain(..).collect();
                let shuffle: Vec<u32> = self.cores[i].shuffle.drain(..).collect();
                let bg: Vec<BgEntry> = self.cores[i].bg.drain(..).collect();
                let remote: Vec<Req> = self.cores[i].remote_sys.drain(..).collect();
                self.m_ring.clear(i);
                self.m_shuffle.clear(i);
                self.m_bg.clear(i);
                self.m_remote.clear(i);
                if !ring.is_empty() {
                    self.m_ring.set(dst);
                }
                if !shuffle.is_empty() {
                    self.m_shuffle.set(dst);
                }
                if !remote.is_empty() {
                    self.m_remote.set(dst);
                }
                self.cores[dst].ring.extend(ring);
                self.cores[dst].shuffle.extend(shuffle);
                for entry in bg {
                    self.bg_enqueue(dst, entry);
                }
                self.cores[dst].remote_sys.extend(remote);
                self.wake(dst, sched);
            } else if !was && self.cores[i].active {
                self.wake(i, sched);
            }
        }
        if let Some(e) = &mut self.elastic {
            for (home, slot) in e.redirect.iter_mut().enumerate() {
                *slot = if home < target { home } else { home % target };
            }
            e.meter.set_active(now.as_nanos(), target);
        }
    }

    fn ipi(&mut self, core: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.cores[core].ipi_pending = false;
        self.m_ipi.clear(core);
        self.ipis_delivered += 1;
        if !self.cores[core].in_app() {
            // Not in user code: the loop will find the work itself.
            self.wake(core, sched);
            return;
        }
        let cost = self.cfg.cost.clone();
        let mut ext_ns = cost.ipi_handler_ns;
        // Handler duty 1: replenish the shuffle queue if it ran dry.
        if self.cores[core].shuffle.is_empty() && !self.cores[core].ring.is_empty() {
            let k = (self.cores[core].ring.len() as u64).min(self.cfg.rx_batch.max(1));
            let mut batch = self.batch_pool.pop().unwrap_or_default();
            batch.extend(self.cores[core].ring.drain(..k as usize));
            if self.cores[core].ring.is_empty() {
                self.m_ring.clear(core);
            }
            ext_ns += cost.driver_batch_fixed_ns
                + k * (cost.driver_per_pkt_ns + cost.stack_rx_per_pkt_ns);
            self.apply_net_batch(core, batch, sched);
        }
        // Handler duty 2: flush remote syscalls / transmit.
        if !self.cores[core].remote_sys.is_empty() {
            let spare = self.batch_pool.pop().unwrap_or_default();
            let mut batch = std::mem::replace(&mut self.cores[core].remote_sys, spare);
            self.m_remote.clear(core);
            ext_ns += (cost.remote_syscall_ns + cost.stack_tx_per_msg_ns) * batch.len() as u64;
            let tx_at = now + ns(cost.ipi_handler_ns);
            for req in batch.drain(..) {
                self.complete_req(&req, tx_at);
            }
            self.batch_pool.push(batch);
        }
        // The interrupted application event finishes later by the handler's
        // execution time: invalidate and reschedule its completion (or its
        // quantum expiry, if the chunk is a preemption slice).
        let ext = ns(ext_ns);
        let c = &mut self.cores[core];
        c.end += ext;
        c.epoch += 1;
        let (end, epoch) = (c.end, c.epoch);
        if c.slice_remaining_ns > 0 {
            sched.at(end, Ev::Preempt { core, epoch });
        } else {
            sched.at(end, Ev::WorkDone { core, epoch });
        }
    }

    /// The configuration this model was built (or last retargeted) with.
    pub(crate) fn cfg(&self) -> &SysConfig {
        &self.cfg
    }

    /// True once the recorder reached its completion target.
    pub(crate) fn is_done(&self) -> bool {
        self.rec.is_done()
    }

    /// Total queued requests over the active cores: NIC rings, ready
    /// connections on shuffle queues, preempted background entries, and
    /// pending remote syscalls. This is the importance-splitting level
    /// function — a trajectory's backlog crossing a threshold is the
    /// rare-event precursor the RESTART estimator splits on (see
    /// `docs/TAIL.md`).
    pub(crate) fn backlog(&self) -> usize {
        self.cores
            .iter()
            .filter(|c| c.active)
            .map(|c| c.ring.len() + c.shuffle.len() + c.bg.len() + c.remote_sys.len())
            .sum()
    }

    /// Arms per-completion sample collection on the recorder (importance
    /// splitting weights individual samples; the histogram cannot).
    pub(crate) fn arm_tail_sampling(&mut self) {
        self.rec.arm_tail_sampling();
    }

    /// Drains the per-completion samples collected since the last drain.
    pub(crate) fn drain_tail(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.rec.drain_tail()
    }

    /// Forks the stochastic streams onto an independent substream:
    /// importance-splitting clones diverge from the master trajectory at
    /// the split point, while the master keeps the original streams (so
    /// the master's own path is identical to the brute-force run's).
    pub(crate) fn fork_streams(&mut self, stream: u64) {
        self.source.fork_rng(stream);
        self.victims_rng = self.victims_rng.fork(stream ^ 0x0054_4149_4C53_504C);
        // "TAILSPL"
    }

    /// Splices a fresh measurement run onto this converged world: the new
    /// `cfg` (typically the same workload at a neighboring load) replaces
    /// the arrival rate and the recorder, and every *window statistic* —
    /// event counters, shed counts, latency windows, the core-seconds
    /// snapshot — is rewound to zero at `now`. Everything that is *world
    /// state* (queues, connection FSMs, RNG positions, credit capacity,
    /// allocator EWMAs, busy-time integrals the control plane diffs)
    /// carries over untouched: that converged state is exactly what the
    /// warm start is buying.
    pub(crate) fn retarget(&mut self, cfg: &SysConfig, now: SimTime, warmup: u64) {
        debug_assert_eq!(self.cfg.cores, cfg.cores, "warm start cannot restaff");
        debug_assert_eq!(self.cfg.conns, cfg.conns, "warm start cannot re-home");
        debug_assert!(cfg.telemetry.is_none(), "warm runs are telemetry-off");
        self.source.retarget(cfg);
        self.rec = Recorder::warm(cfg.requests, warmup, self.source.half_rtt, now);
        self.cfg = cfg.clone();
        self.timeout_dur = match (self.cfg.retry, self.cfg.retry_timeout_us) {
            (Some(_), Some(t)) if t > 0.0 => Some(SimDuration::from_micros_f64(t)),
            _ => None,
        };
        self.local_events = 0;
        self.stolen_events = 0;
        self.ipis_delivered = 0;
        self.preemptions = 0;
        self.wire_rejects = 0;
        // Window statistics; `retry_live` is world state and carries over.
        self.retries = 0;
        self.give_ups = 0;
        self.timeouts_fired = 0;
        for v in &mut self.rejected_by_class {
            *v = 0;
        }
        for v in &mut self.admitted_by_class {
            *v = 0;
        }
        if let Some(pool) = &mut self.admission {
            pool.reset_stats();
        }
        for w in &mut self.win {
            w.clear();
        }
        if let Some(e) = &mut self.elastic {
            // Re-snapshot when the new window opens; the meter itself and
            // the busy-integral diff base stay continuous across the
            // splice (the control loop keeps running through it).
            e.meas_snapshot = None;
        }
    }

    pub(crate) fn into_output(self, final_time: SimTime, events: u64) -> SysOutput {
        let sim_time_us = if self.rec.window_us() > 0.0 {
            self.rec.window_us()
        } else {
            final_time.as_micros_f64()
        };
        let avg_active_cores = match &self.elastic {
            // Average over the measurement window when we have its start
            // snapshot; otherwise over the whole run.
            Some(e) => match e.meas_snapshot {
                Some((t0, core_ns0)) if final_time.as_nanos() > t0 => {
                    (e.meter.core_ns(final_time.as_nanos()) - core_ns0) as f64
                        / (final_time.as_nanos() - t0) as f64
                }
                _ => e.meter.avg_cores(final_time.as_nanos(), 0),
            },
            None => self.cfg.cores as f64,
        };
        let (admitted, rejected) = self
            .admission
            .as_ref()
            .map_or((0, 0), |p| (p.admitted(), p.rejected()));
        let telemetry = self.telem.as_ref().map(|tl| TelemetryOut {
            events: tl.tracer.collect(),
            dropped: tl.tracer.dropped(),
            series: tl.reg.take_series(),
        });
        SysOutput {
            telemetry,
            latency: self.rec.latency.clone(),
            completed: self.rec.measured(),
            generated: self.source.emitted(),
            completed_total: self.rec.completed_total(),
            events,
            sim_time_us,
            local_events: self.local_events,
            stolen_events: self.stolen_events,
            ipis: self.ipis_delivered,
            preemptions: self.preemptions,
            avg_active_cores,
            admitted,
            rejected,
            wire_rejects: self.wire_rejects,
            rtt_us: self.cfg.cost.network_rtt_ns as f64 / 1_000.0,
            retries: self.retries,
            give_ups: self.give_ups,
            timeouts: self.timeouts_fired,
            rejected_by_class: self.rejected_by_class,
            admitted_by_class: self.admitted_by_class,
            stage_counts: Vec::new(),
            stage_p99_wait_us: Vec::new(),
        }
    }
}

impl Model for ZygosModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        if self.rec.is_done() {
            // Defensive: the bottom-of-handler stop below fires on the
            // event that reached the target, so a running engine should
            // never pop another event — but a resumed engine whose
            // recorder was not replaced would.
            sched.stop();
            return;
        }
        if let Some(e) = &mut self.elastic {
            if e.meas_snapshot.is_none() && self.rec.measurement_started() {
                e.meas_snapshot = Some((now.as_nanos(), e.meter.core_ns(now.as_nanos())));
            }
        }
        match ev {
            Ev::Gen => {
                let req = self.source.next_req(now);
                self.trace(req.home, req.seq, TraceKind::Arrival, now);
                // Client-side credits: a creditless request is never sent —
                // the shed costs zero wire RTT (the sender-side half of
                // Breakwater, modelled at its converged state). A shed
                // feeds the retry policy (a no-op without one).
                self.issue(req, 0, now, sched);
                let gap = self.source.next_gap();
                sched.after(gap, Ev::Gen);
            }
            Ev::Retry { req, attempt } => {
                // The backoff delay expired: the client re-issues the shed
                // or timed-out request through the full admission path.
                self.issue(req, attempt, now, sched);
            }
            Ev::Timeout { req, attempt } => {
                // Stale unless this attempt is still the live one (it was
                // neither completed nor superseded by a later re-issue).
                if self.retry_live.get(&req.seq) != Some(&attempt) {
                    return;
                }
                self.retry_live.remove(&req.seq);
                self.timeouts_fired += 1;
                // The abandoned attempt is *not* recalled from the server:
                // whatever work it queued still runs to completion — the
                // wasted service that lets timeout-retry loops sustain
                // overload after the triggering burst ends.
                self.feed_retry(req, attempt, now, SimDuration::ZERO, sched);
            }
            Ev::Packet(req, attempt) => {
                // Server-edge credits: the shed request already burned half
                // an RTT getting here, and its explicit reject burns the
                // other half going back — but it never touches a ring, a
                // queue, or a core.
                if self.cfg.admission_mode == AdmissionMode::ServerEdge {
                    if !self.gate_admit(req.conn) {
                        self.wire_rejects += 1;
                        self.trace(req.home, req.seq, TraceKind::Shed, now);
                        // The reject travels back before the client can
                        // react: it learns half an RTT from now, and the
                        // superseded attempt's timeout must not also fire.
                        if self.timeout_dur.is_some()
                            && self.retry_live.get(&req.seq) == Some(&attempt)
                        {
                            self.retry_live.remove(&req.seq);
                        }
                        self.feed_retry(req, attempt, now, self.source.half_rtt, sched);
                        return;
                    }
                    if self.admission.is_some() {
                        self.trace(req.home, req.seq, TraceKind::Admit, now);
                    }
                }
                let home = self.serving_core(req.home as usize);
                self.trace(home as u16, req.seq, TraceKind::Enqueue, now);
                self.cores[home].ring.push_back(req);
                self.m_ring.set(home);
                if !self.m_busy.test(home) {
                    self.wake(home, sched);
                } else if self.ipis_enabled()
                    && self.m_inapp.test(home)
                    && any_and_not(&self.m_active, &self.m_busy)
                {
                    // An idle core's poll sweep (steps c–d) would spot this
                    // packet almost immediately and interrupt the home core.
                    self.send_ipi(home, sched);
                }
            }
            Ev::Run(core) => {
                self.m_run_pending.clear(core);
                self.run_core(core, now, sched);
            }
            Ev::WorkDone { core, epoch } => self.work_done(core, epoch, now, sched),
            Ev::Ipi(core) => self.ipi(core, now, sched),
            Ev::Preempt { core, epoch } => self.preempt(core, epoch, now, sched),
            Ev::Control => self.control(now, sched),
        }
        if self.rec.is_done() {
            // Stop on the event that reached the completion target rather
            // than consuming (and losing) the next queued event. The event
            // queue stays intact — self-perpetuating chains (`Gen`,
            // `Control`) and in-flight work included — which is what makes
            // a post-run checkpoint resumable without re-arming anything.
            sched.stop();
        }
    }
}

/// Runs the ZygOS-family system simulation (static, no-interrupts, or
/// elastic; with or without the credit gate).
pub(crate) fn run(cfg: &SysConfig) -> SysOutput {
    debug_assert!(matches!(
        cfg.system,
        SystemKind::Zygos | SystemKind::ZygosNoInterrupts | SystemKind::Elastic { .. }
    ));
    let model = ZygosModel::new(cfg.clone());
    let control = model.wants_control_tick();
    let mut engine = Engine::new(model);
    engine.schedule(SimTime::ZERO, Ev::Gen);
    if control {
        engine.schedule(SimTime::ZERO, Ev::Control);
    }
    engine.run();
    let now = engine.now();
    let events = engine.processed();
    engine.into_model().into_output(now, events)
}

/// A converged simulated world, checkpointed at the end of a completed
/// run: the engine's full event queue (in-flight packets, work
/// completions, the self-perpetuating `Gen`/`Control` chains) plus the
/// entire `ZygosModel` state. `run_warm` splices the next measurement
/// run onto it; the handle itself is immutable, so one converged point can
/// seed several neighbors (the bisection cache does exactly that).
pub struct WarmState {
    engine: Engine<ZygosModel>,
}

impl WarmState {
    /// The offered load this world converged at.
    pub fn load(&self) -> f64 {
        self.engine.model().cfg().load
    }
}

/// True when `cfg` runs on the ZygOS-family model — the only systems with
/// a checkpointable world (`ix`/`linux` hosts always run cold).
pub(crate) fn is_zygos_family(cfg: &SysConfig) -> bool {
    matches!(
        cfg.system,
        SystemKind::Zygos | SystemKind::ZygosNoInterrupts | SystemKind::Elastic { .. }
    )
}

/// As [`run`], but also checkpoints the finished world for warm-starting
/// a neighboring run. The returned output is bit-identical to `run(cfg)`.
pub(crate) fn run_keep(cfg: &SysConfig) -> (SysOutput, WarmState) {
    debug_assert!(is_zygos_family(cfg));
    let model = ZygosModel::new(cfg.clone());
    let control = model.wants_control_tick();
    let mut engine = Engine::new(model);
    engine.schedule(SimTime::ZERO, Ev::Gen);
    if control {
        engine.schedule(SimTime::ZERO, Ev::Control);
    }
    engine.run();
    let now = engine.now();
    let events = engine.processed();
    let keep = engine.checkpoint();
    let out = engine.into_model().into_output(now, events);
    (out, WarmState { engine: keep })
}

/// Resumes a checkpointed world under a new config (same machine, new
/// offered load): the arrival process is re-rated in place, a fresh
/// recorder opens its measurement window at the splice point (after
/// `warmup` re-equilibration completions), and the run continues from the
/// checkpoint's event queue — skipping the cold-start convergence the
/// previous point already paid for. See `docs/TAIL.md` for the
/// measurement-window reset rule.
pub(crate) fn run_warm(warm: &WarmState, cfg: &SysConfig, warmup: u64) -> (SysOutput, WarmState) {
    debug_assert!(is_zygos_family(cfg));
    let mut engine = warm.engine.clone();
    let now = engine.now();
    let before = engine.processed();
    engine.model_mut().retarget(cfg, now, warmup);
    engine.run();
    let end = engine.now();
    let events = engine.processed() - before;
    let keep = engine.checkpoint();
    let out = engine.into_model().into_output(end, events);
    (out, WarmState { engine: keep })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zygos_load::slo::{Slo, TenantSlos};
    use zygos_sched::CreditConfig;
    use zygos_sim::dist::ServiceDist;

    fn quick(system: SystemKind, load: f64, mean_us: f64) -> SysOutput {
        let mut cfg = SysConfig::paper(system, ServiceDist::exponential_us(mean_us), load);
        cfg.requests = 20_000;
        cfg.warmup = 4_000;
        run(&cfg)
    }

    #[test]
    fn completes_all_requests() {
        let out = quick(SystemKind::Zygos, 0.5, 10.0);
        assert_eq!(out.completed, 20_000);
        assert_eq!(out.latency.count(), 20_000);
    }

    #[test]
    fn low_load_latency_near_service_plus_overheads() {
        let out = quick(SystemKind::Zygos, 0.05, 10.0);
        // p99 of Exp(10µs) is 46µs; add RTT (4µs) and ~2µs of overheads.
        let p99 = out.p99_us();
        assert!((46.0..60.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn throughput_tracks_offered_load() {
        let out = quick(SystemKind::Zygos, 0.6, 10.0);
        // Offered: 0.6 × 16/10µs = 0.96 MRPS.
        let thr = out.throughput_mrps();
        assert!((thr - 0.96).abs() < 0.06, "throughput = {thr}");
    }

    #[test]
    fn steals_occur_at_moderate_load() {
        let out = quick(SystemKind::Zygos, 0.5, 10.0);
        assert!(
            out.steal_fraction() > 0.05,
            "steal fraction = {}",
            out.steal_fraction()
        );
        assert!(out.ipis > 0, "IPIs should fire");
    }

    #[test]
    fn no_interrupt_mode_sends_no_ipis() {
        let out = quick(SystemKind::ZygosNoInterrupts, 0.5, 10.0);
        assert_eq!(out.ipis, 0);
        assert!(out.steal_fraction() > 0.0, "stealing still happens");
    }

    #[test]
    fn interrupts_help_tail_latency_at_high_load() {
        let with = quick(SystemKind::Zygos, 0.75, 10.0);
        let without = quick(SystemKind::ZygosNoInterrupts, 0.75, 10.0);
        assert!(
            with.p99_us() <= without.p99_us() * 1.05,
            "with {} vs without {}",
            with.p99_us(),
            without.p99_us()
        );
    }

    #[test]
    fn stable_near_saturation_point() {
        // At 85% of ideal saturation ZygOS must still complete (overheads
        // shave a few percent, so this sits below its real saturation).
        let out = quick(SystemKind::Zygos, 0.85, 25.0);
        assert_eq!(out.completed, 20_000);
        assert!(out.p99_us() < 2_000.0, "p99 = {}", out.p99_us());
    }

    #[test]
    fn no_admission_reports_no_gate_counts() {
        let out = quick(SystemKind::Zygos, 0.5, 10.0);
        assert_eq!(out.admitted, 0);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.shed_fraction(), 0.0);
    }

    #[test]
    fn credit_gate_sheds_under_overload_and_bounds_admitted_tail() {
        let mut cfg = SysConfig::paper(
            SystemKind::Zygos,
            ServiceDist::exponential_us(10.0),
            1.3, // 30% past saturation: unbounded queues without a gate.
        );
        cfg.requests = 15_000;
        cfg.warmup = 3_000;
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
        let out = run(&cfg);
        assert_eq!(out.completed, 15_000);
        assert!(out.rejected > 0, "overload must shed");
        assert!(
            out.shed_fraction() > 0.1,
            "shed fraction = {}",
            out.shed_fraction()
        );
        assert!(
            out.p99_us() < 400.0,
            "admitted p99 must stay bounded, got {}",
            out.p99_us()
        );
    }

    #[test]
    fn retry_feedback_reissues_shed_requests_and_keeps_conservation() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
        cfg.requests = 15_000;
        cfg.warmup = 3_000;
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
        cfg.retry = Some(zygos_load::retry::RetryPolicy::Backoff {
            base_us: 50,
            factor: 2.0,
            max_attempts: 3,
        });
        let out = run(&cfg);
        assert_eq!(out.completed, 15_000);
        assert!(out.retries > 0, "overload sheds must feed retries back");
        assert!(out.give_ups > 0, "a 3-attempt cap must abandon some");
        assert!(
            out.retry_amplification() > 1.0,
            "amplification = {}",
            out.retry_amplification()
        );
        let goodput = out.goodput_fraction();
        assert!(
            (0.0..1.0).contains(&goodput),
            "give-ups must dent goodput: {goodput}"
        );
        // Every attempt (generated or retried) terminates at most once:
        // completed, rejected, or still in flight at drain.
        assert!(
            out.generated + out.retries >= out.completed_total + out.rejected,
            "conservation violated: gen {} + retries {} < done {} + rej {}",
            out.generated,
            out.retries,
            out.completed_total,
            out.rejected
        );
        // The admitted tail stays gate-bounded even with the loop closed.
        assert!(out.p99_us() < 400.0, "admitted p99 = {}", out.p99_us());
    }

    #[test]
    fn timeout_retries_fire_without_any_admission_gate() {
        // No gate, load past saturation: nothing is ever shed, so only
        // the client timeout can trigger the policy — the naive-retry
        // configuration whose feedback sustains metastable overload.
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.15);
        cfg.requests = 12_000;
        cfg.warmup = 2_000;
        cfg.retry = Some(zygos_load::retry::RetryPolicy::Backoff {
            base_us: 1,
            factor: 1.0,
            max_attempts: 2,
        });
        cfg.retry_jitter = false;
        cfg.retry_timeout_us = Some(300.0);
        let out = run(&cfg);
        assert_eq!(out.completed, 12_000);
        assert_eq!(out.rejected, 0, "no gate, no sheds");
        assert!(out.timeouts > 0, "saturated queues must blow timeouts");
        assert!(out.retries > 0, "timeouts must re-issue");
        assert!(
            out.retry_amplification() > 1.01,
            "amplification = {}",
            out.retry_amplification()
        );
    }

    #[test]
    fn retry_world_checkpoint_resume_is_bit_identical() {
        // The retry plane (live-attempt map, pending Retry/Timeout
        // events, counters) is world state: a clone resumed mid-storm
        // must land exactly where the straight run does.
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.25);
        cfg.requests = 6_000;
        cfg.warmup = 1_000;
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
        cfg.retry = Some(zygos_load::retry::RetryPolicy::Backoff {
            base_us: 25,
            factor: 2.0,
            max_attempts: 4,
        });
        cfg.retry_timeout_us = Some(500.0);
        let straight = run(&cfg);
        assert!(straight.retries > 0, "the storm must actually fire");

        let model = ZygosModel::new(cfg.clone());
        let mut engine = Engine::new(model);
        engine.schedule(SimTime::ZERO, Ev::Gen);
        engine.schedule(SimTime::ZERO, Ev::Control);
        for _ in 0..30_000 {
            assert!(engine.step(), "run must outlast the checkpoint offset");
        }
        let mut resumed = engine.checkpoint();
        engine.run();
        resumed.run();
        for out in [
            {
                let (now, ev) = (engine.now(), engine.processed());
                engine.into_model().into_output(now, ev)
            },
            {
                let (now, ev) = (resumed.now(), resumed.processed());
                resumed.into_model().into_output(now, ev)
            },
        ] {
            assert_eq!(out.events, straight.events);
            assert_eq!(out.retries, straight.retries);
            assert_eq!(out.give_ups, straight.give_ups);
            assert_eq!(out.timeouts, straight.timeouts);
            assert_eq!(out.rejected, straight.rejected);
            assert_eq!(out.p99_us(), straight.p99_us());
            assert_eq!(out.latency.count(), straight.latency.count());
        }
    }

    #[test]
    fn srpt_background_order_runs_and_completes() {
        let mut cfg = SysConfig::paper(
            SystemKind::Zygos,
            ServiceDist::TwoPoint {
                fast_us: 0.5,
                slow_us: 500.0,
                p_fast: 0.995,
            },
            0.6,
        );
        cfg.requests = 15_000;
        cfg.warmup = 3_000;
        cfg.preemption_quantum_us = 25.0;
        cfg.background_order = BackgroundOrder::Srpt;
        let out = run(&cfg);
        assert_eq!(out.completed, 15_000);
        assert!(out.preemptions > 0, "quantum must fire");
    }

    #[test]
    fn world_checkpoint_resume_is_bit_identical() {
        // Checkpoint the full simulated world mid-run and finish both the
        // original and the resumed clone: every output — histogram,
        // counters, event count, window — must equal the straight-through
        // run's exactly. This is the exact-resume guarantee the warm-start
        // sweeps and the importance splitter are built on.
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.7);
        cfg.requests = 8_000;
        cfg.warmup = 1_000;
        let straight = run(&cfg);

        let model = ZygosModel::new(cfg.clone());
        let mut engine = Engine::new(model);
        engine.schedule(SimTime::ZERO, Ev::Gen);
        for _ in 0..37_123 {
            assert!(engine.step(), "run must outlast the checkpoint offset");
        }
        let mut resumed = engine.checkpoint();
        engine.run();
        resumed.run();
        for out in [
            {
                let (now, ev) = (engine.now(), engine.processed());
                engine.into_model().into_output(now, ev)
            },
            {
                let (now, ev) = (resumed.now(), resumed.processed());
                resumed.into_model().into_output(now, ev)
            },
        ] {
            assert_eq!(out.completed, straight.completed);
            assert_eq!(out.events, straight.events);
            assert_eq!(out.latency.count(), straight.latency.count());
            assert_eq!(out.p99_us(), straight.p99_us());
            assert_eq!(out.throughput_mrps(), straight.throughput_mrps());
            assert_eq!(out.stolen_events, straight.stolen_events);
            assert_eq!(out.ipis, straight.ipis);
        }
    }

    #[test]
    fn tracing_leaves_metrics_and_event_counts_bit_identical() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.6);
        cfg.requests = 10_000;
        cfg.warmup = 2_000;
        let base = run(&cfg);
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig::full_trace());
        let traced = run(&cfg);
        // Tracing must be a pure observer: same engine-event count, same
        // completions, same histogram — bit-identical, not merely close.
        assert_eq!(base.events, traced.events);
        assert_eq!(base.completed, traced.completed);
        assert_eq!(base.latency.count(), traced.latency.count());
        assert_eq!(base.p99_us(), traced.p99_us());
        assert_eq!(base.throughput_mrps(), traced.throughput_mrps());
        let t = traced.telemetry.expect("telemetry armed");
        assert_eq!(t.dropped, 0, "rings sized for a full-run trace");
        // The trace's completion population is exactly the histogram's.
        let completions = t
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Completion)
            .count() as u64;
        assert_eq!(completions, traced.latency.count());
        // The trace's cost as an exact count: ring stores per run, by kind
        // (`TraceKind as usize`). 62,032 records over 12,000 completions
        // is 5.17 stores per request: Arrival, Enqueue, Dispatch, one
        // Completion per measured request, and Steal + StolenDone for the
        // two thirds that are stolen. A new hot-path trace point shows up
        // here as a diff; its wall-clock cost is the benchmark's
        // `telemetry.trace.full_ns_per_req`.
        let mut by_kind = [0usize; 10];
        for e in &t.events {
            by_kind[e.kind as usize] += 1;
        }
        assert_eq!(
            by_kind,
            [12_019, 0, 0, 12_017, 7_994, 12_015, 0, 0, 7_987, 10_000]
        );
    }

    #[test]
    fn trace_is_byte_identical_across_runs() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.7);
        cfg.requests = 8_000;
        cfg.warmup = 1_000;
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig::full_trace());
        let a = run(&cfg).telemetry.expect("armed");
        let b = run(&cfg).telemetry.expect("armed");
        assert_eq!(a, b, "same seed + policy must give the same trace");
    }

    #[test]
    fn overload_trace_decomposes_as_a_time_sorted_one() {
        // fig13's client-credits case at its heaviest smoke load: sheds,
        // steals and completions interleave across cores.
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.4);
        cfg.requests = 8_000;
        cfg.warmup = 2_000;
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 70.0));
        cfg.admission_mode = AdmissionMode::ClientSide;
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig::full_trace());
        let t = run(&cfg).telemetry.expect("armed");
        assert_eq!(t.dropped, 0, "rings sized for a full-run trace");
        assert!(t.events.iter().any(|e| e.kind == TraceKind::Shed));
        let mut sorted = t.events.clone();
        sorted.sort_by_key(|e| (e.t_ns, e.seq, e.kind, e.core));
        assert_ne!(sorted, t.events, "collect no longer sorts by time");
        let decomps = zygos_telemetry::decompose(&t.events);
        assert!(!decomps.is_empty());
        assert_eq!(decomps, zygos_telemetry::decompose(&sorted));
    }

    #[test]
    fn decomposition_sums_match_the_measured_tail() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.7);
        cfg.requests = 10_000;
        cfg.warmup = 2_000;
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig::full_trace());
        let out = run(&cfg);
        let t = out.telemetry.as_ref().expect("armed");
        let mut decomps = zygos_telemetry::decompose(&t.events);
        assert_eq!(
            decomps.len() as u64,
            out.latency.count(),
            "one decomposition per measured completion"
        );
        // Exact partition: components sum to the total on every lifecycle.
        for d in &decomps {
            assert_eq!(d.sum_ns(), d.total_ns);
        }
        // The p99 total matches the histogram's p99 to its bucket
        // precision (~0.1%, both sides use the same rank rule).
        let p99 = zygos_telemetry::decomposition_at_quantile(&mut decomps, 0.99)
            .expect("non-empty")
            .total_ns as f64
            / 1_000.0;
        let hist_p99 = out.p99_us();
        assert!(
            (p99 - hist_p99).abs() / hist_p99 < 0.01,
            "decomposed p99 {p99} vs histogram p99 {hist_p99}"
        );
    }

    #[test]
    fn telemetry_series_arm_the_control_tick_without_a_control_plane() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.5);
        cfg.requests = 8_000;
        cfg.warmup = 1_000;
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig {
            trace: false,
            series: vec![
                zygos_telemetry::SeriesKind::AdmittedRate,
                zygos_telemetry::SeriesKind::ActiveCores,
            ],
            ..Default::default()
        });
        let out = run(&cfg);
        let t = out.telemetry.expect("armed");
        assert!(t.events.is_empty(), "series-only config records no trace");
        let active = t
            .series
            .iter()
            .find(|s| s.name == "active_cores")
            .expect("requested series present");
        assert!(active.points.len() > 10, "harvested on the control tick");
        assert!(active.points.iter().all(|&(_, v)| v == 16.0));
    }

    #[test]
    fn credit_series_track_the_gate_under_overload() {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
        cfg.requests = 10_000;
        cfg.warmup = 2_000;
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
        cfg.telemetry = Some(zygos_telemetry::TelemetryConfig {
            trace: false,
            series: vec![
                zygos_telemetry::SeriesKind::AdmittedRate,
                zygos_telemetry::SeriesKind::CreditCapacity,
                zygos_telemetry::SeriesKind::ShedByClass,
            ],
            ..Default::default()
        });
        let out = run(&cfg);
        let t = out.telemetry.expect("armed");
        let credits = t.series.iter().find(|s| s.name == "credit_capacity");
        let admitted = t.series.iter().find(|s| s.name == "admitted_rate");
        let shed = t.series.iter().find(|s| s.name == "shed_rate_class0");
        let credits = credits.expect("credit series");
        let admitted = admitted.expect("admitted series");
        let shed = shed.expect("per-class shed series");
        assert!(credits.points.iter().all(|&(_, v)| v >= 1.0));
        assert!(
            admitted.points.iter().any(|&(_, v)| v > 0.0),
            "admissions flow through the gate"
        );
        assert!(
            shed.points.iter().any(|&(_, v)| v > 0.0),
            "overload must show up in the shed series"
        );
    }

    #[test]
    fn tenant_slo_classes_drive_the_elastic_controller() {
        // A strict interactive class forces the SLO-driven allocator to
        // hold more cores than the utilization rule would at low load.
        let mut cfg = SysConfig::paper(
            SystemKind::Elastic { min_cores: 2 },
            ServiceDist::exponential_us(10.0),
            0.2,
        );
        cfg.requests = 20_000;
        cfg.warmup = 4_000;
        cfg.slo = Some(TenantSlos::uniform(Slo::p99(55.0))); // barely above the no-load p99
        let strict = run(&cfg);
        cfg.slo = None;
        let unconstrained = run(&cfg);
        assert!(
            strict.avg_active_cores >= unconstrained.avg_active_cores,
            "strict SLO {:.2} cores vs unconstrained {:.2}",
            strict.avg_active_cores,
            unconstrained.avg_active_cores
        );
    }
}
