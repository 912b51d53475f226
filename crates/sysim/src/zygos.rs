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
//! worst p99-vs-SLO ratio of the last window) to the SLO-margin
//! [`SloController`], which without a configured SLO receives no latency
//! signal and degrades to exactly the utilization rule. Revoked cores
//! drain their queues into an active core and stop participating (their
//! RSS queues are redirected, modeling indirection-table reprogramming);
//! granted cores rejoin and steal immediately. A nonzero [`SysConfig::preemption_quantum_us`] arms
//! a per-chunk timer: application chunks longer than the quantum end in a
//! `Preempt` event (same epoch-guard machinery as IPIs) that charges the
//! context save/restore cost and moves the remainder to a **background
//! queue** below all fresh work — FCFS-with-aging or SRPT on the
//! remaining-time stamps, per [`SysConfig::background_order`] — bounding
//! head-of-line blocking under dispersive service times.
//!
//! The client in front of this model — arrivals, the credit gate, retries,
//! timeouts and the measurement planes — is the shared [`crate::edge`].

use std::collections::VecDeque;

use zygos_sched::{
    AllocatorConfig, AllocatorTuning, BackgroundOrder, CoreSecondsMeter, Decision, DispatchPolicy,
    PolicySignal, QuantumPolicy, Rung, SloController, SloTuning, ZygosPolicy,
};
use zygos_sim::time::{SimDuration, SimTime};
use zygos_telemetry::TraceKind;

use crate::arena::{Arena, Fifo};
use crate::arrivals::Req;
use crate::config::{SysConfig, SystemKind};
use crate::edge::{Cx, Edge, Server, ServerStats, World};

/// The ZygOS server's own events.
#[derive(Clone)]
pub(crate) enum Ev {
    /// Core scheduling-loop entry.
    Run(usize),
    /// The core's current work chunk completes (stale if epoch mismatches).
    WorkDone { core: usize, epoch: u64 },
    /// An IPI arrives at a core.
    Ipi(usize),
    /// The quantum timer fires on a core mid-chunk (stale if epoch
    /// mismatches).
    Preempt { core: usize, epoch: u64 },
}

#[derive(Clone)]
enum Work {
    /// Running the network stack over an RX batch.
    Net { batch: Fifo },
    /// Executing one application event; the rest of the connection's batch
    /// follows.
    App {
        conn: u32,
        cur: Req,
        rest: Fifo,
        stolen: bool,
        /// Chunk came from the background (preempted) queue: it fills idle
        /// capacity by policy and is excluded from the controller's
        /// foreground-utilization signal.
        bg: bool,
    },
    /// Executing remote batched syscalls (TX for stolen events).
    RemoteTx { batch: Fifo },
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
    ring: Fifo,
    shuffle: VecDeque<u32>,
    /// Preempted connections (Shinjuku-style second-level queue), ordered
    /// per [`DispatchPolicy::background_order`]: FCFS keeps arrival order,
    /// SRPT keeps the least-remaining entry at the front. Entries older
    /// than the policy's aging bound are promoted ahead of fresh work:
    /// without aging, sustained overload starves preempted connections —
    /// and with them every later request pipelined on the same socket
    /// (§4.3 ordering holds per connection).
    bg: VecDeque<BgEntry>,
    remote_sys: Fifo,
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
    pending: Fifo,
}

/// Shorthand for nanosecond durations.
fn ns(v: u64) -> SimDuration {
    SimDuration::from_nanos(v)
}

/// Elastic-mode control-plane state.
#[derive(Clone)]
struct Elastic {
    allocator: SloController,
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

/// The ZygOS server. A clone is its entire state — every queue,
/// connection state, RNG position, allocator EWMA and occupancy mask —
/// which, with the edge's, is what a world checkpoint copies. Every
/// queued request sits in one arena, so that copy is one slab plus
/// fixed arrays, not a buffer per connection.
#[derive(Clone)]
pub(crate) struct ZygosModel {
    cfg: SysConfig,
    cores: Vec<Core>,
    conns: Vec<Conn>,
    /// Every queued request: NIC rings, connection event queues, RX and
    /// remote-syscall batches are [`Fifo`]s into this arena.
    reqs: Arena<Req>,
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
    /// choices. Held concretely, not as a trait object, so every
    /// per-dispatch decision is a direct, inlinable call.
    dispatch: ZygosPolicy,
    /// Copy of the policy's ladder (iterating it while mutating the model
    /// must not borrow the policy).
    ladder: Vec<Rung>,
    elastic: Option<Elastic>,
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

impl ZygosModel {
    pub(crate) fn new(cfg: &SysConfig) -> Self {
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
                    tuning: AllocatorTuning::default(),
                };
                Some(Elastic {
                    allocator: SloController::new(alloc_cfg, SloTuning::default()),
                    meter: CoreSecondsMeter::new(0, cfg.cores),
                    redirect: (0..cfg.cores).collect(),
                    last_ctl_busy_integral: 0,
                    last_ctl_ns: 0,
                    meas_snapshot: None,
                })
            }
            _ => None,
        };
        let mut m_active = CoreMask::new(cfg.cores);
        for i in 0..cfg.cores {
            m_active.set(i);
        }
        ZygosModel {
            cores: (0..cfg.cores)
                .map(|_| Core {
                    ring: Fifo::default(),
                    shuffle: VecDeque::new(),
                    bg: VecDeque::new(),
                    remote_sys: Fifo::default(),
                    work: None,
                    end: SimTime::ZERO,
                    epoch: 0,
                    ipi_pending: false,
                    slice_remaining_ns: 0,
                    active: true,
                })
                .collect(),
            conns: vec![
                Conn {
                    st: ConnSt::Idle,
                    pending: Fifo::default(),
                };
                cfg.conns as usize
            ],
            reqs: Arena::new(),
            victims: (0..cfg.cores).collect(),
            victims_rng: zygos_sim::rng::Xoshiro256::new(cfg.seed ^ 0x0056_4543_544F_5253), // "VECTORS"
            dispatch,
            ladder,
            elastic,
            m_active,
            m_busy: CoreMask::new(cfg.cores),
            m_inapp: CoreMask::new(cfg.cores),
            m_ring: CoreMask::new(cfg.cores),
            m_shuffle: CoreMask::new(cfg.cores),
            m_bg: CoreMask::new(cfg.cores),
            m_remote: CoreMask::new(cfg.cores),
            m_ipi: CoreMask::new(cfg.cores),
            m_run_pending: CoreMask::new(cfg.cores),
            cfg: cfg.clone(),
            local_events: 0,
            stolen_events: 0,
            ipis_delivered: 0,
            preemptions: 0,
            busy: BusyMeter::default(),
            fg_busy: BusyMeter::default(),
        }
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

    /// Wakes every idle granted core (something steal-able appeared).
    /// Cores with a run already queued are skipped (see `m_run_pending`).
    fn wake_idle(&mut self, cx: &mut Cx<Ev>) {
        for wi in 0..self.m_active.w.len() {
            let mut bits = self.m_active.w[wi] & !self.m_busy.w[wi] & !self.m_run_pending.w[wi];
            while bits != 0 {
                let i = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                debug_assert!(self.cores[i].active && self.cores[i].is_idle());
                self.m_run_pending.set(i);
                cx.at(cx.now(), Ev::Run(i));
            }
        }
    }

    /// Wakes one core if granted, idle, and not already woken.
    fn wake(&mut self, core: usize, cx: &mut Cx<Ev>) {
        if self.m_active.test(core) && !self.m_busy.test(core) && !self.m_run_pending.test(core) {
            self.m_run_pending.set(core);
            cx.at(cx.now(), Ev::Run(core));
        }
    }

    /// Sends an IPI to `target` if one is not already in flight.
    fn send_ipi(&mut self, target: usize, cx: &mut Cx<Ev>) {
        if !self.cores[target].ipi_pending {
            self.cores[target].ipi_pending = true;
            self.m_ipi.set(target);
            cx.after(ns(self.cfg.cost.ipi_delivery_ns), Ev::Ipi(target));
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
    fn apply_net_batch(&mut self, core: usize, mut batch: Fifo, cx: &mut Cx<Ev>) {
        // In elastic mode the executing core may have been parked while
        // this net chunk was in flight (apply_allocation drains queues
        // only on the transition): enqueue on its serving core, or the
        // ready connections would be stranded on a queue nothing scans.
        let dst = self.serving_core(core);
        let mut newly_ready = false;
        while let Some(req) = self.reqs.pop_front(&mut batch) {
            let conn = &mut self.conns[req.conn as usize];
            self.reqs.push_back(&mut conn.pending, req);
            if conn.st == ConnSt::Idle {
                conn.st = ConnSt::Ready;
                self.cores[dst].shuffle.push_back(req.conn);
                newly_ready = true;
            }
        }
        if newly_ready {
            self.m_shuffle.set(dst);
            // Ready connections are steal-able: every idle core may act.
            self.wake_idle(cx);
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
        cx: &mut Cx<Ev>,
    ) {
        let c = &mut self.conns[conn as usize];
        debug_assert_eq!(c.st, ConnSt::Busy);
        let mut events = std::mem::take(&mut c.pending);
        let cur = self
            .reqs
            .pop_front(&mut events)
            .expect("ready connection without events");
        self.schedule_app_chunk(core, conn, cur, events, stolen, bg, extra_ns, now, cx);
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
        rest: Fifo,
        stolen: bool,
        bg: bool,
        extra_ns: u64,
        now: SimTime,
        cx: &mut Cx<Ev>,
    ) {
        cx.edge
            .trace(core as u16, cur.seq, TraceKind::Dispatch, now);
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
                cx.at(core_ref.end, Ev::Preempt { core, epoch });
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
                cx.at(core_ref.end, Ev::WorkDone { core, epoch });
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
    fn run_core(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) {
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
                Rung::RemoteSyscalls => self.rung_remote_tx(core, now, cx),
                Rung::AgedBackground => self.rung_aged_bg(core, now, cx),
                Rung::LocalReady => self.rung_local_ready(core, now, cx),
                Rung::LocalNet => self.rung_local_net(core, now, cx),
                Rung::StealReady => self.rung_steal_ready(core, cx, &mut victims_ready),
                Rung::LocalBackground => self.rung_local_bg(core, now, cx),
                Rung::StealBackground => self.rung_steal_bg(core, cx, &mut victims_ready),
                Rung::IpiScan => {
                    self.rung_ipi_scan(core, cx, &mut victims_ready);
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
    fn rung_remote_tx(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) -> bool {
        if self.cores[core].remote_sys.is_empty() {
            return false;
        }
        let per_msg = self.cfg.cost.remote_syscall_ns + self.cfg.cost.stack_tx_per_msg_ns;
        let batch = std::mem::take(&mut self.cores[core].remote_sys);
        self.m_remote.clear(core);
        let dur = per_msg * batch.len() as u64;
        self.note_busy(now, 1, true);
        self.m_busy.set(core);
        let c = &mut self.cores[core];
        c.work = Some(Work::RemoteTx { batch });
        c.epoch += 1;
        c.end = now + ns(dur);
        cx.at(
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
    fn rung_aged_bg(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) -> bool {
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
        self.begin_app(core, entry.conn, extra, false, false, now, cx);
        true
    }

    /// Own shuffle queue.
    fn rung_local_ready(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) -> bool {
        let Some(conn) = self.cores[core].shuffle.pop_front() else {
            return false;
        };
        if self.cores[core].shuffle.is_empty() {
            self.m_shuffle.clear(core);
        }
        debug_assert_eq!(self.conns[conn as usize].st, ConnSt::Ready);
        self.conns[conn as usize].st = ConnSt::Busy;
        let extra = self.cfg.cost.shuffle_op_ns;
        self.begin_app(core, conn, extra, false, false, now, cx);
        true
    }

    /// Own NIC ring: run the network stack over a bounded batch.
    fn rung_local_net(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) -> bool {
        if self.cores[core].ring.is_empty() {
            return false;
        }
        let fixed = self.cfg.cost.driver_batch_fixed_ns;
        let per_pkt = self.cfg.cost.driver_per_pkt_ns + self.cfg.cost.stack_rx_per_pkt_ns;
        let k = (self.cores[core].ring.len() as u64).min(self.cfg.rx_batch.max(1));
        let batch = self
            .reqs
            .split_front(&mut self.cores[core].ring, k as usize);
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
        cx.at(
            c.end,
            Ev::WorkDone {
                core,
                epoch: c.epoch,
            },
        );
        true
    }

    /// Steal a ready connection from another core's shuffle queue.
    fn rung_steal_ready(&mut self, core: usize, cx: &mut Cx<Ev>, victims_ready: &mut bool) -> bool {
        let now = cx.now();
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
        if cx.edge.tracing() {
            // The stolen batch's first request (`begin_app` pops it next).
            if let Some(r) = self.reqs.front(&self.conns[conn as usize].pending) {
                cx.edge.trace(core as u16, r.seq, TraceKind::Steal, now);
            }
        }
        let extra = self.cfg.cost.shuffle_op_ns + self.cfg.cost.steal_extra_ns;
        self.begin_app(core, conn, extra, true, false, now, cx);
        true
    }

    /// Own background (preempted) queue. It runs only when no fresh work
    /// is visible anywhere: a quantum-expired request is known long, and
    /// deferring it behind everything short is the approximate-SJF move
    /// that bounds the dispersive tail (Shinjuku's two-level queue).
    fn rung_local_bg(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) -> bool {
        let Some(entry) = self.cores[core].bg.pop_front() else {
            return false;
        };
        if self.cores[core].bg.is_empty() {
            self.m_bg.clear(core);
        }
        debug_assert_eq!(self.conns[entry.conn as usize].st, ConnSt::Ready);
        self.conns[entry.conn as usize].st = ConnSt::Busy;
        let extra = self.cfg.cost.shuffle_op_ns;
        self.begin_app(core, entry.conn, extra, false, true, now, cx);
        true
    }

    /// Steal a background entry from another core.
    fn rung_steal_bg(&mut self, core: usize, cx: &mut Cx<Ev>, victims_ready: &mut bool) -> bool {
        let now = cx.now();
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
        if cx.edge.tracing() {
            if let Some(r) = self.reqs.front(&self.conns[entry.conn as usize].pending) {
                cx.edge.trace(core as u16, r.seq, TraceKind::Steal, now);
            }
        }
        let extra = self.cfg.cost.shuffle_op_ns + self.cfg.cost.steal_extra_ns;
        self.begin_app(core, entry.conn, extra, true, true, now, cx);
        true
    }

    /// Scan remote NIC rings; IPI home cores stuck in application code
    /// ("aggressively sends interrupts as soon as a remote core detects a
    /// pending packet in the hardware queue and the home core is executing
    /// at user-level", §5).
    fn rung_ipi_scan(&mut self, core: usize, cx: &mut Cx<Ev>, victims_ready: &mut bool) {
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
            self.send_ipi(v, cx);
        }
    }

    fn work_done(&mut self, core: usize, epoch: u64, now: SimTime, cx: &mut Cx<Ev>) {
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
                self.apply_net_batch(core, batch, cx);
            }
            Work::RemoteTx { mut batch } => {
                while let Some(req) = self.reqs.pop_front(&mut batch) {
                    cx.edge.complete(&req, now);
                }
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
                    cx.edge
                        .trace(core as u16, cur.seq, TraceKind::StolenDone, now);
                    // Ship the response home; the home core (or, in
                    // elastic mode, whichever core serves its queues)
                    // transmits.
                    let home = self.serving_core(cur.home as usize);
                    self.reqs.push_back(&mut self.cores[home].remote_sys, cur);
                    self.m_remote.set(home);
                    if self.cores[home].is_idle() {
                        self.wake(home, cx);
                    } else if self.ipis_enabled() && self.cores[home].in_app() {
                        self.send_ipi(home, cx);
                    }
                } else {
                    self.local_events += 1;
                    cx.edge.complete(&cur, now);
                }
                if let Some(next) = self.reqs.pop_front(&mut rest) {
                    // Continue the connection's event batch (implicit
                    // per-flow batching, §6.2).
                    self.schedule_app_chunk(core, conn, next, rest, stolen, bg, 0, now, cx);
                    return;
                }
                // Batch finished: Figure 5 transition out of busy.
                let connref = &mut self.conns[conn as usize];
                if connref.pending.is_empty() {
                    connref.st = ConnSt::Idle;
                } else {
                    connref.st = ConnSt::Ready;
                    let home = self.serving_core(cx.edge.source.home_of(conn) as usize);
                    self.cores[home].shuffle.push_back(conn);
                    self.m_shuffle.set(home);
                    self.wake_idle(cx);
                }
            }
        }
        // Re-enter the scheduling loop.
        self.run_core(core, now, cx);
    }

    /// Quantum expiry: requeue the remainder of the interrupted request on
    /// its serving core's background queue, behind any shorter requests
    /// that arrived meanwhile — the anti-head-of-line move.
    fn preempt(&mut self, core: usize, epoch: u64, now: SimTime, cx: &mut Cx<Ev>) {
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
        cx.edge.trace(core as u16, cur.seq, TraceKind::Preempt, now);
        cur.service = SimDuration::from_nanos(remaining);
        // Requeue: the remainder stays the connection's oldest event (so
        // per-connection ordering holds), followed by the rest of the taken
        // batch, then anything that arrived during the slice.
        let seq = cur.seq;
        let connref = &mut self.conns[conn as usize];
        debug_assert_eq!(connref.st, ConnSt::Busy);
        self.reqs.push_front(&mut rest, cur);
        self.reqs.append(&mut rest, connref.pending);
        connref.pending = rest;
        connref.st = ConnSt::Ready;
        let home = self.serving_core(cx.edge.source.home_of(conn) as usize);
        cx.edge.trace(home as u16, seq, TraceKind::BgRequeue, now);
        self.bg_enqueue(
            home,
            BgEntry {
                conn,
                since: now,
                remaining_ns: remaining,
            },
        );
        self.wake_idle(cx);
        // The interrupted core re-enters its scheduling loop (the handler
        // cost was charged inside the chunk).
        self.run_core(core, now, cx);
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

    /// Reconfigures the data plane to `target` granted cores: cores
    /// `[0, target)` are active, the rest park after draining their queues
    /// into an active core (modeling RSS indirection-table reprogramming
    /// plus queue migration — both controller-side, off the data path).
    fn apply_allocation(&mut self, target: usize, now: SimTime, cx: &mut Cx<Ev>) {
        let n = self.cores.len();
        for i in 0..n {
            let was = self.cores[i].active;
            self.cores[i].active = i < target;
            self.m_active.put(i, i < target);
            if was && !self.cores[i].active {
                // Drain a newly parked core into its redirect target.
                let dst = i % target;
                let ring = std::mem::take(&mut self.cores[i].ring);
                let shuffle: Vec<u32> = self.cores[i].shuffle.drain(..).collect();
                let bg: Vec<BgEntry> = self.cores[i].bg.drain(..).collect();
                let remote = std::mem::take(&mut self.cores[i].remote_sys);
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
                self.reqs.append(&mut self.cores[dst].ring, ring);
                self.cores[dst].shuffle.extend(shuffle);
                for entry in bg {
                    self.bg_enqueue(dst, entry);
                }
                self.reqs.append(&mut self.cores[dst].remote_sys, remote);
                self.wake(dst, cx);
            } else if !was && self.cores[i].active {
                self.wake(i, cx);
            }
        }
        if let Some(e) = &mut self.elastic {
            for (home, slot) in e.redirect.iter_mut().enumerate() {
                *slot = if home < target { home } else { home % target };
            }
            e.meter.set_active(now.as_nanos(), target);
        }
    }

    fn ipi(&mut self, core: usize, now: SimTime, cx: &mut Cx<Ev>) {
        self.cores[core].ipi_pending = false;
        self.m_ipi.clear(core);
        self.ipis_delivered += 1;
        if !self.cores[core].in_app() {
            // Not in user code: the loop will find the work itself.
            self.wake(core, cx);
            return;
        }
        let cost = self.cfg.cost.clone();
        let mut ext_ns = cost.ipi_handler_ns;
        // Handler duty 1: replenish the shuffle queue if it ran dry.
        if self.cores[core].shuffle.is_empty() && !self.cores[core].ring.is_empty() {
            let k = (self.cores[core].ring.len() as u64).min(self.cfg.rx_batch.max(1));
            let batch = self
                .reqs
                .split_front(&mut self.cores[core].ring, k as usize);
            if self.cores[core].ring.is_empty() {
                self.m_ring.clear(core);
            }
            ext_ns += cost.driver_batch_fixed_ns
                + k * (cost.driver_per_pkt_ns + cost.stack_rx_per_pkt_ns);
            self.apply_net_batch(core, batch, cx);
        }
        // Handler duty 2: flush remote syscalls / transmit.
        if !self.cores[core].remote_sys.is_empty() {
            let mut batch = std::mem::take(&mut self.cores[core].remote_sys);
            self.m_remote.clear(core);
            ext_ns += (cost.remote_syscall_ns + cost.stack_tx_per_msg_ns) * batch.len() as u64;
            let tx_at = now + ns(cost.ipi_handler_ns);
            while let Some(req) = self.reqs.pop_front(&mut batch) {
                cx.edge.complete(&req, tx_at);
            }
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
            cx.at(end, Ev::Preempt { core, epoch });
        } else {
            cx.at(end, Ev::WorkDone { core, epoch });
        }
    }
}

impl Server for ZygosModel {
    type Event = Ev;

    fn packet(&mut self, req: Req, cx: &mut Cx<Ev>) {
        let now = cx.now();
        let home = self.serving_core(req.home as usize);
        cx.edge.trace(home as u16, req.seq, TraceKind::Enqueue, now);
        self.reqs.push_back(&mut self.cores[home].ring, req);
        self.m_ring.set(home);
        if !self.m_busy.test(home) {
            self.wake(home, cx);
        } else if self.ipis_enabled()
            && self.m_inapp.test(home)
            && any_and_not(&self.m_active, &self.m_busy)
        {
            // An idle core's poll sweep (steps c–d) would spot this packet
            // almost immediately and interrupt the home core.
            self.send_ipi(home, cx);
        }
    }

    fn handle(&mut self, ev: Ev, cx: &mut Cx<Ev>) {
        let now = cx.now();
        match ev {
            Ev::Run(core) => {
                self.m_run_pending.clear(core);
                self.run_core(core, now, cx);
            }
            Ev::WorkDone { core, epoch } => self.work_done(core, epoch, now, cx),
            Ev::Ipi(core) => self.ipi(core, now, cx),
            Ev::Preempt { core, epoch } => self.preempt(core, epoch, now, cx),
        }
    }

    #[inline]
    fn before_event(&mut self, now: SimTime, edge: &Edge) {
        if let Some(e) = &mut self.elastic {
            if e.meas_snapshot.is_none() && edge.rec.measurement_started() {
                e.meas_snapshot = Some((now.as_nanos(), e.meter.core_ns(now.as_nanos())));
            }
        }
    }

    fn has_control_plane(&self) -> bool {
        self.elastic.is_some()
    }

    /// The control hook: drive the allocation policy (elastic only; the
    /// edge has already run the credit AIMD on this tick).
    fn control(&mut self, slo_ratio: Option<f64>, cx: &mut Cx<Ev>) {
        #[cfg(debug_assertions)]
        self.debug_check_masks();
        let now = cx.now();
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
                self.apply_allocation(target, now, cx);
            }
        }
    }

    fn active_cores(&self) -> usize {
        self.m_active
            .w
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    fn retarget(&mut self, cfg: &SysConfig) {
        debug_assert_eq!(self.cfg.cores, cfg.cores, "warm start cannot restaff");
        debug_assert_eq!(self.cfg.conns, cfg.conns, "warm start cannot re-home");
        self.cfg = cfg.clone();
        self.local_events = 0;
        self.stolen_events = 0;
        self.ipis_delivered = 0;
        self.preemptions = 0;
        if let Some(e) = &mut self.elastic {
            // Re-snapshot when the new window opens; the meter itself and
            // the busy-integral diff base stay continuous across the
            // splice (the control loop keeps running through it).
            e.meas_snapshot = None;
        }
    }

    fn stats(self, end: SimTime) -> ServerStats {
        let avg_active_cores = match &self.elastic {
            // Average over the measurement window when we have its start
            // snapshot; otherwise over the whole run.
            Some(e) => match e.meas_snapshot {
                Some((t0, core_ns0)) if end.as_nanos() > t0 => {
                    (e.meter.core_ns(end.as_nanos()) - core_ns0) as f64
                        / (end.as_nanos() - t0) as f64
                }
                _ => e.meter.avg_cores(end.as_nanos(), 0),
            },
            None => self.cfg.cores as f64,
        };
        ServerStats {
            local_events: self.local_events,
            stolen_events: self.stolen_events,
            ipis: self.ipis_delivered,
            preemptions: self.preemptions,
            avg_active_cores,
            ..ServerStats::default()
        }
    }
}

/// A fresh ZygOS-family world for `cfg`.
pub(crate) fn world(cfg: &SysConfig) -> World<ZygosModel> {
    World::new(cfg, ZygosModel::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionMode, SysOutput};
    use crate::driver::run_system as run;
    use crate::edge;
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

        let mut engine = edge::start(world(&cfg));
        for _ in 0..30_000 {
            assert!(engine.step(), "run must outlast the checkpoint offset");
        }
        let mut resumed = engine.checkpoint();
        engine.run();
        resumed.run();
        for out in [
            {
                let ev = engine.processed();
                edge::finish(engine, ev)
            },
            {
                let ev = resumed.processed();
                edge::finish(resumed, ev)
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
        // sweeps are built on.
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.7);
        cfg.requests = 8_000;
        cfg.warmup = 1_000;
        let straight = run(&cfg);

        let mut engine = edge::start(world(&cfg));
        for _ in 0..37_123 {
            assert!(engine.step(), "run must outlast the checkpoint offset");
        }
        let mut resumed = engine.checkpoint();
        engine.run();
        resumed.run();
        for out in [
            {
                let ev = engine.processed();
                edge::finish(engine, ev)
            },
            {
                let ev = resumed.processed();
                edge::finish(resumed, ev)
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
