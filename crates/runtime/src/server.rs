//! The server: worker threads running the scheduling loop.
//!
//! The *order* in which a worker serves its queues is not written here: it
//! comes from the shared `zygos_sched` policy plane. Every worker walks
//! the [`DispatchPolicy`] ladder its [`SchedulerKind`] maps to (the same
//! `ZygosPolicy` object the simulator drives), this file
//! binds each rung to the live mechanism — MPSC rings, the shuffle layer,
//! doorbells, the idle sweep. The elastic controller likewise holds the
//! simulator's [`SloController`], the latency window is the simulator's
//! [`ControlWindow`], and the optional credit gate is the lock-free
//! [`CreditGate`] sibling of the simulator's `CreditPool` (same AIMD rule
//! and invariants).
//!
//! # Idle workers and work conservation
//!
//! The paper's idle cores poll remote shuffle queues without pause, so a
//! ready connection never waits while a core is free. A worker here polls
//! for one wake-up's cost (`WAKE_COST_NS`, yielding the CPU between
//! checks) when a pass over the ladder finds nothing, then parks, and is
//! woken by two signals:
//! its doorbell (packets on its own ring, remote syscalls — the paper's
//! two IPIs) and the [`SleeperSet`] protocol, the live counterpart of the
//! simulator's `wake_idle()`:
//!
//! * a worker that may take shared work publishes itself in
//!   `Shared::sleepers`, re-checks its ring, its shuffle queue, its
//!   remote-syscall channel and every queue it could steal from, and only
//!   then parks (`Worker::park`);
//! * a worker that leaves a ready connection queued behind it — on
//!   dequeuing from its shuffle queue, after an RX batch, when a stolen
//!   connection is re-queued — wakes one parked
//!   worker (`Worker::wake_one_sleeper`), provided its own recent
//!   per-connection handler time exceeds `WAKE_COST_NS`: below that,
//!   running the connection in place is cheaper than the futex.
//!
//! # The live latency signal
//!
//! With [`RuntimeConfig::slo`](crate::RuntimeConfig::slo) or
//! [`RuntimeConfig::admission`](crate::RuntimeConfig::admission) set,
//! every framed request is stamped at ingress and its **sojourn** (frame
//! → response produced) lands in a per-core buffer. Worker 0's control
//! tick drains the buffers into a [`ControlWindow`] and reads the same
//! signals the simulator's `Control` event reads:
//!
//! * the worst per-class p99-vs-SLO-bound ratio, fed to the
//!   [`SloController`] as `PolicySignal::slo_ratio`;
//! * the worst per-class tail-vs-credit-target ratio (targets derived
//!   from the SLO bounds) or, without SLO classes, the window p99 in µs,
//!   fed to the [`CreditGate`]'s AIMD.
//!
//! One rule differs from the simulator's: a class with fewer than
//! [`MIN_WINDOW_SAMPLES`](zygos_load::slo::MIN_WINDOW_SAMPLES) samples is
//! kept across ticks rather than cleared, since at live request rates a
//! 1 ms window can be thin.
//!
//! The windows measure server sojourn rather than the simulator's
//! client-observed latency (the loopback wire adds no modelled RTT); both
//! are the quantity their host's SLO is written against.
//!
//! With [`RuntimeConfig::client_credits`](crate::RuntimeConfig::client_credits),
//! responses additionally piggyback a credit grant
//! ([`CreditGate::grant_for_response`]) in the wire header, and the
//! [`ClientPort`] refuses to send while a connection's
//! balance is zero — Breakwater's sender-side credit distribution, which
//! turns every shed from a burned round-trip into a local, free decision.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos_load::slo::{ControlWindow, WindowSignals};
use zygos_sched::{
    AllocatorConfig, BackgroundOrder, CreditGate, DispatchPolicy, ElasticGate, PolicySignal,
    QuantumPolicy, Rung, SloController, SloTuning, ZygosPolicy,
};

use zygos_core::doorbell::{Doorbell, IpiReason};
use zygos_core::idle::{IdlePolicy, PollTarget, SleeperSet};
use zygos_core::shuffle::{FinishOutcome, ShuffleLayer};
use zygos_core::spinlock::SpinLock;
use zygos_core::stats::{CoreStats, StatsSnapshot};
use zygos_core::syscall::{BatchedSyscall, RemoteSyscallChannel};
use zygos_net::flow::{ConnId, FiveTuple};
use zygos_net::packet::{Packet, RpcMessage};
use zygos_net::ring::MpscRing;
use zygos_net::rss::Rss;
use zygos_net::wire::{FrameStack, Framer};
use zygos_telemetry::{Registry, SeriesId, TimeSeries};

use crate::app::RpcApp;
use crate::client::ClientPort;
use crate::config::{RuntimeConfig, SchedulerKind};
use crate::responses::ResponseQueue;

/// Opcode of the reply sent for a request shed by the credit gate: the
/// client-visible backpressure signal (Breakwater's explicit reject).
pub const REJECT_OPCODE: u16 = 0xFFFF;

/// A framed request plus its ingress timestamp: the stamp is what turns
/// the runtime from SLO-blind into a measured-latency host (sojourn =
/// stamp → response produced).
pub(crate) struct Stamped {
    pub(crate) msg: RpcMessage,
    pub(crate) ingress: Instant,
}

pub(crate) struct Shared {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) shuffle: ShuffleLayer<Stamped>,
    /// Per-core ingress rings (the "NIC").
    pub(crate) rings: Vec<MpscRing<Packet>>,
    /// Per-core remote-syscall channels.
    remote_sys: Vec<RemoteSyscallChannel>,
    pub(crate) doorbells: Vec<Doorbell>,
    /// Workers parked (or about to park) that may be woken to take shared
    /// work. Revoked elastic workers and workers of a non-stealing policy
    /// never enter it.
    sleepers: SleeperSet,
    stats: Vec<CoreStats>,
    /// Response frames on their way to the client port.
    pub(crate) responses: ResponseQueue<(ConnId, Bytes)>,
    pub(crate) stop: AtomicBool,
    /// Connection → home core (RSS).
    pub(crate) conn_home: Vec<u16>,
    /// The dispatch policy every worker's loop walks (rung order, steal
    /// gating) — shared with the simulator by construction.
    dispatch: ZygosPolicy,
    /// Elastic mode: published granted-core count plus the controller
    /// (driven by worker 0; the mutex is uncontended).
    elastic: Option<ElasticCtl>,
    /// Credit gate (any scheduler kind).
    credits: Option<AdmissionCtl>,
    /// The live latency signal: per-tenant sojourn windows (present when
    /// `cfg.slo` or `cfg.admission` is set).
    slo: Option<SloSignal>,
    /// Control-tick gate shared by all of worker 0's controller duties
    /// (present when any controller is armed).
    ctl_tick: Option<SpinLock<Instant>>,
    /// Control-tick metrics registry: worker 0 publishes each tick's
    /// staffing and admission signals here as bounded time-series, and
    /// [`Server::metric_series`] snapshots them without consuming —
    /// the fix for the old read-once-and-lost control-tick gauges.
    telem: SpinLock<RuntimeTelem>,
}

/// The runtime's registry plus the handles worker 0 publishes through.
/// Series are registered at startup for the controllers actually armed;
/// the rest stay `None` and cost one untaken branch per tick.
struct RuntimeTelem {
    reg: Registry,
    start: Instant,
    s_ratio: Option<SeriesId>,
    s_active: Option<SeriesId>,
    s_credits: Option<SeriesId>,
    s_admitted: Option<SeriesId>,
    /// Admitted-counter snapshot at the previous tick (for the rate).
    last_admitted: u64,
}

/// Points kept per control-tick series (1ms ticks → ~8s of history; the
/// registry refuses, counts and never reallocates past the cap).
const RUNTIME_SERIES_CAP: usize = 8_192;

struct ElasticCtl {
    gate: ElasticGate,
    /// The allocator the simulator's control tick drives. Without tenant
    /// SLOs it sees no ratio and makes the utilization rule's decisions.
    policy: SpinLock<SloController>,
    /// Per-core nanoseconds spent doing work since the last controller
    /// read. A duty-cycle fraction, not a did-anything flag: under a
    /// steady trickle every worker does *something* each period, and a
    /// boolean would read as full utilization and never let the
    /// controller park anything.
    busy_ns: Vec<AtomicU64>,
}

struct AdmissionCtl {
    /// Lock-free: RX admits and completion releases are atomic ops, never
    /// a cross-core lock on the dispatch fast path.
    gate: CreditGate,
    /// Per-class pool fractions for weighted fair shedding, copied from
    /// the [`ControlWindow`] so the RX path reads them without its lock.
    admit_fractions: Vec<f64>,
}

/// The measured latency window (armed by `RuntimeConfig::slo` or
/// `RuntimeConfig::admission`).
struct SloSignal {
    /// The per-class window the simulator's control tick also reads. Only
    /// worker 0 touches it; the lock is uncontended.
    window: SpinLock<ControlWindow>,
    /// Per-core `(class, sojourn ns)` buffers: completion-path recording
    /// stays off any cross-core lock, and each control tick drains them
    /// into the window.
    shards: Vec<SpinLock<Vec<(usize, u64)>>>,
    /// Bits of the last harvested worst p99-vs-bound ratio (`NaN` until
    /// the first trustworthy window) — the observability gauge
    /// [`Server::slo_ratio`] reads.
    ratio_gauge: AtomicU64,
}

impl SloSignal {
    fn new(window: ControlWindow, cores: usize) -> Self {
        SloSignal {
            window: SpinLock::new(window),
            shards: (0..cores).map(|_| SpinLock::new(Vec::new())).collect(),
            ratio_gauge: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Records one completed request's sojourn on the executing core.
    fn record(&self, core: usize, class: usize, sojourn_ns: u64) {
        self.shards[core].lock().push((class, sojourn_ns));
    }

    /// Drains every core's buffer into the window, reads its signals and
    /// clears the classes it judged; thinner classes keep accumulating.
    /// Publishes the measured ratio to the gauge (held, not cleared,
    /// across thin windows).
    fn harvest(&self) -> WindowSignals {
        let mut window = self.window.lock();
        for shard in &self.shards {
            for (class, ns) in shard.lock().drain(..) {
                window.record_nanos(class, ns);
            }
        }
        let signals = window.signals();
        window.clear_judged();
        if let Some(r) = signals.slo_ratio {
            self.ratio_gauge.store(r.to_bits(), Ordering::Release);
        }
        signals
    }
}

/// Controller tick period for the live runtime (coarser than the
/// simulator's 25µs: wall-clock queue signals on a shared host are noisy).
const CTL_PERIOD: Duration = Duration::from_millis(1);

/// What handing a queued connection to a parked worker costs the waker,
/// per connection handed off. The `futex(FUTEX_WAKE)` behind
/// `Thread::unpark` takes about 6 µs on the 2-vCPU reference box when the
/// target sleeps in the kernel (25 ns when it has not got there yet), and
/// the woken worker starts 10–15 µs later; once awake it keeps stealing
/// without further wake-ups (on `live-steal`, one wake-up per 3–4 stolen
/// events), which brings the cost per connection to about 2 µs. A worker
/// wakes a sleeper only while its own recent handler time per connection
/// is above this; a sub-microsecond echo handler drains its queue sooner
/// than the sleeper could start.
///
/// It is also the poll budget of [`Worker::park`]: a worker that may take
/// shared work polls this long before it parks, since work that arrives
/// sooner is cheaper to find by looking than to be woken for.
const WAKE_COST_NS: u64 = 2_000;

/// Cap on one sample folded into a worker's handler-time average, so a
/// single preempted handler (milliseconds on a shared host) cannot hold
/// the wake gate open for the dozens of samples the average would need to
/// decay.
const EXEC_SAMPLE_CAP_NS: u64 = 4 * WAKE_COST_NS;

/// Idle park of a granted worker. The doorbell and the sleeper set end it
/// early; the timeout is the backstop for what neither announces (work
/// queued behind handlers cheaper than [`WAKE_COST_NS`], the control tick).
const IDLE_NAP: Duration = Duration::from_micros(100);

/// Idle park of a revoked elastic worker: an order of magnitude longer —
/// that, plus not stealing, is what frees its CPU.
const REVOKED_NAP: Duration = Duration::from_millis(1);

/// Remote syscalls handled as one batch: the home core drains at most this
/// many per ladder pass, and a worker's ship and drain buffers start with
/// room for this many, so serving does not grow them.
const SYSCALL_BATCH: usize = 64;

/// Events each connection's queue has room for from setup on: its share of
/// one ingress ring, `ring_capacity / conns`. A connection gets deeper
/// only while the client keeps more requests than that in flight on it.
fn events_per_conn(cfg: &RuntimeConfig) -> usize {
    cfg.ring_capacity.div_ceil(cfg.conns as usize)
}

/// A running server instance.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Builds the dispatch policy a scheduler kind runs. The live runtime has
/// no preemptive quantum (a Rust closure cannot be interrupted; the
/// cooperative `conn_batch` bound stands in), so the quantum is always
/// disabled here and the background rungs never appear.
fn dispatch_for(kind: SchedulerKind) -> ZygosPolicy {
    let steal = match kind {
        SchedulerKind::Zygos { steal } => steal,
        SchedulerKind::Elastic => true,
    };
    // The idle sweep both steals and IPIs, so the paper's two ablation
    // knobs collapse to one here.
    ZygosPolicy::new(
        steal,
        steal,
        QuantumPolicy::disabled(),
        BackgroundOrder::Fcfs,
    )
}

impl Server {
    /// Builds the connection table (via real RSS), spawns the workers, and
    /// returns the server plus the client port.
    pub fn start(cfg: RuntimeConfig, app: Arc<dyn RpcApp>) -> (Server, ClientPort) {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(cfg.conns > 0, "need at least one connection");
        assert!(cfg.conn_batch >= 1, "conn_batch must be positive");
        let rss = Rss::new(cfg.cores);
        let mut shuffle = ShuffleLayer::with_event_capacity(cfg.cores, events_per_conn(&cfg));
        let mut conn_home = Vec::with_capacity(cfg.conns as usize);
        for i in 0..cfg.conns {
            let home = rss.queue_for(&FiveTuple::synthetic(i)) as u16;
            let id = shuffle.register(home as usize);
            debug_assert_eq!(id.0, i);
            conn_home.push(home);
        }
        let elastic = matches!(cfg.scheduler, SchedulerKind::Elastic).then(|| {
            let alloc_cfg = AllocatorConfig::paper(cfg.cores);
            ElasticCtl {
                gate: ElasticGate::new(alloc_cfg.min_cores, cfg.cores),
                policy: SpinLock::new(SloController::new(alloc_cfg, SloTuning::default())),
                busy_ns: (0..cfg.cores).map(|_| AtomicU64::new(0)).collect(),
            }
        });
        let window = (cfg.slo.is_some() || cfg.admission.is_some())
            .then(|| ControlWindow::new(cfg.slo.as_ref()));
        let credits = cfg.admission.map(|c| {
            let fractions = window
                .as_ref()
                .expect("armed with admission")
                .admit_fractions();
            AdmissionCtl {
                gate: CreditGate::with_classes(c, fractions.len()),
                admit_fractions: fractions.to_vec(),
            }
        });
        let slo = window.map(|w| SloSignal::new(w, cfg.cores));
        let ctl_tick = (elastic.is_some() || credits.is_some() || slo.is_some())
            .then(|| SpinLock::new(Instant::now()));
        let telem = {
            let mut reg = Registry::new();
            let s_ratio = cfg
                .slo
                .is_some()
                .then(|| reg.register_series("slo_ratio", RUNTIME_SERIES_CAP));
            let s_active = elastic
                .is_some()
                .then(|| reg.register_series("active_cores", RUNTIME_SERIES_CAP));
            let s_credits = credits
                .is_some()
                .then(|| reg.register_series("credit_capacity", RUNTIME_SERIES_CAP));
            let s_admitted = credits
                .is_some()
                .then(|| reg.register_series("admitted_rate", RUNTIME_SERIES_CAP));
            SpinLock::new(RuntimeTelem {
                reg,
                start: Instant::now(),
                s_ratio,
                s_active,
                s_credits,
                s_admitted,
                last_admitted: 0,
            })
        };
        let shared = Arc::new(Shared {
            rings: (0..cfg.cores)
                .map(|_| MpscRing::with_capacity(cfg.ring_capacity))
                .collect(),
            remote_sys: (0..cfg.cores)
                .map(|_| RemoteSyscallChannel::with_capacity(cfg.ring_capacity))
                .collect(),
            doorbells: (0..cfg.cores).map(|_| Doorbell::new()).collect(),
            sleepers: SleeperSet::new(cfg.cores),
            stats: (0..cfg.cores).map(|_| CoreStats::new()).collect(),
            responses: ResponseQueue::with_capacity(cfg.ring_capacity),
            stop: AtomicBool::new(false),
            conn_home,
            shuffle,
            dispatch: dispatch_for(cfg.scheduler),
            elastic,
            credits,
            slo,
            ctl_tick,
            telem,
            cfg: cfg.clone(),
        });
        let workers = (0..cfg.cores)
            .map(|core| {
                let shared = Arc::clone(&shared);
                let app = Arc::clone(&app);
                std::thread::Builder::new()
                    .name(format!("zygos-core-{core}"))
                    .spawn(move || worker_loop(core, shared, app))
                    .expect("spawn worker")
            })
            .collect();
        let port = ClientPort::new(Arc::clone(&shared));
        (Server { shared, workers }, port)
    }

    /// Aggregated scheduler statistics.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::collect(self.shared.stats.iter())
    }

    /// Currently granted worker count (`None` unless running
    /// [`SchedulerKind::Elastic`]).
    pub fn active_cores(&self) -> Option<usize> {
        self.shared.elastic.as_ref().map(|e| e.gate.active())
    }

    /// Credit-gate counters `(admitted, rejected, capacity)`; `None` when
    /// admission is off.
    pub fn admission_stats(&self) -> Option<(u64, u64, u32)> {
        self.shared
            .credits
            .as_ref()
            .map(|c| (c.gate.admitted(), c.gate.rejected(), c.gate.capacity()))
    }

    /// The last harvested worst p99-vs-SLO-bound ratio — the measured
    /// signal the SLO-driven controllers act on. `None` unless
    /// [`RuntimeConfig::slo`](crate::RuntimeConfig::slo) is configured
    /// and at least one control window held enough completions to judge.
    pub fn slo_ratio(&self) -> Option<f64> {
        let bits = self
            .shared
            .slo
            .as_ref()?
            .ratio_gauge
            .load(Ordering::Acquire);
        let r = f64::from_bits(bits);
        r.is_finite().then_some(r)
    }

    /// Snapshot of one named control-tick time-series (`"slo_ratio"`,
    /// `"active_cores"`, `"credit_capacity"`, `"admitted_rate"` — see
    /// `docs/OBSERVABILITY.md` for the naming scheme). `None` when the
    /// corresponding controller is not armed. Reading does not consume:
    /// unlike the old read-once gauges, the full trajectory stays
    /// available — e.g. the staffing signal's history across a load step.
    pub fn metric_series(&self, name: &str) -> Option<TimeSeries> {
        self.shared.telem.lock().reg.series(name).cloned()
    }

    /// The home core of a connection (RSS).
    pub fn home_of(&self, conn: ConnId) -> usize {
        self.shared.conn_home[conn.index()] as usize
    }

    /// Stops the workers and joins them.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // A client parked in `recv_timeout` returns once it sees `stop`.
        self.shared.responses.wake();
        for d in &self.shared.doorbells {
            d.ring(IpiReason::PendingPackets);
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
    }
}

impl Shared {
    pub(crate) fn respond(&self, conn: ConnId, wire: Bytes) {
        self.responses.push((conn, wire));
    }

    /// `conn`'s tenant class (0 without tenant SLOs).
    fn class_of(&self, conn: ConnId) -> usize {
        self.cfg.slo.as_ref().map_or(0, |s| s.class_of(conn.0))
    }

    /// Records a completed request's sojourn when the window is armed.
    fn record_sojourn(&self, core: usize, conn: ConnId, ingress: Instant) {
        if let Some(sig) = &self.slo {
            let ns = ingress.elapsed().as_nanos() as u64;
            sig.record(core, self.class_of(conn), ns);
        }
    }
}

/// One worker's private state.
struct Worker {
    core: usize,
    /// Framers of the connections homed here.
    framers: Vec<Framer>,
    /// The requests this worker executed or rejected, whose buffers
    /// carry every frame it produces (responses, shipped stolen
    /// responses, rejects).
    frames: FrameStack,
    /// Max events taken from one connection per dequeue.
    batch: usize,
    /// Moving average of the handler time this worker spends per executed
    /// connection (ns), samples capped at [`EXEC_SAMPLE_CAP_NS`]: the
    /// measured side of the wake gate.
    exec_ns: u64,
    // Buffers the loop reuses, so a dispatch allocates nothing of its own.
    events: Vec<Stamped>,
    shipped: Vec<BatchedSyscall>,
    remote: Vec<BatchedSyscall>,
}

fn worker_loop(core: usize, shared: Arc<Shared>, app: Arc<dyn RpcApp>) {
    shared.doorbells[core].register_target(std::thread::current());
    let mut worker = Worker::new(core, &shared);
    let mut idle = IdlePolicy::new(core, shared.cfg.cores);
    // Cheap xorshift state for victim-order randomization.
    let mut rng: u64 = 0x9E37_79B9 ^ (core as u64 + 1);

    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Worker 0 moonlights as the control plane.
        if core == 0 {
            control_tick(&shared);
        }
        let (granted, did_work) = match &shared.elastic {
            Some(ctl) => {
                let granted = ctl.gate.is_active(core);
                let t0 = Instant::now();
                let did = dispatch_step(&mut worker, &mut idle, &mut rng, &shared, &app, granted);
                if did {
                    ctl.busy_ns[core].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                (granted, did)
            }
            None => (
                true,
                dispatch_step(&mut worker, &mut idle, &mut rng, &shared, &app, true),
            ),
        };
        if !did_work {
            worker.park(&shared, granted);
        }
    }
}

impl Worker {
    fn new(core: usize, shared: &Shared) -> Worker {
        Worker {
            core,
            framers: (0..shared.cfg.conns).map(|_| Framer::new()).collect(),
            frames: FrameStack::default(),
            batch: shared.cfg.conn_batch,
            exec_ns: 0,
            events: Vec::with_capacity(events_per_conn(&shared.cfg).min(shared.cfg.conn_batch)),
            shipped: Vec::with_capacity(SYSCALL_BATCH),
            remote: Vec::with_capacity(SYSCALL_BATCH),
        }
    }

    /// Parks a worker that found nothing to do. Doorbells unpark it at once
    /// (and an unpark that races the park is kept as a token, so those
    /// need no handshake). Work it could take from *another* queue is
    /// announced through the sleeper set, which does: publish, look again,
    /// and only then sleep. A worker that may not take such work — revoked,
    /// or under a non-stealing policy — stays out of the set.
    ///
    /// A worker that may take shared work first polls for
    /// [`WAKE_COST_NS`] (competitive spinning). The poll yields between
    /// checks instead of spinning: the client thread may need the CPU.
    fn park(&self, shared: &Shared, granted: bool) {
        let core = self.core;
        if !shared.dispatch.may_steal(granted) {
            shared.stats[core].count_park();
            std::thread::park_timeout(if granted { IDLE_NAP } else { REVOKED_NAP });
            return;
        }
        let poll_start = Instant::now();
        while poll_start.elapsed() < Duration::from_nanos(WAKE_COST_NS) {
            std::thread::yield_now();
            if shared.doorbells[core].any_pending() || work_in_reach(shared, core) {
                return;
            }
        }
        shared.sleepers.publish(core);
        if !work_in_reach(shared, core) {
            shared.stats[core].count_park();
            std::thread::park_timeout(IDLE_NAP);
        }
        shared.sleepers.cancel(core);
    }

    /// Wakes one parked worker because this one is leaving a ready
    /// connection queued where the sleeper can take it. Free when this
    /// worker's handlers are cheaper than the wake-up, one fence and one
    /// load when nobody is parked; never wakes a revoked elastic worker,
    /// and under a non-stealing policy nobody is ever in the set.
    fn wake_one_sleeper(&self, shared: &Shared) {
        if self.exec_ns <= WAKE_COST_NS {
            return;
        }
        // Workers at or above the grant are revoked.
        let limit = shared
            .elastic
            .as_ref()
            .map_or(shared.cfg.cores, |ctl| ctl.gate.active());
        if shared
            .sleepers
            .wake_one(self.core, limit, &shared.doorbells)
            .is_some()
        {
            shared.stats[self.core].count_wake_sent();
        }
    }

    /// Folds one executed connection's handler time into the average.
    fn note_exec(&mut self, handler_ns: u64) {
        self.exec_ns = (7 * self.exec_ns + handler_ns.min(EXEC_SAMPLE_CAP_NS)) / 8;
    }
}

/// Work a worker that may take shared work would find on its next ladder
/// pass: its own ring, its remote syscalls, and any ready connection (own
/// shuffle queue included).
fn work_in_reach(shared: &Shared, core: usize) -> bool {
    !shared.rings[core].is_empty()
        || !shared.remote_sys[core].is_empty()
        || shared.shuffle.total_ready() > 0
}

/// Runs the handler for one event; returns the response and the handler's
/// wall time (for [`Worker::note_exec`]).
fn timed_handle(app: &Arc<dyn RpcApp>, conn: ConnId, ev: &Stamped) -> (RpcMessage, u64) {
    let t0 = Instant::now();
    let resp = app.handle(conn, &ev.msg);
    (resp, t0.elapsed().as_nanos() as u64)
}

/// Worker 0's control-plane duty: every [`CTL_PERIOD`], harvest the
/// sojourn window (when the latency signal is armed) and drive both
/// policy loops — allocation ([`SloController::observe`], fed the
/// *measured* `slo_ratio`) and admission (credit AIMD on the per-class
/// tail-vs-target ratio, or on the window p99 without SLO classes).
/// One tick, one harvest: both loops see the same window, exactly like
/// the simulator's `Control` event.
fn control_tick(shared: &Shared) {
    let Some(tick) = &shared.ctl_tick else {
        return;
    };
    let elapsed = {
        let mut last = tick.lock();
        let elapsed = last.elapsed();
        if elapsed < CTL_PERIOD {
            return;
        }
        *last = Instant::now();
        elapsed
    };
    // The registry stays locked from before the gauges (`slo_ratio`,
    // `active_cores`) move until their points are pushed: a reader that
    // sees a new gauge value and then reads a series finds the point
    // behind it.
    let mut t = shared.telem.lock();
    let signals = shared
        .slo
        .as_ref()
        .map_or_else(WindowSignals::default, SloSignal::harvest);
    if let Some(ctl) = &shared.elastic {
        let backlog: usize = (0..shared.cfg.cores)
            .map(|c| shared.shuffle.queue_len(c) + shared.rings[c].len())
            .sum();
        // Busy cores = summed duty cycle over the period.
        let busy_ns: u64 = ctl
            .busy_ns
            .iter()
            .map(|b| b.swap(0, Ordering::Relaxed))
            .sum();
        let busy = (busy_ns as f64 / elapsed.as_nanos().max(1) as f64).min(shared.cfg.cores as f64);
        let mut alloc = ctl.policy.lock();
        alloc.observe(&PolicySignal {
            busy_cores: busy,
            backlog,
            slo_ratio: signals.slo_ratio,
        });
        let target = alloc.active();
        drop(alloc);
        let before = ctl.gate.active();
        ctl.gate.set_active(target);
        // Re-granted workers may be deep in a long park: unpark them.
        if target > before {
            for d in &shared.doorbells[before..target] {
                d.ring(IpiReason::PendingPackets);
            }
        }
    }
    if let Some(gate) = &shared.credits {
        // A thin window (None) holds capacity.
        match shared.cfg.slo {
            // Steer the worst per-class sojourn tail to its SLO-derived
            // target.
            Some(_) => gate
                .gate
                .update_ratio(signals.credit_ratio.unwrap_or(f64::NAN)),
            // Steer the window p99 (µs) to `CreditConfig::target`.
            None => gate.gate.update(signals.tail_us.unwrap_or(f64::NAN)),
        }
    }
    // Publish this tick's signals into the registry: the same decision
    // inputs the controllers just consumed, now re-readable as bounded
    // time-series instead of read-once gauges.
    let t_us = t.start.elapsed().as_micros() as f64;
    if let (Some(id), Some(r)) = (t.s_ratio, signals.slo_ratio) {
        t.reg.push(id, t_us, r);
    }
    if let (Some(id), Some(ctl)) = (t.s_active, shared.elastic.as_ref()) {
        t.reg.push(id, t_us, ctl.gate.active() as f64);
    }
    if let Some(gate) = &shared.credits {
        if let Some(id) = t.s_credits {
            t.reg.push(id, t_us, gate.gate.capacity() as f64);
        }
        if let Some(id) = t.s_admitted {
            let total = gate.gate.admitted();
            let rate = (total - t.last_admitted) as f64 / elapsed.as_secs_f64().max(1e-9);
            t.reg.push(id, t_us, rate);
            t.last_admitted = total;
        }
    }
}

/// RX path: drain this core's ingress ring through the framers into the
/// shuffle layer, stamping each framed request's
/// ingress time and shedding creditless requests at the edge (weighted by
/// tenant class: the loosest SLO class is capped at the smallest pool
/// share and sheds first). Home core only. Leaving more than one ready
/// connection behind (this worker serves one itself) wakes a sleeper.
fn tcp_in(w: &mut Worker, shared: &Shared, max_pkts: usize) -> usize {
    let core = w.core;
    let mut processed = 0;
    let ingress = Instant::now();
    while processed < max_pkts {
        let Some(Packet { conn, payload }) = shared.rings[core].pop() else {
            break;
        };
        processed += 1;
        debug_assert_eq!(shared.conn_home[conn.index()] as usize, core);
        let framer = &mut w.framers[conn.index()];
        let fed = framer.feed(&payload);
        // Only the framer views the segment from here: a thief that runs
        // a request framed below must find its frame free once it is done.
        drop(payload);
        if fed.is_err() {
            continue; // Poisoned stream: drop (a real stack would RST).
        }
        loop {
            match framer.next_message() {
                Ok(Some(msg)) => {
                    if let Some(gate) = &shared.credits {
                        let class = shared.class_of(conn);
                        if !gate
                            .gate
                            .try_admit_weighted(class, gate.admit_fractions[class])
                        {
                            // Shed: explicit reject, nothing queued. The
                            // reject must return at least the credit the
                            // sender spent on it: grants ride only on
                            // responses, so a 0-grant reject to a
                            // connection with nothing else in flight
                            // would strand its balance at zero forever.
                            // A flat balance (spend 1, get 1) paces a
                            // shed sender to one retry per round trip.
                            let reject =
                                RpcMessage::new(REJECT_OPCODE, msg.header.req_id, Bytes::new());
                            let reject = grant_min_one(shared, conn, reject);
                            w.frames.keep(msg.body);
                            shared.respond(conn, w.frames.encode(&reject));
                            continue;
                        }
                    }
                    shared.shuffle.produce(conn, Stamped { msg, ingress });
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
    if processed > 0 && shared.shuffle.queue_len(core) > 1 {
        w.wake_one_sleeper(shared);
    }
    processed
}

/// Piggybacks the credit gate's sender-side grant on a response header
/// (identity when client-side credits are off). The grant is judged
/// against `conn`'s class threshold, not the whole pool: a capped class
/// being shed must see its send window tighten, not grow.
fn grant_credits(shared: &Shared, conn: ConnId, resp: RpcMessage) -> RpcMessage {
    match &shared.credits {
        Some(gate) if shared.cfg.client_credits => {
            let class = shared.class_of(conn);
            let fraction = gate.admit_fractions[class];
            resp.with_credits(gate.gate.grant_for_response_weighted(class, fraction))
        }
        _ => resp,
    }
}

/// [`grant_credits`] with a floor of one credit: the reject path, where
/// the grant returns the spent credit (liveness; see the call site).
fn grant_min_one(shared: &Shared, conn: ConnId, resp: RpcMessage) -> RpcMessage {
    match &shared.credits {
        Some(gate) if shared.cfg.client_credits => {
            let class = shared.class_of(conn);
            let fraction = gate.admit_fractions[class];
            resp.with_credits(
                gate.gate
                    .grant_for_response_weighted(class, fraction)
                    .max(1),
            )
        }
        _ => resp,
    }
}

/// Returns an admitted request's credit (of `conn`'s tenant class) after
/// its response is produced.
fn release_credit(shared: &Shared, conn: ConnId) {
    if let Some(gate) = &shared.credits {
        gate.gate.release_class(shared.class_of(conn));
    }
}

/// Executes all taken events of a connection, following the paper's
/// home/remote syscall discipline, then finishes it.
fn exec_conn(w: &mut Worker, shared: &Shared, app: &Arc<dyn RpcApp>, conn: ConnId, stolen: bool) {
    let core = w.core;
    let home_core = shared.conn_home[conn.index()] as usize;
    if !stolen
        && shared.doorbells[core]
            .pending()
            .contains(IpiReason::RemoteSyscalls)
    {
        // A thief ships a stolen batch's responses here, rings this core's
        // doorbell and only then requeues the connection. The ladder's
        // RemoteSyscalls rung may have looked before they arrived, but
        // then the doorbell still holds the reason: it is cleared only at
        // the top of a step, before that rung. Send them before this
        // batch's eager responses can overtake them (§4.3).
        while rung_remote_syscalls(w, shared) {}
    }
    shared
        .shuffle
        .take_events_into(conn, w.batch, &mut w.events);
    let mut handler_ns = 0;
    for ev in w.events.drain(..) {
        let (resp, ns) = timed_handle(app, conn, &ev);
        handler_ns += ns;
        // Release before computing the grant: the completing request's own
        // credit must not read as occupancy, or at full pool (capacity
        // in-flight, the steady state under overload with a small pool)
        // every response would grant 0 and sender-side clients would
        // ratchet to zero balance and starve.
        release_credit(shared, conn);
        // The request's own frame carries the response unless the
        // response still views it (an echo): then an earlier one does.
        w.frames.keep(ev.msg.body);
        let wire = w.frames.encode(&grant_credits(shared, conn, resp));
        // The sojourn sample: framed at ingress, response produced now.
        shared.record_sojourn(core, conn, ev.ingress);
        if stolen {
            w.shipped.push(BatchedSyscall::SendMsg { conn, wire });
            shared.stats[core].count_stolen_event();
        } else {
            // Home execution transmits eagerly (§6.2). Counted first: a
            // client that has the response must find it in the stats.
            shared.stats[core].count_local_event();
            shared.respond(conn, wire);
        }
    }
    w.note_exec(handler_ns);
    if !w.shipped.is_empty() {
        shared.remote_sys[home_core].ship(w.shipped.drain(..));
        if shared.doorbells[home_core].ring(IpiReason::RemoteSyscalls) {
            shared.stats[core].count_ipi_sent();
        }
    }
    // A stolen connection that goes back on its home queue may find the
    // home core parked. (The home core re-queues onto the queue it serves
    // next, and decides at that dequeue whether anything is left over.)
    if shared.shuffle.finish(conn) == FinishOutcome::Requeued && stolen {
        w.wake_one_sleeper(shared);
    }
}

/// One iteration of a worker's scheduling loop: walk the shared dispatch
/// ladder, binding each rung to its live mechanism, and take the first
/// that yields work. Returns `true` if any work was found.
fn dispatch_step(
    w: &mut Worker,
    idle: &mut IdlePolicy,
    rng: &mut u64,
    shared: &Shared,
    app: &Arc<dyn RpcApp>,
    core_active: bool,
) -> bool {
    // Doorbell (the "IPI handler") precedes the ladder: clear pending
    // reasons; the duties are performed by the rungs below.
    for _ in 0..shared.doorbells[w.core].take().len() {
        shared.stats[w.core].count_ipi_handled();
    }
    for &rung in shared.dispatch.ladder() {
        let took = match rung {
            Rung::RemoteSyscalls => rung_remote_syscalls(w, shared),
            Rung::LocalReady => rung_local_ready(w, shared, app),
            Rung::LocalNet => tcp_in(w, shared, 64) > 0,
            Rung::StealReady => {
                shared.dispatch.may_steal(core_active) && rung_idle_sweep(w, idle, rng, shared, app)
            }
            // The runtime's idle sweep performs the IPI scan (its doorbell
            // ring) as part of StealReady; a cooperative runtime has no
            // preempted-remainder queues for the background rungs.
            Rung::IpiScan
            | Rung::AgedBackground
            | Rung::LocalBackground
            | Rung::StealBackground => false,
        };
        if took {
            return true;
        }
    }
    false
}

/// Remote syscalls: transmit responses for stolen executions.
fn rung_remote_syscalls(w: &mut Worker, shared: &Shared) -> bool {
    if shared.remote_sys[w.core].drain_into(SYSCALL_BATCH, &mut w.remote) == 0 {
        return false;
    }
    for BatchedSyscall::SendMsg { conn, wire } in w.remote.drain(..) {
        shared.stats[w.core].count_remote_syscall();
        shared.respond(conn, wire);
    }
    true
}

/// Own shuffle queue. What stays queued behind the dequeued connection
/// would wait for this worker's handler: offer it to a sleeper first.
fn rung_local_ready(w: &mut Worker, shared: &Shared, app: &Arc<dyn RpcApp>) -> bool {
    let Some(conn) = shared.shuffle.dequeue_local(w.core) else {
        return false;
    };
    shared.stats[w.core].count_local_dequeue();
    if shared.shuffle.queue_len(w.core) > 0 {
        w.wake_one_sleeper(shared);
    }
    exec_conn(w, shared, app, conn, false);
    true
}

/// Fisher–Yates over the sweep's victim order with a worker-local xorshift.
fn shuffle_victims(rng: &mut u64, victims: &mut [usize]) {
    for i in (1..victims.len()).rev() {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        victims.swap(i, (*rng % (i as u64 + 1)) as usize);
    }
}

/// The idle sweep: steal from remote shuffle queues, then check remote
/// rings and ring the home core's doorbell (the IPI).
fn rung_idle_sweep(
    w: &mut Worker,
    idle: &mut IdlePolicy,
    rng: &mut u64,
    shared: &Shared,
    app: &Arc<dyn RpcApp>,
) -> bool {
    for target in idle.sweep(|victims| shuffle_victims(rng, victims)) {
        match target {
            PollTarget::OwnHwRing => {
                // Re-check: a packet may have landed since the net rung.
                if tcp_in(w, shared, 64) > 0 {
                    return true;
                }
            }
            PollTarget::RemoteShuffle(v) => {
                if let Some(conn) = shared.shuffle.try_steal(v) {
                    shared.stats[w.core].count_steal();
                    exec_conn(w, shared, app, conn, true);
                    return true;
                }
                shared.stats[w.core].count_failed_steal();
            }
            // The loopback port has one ingress ring per core. It stands
            // for both the software packet queue and the NIC ring of §5,
            // and is probed once per sweep, at the NIC ring's turn.
            PollTarget::RemoteSwQueue(_) => {}
            PollTarget::RemoteHwRing(v) => {
                // Pending packets on a remote core's ring: only its home
                // core may run the stack — send the "IPI".
                if !shared.rings[v].is_empty()
                    && shared.doorbells[v].ring(IpiReason::PendingPackets)
                {
                    shared.stats[w.core].count_ipi_sent();
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use bytes::Bytes;
    use std::collections::HashMap;
    use zygos_sched::CreditConfig;

    fn echo_server(cfg: RuntimeConfig) -> (Server, ClientPort) {
        Server::start(cfg, Arc::new(EchoApp))
    }

    #[test]
    fn single_request_roundtrip() {
        let (server, client) = echo_server(RuntimeConfig::zygos(2, 8));
        let conn = ConnId(3);
        client.send(conn, &RpcMessage::new(1, 42, Bytes::from_static(b"hi")));
        let (rconn, resp) = client
            .recv_timeout(Duration::from_secs(5))
            .expect("response");
        assert_eq!(rconn, conn);
        assert_eq!(resp.header.req_id, 42);
        assert_eq!(&resp.body[..], b"hi");
        server.shutdown();
    }

    /// Echoes after spinning 20 µs: slow enough that a worker leaving
    /// connections queued behind it wakes a thief.
    fn spin_echo(_c: ConnId, req: &RpcMessage) -> RpcMessage {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        RpcMessage::new(req.header.opcode, req.header.req_id, req.body.clone())
    }

    /// Runs RPCs `ids` on `conns`, four in flight, each body derived from
    /// its id, and checks every response's body; `held` gets the responses
    /// `hold` picks.
    fn rpcs(
        client: &ClientPort,
        conns: &[ConnId],
        ids: std::ops::Range<u64>,
        hold: impl Fn(u64) -> bool,
        held: &mut Vec<RpcMessage>,
    ) {
        for chunk in ids.collect::<Vec<_>>().chunks(4) {
            for &id in chunk {
                let conn = conns[id as usize % conns.len()];
                client.send(conn, &RpcMessage::new(1, id, body_of(id)));
            }
            for _ in chunk {
                let (_, resp) = client
                    .recv_timeout(Duration::from_secs(5))
                    .expect("response");
                assert_eq!(resp.body, body_of(resp.header.req_id));
                if hold(resp.header.req_id) {
                    held.push(resp);
                }
            }
        }
    }

    fn body_of(id: u64) -> Bytes {
        Bytes::from(id.to_le_bytes().repeat(1 + id as usize % 5))
    }

    #[test]
    fn held_responses_keep_their_bytes_while_frames_are_reused() {
        // Holding every third of 96 responses keeps 32 frames viewed, as
        // many as a frame stack keeps: the client must skip them and let
        // some go. Echo on both workers, then every connection on worker
        // 0 with a slow handler: the thief's responses ride in the
        // requests it stole, and travel home before reaching the client.
        let cfg = RuntimeConfig::zygos(2, 8);
        for steal in [false, true] {
            let app: Arc<dyn RpcApp> = if steal {
                Arc::new(spin_echo)
            } else {
                Arc::new(EchoApp)
            };
            let (server, client) = Server::start(cfg.clone(), app);
            let conns: Vec<ConnId> = (0..8)
                .map(ConnId)
                .filter(|&c| !steal || server.home_of(c) == 0)
                .collect();
            assert!(!conns.is_empty(), "RSS homes a connection on worker 0");
            let mut held = Vec::new();
            rpcs(&client, &conns, 0..96, |id| id.is_multiple_of(3), &mut held);
            assert_eq!(held.len(), 32);
            rpcs(&client, &conns, 96..160, |_| false, &mut Vec::new());
            for resp in &held {
                let id = resp.header.req_id;
                assert_eq!(resp.header.opcode, 1, "held response {id}");
                assert_eq!(resp.header.body_len as usize, resp.body.len());
                assert_eq!(
                    &resp.body[..],
                    &body_of(id)[..],
                    "held response {id} was rewritten"
                );
            }
            if steal {
                assert!(server.stats().stolen_events > 0, "worker 1 never stole");
            }
            server.shutdown();
        }
    }

    #[test]
    fn request_bodies_an_app_keeps_are_never_rewritten() {
        // The app keeps every third request body, a slice of the frame it
        // arrived in, over 12 × ring_capacity RPCs (64 kept, past what a
        // worker's frame stack holds): a frame the app still views must
        // not carry a later response or request.
        let cfg = RuntimeConfig {
            ring_capacity: 16,
            ..RuntimeConfig::zygos(2, 8)
        };
        let rpcs_n = 12 * cfg.ring_capacity as u64;
        let kept = Arc::new(SpinLock::new(Vec::new()));
        let keeper = {
            let kept = Arc::clone(&kept);
            move |_c: ConnId, req: &RpcMessage| {
                if req.header.req_id.is_multiple_of(3) {
                    kept.lock().push((req.header.req_id, req.body.clone()));
                }
                RpcMessage::new(1, req.header.req_id, req.body.clone())
            }
        };
        let (server, client) = Server::start(cfg, Arc::new(keeper));
        let conns: Vec<ConnId> = (0..8).map(ConnId).collect();
        rpcs(&client, &conns, 0..rpcs_n, |_| false, &mut Vec::new());
        server.shutdown();
        let kept = kept.lock();
        assert_eq!(kept.len() as u64, rpcs_n / 3);
        for (id, body) in kept.iter() {
            assert_eq!(
                &body[..],
                &body_of(*id)[..],
                "kept request {id} was rewritten"
            );
        }
    }

    #[test]
    fn thousands_of_requests_complete_exactly_once() {
        let (server, client) = echo_server(RuntimeConfig::zygos(4, 64));
        let n = 5_000u64;
        for id in 0..n {
            let conn = ConnId((id % 64) as u32);
            client.send(conn, &RpcMessage::new(1, id, Bytes::new()));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let (_, resp) = client
                .recv_timeout(Duration::from_secs(10))
                .expect("response");
            assert!(seen.insert(resp.header.req_id), "duplicate response");
        }
        assert_eq!(seen.len(), n as usize);
        server.shutdown();
    }

    #[test]
    fn per_connection_order_is_preserved_under_zygos() {
        // The §4.3 guarantee: pipelined requests on one socket answer in
        // order even with stealing enabled.
        let (server, client) = echo_server(RuntimeConfig::zygos(4, 16));
        let depth = 200u64;
        for conn in 0..16u32 {
            for seq in 0..depth {
                client.send(
                    ConnId(conn),
                    &RpcMessage::new(1, (conn as u64) << 32 | seq, Bytes::new()),
                );
            }
        }
        let mut next: HashMap<u32, u64> = HashMap::new();
        for _ in 0..(16 * depth) {
            let (conn, resp) = client.recv_timeout(Duration::from_secs(10)).expect("resp");
            let seq = resp.header.req_id & 0xFFFF_FFFF;
            let expect = next.entry(conn.0).or_insert(0);
            assert_eq!(seq, *expect, "conn {} out of order", conn.0);
            *expect += 1;
        }
        server.shutdown();
    }

    #[test]
    fn partitioned_mode_never_steals() {
        // Handlers slow enough to open the wake gate: with stealing off
        // nobody may be woken for queued work either.
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(20));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let (server, client) = Server::start(RuntimeConfig::partitioned(4, 32), Arc::new(slow));
        for id in 0..2_000u64 {
            client.send(
                ConnId((id % 32) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        for _ in 0..2_000 {
            client.recv_timeout(Duration::from_secs(10)).expect("resp");
        }
        let stats = server.stats();
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.wakes_sent, 0);
        assert_eq!(stats.stolen_events, 0);
        assert_eq!(stats.local_events, 2_000);
        server.shutdown();
    }

    #[test]
    fn stealing_happens_when_one_core_is_loaded() {
        // All connections homed wherever RSS puts them; a burst on one
        // connection's core gives other cores steal opportunities when
        // handlers are slow. Use a handler with a real delay.
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(200));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let (server, client) = Server::start(RuntimeConfig::zygos(4, 64), Arc::new(slow));
        for id in 0..400u64 {
            client.send(
                ConnId((id % 64) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        for _ in 0..400 {
            client.recv_timeout(Duration::from_secs(30)).expect("resp");
        }
        let stats = server.stats();
        assert!(
            stats.steals > 0,
            "expected steals under load imbalance: {stats:?}"
        );
        server.shutdown();
    }

    #[test]
    fn parked_workers_are_woken_to_steal_from_one_loaded_core() {
        // Every connection in use is homed on worker 0 and the handler
        // sleeps, so the three other workers are parked unless something
        // wakes them: they must do most of the work, and stealing must
        // keep exactly-once and per-connection order (§4.3).
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(300));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let (server, client) = Server::start(RuntimeConfig::zygos(4, 128), Arc::new(slow));
        let conns: Vec<ConnId> = (0..128)
            .map(ConnId)
            .filter(|&c| server.home_of(c) == 0)
            .take(12)
            .collect();
        assert_eq!(conns.len(), 12, "RSS homes enough connections on worker 0");
        let (waves, depth) = (8, 5u64);
        let mut next: HashMap<u32, u64> = HashMap::new();
        let mut sent: HashMap<u32, u64> = HashMap::new();
        let parks_of = |c: usize| server.shared.stats[c].parks.load(Ordering::Relaxed);
        for _ in 0..waves {
            // Each thief has parked since the last wave drained, so this
            // one lands while they sleep. From the second wave on, worker
            // 0's handler-time average is above the wake cost (it starts
            // at zero, and a worker whose handlers are cheaper than a
            // wake-up wakes nobody): its first dequeue that leaves
            // connections queued behind it wakes a thief, unless every
            // thief is between naps just then.
            let drained: Vec<u64> = (1..4).map(parks_of).collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while (1..4).any(|c| parks_of(c) <= drained[c - 1]) {
                assert!(Instant::now() < deadline, "the thieves never went idle");
                std::thread::yield_now();
            }
            for _ in 0..depth {
                for &conn in &conns {
                    let seq = sent.entry(conn.0).or_insert(0);
                    client.send(
                        conn,
                        &RpcMessage::new(1, (conn.0 as u64) << 32 | *seq, Bytes::new()),
                    );
                    *seq += 1;
                }
            }
            for _ in 0..conns.len() as u64 * depth {
                let (conn, resp) = client.recv_timeout(Duration::from_secs(30)).expect("resp");
                assert_eq!(resp.header.req_id >> 32, conn.0 as u64);
                let expect = next.entry(conn.0).or_insert(0);
                assert_eq!(
                    resp.header.req_id & 0xFFFF_FFFF,
                    *expect,
                    "conn {} out of order or answered twice",
                    conn.0
                );
                *expect += 1;
            }
        }
        assert!(client.recv_timeout(Duration::from_millis(20)).is_none());
        let stats = server.stats();
        assert_eq!(stats.total_events(), waves * conns.len() as u64 * depth);
        assert!(
            stats.stolen_events > stats.local_events,
            "three thieves against one home core: {stats:?}"
        );
        assert!(stats.wakes_sent > 0, "sleepers were woken: {stats:?}");
        server.shutdown();
    }

    #[test]
    fn revoked_elastic_workers_are_never_woken_to_steal() {
        let (server, _client) = echo_server(RuntimeConfig::elastic(4, 8));
        // Idle, the controller revokes down to its floor of two workers.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.active_cores() != Some(2) {
            assert!(Instant::now() < deadline, "never revoked to the floor");
            std::thread::sleep(Duration::from_millis(2));
        }
        let shared = &server.shared;
        // Worker 3 as if revoked while asleep in the set: a producer whose
        // handlers are well past the wake gate must leave it alone.
        shared.sleepers.publish(3);
        let mut waker = Worker::new(0, shared);
        waker.exec_ns = 10 * WAKE_COST_NS;
        for _ in 0..8 {
            waker.wake_one_sleeper(shared);
        }
        assert_eq!(shared.doorbells[3].wake_count(), 0);
        assert_eq!(shared.doorbells[2].wake_count(), 0);
        shared.sleepers.cancel(3);
        server.shutdown();
    }

    #[test]
    fn idle_workers_still_park() {
        // The pre-park poll must end: without traffic every worker parks
        // about once per IDLE_NAP, and a poll that never gives up parks
        // none.
        let (server, _client) = echo_server(RuntimeConfig::zygos(2, 64));
        std::thread::sleep(Duration::from_millis(100));
        for (core, stats) in server.shared.stats.iter().enumerate() {
            let parks = stats.parks.load(Ordering::Relaxed);
            assert!(parks >= 10, "worker {core} parked {parks} times in 100 ms");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (server, _client) = echo_server(RuntimeConfig::zygos(2, 4));
        server.shutdown();
    }

    #[test]
    fn elastic_mode_completes_everything_exactly_once() {
        let (server, client) = echo_server(RuntimeConfig::elastic(4, 32));
        assert_eq!(server.active_cores(), Some(4), "starts fully granted");
        let n = 3_000u64;
        for id in 0..n {
            client.send(
                ConnId((id % 32) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let (_, resp) = client.recv_timeout(Duration::from_secs(10)).expect("resp");
            assert!(seen.insert(resp.header.req_id), "duplicate response");
        }
        let granted = server.active_cores().expect("elastic gauge");
        assert!((1..=4).contains(&granted));
        server.shutdown();
    }

    #[test]
    fn elastic_mode_preserves_per_connection_order() {
        // The cooperative quantum (here: 1 event per dequeue, the most
        // yield-happy setting) must not break the §4.3 ordering guarantee.
        let cfg = RuntimeConfig {
            conn_batch: 1,
            ..RuntimeConfig::elastic(4, 8)
        };
        let (server, client) = echo_server(cfg);
        let depth = 200u64;
        for conn in 0..8u32 {
            for seq in 0..depth {
                client.send(
                    ConnId(conn),
                    &RpcMessage::new(1, (conn as u64) << 32 | seq, Bytes::new()),
                );
            }
        }
        let mut next: HashMap<u32, u64> = HashMap::new();
        for _ in 0..(8 * depth) {
            let (conn, resp) = client.recv_timeout(Duration::from_secs(10)).expect("resp");
            let seq = resp.header.req_id & 0xFFFF_FFFF;
            let expect = next.entry(conn.0).or_insert(0);
            assert_eq!(seq, *expect, "conn {} out of order", conn.0);
            *expect += 1;
        }
        server.shutdown();
    }

    #[test]
    fn stolen_batches_keep_per_connection_order() {
        // The non-elastic twin of the test above, shaped like the
        // benchmark's live-steal: every connection is homed on worker 0,
        // so the others work only by stealing and their responses reach
        // the wire through worker 0's remote syscalls, while worker 0
        // transmits its own executions eagerly (§4.3, §6.2).
        // One event per dequeue and two deep connections: a thief's
        // batch is most often followed by a home batch of the same
        // connection.
        let (server, client) = echo_server(RuntimeConfig {
            conn_batch: 1,
            ..RuntimeConfig::zygos(4, 128)
        });
        let conns: Vec<ConnId> = (0..128)
            .map(ConnId)
            .filter(|&c| server.home_of(c) == 0)
            .take(2)
            .collect();
        assert_eq!(conns.len(), 2, "RSS homes enough connections on worker 0");
        let depth = 5_000u64;
        for seq in 0..depth {
            for &conn in &conns {
                client.send(
                    conn,
                    &RpcMessage::new(1, (conn.0 as u64) << 32 | seq, Bytes::new()),
                );
            }
        }
        let mut next: HashMap<u32, u64> = HashMap::new();
        for _ in 0..conns.len() as u64 * depth {
            let (conn, resp) = client.recv_timeout(Duration::from_secs(10)).expect("resp");
            let expect = next.entry(conn.0).or_insert(0);
            assert_eq!(
                resp.header.req_id & 0xFFFF_FFFF,
                *expect,
                "conn {} out of order",
                conn.0
            );
            *expect += 1;
        }
        assert!(server.stats().stolen_events > 0, "the other workers stole");
        server.shutdown();
    }

    #[test]
    fn non_elastic_modes_have_no_core_gauge() {
        let (server, _client) = echo_server(RuntimeConfig::zygos(2, 4));
        assert_eq!(server.active_cores(), None);
        assert_eq!(server.admission_stats(), None);
        server.shutdown();
    }

    #[test]
    fn slo_signal_measures_sojourns_and_publishes_a_ratio() {
        use zygos_load::slo::{Slo, TenantSlos};
        // A handler much slower than the 50µs bound: once enough sojourns
        // land in a window, the published ratio must be well above 1.
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(500));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let cfg = RuntimeConfig::zygos(2, 8).with_slo(TenantSlos::uniform(Slo::p99(50.0)));
        let (server, client) = Server::start(cfg, Arc::new(slow));
        assert_eq!(server.slo_ratio(), None, "no window harvested yet");
        for id in 0..64u64 {
            client.send(
                ConnId((id % 8) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        for _ in 0..64 {
            client.recv_timeout(Duration::from_secs(10)).expect("resp");
        }
        // Worker 0 harvests on its next loop iterations; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let ratio = loop {
            if let Some(r) = server.slo_ratio() {
                break r;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ratio never published"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(ratio > 1.0, "500µs sojourns against a 50µs bound: {ratio}");
        server.shutdown();
    }

    #[test]
    fn slo_signal_carries_thin_classes_until_they_can_be_judged() {
        use zygos_load::slo::{Slo, SloClass, TenantSlos, MIN_WINDOW_SAMPLES};
        let slos = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]);
        let sig = SloSignal::new(ControlWindow::new(Some(&slos)), 2);
        // One sample short of a judgement, spread over both cores' buffers
        // and two harvests: the batch class is carried, never judged.
        for i in 0..MIN_WINDOW_SAMPLES - 1 {
            sig.record(i % 2, 1, 500_000);
            if i == 2 {
                assert_eq!(sig.harvest(), WindowSignals::default());
            }
        }
        assert_eq!(sig.harvest().slo_ratio, None, "still thin");
        assert!(f64::from_bits(sig.ratio_gauge.load(Ordering::Acquire)).is_nan());
        sig.record(0, 1, 500_000);
        let r = sig
            .harvest()
            .slo_ratio
            .expect("judged at the eighth sample");
        assert!((r - 0.5).abs() < 0.01, "500 µs against 1000 µs: {r}");
        // The judged class starts the next tick empty: seven more samples
        // are thin again, and the gauge holds the last judgement.
        for _ in 0..MIN_WINDOW_SAMPLES - 1 {
            sig.record(1, 1, 500_000);
        }
        assert_eq!(sig.harvest().slo_ratio, None);
        assert_eq!(sig.ratio_gauge.load(Ordering::Acquire), r.to_bits());
    }

    #[test]
    fn credit_aimd_without_slo_classes_steers_the_window_p99() {
        // Admission without SLO classes: `CreditConfig::target` is a
        // latency in µs, as on the simulator's edge. 300 µs sojourns are
        // far past a 50 µs target and far inside a one-second one.
        let min_capacity = |target: f64| {
            let slow = |_c: ConnId, req: &RpcMessage| {
                std::thread::sleep(Duration::from_micros(300));
                RpcMessage::new(0, req.header.req_id, Bytes::new())
            };
            let cfg = RuntimeConfig::zygos(2, 16).with_admission(CreditConfig {
                min_credits: 2,
                max_credits: 256,
                initial_credits: 16,
                additive: 1,
                md_factor: 0.3,
                target,
            });
            let (server, client) = Server::start(cfg, Arc::new(slow));
            // Four requests a millisecond: about two thirds of what two
            // workers serve, so the queues stay short.
            let n = 400u64;
            for id in 0..n {
                client.send(
                    ConnId((id % 16) as u32),
                    &RpcMessage::new(1, id, Bytes::new()),
                );
                if id % 4 == 3 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            for _ in 0..n {
                client
                    .recv_timeout(Duration::from_secs(30))
                    .expect("every request answered");
            }
            let series = server.metric_series("credit_capacity").expect("armed");
            server.shutdown();
            series
                .points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::MAX, f64::min)
        };
        let tight = min_capacity(50.0);
        assert!(tight < 16.0, "a 50 µs target must shrink the pool: {tight}");
        let loose = min_capacity(1e6);
        assert!(loose >= 16.0, "a 1 s target must not shrink it: {loose}");
    }

    #[test]
    fn client_credits_gate_sending_and_replenish_from_grants() {
        use zygos_sched::CreditConfig;
        let cfg = RuntimeConfig::zygos(2, 4)
            .with_admission(CreditConfig {
                min_credits: 4,
                max_credits: 64,
                initial_credits: 8,
                additive: 1,
                md_factor: 0.3,
                target: 1000.0,
            })
            .with_client_credits();
        let (server, client) = echo_server(cfg);
        let conn = ConnId(1);
        let start = client.credit_balance(conn).expect("credit state armed");
        assert!(start >= 1, "every connection starts with a credit");
        // Spend the whole balance without receiving.
        for id in 0..start as u64 {
            assert!(client.try_send(conn, &RpcMessage::new(1, id, Bytes::new())));
        }
        assert_eq!(client.credit_balance(conn), Some(0));
        assert!(
            !client.try_send(conn, &RpcMessage::new(1, 999, Bytes::new())),
            "zero balance must refuse locally"
        );
        assert_eq!(client.local_sheds(), 1);
        // Responses carry grants (an idle pool grants 2): the balance
        // recovers and sending resumes.
        for _ in 0..start {
            client.recv_timeout(Duration::from_secs(10)).expect("resp");
        }
        let refilled = client.credit_balance(conn).expect("armed");
        assert!(refilled >= start, "grants must at least return the spend");
        assert!(client.try_send(conn, &RpcMessage::new(1, 1000, Bytes::new())));
        client.recv_timeout(Duration::from_secs(10)).expect("resp");
        server.shutdown();
    }

    #[test]
    fn weighted_shedding_rejects_the_loose_class_harder() {
        use zygos_load::slo::{Slo, SloClass, TenantSlos};
        // Two classes (even conns strict, odd conns loose), a fixed
        // 8-credit pool, slow handlers, and a big synchronous burst: the
        // loose class (capped at half the pool) must shed a
        // larger share. Three of four requests are loose, so without the
        // cap it would hold about six of the eight credits; with it, at
        // most four. (With an even mix the cap rarely binds and the two
        // shares differ by chance alone.)
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(100));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let slos = TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(200.0)),
            SloClass::new("batch", Slo::p99(2000.0)),
        ]);
        let cfg = RuntimeConfig::zygos(2, 16)
            .with_admission(CreditConfig {
                min_credits: 8,
                max_credits: 8,
                initial_credits: 8,
                additive: 1,
                md_factor: 0.3,
                target: 1.0,
            })
            .with_slo(slos);
        let (server, client) = Server::start(cfg, Arc::new(slow));
        let n = 4_000u64;
        let mut sent = [0u64; 2];
        for id in 0..n {
            let loose = id % 4 != 0;
            sent[loose as usize] += 1;
            client.send(
                ConnId(2 * (id / 4 % 8) as u32 + loose as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        let mut shed = [0u64; 2];
        let mut served = [0u64; 2];
        for _ in 0..n {
            let (conn, resp) = client
                .recv_timeout(Duration::from_secs(30))
                .expect("every request answered");
            let class = (conn.0 % 2) as usize;
            if resp.header.opcode == REJECT_OPCODE {
                shed[class] += 1;
            } else {
                served[class] += 1;
            }
        }
        assert_eq!(shed[0] + shed[1] + served[0] + served[1], n);
        assert!(shed[1] > 0, "overload must shed the loose class");
        // Shed shares, compared without division: loose/sent > strict/sent.
        assert!(
            shed[1] * sent[0] > shed[0] * sent[1],
            "loose class must shed a larger share: strict {}/{} vs loose {}/{}",
            shed[0],
            sent[0],
            shed[1],
            sent[1]
        );
        server.shutdown();
    }

    #[test]
    fn credit_gate_sheds_with_explicit_rejects_and_never_hangs() {
        // A tiny fixed pool (min == max == 8) against a 2000-request burst
        // of slow handlers: most requests must be shed with REJECT_OPCODE
        // replies, every admitted one must complete, and every request
        // must be answered one way or the other.
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(50));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let cfg = RuntimeConfig::zygos(2, 16).with_admission(CreditConfig {
            min_credits: 8,
            max_credits: 8,
            initial_credits: 8,
            additive: 1,
            md_factor: 0.3,
            target: 1.0,
        });
        let (server, client) = Server::start(cfg, Arc::new(slow));
        let n = 2_000u64;
        for id in 0..n {
            client.send(
                ConnId((id % 16) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        let mut served = 0u64;
        let mut shed = 0u64;
        for _ in 0..n {
            let (_, resp) = client
                .recv_timeout(Duration::from_secs(30))
                .expect("every request gets an answer");
            if resp.header.opcode == REJECT_OPCODE {
                shed += 1;
            } else {
                served += 1;
            }
        }
        assert_eq!(served + shed, n);
        assert!(shed > 0, "an 8-credit pool must shed under a 2000 burst");
        assert!(served > 0, "the gate must keep admitting as credits return");
        let (admitted, rejected, capacity) = server.admission_stats().expect("gate on");
        assert_eq!(admitted, served);
        assert_eq!(rejected, shed);
        assert_eq!(capacity, 8);
        server.shutdown();
    }
}
