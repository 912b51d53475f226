//! The client edge every simulated server sits behind, and the one world
//! that composes the two.
//!
//! The paper measures Linux, IX and ZygOS behind one open-loop client
//! (§6). This module is that client, written once: the arrival
//! [`Source`], the completion [`Recorder`], the Breakwater-style credit
//! gate, the closed retry/timeout loop, the control tick's latency
//! windows and time-series harvest, and the lifecycle tracer. A server
//! model implements [`Server`] and sees only admitted request packets and
//! its own events; it reports each response through [`Cx::complete`].
//! [`World`] composes an [`Edge`] with a server into the engine's
//! [`Model`], and [`start`] / [`finish`] are the one engine setup every
//! entry point (`run_system`, warm starts, RESTART) shares. Every world
//! clones, so every server can be checkpointed, warm-started
//! ([`run_kept`], [`resume`]) and traced.
//!
//! # Admission control
//!
//! With [`SysConfig::admission`] set, arrivals pass a Breakwater-style
//! [`CreditPool`]: no credit → the request is shed before it costs any
//! processing, and an AIMD loop on the `Control` tick resizes the pool
//! from the window tail (per tenant class against
//! [`zygos_load::slo::TenantSlos::aimd_targets_us`] when [`SysConfig::slo`]
//! is set, shedding the loosest class first). [`AdmissionMode`] picks
//! where the shed happens: at the server edge, burning a wire RTT, or at
//! the client, where the simulator models the converged state of
//! Breakwater's credit distribution by consulting the shared pool at
//! send time.
//!
//! A credit is returned when the server reports the response. ZygOS and
//! Linux report at transmit and finish; the staged engine (IX included)
//! reports at application dispatch with the transmit time as `tx`, so on
//! those hosts admitted requests in flight can exceed the pool by at most
//! the number of application cores.
//!
//! # Stop rule
//!
//! A run stops on the event whose completion reached the recorder's
//! target, leaving the event queue intact. That is what makes a post-run
//! checkpoint resumable without re-arming anything.

use std::collections::VecDeque;

use zygos_load::retry::RetryDecision;
use zygos_load::route::conn_key;
use zygos_load::slo::ControlWindow;
use zygos_sched::CreditPool;
use zygos_sim::engine::{Engine, Model, Scheduler};
use zygos_sim::time::{SimDuration, SimTime};
use zygos_telemetry::{Registry, SeriesId, SeriesKind, TelemetryOut, TraceKind, Tracer};

use crate::arrivals::{Recorder, Req, Source};
use crate::config::{AdmissionMode, SysConfig, SysOutput};

/// The world's event alphabet: the client edge's events plus the server's
/// own, wrapped.
#[derive(Clone)]
pub(crate) enum Ev<E> {
    /// Generate the next client request.
    Gen,
    /// A request packet reaches the server; the `u32` is which
    /// transmission attempt this is (0 = the original send, >0 = a retry
    /// re-issue fed back by the retry policy).
    Packet(Req, u32),
    /// The retry policy's backoff delay expired and the client has work to
    /// do at re-issue time: a client-side credit check, or a client timeout
    /// to arm ([`Edge::reissue_acts`]). The client re-issues the request
    /// (attempt number carried) through the same path the original took.
    /// Without either, no `Retry` is scheduled: the re-sent
    /// [`Ev::Packet`] is scheduled straight from the shed, at the same
    /// time this hop would have sent it.
    Retry { req: Req, attempt: u32 },
    /// The client's per-request timeout fired for this attempt; stale
    /// (and ignored) unless the attempt is still the live one.
    Timeout { req: Req, attempt: u32 },
    /// Control-plane tick, every [`CONTROL_PERIOD_US`]: credit AIMD, the
    /// server's control hook, and the series harvest.
    Control,
    /// One of the server model's own events.
    Server(E),
}

/// The control tick's period in µs ([`Ev::Control`]).
const CONTROL_PERIOD_US: f64 = 25.0;

/// A simulated server behind the client edge. `Clone` is the checkpoint:
/// a cloned world resumes bit-identically.
pub(crate) trait Server: Clone {
    /// The server's own event alphabet.
    type Event: Clone;

    /// An admitted request packet reaches the server.
    fn packet(&mut self, req: Req, cx: &mut Cx<Self::Event>);

    /// Handles one of the server's own events.
    fn handle(&mut self, ev: Self::Event, cx: &mut Cx<Self::Event>);

    /// Called before every event with the edge's state; the elastic
    /// model snapshots its core-seconds meter here when the measurement
    /// window opens.
    #[inline]
    fn before_event(&mut self, _now: SimTime, _edge: &Edge) {}

    /// True when the server has a control plane of its own that needs the
    /// periodic tick (the elastic allocator).
    fn has_control_plane(&self) -> bool {
        false
    }

    /// The control hook, run on each tick between the credit AIMD update
    /// and the series harvest. `slo_ratio` is the window's worst
    /// p99-vs-SLO ratio (`None` without tenant SLOs or with too few
    /// samples).
    fn control(&mut self, _slo_ratio: Option<f64>, _cx: &mut Cx<Self::Event>) {}

    /// Granted cores, for the `active_cores` series.
    fn active_cores(&self) -> usize;

    /// Total queued requests — the importance-splitting level function.
    fn backlog(&self) -> usize;

    /// Forks the server's own random streams onto substream `stream`
    /// (importance-splitting clones).
    fn fork_streams(&mut self, _stream: u64) {}

    /// Rewinds the server's window statistics for a warm-started run of
    /// `cfg` (see [`resume`]); queues and cores carry over.
    fn retarget(&mut self, cfg: &SysConfig);

    /// The server's fields of the run's output, at the run's final time.
    fn stats(self, end: SimTime) -> ServerStats;
}

/// What a server adds to the run's [`SysOutput`]; the edge fills in every
/// other field.
#[derive(Default)]
pub(crate) struct ServerStats {
    pub local_events: u64,
    pub stolen_events: u64,
    pub ipis: u64,
    pub preemptions: u64,
    pub avg_active_cores: f64,
    pub stage_counts: Vec<u64>,
    pub stage_p99_wait_us: Vec<f64>,
}

/// What a server sees while it handles an event: the scheduler, through
/// which it schedules its own events, and the client edge it reports
/// completions and trace points to.
pub(crate) struct Cx<'a, 's, E> {
    sched: &'a mut Scheduler<'s, Ev<E>>,
    /// The client edge.
    pub edge: &'a mut Edge,
}

impl<E> Cx<'_, '_, E> {
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Schedules a server event at absolute time `t`.
    #[inline]
    pub fn at(&mut self, t: SimTime, ev: E) {
        self.sched.at(t, Ev::Server(ev));
    }

    /// Schedules a server event after `d`.
    #[inline]
    pub fn after(&mut self, d: SimDuration, ev: E) {
        self.sched.after(d, Ev::Server(ev));
    }
}

/// The telemetry plane: the per-core lifecycle tracer plus the metrics
/// registry the control tick harvests time-series into.
struct SimTelemetry {
    /// Per-core ring tracer; `trace_on == false` leaves it empty (the
    /// config asked only for series).
    tracer: Tracer,
    trace_on: bool,
    /// Named series store, harvested on the control tick.
    reg: Registry,
    /// Each requested series with its class (per-class kinds register one
    /// series per class) and registry id.
    series: Vec<(SeriesKind, usize, SeriesId)>,
    /// Record a series point every N control ticks.
    series_every: u32,
    tick: u32,
    /// Counter snapshots at the previous harvested tick, for rates.
    last_admitted: u64,
    last_rejected: Vec<u64>,
    last_retries: u64,
    last_t_ns: u64,
    /// The most recent control-tick window tail (µs), stashed before the
    /// window is cleared so the harvest can publish it (NaN when the
    /// window had too few samples).
    last_window_tail: f64,
}

impl SimTelemetry {
    fn new(cfg: &SysConfig, t: &zygos_telemetry::TelemetryConfig, classes: usize) -> Self {
        // Ring capacity: ≤ 8 points per completed lifecycle plus preempt
        // slices, and two per *shed* arrival (Arrival, Shed): 16 per
        // completion covers sheds up to ~4x the completions. A wrapped ring
        // tears the oldest lifecycles and skews trace-derived quantiles, so
        // size it to hold the full run.
        let lifecycles = (cfg.requests + cfg.warmup) / t.sample_period.max(1) as u64 + 1;
        let per_core = (lifecycles as usize * 16 / cfg.cores.max(1)).clamp(4_096, 1 << 21);
        let mut reg = Registry::default();
        let mut series = Vec::new();
        for &kind in &t.series {
            let per_class = kind == SeriesKind::ShedByClass;
            for c in 0..if per_class { classes } else { 1 } {
                let name = match per_class {
                    true => format!("{}{c}", kind.name()),
                    false => kind.name().to_string(),
                };
                series.push((kind, c, reg.register_series(&name, t.max_series_points)));
            }
        }
        SimTelemetry {
            tracer: Tracer::new(cfg.cores, per_core, t.sample_period),
            trace_on: t.trace,
            reg,
            series,
            series_every: t.series_every.max(1),
            tick: 0,
            last_admitted: 0,
            last_rejected: vec![0; classes],
            last_retries: 0,
            last_t_ns: 0,
            last_window_tail: f64::NAN,
        }
    }
}

/// The telemetry plane as world state (`None`, the default, costs each hook
/// one untaken branch). Its clone is an empty plane: telemetry is a pure
/// observer, so a checkpoint drops it without perturbing the trajectory and
/// never copies a multi-megabyte trace ring.
struct Observer(Option<SimTelemetry>);

impl Clone for Observer {
    fn clone(&self) -> Self {
        Observer(None)
    }
}

/// The client edge: one open-loop client population, its credit gate,
/// its retry loop and the measurement planes.
#[derive(Clone)]
pub(crate) struct Edge {
    /// The configuration this edge was built (or last retargeted) with.
    pub cfg: SysConfig,
    /// The open-loop request source (RSS homes, workload RNG).
    pub source: Source,
    /// The completion recorder (measurement window, stop target).
    pub rec: Recorder,
    telem: Observer,
    /// Credit-based admission gate.
    admission: Option<CreditPool>,
    /// Sheds per tenant class.
    rejected_by_class: Vec<u64>,
    /// Admissions per tenant class.
    admitted_by_class: Vec<u64>,
    /// Sheds that burned wire RTT (server-edge rejects).
    wire_rejects: u64,
    /// The closed-loop retry plane (all dormant when [`SysConfig::retry`]
    /// is `None`, which keeps the open-loop engine bit-identical): retry
    /// re-issues scheduled, logical requests abandoned, and client-timeout
    /// expiries.
    retries: u64,
    give_ups: u64,
    timeouts_fired: u64,
    /// Live attempt number per in-flight request, maintained only when a
    /// client timeout is armed. World state (clones and warm-retargets
    /// carry it), untouched when timeouts are off.
    retry_live: LiveAttempts,
    /// Precomputed `retry_timeout_us` (`None` = timeouts off).
    timeout_dur: Option<SimDuration>,
    /// The current control tick's latency window, per tenant class; `None`
    /// when no controller or series reads it. Its class table also holds
    /// the weighted-fair admit fractions and the credit targets.
    window: Option<ControlWindow>,
}

fn timeout_of(cfg: &SysConfig) -> Option<SimDuration> {
    match (cfg.retry, cfg.retry_timeout_us) {
        (Some(_), Some(t)) if t > 0.0 => Some(SimDuration::from_micros_f64(t)),
        _ => None,
    }
}

/// The live attempt of each request whose client timeout is armed, indexed
/// by [`Req::seq`] (a dense counter). A `Timeout` event is stale — its
/// attempt was superseded or the logical request completed — unless its
/// attempt is the one stored here. The table spans only the live seqs:
/// empty slots at either end are dropped as they form, so a checkpoint
/// clone copies the in-flight window, not the run's history.
#[derive(Clone, Default)]
struct LiveAttempts {
    /// The seq of `slots[0]`.
    base: u32,
    /// `attempt + 1` per seq from `base` on; 0 = no live attempt.
    slots: VecDeque<u32>,
}

impl LiveAttempts {
    fn get(&self, seq: u32) -> Option<u32> {
        let i = seq.checked_sub(self.base)?;
        self.slots.get(i as usize)?.checked_sub(1)
    }

    fn insert(&mut self, seq: u32, attempt: u32) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        // A request re-armed after its slot was trimmed off the front.
        while seq < self.base {
            self.slots.push_front(0);
            self.base -= 1;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        self.slots[i] = attempt + 1;
    }

    fn remove(&mut self, seq: u32) {
        let Some(i) = seq.checked_sub(self.base) else {
            return;
        };
        let Some(slot) = self.slots.get_mut(i as usize) else {
            return;
        };
        *slot = 0;
        while self.slots.front() == Some(&0) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back() == Some(&0) {
            self.slots.pop_back();
        }
    }
}

impl Edge {
    pub(crate) fn new(cfg: &SysConfig) -> Self {
        let source = Source::new(cfg);
        let rec = Recorder::new(cfg, source.half_rtt);
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
        let telem = cfg.telemetry.as_ref().filter(|t| !t.is_off());
        Edge {
            telem: Observer(telem.map(|t| SimTelemetry::new(cfg, t, classes))),
            source,
            rec,
            admission,
            rejected_by_class: vec![0; classes],
            admitted_by_class: vec![0; classes],
            wire_rejects: 0,
            retries: 0,
            give_ups: 0,
            timeouts_fired: 0,
            retry_live: LiveAttempts::default(),
            timeout_dur: timeout_of(cfg),
            // The window buckets are ~¼MB per class: only materialized
            // when a controller actually harvests them.
            window: collect_window.then(|| ControlWindow::new(cfg.slo.as_ref())),
            cfg: cfg.clone(),
        }
    }

    /// True when lifecycle points are being recorded at all.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.telem.0.as_ref().is_some_and(|t| t.trace_on)
    }

    /// Records one lifecycle trace point (one untaken branch when
    /// telemetry is off or tracing was not requested).
    #[inline]
    pub(crate) fn trace(&mut self, core: u16, seq: u32, kind: TraceKind, t: SimTime) {
        if let Some(tl) = &mut self.telem.0 {
            if tl.trace_on {
                tl.tracer.record(core, seq, kind, t.as_nanos());
            }
        }
    }

    /// True when the periodic `Control` tick must be armed for a server
    /// with (`server_ctl`) or without a control plane of its own: the
    /// credit gate, or time-series to harvest (the harvest rides the same
    /// tick, so telemetry alone arms it).
    fn wants_control_tick(&self, server_ctl: bool) -> bool {
        server_ctl
            || self.admission.is_some()
            || self.telem.0.as_ref().is_some_and(|t| !t.series.is_empty())
    }

    /// Records a completed request: recorder, credit return, and the
    /// control window's per-class latency sample.
    pub(crate) fn complete(&mut self, req: &Req, tx_time: SimTime) {
        if self.timeout_dur.is_some() {
            // The logical request is answered (by whichever attempt got
            // here first): any pending timeout for it becomes stale.
            self.retry_live.remove(req.seq);
        }
        let client_rx = tx_time + self.source.half_rtt;
        if self.rec.complete(req, tx_time) {
            // Trace exactly the histogram's population, timestamped at the
            // client's observation (send → client_rx = the recorded
            // latency), so trace-derived tails match the report's.
            self.trace(req.home, req.seq, TraceKind::Completion, client_rx);
        }
        let class = self.cfg.slo.as_ref().map_or(0, |t| t.class_of(req.conn));
        if let Some(pool) = &mut self.admission {
            pool.release_class(class);
        }
        if let Some(w) = &mut self.window {
            w.record_nanos(class, client_rx.duration_since(req.send).as_nanos());
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
        let window = self.window.as_ref().expect("armed with admission");
        let class = window.class_of(conn);
        if pool.try_admit_weighted(class, window.admit_fractions()[class]) {
            self.admitted_by_class[class] += 1;
            true
        } else {
            self.rejected_by_class[class] += 1;
            false
        }
    }

    /// Generates the next client request and schedules the one after it.
    fn gen<E>(&mut self, now: SimTime, sched: &mut Scheduler<Ev<E>>) {
        let req = self.source.next_req(now);
        self.trace(req.home, req.seq, TraceKind::Arrival, now);
        // Client-side credits: a creditless request is never sent — the
        // shed costs zero wire RTT (the sender-side half of Breakwater,
        // modelled at its converged state). A shed feeds the retry policy
        // (a no-op without one).
        self.issue(req, 0, now, sched);
        let gap = self.source.next_gap();
        sched.after(gap, Ev::Gen);
    }

    /// True when [`Edge::issue`] acts at re-issue time: it checks a
    /// client-side credit or arms a client timeout. Otherwise a re-issue
    /// only forwards the packet, so [`Edge::feed_retry`] schedules the
    /// packet itself and skips the [`Ev::Retry`] hop.
    fn reissue_acts(&self) -> bool {
        self.timeout_dur.is_some()
            || (self.cfg.admission_mode != AdmissionMode::ServerEdge && self.admission.is_some())
    }

    /// Issues (or re-issues) `req` as transmission `attempt`: the same
    /// client-side gating the original send went through, plus timeout
    /// arming. A client-side shed feeds straight back into the policy.
    fn issue<E>(&mut self, req: Req, attempt: u32, now: SimTime, sched: &mut Scheduler<Ev<E>>) {
        let client_gated = self.cfg.admission_mode != AdmissionMode::ServerEdge;
        if !client_gated || self.gate_admit(req.conn) {
            if client_gated && self.admission.is_some() {
                self.trace(req.home, req.seq, TraceKind::Admit, now);
            }
            if let Some(t) = self.timeout_dur {
                // The table entry makes this the request's *live* attempt;
                // any older `Timeout` still in the queue is thereby stale.
                self.retry_live.insert(req.seq, attempt);
                sched.at(now + t, Ev::Timeout { req, attempt });
            }
            sched.after(self.source.half_rtt, Ev::Packet(req, attempt));
        } else {
            self.trace(req.home, req.seq, TraceKind::Shed, now);
            self.feed_retry(req, attempt, now, SimDuration::ZERO, sched);
        }
    }

    /// The client's timeout for `attempt` of `req` fired.
    fn timeout<E>(&mut self, req: Req, attempt: u32, now: SimTime, sched: &mut Scheduler<Ev<E>>) {
        // Stale unless this attempt is still the live one (it was neither
        // completed nor superseded by a later re-issue).
        if self.retry_live.get(req.seq) != Some(attempt) {
            return;
        }
        self.retry_live.remove(req.seq);
        self.timeouts_fired += 1;
        // The abandoned attempt is *not* recalled from the server: whatever
        // work it queued still runs to completion — the wasted service
        // that lets timeout-retry loops sustain overload after the
        // triggering burst ends.
        self.feed_retry(req, attempt, now, SimDuration::ZERO, sched);
    }

    /// The server-edge gate on an arriving packet. `true` when the packet
    /// is admitted to the server.
    fn admit_packet<E>(
        &mut self,
        req: Req,
        attempt: u32,
        now: SimTime,
        sched: &mut Scheduler<Ev<E>>,
    ) -> bool {
        if self.cfg.admission_mode != AdmissionMode::ServerEdge {
            return true;
        }
        // Server-edge credits: the shed request already burned half an RTT
        // getting here, and its explicit reject burns the other half going
        // back — but it never touches a ring, a queue, or a core.
        if !self.gate_admit(req.conn) {
            self.wire_rejects += 1;
            self.trace(req.home, req.seq, TraceKind::Shed, now);
            // The reject travels back before the client can react: it
            // learns half an RTT from now, and the superseded attempt's
            // timeout must not also fire.
            if self.timeout_dur.is_some() && self.retry_live.get(req.seq) == Some(attempt) {
                self.retry_live.remove(req.seq);
            }
            self.feed_retry(req, attempt, now, self.source.half_rtt, sched);
            return false;
        }
        if self.admission.is_some() {
            self.trace(req.home, req.seq, TraceKind::Admit, now);
        }
        true
    }

    /// Feeds one shed or timed-out attempt to the retry policy — the
    /// closed loop's single entry point. `notify_delay` is how long the
    /// *client* takes to learn of the failure (zero for a local shed or
    /// timeout, half an RTT for a server-edge reject); the re-issue, if
    /// any, fires `notify_delay + backoff` from `now` and re-enters the
    /// full admission path via [`Ev::Retry`], or, when the client has
    /// nothing to do then ([`Edge::reissue_acts`]), reaches the server as
    /// an [`Ev::Packet`] half an RTT after that. Does nothing (and touches
    /// no counter) when no policy is armed, keeping the open-loop world
    /// bit-identical.
    fn feed_retry<E>(
        &mut self,
        req: Req,
        attempt: u32,
        now: SimTime,
        notify_delay: SimDuration,
        sched: &mut Scheduler<Ev<E>>,
    ) {
        let Some(policy) = self.cfg.retry else { return };
        let noticed = now + notify_delay;
        let elapsed_us = noticed.duration_since(req.send).as_nanos() / 1_000;
        let decision = policy.on_shed_jittered(
            attempt,
            elapsed_us,
            conn_key(self.cfg.seed, req.conn as usize),
        );
        let delay_us = match decision {
            RetryDecision::GiveUp => {
                self.give_ups += 1;
                return;
            }
            RetryDecision::RetryAfterUs(d) => d,
        };
        self.retries += 1;
        let at = noticed + SimDuration::from_nanos(delay_us.saturating_mul(1_000));
        let attempt = attempt + 1;
        if self.reissue_acts() {
            sched.at(at, Ev::Retry { req, attempt });
        } else {
            sched.at(at + self.source.half_rtt, Ev::Packet(req, attempt));
        }
    }

    /// Harvests and clears the control window: drives the credit AIMD from
    /// the worst per-class tail-vs-credit-target ratio (with tenant SLOs)
    /// or the overall window tail, and returns the worst per-class
    /// p99-vs-SLO ratio for the server's control hook.
    fn control_window(&mut self) -> Option<f64> {
        let s = self.window.as_mut().map_or_else(Default::default, |w| {
            let s = w.signals();
            w.clear();
            s
        });
        if let Some(tl) = &mut self.telem.0 {
            tl.last_window_tail = s.tail_us.unwrap_or(f64::NAN);
        }
        if let Some(pool) = &mut self.admission {
            match self.cfg.slo {
                // Per-tenant-class targets derived from the SLO bounds:
                // 1.0 means the worst class sits exactly at its target.
                Some(_) => pool.update_ratio(s.credit_ratio.unwrap_or(f64::NAN)),
                None => pool.update(s.tail_us.unwrap_or(f64::NAN)),
            }
        }
        s.slo_ratio
    }

    /// Publishes the requested time-series into the registry. Rides the
    /// control tick; rate series are deltas over the harvest interval.
    fn harvest(&mut self, now: SimTime, active_cores: usize) {
        let Some(tl) = &mut self.telem.0 else { return };
        if tl.series.is_empty() {
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
        let admitted: u64 = self.admitted_by_class.iter().sum();
        for &(kind, class, id) in &tl.series {
            let v = match kind {
                SeriesKind::AdmittedRate => (admitted - tl.last_admitted) as f64 / dt_s,
                SeriesKind::CreditCapacity => {
                    self.admission.as_ref().map_or(0.0, |p| p.capacity() as f64)
                }
                SeriesKind::ActiveCores => active_cores as f64,
                SeriesKind::ShedByClass => {
                    (self.rejected_by_class[class] - tl.last_rejected[class]) as f64 / dt_s
                }
                SeriesKind::WindowP99 => tl.last_window_tail,
                SeriesKind::RetryRate => (self.retries - tl.last_retries) as f64 / dt_s,
            };
            // NaN windows (too few samples to call a tail) are skipped
            // rather than recorded: a gap is honest, a zero is a lie.
            if v.is_finite() {
                tl.reg.push(id, t_us, v);
            }
        }
        tl.last_admitted = admitted;
        tl.last_rejected.copy_from_slice(&self.rejected_by_class);
        tl.last_retries = self.retries;
        tl.last_t_ns = now.as_nanos();
    }

    /// Splices a fresh measurement run onto this converged edge: `cfg`
    /// (typically the same workload at a neighboring load) re-rates the
    /// arrival process and replaces the recorder, and every *window
    /// statistic* — generated requests, shed counts, retry counters,
    /// latency windows — is rewound to zero at `now`. World state (RNG
    /// position, credit capacity, the live-attempt table) carries over.
    fn retarget(&mut self, cfg: &SysConfig, now: SimTime, warmup: u64) {
        debug_assert!(cfg.telemetry.is_none(), "warm runs are telemetry-off");
        self.source.retarget(cfg);
        self.rec = Recorder::warm(cfg.requests, warmup, self.source.half_rtt, now);
        self.cfg = cfg.clone();
        self.timeout_dur = timeout_of(cfg);
        self.wire_rejects = 0;
        self.retries = 0;
        self.give_ups = 0;
        self.timeouts_fired = 0;
        self.rejected_by_class.fill(0);
        self.admitted_by_class.fill(0);
        if let Some(pool) = &mut self.admission {
            pool.reset_stats();
        }
        if let Some(w) = &mut self.window {
            w.clear();
        }
    }

    /// Assembles the run's output: the edge's counters plus the server's
    /// `stats`. `end` is the final event time, `events` the engine events
    /// the run processed.
    fn into_output(self, stats: ServerStats, end: SimTime, events: u64) -> SysOutput {
        let window = self.rec.window_us();
        let (admitted, rejected) = self
            .admission
            .as_ref()
            .map_or((0, 0), |p| (p.admitted(), p.rejected()));
        SysOutput {
            telemetry: self.telem.0.map(|tl| TelemetryOut {
                events: tl.tracer.collect(),
                dropped: tl.tracer.dropped(),
                series: tl.reg.take_series(),
            }),
            completed: self.rec.measured(),
            generated: self.source.emitted(),
            completed_total: self.rec.completed_total(),
            latency: self.rec.latency,
            events,
            sim_time_us: if window > 0.0 {
                window
            } else {
                end.as_micros_f64()
            },
            local_events: stats.local_events,
            stolen_events: stats.stolen_events,
            ipis: stats.ipis,
            preemptions: stats.preemptions,
            avg_active_cores: stats.avg_active_cores,
            admitted,
            rejected,
            wire_rejects: self.wire_rejects,
            rtt_us: self.cfg.cost.network_rtt_ns as f64 / 1_000.0,
            retries: self.retries,
            give_ups: self.give_ups,
            timeouts: self.timeouts_fired,
            rejected_by_class: self.rejected_by_class,
            admitted_by_class: self.admitted_by_class,
            stage_counts: stats.stage_counts,
            stage_p99_wait_us: stats.stage_p99_wait_us,
        }
    }
}

/// One simulated world: the client edge in front of a server model.
#[derive(Clone)]
pub(crate) struct World<S> {
    pub edge: Edge,
    pub server: S,
}

impl<S: Server> World<S> {
    pub(crate) fn new(cfg: &SysConfig, server: S) -> Self {
        World {
            edge: Edge::new(cfg),
            server,
        }
    }

    /// Forks every stochastic stream — the edge's workload RNG and the
    /// server's own — onto an independent substream: importance-splitting
    /// clones diverge from the master trajectory at the split point, while
    /// the master keeps the original streams.
    pub(crate) fn fork_streams(&mut self, stream: u64) {
        self.edge.source.fork_rng(stream);
        self.server.fork_streams(stream);
    }
}

impl<S: Server> Model for World<S> {
    type Event = Ev<S::Event>;

    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>) {
        self.server.before_event(now, &self.edge);
        let mut cx = Cx {
            sched,
            edge: &mut self.edge,
        };
        match ev {
            Ev::Gen => cx.edge.gen(now, cx.sched),
            Ev::Retry { req, attempt } => cx.edge.issue(req, attempt, now, cx.sched),
            Ev::Timeout { req, attempt } => cx.edge.timeout(req, attempt, now, cx.sched),
            Ev::Packet(req, attempt) => {
                if cx.edge.admit_packet(req, attempt, now, cx.sched) {
                    self.server.packet(req, &mut cx);
                }
            }
            Ev::Control => {
                // The credit AIMD update, the server's control hook, the
                // series harvest, then the next tick.
                let slo_ratio = cx.edge.control_window();
                self.server.control(slo_ratio, &mut cx);
                cx.edge.harvest(now, self.server.active_cores());
                cx.sched
                    .after(SimDuration::from_micros_f64(CONTROL_PERIOD_US), Ev::Control);
            }
            Ev::Server(e) => self.server.handle(e, &mut cx),
        }
        if cx.edge.rec.is_done() {
            // Stop on the event that reached the completion target rather
            // than consuming (and losing) the next queued event: the queue
            // stays intact, so a post-run checkpoint resumes as is.
            cx.sched.stop();
        }
    }
}

/// Builds the engine for a fresh world: the first arrival at time zero,
/// and the first control tick when anything needs one.
pub(crate) fn start<S: Server>(world: World<S>) -> Engine<World<S>> {
    let control = world
        .edge
        .wants_control_tick(world.server.has_control_plane());
    let mut engine = Engine::new(world);
    engine.schedule(SimTime::ZERO, Ev::Gen);
    if control {
        engine.schedule(SimTime::ZERO, Ev::Control);
    }
    engine
}

/// The output of a run that has stopped, counting `events` engine events.
pub(crate) fn finish<S: Server>(engine: Engine<World<S>>, events: u64) -> SysOutput {
    let end = engine.now();
    let World { edge, server } = engine.into_model();
    edge.into_output(server.stats(end), end, events)
}

/// Runs `engine` on to its completion target. Returns the run's output
/// (counting only the events this call processed) and, when `keep`, a
/// checkpoint of the finished world that a neighboring run can warm-start
/// from; taking it never perturbs the output.
pub(crate) fn run_kept<S: Server>(
    mut engine: Engine<World<S>>,
    keep: bool,
) -> (SysOutput, Option<Engine<World<S>>>) {
    let before = engine.processed();
    engine.run();
    let events = engine.processed() - before;
    let kept = keep.then(|| engine.checkpoint());
    (finish(engine, events), kept)
}

/// A copy of the checkpointed `donor` spliced onto a fresh measurement run
/// of `cfg` (typically the same workload at a neighboring load): the new
/// config replaces the arrival rate and the recorder, whose window opens
/// after `warmup` re-equilibration completions, and every *window
/// statistic* of edge and server is rewound to zero. *World state*
/// (queues, the event queue, RNG positions, credit capacity, a control
/// plane's running averages) carries over untouched: that converged state
/// is what a warm start buys. See `docs/TAIL.md`.
pub(crate) fn resume<S: Server>(
    donor: &Engine<World<S>>,
    cfg: &SysConfig,
    warmup: u64,
) -> Engine<World<S>> {
    let mut engine = donor.clone();
    let now = engine.now();
    let world = engine.model_mut();
    world.edge.retarget(cfg, now, warmup);
    world.server.retarget(cfg);
    engine
}

/// A zeroed output for a world that had nothing to run, shaped like a real
/// run's (class vectors sized from the SLO config), so fleet reductions
/// never special-case it.
pub(crate) fn idle_output(cfg: &SysConfig) -> SysOutput {
    let cfg = SysConfig {
        telemetry: None,
        ..cfg.clone()
    };
    Edge::new(&cfg).into_output(ServerStats::default(), SimTime::ZERO, 0)
}

/// Runs a fresh world to its completion target.
pub(crate) fn run<S: Server>(world: World<S>) -> SysOutput {
    run_kept(start(world), false).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::driver::run_system;
    use zygos_load::retry::RetryPolicy;
    use zygos_sched::CreditConfig;
    use zygos_sim::dist::ServiceDist;

    /// Server-edge credits with backoff and no client timeout: the client
    /// has nothing to do at re-issue time, so each re-issue is one
    /// `Packet` event scheduled from the shed.
    fn folded(system: SystemKind, load: f64, seed: u64, requests: u64) -> SysConfig {
        let mut cfg = SysConfig::paper(system, ServiceDist::exponential_us(10.0), load);
        cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
        cfg.retry = Some(RetryPolicy::Backoff {
            base_us: 50,
            factor: 2.0,
            max_attempts: 3,
        });
        (cfg.requests, cfg.warmup, cfg.seed) = (requests, requests / 5, seed);
        cfg
    }

    /// The same run with a client timeout far past its horizon. The
    /// timeout never fires, but arming it keeps every re-issue on the
    /// `Ev::Retry` hop: the path before the fold.
    fn twin(mut cfg: SysConfig) -> SysConfig {
        cfg.retry_timeout_us = Some(1e9);
        cfg
    }

    #[test]
    fn the_retry_hop_twin_matches_the_unfolded_loop_bit_for_bit() {
        // (host, load, seed, [generated, completed_total, rejected,
        // retries, give_ups], p99 µs), 5k measured after 1k warm-up
        // completions. Recorded before the fold, with no timeout armed: the
        // twin's timeout events never fire, and the re-issue path is the one
        // these were recorded on.
        use SystemKind::{Ix, LinuxFloating as Linux, Zygos};
        #[rustfmt::skip]
        let pins = [
            (Zygos, 1.1, 1, [9757, 6000, 20959, 17521, 3438], 347.903),
            (Zygos, 1.1, 2, [9679, 6000, 20610, 17245, 3365], 346.367),
            (Zygos, 1.3, 1, [11509, 6000, 28415, 23294, 5121], 348.927),
            (Zygos, 1.3, 2, [11554, 6000, 28598, 23445, 5153], 347.647),
            (Zygos, 1.6, 1, [14141, 6000, 39025, 31382, 7643], 351.231),
            (Zygos, 1.6, 2, [14145, 6000, 39245, 31602, 7643], 348.671),
            (Ix, 1.1, 1, [12132, 6000, 30963, 25192, 5771], 368.895),
            (Ix, 1.1, 2, [11874, 6000, 30065, 24533, 5532], 372.735),
            (Ix, 1.3, 1, [14100, 6000, 39090, 31377, 7713], 373.247),
            (Ix, 1.3, 2, [14282, 6000, 39805, 31978, 7827], 377.855),
            (Ix, 1.6, 1, [17523, 6000, 52928, 41944, 10984], 380.415),
            (Ix, 1.6, 2, [17891, 6000, 54268, 42956, 11312], 376.575),
            (Linux, 1.1, 1, [14433, 6000, 40825, 32761, 8064], 353.535),
            (Linux, 1.1, 2, [14422, 6000, 40778, 32718, 8060], 353.535),
            (Linux, 1.3, 1, [17072, 6000, 51311, 40692, 10619], 351.487),
            (Linux, 1.3, 2, [17158, 6000, 51792, 41090, 10702], 354.047),
            (Linux, 1.6, 1, [20945, 6000, 66843, 52492, 14351], 354.815),
            (Linux, 1.6, 2, [20850, 6000, 66382, 52133, 14249], 356.863),
        ];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (system, load, seed, counts, p99_us) in pins {
            let out = run_system(&twin(folded(system, load, seed, 5_000)));
            assert_eq!(out.timeouts, 0, "the twin's timeout must never fire");
            let fields = [
                out.generated,
                out.completed_total,
                out.rejected,
                out.retries,
                out.give_ups,
            ];
            let key = (system.label(), load, seed);
            got.push((key, fields, out.p99_us().to_bits()));
            want.push((key, counts, f64::to_bits(p99_us)));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn live_attempts_match_a_map_and_span_only_live_seqs() {
        // Random inserts (mostly at the newest seq, some re-arming older
        // ones) and removes, checked against a map after every step.
        let mut table = LiveAttempts::default();
        let mut map = std::collections::HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut newest = 0u32;
        for _ in 0..20_000 {
            let r = next();
            let seq = match r % 4 {
                0 => {
                    newest += 1;
                    newest
                }
                _ => newest.saturating_sub((r >> 8) as u32 % 64),
            };
            if (r >> 32) % 3 == 0 {
                table.remove(seq);
                map.remove(&seq);
            } else {
                let attempt = (r >> 40) as u32 % 5;
                table.insert(seq, attempt);
                map.insert(seq, attempt);
            }
            for probe in newest.saturating_sub(70)..=newest + 1 {
                assert_eq!(table.get(probe), map.get(&probe).copied(), "seq {probe}");
            }
            let span = match (map.keys().min(), map.keys().max()) {
                (Some(lo), Some(hi)) => (hi - lo + 1) as usize,
                _ => 0,
            };
            assert_eq!(table.slots.len(), span);
        }
    }

    /// Mean and standard error of a sample.
    fn mean_se(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    #[test]
    fn folded_reissues_agree_with_the_retry_hop_across_seeds() {
        // The fold changes only which of two events at the same nanosecond
        // fires first: the re-sent packet takes its engine sequence number
        // at shed time instead of at re-issue time. So each sample path
        // moves, but no statistic may: over paired seeds, the mean
        // difference of each metric must sit within 3 standard errors of
        // zero.
        let (mut goodput, mut retries, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut moved = 0;
        for seed in 1..=24 {
            let cfg = folded(SystemKind::Zygos, 1.3, seed, 2_000);
            let (f, t) = (run_system(&cfg), run_system(&twin(cfg)));
            assert!(
                f.events < t.events,
                "seed {seed}: the fold must save events"
            );
            moved += usize::from(f.p99_us() != t.p99_us() || f.retries != t.retries);
            goodput.push(f.goodput_fraction() - t.goodput_fraction());
            retries.push(f.retry_rate() - t.retry_rate());
            p99.push(f.p99_us() - t.p99_us());
        }
        assert!(moved > 0, "no sample path moved: the pairs test nothing");
        for (name, diffs) in [
            ("goodput", goodput),
            ("retries/request", retries),
            ("p99 µs", p99),
        ] {
            let (mean, se) = mean_se(&diffs);
            assert!(
                mean.abs() <= 3.0 * se,
                "{name}: folded - twin = {mean:+.5} ± {se:.5} over {} seeds",
                diffs.len()
            );
        }
    }
}
