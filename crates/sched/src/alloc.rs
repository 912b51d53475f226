//! The elastic core allocator.
//!
//! A periodic controller observes one [`LoadSignal`] per control tick and
//! decides whether to grant cores to, or revoke cores from, the data plane.
//! The decision rule is deliberately simple — demand estimation plus
//! hysteresis — because the hard part of core reallocation is *stability*:
//! a controller that flaps between core counts pays the reconfiguration
//! cost (queue migration, cache refill, RSS reprogramming) on every
//! oscillation of a bursty arrival process.
//!
//! Demand is estimated as `busy_cores + backlog`: every queued item wants a
//! core-slot in addition to the ones currently occupied. Three knobs damp
//! the response:
//!
//! * [`AllocatorTuning::grant_after`] consecutive overloaded ticks are
//!   required before granting (absorbs one-tick bursts);
//! * [`AllocatorTuning::revoke_after`] consecutive underloaded ticks are
//!   required before revoking (parking is much cheaper to delay than
//!   queueing is to suffer, so the revoke side is slower by default);
//! * after any change, [`AllocatorTuning::cooldown`] ticks must pass before
//!   the counters accumulate again.
//!
//! Together these give the bound checked by the property tests: the number
//! of allocation changes over `T` ticks is at most
//! `T / (cooldown + min(grant_after, revoke_after)) + 1`.

/// Decision-rule knobs shared by every host of the allocator (the
/// simulator and the live runtime both run the default).
#[derive(Clone, Copy, Debug)]
pub struct AllocatorTuning {
    /// Consecutive overloaded ticks required before a grant.
    pub grant_after: u32,
    /// Consecutive underloaded ticks required before a revoke.
    pub revoke_after: u32,
    /// Ticks after any change during which no further change is considered.
    pub cooldown: u32,
    /// Utilization floor: a tick is "underloaded" when the *smoothed*
    /// utilization is below `revoke_util × active`.
    pub revoke_util: f64,
    /// Square-root staffing coefficient for the revoke target:
    /// `ceil(util + staffing_beta·√util)` cores are kept when shrinking
    /// (Erlang-C's rule of thumb). Linear headroom (`util × k`) is the
    /// obvious alternative and was tried first: it drives the plane to
    /// ~80% utilization where µs-scale p99 explodes, backlog spikes, and
    /// the controller oscillates between grant and revoke.
    pub staffing_beta: f64,
    /// EWMA coefficient for the smoothed signals
    /// (`ewma ← α·sample + (1−α)·ewma`). Granting reacts to queue
    /// pressure quickly — queueing hurts immediately — while revoking
    /// consults smoothed utilization so one quiet tick amid bursts cannot
    /// start shedding cores, and one busy tick cannot keep resetting the
    /// relief counter.
    pub demand_alpha: f64,
}

impl Default for AllocatorTuning {
    /// Grant fast (2 ticks), revoke slow (10 ticks), 5-tick cooldown,
    /// √-staffing β = 2.
    fn default() -> Self {
        AllocatorTuning {
            grant_after: 2,
            revoke_after: 10,
            cooldown: 5,
            revoke_util: 0.6,
            staffing_beta: 2.0,
            demand_alpha: 0.25,
        }
    }
}

/// Full configuration of the [`CoreAllocator`]: the core-count bounds plus
/// the shared [`AllocatorTuning`].
#[derive(Clone, Copy, Debug)]
pub struct AllocatorConfig {
    /// Lower bound on granted cores (never park below this).
    pub min_cores: usize,
    /// Upper bound on granted cores (the machine size).
    pub max_cores: usize,
    /// Decision-rule knobs.
    pub tuning: AllocatorTuning,
}

impl AllocatorConfig {
    /// Defaults matching the paper testbed: `max_cores` granted, a floor
    /// of 2, [`AllocatorTuning::default`].
    pub fn paper(max_cores: usize) -> Self {
        AllocatorConfig {
            min_cores: 2.min(max_cores),
            max_cores,
            tuning: AllocatorTuning::default(),
        }
    }

    fn validate(&self) {
        assert!(self.min_cores >= 1, "need at least one core");
        assert!(self.min_cores <= self.max_cores, "min_cores > max_cores");
        let t = &self.tuning;
        assert!(t.revoke_util > 0.0 && t.revoke_util < 1.0);
        assert!(t.staffing_beta >= 0.0);
        assert!(t.demand_alpha > 0.0 && t.demand_alpha <= 1.0);
    }
}

/// One control tick's observation of the data plane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadSignal {
    /// Cores executing work, time-averaged since the previous tick (an
    /// instantaneous count also works, at the cost of a noisier estimate).
    pub busy_cores: f64,
    /// Items queued and not yet in execution (NIC rings + shuffle queues)
    /// at tick time.
    pub backlog: usize,
}

/// The allocator's verdict for one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Grant this many additional cores.
    Grant(usize),
    /// Revoke (park) this many cores.
    Revoke(usize),
    /// No change.
    Hold,
}

/// The elastic core allocator (see module docs for the decision rule).
#[derive(Clone, Debug)]
pub struct CoreAllocator {
    cfg: AllocatorConfig,
    active: usize,
    /// Consecutive overloaded ticks observed.
    pressure: u32,
    /// Consecutive underloaded ticks observed.
    relief: u32,
    /// Remaining cooldown ticks after the last change.
    cooldown_left: u32,
    /// Smoothed utilization (busy cores).
    util_ewma: f64,
    /// Smoothed queue pressure (backlog items).
    press_ewma: f64,
    grants: u64,
    revokes: u64,
}

impl CoreAllocator {
    /// Creates an allocator with all `max_cores` granted (the static
    /// provisioning it relaxes from).
    pub fn new(cfg: AllocatorConfig) -> Self {
        cfg.validate();
        CoreAllocator {
            active: cfg.max_cores,
            util_ewma: cfg.max_cores as f64,
            press_ewma: 0.0,
            cfg,
            pressure: 0,
            relief: 0,
            cooldown_left: 0,
            grants: 0,
            revokes: 0,
        }
    }

    /// The smoothed utilization estimate (busy cores).
    pub fn util_ewma(&self) -> f64 {
        self.util_ewma
    }

    /// The smoothed queue-pressure estimate (backlog items).
    pub fn press_ewma(&self) -> f64 {
        self.press_ewma
    }

    /// Currently granted cores.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Currently parked cores.
    pub fn parked(&self) -> usize {
        self.cfg.max_cores - self.active
    }

    /// Total grant decisions so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total revoke decisions so far.
    pub fn revokes(&self) -> u64 {
        self.revokes
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocatorConfig {
        &self.cfg
    }

    /// Feeds one control-tick observation and returns the decision, which
    /// has already been applied to [`CoreAllocator::active`].
    ///
    /// A tick is **overloaded** when the smoothed backlog exceeds the
    /// granted core count, or utilization saturates the grant with queued
    /// work behind it; it is **underloaded** when smoothed utilization sits
    /// below the `revoke_util` floor and the backlog is modest. Grants add
    /// cores proportional to queue pressure (one step reaches `max_cores`
    /// under a saturating backlog); revokes shrink to utilization times
    /// `staffing_beta` (square-root staffing).
    pub fn observe(&mut self, sig: LoadSignal) -> Decision {
        let a = self.cfg.tuning.demand_alpha;
        self.util_ewma += a * (sig.busy_cores - self.util_ewma);
        self.press_ewma += a * (sig.backlog as f64 - self.press_ewma);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return Decision::Hold;
        }
        let active_f = self.active as f64;
        let overloaded = self.active < self.cfg.max_cores
            && (self.press_ewma > active_f
                || (self.util_ewma >= 0.95 * active_f && self.press_ewma >= 1.0));
        let underloaded = self.active > self.cfg.min_cores
            && self.util_ewma < self.cfg.tuning.revoke_util * active_f
            && self.press_ewma <= active_f;

        self.pressure = if overloaded { self.pressure + 1 } else { 0 };
        self.relief = if underloaded { self.relief + 1 } else { 0 };

        if self.pressure >= self.cfg.tuning.grant_after {
            let step = (self.press_ewma / active_f).ceil() as usize;
            let target = (self.active + step.max(1)).min(self.cfg.max_cores);
            let k = target - self.active;
            self.active = target;
            self.changed();
            self.grants += 1;
            return Decision::Grant(k);
        }
        if self.relief >= self.cfg.tuning.revoke_after {
            let wanted = (self.util_ewma + self.cfg.tuning.staffing_beta * self.util_ewma.sqrt())
                .ceil() as usize;
            let target = wanted.clamp(self.cfg.min_cores, self.active);
            if target < self.active {
                let k = self.active - target;
                self.active = target;
                self.changed();
                self.revokes += 1;
                return Decision::Revoke(k);
            }
            self.relief = 0;
        }
        Decision::Hold
    }

    /// Forces the grant to `target` (clamped to the configured bounds),
    /// resetting the hysteresis counters and arming the cooldown exactly as
    /// an organic decision would. This is the hook a wrapping policy (e.g.
    /// the SLO controller) uses to override or undo a decision while
    /// keeping the combined controller inside the reallocation-frequency
    /// bound.
    pub fn force_active(&mut self, target: usize) {
        self.active = target.clamp(self.cfg.min_cores, self.cfg.max_cores);
        self.changed();
    }

    fn changed(&mut self) {
        self.pressure = 0;
        self.relief = 0;
        self.cooldown_left = self.cfg.tuning.cooldown;
    }
}

/// Integrates granted-core count over time, making core-seconds-used a
/// first-class experiment output.
#[derive(Clone, Copy, Debug)]
pub struct CoreSecondsMeter {
    last_ns: u64,
    active: usize,
    integral_core_ns: u128,
}

impl CoreSecondsMeter {
    /// Starts metering at `now_ns` with `active` granted cores.
    pub fn new(now_ns: u64, active: usize) -> Self {
        CoreSecondsMeter {
            last_ns: now_ns,
            active,
            integral_core_ns: 0,
        }
    }

    /// Records an allocation change at `now_ns`.
    pub fn set_active(&mut self, now_ns: u64, active: usize) {
        self.accumulate(now_ns);
        self.active = active;
    }

    /// Total core-nanoseconds granted up to `now_ns`.
    pub fn core_ns(&self, now_ns: u64) -> u128 {
        self.integral_core_ns + self.pending(now_ns)
    }

    /// Time-averaged granted cores from the start of metering to `now_ns`.
    pub fn avg_cores(&self, now_ns: u64, start_ns: u64) -> f64 {
        let span = now_ns.saturating_sub(start_ns);
        if span == 0 {
            return self.active as f64;
        }
        self.core_ns(now_ns) as f64 / span as f64
    }

    fn accumulate(&mut self, now_ns: u64) {
        self.integral_core_ns += self.pending(now_ns);
        self.last_ns = now_ns.max(self.last_ns);
    }

    fn pending(&self, now_ns: u64) -> u128 {
        now_ns.saturating_sub(self.last_ns) as u128 * self.active as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> CoreAllocator {
        CoreAllocator::new(AllocatorConfig::paper(16))
    }

    fn tick(a: &mut CoreAllocator, busy: f64, backlog: usize) -> Decision {
        a.observe(LoadSignal {
            busy_cores: busy,
            backlog,
        })
    }

    #[test]
    fn starts_fully_granted() {
        let a = alloc();
        assert_eq!(a.active(), 16);
        assert_eq!(a.parked(), 0);
    }

    #[test]
    fn sustained_idle_revokes_down_to_floor() {
        let mut a = alloc();
        for _ in 0..200 {
            tick(&mut a, 0.0, 0);
        }
        assert_eq!(a.active(), a.config().min_cores);
        assert!(a.revokes() >= 1);
    }

    #[test]
    fn trickle_load_keeps_sqrt_staffing_headroom() {
        // One busy core of sustained load settles at util + β·√util ≈ 3,
        // not the bare floor: tails need slack even when the mean is tiny.
        let mut a = alloc();
        for _ in 0..200 {
            tick(&mut a, 1.0, 0);
        }
        assert!(
            (a.config().min_cores..=4).contains(&a.active()),
            "settled at {}",
            a.active()
        );
    }

    #[test]
    fn small_transient_burst_does_not_grant() {
        let mut a = alloc();
        for _ in 0..200 {
            tick(&mut a, 1.0, 0);
        }
        let before = a.active();
        // One mildly busy tick, then idle again: hysteresis holds.
        assert_eq!(tick(&mut a, before as f64, 1), Decision::Hold);
        for _ in 0..10 {
            assert_eq!(tick(&mut a, 1.0, 0), Decision::Hold);
        }
        assert_eq!(a.active(), before);
    }

    #[test]
    fn sustained_overload_grants() {
        let mut a = alloc();
        for _ in 0..200 {
            tick(&mut a, 1.0, 0); // shrink to the floor first
        }
        let mut granted = 0;
        for _ in 0..20 {
            let busy = a.active() as f64;
            if let Decision::Grant(k) = tick(&mut a, busy, 40) {
                granted += k;
            }
        }
        assert!(granted > 0, "overload must grant");
        assert!(a.active() > a.config().min_cores);
        assert!(a.active() <= 16);
    }

    #[test]
    fn saturating_backlog_reaches_max_quickly() {
        let mut a = alloc();
        for _ in 0..200 {
            tick(&mut a, 1.0, 0);
        }
        for _ in 0..40 {
            let busy = a.active() as f64;
            tick(&mut a, busy, 4_000);
        }
        assert_eq!(a.active(), 16, "saturation must regrant everything");
    }

    #[test]
    fn active_always_within_bounds() {
        let mut a = alloc();
        let mut x = 7u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let busy = ((x >> 33) % 17) as f64;
            let backlog = (x >> 12) as usize % 64;
            tick(&mut a, busy, backlog);
            assert!((a.config().min_cores..=16).contains(&a.active()));
        }
    }

    #[test]
    fn cooldown_spaces_changes() {
        let cfg = AllocatorConfig::paper(16);
        let mut a = CoreAllocator::new(cfg);
        let mut changes_at = Vec::new();
        for t in 0..1_000u32 {
            // Alternate starvation and saturation every tick: worst case.
            let d = if t % 2 == 0 {
                tick(&mut a, 16.0, 100)
            } else {
                tick(&mut a, 0.0, 0)
            };
            if d != Decision::Hold {
                changes_at.push(t);
            }
        }
        let min_gap = cfg.tuning.cooldown + cfg.tuning.grant_after.min(cfg.tuning.revoke_after);
        for w in changes_at.windows(2) {
            assert!(
                w[1] - w[0] >= min_gap,
                "changes at {} and {} closer than {min_gap}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn meter_integrates_core_time() {
        let mut m = CoreSecondsMeter::new(0, 16);
        m.set_active(1_000, 4); // 16 cores for 1µs
        m.set_active(3_000, 8); // 4 cores for 2µs
                                // 8 cores for 1µs
        assert_eq!(m.core_ns(4_000), 16_000 + 8_000 + 8_000);
        let avg = m.avg_cores(4_000, 0);
        assert!((avg - 8.0).abs() < 1e-9, "avg = {avg}");
    }
}
