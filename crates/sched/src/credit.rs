//! Credit-based admission control (Breakwater-style overload protection).
//!
//! In sustained overload (`util > 1`) every dispatch policy's p99 diverges:
//! the queue grows without bound and so does every admitted request's
//! sojourn. The only fix is to stop admitting. [`CreditPool`] implements
//! the server side of a Breakwater-style credit scheme:
//!
//! * the server holds a pool of **credits** bounding the requests admitted
//!   and not yet completed (in-flight = executing + queued);
//! * an arriving request **spends** a credit ([`CreditPool::try_admit`]);
//!   none available → the request is shed at the network edge, before it
//!   costs any application work (the client gets an explicit reject, which
//!   is client-visible backpressure rather than a silent timeout);
//! * a completion **returns** its credit ([`CreditPool::release`]);
//! * a periodic controller resizes the pool by **AIMD** on a congestion
//!   signal ([`CreditPool::update`]): additive increase while the measured
//!   delay sits below target, multiplicative decrease proportional to the
//!   overshoot when it doesn't — Breakwater's `C = C + a` /
//!   `C·(1 − β·overshoot)` rule with the sender-side credit laundering
//!   elided (our clients are simulated/loopback).
//!
//! Invariants, model-checked in `tests/proptest_policy.rs`:
//!
//! * in-flight never exceeds capacity (no over-admission);
//! * capacity never drops below [`CreditConfig::min_credits`] ≥ 1, so the
//!   pool cannot deadlock at zero credits: after every admitted request
//!   completes, at least one credit is always grantable.
//!
//! # Per-tenant extensions
//!
//! Two host-driven extensions ride on the same pool:
//!
//! * **Weighted fair shedding** ([`CreditPool::try_admit_weighted`]):
//!   each tenant class is admitted against a *cap fraction* of the pool
//!   (derived from `zygos_load::slo::TenantSlos::admit_fractions` — the
//!   loosest SLO class gets the smallest cap). The pool tracks
//!   **per-class in-flight occupancy** and admits a class-`c` request iff
//!   `class_in_flight[c] < cap_c && total < capacity`: under overload the
//!   class with the most latency headroom hits its own cap — and sheds —
//!   first, while a capped class that is *not* the one causing the
//!   pressure keeps a guaranteed floor of the pool (the pre-PR-4 rule
//!   compared global occupancy against the class threshold, so sustained
//!   strict traffic could starve a loose class outright even when the
//!   loose class had nothing in flight).
//! * **SLO-normalized AIMD** ([`CreditPool::update_ratio`]): hosts that
//!   measure *per-class* tails against per-class targets feed the worst
//!   `measured/target` ratio (1.0 = at target) instead of a raw latency,
//!   which lets one AIMD rule serve tenants with µs-scale and ms-scale
//!   bounds simultaneously.

/// Configuration of a [`CreditPool`].
#[derive(Clone, Copy, Debug)]
pub struct CreditConfig {
    /// Floor on pool capacity (≥ 1 — the no-deadlock guarantee).
    pub min_credits: u32,
    /// Ceiling on pool capacity.
    pub max_credits: u32,
    /// Starting capacity.
    pub initial_credits: u32,
    /// Additive increase per underloaded control tick.
    pub additive: u32,
    /// Multiplicative-decrease aggressiveness `β`: on an overshoot the
    /// capacity shrinks by `β · min(1, overshoot)` of itself.
    pub md_factor: f64,
    /// Congestion target the AIMD loop steers the measured delay signal
    /// to, in the host's unit (the simulator feeds window tail latency in
    /// µs; the live runtime feeds queue depth).
    pub target: f64,
}

impl CreditConfig {
    /// A pool for a `cores`-wide data plane steering tail latency to
    /// `target`: capacity starts at 8 credits per core (enough to keep
    /// every core busy with head-room for queueing), floor of one credit
    /// per core, generous ceiling for underload.
    pub fn for_cores(cores: usize, target: f64) -> Self {
        let cores = cores.max(1) as u32;
        CreditConfig {
            min_credits: cores,
            max_credits: cores * 64,
            initial_credits: cores * 8,
            additive: cores.div_ceil(4),
            md_factor: 0.3,
            target,
        }
    }

    fn validate(&self) {
        assert!(self.min_credits >= 1, "zero-credit pools deadlock");
        assert!(self.min_credits <= self.max_credits);
        assert!((0.0..1.0).contains(&self.md_factor));
        assert!(self.target > 0.0);
    }

    fn clamp(&self, capacity: u32) -> u32 {
        capacity.clamp(self.min_credits, self.max_credits)
    }

    /// One AIMD step: the capacity that follows `current` after observing
    /// `measured` (same unit as [`CreditConfig::target`]). Non-finite
    /// `measured` (no signal this window) holds the capacity. The single
    /// AIMD rule shared by [`CreditPool`] and [`CreditGate`].
    pub fn next_capacity(&self, current: u32, measured: f64) -> u32 {
        if !measured.is_finite() {
            return current;
        }
        if measured <= self.target {
            self.clamp(current.saturating_add(self.additive))
        } else {
            let overshoot = ((measured - self.target) / self.target).min(1.0);
            let kept = current as f64 * (1.0 - self.md_factor * overshoot);
            self.clamp(kept.floor() as u32)
        }
    }

    /// The occupancy cap for a tenant class admitted at `fraction` of a
    /// pool of `capacity` credits: the number of in-flight requests *of
    /// that class* the pool tolerates. A fraction of 1.0 (the strictest
    /// class) is the whole pool. The `max(1)` floor guarantees every
    /// class can always admit from an empty pool, even after the AIMD
    /// shrinks capacity to its minimum.
    fn class_cap(&self, capacity: u32, fraction: f64) -> u32 {
        if fraction >= 1.0 {
            capacity
        } else {
            (((capacity as f64) * fraction.max(0.0)).floor() as u32).max(1)
        }
    }
}

/// The server-side credit pool (see module docs).
#[derive(Clone, Debug)]
pub struct CreditPool {
    cfg: CreditConfig,
    capacity: u32,
    in_flight: u32,
    /// Per-tenant-class in-flight occupancy (one slot per class; a single
    /// slot when the host has no tenant classes).
    class_in_flight: Vec<u32>,
    admitted: u64,
    rejected: u64,
}

impl CreditPool {
    /// Creates a single-class pool at [`CreditConfig::initial_credits`].
    pub fn new(cfg: CreditConfig) -> Self {
        CreditPool::with_classes(cfg, 1)
    }

    /// Creates a pool tracking `classes` tenant classes' occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or the config is invalid.
    pub fn with_classes(cfg: CreditConfig, classes: usize) -> Self {
        cfg.validate();
        assert!(classes >= 1, "need at least one tenant class");
        CreditPool {
            capacity: cfg.clamp(cfg.initial_credits),
            cfg,
            in_flight: 0,
            class_in_flight: vec![0; classes],
            admitted: 0,
            rejected: 0,
        }
    }

    /// Spends a credit for an arriving request of the sole (or first)
    /// class. `false` sheds the request (no credit held; do not call
    /// [`CreditPool::release`] for it).
    pub fn try_admit(&mut self) -> bool {
        self.try_admit_weighted(0, 1.0)
    }

    /// Spends a credit for a request of tenant `class`, capped at
    /// `fraction` of the pool (weighted fair shedding; see module docs).
    /// The admit rule is `class_in_flight[class] < cap_c && total <
    /// capacity`: the class cap bounds each class's own occupancy, and
    /// the total bound keeps the pool's no-over-admission invariant.
    /// `try_admit_weighted(0, 1.0)` is exactly [`CreditPool::try_admit`].
    pub fn try_admit_weighted(&mut self, class: usize, fraction: f64) -> bool {
        if self.class_in_flight[class] < self.cfg.class_cap(self.capacity, fraction)
            && self.in_flight < self.capacity
        {
            self.in_flight += 1;
            self.class_in_flight[class] += 1;
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Returns the credit of a completed (admitted) request of the sole
    /// (or first) class.
    pub fn release(&mut self) {
        self.release_class(0);
    }

    /// Returns the credit of a completed (admitted) request of `class`.
    pub fn release_class(&mut self, class: usize) {
        debug_assert!(self.in_flight > 0, "release without matching admit");
        debug_assert!(self.class_in_flight[class] > 0, "class release mismatch");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.class_in_flight[class] = self.class_in_flight[class].saturating_sub(1);
    }

    /// One AIMD control tick: `measured` is the congestion signal in the
    /// same unit as [`CreditConfig::target`]. `NaN` (no signal this
    /// window) holds the capacity.
    pub fn update(&mut self, measured: f64) {
        self.capacity = self.cfg.next_capacity(self.capacity, measured);
    }

    /// One AIMD control tick on a **normalized** congestion ratio: 1.0 is
    /// "exactly at target" (hosts derive per-tenant-class targets from
    /// their SLO bounds and feed the worst `measured/target`). `NaN`
    /// holds the capacity. Same AIMD rule as [`CreditPool::update`].
    pub fn update_ratio(&mut self, ratio: f64) {
        self.update(ratio * self.cfg.target);
    }

    /// Current capacity (total credits).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Credits currently held by in-flight requests.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Credits currently held by in-flight requests of `class`.
    pub fn class_in_flight(&self, class: usize) -> u32 {
        self.class_in_flight[class]
    }

    /// Total requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Zeroes the admitted/rejected counters while keeping the converged
    /// control state (capacity, in-flight occupancy). Warm-started runs
    /// splice a fresh measurement window onto a converged pool; the
    /// counters are window statistics, the capacity is world state.
    pub fn reset_stats(&mut self) {
        self.admitted = 0;
        self.rejected = 0;
    }

    /// The configuration in force.
    pub fn config(&self) -> &CreditConfig {
        &self.cfg
    }
}

/// The lock-free sibling of [`CreditPool`] for multithreaded hosts: the
/// admit/release fast path is a CAS on one cache line, so the live
/// runtime's RX and completion paths never serialize on a lock for
/// admission. The AIMD `update` expects a **single writer** (the
/// controller core); `try_admit`/`release` may race it freely.
///
/// Semantics match [`CreditPool`] (same [`CreditConfig::next_capacity`]
/// rule, same invariants); the split exists because the discrete-event
/// simulator wants a plain `&mut` state machine and the runtime wants
/// shared atomics — not two admission policies.
#[derive(Debug)]
pub struct CreditGate {
    cfg: CreditConfig,
    capacity: std::sync::atomic::AtomicU32,
    in_flight: std::sync::atomic::AtomicU32,
    /// Per-tenant-class occupancy. The pool-wide no-over-admission
    /// invariant is exact (CAS on `in_flight`); the class counters are
    /// checked-then-incremented, so a race can transiently overshoot a
    /// class cap by the number of racing cores — fairness is advisory,
    /// admission is not.
    class_in_flight: Vec<std::sync::atomic::AtomicU32>,
    admitted: std::sync::atomic::AtomicU64,
    rejected: std::sync::atomic::AtomicU64,
}

impl CreditGate {
    /// Creates a single-class gate at [`CreditConfig::initial_credits`].
    pub fn new(cfg: CreditConfig) -> Self {
        CreditGate::with_classes(cfg, 1)
    }

    /// Creates a gate tracking `classes` tenant classes' occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or the config is invalid.
    pub fn with_classes(cfg: CreditConfig, classes: usize) -> Self {
        use std::sync::atomic::{AtomicU32, AtomicU64};
        cfg.validate();
        assert!(classes >= 1, "need at least one tenant class");
        CreditGate {
            capacity: AtomicU32::new(cfg.clamp(cfg.initial_credits)),
            cfg,
            in_flight: AtomicU32::new(0),
            class_in_flight: (0..classes).map(|_| AtomicU32::new(0)).collect(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Spends a credit for an arriving request of the sole (or first)
    /// class (lock-free). `false` sheds the request (no credit held; do
    /// not call [`CreditGate::release`]).
    pub fn try_admit(&self) -> bool {
        self.try_admit_weighted(0, 1.0)
    }

    /// Spends a credit for a request of tenant `class`, capped at
    /// `fraction` of the pool (lock-free weighted fair shedding; the
    /// sibling of [`CreditPool::try_admit_weighted`], same
    /// `class_in_flight < cap_c && total < capacity` rule).
    pub fn try_admit_weighted(&self, class: usize, fraction: f64) -> bool {
        use std::sync::atomic::Ordering::{Acquire, Relaxed};
        let capacity = self.capacity.load(Acquire);
        if self.class_in_flight[class].load(Relaxed) >= self.cfg.class_cap(capacity, fraction) {
            self.rejected.fetch_add(1, Relaxed);
            return false;
        }
        let mut cur = self.in_flight.load(Relaxed);
        loop {
            if cur >= capacity {
                self.rejected.fetch_add(1, Relaxed);
                return false;
            }
            match self
                .in_flight
                .compare_exchange_weak(cur, cur + 1, Relaxed, Relaxed)
            {
                Ok(_) => {
                    self.class_in_flight[class].fetch_add(1, Relaxed);
                    self.admitted.fetch_add(1, Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the credit of a completed (admitted) request of the sole
    /// (or first) class.
    pub fn release(&self) {
        self.release_class(0);
    }

    /// Returns the credit of a completed (admitted) request of `class`.
    pub fn release_class(&self, class: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        let prev = self.in_flight.fetch_sub(1, Relaxed);
        debug_assert!(prev > 0, "release without matching admit");
        let prev_c = self.class_in_flight[class].fetch_sub(1, Relaxed);
        debug_assert!(prev_c > 0, "class release mismatch");
    }

    /// One AIMD control tick (single writer — the controller core).
    pub fn update(&self, measured: f64) {
        use std::sync::atomic::Ordering::{Acquire, Release};
        let next = self
            .cfg
            .next_capacity(self.capacity.load(Acquire), measured);
        self.capacity.store(next, Release);
    }

    /// One AIMD control tick on a normalized congestion ratio (1.0 = at
    /// target); the lock-free sibling of [`CreditPool::update_ratio`].
    pub fn update_ratio(&self, ratio: f64) {
        self.update(ratio * self.cfg.target);
    }

    /// The credit grant a response to this client should carry
    /// (Breakwater's sender-side credit distribution, piggybacked on the
    /// reply): 2 while the pool has ample headroom (grows the client's
    /// send window), 1 at moderate occupancy (holds it — one credit spent,
    /// one returned), 0 when the pool is full (shrinks it). A client that
    /// only sends while its local balance is positive then converges to
    /// its share of the pool without a dedicated control channel.
    ///
    /// Equivalent to [`CreditGate::grant_for_response_weighted`] for the
    /// sole (or first) class at fraction 1.0.
    pub fn grant_for_response(&self) -> u32 {
        self.grant_for_response_weighted(0, 1.0)
    }

    /// The grant for a response to tenant `class` admitted at `fraction`
    /// of the pool: headroom is judged against **both** admit conditions
    /// (the class's own occupancy vs its cap, and the total vs capacity —
    /// the same pair [`CreditGate::try_admit_weighted`] sheds on), and
    /// the tighter of the two decides. Judging only the whole pool would
    /// let a capped class being shed at moderate global occupancy keep
    /// receiving growth grants, so its send window would never tighten.
    ///
    /// Grants only ride on responses, so a reject must still return the
    /// credit the sender spent on it (grant ≥ 1 at the caller): a
    /// 0-grant reject to a connection with no other requests in flight
    /// would strand its balance at zero forever, with no path to ever
    /// receive another grant. The resulting steady state for a shed
    /// sender is a flat balance — one slow retry per round trip, bounded
    /// backpressure rather than either starvation or unbounded retry.
    pub fn grant_for_response_weighted(&self, class: usize, fraction: f64) -> u32 {
        use std::sync::atomic::Ordering::{Acquire, Relaxed};
        let capacity = self.capacity.load(Acquire);
        let cap_c = self.cfg.class_cap(capacity, fraction);
        let inf_c = self.class_in_flight[class].load(Relaxed);
        let inf = self.in_flight.load(Relaxed);
        let headroom = |used: u32, cap: u32| {
            if used.saturating_mul(2) < cap {
                2
            } else if used < cap {
                1
            } else {
                0
            }
        };
        headroom(inf_c, cap_c).min(headroom(inf, capacity))
    }

    /// Current capacity (total credits).
    pub fn capacity(&self) -> u32 {
        self.capacity.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Credits currently held by in-flight requests.
    pub fn in_flight(&self) -> u32 {
        self.in_flight.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Credits currently held by in-flight requests of `class`.
    pub fn class_in_flight(&self, class: usize) -> u32 {
        self.class_in_flight[class].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: u32) -> CreditPool {
        CreditPool::new(CreditConfig {
            min_credits: 1,
            max_credits: 1024,
            initial_credits: capacity,
            additive: 2,
            md_factor: 0.3,
            target: 100.0,
        })
    }

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let mut p = pool(3);
        assert!(p.try_admit());
        assert!(p.try_admit());
        assert!(p.try_admit());
        assert!(!p.try_admit(), "no credit left");
        assert_eq!(p.in_flight(), 3);
        assert_eq!(p.admitted(), 3);
        assert_eq!(p.rejected(), 1);
        p.release();
        assert!(p.try_admit(), "released credit is grantable again");
    }

    #[test]
    fn aimd_grows_below_target_and_shrinks_above() {
        let mut p = pool(100);
        p.update(50.0);
        assert_eq!(p.capacity(), 102, "additive increase");
        p.update(200.0); // overshoot (200-100)/100 = 1.0 → shrink by 30%.
        assert_eq!(p.capacity(), 71);
        p.update(150.0); // overshoot 0.5 → shrink by 15%.
        assert_eq!(p.capacity(), 60);
        p.update(f64::NAN);
        assert_eq!(p.capacity(), 60, "no signal holds capacity");
    }

    #[test]
    fn capacity_never_leaves_bounds() {
        let mut p = pool(4);
        for _ in 0..200 {
            p.update(1e12);
        }
        assert_eq!(p.capacity(), 1, "md floor");
        assert!(p.try_admit(), "floor keeps the pool live");
        for _ in 0..2_000 {
            p.update(0.0);
        }
        assert_eq!(p.capacity(), 1024, "ai ceiling");
    }

    #[test]
    fn gate_matches_pool_semantics() {
        // The atomic gate and the plain pool share the AIMD rule and the
        // admit/release invariants: drive both through the same script.
        let cfg = credit_cfg_for_parity();
        let mut pool = CreditPool::new(cfg);
        let gate = CreditGate::new(cfg);
        let script: &[(u8, f64)] = &[
            (0, 0.0),
            (0, 0.0),
            (0, 0.0),
            (0, 0.0),
            (2, 250.0),
            (0, 0.0),
            (1, 0.0),
            (0, 0.0),
            (2, 40.0),
            (0, 0.0),
            (2, 1e9),
            (1, 0.0),
            (1, 0.0),
            (0, 0.0),
        ];
        for &(op, arg) in script {
            match op {
                0 => assert_eq!(pool.try_admit(), gate.try_admit()),
                1 => {
                    if pool.in_flight() > 0 {
                        pool.release();
                        gate.release();
                    }
                }
                _ => {
                    pool.update(arg);
                    gate.update(arg);
                }
            }
            assert_eq!(pool.capacity(), gate.capacity());
            assert_eq!(pool.in_flight(), gate.in_flight());
            assert_eq!(pool.admitted(), gate.admitted());
            assert_eq!(pool.rejected(), gate.rejected());
        }
    }

    fn credit_cfg_for_parity() -> CreditConfig {
        CreditConfig {
            min_credits: 1,
            max_credits: 16,
            initial_credits: 3,
            additive: 1,
            md_factor: 0.3,
            target: 100.0,
        }
    }

    #[test]
    fn gate_admits_concurrently_within_capacity() {
        let gate = std::sync::Arc::new(CreditGate::new(CreditConfig {
            min_credits: 1,
            max_credits: 64,
            initial_credits: 64,
            additive: 1,
            md_factor: 0.3,
            target: 100.0,
        }));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let g = std::sync::Arc::clone(&gate);
                std::thread::spawn(move || {
                    let mut mine = 0u32;
                    for _ in 0..1_000 {
                        if g.try_admit() {
                            mine += 1;
                            if mine.is_multiple_of(2) {
                                g.release();
                            }
                        }
                    }
                    // Release what we still hold.
                    for _ in 0..mine.div_ceil(2) {
                        g.release();
                    }
                    mine
                })
            })
            .collect();
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.admitted(), total as u64);
        assert!(gate.admitted() + gate.rejected() == 4_000);
    }

    #[test]
    fn weighted_admission_caps_loose_classes_first() {
        // Pool of 10, two classes (0 strict at 1.0, 1 loose at 0.5): the
        // loose class sheds once *its own* occupancy reaches 5, while the
        // strict class keeps admitting to the pool bound.
        let mut p = CreditPool::with_classes(pool(10).cfg, 2);
        for _ in 0..5 {
            assert!(p.try_admit_weighted(1, 0.5));
        }
        assert!(!p.try_admit_weighted(1, 0.5), "loose class at its cap");
        for _ in 0..5 {
            assert!(p.try_admit_weighted(0, 1.0), "strict class unaffected");
        }
        assert!(!p.try_admit_weighted(0, 1.0), "pool exhausted");
        assert_eq!(p.class_in_flight(0), 5);
        assert_eq!(p.class_in_flight(1), 5);
        // The cap floor of 1: a capped class can admit from an empty pool
        // even after the AIMD shrinks capacity to the minimum.
        for _ in 0..5 {
            p.release_class(0);
            p.release_class(1);
        }
        for _ in 0..50 {
            p.update(1e9);
        }
        assert_eq!(p.capacity(), 1);
        assert!(
            p.try_admit_weighted(1, 0.1),
            "empty pool admits any class at the floor"
        );
    }

    #[test]
    fn strict_saturation_leaves_the_loose_class_a_floor() {
        // The PR-4 occupancy rule: a strict tenant pinning the pool at
        // high occupancy no longer starves an idle loose class. Strict
        // fills 8 of 10 credits; the old global-occupancy rule shed every
        // loose request past occupancy 5, the per-class rule admits them
        // (loose occupancy 0 < 5) until the *pool* is full.
        let mut p = CreditPool::with_classes(pool(10).cfg, 2);
        for _ in 0..8 {
            assert!(p.try_admit_weighted(0, 1.0));
        }
        assert!(
            p.try_admit_weighted(1, 0.5),
            "loose class keeps its floor under strict pressure"
        );
        assert!(p.try_admit_weighted(1, 0.5), "up to the pool bound");
        assert!(!p.try_admit_weighted(1, 0.5), "pool full");
        assert!(!p.try_admit_weighted(0, 1.0), "strict sheds at full too");
        assert_eq!(p.class_in_flight(1), 2);
        // Strict completions free slots the loose class can take, up to
        // its own cap of 5.
        for _ in 0..4 {
            p.release_class(0);
        }
        for _ in 0..3 {
            assert!(p.try_admit_weighted(1, 0.5));
        }
        assert!(!p.try_admit_weighted(1, 0.5), "loose cap (5) binds now");
    }

    #[test]
    fn gate_weighted_admission_matches_pool() {
        let cfg = credit_cfg_for_parity();
        let mut pool = CreditPool::with_classes(cfg, 2);
        let gate = CreditGate::with_classes(cfg, 2);
        for &(c, f) in &[
            (0, 1.0),
            (1, 0.5),
            (1, 0.5),
            (1, 0.34),
            (0, 1.0),
            (1, 0.5),
            (1, 0.1),
            (0, 1.0),
        ] {
            assert_eq!(pool.try_admit_weighted(c, f), gate.try_admit_weighted(c, f));
            assert_eq!(pool.in_flight(), gate.in_flight());
            assert_eq!(pool.class_in_flight(c), gate.class_in_flight(c));
            assert_eq!(pool.rejected(), gate.rejected());
        }
    }

    #[test]
    fn ratio_update_matches_normalized_raw_update() {
        // update_ratio(r) must equal update(r × target) for any target.
        let mut a = pool(100);
        let mut b = pool(100);
        for &r in &[0.5, 2.0, 1.0, 0.1, 3.5, f64::NAN, 0.9] {
            a.update_ratio(r);
            b.update(r * b.config().target);
            assert_eq!(a.capacity(), b.capacity());
        }
        let gate = CreditGate::new(*a.config());
        gate.update_ratio(2.0);
        let mut c = pool(100);
        c.update_ratio(2.0);
        assert_eq!(gate.capacity(), c.capacity());
    }

    #[test]
    fn response_grant_tracks_pool_headroom() {
        let gate = CreditGate::new(CreditConfig {
            min_credits: 1,
            max_credits: 64,
            initial_credits: 8,
            additive: 1,
            md_factor: 0.3,
            target: 100.0,
        });
        assert_eq!(gate.grant_for_response(), 2, "empty pool grows clients");
        for _ in 0..4 {
            assert!(gate.try_admit());
        }
        assert_eq!(gate.grant_for_response(), 1, "half-full holds");
        for _ in 0..4 {
            assert!(gate.try_admit());
        }
        assert_eq!(gate.grant_for_response(), 0, "full pool revokes");
    }

    #[test]
    fn shrink_below_in_flight_stops_admission_until_drain() {
        let mut p = pool(10);
        for _ in 0..10 {
            assert!(p.try_admit());
        }
        for _ in 0..20 {
            p.update(1e9);
        }
        assert_eq!(p.capacity(), 1);
        assert!(!p.try_admit(), "over-committed pool admits nothing");
        for _ in 0..10 {
            p.release();
        }
        assert!(p.try_admit(), "drained pool admits again");
    }
}
