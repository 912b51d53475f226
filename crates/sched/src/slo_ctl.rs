//! SLO-driven core allocation.
//!
//! The PR-1 allocator staffs on utilization (`util + β·√util`), which is
//! blind to what the operator actually promised: a tail-latency bound.
//! [`SloController`] closes that loop. It consumes the measured
//! tail-latency-to-SLO ratio ([`crate::PolicySignal::slo_ratio`], the worst
//! `p99 / bound` across tenant SLO classes over the last control window)
//! and staffs from the margin:
//!
//! * **sustained breach** (`ratio > breach_ratio` for `grant_after` ticks)
//!   grants cores proportional to the overshoot, overriding whatever the
//!   utilization rule thinks — a violated SLO is demand by definition;
//! * **thin margin** (`ratio > relax_ratio`) vetoes the utilization rule's
//!   revokes: parking cores while the tail sits near the bound converts a
//!   met SLO into a violated one a window later;
//! * **wide margin** falls through to the embedded [`CoreAllocator`], so
//!   with no SLO signal at all the controller behaves exactly like the
//!   PR-1 utilization rule (which keeps it a safe default).
//!
//! Stability comes from the same ingredients as the utilization rule:
//! EWMA smoothing of the ratio, consecutive-tick thresholds, and a shared
//! cooldown after any change (the controller and its embedded allocator
//! are never both in a post-change cooldown independently — a forced grant
//! resets the inner allocator's counters too). The settling test in
//! `tests/proptest_policy.rs` model-checks convergence on step load
//! changes against a monotone plant.

use crate::alloc::{AllocatorConfig, CoreAllocator, Decision};
use crate::policy::PolicySignal;

/// Decision-rule knobs of the [`SloController`].
#[derive(Clone, Copy, Debug)]
pub struct SloTuning {
    /// EWMA coefficient for the smoothed SLO ratio.
    pub ratio_alpha: f64,
    /// Grant when the smoothed ratio exceeds this (below 1.0 = act before
    /// the SLO is formally violated).
    pub breach_ratio: f64,
    /// Permit revokes only when the smoothed ratio is below this.
    pub relax_ratio: f64,
    /// Consecutive breach ticks required before a grant.
    pub grant_after: u32,
}

impl Default for SloTuning {
    /// Act at 90% of the bound, revoke only below 50%, grant after 2
    /// breach ticks. The post-change cooldown is not a knob here: the
    /// controller inherits [`crate::AllocatorTuning::cooldown`] so its
    /// cooldown windows stay in lockstep with the embedded utilization
    /// rule's (out-of-step cooldowns would make the wrapper override
    /// decisions the inner rule is entitled to, breaking the
    /// no-SLO-signal equivalence).
    fn default() -> Self {
        SloTuning {
            ratio_alpha: 0.25,
            breach_ratio: 0.9,
            relax_ratio: 0.5,
            grant_after: 2,
        }
    }
}

impl SloTuning {
    fn validate(&self) {
        assert!(self.ratio_alpha > 0.0 && self.ratio_alpha <= 1.0);
        assert!(self.breach_ratio > 0.0);
        assert!(
            self.relax_ratio < self.breach_ratio,
            "relax must sit below breach or the controller ping-pongs"
        );
        assert!(self.grant_after >= 1);
    }
}

/// The SLO-margin core allocator (see module docs for the decision rule).
#[derive(Clone, Debug)]
pub struct SloController {
    inner: CoreAllocator,
    tuning: SloTuning,
    /// Post-change cooldown length, inherited from the allocator tuning
    /// so both layers' cooldown windows open and close together.
    cooldown: u32,
    /// Smoothed worst tail-latency-to-SLO ratio.
    ratio_ewma: f64,
    /// Consecutive breach ticks observed.
    breach: u32,
    /// Remaining cooldown ticks after the controller's own changes.
    cooldown_left: u32,
    slo_grants: u64,
    vetoed_revokes: u64,
}

impl SloController {
    /// Creates a controller over the utilization rule configured by `cfg`,
    /// with [`SloTuning`] `tuning`.
    pub fn new(cfg: AllocatorConfig, tuning: SloTuning) -> Self {
        tuning.validate();
        SloController {
            cooldown: cfg.tuning.cooldown,
            inner: CoreAllocator::new(cfg),
            tuning,
            ratio_ewma: 0.0,
            breach: 0,
            cooldown_left: 0,
            slo_grants: 0,
            vetoed_revokes: 0,
        }
    }

    /// The smoothed SLO ratio estimate.
    pub fn ratio_ewma(&self) -> f64 {
        self.ratio_ewma
    }

    /// Grants forced by SLO breaches (excluding the utilization rule's).
    pub fn slo_grants(&self) -> u64 {
        self.slo_grants
    }

    /// Utilization-rule revokes vetoed by a thin SLO margin.
    pub fn vetoed_revokes(&self) -> u64 {
        self.vetoed_revokes
    }

    /// The embedded utilization allocator.
    pub fn allocator(&self) -> &CoreAllocator {
        &self.inner
    }

    /// Feeds one control-tick observation and returns the staffing
    /// decision, already applied to [`SloController::active`].
    pub fn observe(&mut self, sig: &PolicySignal) -> Decision {
        let a = self.tuning.ratio_alpha;
        if let Some(r) = sig.slo_ratio {
            self.ratio_ewma += a * (r - self.ratio_ewma);
        }
        // A window with no measurable ratio (no SLO, or nothing completed)
        // holds the previous estimate: absence of completions under load is
        // not evidence the tail got better.

        let max = self.inner.config().max_cores;
        let breached = self.ratio_ewma > self.tuning.breach_ratio && self.inner.active() < max;
        self.breach = if breached { self.breach + 1 } else { 0 };

        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            // Keep the inner EWMAs warm during our cooldown. The cooldowns
            // are armed in lockstep (same length, same tick), so the inner
            // rule holds through ours; the undo is a defensive guard.
            let before = self.inner.active();
            if self.inner.observe(sig.load()) != Decision::Hold {
                self.inner.force_active(before);
            }
            return Decision::Hold;
        }

        if self.breach >= self.tuning.grant_after {
            // Grant proportional to the overshoot: 2× the bound doubles the
            // grant step. A violated SLO is demand the utilization signal
            // may not show (cores pinned busy by long requests look like
            // exactly-full utilization, never overload).
            let over = self.ratio_ewma / self.tuning.breach_ratio - 1.0;
            let step = ((over * self.inner.active() as f64).ceil() as usize).max(1);
            let before = self.inner.active();
            let target = (before + step).min(max);
            if target > before {
                self.inner.force_active(target);
                self.breach = 0;
                self.cooldown_left = self.cooldown;
                self.slo_grants += 1;
                return Decision::Grant(target - before);
            }
        }

        let before = self.inner.active();
        let d = self.inner.observe(sig.load());
        match d {
            Decision::Revoke(_) if self.ratio_ewma > self.tuning.relax_ratio => {
                // Thin margin: veto the utilization rule's parking.
                self.inner.force_active(before);
                self.cooldown_left = self.cooldown;
                self.vetoed_revokes += 1;
                Decision::Hold
            }
            Decision::Hold => Decision::Hold,
            other => {
                self.cooldown_left = self.cooldown;
                other
            }
        }
    }

    /// Currently granted cores.
    pub fn active(&self) -> usize {
        self.inner.active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(max: usize) -> SloController {
        SloController::new(AllocatorConfig::paper(max), SloTuning::default())
    }

    fn sig(busy: f64, backlog: usize, ratio: Option<f64>) -> PolicySignal {
        PolicySignal {
            busy_cores: busy,
            backlog,
            slo_ratio: ratio,
        }
    }

    #[test]
    fn no_slo_signal_matches_utilization_rule() {
        // With slo_ratio always None the controller must reproduce the
        // CoreAllocator's decisions exactly, tick for tick.
        let mut slo = ctl(16);
        let mut util = CoreAllocator::new(AllocatorConfig::paper(16));
        let mut x = 3u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let busy = ((x >> 33) % 17) as f64;
            let backlog = (x >> 13) as usize % 48;
            let ds = slo.observe(&sig(busy, backlog, None));
            let du = util.observe(sig(busy, backlog, None).load());
            assert_eq!(ds, du, "diverged at busy={busy} backlog={backlog}");
            assert_eq!(slo.active(), util.active());
        }
    }

    #[test]
    fn sustained_breach_grants_even_at_full_utilization() {
        let mut c = ctl(16);
        // Shrink to the floor first.
        for _ in 0..200 {
            c.observe(&sig(0.5, 0, Some(0.2)));
        }
        let floor = c.active();
        assert!(floor < 16);
        // Cores pinned busy (util == active, no backlog): the utilization
        // rule sees "exactly full" and holds; the SLO breach must grant.
        for _ in 0..40 {
            let busy = c.active() as f64;
            c.observe(&sig(busy, 0, Some(2.0)));
        }
        assert!(c.active() > floor, "breach must staff up");
        assert!(c.slo_grants() > 0);
    }

    #[test]
    fn thin_margin_vetoes_revokes() {
        let mut c = ctl(16);
        // Low utilization but the tail sits at 80% of the bound: the
        // utilization rule wants to park, the margin veto must hold.
        for _ in 0..300 {
            c.observe(&sig(1.0, 0, Some(0.8)));
        }
        assert_eq!(c.active(), 16, "no parking on a thin margin");
        assert!(c.vetoed_revokes() > 0);
        // Once the margin widens, parking resumes.
        for _ in 0..300 {
            c.observe(&sig(1.0, 0, Some(0.1)));
        }
        assert!(c.active() < 16, "wide margin must allow parking");
    }

    #[test]
    fn breach_grant_is_proportional_to_overshoot() {
        let mut mild = ctl(32);
        let mut severe = ctl(32);
        for _ in 0..200 {
            mild.observe(&sig(1.0, 0, Some(0.2)));
            severe.observe(&sig(1.0, 0, Some(0.2)));
        }
        let start = mild.active();
        assert_eq!(severe.active(), start);
        for _ in 0..8 {
            let b = mild.active() as f64;
            mild.observe(&sig(b, 0, Some(1.1)));
            let b = severe.active() as f64;
            severe.observe(&sig(b, 0, Some(6.0)));
        }
        assert!(
            severe.active() > mild.active(),
            "severe overshoot {} must out-staff mild {}",
            severe.active(),
            mild.active()
        );
    }

    #[test]
    fn missing_windows_hold_the_estimate() {
        let mut c = ctl(16);
        for _ in 0..200 {
            c.observe(&sig(0.5, 0, Some(0.2)));
        }
        let parked_at = c.active();
        // Breach, then signal loss: the held estimate keeps staffing up
        // (or at least never parks back down) until a real sample lands.
        for _ in 0..4 {
            let b = c.active() as f64;
            c.observe(&sig(b, 0, Some(3.0)));
        }
        let staffed = c.active();
        assert!(staffed > parked_at);
        for _ in 0..50 {
            let b = c.active() as f64;
            c.observe(&sig(b, 0, None));
        }
        assert!(
            c.active() >= staffed,
            "signal loss must not trigger parking"
        );
    }
}
