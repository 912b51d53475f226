//! Importance-splitting (RESTART) rare-event mode.
//!
//! Far-tail quantiles (p99.9 and beyond) are driven by rare excursions
//! into deep backlog: a brute-force run must wait for them to happen by
//! chance, so the number of samples past the quantile grows only linearly
//! in run length. RESTART (REstart with Splitting After Threshold
//! crossing) concentrates simulation effort on those excursions instead:
//!
//! * The **level function** is the total queued-request backlog
//!   (the server's `backlog`), checked every
//!   [`TailConfig::check_every`] events.
//! * When a trajectory first crosses threshold `levels[i]` going up, it is
//!   **split**: `splits - 1` clones of the entire simulated world are
//!   forked (each on an independent RNG substream), and every trajectory
//!   in the now `splits`-wide bundle carries `1/splits` of the previous
//!   weight — the estimator stays unbiased in expectation because the
//!   bundle explores the same rare region `splits` times.
//! * A clone **dies** when it falls back below the level it was born at;
//!   the master trajectory instead **restores** its weight (re-arming the
//!   level for the next excursion, with hysteresis so boundary jitter
//!   does not thrash the splitter).
//! * Completions are recorded as **weighted samples**
//!   ([`zygos_sim::stats::WeightedSamples`]), and the far-tail quantile is
//!   read from the weighted distribution.
//!
//! The master trajectory keeps the original RNG streams and is never
//! perturbed by the clones, so its own path — and therefore the returned
//! [`SysOutput`] — is *bit-identical* to a brute-force [`crate::run_system`]
//! at the same config. That makes the committed splitting-vs-brute
//! scenario an apples-to-apples comparison: same base trajectory, plus
//! weighted clone mass in the tail.
//!
//! Estimator bias caveats (quantified in `docs/TAIL.md`): the level
//! check is periodic rather than continuous (crossings inside a segment
//! split late), the horizon is a completion count rather than a time
//! window, and the clone budget truncates splitting in pathological
//! regimes — [`TailOutput::truncated`] reports when that happened.

use zygos_sim::engine::Engine;
use zygos_sim::stats::WeightedSamples;

use crate::config::{SysConfig, SysOutput};
use crate::edge::{self, Server, World};
use crate::zygos::{self, ZygosModel};

/// Knobs of the RESTART estimator.
#[derive(Clone, Debug)]
pub struct TailConfig {
    /// The far-tail quantile to estimate (e.g. `0.999`).
    pub quantile: f64,
    /// Ascending backlog thresholds (total queued requests) that trigger
    /// splitting.
    pub levels: Vec<usize>,
    /// Bundle width per level crossing: each up-crossing multiplies the
    /// trajectory count by this and divides the weight by it.
    pub splits: usize,
    /// Events between backlog-level checks.
    pub check_every: u64,
    /// Maximum events spent in clone trajectories (`0` = unlimited). When
    /// the budget is exhausted no further clones are spawned; crossings
    /// that could not split are counted in [`TailOutput::truncated`].
    pub clone_budget: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            quantile: 0.999,
            levels: vec![32, 64],
            splits: 4,
            check_every: 64,
            clone_budget: 2_000_000,
        }
    }
}

impl TailConfig {
    fn validate(&self) {
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(!self.levels.is_empty(), "need at least one split level");
        assert!(
            self.levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly ascending"
        );
        assert!(self.splits >= 2, "splitting needs a bundle width of >= 2");
        assert!(self.check_every >= 1, "check period must be >= 1 event");
    }
}

/// What the RESTART estimator measured.
#[derive(Clone, Debug)]
pub struct TailOutput {
    /// The quantile that was estimated.
    pub quantile: f64,
    /// Weighted-quantile estimate (µs) over master + clone completions.
    pub value_us: f64,
    /// The same quantile read from the master (= brute-force) histogram
    /// alone, for the matched-cost comparison.
    pub brute_value_us: f64,
    /// Weighted samples pooled into the estimate.
    pub samples: usize,
    /// Total weight of the pooled samples (≈ the master's measured count).
    pub total_weight: f64,
    /// Engine events spent on the master trajectory.
    pub master_events: u64,
    /// Engine events spent on clone trajectories.
    pub clone_events: u64,
    /// Clone trajectories spawned.
    pub clones: u64,
    /// Split opportunities skipped because the clone budget ran out
    /// (nonzero means the estimate is truncation-biased; rerun with a
    /// larger [`TailConfig::clone_budget`]).
    pub truncated: u64,
    /// Deepest backlog observed at a level check, across all trajectories.
    pub max_backlog: usize,
}

/// One live trajectory on the exploration stack.
struct Traj {
    engine: Engine<World<ZygosModel>>,
    weight: f64,
    /// Level index (1-based) the trajectory was born at; `0` for the
    /// master, which never dies.
    birth: usize,
    /// Next level index to split at.
    arm: usize,
}

/// Runs `cfg` in importance-splitting mode. Returns the master
/// trajectory's output (bit-identical to `run_system(cfg)`) plus the
/// weighted far-tail estimate.
///
/// # Panics
///
/// Panics on non-ZygOS-family systems, telemetry-armed configs (the
/// checkpoint plane drops the observer), or invalid [`TailConfig`] knobs.
pub fn run_restart(cfg: &SysConfig, tail: &TailConfig) -> (SysOutput, TailOutput) {
    assert!(
        zygos::is_zygos_family(cfg),
        "importance splitting needs the checkpointable ZygOS-family model"
    );
    assert!(
        cfg.telemetry.is_none(),
        "importance splitting is telemetry-off (clones drop the observer)"
    );
    tail.validate();

    let mut world = zygos::world(cfg);
    world.edge.rec.arm_tail_sampling();
    let engine = edge::start(world);

    let mut est = WeightedSamples::new();
    let mut stack = vec![Traj {
        engine,
        weight: 1.0,
        birth: 0,
        arm: 0,
    }];
    let mut clone_seq = 0u64;
    let mut master_events = 0u64;
    let mut clone_events = 0u64;
    let mut truncated = 0u64;
    let mut max_backlog = 0usize;
    let mut master_out = None;

    // Depth-first over the split tree: deterministic (LIFO order, clone
    // streams numbered by spawn order) and memory-bounded (the stack holds
    // at most one bundle per level).
    while let Some(mut t) = stack.pop() {
        loop {
            // One segment: up to `check_every` events.
            let mut stepped = 0u64;
            while stepped < tail.check_every {
                if t.engine.model().edge.rec.is_done() || !t.engine.step() {
                    break;
                }
                stepped += 1;
            }
            if t.birth == 0 {
                master_events += stepped;
            } else {
                clone_events += stepped;
            }
            let w = t.weight;
            for ns in t.engine.model_mut().edge.rec.drain_tail() {
                est.push(ns, w);
            }
            if t.engine.model().edge.rec.is_done() || stepped == 0 {
                if t.birth == 0 {
                    master_out = Some(edge::finish(t.engine, master_events));
                }
                break;
            }
            let b = t.engine.model().server.backlog();
            max_backlog = max_backlog.max(b);
            if t.birth > 0 && b * 2 < tail.levels[t.birth - 1] {
                // The clone left its birth level's band: it dies. The
                // death threshold is the *same* half-level hysteresis the
                // master's weight-restore uses below — while any bundle
                // member is inside the band `[level/2, level)`, all
                // `splits` members are alive at `weight/splits`, so the
                // bundle's pooled mass stays exactly the pre-split weight.
                // Mismatched thresholds would leave the master alone in
                // the band at reduced weight, deflating the estimator.
                break;
            }
            if t.arm < tail.levels.len() && b >= tail.levels[t.arm] {
                // Up-crossing: split into a `splits`-wide bundle.
                t.arm += 1;
                t.weight /= tail.splits as f64;
                for _ in 0..tail.splits - 1 {
                    if tail.clone_budget > 0 && clone_events >= tail.clone_budget {
                        truncated += 1;
                        continue;
                    }
                    clone_seq += 1;
                    let mut e = t.engine.checkpoint();
                    e.model_mut().fork_streams(clone_seq);
                    stack.push(Traj {
                        engine: e,
                        weight: t.weight,
                        birth: t.arm,
                        arm: t.arm,
                    });
                }
            } else if t.arm > t.birth && b * 2 < tail.levels[t.arm - 1] {
                // The master (or a deep clone) left the rare region:
                // restore the weight and re-arm the level for the next
                // excursion. The factor-2 hysteresis keeps boundary
                // jitter from thrashing split/restore cycles.
                t.weight *= tail.splits as f64;
                t.arm -= 1;
            }
        }
    }

    let out = master_out.expect("master trajectory runs to completion");
    let brute_value_us = out.latency.quantile_us(tail.quantile);
    let value_us = if est.is_empty() {
        f64::NAN
    } else {
        est.quantile_us(tail.quantile)
    };
    let tail_out = TailOutput {
        quantile: tail.quantile,
        value_us,
        brute_value_us,
        samples: est.len(),
        total_weight: est.total_weight(),
        master_events,
        clone_events,
        clones: clone_seq,
        truncated,
        max_backlog,
    };
    (out, tail_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::driver::run_system;
    use zygos_sim::dist::ServiceDist;

    fn cfg(load: f64) -> SysConfig {
        let mut c = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), load);
        c.requests = 12_000;
        c.warmup = 2_000;
        c
    }

    #[test]
    fn master_trajectory_is_bit_identical_to_brute_force() {
        let c = cfg(0.75);
        let brute = run_system(&c);
        let (master, t) = run_restart(
            &c,
            &TailConfig {
                levels: vec![12, 24],
                ..TailConfig::default()
            },
        );
        // Clones must never perturb the master: same completions, same
        // histogram, same event count.
        assert_eq!(master.completed, brute.completed);
        assert_eq!(master.events, brute.events);
        assert_eq!(master.p99_us(), brute.p99_us());
        assert_eq!(master.latency.count(), brute.latency.count());
        assert_eq!(t.brute_value_us, brute.latency.quantile_us(t.quantile));
    }

    #[test]
    fn splitting_multiplies_tail_mass_at_matched_base_cost() {
        let c = cfg(0.8);
        let (_, t) = run_restart(
            &c,
            &TailConfig {
                quantile: 0.999,
                levels: vec![10, 20],
                splits: 4,
                check_every: 64,
                clone_budget: 4_000_000,
            },
        );
        assert!(t.clones > 0, "load 0.8 must cross a backlog of 10");
        assert!(
            t.samples as u64 > c.requests,
            "clone completions must add tail mass: {} samples",
            t.samples
        );
        // The weighted estimate must land in the same regime as the brute
        // quantile (same distribution, more tail evidence).
        assert!(t.value_us.is_finite() && t.value_us > 0.0);
        let ratio = t.value_us / t.brute_value_us;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "splitting p99.9 {} vs brute {} diverged",
            t.value_us,
            t.brute_value_us
        );
        // Weight conservation: the pooled weight stays within a few
        // percent of the master's measured count (clone bundles conserve
        // expected mass; boundary effects explain the slack).
        let rel = (t.total_weight - c.requests as f64).abs() / c.requests as f64;
        assert!(
            rel < 0.25,
            "total weight {} vs target {}",
            t.total_weight,
            c.requests
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let c = cfg(0.8);
        let knobs = TailConfig {
            levels: vec![10, 20],
            ..TailConfig::default()
        };
        let (_, a) = run_restart(&c, &knobs);
        let (_, b) = run_restart(&c, &knobs);
        assert_eq!(a.value_us, b.value_us);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.clones, b.clones);
        assert_eq!(a.clone_events, b.clone_events);
    }
}
