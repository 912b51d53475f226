//! Importance-splitting (RESTART) rare-event mode.
//!
//! Far-tail quantiles (p99.9 and beyond) are driven by rare excursions
//! into deep backlog: a brute-force run must wait for them to happen by
//! chance, so the number of samples past the quantile grows only linearly
//! in run length. RESTART (REstart with Splitting After Threshold
//! crossing) concentrates simulation effort on those excursions instead:
//!
//! * The **level function** is the total queued backlog (the server's
//!   `backlog`: requests in rings, ready connections on shuffle
//!   queues), checked every [`TailConfig::check_every`] events.
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
//! The estimate is defined by a depth-first walk of the split tree (clones
//! numbered in spawn order, the budget charged in walk order), but the
//! trajectories run on every worker [`run_restart`] is given: a
//! trajectory's path depends only on its checkpoint and its stream
//! number, so any worker may run it once it is numbered, while one
//! bookkeeping pass under a lock numbers clones, applies the budget and
//! pools samples in the one-thread walk's order. The output is
//! bit-identical at every thread count (`docs/TAIL.md`).
//!
//! Estimator bias caveats (quantified in `docs/TAIL.md`): the level
//! check is periodic rather than continuous (crossings inside a segment
//! split late), the horizon is a completion count rather than a time
//! window, and the clone budget truncates splitting in pathological
//! regimes — [`TailOutput::truncated`] reports when that happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use zygos_sim::engine::Engine;
use zygos_sim::stats::WeightedSamples;

use crate::config::{SysConfig, SysOutput, SystemKind};
use crate::edge::{self, Server, World};
use crate::zygos::{self, ZygosModel};

/// Knobs of the RESTART estimator.
#[derive(Clone, Debug)]
pub struct TailConfig {
    /// The far-tail quantile to estimate (e.g. `0.999`).
    pub quantile: f64,
    /// Ascending backlog thresholds (the server's `backlog`) that
    /// trigger splitting.
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
    /// Total weight of the pooled samples: each master completion at the
    /// master's weight when it completed, each clone completion at its
    /// bundle share. It is not the master's measured count: a clone still
    /// inside its birth band after the master left it and restored its
    /// weight keeps adding mass, so the total can run over it (63 % over
    /// on the committed smoke `tail_splitting`, 17 % in
    /// `splitting_multiplies_tail_mass_at_matched_base_cost`).
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

/// One trajectory of the split tree, numbered and ready to run.
struct Traj {
    engine: Engine<World<ZygosModel>>,
    weight: f64,
    /// Level index (1-based) the trajectory was born at; `0` for the
    /// master, which never dies.
    birth: usize,
    /// Next level index to split at.
    arm: usize,
}

/// A clone taken at an up-crossing, not yet forked onto its stream: the
/// walk numbers it, or drops it on the clone budget, in walk order.
struct Split {
    /// The world at the split; `None` when the budget was already known
    /// to be spent, so the walk is sure to drop it.
    engine: Option<Engine<World<ZygosModel>>>,
    weight: f64,
    /// Level the clone is born at (its parent's level after the split).
    arm: usize,
    /// The parent's own clone events at the check that split it (`0` for
    /// the master, whose events never count against the budget).
    at: u64,
}

/// One trajectory run to its end.
struct Ran {
    events: u64,
    /// `(latency_ns, weight)` per completion, in completion order.
    samples: Vec<(u64, f64)>,
    max_backlog: usize,
    /// Clones in spawn order: `splits - 1` per up-crossing.
    splits: Vec<Split>,
    /// The master's output (`None` for a clone).
    out: Option<SysOutput>,
}

/// Runs one trajectory until the master's recorder is done or the clone
/// dies. Its path depends only on its checkpoint and stream, so any
/// worker may run it once it is numbered. `spent` is a lower bound on the
/// clone events of the trajectories before it in walk order: a split the
/// budget is sure to drop is not checkpointed.
fn run_traj(mut t: Traj, tail: &TailConfig, spent: &AtomicU64) -> Ran {
    let clone = t.birth > 0;
    let mut ran = Ran {
        events: 0,
        samples: Vec::new(),
        max_backlog: 0,
        splits: Vec::new(),
        out: None,
    };
    loop {
        // One segment: up to `check_every` events.
        let mut stepped = 0u64;
        while stepped < tail.check_every {
            if t.engine.model().edge.rec.is_done() || !t.engine.step() {
                break;
            }
            stepped += 1;
        }
        ran.events += stepped;
        let w = t.weight;
        let drained = t.engine.model_mut().edge.rec.drain_tail();
        ran.samples.extend(drained.map(|ns| (ns, w)));
        if t.engine.model().edge.rec.is_done() || stepped == 0 {
            if !clone {
                ran.out = Some(edge::finish(t.engine, ran.events));
            }
            return ran;
        }
        let b = t.engine.model().server.backlog();
        ran.max_backlog = ran.max_backlog.max(b);
        if clone && b * 2 < tail.levels[t.birth - 1] {
            // The clone left its birth level's band: it dies. The death
            // threshold is the *same* half-level hysteresis the master's
            // weight-restore uses below — while any bundle member is
            // inside the band `[level/2, level)`, all `splits` members
            // are alive at `weight/splits`, so the bundle's pooled mass
            // stays exactly the pre-split weight. Mismatched thresholds
            // would leave the master alone in the band at reduced weight,
            // deflating the estimator.
            return ran;
        }
        if t.arm < tail.levels.len() && b >= tail.levels[t.arm] {
            // Up-crossing: split into a `splits`-wide bundle. Whether
            // each clone is spawned never perturbs this trajectory.
            t.arm += 1;
            t.weight /= tail.splits as f64;
            let at = if clone { ran.events } else { 0 };
            let dropped =
                tail.clone_budget > 0 && spent.load(Ordering::Relaxed) + at >= tail.clone_budget;
            for _ in 0..tail.splits - 1 {
                ran.splits.push(Split {
                    engine: (!dropped).then(|| t.engine.checkpoint()),
                    weight: t.weight,
                    arm: t.arm,
                    at,
                });
            }
        } else if t.arm > t.birth && b * 2 < tail.levels[t.arm - 1] {
            // The master (or a deep clone) left the rare region: restore
            // the weight and re-arm the level for the next excursion.
            // The factor-2 hysteresis keeps boundary jitter from
            // thrashing split/restore cycles.
            t.weight *= tail.splits as f64;
            t.arm -= 1;
        }
    }
}

/// The split tree's shared state: what the workers run, what they
/// finished, and the bookkeeping of the depth-first walk.
struct Walk {
    /// Numbered trajectories waiting for a worker, newest last.
    ready: Vec<(usize, Traj)>,
    /// Finished trajectories by number (the master is 0, clone `k` is
    /// `k`), held until the walk reaches them.
    done: Vec<Option<Ran>>,
    /// The depth-first walk's stack of trajectory numbers; empty once
    /// every trajectory is pooled.
    stack: Vec<usize>,
    est: WeightedSamples,
    master_events: u64,
    clone_events: u64,
    truncated: u64,
    max_backlog: usize,
    master_out: Option<SysOutput>,
}

impl Walk {
    /// Pools finished trajectories in the order the sequential walk pops
    /// them (LIFO, clones pushed in spawn order), numbering and forking
    /// their clones exactly as it would: clone `k` is the `k`-th spawned,
    /// and a clone is spawned only while the clone events before it —
    /// every earlier trajectory's, plus its parent's own up to the split
    /// — are under the budget.
    fn settle(&mut self, tail: &TailConfig) {
        while let Some(&id) = self.stack.last() {
            let Some(ran) = self.done[id].take() else {
                return;
            };
            self.stack.pop();
            for (ns, w) in ran.samples {
                self.est.push(ns, w);
            }
            self.max_backlog = self.max_backlog.max(ran.max_backlog);
            for s in ran.splits {
                if tail.clone_budget > 0 && self.clone_events + s.at >= tail.clone_budget {
                    self.truncated += 1;
                    continue;
                }
                let seq = self.done.len();
                let mut engine = s
                    .engine
                    .expect("only a split over budget skips its checkpoint");
                engine.model_mut().fork_streams(seq as u64);
                self.stack.push(seq);
                self.done.push(None);
                self.ready.push((
                    seq,
                    Traj {
                        engine,
                        weight: s.weight,
                        birth: s.arm,
                        arm: s.arm,
                    },
                ));
            }
            if id == 0 {
                self.master_events = ran.events;
                self.master_out = ran.out;
            } else {
                self.clone_events += ran.events;
            }
        }
    }
}

/// The lock, its condition variable and the budget's lower bound that
/// every worker of one walk shares.
struct Shared {
    walk: Mutex<Walk>,
    changed: Condvar,
    /// `Walk::clone_events` as of the last settle.
    spent: AtomicU64,
}

/// One worker: runs the newest ready trajectory, hands it back and
/// settles the walk, until the walk is over.
fn work(sh: &Shared, tail: &TailConfig) {
    /// Ends the walk if this worker panics, so the others return and the
    /// scope re-raises the panic instead of waiting for its trajectory.
    struct OnPanic<'a>(&'a Shared);
    impl Drop for OnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let mut w = self.0.walk.lock().unwrap_or_else(PoisonError::into_inner);
                w.stack.clear();
                self.0.changed.notify_all();
            }
        }
    }
    let _guard = OnPanic(sh);
    let mut w = sh.walk.lock().expect("walk lock");
    while !w.stack.is_empty() {
        let Some((id, t)) = w.ready.pop() else {
            w = sh.changed.wait(w).expect("walk lock");
            continue;
        };
        drop(w);
        let ran = run_traj(t, tail, &sh.spent);
        w = sh.walk.lock().expect("walk lock");
        w.done[id] = Some(ran);
        w.settle(tail);
        sh.spent.store(w.clone_events, Ordering::Relaxed);
        sh.changed.notify_all();
    }
}

/// True when `cfg` runs on the ZygOS-family model, the only world the
/// splitter is written for.
fn is_zygos_family(cfg: &SysConfig) -> bool {
    matches!(
        cfg.system,
        SystemKind::Zygos | SystemKind::ZygosNoInterrupts | SystemKind::Elastic { .. }
    )
}

/// Runs `cfg` in importance-splitting mode on `threads` workers (the
/// caller and `threads - 1` scoped helpers). Returns the master
/// trajectory's output (bit-identical to `run_system(cfg)`) plus the
/// weighted far-tail estimate, both bit-identical at every thread count.
///
/// # Panics
///
/// Panics on non-ZygOS-family systems, telemetry-armed configs (the
/// checkpoint plane drops the observer), or invalid [`TailConfig`] knobs.
pub fn run_restart(cfg: &SysConfig, tail: &TailConfig, threads: usize) -> (SysOutput, TailOutput) {
    assert!(
        is_zygos_family(cfg),
        "importance splitting is written for the ZygOS-family model"
    );
    assert!(
        cfg.telemetry.is_none(),
        "importance splitting is telemetry-off (clones drop the observer)"
    );
    tail.validate();

    let mut world = zygos::world(cfg);
    world.edge.rec.arm_tail_sampling();
    let master = Traj {
        engine: edge::start(world),
        weight: 1.0,
        birth: 0,
        arm: 0,
    };
    let sh = Shared {
        walk: Mutex::new(Walk {
            ready: vec![(0, master)],
            done: vec![None],
            stack: vec![0],
            est: WeightedSamples::new(),
            master_events: 0,
            clone_events: 0,
            truncated: 0,
            max_backlog: 0,
            master_out: None,
        }),
        changed: Condvar::new(),
        spent: AtomicU64::new(0),
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| work(&sh, tail));
        }
        work(&sh, tail);
    });
    let mut w = sh.walk.into_inner().expect("walk lock");

    let out = w.master_out.expect("master trajectory runs to completion");
    let brute_value_us = out.latency.quantile_us(tail.quantile);
    let value_us = if w.est.is_empty() {
        f64::NAN
    } else {
        w.est.quantile_us(tail.quantile)
    };
    let tail_out = TailOutput {
        quantile: tail.quantile,
        value_us,
        brute_value_us,
        samples: w.est.len(),
        total_weight: w.est.total_weight(),
        master_events: w.master_events,
        clone_events: w.clone_events,
        clones: w.done.len() as u64 - 1,
        truncated: w.truncated,
        max_backlog: w.max_backlog,
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
            1,
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
            2,
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
        // Weight conservation, loosely: the pooled weight stays within a
        // quarter of the master's measured count (it reads 17 % over:
        // clones that outlive the master's stay in a band add mass).
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
        let (_, a) = run_restart(&c, &knobs, 2);
        let (_, b) = run_restart(&c, &knobs, 2);
        assert_eq!(a.value_us, b.value_us);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.clones, b.clones);
        assert_eq!(a.clone_events, b.clone_events);
    }

    /// One golden row: `(load, levels, splits, check_every, clone_budget)`
    /// and the `TailOutput` they gave on the one-thread depth-first walk
    /// before it ran in parallel.
    struct Pin {
        knobs: (f64, &'static [usize], usize, u64, u64),
        value_bits: u64,
        weight_bits: u64,
        samples: usize,
        clones: u64,
        truncated: u64,
        master_events: u64,
        clone_events: u64,
        max_backlog: usize,
    }

    const PINS: [Pin; 6] = [
        Pin {
            knobs: (0.8, &[10, 20], 4, 64, 0),
            value_bits: 0x4061_5c10_624d_d2f2,
            weight_bits: 0x40ac_5fc0_0000_0000,
            samples: 31_119,
            clones: 120,
            truncated: 0,
            master_events: 20_088,
            clone_events: 157_138,
            max_backlog: 80,
        },
        Pin {
            knobs: (0.85, &[16, 32, 64], 4, 64, 150_000),
            value_bits: 0x4072_9dc2_8f5c_28f6,
            weight_bits: 0x40a3_1d40_0000_0000,
            samples: 64_562,
            clones: 69,
            truncated: 39,
            master_events: 16_111,
            clone_events: 249_842,
            max_backlog: 157,
        },
        Pin {
            knobs: (0.8, &[8, 16], 3, 32, 40_000),
            value_bits: 0x4063_4385_1eb8_51ec,
            weight_bits: 0x40a6_d9c7_1c71_cf7b,
            samples: 15_360,
            clones: 68,
            truncated: 14,
            master_events: 20_088,
            clone_events: 63_403,
            max_backlog: 83,
        },
        Pin {
            knobs: (0.9, &[12, 24, 48], 2, 128, 30_000),
            value_bits: 0x4080_725a_1cac_0831,
            weight_bits: 0x409d_6380_0000_0000,
            samples: 15_000,
            clones: 4,
            truncated: 2,
            master_events: 13_900,
            clone_events: 50_683,
            max_backlog: 397,
        },
        Pin {
            knobs: (0.75, &[12, 24], 4, 64, 2_000_000),
            value_bits: 0x4058_2989_374b_c6a8,
            weight_bits: 0x40aa_d420_0000_0000,
            samples: 8_358,
            clones: 54,
            truncated: 0,
            master_events: 24_232,
            clone_events: 40_704,
            max_backlog: 47,
        },
        Pin {
            knobs: (0.88, &[10, 20, 40], 3, 48, 60_000),
            value_bits: 0x4079_494b_c6a7_ef9e,
            weight_bits: 0x408f_6d09_7b42_6612,
            samples: 27_000,
            clones: 10,
            truncated: 10,
            master_events: 14_341,
            clone_events: 107_546,
            max_backlog: 279,
        },
    ];

    #[test]
    fn parallel_walk_matches_the_sequential_golden_pins() {
        for pin in &PINS {
            let (load, levels, splits, check_every, clone_budget) = pin.knobs;
            let mut c =
                SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), load);
            c.requests = 3_000;
            c.warmup = 600;
            let knobs = TailConfig {
                quantile: 0.999,
                levels: levels.to_vec(),
                splits,
                check_every,
                clone_budget,
            };
            for threads in 1..=4 {
                let (master, t) = run_restart(&c, &knobs, threads);
                let got = (
                    t.value_us.to_bits(),
                    t.total_weight.to_bits(),
                    t.samples,
                    t.clones,
                    t.truncated,
                    t.master_events,
                    t.clone_events,
                    t.max_backlog,
                );
                let want = (
                    pin.value_bits,
                    pin.weight_bits,
                    pin.samples,
                    pin.clones,
                    pin.truncated,
                    pin.master_events,
                    pin.clone_events,
                    pin.max_backlog,
                );
                assert_eq!(got, want, "{:?} on {threads} thread(s)", pin.knobs);
                assert_eq!(master.events, pin.master_events);
            }
        }
    }
}
