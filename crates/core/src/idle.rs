//! The idle-loop polling policy (paper §5, "Idle loop polling logic").
//!
//! A core is idle when its shuffle queue, remote-syscall queue and software
//! packet queue are all empty. It then polls, in priority order:
//!
//! 1. the head of **its own** NIC hardware descriptor ring,
//! 2. the shuffle queue of every other core (steal a ready connection),
//! 3. the unprocessed software packet queue of every other core,
//! 4. the NIC hardware descriptor ring of every other core.
//!
//! For steps 2–4 the victim order is **randomized** each sweep to avoid
//! systematic bias toward low-numbered cores. Finding work in steps 3–4
//! cannot be acted on directly (the network stack only runs on the home
//! core): the idle core instead sends an IPI to the home core.
//!
//! This module is pure policy: it computes the polling sequence; the
//! runtime and simulator supply the actual probes.
//!
//! A live worker cannot poll forever on a shared host: when a sweep finds
//! nothing it polls for about one wake-up's cost, then parks.
//! [`SleeperSet`] is the idle/wake protocol that keeps the runtime
//! work-conserving all the same.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::doorbell::Doorbell;

/// One probe the idle loop should perform, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollTarget {
    /// Poll our own NIC hardware ring (step 1).
    OwnHwRing,
    /// Try to steal from this core's shuffle queue (step 2).
    RemoteShuffle(usize),
    /// Check this core's software packet queue; IPI if non-empty (step 3).
    RemoteSwQueue(usize),
    /// Check this core's NIC hardware ring; IPI if non-empty (step 4).
    RemoteHwRing(usize),
}

/// Generates idle-loop polling sequences for one core.
///
/// Keeps a reusable victim permutation buffer to avoid per-sweep
/// allocation; reshuffles it with the caller-provided RNG every sweep.
pub struct IdlePolicy {
    me: usize,
    victims: Vec<usize>,
}

impl IdlePolicy {
    /// Creates the policy for core `me` out of `n_cores`.
    ///
    /// # Panics
    ///
    /// Panics if `me >= n_cores`.
    pub fn new(me: usize, n_cores: usize) -> Self {
        assert!(me < n_cores, "core index out of range");
        IdlePolicy {
            me,
            victims: (0..n_cores).filter(|&c| c != me).collect(),
        }
    }

    /// This core's index.
    pub fn core(&self) -> usize {
        self.me
    }

    /// Produces one full polling sweep, randomizing the victim order with
    /// `shuffle` (a Fisher–Yates step supplied by the caller so both the
    /// deterministic simulator and the live runtime can drive it). The
    /// sweep borrows the permutation buffer; nothing is allocated.
    pub fn sweep(
        &mut self,
        shuffle: impl FnOnce(&mut [usize]),
    ) -> impl Iterator<Item = PollTarget> + '_ {
        shuffle(&mut self.victims);
        let victims = &self.victims;
        std::iter::once(PollTarget::OwnHwRing)
            .chain(victims.iter().map(|&v| PollTarget::RemoteShuffle(v)))
            .chain(victims.iter().map(|&v| PollTarget::RemoteSwQueue(v)))
            .chain(victims.iter().map(|&v| PollTarget::RemoteHwRing(v)))
    }
}

/// The workers that are parked (or about to park) and can be woken to
/// take shared work: one bit per worker, the live twin of the simulator's
/// idle `CoreMask`s and its `wake_idle()`.
///
/// The paper's idle cores poll remote shuffle queues continuously, so a
/// ready connection is seen within a poll. A worker on a shared host polls
/// only briefly and then parks, and something must tell it that stealable
/// work appeared. The protocol is the two-sided flag handshake:
///
/// * **sleeper**: [`publish`](SleeperSet::publish), then re-check every
///   queue it could serve; if one is non-empty, [`cancel`](SleeperSet::cancel)
///   and serve it, otherwise park and `cancel` after waking;
/// * **producer**: make the work visible, then
///   [`wake_one`](SleeperSet::wake_one).
///
/// Both sides issue a `SeqCst` fence between their write and their read
/// (`publish` after setting the bit, `wake_one` before loading the set),
/// so at least one of them sees the other: either the sleeper's re-check
/// finds the work, or the producer finds the sleeper. A wake-up is never
/// lost; a spurious one (the sleeper found the work by itself) costs one
/// pass over the loop.
pub struct SleeperSet {
    words: Vec<AtomicU64>,
}

impl SleeperSet {
    /// Creates an empty set over `n_workers` workers.
    pub fn new(n_workers: usize) -> Self {
        SleeperSet {
            words: (0..n_workers.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Publishes `worker` as about to park. The caller must re-check its
    /// queues afterwards and [`cancel`](SleeperSet::cancel) instead of
    /// parking if any holds work.
    pub fn publish(&self, worker: usize) {
        self.words[worker >> 6].fetch_or(1 << (worker & 63), Ordering::AcqRel);
        // Pairs with the fence in `wake_one` (see the type's docs).
        fence(Ordering::SeqCst);
    }

    /// Withdraws `worker` (it found work, or it woke up). Idempotent: a
    /// producer may have claimed the worker already.
    pub fn cancel(&self, worker: usize) {
        self.words[worker >> 6].fetch_and(!(1 << (worker & 63)), Ordering::AcqRel);
    }

    /// True if `worker` is published and unclaimed (racy).
    #[cfg(test)]
    fn contains(&self, worker: usize) -> bool {
        self.words[worker >> 6].load(Ordering::Relaxed) & (1 << (worker & 63)) != 0
    }

    /// Claims one published worker other than `except` among workers
    /// `0..limit` (workers at or above `limit` are revoked and must not be
    /// woken to steal), withdraws it from the set and unparks it through
    /// its doorbell. Returns the worker woken, `None` if nobody eligible is
    /// parked — then the cost is one fence and one load per 64 workers.
    ///
    /// Call *after* the work is visible to a worker that looks for it.
    pub fn wake_one(&self, except: usize, limit: usize, doorbells: &[Doorbell]) -> Option<usize> {
        // Pairs with the fence in `publish` (see the type's docs).
        fence(Ordering::SeqCst);
        for (wi, word) in self.words.iter().enumerate() {
            let base = wi << 6;
            if base >= limit {
                break;
            }
            let mut eligible = match limit - base {
                n if n >= 64 => u64::MAX,
                n => (1u64 << n) - 1,
            };
            if except >> 6 == wi {
                eligible &= !(1 << (except & 63));
            }
            loop {
                let parked = word.load(Ordering::Relaxed) & eligible;
                if parked == 0 {
                    break;
                }
                let bit = parked & parked.wrapping_neg();
                // Whoever clears the bit owns the wake-up: a concurrent
                // producer or the sleeper's own `cancel` may win instead.
                if word.fetch_and(!bit, Ordering::AcqRel) & bit != 0 {
                    let worker = base + bit.trailing_zeros() as usize;
                    doorbells[worker].wake();
                    return Some(worker);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn identity(_: &mut [usize]) {}

    fn sweep_of(p: &mut IdlePolicy, shuffle: impl FnOnce(&mut [usize])) -> Vec<PollTarget> {
        p.sweep(shuffle).collect()
    }

    #[test]
    fn sweep_structure_preserves_priority_order() {
        let mut p = IdlePolicy::new(1, 4);
        let sweep = sweep_of(&mut p, identity);
        assert_eq!(sweep.len(), 1 + 3 * 3);
        assert_eq!(sweep[0], PollTarget::OwnHwRing);
        // All shuffle probes precede all sw-queue probes precede all
        // hw-ring probes.
        let phase = |t: &PollTarget| match t {
            PollTarget::OwnHwRing => 0,
            PollTarget::RemoteShuffle(_) => 1,
            PollTarget::RemoteSwQueue(_) => 2,
            PollTarget::RemoteHwRing(_) => 3,
        };
        for w in sweep.windows(2) {
            assert!(phase(&w[0]) <= phase(&w[1]), "priority order violated");
        }
    }

    #[test]
    fn never_polls_self_remotely() {
        let mut p = IdlePolicy::new(2, 8);
        for t in p.sweep(identity) {
            match t {
                PollTarget::RemoteShuffle(v)
                | PollTarget::RemoteSwQueue(v)
                | PollTarget::RemoteHwRing(v) => assert_ne!(v, 2),
                PollTarget::OwnHwRing => {}
            }
        }
    }

    #[test]
    fn each_victim_probed_once_per_phase() {
        let mut p = IdlePolicy::new(0, 16);
        let mut shuffle_victims: Vec<usize> = p
            .sweep(identity)
            .filter_map(|t| match t {
                PollTarget::RemoteShuffle(v) => Some(v),
                _ => None,
            })
            .collect();
        shuffle_victims.sort_unstable();
        assert_eq!(shuffle_victims, (1..16).collect::<Vec<_>>());
    }

    #[test]
    fn caller_shuffle_controls_order() {
        let mut p = IdlePolicy::new(0, 4);
        let reversed = |v: &mut [usize]| v.reverse();
        let sweep = sweep_of(&mut p, reversed);
        // Victims were [1,2,3]; reversed → [3,2,1].
        assert_eq!(sweep[1], PollTarget::RemoteShuffle(3));
        assert_eq!(sweep[2], PollTarget::RemoteShuffle(2));
        assert_eq!(sweep[3], PollTarget::RemoteShuffle(1));
    }

    #[test]
    fn single_core_sweep_is_just_own_ring() {
        let mut p = IdlePolicy::new(0, 1);
        assert_eq!(sweep_of(&mut p, identity), vec![PollTarget::OwnHwRing]);
    }

    fn doorbells(n: usize) -> Vec<Doorbell> {
        (0..n).map(|_| Doorbell::new()).collect()
    }

    #[test]
    fn publish_recheck_cancel() {
        let set = SleeperSet::new(4);
        assert!(!set.contains(2));
        set.publish(2);
        assert!(set.contains(2));
        // The re-check found work: withdraw instead of parking.
        set.cancel(2);
        assert!(!set.contains(2));
        set.cancel(2); // Idempotent.
        assert_eq!(set.wake_one(0, 4, &doorbells(4)), None);
    }

    #[test]
    fn wake_one_picks_a_sleeper_and_skips_the_caller() {
        let set = SleeperSet::new(4);
        let bells = doorbells(4);
        set.publish(1);
        set.publish(3);
        // The caller is never its own target, even if published.
        assert_eq!(set.wake_one(1, 4, &bells), Some(3));
        assert_eq!(bells[3].wake_count(), 1);
        assert!(!set.contains(3), "a claimed sleeper leaves the set");
        assert!(set.contains(1));
        assert_eq!(set.wake_one(1, 4, &bells), None);
        assert_eq!(set.wake_one(0, 4, &bells), Some(1));
        assert_eq!(bells[1].wake_count(), 1);
        assert_eq!(bells[0].wake_count() + bells[2].wake_count(), 0);
    }

    #[test]
    fn empty_set_rings_nothing() {
        let set = SleeperSet::new(3);
        let bells = doorbells(3);
        assert_eq!(set.wake_one(0, 3, &bells), None);
        for b in &bells {
            assert_eq!(b.wake_count(), 0);
            assert_eq!(b.rung_count(), 0, "a wake-up is not an IPI");
            assert!(!b.any_pending());
        }
    }

    #[test]
    fn workers_at_or_above_the_limit_are_never_woken() {
        // Elastic mode: workers `limit..` are revoked. They may still be
        // in the set (revoked while asleep) and must stay asleep.
        let set = SleeperSet::new(130);
        let bells = doorbells(130);
        for w in [2, 64, 129] {
            set.publish(w);
        }
        assert_eq!(set.wake_one(0, 2, &bells), None);
        assert_eq!(set.wake_one(0, 64, &bells), Some(2));
        assert_eq!(set.wake_one(0, 129, &bells), Some(64));
        assert_eq!(set.wake_one(0, 129, &bells), None);
        assert!(set.contains(129));
        assert_eq!(bells[129].wake_count(), 0);
        assert_eq!(set.wake_one(0, 130, &bells), Some(129));
    }

    #[test]
    fn no_wake_up_is_lost() {
        // The sleeper parks with a multi-second timeout, so a wake-up the
        // protocol loses shows as a round that takes seconds (the 100 µs
        // nap of the runtime would mask it). The producer publishes work
        // and calls `wake_one`; the `ack` only keeps the rounds in step
        // and never unparks anybody.
        const ROUNDS: usize = 20_000;
        const PARK: Duration = Duration::from_secs(4);
        let set = Arc::new(SleeperSet::new(2));
        let bells: Arc<Vec<Doorbell>> = Arc::new(doorbells(2));
        let work = Arc::new(AtomicUsize::new(0));
        let ack = Arc::new(AtomicUsize::new(0));
        let sleeper = {
            let (set, bells) = (Arc::clone(&set), Arc::clone(&bells));
            let (work, ack) = (Arc::clone(&work), Arc::clone(&ack));
            std::thread::spawn(move || {
                bells[1].register_target(std::thread::current());
                let mut slowest = Duration::ZERO;
                for round in 1..=ROUNDS {
                    let t0 = Instant::now();
                    loop {
                        set.publish(1);
                        if work.load(Ordering::Acquire) >= round {
                            set.cancel(1);
                            break;
                        }
                        std::thread::park_timeout(PARK);
                        set.cancel(1);
                    }
                    slowest = slowest.max(t0.elapsed());
                    ack.store(round, Ordering::Release);
                }
                slowest
            })
        };
        for round in 1..=ROUNDS {
            // Vary where in the sleeper's publish / re-check / park
            // sequence the work lands: odd rounds race the publish, even
            // rounds let the sleeper get as far as parking.
            if round % 2 == 0 {
                while !set.contains(1) {
                    std::hint::spin_loop();
                }
            }
            for _ in 0..(round * 7) % 211 {
                std::hint::spin_loop();
            }
            work.store(round, Ordering::Release);
            set.wake_one(0, 2, &bells);
            while ack.load(Ordering::Acquire) < round {
                std::thread::yield_now();
            }
        }
        let slowest = sleeper.join().expect("sleeper");
        assert!(
            slowest < PARK / 2,
            "a round took {slowest:?}: a wake-up was lost and the park timed out"
        );
    }
}
