//! Inter-processor interrupt doorbells (paper §4.5, §5).
//!
//! ZygOS sends IPIs for exactly two reasons:
//!
//! 1. **Pending packets**: a remote core saw packets in the home core's NIC
//!    or software queue while its shuffle queue was empty — the home core
//!    must run its network stack to replenish the shuffle queue.
//! 2. **Remote syscalls**: a stealing core enqueued batched syscalls that
//!    only the home core may execute (TX path stays coherency-free).
//!
//! In the paper these are exit-less hardware IPIs (vector 242) whose
//! delivery is *unreliable by design* — "interrupts are used exclusively as
//! hints, the unreliability of delivery impacts tail latency, but not
//! correctness". The live runtime substitutes an atomic doorbell with
//! reason bits plus a `Thread::unpark` kick; the same tolerance applies: a
//! missed doorbell only delays work that the idle loop will find anyway.
//!
//! A third kick is not an IPI of the paper's and is counted apart:
//! [`Doorbell::wake`] unparks a worker because *stealable* work appeared
//! (see [`crate::idle::SleeperSet`]). A polling core needs no such signal —
//! it is the price of parking instead of spinning — so it raises no reason
//! bit and leaves the IPI counters alone.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;

use crate::spinlock::SpinLock;

/// Why an IPI was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiReason {
    /// Pending packets need network-stack processing (idle loop steps c–d).
    PendingPackets = 0,
    /// Remote batched syscalls await execution on the home core.
    RemoteSyscalls = 1,
}

/// The reasons a [`Doorbell::take`] found pending: a `Copy` bit-set, so the
/// IPI handler that runs on every dispatch allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IpiReasons(u64);

impl IpiReasons {
    /// True if `reason` was pending.
    pub fn contains(self, reason: IpiReason) -> bool {
        self.0 & (1 << reason as u64) != 0
    }

    /// Number of distinct pending reasons.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if nothing was pending.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A per-core doorbell: pending-reason bits plus an optional thread handle
/// to kick a parked core. Other cores ring it while its owner polls it, so
/// it owns its cache line (`CACHE_LINE`, 128 bytes).
#[repr(align(128))]
pub struct Doorbell {
    /// Bit `r` set ⇒ reason `r` pending.
    bits: AtomicU64,
    /// Count of doorbells ever rung (telemetry; Figure 8 companion).
    rung: AtomicUsize,
    /// Count of work-conservation wake-ups delivered (not IPIs).
    woken: AtomicUsize,
    /// The target core's thread, once it registered.
    target: SpinLock<Option<Thread>>,
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell::new()
    }
}

impl Doorbell {
    /// Creates an idle doorbell.
    pub fn new() -> Self {
        Doorbell {
            bits: AtomicU64::new(0),
            rung: AtomicUsize::new(0),
            woken: AtomicUsize::new(0),
            target: SpinLock::new(None),
        }
    }

    /// Registers the thread that services this doorbell (its home core).
    pub fn register_target(&self, t: Thread) {
        *self.target.lock() = Some(t);
    }

    /// Rings the doorbell for `reason`.
    ///
    /// Returns `true` if this call set a previously clear bit (i.e. the
    /// caller is the one "sending the IPI"; duplicates are coalesced just
    /// like a pending hardware interrupt line).
    pub fn ring(&self, reason: IpiReason) -> bool {
        let bit = 1u64 << (reason as u64);
        let prev = self.bits.fetch_or(bit, Ordering::AcqRel);
        let newly_set = prev & bit == 0;
        if newly_set {
            self.rung.fetch_add(1, Ordering::Relaxed);
            self.unpark_target();
        }
        newly_set
    }

    /// Kicks the target if it parked. Unpark on a running thread is cheap
    /// and harmless; a lost wakeup is tolerated by design.
    fn unpark_target(&self) {
        if let Some(t) = self.target.lock().as_ref() {
            t.unpark();
        }
    }

    /// Unparks the target because stealable work appeared. Raises no
    /// reason and is not coalesced: the caller has claimed the target from
    /// the [`SleeperSet`](crate::idle::SleeperSet), which is what keeps two
    /// producers from waking the same worker twice.
    pub fn wake(&self) {
        self.woken.fetch_add(1, Ordering::Relaxed);
        self.unpark_target();
    }

    /// Atomically takes and clears all pending reasons (the IPI handler).
    /// An empty doorbell is only read, so polling it leaves its line
    /// shared with the cores that ring it.
    pub fn take(&self) -> IpiReasons {
        if self.bits.load(Ordering::Acquire) == 0 {
            return IpiReasons::default();
        }
        IpiReasons(self.bits.swap(0, Ordering::AcqRel))
    }

    /// The pending reasons, left pending.
    pub fn pending(&self) -> IpiReasons {
        IpiReasons(self.bits.load(Ordering::Acquire))
    }

    /// True if any reason is pending (checked at safepoints).
    pub fn any_pending(&self) -> bool {
        self.bits.load(Ordering::Acquire) != 0
    }

    /// Total distinct doorbell rings so far.
    pub fn rung_count(&self) -> usize {
        self.rung.load(Ordering::Relaxed)
    }

    /// Total work-conservation wake-ups delivered so far.
    pub fn wake_count(&self) -> usize {
        self.woken.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_sets_and_take_clears() {
        let d = Doorbell::new();
        assert!(!d.any_pending());
        assert!(d.ring(IpiReason::PendingPackets));
        assert!(d.any_pending());
        assert!(d.pending().contains(IpiReason::PendingPackets));
        assert!(!d.pending().contains(IpiReason::RemoteSyscalls));
        let taken = d.take();
        assert!(taken.contains(IpiReason::PendingPackets));
        assert_eq!(taken.len(), 1);
        assert!(!d.any_pending());
        assert!(d.take().is_empty());
    }

    #[test]
    fn duplicate_rings_coalesce() {
        let d = Doorbell::new();
        assert!(d.ring(IpiReason::RemoteSyscalls));
        assert!(!d.ring(IpiReason::RemoteSyscalls), "second ring coalesced");
        assert_eq!(d.rung_count(), 1);
        let taken = d.take();
        assert!(taken.contains(IpiReason::RemoteSyscalls));
        assert!(!taken.contains(IpiReason::PendingPackets));
    }

    #[test]
    fn both_reasons_delivered_together() {
        let d = Doorbell::new();
        d.ring(IpiReason::RemoteSyscalls);
        d.ring(IpiReason::PendingPackets);
        let reasons = d.take();
        assert_eq!(reasons.len(), 2);
        assert!(reasons.contains(IpiReason::PendingPackets));
        assert!(reasons.contains(IpiReason::RemoteSyscalls));
    }

    #[test]
    fn unparks_parked_target() {
        let d = Arc::new(Doorbell::new());
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || {
            d2.register_target(std::thread::current());
            while !d2.any_pending() {
                std::thread::park_timeout(std::time::Duration::from_millis(50));
            }
            d2.take()
        });
        // Give the waiter a moment to register and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        d.ring(IpiReason::PendingPackets);
        let got = waiter.join().unwrap();
        assert!(got.contains(IpiReason::PendingPackets));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn a_doorbell_owns_its_cache_line() {
        // Remote cores ring it on every RPC they hand over; sharing a line
        // with the next core's doorbell would make each ring evict that
        // core's polled line too.
        assert_eq!(align_of::<Doorbell>() % crate::CACHE_LINE, 0);
        assert_eq!(size_of::<Doorbell>() % crate::CACHE_LINE, 0);
    }

    #[test]
    fn wake_is_not_an_ipi() {
        let d = Doorbell::new();
        d.wake();
        assert_eq!(d.wake_count(), 1);
        assert_eq!(d.rung_count(), 0);
        assert!(!d.any_pending());
        assert!(d.take().is_empty());
    }

    #[test]
    fn concurrent_ringers_count_once_per_set() {
        let d = Arc::new(Doorbell::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        d.ring(IpiReason::PendingPackets);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // At least one ring registered, and takes observed ≤ rings.
        assert!(d.rung_count() >= 1);
        assert!(d.rung_count() <= 8000);
    }
}
