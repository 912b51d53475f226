//! The fixed-capacity ring under every live queue.
//!
//! [`MpscRing`] is Vyukov's bounded array queue: a power-of-two array of
//! slots, each carrying a sequence number that says whose turn the slot
//! is. The live runtime uses it for the per-core ingress rings (the
//! client port produces, the home core consumes — the NIC's descriptor
//! ring), for the remote-syscall channels (many stealing cores produce,
//! the home core consumes; §4.2 step (b)) and, inside `zygos-runtime`,
//! for the response queue back to the client. No operation takes a lock:
//!
//! * `push` claims slot `tail` with a CAS on `tail`, writes the value and
//!   publishes it by storing `tail + 1` into the slot's sequence number;
//! * `pop` claims slot `head` with a CAS on `head` once the slot is
//!   published, reads the value and hands the slot to the next lap by
//!   storing `head + capacity`;
//! * `len` / `is_empty` are two atomic loads, so the ZygOS idle loop can
//!   poll a foreign ring's occupancy (§5, steps (c)–(d)) without
//!   contending with its producers. A slot that a producer has claimed
//!   but not yet published counts as occupied, although `pop` cannot take
//!   it yet.
//!
//! Because `pop` claims its slot with a CAS too, the safe API is sound
//! from any number of threads; the runtime still gives each ring one
//! consumer, which is what makes per-producer FIFO order per-consumer
//! order as well. The benchmark's `net.ring.mpsc_push_pop_ns` and
//! `core.syscall.ship_drain_ns` time this ring.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;

/// One ring slot: the value and the sequence number that hands the slot
/// between producers and consumers.
struct Slot<T> {
    /// `pos` when the slot is free for the producer of position `pos`;
    /// `pos + 1` once that producer has published its value.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer ring (module docs).
///
/// The capacity is rounded up to a power of two, and to at least 2: the
/// sequence numbers of a one-slot ring could not tell a published value
/// from the next lap's free slot.
pub struct MpscRing<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    /// Next position to claim for a push.
    tail: CachePadded<AtomicUsize>,
    /// Next position to claim for a pop.
    head: CachePadded<AtomicUsize>,
}

// SAFETY: the ring moves `T` values between threads by value and never
// hands out a `&T`. A slot's value is written only by the producer whose
// CAS on `tail` claimed it and read only by the consumer whose CAS on
// `head` claimed it, and the release/acquire pair on the slot's `seq`
// orders the write before the read and the read before the next lap's
// write. Every other field is an atomic or is never written after
// construction (`buf`'s length, `mask`). `T: Send` is therefore all
// sharing the ring needs.
unsafe impl<T: Send> Send for MpscRing<T> {}
// SAFETY: see above; every shared access to a slot's value is serialized
// by the claim-then-publish protocol on `seq`.
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// Creates a ring holding at least `capacity` elements (rounded up to
    /// a power of two, at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|pos| Slot {
                seq: AtomicUsize::new(pos),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpscRing {
            buf,
            mask: cap - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Usable capacity (the requested one, rounded up).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Enqueues from any thread; `Err(value)` when the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let lag = (seq as isize).wrapping_sub(pos as isize);
            if lag == 0 {
                // SeqCst (free on x86, where every RMW is a full barrier)
                // keeps `len`'s two loads from reading `head` past `tail`.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this producer the only owner
                        // of position `pos`; `seq == pos` says the previous
                        // lap's consumer has moved the old value out.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if lag < 0 {
                // The slot still holds the value of the previous lap.
                return Err(value);
            } else {
                // Another producer claimed `pos` first.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest published element; `None` when the ring is
    /// empty or its head slot is claimed but not yet published.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let lag = (seq as isize).wrapping_sub(pos.wrapping_add(1) as isize);
            if lag == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this consumer the only owner
                        // of position `pos`, and `seq == pos + 1` (acquire)
                        // says its producer's write is complete and visible.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.buf.len()), Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => pos = now,
                }
            } else if lag < 0 {
                return None;
            } else {
                // Another consumer took `pos` first.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Claimed slots not yet popped, racy, from any thread. Two loads:
    /// `head` first, so `tail` cannot read behind it.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        tail.wrapping_sub(head).min(self.buf.len())
    }

    /// True when no slot is claimed (racy, any thread).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Move out what is left so the destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let r = MpscRing::with_capacity(8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(MpscRing::<u32>::with_capacity(5).capacity(), 8);
        assert_eq!(MpscRing::<u32>::with_capacity(8).capacity(), 8);
        assert_eq!(MpscRing::<u32>::with_capacity(1).capacity(), 2);
    }

    #[test]
    fn push_fails_at_exactly_the_rounded_capacity() {
        for asked in [1, 2, 3, 5, 8, 100] {
            let r = MpscRing::with_capacity(asked);
            let cap = r.capacity();
            for i in 0..cap {
                assert_eq!(r.push(i), Ok(()), "asked {asked}: push {i} of {cap}");
            }
            assert_eq!(r.push(cap), Err(cap), "asked {asked}: ring of {cap} full");
            assert_eq!(r.len(), cap);
            // One pop frees exactly one slot.
            assert_eq!(r.pop(), Some(0));
            assert_eq!(r.push(cap), Ok(()));
            assert_eq!(r.push(cap + 1), Err(cap + 1));
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let r = MpscRing::with_capacity(4);
        assert!(r.is_empty());
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.len(), 2);
        r.pop().unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn wraparound_many_times() {
        let r = MpscRing::with_capacity(4);
        for round in 0u64..1000 {
            r.push(round).unwrap();
            r.push(round + 1).unwrap();
            assert_eq!(r.pop(), Some(round));
            assert_eq!(r.pop(), Some(round + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn drop_releases_remaining_elements() {
        let value = Arc::new(());
        let r = MpscRing::with_capacity(8);
        for _ in 0..5 {
            r.push(Arc::clone(&value)).unwrap();
        }
        // Two popped and dropped, three left in the ring.
        r.pop().unwrap();
        r.pop().unwrap();
        assert_eq!(Arc::strong_count(&value), 4);
        drop(r);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_each_value_once_in_order() {
        // 3 producers, 2 consumers and a thread polling the occupancy, on
        // a ring small enough to be full and empty many times over.
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 100_000 / PRODUCERS + 1;
        let r = Arc::new(MpscRing::with_capacity(8));
        let done = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = (p << 32) | i;
                        while let Err(back) = r.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (r, done) = (Arc::clone(&r), Arc::clone(&done));
                std::thread::spawn(move || {
                    // Each consumer sees each producer's values in order.
                    let mut next = [0u64; PRODUCERS as usize];
                    let mut got = Vec::new();
                    loop {
                        match r.pop() {
                            Some(v) => {
                                let (p, i) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
                                assert!(i >= next[p], "producer {p}: {i} after {}", next[p]);
                                next[p] = i + 1;
                                got.push(v);
                            }
                            None if done.load(Ordering::Acquire) && r.is_empty() => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        let poller = {
            let (r, done) = (Arc::clone(&r), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    assert!(r.len() <= r.capacity());
                    std::hint::black_box(r.is_empty());
                    std::thread::yield_now();
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        poller.join().unwrap();
        all.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p << 32) | i))
            .collect();
        assert_eq!(all.len(), want.len());
        assert!(all == want, "every value arrives exactly once");
        assert!(r.is_empty());
    }
}
