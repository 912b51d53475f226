//! Fixed-capacity descriptor rings.
//!
//! [`SpscRing`] models a NIC hardware descriptor ring: a single producer
//! (the NIC / client port) and a single consumer (the home core's driver
//! loop). Other cores never dequeue from a foreign ring, but ZygOS's idle
//! loop *does* poll foreign ring heads for occupancy before sending an IPI
//! (§5, steps (c)–(d)); [`SpscRing::occupancy`] supports exactly that —
//! a racy-but-safe read usable from any thread.
//!
//! [`MpscRing`] is the remote-batched-syscall channel: many stealing cores
//! produce, the home core consumes (§4.2 step (b)). It wraps `crossbeam`'s
//! MPMC `ArrayQueue` restricted to one consumer. In this workspace that
//! name resolves to the offline shim (`crates/shims/crossbeam`), whose
//! `ArrayQueue` is a `Mutex<VecDeque>`: `push`, `pop`, and also `len` /
//! `is_empty`, take the lock — so an occupancy poll contends with the
//! producers, which the real lock-free queue's would not. The benchmark's
//! `net.ring.mpsc_push_pop_ns` and `core.syscall.ship_drain_ns` time that
//! stand-in (see `docs/OFFLINE_BUILDS.md`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::queue::ArrayQueue;
use crossbeam::utils::CachePadded;

/// A bounded lock-free single-producer / single-consumer ring.
///
/// Capacity is rounded up to a power of two. `push` fails when full (the
/// NIC drops packets when a ring overflows — the paper's systems size rings
/// so this does not happen at the offered loads).
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to write (owned by the producer; read by consumers and
    /// occupancy probes).
    tail: CachePadded<AtomicUsize>,
    /// Next slot to read (owned by the consumer; read by the producer and
    /// occupancy probes).
    head: CachePadded<AtomicUsize>,
}

// SAFETY: The ring transfers `T` values between threads by value; with one
// producer and one consumer, each slot is accessed exclusively between the
// acquire/release pairs on `head`/`tail`. Requiring `T: Send` is therefore
// sufficient for the ring to be shared.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: See above — all shared-slot access is serialized by the
// head/tail protocol; `&SpscRing` only exposes `push` to the single
// producer and `pop` to the single consumer (enforced by protocol, checked
// in debug builds by the occupancy arithmetic).
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.next_power_of_two();
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            buf,
            mask: cap - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to enqueue; returns `Err(value)` when the ring is full.
    ///
    /// Must only be called by the single producer.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.buf.len() {
            return Err(value);
        }
        // SAFETY: `tail - head < capacity`, so slot `tail & mask` is not
        // visible to the consumer (it only reads slots below `tail`), and no
        // other producer exists. Writing MaybeUninit through the UnsafeCell
        // is therefore exclusive.
        unsafe {
            (*self.buf[tail & self.mask].get()).write(value);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Attempts to dequeue; returns `None` when the ring is empty.
    ///
    /// Must only be called by the single consumer.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so the producer has fully initialized slot
        // `head & mask` (release store on `tail` ordered after the write),
        // and no other consumer exists. Reading the value out transfers
        // ownership; the slot is then dead until the producer reuses it.
        let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Racy occupancy estimate, callable from any thread.
    ///
    /// This is the "poll the head of a remote NIC descriptor ring" read of
    /// the ZygOS idle loop. The value may be stale by the time the caller
    /// acts on it — the paper tolerates exactly this (IPIs are hints).
    pub fn occupancy(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.buf.len())
    }

    /// True if the ring currently appears empty (racy, any thread).
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drain remaining initialized slots so their destructors run.
        while self.pop().is_some() {}
    }
}

/// A bounded multi-producer / single-consumer ring (remote syscall channel).
///
/// Every method locks the shim's mutex in offline builds, `len` and
/// `is_empty` included (module docs).
pub struct MpscRing<T> {
    q: ArrayQueue<T>,
}

impl<T> MpscRing<T> {
    /// Creates a ring with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        MpscRing {
            q: ArrayQueue::new(capacity),
        }
    }

    /// Attempts to enqueue from any thread; `Err(value)` when full.
    pub fn push(&self, value: T) -> Result<(), T> {
        self.q.push(value)
    }

    /// Dequeues one element (home core only by convention).
    pub fn pop(&self) -> Option<T> {
        self.q.pop()
    }

    /// Current length (racy).
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when empty (racy).
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spsc_fifo_order() {
        let r = SpscRing::with_capacity(8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert!(r.push(99).is_err(), "ring must report full");
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let r = SpscRing::<u32>::with_capacity(5);
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    fn occupancy_tracks_push_pop() {
        let r = SpscRing::with_capacity(4);
        assert!(r.is_empty());
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.occupancy(), 2);
        r.pop().unwrap();
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn spsc_cross_thread_transfer() {
        let r = Arc::new(SpscRing::with_capacity(1024));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                while pushed < 100_000 {
                    if r.push(pushed).is_ok() {
                        pushed += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < 100_000 {
            if let Some(v) = r.pop() {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn drop_releases_remaining_elements() {
        // Box drops would leak (under Miri / asan) if Drop didn't drain.
        let r = SpscRing::with_capacity(4);
        r.push(Box::new(1u32)).unwrap();
        r.push(Box::new(2u32)).unwrap();
        drop(r);
    }

    #[test]
    fn wraparound_many_times() {
        let r = SpscRing::with_capacity(4);
        for round in 0u64..1000 {
            r.push(round).unwrap();
            assert_eq!(r.pop(), Some(round));
        }
    }

    #[test]
    fn mpsc_many_producers() {
        let r = Arc::new(MpscRing::with_capacity(4096));
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let mut v = p * 1_000_000 + i;
                    loop {
                        match r.push(v) {
                            Ok(()) => break,
                            Err(back) => v = back,
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut per_producer = [0u64; 4];
        let mut count = 0;
        while let Some(v) = r.pop() {
            let p = (v / 1_000_000) as usize;
            let i = v % 1_000_000;
            // Per-producer FIFO: values from one producer arrive in order.
            assert_eq!(i, per_producer[p], "producer {p} out of order");
            per_producer[p] += 1;
            count += 1;
        }
        assert_eq!(count, 4000);
    }
}
