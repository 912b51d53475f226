//! The response queue: how responses reach the client port.
//!
//! Every worker produces responses (eagerly for its own connections, and
//! for the stolen batches shipped home to it); the client port consumes
//! them. The queue is an [`MpscRing`] of `ring_capacity` slots, backed by
//! a mutexed spill that only a push onto a full ring touches, so a
//! response never blocks its worker: a client that sends thousands of
//! requests before it reads any would otherwise spin on a full ingress
//! ring while the workers spin on a full response ring.
//!
//! Per-connection order (§4.3) survives the two paths by two rules:
//!
//! * a producer pushes onto the ring only while the spill is empty, so a
//!   response never overtakes an older one waiting in the spill;
//! * the consumer takes from the spill only when the ring's
//!   [`len`](MpscRing::len) is 0 — not merely when `pop` finds nothing —
//!   because another producer's claimed-but-unpublished slot can stand in
//!   front of an older response of the same connection.
//!
//! A client that finds nothing snoozes on upstream crossbeam's `Backoff`
//! schedule (spin `2^step` times for steps 0–6, then yield, up to step
//! 10, trying the queue after each), then parks. Parking and pushing pair
//! up like the workers' `SleeperSet`: the client stores its thread, sets
//! `waiting`, issues a SeqCst fence and re-checks the queue before it
//! parks; a producer issues a SeqCst fence after its push and unparks the
//! client only when it finds `waiting` set. One receiving thread at a time
//! is assumed: a second concurrent receiver may sleep to its deadline.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use zygos_core::spinlock::SpinLock;
use zygos_net::ring::MpscRing;

/// Backoff steps that spin `2^step` times before the first yield.
const SPIN_LIMIT: u32 = 6;
/// Last backoff step; past it the receiver parks.
const YIELD_LIMIT: u32 = 10;

pub(crate) struct ResponseQueue<T> {
    ring: MpscRing<T>,
    /// Responses pushed while the ring was full, or while older ones were
    /// still here.
    spill: Mutex<VecDeque<T>>,
    /// `spill.len()`, readable without the lock; changed only under it.
    /// Its release updates pair with the acquire loads in `push` and
    /// `pop`, so a reader that sees a count also sees what happened
    /// before that spill push or pop (the order argument in the module
    /// docs).
    spilled: AtomicUsize,
    /// Set by a receiver about to park; cleared by the producer that
    /// wakes it or by the receiver when it runs again.
    waiting: AtomicBool,
    /// The parked receiver's thread. Locked only by a receiver on its way
    /// to park and by a producer that found `waiting` set.
    waiter: SpinLock<Option<Thread>>,
}

impl<T> ResponseQueue<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ResponseQueue {
            ring: MpscRing::with_capacity(capacity),
            spill: Mutex::new(VecDeque::new()),
            spilled: AtomicUsize::new(0),
            waiting: AtomicBool::new(false),
            waiter: SpinLock::new(None),
        }
    }

    /// Enqueues from any thread without blocking, then wakes a parked
    /// receiver.
    pub(crate) fn push(&self, value: T) {
        let full = if self.spilled.load(Ordering::Acquire) == 0 {
            self.ring.push(value).err()
        } else {
            Some(value)
        };
        if let Some(value) = full {
            let mut spill = self.spill();
            spill.push_back(value);
            self.spilled.fetch_add(1, Ordering::Release);
            drop(spill);
        }
        self.wake();
    }

    fn spill(&self) -> MutexGuard<'_, VecDeque<T>> {
        // A panic under this lock cannot leave the deque half-updated, and
        // `spilled` moves only after the deque did: recovering is safe.
        self.spill.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Unparks the receiver if it is parked or about to park: after a
    /// push, and when the server stops.
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.waiting.load(Ordering::Relaxed) && self.waiting.swap(false, Ordering::Relaxed) {
            if let Some(t) = self.waiter.lock().as_ref() {
                t.unpark();
            }
        }
    }

    /// Takes the oldest response. `None` when the queue is empty, and also
    /// while a response spilled but the ring still holds a claimed slot
    /// that is not yet published: its producer wakes the receiver after
    /// publishing, so the caller simply tries again.
    pub(crate) fn pop(&self) -> Option<T> {
        if let Some(v) = self.ring.pop() {
            return Some(v);
        }
        if self.spilled.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut spill = self.spill();
        if !self.ring.is_empty() {
            return None;
        }
        let v = spill.pop_front()?;
        self.spilled.fetch_sub(1, Ordering::Release);
        Some(v)
    }

    /// Queued responses (racy).
    pub(crate) fn len(&self) -> usize {
        self.ring.len() + self.spilled.load(Ordering::Relaxed)
    }

    /// Takes the oldest response, waiting up to `timeout` (counted from
    /// entry); `None` on timeout, or once `stop` is set and the queue is
    /// empty.
    pub(crate) fn recv_timeout(&self, timeout: Duration, stop: &AtomicBool) -> Option<T> {
        let deadline = Instant::now() + timeout;
        for step in 0..=YIELD_LIMIT {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            if step <= SPIN_LIMIT {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        loop {
            if let Some(v) = self.pop() {
                return Some(v);
            }
            let now = Instant::now();
            if stop.load(Ordering::Acquire) || now >= deadline {
                return None;
            }
            *self.waiter.lock() = Some(std::thread::current());
            self.waiting.store(true, Ordering::Relaxed);
            // Pairs with the fence in `wake`: either the producer sees
            // `waiting`, or this re-check sees its response (or `stop`).
            fence(Ordering::SeqCst);
            let found = self.pop();
            if found.is_some() || stop.load(Ordering::Relaxed) {
                self.waiting.store(false, Ordering::Relaxed);
                return found;
            }
            std::thread::park_timeout(deadline - now);
            self.waiting.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_full_ring_spills_and_each_producers_order_holds() {
        // A two-slot ring under two producers: most pushes spill while the
        // consumer drains ring and spill concurrently.
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(ResponseQueue::with_capacity(2));
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push((p << 32) | i);
                    }
                })
            })
            .collect();
        // Nothing consumes yet, so the ring fills and the spill grows.
        while q.spilled.load(Ordering::Acquire) == 0 {
            std::hint::spin_loop();
        }
        let mut next = [0u64; 2];
        let never = AtomicBool::new(false);
        while next.iter().sum::<u64>() < 2 * PER_PRODUCER {
            let v = q
                .recv_timeout(Duration::from_secs(10), &never)
                .expect("every push arrives");
            let (p, i) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
            assert_eq!(i, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        for p in producers {
            p.join().unwrap();
        }
        // Only the consumer's spill branch takes from the spill.
        assert_eq!(
            q.spilled.load(Ordering::Relaxed),
            0,
            "a spilled response is lost"
        );
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_parked_receiver_is_woken_by_a_push() {
        let q = Arc::new(ResponseQueue::with_capacity(4));
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                q.push(7u32);
            })
        };
        let t = Instant::now();
        let got = q.recv_timeout(Duration::from_secs(10), &AtomicBool::new(false));
        let took = t.elapsed();
        assert_eq!(got, Some(7));
        assert!(took < Duration::from_secs(1), "woken after {took:?}");
        pusher.join().unwrap();
    }

    #[test]
    fn timeouts_hold_after_the_backoff() {
        let q = ResponseQueue::<u32>::with_capacity(4);
        let never = AtomicBool::new(false);
        for timeout in [
            Duration::ZERO,
            Duration::from_millis(1),
            Duration::from_millis(20),
        ] {
            let t = Instant::now();
            assert_eq!(q.recv_timeout(timeout, &never), None);
            let took = t.elapsed();
            assert!(took >= timeout, "{timeout:?} timed out after {took:?}");
            assert!(
                took < timeout + Duration::from_millis(500),
                "{timeout:?} timed out after {took:?}"
            );
        }
    }
}
