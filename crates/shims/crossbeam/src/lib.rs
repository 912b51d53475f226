//! Offline stand-in for `crossbeam`.
//!
//! Provides the subset this workspace uses — `queue::ArrayQueue`,
//! `utils::CachePadded`, and `channel::{unbounded, Sender, Receiver}` —
//! with the same observable semantics (bounded MPMC FIFO, cacheline-aligned
//! wrapper, cloneable unbounded MPMC channel). The implementations favor
//! simplicity over lock-freedom: correctness tests, not throughput, are
//! what the workspace exercises through these types, and the hot SPSC path
//! in `zygos-net` is hand-written rather than delegated here.

/// Bounded queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// A bounded MPMC FIFO queue.
    pub struct ArrayQueue<T> {
        inner: Mutex<VecDeque<T>>,
        cap: usize,
    }

    impl<T> ArrayQueue<T> {
        /// Creates a queue with the given capacity.
        ///
        /// # Panics
        ///
        /// Panics if `cap == 0`.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be positive");
            ArrayQueue {
                inner: Mutex::new(VecDeque::with_capacity(cap)),
                cap,
            }
        }

        /// Attempts to enqueue; returns `Err(value)` when full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            if q.len() >= self.cap {
                Err(value)
            } else {
                q.push_back(value);
                Ok(())
            }
        }

        /// Dequeues the oldest element.
        pub fn pop(&self) -> Option<T> {
            self.inner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front()
        }

        /// Current length (racy).
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|p| p.into_inner()).len()
        }

        /// True when empty (racy).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Maximum capacity.
        pub fn capacity(&self) -> usize {
            self.cap
        }
    }
}

/// Utility types.
pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Aligns the wrapped value to a cache line to prevent false sharing.
    #[derive(Default, Debug)]
    #[repr(align(128))]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        /// Wraps a value.
        pub const fn new(value: T) -> Self {
            CachePadded(value)
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<ChanState<T>>,
        ready: Condvar,
    }

    struct ChanState<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv_timeout` right now. A send notifies
        /// only when this is non-zero: `Condvar::notify_one` is a futex
        /// system call in std whether or not anybody waits.
        waiting: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders are gone and the queue is empty.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(ChanState {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting: 0,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Sends a message; fails only when every receiver has dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.items.push_back(value);
            // Read under the lock a waiter holds until it is inside
            // `wait_timeout`, so a receiver that is about to block is
            // either counted here or sees the item.
            let blocked = st.waiting > 0;
            drop(st);
            if blocked {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    /// Backoff steps that spin `2^step` times before the first yield.
    const SPIN_LIMIT: u32 = 6;
    /// Last backoff step; past it the receiver blocks.
    const YIELD_LIMIT: u32 = 10;

    impl<T> Receiver<T> {
        /// Receives a message, waiting up to `timeout`.
        ///
        /// Like upstream, the receiver snoozes before it blocks: it tries
        /// the queue, spins `2^step` times for steps 0–6, then yields, up
        /// to step 10, trying the queue again after each. A message that
        /// arrives within those few microseconds costs neither side a
        /// futex call. The deadline counts from entry.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            for step in 0..=YIELD_LIMIT {
                if let Some(v) = self.try_recv() {
                    return Ok(v);
                }
                if step <= SPIN_LIMIT {
                    for _ in 0..1u32 << step {
                        std::hint::spin_loop();
                    }
                } else {
                    std::thread::yield_now();
                }
            }
            let mut st = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.waiting += 1;
                let (guard, _t) = self
                    .0
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
                st.waiting -= 1;
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Option<T> {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .items
                .pop_front()
        }

        /// Number of queued messages (racy).
        pub fn len(&self) -> usize {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .items
                .len()
        }

        /// True when no messages are queued (racy).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use super::queue::ArrayQueue;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn array_queue_bounded_fifo() {
        let q = ArrayQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn channel_roundtrip_and_timeout() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn timeouts_hold_after_the_backoff() {
        let (_tx, rx) = unbounded::<u32>();
        for timeout in [Duration::ZERO, Duration::from_millis(1)] {
            let t = Instant::now();
            assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
            let took = t.elapsed();
            assert!(took >= timeout, "{timeout:?} timed out after {took:?}");
            assert!(
                took < timeout + Duration::from_millis(100),
                "{timeout:?} timed out after {took:?}"
            );
        }
    }

    #[test]
    fn a_message_sent_during_the_backoff_is_received() {
        let (tx, rx) = unbounded::<u32>();
        let start = Arc::new(Barrier::new(2));
        let sender = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                tx.send(5).unwrap();
            })
        };
        start.wait();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(5));
        sender.join().unwrap();
    }

    #[test]
    fn blocked_receivers_are_all_served() {
        // Sends notify only counted waiters: two receivers blocked at once
        // must each get one of two back-to-back sends.
        let (tx, rx) = unbounded::<u32>();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(10)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut got: Vec<u32> = waiters
            .into_iter()
            .map(|w| w.join().unwrap().expect("woken within the timeout"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn channel_cross_thread() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..1000u32 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..1000u32 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(i));
        }
        h.join().unwrap();
    }
}
