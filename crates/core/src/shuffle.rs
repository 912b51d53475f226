//! The shuffle layer (paper §4.2–§4.4).
//!
//! One **shuffle queue** per core holds the *ready connections* whose home
//! is that core. Idle remote cores may atomically steal the head of any
//! queue. Events are grouped **per connection** (not per packet) so that:
//!
//! * no head-of-line blocking: a long request on one connection never
//!   blocks requests of other connections queued behind it (§4.4), and
//! * ordering: whichever core dequeues a connection owns the socket
//!   exclusively until it finishes, so back-to-back requests on one socket
//!   are processed and answered in order without application-level locking
//!   (§4.3).
//!
//! The state machine (paper Figure 5) and its invariant:
//!
//! ```text
//!            produce (home)            dequeue/steal
//!   idle ────────────────▶ ready ────────────────────▶ busy
//!    ▲                       ▲                           │
//!    │      finish: events pending? ──yes─▶ requeue ─────┤
//!    └──────────── no ───────────────────────────────────┘
//! ```
//!
//! **A connection is present in its home shuffle queue exactly once when in
//! the `ready` state, and never otherwise.** Transitions are atomic under
//! the home core's spinlock; each PCB's event list has its own lock (§5).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use zygos_net::flow::ConnId;

use crate::spinlock::SpinLock;

/// Scheduling state of a connection (paper Figure 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// No pending events, not being processed.
    Idle,
    /// Pending events; present in its home shuffle queue.
    Ready,
    /// Owned by an execution core (home or remote).
    Busy,
}

impl ConnState {
    fn from_u8(v: u8) -> ConnState {
        match v {
            0 => ConnState::Idle,
            1 => ConnState::Ready,
            2 => ConnState::Busy,
            _ => unreachable!("invalid connection state"),
        }
    }
}

/// Result of [`ShuffleLayer::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishOutcome {
    /// No further events; the connection went idle.
    Idle,
    /// More events had arrived; the connection was re-enqueued on its home
    /// core's shuffle queue.
    Requeued,
}

/// A connection's scheduling state. The home core produces into it and
/// whichever core runs the connection drains it, so it owns its cache
/// line (`CACHE_LINE`, 128 bytes).
#[repr(align(128))]
struct PcbSched<E> {
    home: usize,
    /// State byte; mutated only while holding the home core's lock.
    state: AtomicU8,
    /// Pending application events, FIFO. Single producer (home core's
    /// network stack), single consumer (the current execution core).
    events: SpinLock<VecDeque<E>>,
}

/// One core's shuffle queue. Its home core and every thief lock it, so
/// it owns its cache line (`CACHE_LINE`, 128 bytes).
#[repr(align(128))]
struct CoreQueue {
    /// The shuffle queue proper: ready connections homed here.
    queue: SpinLock<VecDeque<ConnId>>,
    /// Racy occupancy mirror for lock-free idle-loop polling.
    len: AtomicUsize,
}

/// The shuffle layer for a fixed set of cores and connections.
///
/// Generic over the application event type `E` (a parsed RPC message in the
/// runtime, a token in tests).
pub struct ShuffleLayer<E> {
    cores: Vec<CoreQueue>,
    pcbs: Vec<PcbSched<E>>,
    /// Events each connection's queue holds without growing.
    events_per_conn: usize,
}

impl<E> ShuffleLayer<E> {
    /// Creates a layer with `n_cores` empty shuffle queues, whose
    /// connections' event queues grow as events arrive.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        ShuffleLayer::with_event_capacity(n_cores, 0)
    }

    /// [`new`](ShuffleLayer::new), with room reserved at registration for
    /// `events_per_conn` waiting events on each connection, so a
    /// connection that never gets deeper than that never grows its queue
    /// while serving.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn with_event_capacity(n_cores: usize, events_per_conn: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        ShuffleLayer {
            cores: (0..n_cores)
                .map(|_| CoreQueue {
                    queue: SpinLock::new(VecDeque::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            pcbs: Vec::new(),
            events_per_conn,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of registered connections.
    pub fn connections(&self) -> usize {
        self.pcbs.len()
    }

    /// Registers a connection homed on `home` (setup phase).
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn register(&mut self, home: usize) -> ConnId {
        assert!(home < self.cores.len(), "home core out of range");
        let id = ConnId(self.pcbs.len() as u32);
        self.pcbs.push(PcbSched {
            home,
            state: AtomicU8::new(0),
            events: SpinLock::new(VecDeque::with_capacity(self.events_per_conn)),
        });
        // A connection sits on its home queue at most once: with a slot for
        // every connection homed here, the queue never grows while serving.
        let homed = self.pcbs.iter().filter(|p| p.home == home).count();
        self.cores[home].queue.get_mut().reserve(homed);
        id
    }

    /// The home core of a connection.
    pub fn home_of(&self, conn: ConnId) -> usize {
        self.pcbs[conn.index()].home
    }

    /// Current state (racy snapshot; transitions happen under locks).
    pub fn state_of(&self, conn: ConnId) -> ConnState {
        ConnState::from_u8(self.pcbs[conn.index()].state.load(Ordering::Acquire))
    }

    /// Delivers an application event for `conn` (home core's TCP-in path,
    /// §4.2 step 2).
    ///
    /// Returns `true` if the connection transitioned `idle → ready` (i.e.
    /// it was newly enqueued on the shuffle queue); `false` if it was
    /// already ready or busy and the event simply joined its PCB queue.
    pub fn produce(&self, conn: ConnId, event: E) -> bool {
        let pcb = &self.pcbs[conn.index()];
        // Stage 1: append the event under the PCB lock, then release —
        // never hold the PCB lock while taking the core lock (finish()
        // nests the other way; see module docs).
        pcb.events.lock().push_back(event);
        // Stage 2: idle → ready transition under the home core's lock.
        let core = &self.cores[pcb.home];
        let mut q = core.queue.lock();
        let state = ConnState::from_u8(pcb.state.load(Ordering::Relaxed));
        if state == ConnState::Idle {
            pcb.state.store(ConnState::Ready as u8, Ordering::Release);
            q.push_back(conn);
            core.len.store(q.len(), Ordering::Release);
            true
        } else {
            false
        }
    }

    fn pop_from(&self, q: &mut VecDeque<ConnId>, core: &CoreQueue) -> Option<ConnId> {
        let conn = q.pop_front()?;
        core.len.store(q.len(), Ordering::Release);
        let pcb = &self.pcbs[conn.index()];
        debug_assert_eq!(
            ConnState::from_u8(pcb.state.load(Ordering::Relaxed)),
            ConnState::Ready,
            "dequeued connection must be ready"
        );
        pcb.state.store(ConnState::Busy as u8, Ordering::Release);
        Some(conn)
    }

    /// Dequeues the next ready connection from `core`'s own queue
    /// (transitioning it to busy). Home-core fast path; spins on the lock.
    pub fn dequeue_local(&self, core: usize) -> Option<ConnId> {
        let cq = &self.cores[core];
        if cq.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = cq.queue.lock();
        self.pop_from(&mut q, cq)
    }

    /// Attempts to steal the head of `victim`'s shuffle queue.
    ///
    /// Uses `try_lock` so a contended queue is simply skipped (§5). Returns
    /// the stolen connection (now busy, owned by the caller) or `None`.
    pub fn try_steal(&self, victim: usize) -> Option<ConnId> {
        let cq = &self.cores[victim];
        if cq.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = cq.queue.try_lock()?;
        self.pop_from(&mut q, cq)
    }

    /// Drains up to `max` pending events of a busy connection.
    ///
    /// The caller must own the connection (have received it from
    /// [`ShuffleLayer::dequeue_local`] / [`ShuffleLayer::try_steal`]). Events are returned in arrival
    /// order — this, plus busy-state exclusivity, is the paper's §4.3
    /// ordering guarantee.
    pub fn take_events(&self, conn: ConnId, max: usize) -> Vec<E> {
        let mut out = Vec::new();
        self.take_events_into(conn, max, &mut out);
        out
    }

    /// [`take_events`](ShuffleLayer::take_events) appending to a buffer the
    /// caller keeps, so a worker's loop does not allocate per dequeue.
    pub fn take_events_into(&self, conn: ConnId, max: usize, out: &mut Vec<E>) {
        let pcb = &self.pcbs[conn.index()];
        debug_assert_eq!(
            ConnState::from_u8(pcb.state.load(Ordering::Relaxed)),
            ConnState::Busy,
            "only the owner of a busy connection may take events"
        );
        let mut ev = pcb.events.lock();
        let n = ev.len().min(max);
        out.extend(ev.drain(..n));
    }

    /// Completes execution of a busy connection (paper Figure 5, the
    /// transitions out of `busy`).
    ///
    /// Must be called by the owning execution core after all of the
    /// connection's syscalls have been issued. Re-enqueues on the **home**
    /// queue if more events arrived meanwhile.
    pub fn finish(&self, conn: ConnId) -> FinishOutcome {
        let pcb = &self.pcbs[conn.index()];
        let core = &self.cores[pcb.home];
        // Lock order: home core lock, then PCB event lock ("the transitions
        // from the busy state must test whether the PCB queue is empty and
        // must first grab that lock", §5).
        let mut q = core.queue.lock();
        debug_assert_eq!(
            ConnState::from_u8(pcb.state.load(Ordering::Relaxed)),
            ConnState::Busy,
            "finish on non-busy connection"
        );
        let has_pending = !pcb.events.lock().is_empty();
        if has_pending {
            pcb.state.store(ConnState::Ready as u8, Ordering::Release);
            q.push_back(conn);
            core.len.store(q.len(), Ordering::Release);
            FinishOutcome::Requeued
        } else {
            pcb.state.store(ConnState::Idle as u8, Ordering::Release);
            FinishOutcome::Idle
        }
    }

    /// Racy length of a core's shuffle queue (idle-loop polling; lock-free).
    pub fn queue_len(&self, core: usize) -> usize {
        self.cores[core].len.load(Ordering::Acquire)
    }

    /// Racy check across all queues — used by tests and drain loops.
    pub fn total_ready(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.len.load(Ordering::Acquire))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CACHE_LINE;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// Allocations made by this thread (const-initialized and without a
        /// destructor, so the allocator may touch it at any time).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts each thread's allocations, so a test reads its own count
    /// while other tests run beside it.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only addition is a
    // thread-local counter update that neither allocates nor touches the
    // returned memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn layer(cores: usize, conns_per_core: usize) -> (ShuffleLayer<u64>, Vec<ConnId>) {
        let mut l = ShuffleLayer::new(cores);
        let mut ids = Vec::new();
        for c in 0..cores {
            for _ in 0..conns_per_core {
                ids.push(l.register(c));
            }
        }
        (l, ids)
    }

    #[test]
    fn reserved_event_queues_take_events_without_allocating() {
        let mut l = ShuffleLayer::with_event_capacity(2, 5);
        let conn = l.register(1);
        let mut out = Vec::with_capacity(5);
        let before = ALLOCS.with(Cell::get);
        for e in 0..5u64 {
            l.produce(conn, e);
        }
        let conn = l.dequeue_local(1).unwrap();
        l.take_events_into(conn, usize::MAX, &mut out);
        l.finish(conn);
        assert_eq!(ALLOCS.with(Cell::get) - before, 0, "a queue grew");
        assert_eq!(out, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn queues_and_pcbs_own_their_cache_lines() {
        // Other cores write both on every RPC (thieves lock the queue, a
        // connection's executing core drains its PCB): packed beside a
        // neighbour, each write would evict the neighbour's line from its
        // owner. A field added past the line must not silently re-pack them.
        for (what, align, size) in [
            ("CoreQueue", align_of::<CoreQueue>(), size_of::<CoreQueue>()),
            (
                "PcbSched",
                align_of::<PcbSched<u64>>(),
                size_of::<PcbSched<u64>>(),
            ),
        ] {
            assert_eq!(align % CACHE_LINE, 0, "{what} alignment {align}");
            assert_eq!(size % CACHE_LINE, 0, "{what} size {size}");
        }
    }

    #[test]
    fn produce_makes_idle_connection_ready() {
        let (l, ids) = layer(2, 1);
        assert_eq!(l.state_of(ids[0]), ConnState::Idle);
        assert!(l.produce(ids[0], 1));
        assert_eq!(l.state_of(ids[0]), ConnState::Ready);
        assert_eq!(l.queue_len(0), 1);
        // A second event does not re-enqueue.
        assert!(!l.produce(ids[0], 2));
        assert_eq!(l.queue_len(0), 1);
    }

    #[test]
    fn dequeue_local_transitions_to_busy() {
        let (l, ids) = layer(1, 1);
        l.produce(ids[0], 7);
        let got = l.dequeue_local(0).unwrap();
        assert_eq!(got, ids[0]);
        assert_eq!(l.state_of(got), ConnState::Busy);
        assert_eq!(l.queue_len(0), 0);
        assert!(l.dequeue_local(0).is_none());
    }

    #[test]
    fn events_drain_in_fifo_order() {
        let (l, ids) = layer(1, 1);
        for e in 0..5 {
            l.produce(ids[0], e);
        }
        let conn = l.dequeue_local(0).unwrap();
        assert_eq!(l.take_events(conn, usize::MAX), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn take_events_respects_max() {
        let (l, ids) = layer(1, 1);
        for e in 0..5 {
            l.produce(ids[0], e);
        }
        let conn = l.dequeue_local(0).unwrap();
        assert_eq!(l.take_events(conn, 2), vec![0, 1]);
        assert_eq!(l.take_events(conn, 10), vec![2, 3, 4]);
    }

    #[test]
    fn finish_goes_idle_when_drained() {
        let (l, ids) = layer(1, 1);
        l.produce(ids[0], 1);
        let conn = l.dequeue_local(0).unwrap();
        let _ = l.take_events(conn, usize::MAX);
        assert_eq!(l.finish(conn), FinishOutcome::Idle);
        assert_eq!(l.state_of(conn), ConnState::Idle);
    }

    #[test]
    fn finish_requeues_when_events_pending() {
        let (l, ids) = layer(1, 1);
        l.produce(ids[0], 1);
        let conn = l.dequeue_local(0).unwrap();
        let _ = l.take_events(conn, usize::MAX);
        // A new event lands while busy.
        assert!(!l.produce(conn, 2));
        assert_eq!(l.finish(conn), FinishOutcome::Requeued);
        assert_eq!(l.state_of(conn), ConnState::Ready);
        assert_eq!(l.queue_len(0), 1);
        // And it is consumable again.
        let again = l.dequeue_local(0).unwrap();
        assert_eq!(l.take_events(again, usize::MAX), vec![2]);
    }

    #[test]
    fn steal_takes_from_victim_queue() {
        let (l, ids) = layer(2, 1);
        l.produce(ids[0], 1); // Homed on core 0.
        let stolen = l.try_steal(0).unwrap();
        assert_eq!(stolen, ids[0]);
        assert_eq!(l.state_of(stolen), ConnState::Busy);
        // Requeue after finish returns to the HOME queue (core 0), even if
        // a remote core executed it.
        l.produce(stolen, 2);
        assert_eq!(l.finish(stolen), FinishOutcome::Requeued);
        assert_eq!(l.queue_len(0), 1);
        assert_eq!(l.queue_len(1), 0);
    }

    #[test]
    fn steal_fails_on_empty_queue() {
        let (l, _ids) = layer(2, 1);
        assert!(l.try_steal(0).is_none());
        assert!(l.try_steal(1).is_none());
    }

    #[test]
    fn fifo_across_connections_within_a_queue() {
        let (l, ids) = layer(1, 3);
        l.produce(ids[1], 0);
        l.produce(ids[0], 0);
        l.produce(ids[2], 0);
        assert_eq!(l.dequeue_local(0).unwrap(), ids[1]);
        assert_eq!(l.dequeue_local(0).unwrap(), ids[0]);
        assert_eq!(l.dequeue_local(0).unwrap(), ids[2]);
    }

    /// The paper's core invariant, hammered concurrently: a connection is
    /// in a shuffle queue exactly once iff ready; every event is delivered
    /// exactly once and in order.
    #[test]
    fn concurrent_producers_and_stealers_preserve_order_and_count() {
        const CORES: usize = 4;
        const CONNS: usize = 16;
        const EVENTS_PER_CONN: u64 = 2_000;

        let mut l = ShuffleLayer::new(CORES);
        let ids: Vec<ConnId> = (0..CONNS).map(|i| l.register(i % CORES)).collect();
        let l = Arc::new(l);
        let delivered = Arc::new(
            (0..CONNS)
                .map(|_| SpinLock::new(Vec::<u64>::new()))
                .collect::<Vec<_>>(),
        );

        // One producer thread per core produces round-robin over its conns.
        let producers: Vec<_> = (0..CORES)
            .map(|core| {
                let l = Arc::clone(&l);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    let my: Vec<ConnId> = ids
                        .iter()
                        .copied()
                        .filter(|c| l.home_of(*c) == core)
                        .collect();
                    for seq in 0..EVENTS_PER_CONN {
                        for &c in &my {
                            l.produce(c, seq);
                        }
                    }
                })
            })
            .collect();

        // Worker threads: each drains its own queue and steals from others.
        let total_expected = (CONNS as u64) * EVENTS_PER_CONN;
        let consumed = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..CORES)
            .map(|core| {
                let l = Arc::clone(&l);
                let delivered = Arc::clone(&delivered);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while (consumed.load(Ordering::Relaxed) as u64) < total_expected {
                        let conn = l.dequeue_local(core).or_else(|| {
                            (0..CORES)
                                .filter(|&v| v != core)
                                .find_map(|v| l.try_steal(v))
                        });
                        if let Some(conn) = conn {
                            let evs = l.take_events(conn, usize::MAX);
                            consumed.fetch_add(evs.len(), Ordering::Relaxed);
                            delivered[conn.index()].lock().extend(evs);
                            l.finish(conn);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        for w in workers {
            w.join().unwrap();
        }

        for (i, log) in delivered.iter().enumerate() {
            let log = log.lock();
            assert_eq!(
                log.len(),
                EVENTS_PER_CONN as usize,
                "conn {i}: exactly-once delivery"
            );
            for (j, w) in log.windows(2).enumerate() {
                assert!(
                    w[0] <= w[1],
                    "conn {i}: order violated at {j}: {} then {}",
                    w[0],
                    w[1]
                );
            }
        }
        // Everything drained; all idle.
        assert_eq!(l.total_ready(), 0);
        for &c in &ids {
            assert_eq!(l.state_of(c), ConnState::Idle);
        }
    }

    #[test]
    #[should_panic(expected = "home core out of range")]
    fn register_checks_core() {
        let mut l = ShuffleLayer::<u32>::new(2);
        l.register(2);
    }
}
