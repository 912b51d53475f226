//! A generic discrete-event simulation engine.
//!
//! The engine owns a model `M` and a time-ordered event queue of `M::Event`
//! values. Events scheduled for the same instant fire in FIFO order (stable
//! tie-breaking by sequence number), which keeps simulations deterministic.
//!
//! # Event queues
//!
//! The queue behind the engine is pluggable through [`EventQueue`]:
//!
//! * [`WheelQueue`] (the default) — a hierarchical timing wheel: a
//!   near-horizon wheel of 2048 32ns buckets (one 65.5µs page), a
//!   second-level wheel of 4096 pages behind it (~268ms), and a sorted
//!   overflow heap for the far future. Events live in one arena of
//!   records and a bucket is a chain threaded through them, so an event's
//!   payload is written once when it is scheduled and read once when it
//!   fires. Push and pop are O(1) amortized instead of the heap's
//!   O(log n) — and the event queue is touched several times per simulated
//!   request, so this is the floor under the whole experiment plane's
//!   events/sec.
//! * [`HeapQueue`] — the original `BinaryHeap` engine, kept as the
//!   differential-testing oracle (`crates/sim/tests/engine_diff.rs` drives
//!   both through randomized schedules and asserts identical pop order).
//!   Building with `--features heap-engine` swaps it back in as the
//!   default for every simulation.
//!
//! Both queues implement the exact same ordering contract: pops come out
//! in ascending `(time, seq)` order, so a simulation's outputs are
//! bit-identical whichever queue runs it.
//!
//! # Example
//!
//! ```
//! use zygos_sim::engine::{Engine, Model, Scheduler};
//! use zygos_sim::time::{SimDuration, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.after(SimDuration::from_micros(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule(SimTime::ZERO, Ev::Tick);
//! engine.run();
//! assert_eq!(engine.model().fired, 10);
//! assert_eq!(engine.now(), SimTime::from_micros(9));
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A simulation model: application state plus an event handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event at simulated time `now`, possibly scheduling more
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Interface handed to event handlers for scheduling follow-up events.
///
/// It schedules straight into the engine's queue while the handler runs:
/// each call takes the next sequence number, so same-instant follow-ups
/// fire in call order, and nothing is buffered in between.
pub struct Scheduler<'a, E> {
    now: SimTime,
    /// The engine's `queue.push(at, seq, event); seq += 1`. Type-erased
    /// so that [`Model::handle`] does not depend on the queue kind.
    push: &'a mut dyn FnMut(SimTime, E),
    stopped: bool,
}

impl<E> Scheduler<'_, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Times in the past are clamped to `now` (the event fires immediately
    /// after the current one).
    pub fn at(&mut self, at: SimTime, event: E) {
        (self.push)(at.max(self.now), event);
    }

    /// Schedules `event` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        (self.push)(self.now + delay, event);
    }

    /// Requests the run loop to stop after the current event completes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

/// The ordering contract every engine queue implements: pops come out in
/// ascending `(time, seq)` order, FIFO among equal-time events.
pub trait EventQueue<E>: Default {
    /// Inserts an event. `at` never precedes the last pop (the engine
    /// clamps to `now`), and `seq` strictly increases across pushes.
    fn push(&mut self, at: SimTime, seq: u64, event: E);

    /// Removes and returns the earliest `(time, seq, event)`.
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;

    /// The timestamp the next pop would return (normalizes internal
    /// cursors, hence `&mut`; the content is untouched).
    fn peek_at(&mut self) -> Option<SimTime>;

    /// Number of queued events.
    fn len(&self) -> usize;

    /// True when no events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The engine's default queue: the timing wheel, unless the `heap-engine`
/// feature swaps the `BinaryHeap` oracle back in.
#[cfg(not(feature = "heap-engine"))]
pub type DefaultQueue<E> = WheelQueue<E>;
/// The engine's default queue (heap oracle, `heap-engine` build).
#[cfg(feature = "heap-engine")]
pub type DefaultQueue<E> = HeapQueue<E>;

// ---------------------------------------------------------------------------
// Heap queue (the differential-testing oracle).
// ---------------------------------------------------------------------------

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E: Clone> Clone for Entry<E> {
    fn clone(&self) -> Self {
        Entry {
            at: self.at,
            seq: self.seq,
            event: self.event.clone(),
        }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The original `BinaryHeap` event queue: O(log n) push/pop.
///
/// Kept as the oracle for differential tests of [`WheelQueue`], and as the
/// engine default under the `heap-engine` feature.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E: Clone> Clone for HeapQueue<E> {
    fn clone(&self) -> Self {
        HeapQueue {
            heap: self.heap.clone(),
        }
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for HeapQueue<E> {
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.heap.push(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.event))
    }

    fn peek_at(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel.
// ---------------------------------------------------------------------------

/// One level-0 page spans 2^16 ns = 65.5µs — service times, RTTs and
/// control ticks all land inside the current page.
const L0_BITS: u32 = 16;
/// Level-0 buckets are 32ns wide (2048 per page): coarse enough that the
/// bucket array stays cache-resident, fine enough that a bucket chains a
/// handful of events.
const GRAIN_BITS: u32 = 5;
const L0_SLOT_BITS: u32 = L0_BITS - GRAIN_BITS;
const L0_SLOTS: usize = 1 << L0_SLOT_BITS;
/// Level-1 wheel: one slot per level-0 *page* (65.5µs each), covering a
/// ~268ms horizon. Entries cascade into level 0 when their page opens.
const L1_BITS: u32 = 12;
const L1_SLOTS: usize = 1 << L1_BITS;

/// End of a chain (bucket or free list). Record indices stay below it.
const NIL: u32 = u32::MAX;

/// Bit mask selecting bits at or above `bit` (all-zero past the word).
#[inline]
fn mask_from(bit: usize) -> u64 {
    if bit >= 64 {
        0
    } else {
        !0u64 << bit
    }
}

/// Level-0 slot of a time inside the current page.
#[inline]
fn l0_slot(ns: u64) -> usize {
    ((ns >> GRAIN_BITS) & (L0_SLOTS as u64 - 1)) as usize
}

/// One record of the wheel's arena: a queued event threaded onto its
/// bucket's chain, or a vacant record threaded onto the free list.
#[derive(Clone)]
struct Node<E> {
    ns: u64,
    seq: u64,
    /// Next record of the same chain, or [`NIL`].
    next: u32,
    /// `None` exactly while the record is on the free list.
    event: Option<E>,
}

/// A level-0 bucket: a chain of records in ascending `(time, seq)` order.
#[derive(Clone, Copy)]
struct Chain {
    /// First record, or [`NIL`] when the bucket is empty.
    head: u32,
    /// Last record; meaningless while the bucket is empty.
    tail: u32,
}

/// A hierarchical timing-wheel event queue: O(1) push and amortized-O(1)
/// pop, with a sorted overflow heap behind the wheel horizon.
///
/// Storage is one arena of records; a bucket is a singly linked chain
/// threaded through them (the layout of Varghese & Lauck's timing wheels),
/// so an event's payload is written once when it is pushed and read once
/// when it pops, cascades relink records without moving them, and a popped
/// record goes to a LIFO free list for the next push. Nothing is allocated
/// per event once the arena has grown to the run's peak queue depth.
///
/// Ordering is exact — pops come out in `(time, seq)` order, bit-identical
/// to [`HeapQueue`]:
///
/// * a level-0 bucket spans 32ns and its chain is kept in `(time, seq)`
///   order as records are linked in, so `pop` takes the chain's head;
/// * across structures, bucketing by page keeps time order: an event in a
///   farther structure (overflow vs level 1 vs level 0) always belongs to
///   a later page than anything nearer, and cascades re-bucket records
///   before they are eligible to pop.
///
/// A clone is an exact snapshot — arena, free list, chains, page and
/// cursor round-trip verbatim — so a checkpoint taken mid-page (cursor
/// inside level 0, cascades pending in level 1 / overflow) resumes with
/// the identical pop stream. Pinned by `tests/checkpoint.rs`.
#[derive(Clone)]
pub struct WheelQueue<E> {
    /// Absolute page (`time >> L0_BITS`) the level-0 wheel currently maps.
    page: u64,
    /// Level-0 slot of the last pop; pushes never land on earlier times
    /// (they rewind the cursor if they target an earlier slot).
    cursor: usize,
    nodes: Vec<Node<E>>,
    /// Head of the free list.
    free: u32,
    l0: Vec<Chain>,
    /// Level-0 occupancy bitmap, one bit per slot (`L0_SLOTS` ≤ 4096 bits,
    /// a handful of words — no summary level needed).
    l0_occ: [u64; L0_SLOTS / 64],
    /// Level-1 slots: the head of an unordered chain holding one future
    /// page's records (slot = absolute page masked).
    l1: Vec<u32>,
    l1_occ: [u64; L1_SLOTS / 64],
    /// `(time, seq, record)` of events beyond the level-1 horizon.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    len: usize,
    /// Events currently resident per level — lets a sparse queue skip the
    /// bitmap scans of empty levels entirely.
    l0_len: usize,
    l1_len: usize,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        let empty = Chain {
            head: NIL,
            tail: NIL,
        };
        WheelQueue {
            page: 0,
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            l0: vec![empty; L0_SLOTS],
            l0_occ: [0; L0_SLOTS / 64],
            l1: vec![NIL; L1_SLOTS],
            l1_occ: [0; L1_SLOTS / 64],
            overflow: BinaryHeap::new(),
            len: 0,
            l0_len: 0,
            l1_len: 0,
        }
    }
}

impl<E> WheelQueue<E> {
    /// First occupied level-0 slot at or after `from`, if any.
    fn l0_next(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut bits = self.l0_occ[w] & mask_from(from & 63);
        loop {
            if bits != 0 {
                return Some((w << 6) | bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.l0_occ.len() {
                return None;
            }
            bits = self.l0_occ[w];
        }
    }

    /// First occupied level-1 slot after the current page's, in circular
    /// order, with its absolute page (recovered from its head record's
    /// time).
    fn l1_next(&self) -> Option<(usize, u64)> {
        if self.l1_len == 0 {
            return None;
        }
        let from = ((self.page + 1) & (L1_SLOTS as u64 - 1)) as usize;
        let words = self.l1_occ.len();
        let mut w = from >> 6;
        let mut bits = self.l1_occ[w] & mask_from(from & 63);
        for step in 0..=words {
            if bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                let page = self.nodes[self.l1[slot] as usize].ns >> L0_BITS;
                return Some((slot, page));
            }
            if step == words {
                break;
            }
            w = (w + 1) % words;
            bits = self.l1_occ[w];
        }
        None
    }

    /// Fills a record taken off the free list (or grown onto the arena).
    /// Linking it — setting its `next` — is the caller's job.
    #[inline]
    fn alloc(&mut self, ns: u64, seq: u64, event: E) -> u32 {
        let idx = self.free;
        if idx == NIL {
            let idx = self.nodes.len();
            assert!(idx < NIL as usize, "wheel arena is full");
            self.nodes.push(Node {
                ns,
                seq,
                next: NIL,
                event: Some(event),
            });
            return idx as u32;
        }
        let node = &mut self.nodes[idx as usize];
        self.free = node.next;
        node.ns = ns;
        node.seq = seq;
        node.event = Some(event);
        idx
    }

    #[inline]
    fn key(&self, idx: u32) -> (u64, u64) {
        let node = &self.nodes[idx as usize];
        (node.ns, node.seq)
    }

    /// Links record `idx` into its level-0 bucket of the current page,
    /// keeping the chain in `(time, seq)` order. Events are scheduled in
    /// nearly that order, so the usual case is an append at the tail; a
    /// record that belongs earlier walks the (short) chain from its head.
    #[inline]
    fn l0_link(&mut self, idx: u32) {
        let key = self.key(idx);
        debug_assert_eq!(key.0 >> L0_BITS, self.page);
        let slot = l0_slot(key.0);
        let Chain { head, tail } = self.l0[slot];
        if head == NIL {
            self.nodes[idx as usize].next = NIL;
            self.l0[slot] = Chain {
                head: idx,
                tail: idx,
            };
            self.l0_occ[slot >> 6] |= 1 << (slot & 63);
        } else if self.key(tail) < key {
            self.nodes[idx as usize].next = NIL;
            self.nodes[tail as usize].next = idx;
            self.l0[slot].tail = idx;
        } else {
            // The tail's key is greater, so the walk ends on the chain.
            let (mut prev, mut at) = (NIL, head);
            while self.key(at) < key {
                (prev, at) = (at, self.nodes[at as usize].next);
            }
            self.nodes[idx as usize].next = at;
            if prev == NIL {
                self.l0[slot].head = idx;
            } else {
                self.nodes[prev as usize].next = idx;
            }
        }
        self.l0_len += 1;
    }

    /// Advances the wheel to the next page holding events, relinking that
    /// page's level-1 and overflow records into level 0. Precondition:
    /// level 0 is exhausted. Returns false when the whole queue is empty.
    fn advance_page(&mut self) -> bool {
        let next_l1 = self.l1_next();
        let next_of = self.overflow.peek().map(|e| e.0 .0 >> L0_BITS);
        let target = match (next_l1, next_of) {
            (Some((_, p1)), Some(p2)) => p1.min(p2),
            (Some((_, p1)), None) => p1,
            (None, Some(p2)) => p2,
            (None, None) => return false,
        };
        self.page = target;
        self.cursor = 0;
        while let Some(&Reverse((ns, _, idx))) = self.overflow.peek() {
            if ns >> L0_BITS != target {
                break;
            }
            self.overflow.pop();
            self.l0_link(idx);
        }
        if let Some((slot, p1)) = next_l1 {
            if p1 == target {
                let mut idx = std::mem::replace(&mut self.l1[slot], NIL);
                self.l1_occ[slot >> 6] &= !(1 << (slot & 63));
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    self.l0_link(idx);
                    self.l1_len -= 1;
                    idx = next;
                }
            }
        }
        true
    }

    /// Moves the cursor onto the next occupied level-0 slot, advancing
    /// pages as needed. Returns false when the queue is empty. Only `pop`
    /// may cross pages: once a page is advanced, pushes at earlier times
    /// (legal until the next pop raises `now`) could no longer be placed.
    fn normalize(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            if self.l0_len > 0 {
                if let Some(slot) = self.l0_next(self.cursor) {
                    self.cursor = slot;
                    return true;
                }
            }
            if !self.advance_page() {
                return false;
            }
        }
    }
}

impl<E> EventQueue<E> for WheelQueue<E> {
    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let ns = at.as_nanos();
        let page = ns >> L0_BITS;
        let idx = self.alloc(ns, seq, event);
        self.len += 1;
        if page == self.page {
            // `peek_at` may have advanced the cursor past a slot a later
            // push targets (pushes clamp to the *popped* time, not the
            // peeked one); rewinding only costs a rescan.
            self.cursor = self.cursor.min(l0_slot(ns));
            self.l0_link(idx);
        } else if page.wrapping_sub(self.page) < L1_SLOTS as u64 {
            let slot = (page & (L1_SLOTS as u64 - 1)) as usize;
            self.nodes[idx as usize].next = std::mem::replace(&mut self.l1[slot], idx);
            self.l1_occ[slot >> 6] |= 1 << (slot & 63);
            self.l1_len += 1;
        } else {
            self.overflow.push(Reverse((ns, seq, idx)));
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if !self.normalize() {
            return None;
        }
        let slot = self.cursor;
        let idx = self.l0[slot].head;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("a linked record holds its event");
        let (ns, seq) = (node.ns, node.seq);
        self.l0[slot].head = node.next;
        if node.next == NIL {
            self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
        }
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        self.l0_len -= 1;
        Some((SimTime::from_nanos(ns), seq, event))
    }

    fn peek_at(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Within the current page the cursor may advance (pushes that need
        // an earlier slot rewind it). Across pages, only report the next
        // time — cascading is pop's job: after a cascade the wheel can no
        // longer place a push at an earlier, still-legal time.
        let ns = if self.l0_len > 0 {
            let _ = self.normalize();
            self.nodes[self.l0[self.cursor].head as usize].ns
        } else {
            // The earliest of the next level-1 chain (unordered: walk it)
            // and the overflow heap's top; one of them exists.
            let mut ns = self.overflow.peek().map_or(u64::MAX, |e| e.0 .0);
            let mut idx = self.l1_next().map_or(NIL, |(slot, _)| self.l1[slot]);
            while idx != NIL {
                let node = &self.nodes[idx as usize];
                ns = ns.min(node.ns);
                idx = node.next;
            }
            ns
        };
        Some(SimTime::from_nanos(ns))
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

/// The discrete-event engine: an event queue plus the model under
/// simulation. Generic over the queue; defaults to the timing wheel.
///
/// A clone is an exact snapshot — see [`Engine::checkpoint`].
#[derive(Clone)]
pub struct Engine<M: Model, Q: EventQueue<M::Event> = DefaultQueue<<M as Model>::Event>> {
    queue: Q,
    seq: u64,
    now: SimTime,
    model: M,
    processed: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero with an empty event queue (the
    /// default queue kind).
    pub fn new(model: M) -> Self {
        Self::with_queue(model)
    }
}

impl<M: Model, Q: EventQueue<M::Event>> Engine<M, Q> {
    /// Creates an engine backed by an explicit queue type — e.g.
    /// `Engine::<MyModel, HeapQueue<_>>::with_queue(model)` for
    /// differential testing against the heap oracle.
    pub fn with_queue(model: M) -> Self {
        Engine {
            queue: Q::default(),
            seq: 0,
            now: SimTime::ZERO,
            model,
            processed: 0,
        }
    }

    /// Schedules an event at an absolute time (clamped to the current time).
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        let at = at.max(self.now);
        self.queue.push(at, self.seq, event);
        self.seq += 1;
    }

    /// The current simulated time (time of the last handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for setup between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs until the event queue is empty or a handler calls
    /// [`Scheduler::stop`]. Returns the number of events processed.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue empties, a handler stops the run, or the next
    /// event would fire strictly after `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.processed;
        let unbounded = deadline == SimTime::MAX;
        loop {
            // Without a deadline, pop directly — the per-event peek would
            // walk the queue's cursor twice for nothing.
            if !unbounded {
                match self.queue.peek_at() {
                    Some(at) if at <= deadline => {}
                    _ => break,
                }
            }
            if self.dispatch() != Some(false) {
                break;
            }
        }
        self.processed - start
    }

    /// Processes exactly one event. Returns `false` (with no state change)
    /// when the queue is empty; a handler calling [`Scheduler::stop`] still
    /// counts as one processed event and returns `true`. Interleaving
    /// `step` with [`Engine::run_until`] is exact: the engine has no
    /// between-events state beyond `(queue, seq, now, processed)`.
    pub fn step(&mut self) -> bool {
        self.dispatch().is_some()
    }

    /// Pops the earliest event and hands it to the model. `None` when the
    /// queue is empty, otherwise whether the handler asked to stop.
    #[inline]
    fn dispatch(&mut self) -> Option<bool> {
        let (at, _seq, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let (queue, seq) = (&mut self.queue, &mut self.seq);
        let mut sched = Scheduler {
            now: at,
            push: &mut |at, event| {
                queue.push(at, *seq, event);
                *seq += 1;
            },
            stopped: false,
        };
        self.model.handle(at, event, &mut sched);
        self.processed += 1;
        Some(sched.stopped)
    }

    /// True if no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Takes a deterministic checkpoint: a full snapshot of the engine's
    /// event plane (queue contents, sequence counter, clock, processed
    /// count) plus the model's world state via its `Clone`.
    ///
    /// The exact-resume guarantee: resuming the checkpoint and processing
    /// N events is bit-identical to processing those N events on the
    /// original — same pop order, same model trajectory — because the
    /// engine holds no state outside the snapshot (handlers schedule
    /// straight into the queue, so nothing is in flight between events).
    /// Pinned by `tests/checkpoint.rs` on both queue backends, including
    /// checkpoints taken mid-page on the wheel.
    pub fn checkpoint(&self) -> Self
    where
        Self: Clone,
    {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        order: Vec<(u64, u32)>,
    }

    enum Ev {
        Tag(u32),
        Chain(u32),
        StopNow,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(id) => self.order.push((now.as_nanos(), id)),
                Ev::Chain(n) => {
                    self.order.push((now.as_nanos(), n));
                    if n > 0 {
                        sched.after(SimDuration::from_nanos(10), Ev::Chain(n - 1));
                    }
                }
                Ev::StopNow => sched.stop(),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new(Recorder::default());
        e.schedule(SimTime::from_nanos(30), Ev::Tag(3));
        e.schedule(SimTime::from_nanos(10), Ev::Tag(1));
        e.schedule(SimTime::from_nanos(20), Ev::Tag(2));
        e.run();
        assert_eq!(e.model().order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut e = Engine::new(Recorder::default());
        for id in 0..100 {
            e.schedule(SimTime::from_nanos(5), Ev::Tag(id));
        }
        e.run();
        let ids: Vec<u32> = e.model().order.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut e = Engine::new(Recorder::default());
        e.schedule(SimTime::ZERO, Ev::Chain(4));
        let n = e.run();
        assert_eq!(n, 5);
        assert_eq!(e.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut e = Engine::new(Recorder::default());
        e.schedule(SimTime::from_nanos(10), Ev::Tag(1));
        e.schedule(SimTime::from_nanos(20), Ev::Tag(2));
        e.schedule(SimTime::from_nanos(21), Ev::Tag(3));
        e.run_until(SimTime::from_nanos(20));
        assert_eq!(e.model().order.len(), 2);
        assert!(!e.is_idle());
        e.run();
        assert_eq!(e.model().order.len(), 3);
    }

    #[test]
    fn stop_halts_the_loop() {
        let mut e = Engine::new(Recorder::default());
        e.schedule(SimTime::from_nanos(1), Ev::StopNow);
        e.schedule(SimTime::from_nanos(2), Ev::Tag(9));
        e.run();
        assert!(e.model().order.is_empty());
        assert!(!e.is_idle());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut e = Engine::new(Recorder::default());
        e.schedule(SimTime::from_nanos(50), Ev::Tag(1));
        e.run();
        // Scheduling "at 10" after time reached 50 clamps to 50.
        e.schedule(SimTime::from_nanos(10), Ev::Tag(2));
        e.run();
        assert_eq!(e.model().order, vec![(50, 1), (50, 2)]);
    }

    #[test]
    fn wheel_crosses_pages_and_overflow_horizons() {
        // Events on both sides of the level-0 page boundary (65.5µs), the
        // level-1 horizon (~268ms) and far beyond, interleaved with
        // same-time ties, must still pop in (time, seq) order.
        let mut e = Engine::<Recorder, WheelQueue<Ev>>::with_queue(Recorder::default());
        let times = [
            3u64,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 20) + 7,
            (1 << 28) | 12345,
            1 << 29,
            1 << 29, // tie
            (1 << 40) + 5,
            u64::MAX >> 1,
        ];
        // Push in scrambled order.
        for (i, &idx) in [7usize, 2, 9, 0, 4, 8, 1, 5, 3, 6].iter().enumerate() {
            e.schedule(SimTime::from_nanos(times[idx]), Ev::Tag(i as u32));
        }
        e.run();
        let popped: Vec<u64> = e.model().order.iter().map(|&(t, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
        // The tie at 1<<29 (times[7] then times[6] in the scramble): FIFO
        // keeps the push order, Tag(0) before Tag(9).
        let tie_ids: Vec<u32> = e
            .model()
            .order
            .iter()
            .filter(|&&(t, _)| t == 1 << 29)
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(tie_ids, vec![0, 9]);
    }

    #[test]
    fn wheel_and_heap_agree_on_a_dense_chain() {
        fn run_on<Q: EventQueue<Ev>>() -> Vec<(u64, u32)> {
            let mut e = Engine::<Recorder, Q>::with_queue(Recorder::default());
            // A deterministic mix: chains, ties and far-future tags.
            for i in 0..50u32 {
                let t = (i as u64 * 7919) % 200_000;
                e.schedule(SimTime::from_nanos(t), Ev::Tag(i));
                e.schedule(SimTime::from_nanos(t), Ev::Tag(1000 + i));
            }
            e.schedule(SimTime::ZERO, Ev::Chain(30));
            e.schedule(SimTime::from_nanos(1 << 34), Ev::Tag(9999));
            e.run();
            e.into_model().order
        }
        assert_eq!(run_on::<WheelQueue<Ev>>(), run_on::<HeapQueue<Ev>>());
    }
}
