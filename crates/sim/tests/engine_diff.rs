//! Differential tests: the timing-wheel event queue against the
//! `BinaryHeap` oracle.
//!
//! The wheel's ordering contract — pops in ascending `(time, seq)` order,
//! FIFO among ties — is what makes every simulation's output bit-identical
//! whichever queue runs it. These tests drive both queues through
//! randomized schedules that cross every structural boundary (in-bucket
//! ties, level-0 page turns, the level-1 horizon, the overflow heap, and
//! interleaved push/pop with clamped re-pushes) and assert identical pop
//! streams; a same-instant burst and a drop-counting payload cover the
//! wheel's record arena (long chains, the free list, relinking cascades).

use proptest::prelude::*;
use zygos_sim::engine::{Engine, EventQueue, HeapQueue, Model, Scheduler, WheelQueue};
use zygos_sim::time::{SimDuration, SimTime};

/// Drains both queues after an identical push sequence, asserting equal
/// `(time, seq, payload)` streams.
fn assert_same_drain(pushes: &[(u64, u32)]) {
    let mut wheel = WheelQueue::<u32>::default();
    let mut heap = HeapQueue::<u32>::default();
    for (seq, &(at, tag)) in pushes.iter().enumerate() {
        wheel.push(SimTime::from_nanos(at), seq as u64, tag);
        heap.push(SimTime::from_nanos(at), seq as u64, tag);
    }
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "wheel and heap diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.len(), 0);
}

proptest! {
    /// Pure push-then-drain over times spanning all four structures.
    #[test]
    fn drain_matches_heap(
        pushes in proptest::collection::vec((0u64..1u64 << 45, 0u32..1000), 1..300)
    ) {
        assert_same_drain(&pushes);
    }

    /// Times concentrated near page boundaries: multiples of the 65.5µs
    /// page stride, off by -1/0/+1, with heavy tie probability.
    #[test]
    fn page_boundaries_match_heap(
        pushes in proptest::collection::vec((0u64..64, 0u64..3, 0u32..100), 1..200)
    ) {
        let spread: Vec<(u64, u32)> = pushes
            .iter()
            .map(|&(page, off, tag)| ((page << 16).saturating_add(off).saturating_sub(1), tag))
            .collect();
        assert_same_drain(&spread);
    }

    /// Interleaved push/pop: pops raise the clamp floor, so later pushes
    /// exercise the wheel's cursor-rewind and same-instant append paths.
    #[test]
    fn interleaved_ops_match_heap(
        ops in proptest::collection::vec((0u64..1u64 << 34, 0u32..2), 1..300)
    ) {
        let mut wheel = WheelQueue::<u32>::default();
        let mut heap = HeapQueue::<u32>::default();
        let mut seq = 0u64;
        let mut floor = 0u64; // Engine clamp: pushes never precede the last pop.
        for &(at, is_pop) in &ops {
            if is_pop == 1 {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if let Some((t, _, _)) = a {
                    floor = t.as_nanos();
                }
            } else {
                let t = SimTime::from_nanos(at.max(floor));
                wheel.push(t, seq, (seq % 997) as u32);
                heap.push(t, seq, (seq % 997) as u32);
                seq += 1;
                prop_assert_eq!(wheel.peek_at(), heap.peek_at());
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// A model whose handler chains follow-ups at pseudo-random offsets —
/// covering the engine-level path (in-handler scheduling, seq assignment).
struct Chaos {
    trace: Vec<(u64, u32)>,
    budget: u32,
}

enum Ev {
    Step(u32),
}

impl Model for Chaos {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, Ev::Step(x): Ev, sched: &mut Scheduler<Ev>) {
        self.trace.push((now.as_nanos(), x));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Deterministic pseudo-random fan-out: 1–3 follow-ups at mixed
        // horizons (same instant, in-page, next page, far future).
        let h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for k in 0..(1 + (h % 3)) {
            let delay = match (h >> (8 * k)) % 5 {
                0 => 0,
                1 => (h >> 11) % 4_096,
                2 => (h >> 13) % 70_000,
                3 => (h >> 17) % (1 << 28),
                _ => (h >> 19) % (1 << 35),
            };
            sched.after(
                SimDuration::from_nanos(delay),
                Ev::Step(x.wrapping_mul(31).wrapping_add(k as u32 + 1)),
            );
        }
    }
}

#[test]
fn full_engine_trace_is_identical_on_both_queues() {
    fn run_on<Q: EventQueue<Ev>>() -> Vec<(u64, u32)> {
        let mut e = Engine::<Chaos, Q>::with_queue(Chaos {
            trace: Vec::new(),
            budget: 3_000,
        });
        for i in 0..16 {
            e.schedule(SimTime::from_nanos(i * 1_000), Ev::Step(i as u32 + 1));
        }
        e.run();
        e.into_model().trace
    }
    let wheel = run_on::<WheelQueue<Ev>>();
    let heap = run_on::<HeapQueue<Ev>>();
    assert_eq!(wheel.len(), heap.len());
    assert_eq!(wheel, heap);
}

/// A burst on one nanosecond: every `Spawn` fires at the same instant, and
/// one in four schedules a same-instant leaf (into the bucket being
/// drained) plus one a few nanoseconds later (same or next bucket), which
/// the same-instant leaves of later spawns must overtake.
struct Burst {
    trace: Vec<(u64, u32)>,
}

enum BurstEv {
    Spawn(u32),
    Leaf(u32),
}

impl Model for Burst {
    type Event = BurstEv;
    fn handle(&mut self, now: SimTime, ev: BurstEv, sched: &mut Scheduler<BurstEv>) {
        match ev {
            BurstEv::Spawn(id) => {
                self.trace.push((now.as_nanos(), id));
                if id % 4 == 0 {
                    sched.at(
                        now + SimDuration::from_nanos(u64::from(id % 48)),
                        BurstEv::Leaf(id ^ 0x8000_0000),
                    );
                    sched.after(SimDuration::ZERO, BurstEv::Leaf(id));
                }
            }
            BurstEv::Leaf(id) => self.trace.push((now.as_nanos(), id)),
        }
    }
}

#[test]
fn same_instant_burst_is_identical_on_both_queues() {
    const N: u32 = 10_000;
    const T: u64 = (3 << 16) + 4_001; // Mid-page, mid-bucket.
    fn run_on<Q: EventQueue<BurstEv>>() -> Vec<(u64, u32)> {
        let mut e = Engine::<Burst, Q>::with_queue(Burst { trace: Vec::new() });
        for id in 0..N {
            e.schedule(SimTime::from_nanos(T), BurstEv::Spawn(id));
        }
        e.schedule(SimTime::from_nanos(T + 9_000), BurstEv::Leaf(N));
        // The deadline falls between the burst and the straggler: the
        // last `peek_at` leaves the wheel's cursor on the straggler's
        // slot, and the pushes below target earlier slots of the page.
        e.run_until(SimTime::from_nanos(T + 100));
        assert_eq!(e.now(), SimTime::from_nanos(T + 44));
        for id in 0..N {
            // Clamped to `now`, then fanned over the next few buckets.
            e.schedule(
                SimTime::from_nanos(T + u64::from(id % 200)),
                BurstEv::Leaf(N + 1 + id),
            );
        }
        e.run();
        e.into_model().trace
    }
    let wheel = run_on::<WheelQueue<BurstEv>>();
    assert_eq!(wheel.len(), 2 * N as usize + N as usize / 2 + 1);
    assert_eq!(wheel, run_on::<HeapQueue<BurstEv>>());
}

/// Drop counts, one cell per [`Token`] ever created.
type DropTable = std::rc::Rc<std::cell::RefCell<Vec<u32>>>;

/// A payload that counts its drops in a shared table (clones register a
/// cell of their own).
struct Token {
    id: usize,
    drops: DropTable,
}

impl Token {
    fn new(drops: &DropTable) -> Token {
        let id = drops.borrow().len();
        drops.borrow_mut().push(0);
        Token {
            id,
            drops: drops.clone(),
        }
    }
}

impl Clone for Token {
    fn clone(&self) -> Token {
        Token::new(&self.drops)
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id] += 1;
    }
}

/// Every payload is dropped exactly once: handed out by `pop`, left
/// behind in level 0, level 1 or the overflow heap when the queue is
/// dropped, or copied by a clone taken with records on the free list.
fn check_drops_exactly_once<Q: EventQueue<Token> + Clone>() {
    let drops = DropTable::default();
    let mut q = Q::default();
    let mut seq = 0u64;
    let mut push = |q: &mut Q, at: u64| {
        q.push(SimTime::from_nanos(at), seq, Token::new(&drops));
        seq += 1;
    };
    for i in 0..40u64 {
        push(&mut q, i * 37); // Level 0, several to a bucket.
        push(&mut q, (1 + i % 5) << 16 | i); // Level 1, five chains.
        push(&mut q, (1 << 30) + (i << 20)); // Overflow.
    }
    // Popping through page 0 and into page 1 frees records and relinks a
    // level-1 chain; the pushes that follow reuse some of the free list.
    for _ in 0..45 {
        drop(q.pop().expect("queued").2);
    }
    for i in 0..10u64 {
        push(&mut q, (1 << 16) + 900 + i);
    }
    assert_eq!(drops.borrow().iter().sum::<u32>(), 45);
    let snapshot = q.clone();
    assert_eq!(snapshot.len(), q.len());
    let created = drops.borrow().len();
    assert_eq!(created, 130 + q.len());
    // The clone leaves its events where they are; the original pops its
    // way into the overflow region first.
    drop(snapshot);
    for _ in 0..60 {
        drop(q.pop().expect("queued").2);
    }
    assert!(!q.is_empty());
    drop(q);
    assert_eq!(*drops.borrow(), vec![1; created]);
}

#[test]
fn every_payload_is_dropped_exactly_once() {
    check_drops_exactly_once::<WheelQueue<Token>>();
    check_drops_exactly_once::<HeapQueue<Token>>();
}
