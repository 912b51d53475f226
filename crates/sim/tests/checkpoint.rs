//! Checkpoint exactness: `checkpoint()` then `run` must be bit-identical
//! to running straight through, on both queue backends.
//!
//! The engine's contract (`Engine::checkpoint`) is that a clone taken
//! between events captures the *entire* future: resuming the clone and
//! resuming the original produce the same event trace, event for event.
//! The hard cases live in the timing wheel — a checkpoint can land
//! mid-page, with a partially drained level-0 chain, records on the free
//! list, level-1 chains relinked by a page turn, and occupancy bitmaps
//! mid-word — so every property here runs on `WheelQueue` and on the
//! `HeapQueue` oracle, and the mid-page and recycled-record tests pin the
//! wheel's clone against the oracle at every possible checkpoint offset.

use proptest::prelude::*;
use zygos_sim::engine::{Engine, EventQueue, HeapQueue, Model, Scheduler, WheelQueue};
use zygos_sim::time::{SimDuration, SimTime};

/// A model whose handler chains follow-ups at pseudo-random offsets (the
/// same fan-out recipe as `engine_diff.rs`), cloneable so an engine
/// checkpoint carries it.
#[derive(Clone)]
struct Chaos {
    trace: Vec<(u64, u32)>,
    budget: u32,
}

#[derive(Clone)]
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

fn seeded<Q: EventQueue<Ev>>(budget: u32) -> Engine<Chaos, Q> {
    let mut e = Engine::<Chaos, Q>::with_queue(Chaos {
        trace: Vec::new(),
        budget,
    });
    for i in 0..16 {
        e.schedule(SimTime::from_nanos(i * 1_000), Ev::Step(i as u32 + 1));
    }
    e
}

/// Runs `m` events, checkpoints, then finishes original and clone: both
/// must equal the straight-through trace exactly.
fn check_resume<Q: EventQueue<Ev> + Clone>(m: u64) {
    let mut straight = seeded::<Q>(800);
    straight.run();
    let want = straight.into_model().trace;

    let mut orig = seeded::<Q>(800);
    for _ in 0..m {
        if !orig.step() {
            break;
        }
    }
    let ck = orig.checkpoint();
    assert_eq!(ck.now(), orig.now());
    assert_eq!(ck.processed(), orig.processed());

    orig.run();
    assert_eq!(
        orig.into_model().trace,
        want,
        "taking a checkpoint perturbed the original"
    );

    let mut resumed = ck;
    resumed.run();
    assert_eq!(
        resumed.into_model().trace,
        want,
        "checkpoint -> resume diverged from straight-through"
    );
}

proptest! {
    /// checkpoint after M events + run(N) == run(M+N), for arbitrary M,
    /// on both queue backends.
    #[test]
    fn checkpoint_resume_equals_straight_through(m in 0u64..2_500) {
        check_resume::<WheelQueue<Ev>>(m);
        check_resume::<HeapQueue<Ev>>(m);
    }
}

/// Pushes concentrated at level-0 page boundaries: multiples of the
/// 65.5µs page stride, off by -1/0/+1, with heavy ties. Stepping `k`
/// events before the checkpoint lands the wheel mid-page with a partially
/// drained chain under the cursor.
#[test]
fn checkpoint_mid_page_at_wheel_boundary_matches_heap() {
    /// Sink model: records pops, schedules nothing, so the drain order is
    /// purely the queue's.
    #[derive(Clone)]
    struct Sink {
        trace: Vec<(u64, u32)>,
    }
    #[derive(Clone)]
    struct Tag(u32);
    impl Model for Sink {
        type Event = Tag;
        fn handle(&mut self, now: SimTime, Tag(x): Tag, _sched: &mut Scheduler<Tag>) {
            self.trace.push((now.as_nanos(), x));
        }
    }
    fn seeded<Q: EventQueue<Tag>>() -> Engine<Sink, Q> {
        let mut e = Engine::<Sink, Q>::with_queue(Sink { trace: Vec::new() });
        let mut tag = 0u32;
        for page in 0..4u64 {
            for off in [0u64, 1, 2] {
                // Three ties per instant: exercises FIFO-within-slot.
                for _ in 0..3 {
                    let at = (page << 16) + off - u64::from(page > 0);
                    e.schedule(SimTime::from_nanos(at), Tag(tag));
                    tag += 1;
                }
            }
        }
        e
    }
    let mut oracle = seeded::<HeapQueue<Tag>>();
    oracle.run();
    let want = oracle.into_model().trace;
    let total = want.len() as u64;
    for k in 0..=total {
        let mut e = seeded::<WheelQueue<Tag>>();
        for _ in 0..k {
            assert!(e.step());
        }
        let mut resumed = e.checkpoint();
        resumed.run();
        assert_eq!(
            resumed.into_model().trace,
            want,
            "mid-page checkpoint at offset {k} diverged from the heap oracle"
        );
    }
}

/// Checkpoints of a wheel whose arena has history: records freed by pops
/// and reused by later pushes (a non-empty free list, chains that no
/// longer follow arena order) and level-1 chains relinked into level 0 by
/// a page turn. Taken at every offset of the run and resumed on both
/// queues; every resumed trace must equal the heap's straight-through one.
#[test]
fn checkpoint_with_recycled_records_and_relinked_chains_resumes_exactly() {
    /// Every third event schedules a follow-up a page or so ahead — into
    /// level 1, on a record a pop has just freed.
    #[derive(Clone)]
    struct Recycler {
        trace: Vec<(u64, u32)>,
    }
    #[derive(Clone)]
    struct Tag(u32);
    impl Model for Recycler {
        type Event = Tag;
        fn handle(&mut self, now: SimTime, Tag(x): Tag, sched: &mut Scheduler<Tag>) {
            self.trace.push((now.as_nanos(), x));
            if x % 3 == 0 && x < 1_000 {
                let ahead = 60_000 + u64::from(x) * 977 % 20_000;
                sched.after(SimDuration::from_nanos(ahead), Tag(x + 1_000));
            }
        }
    }
    fn seeded<Q: EventQueue<Tag>>() -> Engine<Recycler, Q> {
        let mut e = Engine::<Recycler, Q>::with_queue(Recycler { trace: Vec::new() });
        let mut tag = 0u32;
        // Pages 0, 1, 2 and 5, eight events each with ties and shared
        // buckets, then two beyond the level-1 horizon.
        for page in [0u64, 1, 2, 5] {
            for k in 0..8u64 {
                let at = (page << 16) + (k / 2) * 4_099 + (k % 2) * 3;
                e.schedule(SimTime::from_nanos(at), Tag(tag));
                tag += 1;
            }
        }
        for far in [1u64 << 29, (1 << 29) + 5] {
            e.schedule(SimTime::from_nanos(far), Tag(tag));
            tag += 1;
        }
        e
    }
    fn resume_all<Q: EventQueue<Tag> + Clone>(want: &[(u64, u32)]) {
        for k in 0..=want.len() {
            let mut e = seeded::<Q>();
            for _ in 0..k {
                assert!(e.step());
            }
            let mut resumed = e.checkpoint();
            e.run();
            resumed.run();
            assert_eq!(
                e.model().trace,
                want,
                "checkpoint at {k} perturbed the original"
            );
            assert_eq!(resumed.model().trace, want, "checkpoint at {k} diverged");
        }
    }
    let mut oracle = seeded::<HeapQueue<Tag>>();
    oracle.run();
    let want = oracle.into_model().trace;
    assert_eq!(want.len(), 34 + 12);
    resume_all::<WheelQueue<Tag>>(&want);
    resume_all::<HeapQueue<Tag>>(&want);
}
