//! A counting global allocator: heap allocations per op are a
//! machine-independent cost that repeats run to run.
//!
//! Off (the timed pass): one relaxed load per allocation. On: one
//! relaxed add to a counter the thread shares with at most a few others,
//! on its own cache line — no lock, no contention between the client and
//! the workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot(AtomicU64);

static ON: AtomicBool = AtomicBool::new(false);
static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` and without a destructor: touching it allocates nothing and
    // stays valid while the thread tears down, both of which an
    // allocator hook needs.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Set while this thread runs the benchmark's own bookkeeping.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// The allocator the benchmark binary installs.
pub struct Counting;

#[inline]
fn note() {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    if EXEMPT.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    // Relaxed: a statistic that publishes no other data.
    COUNTS[slot].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// counter update that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations (`alloc`, `alloc_zeroed`, `realloc` calls) counted so far,
/// over all threads.
pub fn count() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Runs `f` with counting on and returns its result and the number of
/// allocations the process made meanwhile (all threads: a live server's
/// workers count toward the RPCs they serve). Restores the previous
/// on/off state.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was = ON.swap(true, Ordering::Relaxed);
    let before = count();
    let out = f();
    let n = count() - before;
    ON.store(was, Ordering::Relaxed);
    (out, n)
}

/// Runs `f` without counting this thread's allocations: the span
/// recorder's own bookkeeping is not a cost of the program.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = EXEMPT.with(|e| e.replace(true));
    let out = f();
    EXEMPT.with(|e| e.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_only_while_on_and_not_exempt() {
        // Other tests allocate on their own threads while this runs, so
        // only lower bounds are certain.
        let (v, n) = counted(|| (0..100).map(|i| vec![i; 4]).collect::<Vec<_>>());
        assert_eq!(v.len(), 100);
        assert!(n >= 100, "{n} allocations counted for 100 vectors");

        let mine = |f: &dyn Fn()| {
            let slot = MY_SLOT.with(Cell::get);
            let before = COUNTS[slot].0.load(Ordering::Relaxed);
            f();
            COUNTS[slot].0.load(Ordering::Relaxed) - before
        };
        let _ = counted(|| {
            let counted_here = mine(&|| drop(std::hint::black_box(vec![1u8; 32])));
            let exempt_here = mine(&|| uncounted(|| drop(std::hint::black_box(vec![1u8; 32]))));
            assert!(counted_here >= 1);
            // Slots are shared between threads, so another test's thread
            // may add to this one; the exempt closure itself adds none.
            assert!(exempt_here <= counted_here || exempt_here < 64);
        });
    }
}
