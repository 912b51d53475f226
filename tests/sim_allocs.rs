//! Allocation count of the ZygOS simulator.
//!
//! A ZygOS run allocates its world once: queues, the event wheel, the
//! recorder and the client's live-attempt table grow to their working size
//! and are then reused, so the count barely moves with run length. A
//! RESTART clone copies the world, and the copy allocates only the world's
//! fixed arrays, not one buffer per connection, whether one thread walks
//! the split tree or two.
//!
//! This is its own test binary with a single test, so nothing else
//! allocates while the counting allocator is on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use zygos::load::retry::RetryPolicy;
use zygos::sched::CreditConfig;
use zygos::sim::dist::ServiceDist;
use zygos::sysim::{run_restart, run_system, SysConfig, SystemKind, TailConfig};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter update
// that neither allocates nor touches the returned memory.
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

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        // Relaxed: a statistic that publishes no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs (its result is dropped uncounted).
fn count<T>(f: impl FnOnce() -> T) -> u64 {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    COUNTING.store(false, Ordering::SeqCst);
    drop(out);
    n
}

/// Most allocations one ZygOS run may make, at any of the sizes.
const MAX_PER_RUN: u64 = 400;
/// Most the count may grow from the smallest run to the largest.
const MAX_GROWTH: u64 = 32;
/// Most allocations per clone, averaged over a RESTART run.
const MAX_PER_CLONE: u64 = 250;

#[test]
fn zygos_runs_and_restart_clones_allocate_a_bounded_count() {
    let sizes = [20_000, 40_000, 80_000];
    let paper = |system, load| SysConfig::paper(system, ServiceDist::exponential_us(10.0), load);
    let mut elastic = paper(SystemKind::Elastic { min_cores: 2 }, 0.5);
    elastic.preemption_quantum_us = 25.0;
    // Server-edge credits, backoff and a client timeout at overload: every
    // attempt arms a timeout, so the edge's live-attempt table is in use.
    let mut retry = paper(SystemKind::Zygos, 1.3);
    retry.admission = Some(CreditConfig::for_cores(retry.cores, 80.0));
    retry.retry = Some(RetryPolicy::Backoff {
        base_us: 50,
        factor: 2.0,
        max_attempts: 3,
    });
    retry.retry_timeout_us = Some(120.0);
    let configs = [
        ("static 0.3", paper(SystemKind::Zygos, 0.3)),
        ("static 0.8", paper(SystemKind::Zygos, 0.8)),
        ("elastic q=25us 0.5", elastic),
        ("retry + timeout 1.3", retry),
    ];
    let mut failures = Vec::new();
    for (name, mut cfg) in configs {
        let counts: Vec<u64> = sizes
            .iter()
            .map(|&requests| {
                (cfg.requests, cfg.warmup) = (requests, requests / 5);
                count(|| run_system(&cfg))
            })
            .collect();
        let growth = counts[2].saturating_sub(counts[0]);
        if counts.iter().any(|&n| n >= MAX_PER_RUN) || growth > MAX_GROWTH {
            failures.push(format!(
                "{name}: {counts:?} allocations at {sizes:?} requests \
                 (limit < {MAX_PER_RUN} per run, growth <= {MAX_GROWTH})"
            ));
        }
    }

    // The smoke `[tail]` block of scenarios/tail_splitting.toml.
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.85);
    (cfg.requests, cfg.warmup) = (4_000, 800);
    let tail = TailConfig {
        quantile: 0.999,
        levels: vec![16, 32, 64],
        splits: 4,
        check_every: 64,
        clone_budget: 2_000_000,
    };
    // One worker walks the split tree alone; two run its trajectories
    // in parallel and must not allocate more per clone.
    for threads in [1, 2] {
        let mut clones = 0;
        let allocs = count(|| {
            let (out, t) = run_restart(&cfg, &tail, threads);
            clones = t.clones;
            out
        });
        assert!(clones > 0, "the smoke config must split");
        if allocs > MAX_PER_CLONE * clones {
            failures.push(format!(
                "RESTART on {threads} thread(s): {allocs} allocations over {clones} clones \
                 = {:.1} per clone (limit {MAX_PER_CLONE})",
                allocs as f64 / clones as f64
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
