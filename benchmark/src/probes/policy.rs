//! `sched::{policy, credit, alloc}` and `load::{retry, route}`.

use std::hint::black_box;

use zygos_load::retry::RetryPolicy;
use zygos_load::route::{conn_key, Balancer, RoutePolicy};
use zygos_sched::alloc::{AllocatorConfig, CoreAllocator, LoadSignal};
use zygos_sched::policy::{BackgroundOrder, BuiltinDispatch, DispatchPolicy, ZygosPolicy};
use zygos_sched::{CreditConfig, CreditPool, QuantumPolicy};

use super::{ns_per_call, Scale, Values};

pub fn probe(seed: u64, scale: Scale, v: &mut Values) {
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };

    // One dispatch decision as both hosts make it: walk the ladder, ask
    // whether this core may steal.
    let dispatch = BuiltinDispatch::Zygos(ZygosPolicy::new(
        true,
        true,
        QuantumPolicy::disabled(),
        BackgroundOrder::Fcfs,
    ));
    put(
        "sched.policy.ladder_walk_ns",
        ns_per_call(scale, |n| {
            for _ in 0..n {
                let d = black_box(&dispatch);
                let rungs = d.ladder().iter().fold(0u32, |acc, r| acc + *r as u32);
                black_box((rungs, d.may_steal(black_box(true))));
            }
        }),
    );

    let credits = CreditConfig::for_cores(16, 70.0);
    let mut pool = CreditPool::new(credits);
    put(
        "sched.credit.pool_admit_release_ns",
        ns_per_call(scale, |n| {
            for _ in 0..n {
                if black_box(pool.try_admit()) {
                    pool.release();
                }
            }
        }),
    );
    // Alternating under and over target keeps the pool moving both ways.
    let mut tick = 0u32;
    put(
        "sched.credit.aimd_update_ns",
        ns_per_call(scale, |n| {
            for _ in 0..n {
                tick += 1;
                pool.update(black_box(if tick.is_multiple_of(3) { 120.0 } else { 40.0 }));
            }
            black_box(pool.capacity());
        }),
    );

    let mut allocator = CoreAllocator::new(AllocatorConfig::paper(16));
    put(
        "sched.alloc.observe_ns",
        ns_per_call(scale, |n| {
            for i in 0..n {
                // A slow swing between two and fourteen busy cores.
                let busy = 8.0 + 6.0 * ((i % 200) as f64 / 100.0 - 1.0);
                black_box(allocator.observe(LoadSignal {
                    busy_cores: busy,
                    backlog: i % 32,
                }));
            }
        }),
    );

    let retry = RetryPolicy::Backoff {
        base_us: 50,
        factor: 2.0,
        max_attempts: 4,
    };
    put(
        "load.retry.decide_ns",
        ns_per_call(scale, |n| {
            for i in 0..n as u64 {
                black_box(retry.on_shed_jittered(
                    (i % 5) as u32,
                    i % 1_000,
                    conn_key(seed, i as usize % 2_752),
                ));
            }
        }),
    );

    let mut balancer = Balancer::new(RoutePolicy::PowerOfTwoChoices, 4, seed);
    put(
        "load.route.po2c_route_ns",
        ns_per_call(scale, |n| {
            for i in 0..n {
                black_box(balancer.route(conn_key(seed, i)));
            }
        }),
    );
}
