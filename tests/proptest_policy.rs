//! Property-based tests of the policy plane's new control loops: the
//! Breakwater-style credit pool (admission) and the SLO-margin core
//! allocator (staffing).
//!
//! Both are pure state machines, so the properties are model-checked
//! directly — no simulator or runtime host involved.

use proptest::prelude::*;

use zygos::sched::{
    AllocatorConfig, CreditConfig, CreditPool, Decision, PolicySignal, SloController, SloTuning,
};

fn credit_cfg(min: u32, max: u32, initial: u32) -> CreditConfig {
    CreditConfig {
        min_credits: min,
        max_credits: max,
        initial_credits: initial,
        additive: 2,
        md_factor: 0.3,
        target: 100.0,
    }
}

proptest! {
    /// The pool never admits beyond capacity: at every step,
    /// `in_flight <= capacity` or (after a multiplicative decrease pulled
    /// capacity below the already-admitted count) admission is refused
    /// until completions drain the excess. Also: capacity never leaves
    /// `[min_credits, max_credits]`.
    #[test]
    fn credits_never_admit_beyond_capacity(
        min_raw in 1u32..16,
        max in 16u32..256,
        initial in 1u32..512,
        // Each op: 0 = arrival, 1 = completion, 2 = AIMD tick with a
        // random congestion sample.
        ops in proptest::collection::vec((0u8..3, 0u32..10_000), 1..600),
    ) {
        let min = min_raw.min(max);
        let mut p = CreditPool::new(credit_cfg(min, max, initial));
        let mut outstanding: u32 = 0; // Admits minus releases (ground truth).
        for (op, arg) in ops {
            match op {
                0 => {
                    let admitted = p.try_admit();
                    if admitted {
                        outstanding += 1;
                        prop_assert!(
                            outstanding <= p.capacity(),
                            "admitted past capacity: {} > {}",
                            outstanding, p.capacity()
                        );
                    } else {
                        // Refusal is only legal when the pool is full (or
                        // over-committed after a shrink).
                        prop_assert!(outstanding >= p.capacity());
                    }
                }
                1 => {
                    if outstanding > 0 {
                        p.release();
                        outstanding -= 1;
                    }
                }
                _ => p.update(arg as f64),
            }
            prop_assert_eq!(p.in_flight(), outstanding);
            prop_assert!((min..=max).contains(&p.capacity()));
        }
    }

    /// No deadlock at zero credits: whatever the AIMD history, once every
    /// admitted request completes the pool admits again — the capacity
    /// floor (≥ 1) guarantees a grantable credit.
    #[test]
    fn credits_never_deadlock_at_zero(
        max in 1u32..128,
        initial in 1u32..128,
        // Adversarial congestion history: arbitrarily severe overloads.
        signals in proptest::collection::vec(0u64..u64::MAX / 2, 0..200),
        admits in 1u32..64,
    ) {
        let mut p = CreditPool::new(credit_cfg(1, max, initial));
        // Fill the pool to whatever it will take.
        let mut held = 0u32;
        for _ in 0..admits {
            if p.try_admit() { held += 1; }
        }
        // Crush capacity with the adversarial signal.
        for s in signals {
            p.update(s as f64);
        }
        prop_assert!(p.capacity() >= 1, "capacity floor violated");
        // Drain: every admitted request completes.
        for _ in 0..held {
            p.release();
        }
        prop_assert_eq!(p.in_flight(), 0);
        prop_assert!(p.try_admit(), "drained pool must admit (no deadlock)");
    }

    /// Settling: on a step load change, the SLO controller converges and
    /// then stops changing its mind — no limit cycle. The plant is a
    /// monotone queueing proxy: the tail ratio falls as cores are added
    /// (`ratio = k · demand / active`), utilization is the demand capped
    /// by the grant.
    #[test]
    fn slo_controller_settles_after_step_change(
        max in 8usize..33,
        demand_before in 1u32..8,
        demand_after in 8u32..16,
        k in 0.6f64..1.2,
    ) {
        let demand_after = demand_after.min(max as u32);
        let mut c = SloController::new(
            AllocatorConfig {
                min_cores: 1,
                max_cores: max,
                tuning: Default::default(),
            },
            SloTuning::default(),
        );
        let plant = |demand: u32, active: usize| PolicySignal {
            busy_cores: (demand as f64).min(active as f64),
            backlog: (demand as usize).saturating_sub(active),
            slo_ratio: Some(k * demand as f64 / active as f64),
        };
        // Warm up on the pre-step demand.
        for _ in 0..300 {
            let sig = plant(demand_before, c.active());
            c.observe(&sig);
        }
        // Step up, give it time to converge...
        for _ in 0..300 {
            let sig = plant(demand_after, c.active());
            c.observe(&sig);
        }
        // ...then require a fixed point: no further changes, ever.
        let settled = c.active();
        for t in 0..200 {
            let sig = plant(demand_after, c.active());
            let d = c.observe(&sig);
            prop_assert_eq!(d, Decision::Hold, "oscillating at tick {} (active {})", t, c.active());
        }
        prop_assert_eq!(c.active(), settled);
        // And the fixed point actually serves the demand: the plant's
        // ratio at the settled grant sits at or below the breach line.
        let final_ratio = k * demand_after as f64 / settled as f64;
        prop_assert!(
            final_ratio <= 1.0 || settled == max,
            "settled at {} cores with ratio {:.2} and head-room",
            settled, final_ratio
        );
    }
}
