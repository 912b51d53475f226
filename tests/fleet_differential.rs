//! The fleet differential wire: a 1-shard `fleet:*` case under
//! pass-through routing must reproduce its `sim:*` base case
//! **bit-for-bit** — every field of every report point, not within a
//! tolerance (`common::assert_bits`). This is what certifies that the
//! fleet plane's lowering and Σ-aggregation add *zero* modelling
//! distortion: any fleet-vs-sim difference in a real experiment is then
//! attributable to sharding and routing, never to the plumbing.

mod common;

use common::assert_bits;
use zygos::lab::{run_scenario, Case, FleetSpec, Scenario, SimHost};
use zygos::load::retry::RetryPolicy;
use zygos::sim::dist::ServiceDist;
use zygos::sysim::{AdmissionMode, RoutePolicy};

#[test]
fn single_shard_pass_through_fleet_is_bit_identical_to_sim() {
    // Four twin pairs: a plain world across sub- and over-saturation
    // loads, a credit-gated world shedding at overload (exercising the
    // per-class/shed reductions as well as the latency ones), the same
    // gate with backoff retries (so retry_rate, give_up_rate and goodput
    // are non-trivial), and a plain Linux world, so the wire holds for a
    // server model other than ZygOS. The grid descends so no two
    // consecutive loads form a warm-start chain: fleet shards always run
    // cold, so the sim twin must too.
    let backoff = RetryPolicy::Backoff {
        base_us: 50,
        factor: 2.0,
        max_attempts: 2,
    };
    let sc = Scenario::builder("fleet-diff")
        .service(ServiceDist::exponential_us(10.0))
        .cores(4)
        .conns(64)
        .loads(vec![1.3, 0.8, 0.3])
        .requests(6_000, 1_200)
        .smoke(2_000, 400)
        .fleet(FleetSpec { shards: 1 })
        .case(Case::sim("base", SimHost::Zygos))
        .case(Case::fleet("fleet", SimHost::Zygos).routing(RoutePolicy::PassThrough))
        .case(
            Case::sim("base-credits", SimHost::Zygos)
                .admission(AdmissionMode::ServerEdge)
                .credit_target_us(70.0),
        )
        .case(
            Case::fleet("fleet-credits", SimHost::Zygos)
                .routing(RoutePolicy::PassThrough)
                .admission(AdmissionMode::ServerEdge)
                .credit_target_us(70.0),
        )
        .case(
            Case::sim("base-retry", SimHost::Zygos)
                .admission(AdmissionMode::ServerEdge)
                .credit_target_us(70.0)
                .retry(backoff),
        )
        .case(
            Case::fleet("fleet-retry", SimHost::Zygos)
                .routing(RoutePolicy::PassThrough)
                .admission(AdmissionMode::ServerEdge)
                .credit_target_us(70.0)
                .retry(backoff),
        )
        .case(Case::sim("base-linux", SimHost::LinuxFloating))
        .case(Case::fleet("fleet-linux", SimHost::LinuxFloating).routing(RoutePolicy::PassThrough))
        .build()
        .expect("valid");
    let report = run_scenario(&sc, true).expect("runs");
    for (sim_label, fleet_label) in [
        ("base", "fleet"),
        ("base-credits", "fleet-credits"),
        ("base-retry", "fleet-retry"),
        ("base-linux", "fleet-linux"),
    ] {
        let sim = report.series(sim_label).expect("sim series");
        let fleet = report.series(fleet_label).expect("fleet series");
        assert_eq!(sim.points.len(), fleet.points.len());
        assert!(fleet.deterministic);
        for (b, f) in sim.points.iter().zip(&fleet.points) {
            assert_bits(b, f, &format!("{fleet_label} @ load {}", b.load));
        }
    }
    // The retry twin exercises the retry plane, not only its zeros.
    let retry = &report.series("base-retry").expect("retry series").points[0];
    assert!(
        retry.retry_rate > 0.0 && retry.give_up_rate > 0.0 && retry.goodput < 1.0,
        "retry twin at load {}: {retry:?}",
        retry.load
    );
}
