//! The staged differential wire: a `sim:staged` case running the
//! degenerate single-stage pipeline (`StagedConfig::zygos_equivalent`,
//! unified layout) must reproduce its `sim:zygos` base case
//! **bit-for-bit** — every field of every report point, not within a
//! tolerance (`common::assert_bits`). This is what certifies that the
//! staged plane's lowering adds *zero* modelling distortion: any
//! staged-vs-zygos difference in a real experiment is then attributable
//! to stage decomposition and core layout, never to the plumbing.
//!
//! This rung only proves that the degenerate pipeline is handed to the
//! ZygOS model. The computed rung — IX run as the paper pipeline — is
//! pinned by `ix_golden_pin` in `zygos-sysim`'s `driver.rs`.

mod common;

use common::assert_bits;
use zygos::lab::{run_scenario, Case, Scenario, SimHost};
use zygos::sim::dist::ServiceDist;
use zygos::sysim::StagedConfig;

#[test]
fn degenerate_staged_pipeline_is_bit_identical_to_zygos() {
    // One twin pair across sub- and over-saturation loads. The grid
    // descends so no two consecutive loads form a warm-start chain:
    // staged cases always run cold, so the zygos twin must too.
    let sc = Scenario::builder("staged-diff")
        .service(ServiceDist::exponential_us(10.0))
        .cores(4)
        .conns(64)
        .loads(vec![1.3, 0.8, 0.3])
        .requests(6_000, 1_200)
        .smoke(2_000, 400)
        .stages(StagedConfig::zygos_equivalent().stages)
        .case(Case::sim("base", SimHost::Zygos))
        .case(Case::sim("staged", SimHost::Staged))
        .build()
        .expect("valid");
    let report = run_scenario(&sc, true).expect("runs");
    let zygos = report.series("base").expect("zygos series");
    let staged = report.series("staged").expect("staged series");
    assert_eq!(zygos.points.len(), staged.points.len());
    assert!(staged.deterministic);
    for (b, f) in zygos.points.iter().zip(&staged.points) {
        // The degenerate pipeline reports no stage decomposition at all:
        // it is the zygos world, not a one-stage imitation of it.
        assert!(
            f.stage_p99_wait_us.is_empty(),
            "degenerate staged run must not grow a stage plane"
        );
        assert_bits(b, f, &format!("staged @ load {}", b.load));
    }
}
