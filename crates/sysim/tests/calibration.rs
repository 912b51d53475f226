//! Calibration tests: the simulator must reproduce the paper's headline
//! efficiency numbers (abstract and §6.1) within tolerance.
//!
//! These are the anchors that keep the cost model honest: they run the
//! max-load search every `[search]` block runs, and divide by the
//! closed-form zero-overhead bounds, exact for these exponential
//! workloads.

use zygos_sim::dist::ServiceDist;
use zygos_sim::queueing::theory::{mm1_max_load_at_p99_slo, mmn_max_load_at_p99_slo};
use zygos_sysim::{max_load_at_quantile_slo_counting, SysConfig, SystemKind};

fn cfg(system: SystemKind, mean_us: f64) -> SysConfig {
    let mut c = SysConfig::paper(system, ServiceDist::exponential_us(mean_us), 0.5);
    c.requests = 40_000;
    c.warmup = 8_000;
    c
}

/// Abstract: "for an SLO expressed at the 99th percentile, ZygOS achieves
/// 75% of the maximum possible load determined by a theoretical,
/// zero-overhead model (centralized queueing with FCFS) for 10µs tasks".
#[test]
fn zygos_efficiency_at_10us_near_75_percent() {
    let slo_us = 100.0;
    let zygos =
        max_load_at_quantile_slo_counting(&cfg(SystemKind::Zygos, 10.0), 0.99, slo_us, 40).0;
    let bound = mmn_max_load_at_p99_slo(16, 10.0);
    let eff = zygos / bound;
    assert!(
        (0.60..0.90).contains(&eff),
        "ZygOS 10us efficiency = {eff:.3} (load {zygos:.3} / bound {bound:.3})"
    );
}

/// Abstract: "... and 88% for 25µs tasks".
#[test]
fn zygos_efficiency_at_25us_near_88_percent() {
    let slo_us = 250.0;
    let zygos =
        max_load_at_quantile_slo_counting(&cfg(SystemKind::Zygos, 25.0), 0.99, slo_us, 40).0;
    let bound = mmn_max_load_at_p99_slo(16, 10.0);
    let eff = zygos / bound;
    assert!(
        (0.75..0.97).contains(&eff),
        "ZygOS 25us efficiency = {eff:.3} (load {zygos:.3} / bound {bound:.3})"
    );
}

/// §6.1 ordering at the 10×S̄ SLO for 10µs exponential tasks:
/// ZygOS > Linux-floating and ZygOS > IX > Linux-partitioned.
#[test]
fn figure7_system_ordering_holds() {
    let slo_us = 100.0;
    let zygos =
        max_load_at_quantile_slo_counting(&cfg(SystemKind::Zygos, 10.0), 0.99, slo_us, 25).0;
    let ix = max_load_at_quantile_slo_counting(&cfg(SystemKind::Ix, 10.0), 0.99, slo_us, 25).0;
    let lf =
        max_load_at_quantile_slo_counting(&cfg(SystemKind::LinuxFloating, 10.0), 0.99, slo_us, 25)
            .0;
    let lp = max_load_at_quantile_slo_counting(
        &cfg(SystemKind::LinuxPartitioned, 10.0),
        0.99,
        slo_us,
        25,
    )
    .0;
    assert!(zygos > ix, "zygos {zygos} vs ix {ix}");
    assert!(zygos > lf, "zygos {zygos} vs linux-floating {lf}");
    assert!(ix >= lp, "ix {ix} vs linux-partitioned {lp}");
    println!("load@SLO: zygos={zygos:.2} ix={ix:.2} linux-float={lf:.2} linux-part={lp:.2}");
}

/// §3.4: Linux-floating eventually beats IX as tasks grow (crossover near
/// 20µs for the exponential distribution).
#[test]
fn linux_floating_overtakes_ix_for_large_tasks() {
    let mean = 100.0;
    let slo_us = 10.0 * mean;
    let ix = max_load_at_quantile_slo_counting(&cfg(SystemKind::Ix, mean), 0.99, slo_us, 25).0;
    let lf =
        max_load_at_quantile_slo_counting(&cfg(SystemKind::LinuxFloating, mean), 0.99, slo_us, 25)
            .0;
    assert!(
        lf > ix,
        "at 100us tasks floating ({lf}) must beat IX ({ix})"
    );
}

/// IX with batching disabled converges to the partitioned-FCFS bound as the
/// task size grows (Figure 3): ≥90% efficiency at 25µs.
#[test]
fn ix_efficiency_matches_figure3() {
    let ix = max_load_at_quantile_slo_counting(&cfg(SystemKind::Ix, 25.0), 0.99, 250.0, 40).0;
    let bound = mm1_max_load_at_p99_slo(10.0);
    let eff = ix / bound;
    assert!(
        eff > 0.85,
        "IX 25us efficiency vs partitioned bound = {eff:.3}"
    );
}
