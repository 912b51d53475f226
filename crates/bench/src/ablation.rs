//! Ablation studies of ZygOS's design choices plus the
//! bimodal-2 experiment the paper's system evaluation omits.
//!
//! 1. **Victim-order randomization** — §5 randomizes the order in which an
//!    idle core polls victims. Sequential order biases stealing toward
//!    low-numbered cores.
//! 2. **IPI delivery latency** — the exit-less IPIs of §5 land in ~1µs;
//!    how much of ZygOS's tail advantage survives slower delivery?
//! 3. **Steal cost** — the remote cacheline transfers of a steal; at what
//!    cost does work conservation stop paying for itself?
//! 4. **Bimodal-2 at the system level** — §3.4 drops bimodal-2 because
//!    partitioned FCFS is pathological; the work-conserving ZygOS is not.
//!
//! Every variant is a one-case scenario (the ablation knobs are ordinary
//! [`zygos_lab::Case`] policy fields) with a 70% load grid and a
//! `[search]` block, so one run gives both columns.

use zygos_lab::{Case, Scenario, SearchSpec, SimHost};
use zygos_sim::dist::ServiceDist;

use crate::Scale;

/// One ablation result row.
pub struct Row {
    /// Ablation group.
    pub group: &'static str,
    /// Variant label.
    pub variant: String,
    /// Max load meeting the 10·S̄ SLO (exp, 10µs unless stated).
    pub max_load: f64,
    /// p99 at 70% load (µs).
    pub p99_at_70: f64,
}

/// Builds the one-case scenario of a variant (exp/10µs unless the case
/// overrides the service via `service`).
fn variant_scenario(scale: &Scale, service: ServiceDist, case: Case) -> Scenario {
    crate::scenario("ablation", scale)
        .service(service)
        .loads(vec![0.7])
        .search(SearchSpec {
            quantile: 0.99,
            bound_us: 100.0,
            resolution: scale.resolution,
        })
        .case(case)
        .build()
        .expect("ablation scenario")
}

fn evaluate(group: &'static str, variant: String, sc: &Scenario) -> Row {
    let report = crate::run(sc);
    let series = &report.series[0];
    Row {
        group,
        variant,
        max_load: series.search.as_ref().expect("sim host searches").max_load,
        p99_at_70: series.points[0].p99_us,
    }
}

/// Runs all ablations.
pub fn run(scale: &Scale) -> Vec<Row> {
    let exp10 = || ServiceDist::exponential_us(10.0);
    let mut rows = Vec::new();

    // 1. Victim-order randomization.
    for randomize in [true, false] {
        let mut case = Case::sim("zygos", SimHost::Zygos);
        if !randomize {
            case = case.sequential_steal();
        }
        let sc = variant_scenario(scale, exp10(), case);
        rows.push(evaluate(
            "steal-order",
            if randomize {
                "randomized"
            } else {
                "sequential"
            }
            .into(),
            &sc,
        ));
    }

    // 2. IPI delivery latency.
    for delivery_ns in [300u64, 1_200, 5_000, 20_000] {
        let sc = variant_scenario(
            scale,
            exp10(),
            Case::sim("zygos", SimHost::Zygos).ipi_delivery_ns(delivery_ns),
        );
        rows.push(evaluate(
            "ipi-delivery",
            format!("{:.1}us", delivery_ns as f64 / 1_000.0),
            &sc,
        ));
    }

    // 3. Steal cost.
    for steal_ns in [0u64, 350, 2_000, 8_000] {
        let sc = variant_scenario(
            scale,
            exp10(),
            Case::sim("zygos", SimHost::Zygos).steal_extra_ns(steal_ns),
        );
        rows.push(evaluate("steal-cost", format!("{steal_ns}ns"), &sc));
    }

    // 4. Bimodal-2 at the system level (SLO 10·S̄ = 100µs; note the
    // zero-load p99 of bimodal-2 is only 0.5·S̄, so the SLO is loose for
    // the fast mode but catastrophic under head-of-line blocking). Each
    // host brings its own calibrated cost model.
    for host in [SimHost::Ix, SimHost::Zygos, SimHost::LinuxFloating] {
        let sc = variant_scenario(
            scale,
            ServiceDist::bimodal2_us(10.0),
            Case::sim(crate::fig03::label_of(host), host),
        );
        rows.push(evaluate(
            "bimodal-2",
            crate::fig03::label_of(host).into(),
            &sc,
        ));
    }

    rows
}

/// Prints the ablation table.
pub fn print(rows: &[Row]) {
    println!("# ablations: ZygOS design choices (exp 10us unless noted; SLO p99<=100us)");
    println!(
        "{:<14} {:<28} {:>12} {:>12}",
        "group", "variant", "load@SLO", "p99@70%"
    );
    for r in rows {
        println!(
            "{:<14} {:<28} {:>12.2} {:>10.1}us",
            r.group, r.variant, r.max_load, r.p99_at_70
        );
    }
}
