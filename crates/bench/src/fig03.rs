//! Figure 3: maximum load meeting the SLO (p99 ≤ 10·S̄) as a function of
//! mean service time, for the three baseline systems plus the two
//! zero-overhead theory bounds.
//!
//! Each `(distribution, service time)` cell is one scenario holding every
//! system's `sim:` case and the two bounds' `model:` cases; its `[search]`
//! block (the same bisection the CI gate runs) gives every curve's point.

use zygos_lab::{Case, Scenario, SearchSpec, SimHost};
use zygos_sim::dist::ServiceDist;
use zygos_sim::queueing::Policy;

use crate::Scale;

/// Distribution constructors used by Figures 3 and 7.
pub fn dist_for(label: &str, mean_us: f64) -> ServiceDist {
    match label {
        "deterministic" => ServiceDist::deterministic_us(mean_us),
        "exponential" => ServiceDist::exponential_us(mean_us),
        "bimodal-1" => ServiceDist::bimodal1_us(mean_us),
        other => panic!("unknown distribution {other}"),
    }
}

/// One curve of the figure.
pub struct Curve {
    /// Distribution panel.
    pub dist: &'static str,
    /// System (or bound) label.
    pub system: String,
    /// `(mean service time µs, max load at SLO)` points.
    pub points: Vec<(f64, f64)>,
}

/// The zero-overhead bounds plotted next to the systems, legend order.
pub const BOUNDS: [(Policy, &str); 2] = [
    (Policy::CentralFcfs, "M/G/16/FCFS"),
    (Policy::PartitionedFcfs, "16xM/G/1/FCFS"),
];

/// One cell's scenario: every system's `sim:` case, then the [`BOUNDS`]'
/// `model:` cases, searched for max load at p99 ≤ 10·`mean_us`. The
/// search grid spans (0, 1): these figures measure *below*-saturation
/// capacity.
pub fn cell_scenario(
    scale: &Scale,
    dist_label: &str,
    mean_us: f64,
    systems: &[SimHost],
) -> Scenario {
    let mut builder = crate::scenario("fig03", scale)
        .service(dist_for(dist_label, mean_us))
        // No grid: the search probes loads of its own.
        .search(SearchSpec {
            quantile: 0.99,
            bound_us: 10.0 * mean_us,
            resolution: scale.resolution,
        });
    for &host in systems {
        builder = builder.case(Case::sim(label_of(host), host));
    }
    for (policy, label) in BOUNDS {
        builder = builder.case(Case::model(label, policy));
    }
    builder.build().expect("fig03 scenario")
}

/// Runs one panel's curves over the given service-time grid: the systems'
/// curves, then the [`BOUNDS`]' (flat: a bound scales with S̄ exactly as
/// the SLO does).
pub fn run_panel(
    scale: &Scale,
    dist_label: &'static str,
    service_grid: &[f64],
    systems: &[SimHost],
) -> Vec<Curve> {
    let mut curves: Vec<Curve> = systems
        .iter()
        .map(|&host| label_of(host))
        .chain(BOUNDS.map(|(_, label)| label))
        .map(|label| Curve {
            dist: dist_label,
            system: label.to_string(),
            points: Vec::new(),
        })
        .collect();
    for &mean in service_grid {
        let report = crate::run(&cell_scenario(scale, dist_label, mean, systems));
        for (curve, series) in curves.iter_mut().zip(&report.series) {
            let search = series.search.as_ref().expect("deterministic cases search");
            curve.points.push((mean, search.max_load));
        }
    }
    curves
}

/// Display label matching the paper's figure legends.
pub fn label_of(host: SimHost) -> &'static str {
    match host {
        SimHost::Zygos => "ZygOS",
        SimHost::ZygosNoInterrupts => "ZygOS (no interrupts)",
        SimHost::Elastic => "ZygOS (elastic)",
        SimHost::Ix => "IX",
        SimHost::LinuxPartitioned => "Linux (partitioned connections)",
        SimHost::LinuxFloating => "Linux (floating connections)",
        SimHost::Staged => "ZygOS (staged pipeline)",
    }
}

/// The full figure: three distributions, the Figure-3 service grid.
pub fn run(scale: &Scale) -> Vec<Curve> {
    let grid = [2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 160.0, 200.0];
    let systems = [
        SimHost::LinuxPartitioned,
        SimHost::LinuxFloating,
        SimHost::Ix,
    ];
    let mut curves = Vec::new();
    for dist in ["deterministic", "exponential", "bimodal-1"] {
        curves.extend(run_panel(scale, dist, &grid, &systems));
    }
    curves
}

/// Prints the figure.
pub fn print(curves: &[Curve]) {
    crate::print_header(
        "fig03",
        "max load @ SLO (p99 <= 10*S) vs mean service time, baselines + bounds",
    );
    for c in curves {
        crate::print_series("fig03", c.dist, &c.system, &c.points);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zygos_lab::HostSpec;
    use zygos_sysim::max_load_at_quantile_slo_counting;

    #[test]
    fn cells_print_the_gate_search_and_flat_bounds() {
        // IX on exponential 5 µs work reads 0.375 through cold probes and
        // 0.25 through the warm-started search at this scale: the figure
        // must print the search the `[search]` gate runs.
        let (scale, dist, means) = (Scale::smoke(), "exponential", [2.0, 5.0]);
        let systems = [SimHost::Ix];
        let curves = run_panel(&scale, dist, &means, &systems);
        for (i, &mean) in means.iter().enumerate() {
            let sc = cell_scenario(&scale, dist, mean, &systems);
            for (case, curve) in sc.cases.iter().zip(&curves) {
                let HostSpec::Sim(_) = case.host else {
                    continue;
                };
                let cfg = zygos_lab::sys_config_for(&sc, case, 0.5, false).expect("sim case");
                let (want, _, _) =
                    max_load_at_quantile_slo_counting(&cfg, 0.99, 10.0 * mean, scale.resolution);
                assert_eq!(curve.points[i], (mean, want), "{}", curve.system);
            }
        }
        for bound in &curves[systems.len()..] {
            let first = bound.points[0].1;
            assert!(first > 0.0, "{}", bound.system);
            assert!(
                bound.points.iter().all(|&(_, load)| load == first),
                "{} is not flat: {:?}",
                bound.system,
                bound.points
            );
        }
    }
}
