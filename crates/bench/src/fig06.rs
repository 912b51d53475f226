//! Figure 6: p99 latency vs throughput for {deterministic, exponential,
//! bimodal-1} × {10µs, 25µs}, comparing Linux-floating, IX, ZygOS,
//! ZygOS-no-interrupts, and the zero-overhead M/G/16/FCFS model.
//!
//! One scenario per panel: four simulator cases sweep the load grid next
//! to a `model:central-fcfs` case, the "Theoretical M/G/16/FCFS" line. A
//! model host knows no wire, so the line adds the cost model's RTT to the
//! model's p99 and plots it at the offered rate.

use zygos_lab::{Case, SimHost};
use zygos_net::cost::CostModel;
use zygos_sim::queueing::Policy;

use crate::fig03::{dist_for, label_of};
use crate::Scale;

/// One curve of one panel.
pub struct Curve {
    /// Panel id, e.g. `"exponential/10us"`.
    pub panel: String,
    /// System label.
    pub system: String,
    /// `(throughput MRPS, p99 µs)` points.
    pub points: Vec<(f64, f64)>,
}

/// The systems plotted, in legend order.
pub const SYSTEMS: [SimHost; 4] = [
    SimHost::LinuxFloating,
    SimHost::Ix,
    SimHost::ZygosNoInterrupts,
    SimHost::Zygos,
];

/// Runs one panel.
pub fn run_panel(scale: &Scale, dist_label: &'static str, mean_us: f64) -> Vec<Curve> {
    let panel = format!("{dist_label}/{mean_us}us");
    let mut builder = crate::scenario("fig06", scale)
        .service(dist_for(dist_label, mean_us))
        .loads(scale.loads.clone());
    for host in SYSTEMS {
        builder = builder.case(Case::sim(label_of(host), host));
    }
    let theory = "Theoretical M/G/16/FCFS";
    let sc = builder
        .case(Case::model(theory, Policy::CentralFcfs))
        .build()
        .expect("fig06 scenario");
    let rtt_us = CostModel::zygos().network_rtt_ns as f64 / 1_000.0;
    crate::run(&sc)
        .series
        .into_iter()
        .map(|series| Curve {
            panel: panel.clone(),
            points: if series.label == theory {
                zygos_lab::xy(
                    &series.points,
                    |p| p.load * 16.0 / mean_us,
                    |p| p.p99_us + rtt_us,
                )
            } else {
                zygos_lab::xy(&series.points, |p| p.mrps, |p| p.p99_us)
            },
            system: series.label,
        })
        .collect()
}

/// All six panels.
pub fn run(scale: &Scale) -> Vec<Curve> {
    let mut curves = Vec::new();
    for dist in ["deterministic", "exponential", "bimodal-1"] {
        for mean in [10.0, 25.0] {
            curves.extend(run_panel(scale, dist, mean));
        }
    }
    curves
}

/// Prints the figure.
pub fn print(curves: &[Curve]) {
    crate::print_header(
        "fig06",
        "p99 latency vs throughput, 3 distributions x {10us,25us}, 4 systems + bound",
    );
    for c in curves {
        crate::print_series("fig06", &c.panel, &c.system, &c.points);
    }
}
