//! Figure 9: memcached (USR and ETC) p99 latency vs throughput for Linux,
//! IX B=1, IX B=64 and ZygOS; SLO 500µs.
//!
//! The memcached substitute is `zygos-kv`; its USR/ETC workload models
//! produce an empirical service-time distribution (<2µs mean) that feeds
//! a four-case scenario per panel (the RX batch bound is the only knob
//! that differs between cases).

use zygos_kv::workload::{KvWorkload, WorkloadKind};
use zygos_lab::{Case, SimHost};

use crate::Scale;

/// One curve of one panel.
pub struct Curve {
    /// Panel: `"USR"` or `"ETC"`.
    pub panel: &'static str,
    /// System label (IX annotated with its batch bound).
    pub system: String,
    /// `(throughput MRPS, p99 µs)` points.
    pub points: Vec<(f64, f64)>,
}

/// Runs one panel.
pub fn run_panel(scale: &Scale, kind: WorkloadKind) -> Vec<Curve> {
    let service = KvWorkload::new(kind).service_dist(50_000, 9);
    // Linux saturates at a small fraction of the dataplanes' ideal load
    // (≈11µs kernel cost per ~1µs task), so extend the grid downward.
    let mut loads: Vec<f64> = vec![0.01, 0.02, 0.03, 0.045, 0.06, 0.08];
    loads.extend_from_slice(&scale.loads);
    let sc = crate::scenario("fig09", scale)
        .service(service)
        .loads(loads)
        .case(Case::sim("Linux", SimHost::LinuxFloating))
        .case(Case::sim("IX B=1", SimHost::Ix).rx_batch(1))
        .case(Case::sim("IX B=64", SimHost::Ix).rx_batch(64))
        .case(Case::sim("ZygOS", SimHost::Zygos).rx_batch(64))
        .build()
        .expect("fig09 scenario");
    crate::run(&sc)
        .series
        .into_iter()
        .map(|series| Curve {
            panel: kind.label(),
            system: series.label.clone(),
            points: zygos_lab::xy(&series.points, |p| p.mrps, |p| p.p99_us),
        })
        .collect()
}

/// Both panels.
pub fn run(scale: &Scale) -> Vec<Curve> {
    let mut curves = run_panel(scale, WorkloadKind::Etc);
    curves.extend(run_panel(scale, WorkloadKind::Usr));
    curves
}

/// Prints the figure.
pub fn print(curves: &[Curve]) {
    crate::print_header(
        "fig09",
        "memcached USR/ETC: p99 vs throughput for Linux, IX B=1, IX B=64, ZygOS (SLO 500us)",
    );
    for c in curves {
        crate::print_series("fig09", c.panel, &c.system, &c.points);
    }
}
