//! Figure 10 and Table 1: Silo running TPC-C.
//!
//! * **Figure 10a** — the CCDF of per-transaction *service* time, measured
//!   by running our Silo port closed-loop (no networking, GC disabled),
//!   exactly like the paper's local-driver measurement.
//! * **Figure 10b** — p99 *end-to-end* latency vs throughput for Linux, IX
//!   and ZygOS serving the TPC-C mix. The measured service-time samples
//!   from (a) become an empirical distribution for the system simulator.
//! * **Table 1** — max load under the 1000µs p99 SLO, speedups vs Linux,
//!   and tail latency at 50/75/90% of each system's own max load.

use std::time::Instant;

use zygos_lab::{Case, SearchSpec, SimHost};
use zygos_silo::tpcc::{Tpcc, TpccConfig, TpccRng, TxnType};
use zygos_sim::dist::ServiceDist;
use zygos_sim::stats::LatencyHistogram;

use crate::Scale;

/// Measured Silo service-time data (Figure 10a).
pub struct SiloMeasurement {
    /// Per-transaction-type service-time histograms.
    pub per_type: Vec<(&'static str, LatencyHistogram)>,
    /// Histogram of the full mix.
    pub mix: LatencyHistogram,
    /// Raw mix samples in µs (feed for the empirical distribution).
    pub mix_samples: Vec<f64>,
    /// Closed-loop throughput achieved while measuring, in KTPS.
    pub closed_loop_ktps: f64,
}

/// Runs the closed-loop service-time measurement (Figure 10a).
pub fn measure_service_times(scale: &Scale) -> SiloMeasurement {
    let tpcc = Tpcc::load(TpccConfig::spec(scale.warehouses));
    let mut rng = TpccRng::new(7);
    let mut per_type: Vec<(&'static str, LatencyHistogram)> = TxnType::ALL
        .iter()
        .map(|t| (t.label(), LatencyHistogram::new()))
        .collect();
    let mut mix = LatencyHistogram::new();
    let mut mix_samples = Vec::with_capacity(scale.silo_txns);
    // Warm the caches before timing.
    for _ in 0..(scale.silo_txns / 10).max(50) {
        let kind = TxnType::sample(&mut rng);
        tpcc.run(kind, &mut rng);
    }
    let wall = Instant::now();
    for _ in 0..scale.silo_txns {
        let kind = TxnType::sample(&mut rng);
        let start = Instant::now();
        tpcc.run(kind, &mut rng);
        let us = start.elapsed().as_nanos() as f64 / 1_000.0;
        let idx = TxnType::ALL.iter().position(|t| t == &kind).expect("type");
        per_type[idx].1.record_micros_f64(us);
        mix.record_micros_f64(us);
        mix_samples.push(us);
    }
    let closed_loop_ktps = scale.silo_txns as f64 / wall.elapsed().as_secs_f64() / 1_000.0;
    SiloMeasurement {
        per_type,
        mix,
        mix_samples,
        closed_loop_ktps,
    }
}

/// Prints Figure 10a (CCDF per transaction type + mix).
pub fn print_fig10a(m: &SiloMeasurement) {
    crate::print_header(
        "fig10a",
        "CCDF of TPC-C service time per transaction type (Silo local, GC off)",
    );
    println!(
        "# mix: mean={:.1}us p50={:.1}us p99={:.1}us, closed-loop {:.0} KTPS",
        m.mix.mean_us(),
        m.mix.p50_us(),
        m.mix.p99_us(),
        m.closed_loop_ktps
    );
    for (label, hist) in &m.per_type {
        // Thin the CCDF to ≤64 points per curve for readability.
        let ccdf = hist.ccdf_us();
        let step = (ccdf.len() / 64).max(1);
        let pts: Vec<(f64, f64)> = ccdf.iter().step_by(step).map(|&(x, y)| (x, y)).collect();
        crate::print_series("fig10a", "service-time", label, &pts);
    }
    let ccdf = m.mix.ccdf_us();
    let step = (ccdf.len() / 64).max(1);
    let pts: Vec<(f64, f64)> = ccdf.iter().step_by(step).map(|&(x, y)| (x, y)).collect();
    crate::print_series("fig10a", "service-time", "Mix", &pts);
}

/// The three systems of Figure 10b / Table 1, paper legend order.
pub const SYSTEMS: [(SimHost, &str); 3] = [
    (SimHost::LinuxFloating, "Linux"),
    (SimHost::Ix, "IX"),
    (SimHost::Zygos, "ZygOS"),
];

/// The TPC-C scenario of `systems` behind Figure 10b and Table 1.
fn silo_scenario(
    scale: &Scale,
    service: &ServiceDist,
    loads: Vec<f64>,
    systems: &[(SimHost, &str)],
) -> zygos_lab::ScenarioBuilder {
    let mut builder = crate::scenario("fig10b", scale)
        .service(service.clone())
        .loads(loads);
    for &(host, label) in systems {
        builder = builder.case(Case::sim(label, host));
    }
    builder
}

/// One Figure-10b curve.
pub struct Curve {
    /// System label.
    pub system: &'static str,
    /// `(throughput KRPS, p99 µs)` points.
    pub points: Vec<(f64, f64)>,
}

/// Runs Figure 10b from measured service samples.
pub fn run_fig10b(scale: &Scale, mix_samples: Vec<f64>) -> Vec<Curve> {
    let service = ServiceDist::empirical_us(mix_samples);
    let sc = silo_scenario(scale, &service, scale.loads.clone(), &SYSTEMS)
        .build()
        .expect("fig10 scenario");
    crate::run(&sc)
        .series
        .iter()
        .zip(SYSTEMS)
        .map(|(series, (_, label))| Curve {
            system: label,
            points: zygos_lab::xy(&series.points, |p| p.mrps * 1_000.0, |p| p.p99_us),
        })
        .collect()
}

/// Prints Figure 10b.
pub fn print_fig10b(curves: &[Curve]) {
    crate::print_header(
        "fig10b",
        "TPC-C: p99 end-to-end latency (us) vs throughput (KRPS); SLO 1000us",
    );
    for c in curves {
        crate::print_series("fig10b", "tpcc", c.system, &c.points);
    }
}

/// One Table-1 row.
pub struct Table1Row {
    /// System label.
    pub system: &'static str,
    /// Max throughput under the SLO, KTPS.
    pub max_ktps: f64,
    /// Speedup over Linux.
    pub speedup: f64,
    /// `(p99 µs, ratio to service p99, KTPS)` at 50/75/90% of max load.
    pub at_fractions: [(f64, f64, f64); 3],
}

/// Computes Table 1.
pub fn run_table1(scale: &Scale, mix_samples: Vec<f64>, service_p99_us: f64) -> Vec<Table1Row> {
    let service = ServiceDist::empirical_us(mix_samples);
    let saturation_ktps = 16.0 / service.mean_us() * 1_000.0;
    // No grid: the search probes loads of its own.
    let search = silo_scenario(scale, &service, Vec::new(), &SYSTEMS)
        .search(SearchSpec {
            quantile: 0.99,
            bound_us: 1_000.0,
            resolution: scale.resolution,
        })
        .build()
        .expect("table1 scenario");
    let report = crate::run(&search);
    let mut rows = Vec::new();
    let mut linux_ktps = None;
    for (series, system) in report.series.iter().zip(SYSTEMS) {
        let max_load = series.search.as_ref().expect("sim host searches").max_load;
        let max_ktps = max_load * saturation_ktps;
        if system.0 == SimHost::LinuxFloating {
            linux_ktps = Some(max_ktps);
        }
        let loads = [0.5, 0.75, 0.9].map(|frac| (max_load * frac).max(0.01));
        let at = silo_scenario(scale, &service, loads.to_vec(), &[system])
            .build()
            .expect("table1 scenario");
        let points = &crate::run(&at).series[0].points;
        let at_fractions = [0, 1, 2].map(|i| {
            let p = &points[i];
            (
                p.p99_us,
                p.p99_us / service_p99_us,
                p.load * saturation_ktps,
            )
        });
        rows.push(Table1Row {
            system: system.1,
            max_ktps,
            speedup: 0.0, // Filled below once Linux is known.
            at_fractions,
        });
    }
    let base = linux_ktps.expect("Linux row present").max(1e-9);
    for r in &mut rows {
        r.speedup = r.max_ktps / base;
    }
    rows
}

/// Prints Table 1 in the paper's layout.
pub fn print_table1(rows: &[Table1Row], service_p99_us: f64) {
    println!("# Table 1: max throughput under SLO (p99 <= 1000us) and tail latency");
    println!("# service-time p99 (local Silo): {service_p99_us:.0}us");
    println!(
        "{:<8} {:>12} {:>8}  {:>26} {:>26} {:>26}",
        "System", "MaxLoad@SLO", "Speedup", "TailLat@50%", "TailLat@75%", "TailLat@90%"
    );
    for r in rows {
        let cell =
            |(p99, ratio, ktps): (f64, f64, f64)| format!("{p99:.0}us ({ratio:.1}x) @{ktps:.0}K");
        println!(
            "{:<8} {:>9.0} KTPS {:>7.2}x  {:>26} {:>26} {:>26}",
            r.system,
            r.max_ktps,
            r.speedup,
            cell(r.at_fractions[0]),
            cell(r.at_fractions[1]),
            cell(r.at_fractions[2]),
        );
    }
}
