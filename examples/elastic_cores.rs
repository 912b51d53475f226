//! Elastic core allocation over the bundled diurnal trace.
//!
//! Drives the elastic system (with the preemptive quantum) from the
//! **recorded diurnal request trace** bundled with `zygos_lab` — a
//! timestamped arrival log whose rate sweeps trough → peak → trough —
//! replayed as an `Arrivals` trace process, and prints the p99 and
//! granted cores at two mean utilizations, plus the core-seconds saved
//! against a static 16-core allocation. (Earlier revisions approximated
//! the day with a hand-written phase list; the trace replaced it.)
//!
//! ```text
//! cargo run --release --example elastic_cores
//! ```

use zygos::lab::{traces, Case, Scenario, SimHost};
use zygos::load::source::ArrivalSpec;
use zygos::sim::dist::ServiceDist;

fn main() {
    let trace = traces::diurnal();
    println!(
        "diurnal trace over exponential(10us), 16-core server ({} arrivals, trough 0.25x .. peak 1.75x)",
        trace.len() + 1
    );
    let sc = Scenario::builder("elastic-cores")
        .service(ServiceDist::exponential_us(10.0))
        .arrivals(ArrivalSpec::Trace(trace))
        .loads(vec![0.15, 0.3, 0.5, 0.65])
        .requests(30_000, 5_000)
        .case(Case::sim("ZygOS (static)", SimHost::Zygos))
        .case(
            Case::sim("ZygOS (elastic)", SimHost::Elastic)
                .min_cores(2)
                .quantum_us(25.0),
        )
        .build()
        .expect("valid scenario");
    let report = zygos::lab::run_scenario(&sc, false).expect("runs");
    let stat = report.series("ZygOS (static)").expect("present");
    let elastic = report.series("ZygOS (elastic)").expect("present");

    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "mean load", "static p99", "elastic p99", "cores", "saved"
    );
    let mut static_core_secs = 0.0;
    let mut elastic_core_secs = 0.0;
    for (s, e) in stat.points.iter().zip(&elastic.points) {
        static_core_secs += s.core_seconds;
        elastic_core_secs += e.core_seconds;
        println!(
            "{:<10.2} {:>10.1}us {:>10.1}us {:>10.2} {:>9.0}%",
            s.load,
            s.p99_us,
            e.p99_us,
            e.avg_cores,
            100.0 * (1.0 - e.avg_cores / 16.0),
        );
    }
    println!(
        "\ntotal core-seconds: static {static_core_secs:.3}, elastic {elastic_core_secs:.3} \
         ({:.0}% saved over the trace)",
        100.0 * (1.0 - elastic_core_secs / static_core_secs)
    );
}
