//! Figure 12 (extension, not in the paper): elastic core allocation and
//! preemptive-quantum scheduling vs. the statically provisioned systems.
//!
//! Three panels:
//!
//! * **exponential/10µs** — the paper's headline distribution, where the
//!   elastic win is core-seconds at low load;
//! * **bimodal-99.5/0.5** (99.5% × 0.5µs, 0.5% × 500µs) — a dispersive
//!   mix beyond the paper's bimodal-2, where the preemptive quantum bounds
//!   head-of-line blocking that connection-granularity stealing alone
//!   cannot (the §6/Figure 6 weakness);
//! * **diurnal-trace** — the same systems driven by the **bundled diurnal
//!   request trace** (`zygos_lab::traces::diurnal`) through the
//!   `Arrivals` trace-replay path, replacing the hand-written phase list
//!   this figure used to carry: the trace's trough/peak shape is what the
//!   elastic controller tracks, and the panel reports the cores it
//!   granted doing so.
//!
//! Each curve reports p99 **and** time-averaged granted cores, making the
//! latency/core-seconds trade-off the figure's subject.
//!
//! The elastic system runs under both background-queue orders
//! (`BackgroundOrder::{Fcfs, Srpt}`). Measured outcome on this mix:
//! **FCFS-with-aging wins at p99** (e.g. 40µs vs 94µs at load 0.7).
//! With a two-point distribution every preempted remainder starts from
//! the same 500µs class, so SRPT's only effect is to run nearly-finished
//! remainders first — which keeps *older, longer* remainders in the queue
//! until they cross the aging bound and promote ahead of fresh short
//! requests, exactly the head-of-line blocking the background queue
//! exists to avoid. SRPT would need a service mix where remainders
//! genuinely differ at preemption time (e.g. heavy-tailed, not
//! two-point) to pay off; the knob stays for that regime.

use zygos_lab::{Case, PointMetrics, Scenario, SimHost};
use zygos_load::source::ArrivalSpec;
use zygos_sched::BackgroundOrder;
use zygos_sim::dist::ServiceDist;

use crate::Scale;

/// Preemption quantum used by the elastic curves (µs). Small enough to
/// bound a 500µs outlier to 5% of its run time, large enough that the
/// per-slice interrupt cost (~1µs) stays a few percent of the slice.
pub const QUANTUM_US: f64 = 25.0;

/// One system's curve in one panel.
pub struct Curve {
    /// Panel id, e.g. `"bimodal-99.5-0.5"`.
    pub panel: String,
    /// System label.
    pub system: String,
    /// Per-load measurements (unified scenario-plane schema).
    pub points: Vec<PointMetrics>,
}

/// The dispersive service-time mix of the second panel.
pub fn bimodal_99_5() -> ServiceDist {
    ServiceDist::TwoPoint {
        fast_us: 0.5,
        slow_us: 500.0,
        p_fast: 0.995,
    }
}

/// The four cases of every panel: static ZygOS, static IX, and elastic
/// ZygOS with the preemptive quantum under both background-queue orders.
fn panel_scenario(
    scale: &Scale,
    service: ServiceDist,
    arrivals: ArrivalSpec,
    loads: Vec<f64>,
) -> Scenario {
    crate::scenario("fig12", scale)
        .service(service)
        .arrivals(arrivals)
        .loads(loads)
        .case(Case::sim("ZygOS (static)", SimHost::Zygos))
        .case(Case::sim("IX (static)", SimHost::Ix))
        .case(
            Case::sim(
                format!("ZygOS (elastic, q={QUANTUM_US}us)"),
                SimHost::Elastic,
            )
            .min_cores(2)
            .quantum_us(QUANTUM_US)
            .background_order(BackgroundOrder::Fcfs),
        )
        .case(
            Case::sim(
                format!("ZygOS (elastic, q={QUANTUM_US}us, srpt)"),
                SimHost::Elastic,
            )
            .min_cores(2)
            .quantum_us(QUANTUM_US)
            .background_order(BackgroundOrder::Srpt),
        )
        .build()
        .expect("fig12 scenario")
}

/// Runs one panel.
pub fn run_panel(scale: &Scale, panel: &str, service: ServiceDist) -> Vec<Curve> {
    run_panel_with(
        scale,
        panel,
        service,
        ArrivalSpec::Poisson,
        scale.loads.clone(),
    )
}

/// Runs one panel under an explicit arrival process and load grid.
pub fn run_panel_with(
    scale: &Scale,
    panel: &str,
    service: ServiceDist,
    arrivals: ArrivalSpec,
    loads: Vec<f64>,
) -> Vec<Curve> {
    let sc = panel_scenario(scale, service, arrivals, loads);
    crate::run(&sc)
        .series
        .into_iter()
        .map(|series| Curve {
            panel: panel.to_string(),
            system: series.label,
            points: series.points,
        })
        .collect()
}

/// All three panels: the two Poisson panels plus the trace-driven one.
pub fn run(scale: &Scale) -> Vec<Curve> {
    let mut curves = run_panel(scale, "exponential/10us", ServiceDist::exponential_us(10.0));
    curves.extend(run_panel(scale, "bimodal-99.5-0.5", bimodal_99_5()));
    curves.extend(run_diurnal(scale));
    curves
}

/// The workload-replay panel: the bundled diurnal trace modulates the
/// instantaneous arrival rate (trough 0.25× … peak 1.75× the mean), so a
/// single "load" value sweeps the whole day shape past the controller.
pub fn run_diurnal(scale: &Scale) -> Vec<Curve> {
    run_panel_with(
        scale,
        "diurnal-trace",
        ServiceDist::exponential_us(10.0),
        ArrivalSpec::Trace(zygos_lab::traces::diurnal()),
        // The trace itself sweeps 0.25×–1.75× around each mean load, so
        // a short grid covers the interesting regimes.
        vec![0.25, 0.5],
    )
}

/// Prints the figure: a `p99` series and a `cores` series per system.
pub fn print(curves: &[Curve]) {
    crate::print_header(
        "fig12",
        "elastic cores + preemptive quantum: p99 and granted cores vs load, 3 panels \
         (incl. diurnal trace replay)",
    );
    for c in curves {
        let p99 = zygos_lab::xy(&c.points, |p| p.load, |p| p.p99_us);
        let cores = zygos_lab::xy(&c.points, |p| p.load, |p| p.avg_cores);
        crate::print_series("fig12", &c.panel, &format!("{}/p99", c.system), &p99);
        crate::print_series("fig12", &c.panel, &format!("{}/cores", c.system), &cores);
    }
    headline(curves);
}

/// Prints the acceptance summary: the elastic system's p99 vs static ZygOS
/// at high load and its core-seconds saving at low load, on the bimodal
/// panel; plus the trace panel's core savings.
pub fn headline(curves: &[Curve]) {
    let find = |sys_prefix: &str| {
        curves
            .iter()
            .find(|c| c.panel == "bimodal-99.5-0.5" && c.system.starts_with(sys_prefix))
    };
    let (Some(stat), Some(elastic)) = (find("ZygOS (static)"), find("ZygOS (elastic")) else {
        return;
    };
    // The SRPT-vs-FCFS background-order comparison on the dispersive mix.
    if let Some(srpt) = curves
        .iter()
        .find(|c| c.panel == "bimodal-99.5-0.5" && c.system.contains("srpt"))
    {
        for (f, s) in elastic.points.iter().zip(&srpt.points) {
            if f.load >= 0.69 {
                println!(
                    "# fig12 headline: load {:.2}: bg-queue SRPT p99 {:.0}us vs FCFS-with-aging {:.0}us ({})",
                    f.load,
                    s.p99_us,
                    f.p99_us,
                    if s.p99_us <= f.p99_us { "srpt wins" } else { "fcfs wins" }
                );
            }
        }
    }
    for (s, e) in stat.points.iter().zip(&elastic.points) {
        if s.load >= 0.69 {
            println!(
                "# fig12 headline: load {:.2}: elastic p99 {:.0}us vs static {:.0}us ({})",
                s.load,
                e.p99_us,
                s.p99_us,
                if e.p99_us < s.p99_us {
                    "elastic wins"
                } else {
                    "static wins"
                }
            );
        }
        if s.load <= 0.31 {
            println!(
                "# fig12 headline: load {:.2}: elastic uses {:.2} cores vs static 16 ({:.0}% core-seconds saved)",
                s.load,
                e.avg_cores,
                100.0 * (1.0 - e.avg_cores / 16.0)
            );
        }
    }
    // Trace replay: the elastic fleet tracks the diurnal shape.
    let tfind = |sys_prefix: &str| {
        curves
            .iter()
            .find(|c| c.panel == "diurnal-trace" && c.system.starts_with(sys_prefix))
    };
    if let (Some(stat), Some(elastic)) = (tfind("ZygOS (static)"), tfind("ZygOS (elastic")) {
        for (s, e) in stat.points.iter().zip(&elastic.points) {
            println!(
                "# fig12 headline: diurnal trace at load {:.2}: elastic {:.2} cores \
                 ({:.0}% core-seconds saved), p99 {:.0}us vs static {:.0}us",
                s.load,
                e.avg_cores,
                100.0 * (1.0 - e.core_seconds / s.core_seconds.max(1e-12)),
                e.p99_us,
                s.p99_us
            );
        }
    }
}
