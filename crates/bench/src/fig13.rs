//! Figure 13 (extension, not in the paper): overload behavior with and
//! without credit-based admission control.
//!
//! Sweeps offered load **through and past saturation** (up to 1.5× the
//! ideal capacity) on the paper's headline exponential/10µs workload:
//!
//! * **ZygOS (static)** and **ZygOS (elastic, q=25µs)** — the PR-1
//!   policies: with no admission control, sustained `util > 1` grows the
//!   queue without bound and every dispatch discipline's p99 diverges
//!   together (the window keeps most of the divergence off-screen; it
//!   grows with measurement length).
//! * **ZygOS (credits)** — the same dispatch plane behind a
//!   Breakwater-style [`zygos_sched::CreditPool`] shedding at the
//!   **server edge**: admitted in-flight requests are bounded by
//!   AIMD-resized credits steering the window tail to
//!   [`CREDIT_TARGET_US`], and the surplus is shed with explicit rejects
//!   — each of which has already burned a full wire RTT (request there,
//!   reject back).
//! * **ZygOS (client credits)** — the same pool consulted at the
//!   **sender**: a creditless request is never sent, so every shed costs
//!   zero wire time. Identical admitted tail, identical goodput — the
//!   wasted-wire column is the entire difference, and it is what
//!   Breakwater's credit distribution buys.
//! * **ZygOS (credits, tenants)** — a **two-tenant** configuration
//!   (interactive p99 ≤ 100µs next to batch p99 ≤ 1000µs): the AIMD
//!   target derives per class from the bounds and shedding is
//!   weighted-fair with per-class occupancy caps — the batch class hits
//!   its own cap (and sheds) first, while keeping a guaranteed floor of
//!   admissions.
//!
//! The experiment matrix is one [`Scenario`] ([`scenario`]): the
//! committed `scenarios/fig13_overload.toml`, re-scaled. Its `[[claim]]`
//! tables are what CI enforces through `lab run --smoke --check` and what
//! the local `--check` mode evaluates (`zygos_lab::check_claims`); they
//! (and `tests/overload.rs`) pin at offered load ≥ 1.2:
//!
//! 1. all credit systems' **admitted p99 stays within 2× the SLO** while
//!    the uncontrolled policies blow through it;
//! 2. client-side credits **strictly reduce wasted wire RTT** versus
//!    server-edge shedding (which burns one RTT per reject);
//! 3. the **loosest tenant class sheds first** under weighted fair
//!    shedding — and, with per-class occupancy tracking, retains a
//!    floor of admissions instead of starving.

use zygos_lab::{PointMetrics, Report, Scenario};
use zygos_load::slo::{Slo, SloClass, TenantSlos};
use zygos_sched::CreditConfig;
use zygos_sysim::CREDIT_HEADROOM;

use crate::Scale;

/// The SLO this figure is judged against: the paper's microbenchmark
/// `10·S̄` at p99 for the exponential/10µs workload.
pub const SLO_US: f64 = 100.0;

/// The AIMD loop's window-tail target. Below the SLO by design: the
/// controller must start shedding *before* the tail reaches the bound,
/// and the window p99 is a noisy (small-sample) estimator. Equals
/// `CREDIT_HEADROOM × SLO_US` — the single-tenant special case of the
/// per-class targets `TenantSlos::aimd_targets_us` derives.
pub const CREDIT_TARGET_US: f64 = CREDIT_HEADROOM * SLO_US;

/// Admitted-tail acceptance bound: within 2× the SLO at overload.
pub const BOUND_US: f64 = 2.0 * SLO_US;

/// The credit-gate configuration the figure (and the acceptance tests)
/// use for a `cores`-wide plane.
pub fn credit_config(cores: usize) -> CreditConfig {
    CreditConfig::for_cores(cores, CREDIT_TARGET_US)
}

/// The two-tenant registry of the weighted-fair-shedding panel:
/// interactive (p99 ≤ [`SLO_US`]) next to batch (p99 ≤ 10×[`SLO_US`]).
/// Round-robin assignment puts even connections in interactive, odd in
/// batch.
pub fn tenant_slos() -> TenantSlos {
    TenantSlos::new(vec![
        SloClass::new("interactive", Slo::p99(SLO_US)),
        SloClass::new("batch", Slo::p99(10.0 * SLO_US)),
    ])
}

/// The five-case overload scenario: the committed
/// `scenarios/fig13_overload.toml` (cases, claims, telemetry) with its
/// measurement windows taken from `scale`, on the spec's smoke grid when
/// `fast`.
pub fn scenario(scale: &Scale, fast: bool) -> Scenario {
    let mut sc =
        zygos_lab::scenario_from_toml(include_str!("../../../scenarios/fig13_overload.toml"))
            .expect("the committed fig13 spec is valid");
    (sc.scale.requests, sc.scale.warmup) = (scale.requests, scale.warmup);
    if fast {
        sc.workload.loads = sc.loads(true).to_vec();
    }
    sc
}

/// One system's overload curve.
pub struct Curve {
    /// System label.
    pub system: String,
    /// Per-load measurements.
    pub points: Vec<PointMetrics>,
}

/// One load point of the two-tenant weighted-fair-shedding panel.
pub struct TenantShedPoint {
    /// Offered load (fraction of ideal saturation).
    pub load: f64,
    /// Overall shed fraction.
    pub shed_fraction: f64,
    /// Share of all sheds falling on the strict (interactive) class.
    pub strict_shed_share: f64,
    /// Share of all sheds falling on the loose (batch) class.
    pub loose_shed_share: f64,
    /// The loose class's own shed rate (its floor guarantee: < 1).
    pub loose_shed_rate: f64,
    /// Admitted p99 (µs).
    pub p99_us: f64,
}

/// Splits a report of [`scenario`] into the four single-tenant curves
/// and the tenant panel.
pub fn panels(report: Report) -> (Vec<Curve>, Vec<TenantShedPoint>) {
    let mut curves = Vec::new();
    let mut tenants = Vec::new();
    for series in report.series {
        if series.label == "ZygOS (credits, tenants)" {
            tenants = series
                .points
                .iter()
                .filter(|p| p.load >= 1.19)
                .map(|p| TenantShedPoint {
                    load: p.load,
                    shed_fraction: p.shed_fraction,
                    strict_shed_share: p.shed_share_by_class.first().copied().unwrap_or(0.0),
                    loose_shed_share: p.shed_share_by_class.get(1).copied().unwrap_or(0.0),
                    loose_shed_rate: p.shed_rate_by_class.get(1).copied().unwrap_or(0.0),
                    p99_us: p.p99_us,
                })
                .collect();
        } else {
            curves.push(Curve {
                system: series.label,
                points: series.points,
            });
        }
    }
    (curves, tenants)
}

/// Prints the figure: `p99`, `goodput`, `shed` and `wire-waste` series
/// per system, plus the two-tenant shed-share panel.
pub fn print(curves: &[Curve], tenants: &[TenantShedPoint]) {
    crate::print_header(
        "fig13",
        "overload: admitted p99, goodput, shed fraction and wasted wire vs offered load (SLO 100us)",
    );
    for c in curves {
        let xy = |f: fn(&PointMetrics) -> f64| zygos_lab::xy(&c.points, |p| p.load, f);
        crate::print_series(
            "fig13",
            "exp-10us",
            &format!("{}/p99", c.system),
            &xy(|p| p.p99_us),
        );
        crate::print_series(
            "fig13",
            "exp-10us",
            &format!("{}/goodput", c.system),
            &xy(|p| p.mrps),
        );
        crate::print_series(
            "fig13",
            "exp-10us",
            &format!("{}/shed", c.system),
            &xy(|p| p.shed_fraction),
        );
        crate::print_series(
            "fig13",
            "exp-10us",
            &format!("{}/wire-waste-us", c.system),
            &xy(|p| p.wasted_wire_us),
        );
    }
    for t in tenants {
        println!(
            "# fig13 tenants: load {:.2}: shed {:.0}% (interactive share {:.0}%, batch share {:.0}%, batch own rate {:.0}%), admitted p99 {:.0}us",
            t.load,
            100.0 * t.shed_fraction,
            100.0 * t.strict_shed_share,
            100.0 * t.loose_shed_share,
            100.0 * t.loose_shed_rate,
            t.p99_us
        );
    }
    headline(curves);
}

fn find<'a>(curves: &'a [Curve], prefix: &str) -> Option<&'a Curve> {
    curves.iter().find(|c| c.system.starts_with(prefix))
}

/// Prints the acceptance summary at overload points.
pub fn headline(curves: &[Curve]) {
    let (Some(stat), Some(credits), Some(client)) = (
        find(curves, "ZygOS (static)"),
        find(curves, "ZygOS (credits)"),
        find(curves, "ZygOS (client credits)"),
    ) else {
        return;
    };
    for ((s, c), k) in stat.points.iter().zip(&credits.points).zip(&client.points) {
        if s.load >= 1.19 {
            println!(
                "# fig13 headline: load {:.2}: credits p99 {:.0}us (shed {:.0}%, wire waste {:.0}us) vs client-side waste {:.0}us vs static p99 {:.0}us — bound 2xSLO = {:.0}us ({})",
                s.load,
                c.p99_us,
                100.0 * c.shed_fraction,
                c.wasted_wire_us,
                k.wasted_wire_us,
                s.p99_us,
                BOUND_US,
                if c.p99_us <= BOUND_US && k.p99_us <= BOUND_US {
                    "bounded"
                } else {
                    "VIOLATED"
                }
            );
        }
    }
}
