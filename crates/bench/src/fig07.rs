//! Figure 7: maximum load @ SLO (p99 ≤ 10·S̄) vs service time with ZygOS
//! included; the X axis stops at 50µs (efficiency is stable beyond).

use zygos_lab::SimHost;

use crate::fig03::{run_panel, Curve};
use crate::Scale;

/// The full figure.
pub fn run(scale: &Scale) -> Vec<Curve> {
    let grid = [2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0];
    let systems = [
        SimHost::LinuxPartitioned,
        SimHost::LinuxFloating,
        SimHost::Ix,
        SimHost::ZygosNoInterrupts,
        SimHost::Zygos,
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
        "fig07",
        "max load @ SLO (p99 <= 10*S) vs service time incl. ZygOS + bounds",
    );
    for c in curves {
        crate::print_series("fig07", c.dist, &c.system, &c.points);
    }
}
