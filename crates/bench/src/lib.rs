//! Experiment drivers behind the figure binaries.
//!
//! Every paper table/figure has a module here exposing `run(&Scale)` (the
//! computation, returning structured rows) and `print(..)` (the binary's
//! stdout rendering, shaped like the paper's series). The binaries run at
//! [`Scale::from_env`] (set `ZYGOS_FAST=1` for a quick pass); tests run
//! experiments at [`Scale::smoke`]. Performance is measured by the
//! reference benchmark under `benchmark/`, not here.
//!
//! Every module is a **thin wrapper over the scenario plane**
//! (`zygos_lab`): a fig module *describes* its experiment matrix as a
//! [`zygos_lab::Scenario`] (workload + cases + claims) and runs it through
//! [`zygos_lab::run_scenario`] and nothing else. Max load @ SLO comes
//! from the scenario's `[search]` block — the bisection the CI gate
//! certifies — and theory lines from `model:` cases, so the same
//! matrices are available as TOML specs under `scenarios/` and the figure
//! binaries and the `lab` CLI cannot drift apart. [`scenario`] is the
//! shared preamble binding a [`Scale`] to a builder.

pub mod ablation;
pub mod fig02;
pub mod fig03;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12_elastic;
pub mod fig13;

/// Experiment sizing knobs.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Completions measured per simulation point.
    pub requests: u64,
    /// Warmup completions discarded per point.
    pub warmup: u64,
    /// Load grid for latency-throughput sweeps.
    pub loads: Vec<f64>,
    /// Grid resolution for max-load@SLO searches (steps of 1/resolution).
    pub resolution: usize,
    /// TPC-C transactions measured for the Silo experiments.
    pub silo_txns: usize,
    /// TPC-C warehouses loaded.
    pub warehouses: u16,
}

impl Scale {
    /// Full figure-quality scale.
    pub fn full() -> Scale {
        Scale {
            requests: 50_000,
            warmup: 10_000,
            loads: (1..=19).map(|i| i as f64 * 0.05).collect(),
            resolution: 40,
            silo_txns: 20_000,
            warehouses: 2,
        }
    }

    /// Reduced scale for quick verification runs.
    pub fn fast() -> Scale {
        Scale {
            requests: 12_000,
            warmup: 3_000,
            loads: (1..=9).map(|i| i as f64 * 0.1).collect(),
            resolution: 20,
            silo_txns: 4_000,
            warehouses: 1,
        }
    }

    /// Tiny scale for tests and `fig13_overload --smoke`.
    pub fn smoke() -> Scale {
        Scale {
            requests: 2_000,
            warmup: 500,
            loads: vec![0.3, 0.6, 0.9],
            resolution: 8,
            silo_txns: 300,
            warehouses: 1,
        }
    }

    /// [`Scale::full`] unless `ZYGOS_FAST=1` is set in the environment.
    pub fn from_env() -> Scale {
        if std::env::var("ZYGOS_FAST").is_ok_and(|v| v == "1") {
            Scale::fast()
        } else {
            Scale::full()
        }
    }
}

/// Starts a scenario builder sized by a [`Scale`] — the shared preamble
/// of every fig module. The figure's own load grid still comes from the
/// module (panels differ); measurement windows and the seed are uniform.
pub fn scenario(name: &str, scale: &Scale) -> zygos_lab::ScenarioBuilder {
    zygos_lab::Scenario::builder(name)
        .requests(scale.requests, scale.warmup)
        .smoke(scale.requests, scale.warmup)
}

/// Runs a scenario that a fig module assembled, panicking on the spec
/// errors a module must not produce (they are construction bugs, not
/// runtime conditions).
pub fn run(sc: &zygos_lab::Scenario) -> zygos_lab::Report {
    zygos_lab::run_scenario(sc, false).expect("fig scenario runs")
}

/// Prints one labelled `(x, y)` series in a grep-friendly layout:
/// `<figure>\t<panel>\t<series>\t<x>\t<y>`.
pub fn print_series(figure: &str, panel: &str, series: &str, points: &[(f64, f64)]) {
    for (x, y) in points {
        println!("{figure}\t{panel}\t{series}\t{x:.4}\t{y:.3}");
    }
}

/// Prints a figure header with the paper reference.
pub fn print_header(figure: &str, description: &str) {
    println!("# {figure}: {description}");
    println!("# columns: figure\tpanel\tseries\tx\ty");
}
