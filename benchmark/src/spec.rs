//! The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
//! metrics. `../BENCHMARK.json` states the same tables for the driver;
//! `tests/names.rs` keeps the two in step.

use crate::est::Estimator;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one op is.
    pub op: &'static str,
    pub estimator: Estimator,
}

impl WorkloadSpec {
    /// Single-threaded and seeded: simulated statistics and allocation
    /// counts repeat exactly, unit to unit and run to run.
    pub fn is_sim(&self) -> bool {
        self.name.starts_with("sim-")
    }
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "sim-steal",
        op: "completed simulated request",
        estimator: Estimator::Fastest,
    },
    WorkloadSpec {
        name: "sim-overload",
        op: "completed simulated request",
        estimator: Estimator::Fastest,
    },
    WorkloadSpec {
        name: "sim-models",
        op: "completed simulated request",
        estimator: Estimator::Fastest,
    },
    WorkloadSpec {
        name: "lab-gate",
        op: "scenario run and checked",
        estimator: Estimator::Fastest,
    },
    WorkloadSpec {
        name: "live-echo",
        op: "RPC answered",
        estimator: Estimator::Median,
    },
    WorkloadSpec {
        name: "live-steal",
        op: "RPC answered",
        estimator: Estimator::Median,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Every workload reports every one; README.md
/// says what each means on each workload.
///
/// A metric has one bound for all workloads, so each is as wide as its
/// noisiest workload needs on the two-vCPU reference machine: three times
/// the widest quartile spread seen over ten-run sets (README.md has the
/// table), capped at the driver's limit of 0.25.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("ops_per_s", "op/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("p99_us", "us", Better::Lower, 0.25),
    e2e("goodput", "fraction", Better::Higher, 0.03),
    e2e("allocs_per_op", "count", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// Whether `metric` repeats bit for bit on `workload` for a fixed seed,
/// so that two results compare for equality instead of within a bound.
pub fn is_exact(workload: &WorkloadSpec, metric: &str) -> bool {
    match metric {
        "goodput" => true,
        // Simulated time, not host time.
        "p50_us" | "p99_us" => workload.is_sim(),
        // Not `lab-gate`: its two-thread job fan-out makes the count differ
        // by one allocation in 1.1 million between runs.
        "allocs_per_op" => workload.is_sim(),
        _ => false,
    }
}

/// The committed scenarios `lab-gate` runs, by file stem: every
/// deterministic spec under `scenarios/` (`parity_echo` has a live,
/// wall-clock case). Pinned by name so that adding a scenario to the
/// repository does not silently change the workload.
pub const LAB_SCENARIOS: [&str; 11] = [
    "fig06_exp10",
    "fig07_search",
    "fig12_diurnal",
    "fig13_overload",
    "fleet_rebalance",
    "fleet_scatter_gather",
    "fleet_tail",
    "metastable_recovery",
    "retry_storm",
    "staged_layouts",
    "tail_splitting",
];

/// Name of the per-scenario run-time metric.
pub fn lab_run_metric(stem: &str) -> String {
    format!("lab.run_ms.{stem}")
}

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics that do not depend on [`LAB_SCENARIOS`]:
/// `(name, unit, better)`. README.md maps each to the end-to-end metric
/// and workload it should move.
const PER_LAYER_FIXED: [(&str, &str, Better); 59] = [
    ("sim.engine.wheel_ns_per_event", "ns", L),
    ("sim.engine.wheel_far_ns_per_event", "ns", L),
    ("sim.engine.heap_ns_per_event", "ns", L),
    ("sim.engine.noop_model_ns_per_event", "ns", L),
    ("sim.stats.hist_record_ns", "ns", L),
    ("sim.stats.window_tick_ns", "ns", L),
    ("sim.dist.sample_ns", "ns", L),
    ("sim.queueing.mg16_ns_per_req", "ns", L),
    ("sysim.zygos.ns_per_req", "ns", L),
    ("sysim.zygos.events_per_req", "count", L),
    ("sysim.zygos.self_ns_per_req", "ns", L),
    ("sysim.zygos.steal_fraction", "fraction", H),
    ("sysim.zygos.ipis_per_req", "count", L),
    ("sysim.overload.ns_per_req", "ns", L),
    ("sysim.overload.events_per_req", "count", L),
    ("sysim.overload.retries_per_req", "count", L),
    ("sysim.overload.shed_fraction", "fraction", L),
    ("sysim.ix.ns_per_req", "ns", L),
    ("sysim.ix.events_per_req", "count", L),
    ("sysim.linux.ns_per_req", "ns", L),
    ("sysim.linux.events_per_req", "count", L),
    ("sysim.staged.ns_per_req", "ns", L),
    ("sysim.staged.events_per_req", "count", L),
    ("sysim.fleet.ns_per_req", "ns", L),
    ("sysim.warm.chain_speedup", "ratio", H),
    ("sched.policy.ladder_walk_ns", "ns", L),
    ("sched.credit.pool_admit_release_ns", "ns", L),
    ("sched.credit.aimd_update_ns", "ns", L),
    ("sched.alloc.observe_ns", "ns", L),
    ("load.source.next_gap_ns", "ns", L),
    ("load.retry.decide_ns", "ns", L),
    ("load.route.po2c_route_ns", "ns", L),
    ("telemetry.trace.full_ns_per_req", "ns", L),
    ("telemetry.decomp.ns_per_req", "ns", L),
    ("net.ring.mpsc_push_pop_ns", "ns", L),
    ("net.wire.encode_ns", "ns", L),
    ("net.wire.frame_decode_ns", "ns", L),
    ("net.wire.allocs_per_msg", "count", L),
    ("core.shuffle.local_cycle_ns", "ns", L),
    ("core.shuffle.steal_cycle_ns", "ns", L),
    ("core.shuffle.allocs_per_cycle", "count", L),
    ("core.syscall.ship_drain_ns", "ns", L),
    ("core.doorbell.ring_take_ns", "ns", L),
    ("core.spinlock.lock_unlock_ns", "ns", L),
    ("runtime.send_ns", "ns", L),
    ("runtime.pingpong_rtt_us", "us", L),
    ("runtime.start_ms", "ms", L),
    ("runtime.shutdown_ms", "ms", L),
    ("runtime.echo.steal_fraction", "fraction", H),
    ("runtime.echo.ipis_per_event", "count", L),
    ("runtime.steal.steal_fraction", "fraction", H),
    ("runtime.steal.ipis_per_event", "count", L),
    ("runtime.steal.failed_steals_per_event", "count", L),
    ("runtime.steal.remote_syscalls_per_event", "count", L),
    ("lab.parse_us_per_scenario", "us", L),
    ("lab.json_us_per_scenario", "us", L),
    ("lab.check_us_per_scenario", "us", L),
    ("lab.self_share", "fraction", L),
    ("lab.par_speedup", "ratio", H),
];

/// One per-layer metric: `(name, unit, better)`.
pub type LayerSpec = (String, &'static str, Better);

/// Every per-layer metric, in the order results are printed.
/// `bench.trace_overhead` comes last: it is about the benchmark, not a
/// layer of the program.
pub fn per_layer() -> Vec<LayerSpec> {
    let fixed = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b));
    let lab_runs = LAB_SCENARIOS.iter().map(|s| (lab_run_metric(s), "ms", L));
    let overhead = ("bench.trace_overhead".to_string(), "fraction", L);
    fixed.chain(lab_runs).chain([overhead]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.0));
        let distinct: BTreeSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for n in &names {
            assert!(n.len() <= 64, "{n} is too long");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(per_layer().len(), 71);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
