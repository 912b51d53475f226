//! Scenario-plane acceptance: the TOML specs committed under
//! `scenarios/` parse, run, and round-trip; and the lab's lowering
//! produces exactly the configuration the hand-written fig13 setup
//! produced before the migration (sim-vs-live parity starts from
//! config parity).

use zygos::lab::{scenario_from_toml, HostSpec, Report, Scenario, SimHost};
use zygos::sched::BackgroundOrder;
use zygos::sim::dist::ServiceDist;
use zygos::sysim::{AdmissionMode, ArrivalSpec, SysConfig, SystemKind};

const FIG13_TOML: &str = include_str!("../scenarios/fig13_overload.toml");
const PARITY_TOML: &str = include_str!("../scenarios/parity_echo.toml");
const DIURNAL_TOML: &str = include_str!("../scenarios/fig12_diurnal.toml");
const FLEET_TAIL_TOML: &str = include_str!("../scenarios/fleet_tail.toml");
const FLEET_REBALANCE_TOML: &str = include_str!("../scenarios/fleet_rebalance.toml");
const RETRY_STORM_TOML: &str = include_str!("../scenarios/retry_storm.toml");
const METASTABLE_TOML: &str = include_str!("../scenarios/metastable_recovery.toml");
const SCATTER_GATHER_TOML: &str = include_str!("../scenarios/fleet_scatter_gather.toml");

/// Shrinks a parsed scenario to test size without touching its meaning.
fn shrink(mut sc: Scenario, loads: Vec<f64>, requests: u64, warmup: u64) -> Scenario {
    sc.scale.smoke_requests = requests;
    sc.scale.smoke_warmup = warmup;
    sc.scale.smoke_loads = Some(loads);
    sc
}

#[test]
fn committed_specs_parse() {
    for (name, text) in [
        ("fig13_overload", FIG13_TOML),
        ("parity_echo", PARITY_TOML),
        ("fig12_diurnal", DIURNAL_TOML),
        ("fleet_tail", FLEET_TAIL_TOML),
        ("fleet_rebalance", FLEET_REBALANCE_TOML),
        ("retry_storm", RETRY_STORM_TOML),
        ("metastable_recovery", METASTABLE_TOML),
        ("fleet_scatter_gather", SCATTER_GATHER_TOML),
    ] {
        let sc = scenario_from_toml(text)
            .unwrap_or_else(|e| panic!("scenarios/{name}.toml must parse: {e}"));
        assert!(!sc.cases.is_empty());
    }
}

#[test]
fn toml_spec_runs_and_report_json_round_trips() {
    // TOML → Scenario → run (smoke-sized) → JSON → parse-back equality.
    let sc = shrink(
        scenario_from_toml(FIG13_TOML).expect("parses"),
        vec![1.2],
        1_500,
        300,
    );
    let report = zygos::lab::run_scenario(&sc, true).expect("runs");
    assert_eq!(report.series.len(), 5, "five fig13 cases");
    let json = report.to_json();
    let back = Report::from_json(&json).expect("round trips");
    assert_eq!(back, report, "Report → JSON → Report must be identity");
    // And the run is reproducible (deterministic hosts, fixed seed).
    let again = zygos::lab::run_scenario(&sc, true).expect("runs");
    assert_eq!(again, report);
}

#[test]
fn retry_storm_scenario_populates_the_retry_plane() {
    // A shrunk run of the committed storm spec: the closed-loop retry
    // metrics must land in the report (and round-trip), and the naive
    // re-issue twin must already look worse than the backoff twin.
    // Large enough for the naive twin's queue to cross the 400us client
    // timeout and start storming (a few hundred microseconds of virtual
    // time is not): ~3ms of overload at this scale.
    let sc = shrink(
        scenario_from_toml(RETRY_STORM_TOML).expect("parses"),
        vec![1.4],
        6_000,
        1_200,
    );
    let report = zygos::lab::run_scenario(&sc, true).expect("runs");
    let back = Report::from_json(&report.to_json()).expect("round trips");
    assert_eq!(back, report);
    let point = |label: &str| {
        &report
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("case {label} in report"))
            .points[0]
    };
    let (backoff, drop, naive) = (point("backoff"), point("drop"), point("naive"));
    assert!(backoff.retry_rate > 0.0, "rejections must feed retries");
    assert!(
        naive.retry_rate > backoff.retry_rate,
        "naive {} vs backoff {}",
        naive.retry_rate,
        backoff.retry_rate
    );
    assert_eq!(drop.retry_rate, 0.0, "the drop twin never re-issues");
    assert!(
        naive.p99_us > backoff.p99_us,
        "the storm must hurt: naive {} vs backoff {}",
        naive.p99_us,
        backoff.p99_us
    );
    for p in [backoff, drop, naive] {
        assert!((0.0..=1.0).contains(&p.goodput), "goodput {}", p.goodput);
    }
}

/// The pre-migration fig13 construction, copied verbatim from the old
/// hand-written setup: `SysConfig::paper` + the figure's credit config.
fn old_fig13_credits_config(load: f64, requests: u64, warmup: u64) -> SysConfig {
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), load);
    cfg.requests = requests;
    cfg.warmup = warmup;
    cfg.admission = Some(zygos_bench::fig13::credit_config(cfg.cores));
    cfg
}

#[test]
fn fig13_scenario_lowers_to_the_premigration_config() {
    // The committed TOML must lower the "ZygOS (credits)" case to exactly
    // the config the hand-written fig13 setup produced before the
    // migration.
    let toml_sc = scenario_from_toml(FIG13_TOML).expect("parses");
    let (requests, warmup) = toml_sc.scale.window(false);
    let old = old_fig13_credits_config(1.2, requests, warmup);
    {
        let sc = &toml_sc;
        let case = sc.case("ZygOS (credits)").expect("case present");
        let new = zygos::lab::sys_config_for(sc, case, 1.2, false).expect("lowers");
        assert_eq!(new.system, old.system);
        assert_eq!(new.cores, old.cores);
        assert_eq!(new.conns, old.conns);
        assert_eq!(new.load, old.load);
        assert_eq!(new.requests, old.requests);
        assert_eq!(new.warmup, old.warmup);
        assert_eq!(new.seed, old.seed);
        assert_eq!(new.rx_batch, old.rx_batch);
        assert_eq!(new.preemption_quantum_us, old.preemption_quantum_us);
        assert_eq!(new.background_order, BackgroundOrder::Fcfs);
        assert_eq!(new.randomize_steal_order, old.randomize_steal_order);
        assert_eq!(new.admission_mode, AdmissionMode::ServerEdge);
        assert!(matches!(new.arrivals, ArrivalSpec::Poisson));
        let (na, oa) = (new.admission.expect("gated"), old.admission.expect("gated"));
        assert_eq!(na.min_credits, oa.min_credits);
        assert_eq!(na.max_credits, oa.max_credits);
        assert_eq!(na.initial_credits, oa.initial_credits);
        assert_eq!(na.additive, oa.additive);
        assert_eq!(na.md_factor, oa.md_factor);
        assert_eq!(na.target, oa.target);
    }
    // The fig13 binary runs this same file, re-scaled: cases and claims
    // ride along untouched, and the fast mode picks the smoke grid.
    let scale = zygos_bench::Scale::smoke();
    let prog = zygos_bench::fig13::scenario(&scale, true);
    assert_eq!(prog.claims, toml_sc.claims);
    assert_eq!(prog.cases.len(), toml_sc.cases.len());
    assert_eq!(prog.scale.window(false), (scale.requests, scale.warmup));
    assert_eq!(prog.loads(false), toml_sc.loads(true));
}

#[test]
fn same_spec_runs_on_sim_and_live_with_identical_schema() {
    // The parity scenario has one sim case and one live case; both must
    // execute from the same TOML and emit schema-identical series.
    let sc = shrink(
        scenario_from_toml(PARITY_TOML).expect("parses"),
        vec![0.2],
        250,
        40,
    );
    assert!(matches!(sc.cases[0].host, HostSpec::Sim(SimHost::Zygos)));
    assert!(matches!(sc.cases[1].host, HostSpec::Live(_)));
    let report = zygos::lab::run_scenario(&sc, true).expect("runs on both hosts");
    let json = report.to_json();
    let back = Report::from_json(&json).expect("parses");
    assert_eq!(back, report);
    let (sim, live) = (&report.series[0], &report.series[1]);
    assert!(sim.deterministic);
    assert!(!live.deterministic);
    assert_eq!(sim.points.len(), live.points.len(), "same grid");
    // Both hosts measure the same workload: a 200µs deterministic
    // service floors both p99s.
    assert!(
        sim.points[0].p99_us >= 200.0,
        "sim p99 {}",
        sim.points[0].p99_us
    );
    assert!(
        live.points[0].p99_us >= 200.0,
        "live p99 {}",
        live.points[0].p99_us
    );
    // Schema-identical: the JSON objects expose the same keys for both.
    for key in [
        "\"p99_us\"",
        "\"mrps\"",
        "\"shed_fraction\"",
        "\"core_seconds\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            sim.points.len() + live.points.len(),
            "{key} appears once per point on every host"
        );
    }
}

#[test]
fn diurnal_scenario_replays_the_bundled_trace() {
    let sc = shrink(
        scenario_from_toml(DIURNAL_TOML).expect("parses"),
        vec![0.25],
        2_000,
        400,
    );
    assert!(matches!(sc.workload.arrivals, ArrivalSpec::Trace(_)));
    let report = zygos::lab::run_scenario(&sc, true).expect("runs");
    let elastic = report
        .series
        .iter()
        .find(|s| s.label.contains("elastic"))
        .expect("elastic case");
    assert!(
        elastic.points[0].avg_cores < 16.0,
        "the trough of the trace must park cores (granted {:.2})",
        elastic.points[0].avg_cores
    );
}
