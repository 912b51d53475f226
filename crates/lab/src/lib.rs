//! `zygos_lab` — the scenario plane: one declarative experiment API over
//! every host in the workspace.
//!
//! Before this crate, the experiment matrix of conf_sosp_PrekasKB17's
//! evaluation ({system, load, service distribution, connection count})
//! was expressed three different ways: `zygos_sysim::SysConfig`,
//! `zygos_runtime::RuntimeConfig`, and a dozen fig binaries each
//! re-assembling workload + policy + output plumbing by hand. A
//! [`Scenario`] replaces all three as the way an experiment is
//! *described*:
//!
//! * **one workload** — service distribution plus an arrival process
//!   ([`zygos_load::source::Arrivals`]: Poisson, piecewise phases, or
//!   replay of a timestamped trace such as the bundled diurnal log in
//!   [`traces`]);
//! * **any host** — each [`spec::Case`] runs on the discrete-event
//!   simulator, the live multithreaded runtime, or a zero-overhead
//!   queueing model, and all of them reduce to the same
//!   [`report::Report`] JSON schema;
//! * **one policy vocabulary** — allocation, admission and SLO classes
//!   reuse the `zygos-sched` policy plane types, and the builder rejects
//!   contradictory specs instead of letting a host silently ignore them;
//! * **one regression gate** — `lab run scenarios/*.toml --smoke
//!   --check` evaluates each scenario's [`spec::Claim`]s and diffs its
//!   report against a committed baseline, so *adding a scenario file
//!   adds a CI gate*.
//!
//! ```
//! use zygos_lab::{Case, Scenario, SimHost};
//! use zygos_sim::dist::ServiceDist;
//!
//! let sc = Scenario::builder("quick")
//!     .service(ServiceDist::exponential_us(10.0))
//!     .cores(4)
//!     .conns(16)
//!     .loads(vec![0.3])
//!     .requests(4_000, 1_000)
//!     .smoke(1_000, 200)
//!     .case(Case::sim("ZygOS", SimHost::Zygos))
//!     .build()
//!     .expect("valid scenario");
//! let report = zygos_lab::run_scenario(&sc, true).expect("runs");
//! assert!(report.series[0].points[0].p99_us > 40.0);
//! ```

pub mod check;
pub mod fromtoml;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml;
pub mod traces;

pub use check::{check_baseline, check_claims, check_telemetry};
pub use fromtoml::scenario_from_toml;
pub use report::{PointMetrics, Report, SearchResult, Series, TailResult, TraceSeries};
pub use runner::{run_scenario, run_scenario_threads, runtime_config_for, sys_config_for, xy};
pub use spec::{
    staged_plan, AdmissionSpec, Case, Claim, Compare, FleetSpec, HostSpec, LiveHost, Op,
    PolicySpec, Readers, Recovers, Rhs, ScaleSpec, Scenario, ScenarioBuilder, SearchSpec, Select,
    Settles, SimHost, SpecError, TailSpec, TelemetrySpec, WorkloadSpec, CASE_KNOBS,
};
