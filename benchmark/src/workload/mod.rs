//! The six workloads. Each is a fixed amount of work — a *unit* — that
//! the runner repeats and times; the work never depends on how long it
//! takes, so units are comparable across machines and commits.

pub mod lab;
pub mod live;
pub mod sim;

use crate::span::Spans;

/// What one unit produced, beyond the time it took.
#[derive(Clone, Debug)]
pub struct UnitOutcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output failed a check (failed ops are never successes
    /// of a cheaper kind: they count against the run).
    pub failed: u64,
    /// Latency of one op as the workload's user sees it (see README.md:
    /// simulated time on `sim-*`, host time elsewhere).
    pub p50_us: f64,
    pub p99_us: f64,
    /// Share of offered ops that completed and were not abandoned.
    pub goodput: f64,
    /// Digest of the outputs that must not differ between units of a
    /// deterministic workload (`None` on the wall-clock workloads).
    pub digest: Option<u64>,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl UnitOutcome {
    /// The outcome of a unit that produced nothing usable.
    pub fn all_failed(ops: u64, why: String) -> Self {
        UnitOutcome {
            ops,
            failed: ops,
            p50_us: f64::NAN,
            p99_us: f64::NAN,
            goodput: 0.0,
            digest: None,
            errors: vec![why],
        }
    }
}

pub trait Workload {
    /// Ops one unit attempts.
    fn ops_per_unit(&self) -> u64;

    /// Runs one unit and checks its outputs. Spans are recorded around
    /// every call into a layer of the program when `spans` is recording.
    fn unit(&mut self, spans: &mut Spans) -> UnitOutcome;
}

/// Builds a workload from its name and the seed: reads or generates its
/// inputs and starts whatever it measures. The caller's first unit is
/// the warm-up.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-steal" => Box::new(sim::SimWorkload::steal(seed)),
        "sim-overload" => Box::new(sim::SimWorkload::overload(seed)),
        "sim-models" => Box::new(sim::SimWorkload::models(seed)),
        "lab-gate" => Box::new(lab::LabGate::load()?),
        "live-echo" => Box::new(live::Live::echo(seed)?),
        "live-steal" => Box::new(live::Live::steal(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// FNV-1a over 64-bit words: the digest of a unit's exact outputs.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}
