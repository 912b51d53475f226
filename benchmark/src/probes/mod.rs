//! Per-layer probes: the cost of each layer of the program, measured from
//! here by timing calls into the layer's public functions on inputs
//! shaped like the workload that leans on it.
//!
//! Micro probes are single-threaded batches (the median batch is the
//! reading); macro probes are whole `run_system`/`run_scenario` calls
//! (the fastest repetition is the reading — deterministic work is only
//! ever slowed down). Counts are exact. README.md maps every metric to
//! the end-to-end metric and workload it should move.

mod lab;
mod policy;
mod runtime;
mod sim;
mod substrate;

use std::collections::BTreeMap;
use std::time::Instant;

use zygos_net::cost::CostModel;

use crate::est::median;
use crate::span::Spans;

/// How much work a probe does.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Timed batches per micro probe.
    pub batches: usize,
    /// Calls per batch.
    pub calls: usize,
    /// Repetitions of a macro probe.
    pub reps: usize,
    /// Divisor on the request counts of macro probes.
    pub shrink: u64,
}

impl Scale {
    const FULL: Scale = Scale {
        batches: 11,
        calls: 10_000,
        reps: 3,
        shrink: 1,
    };
    const QUICK: Scale = Scale {
        batches: 3,
        calls: 1_000,
        reps: 1,
        shrink: 10,
    };
}

pub type Values = BTreeMap<String, f64>;

/// Nanoseconds per call: `batch(n)` makes `n` calls; the median of the
/// timed batches, after one untimed batch, is reported.
pub fn ns_per_call(scale: Scale, mut batch: impl FnMut(usize)) -> f64 {
    batch(scale.calls);
    let per_call: Vec<f64> = (0..scale.batches)
        .map(|_| {
            let t = Instant::now();
            batch(scale.calls);
            t.elapsed().as_nanos() as f64 / scale.calls as f64
        })
        .collect();
    median(&per_call)
}

/// Seconds the fastest of `reps` calls of `f` took, and its result.
pub fn fastest<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, out));
        }
    }
    best.expect("at least one repetition")
}

/// Runs every probe. Each group is one span of the traced pass.
pub fn run_all(seed: u64, quick: bool, spans: &mut Spans) -> Result<Values, String> {
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let mut v = Values::new();
    spans.set_recording(true);
    spans.scope("probes[sim]", |_| sim::probe(seed, scale, &mut v));
    spans.scope("probes[sched,load]", |_| policy::probe(seed, scale, &mut v));
    spans.scope("probes[net,core]", |_| {
        substrate::probe(seed, scale, &mut v)
    });
    let live = spans.scope("probes[runtime]", |_| runtime::probe(seed, scale, &mut v));
    let lab = spans.scope("probes[lab]", |s| lab::probe(scale, s, &mut v));
    spans.set_recording(false);
    live.and(lab)?;
    Ok(v)
}

/// The cost model the simulator charges, beside what the live substrate
/// measures for the same operations. Report only: the constants model a
/// 2017 Xeon with a real NIC, the measurements a loopback runtime on
/// this machine.
pub fn print_calibration(v: &Values) {
    let get = |k: &str| v.get(k).copied().unwrap_or(f64::NAN);
    let cost = CostModel::zygos();
    let rows = [
        (
            "shuffle_op_ns",
            cost.shuffle_op_ns,
            "core.shuffle.local_cycle_ns",
            get("core.shuffle.local_cycle_ns"),
        ),
        (
            "steal_extra_ns",
            cost.steal_extra_ns,
            "core.shuffle.steal_cycle_ns - local_cycle_ns",
            get("core.shuffle.steal_cycle_ns") - get("core.shuffle.local_cycle_ns"),
        ),
        (
            "remote_syscall_ns",
            cost.remote_syscall_ns,
            "core.syscall.ship_drain_ns",
            get("core.syscall.ship_drain_ns"),
        ),
        (
            "stack_rx_per_pkt_ns + stack_tx_per_msg_ns",
            cost.stack_rx_per_pkt_ns + cost.stack_tx_per_msg_ns,
            "net.wire.encode_ns + frame_decode_ns",
            get("net.wire.encode_ns") + get("net.wire.frame_decode_ns"),
        ),
    ];
    eprintln!("# calibration: CostModel::zygos() beside the live substrate (report only)");
    eprintln!(
        "#   {:<44} {:>8}   {:<46} {:>10}",
        "model constant", "ns", "measured", "ns"
    );
    for (constant, model_ns, what, measured_ns) in rows {
        eprintln!("#   {constant:<44} {model_ns:>8}   {what:<46} {measured_ns:>10.1}");
    }
}
