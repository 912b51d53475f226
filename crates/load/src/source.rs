//! Arrival processes: synthetic schedules and trace replay.
//!
//! The paper's evaluation drives every experiment with a constant-rate
//! open-loop Poisson process. The scenario plane generalizes the *shape*
//! of the arrival process without touching the hosts: an [`ArrivalSpec`]
//! is plain data describing the process (so experiment configurations
//! stay `Clone + Debug` and serializable), and [`ArrivalSpec::source`]
//! instantiates the stateful generator — an [`Arrivals`] — that a host
//! consumes one inter-arrival gap at a time.
//!
//! Three processes are provided:
//!
//! * [`ArrivalSpec::Poisson`] — the paper's process: exponential gaps at
//!   the host's base rate (`λ = load · cores / S̄`).
//! * [`ArrivalSpec::Phased`] — piecewise Poisson: a cycle of phases, each
//!   scaling the base rate by a factor (a synthetic diurnal curve).
//! * [`ArrivalSpec::Trace`] — replay of a timestamped request log: the
//!   recorded gap *sequence* is preserved (bursts, troughs, ramps), while
//!   the mean rate is scaled to the host's base rate so the `load` knob
//!   keeps meaning "fraction of ideal saturation". The trace loops when
//!   exhausted.
//!
//! The contract every process obeys: `next_gap_us` returns a
//! strictly positive, finite gap, and the long-run mean of the returned
//! gaps is `1 / base_rate_per_us` — the *shape* varies, the offered load
//! does not. This is what lets one scenario sweep `load` identically
//! under any arrival process.
//!
//! ```
//! use zygos_load::source::ArrivalSpec;
//! use zygos_sim::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::new(7);
//! let mut src = ArrivalSpec::Poisson.source(0.5); // 0.5 req/µs
//! let n = 100_000;
//! let total: f64 = (0..n).map(|_| src.next_gap_us(&mut rng)).sum();
//! let rate = n as f64 / total;
//! assert!((rate - 0.5).abs() < 0.01, "rate = {rate}");
//! ```

use std::sync::Arc;

use zygos_sim::rng::Xoshiro256;

/// One phase of a piecewise-Poisson ([`ArrivalSpec::Phased`]) cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Phase length in microseconds of generated (virtual) time.
    pub duration_us: f64,
    /// Rate multiplier applied to the base rate during this phase.
    pub rate_factor: f64,
}

/// A timestamped request log, normalized to its inter-arrival gaps.
///
/// The on-disk format is one arrival timestamp (microseconds, ascending,
/// integer or float) per line; blank lines and `#` comments are ignored.
/// An optional second whitespace-separated column (e.g. a connection or
/// object id) is accepted and ignored — arrival *timing* is what a trace
/// contributes; connection selection stays with the host.
#[derive(Debug, PartialEq)]
pub struct Trace {
    /// Inter-arrival gaps in nanoseconds (one fewer than timestamps).
    gaps_ns: Vec<u64>,
}

impl Trace {
    /// Builds a trace from ascending arrival timestamps in microseconds.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two timestamps or non-ascending input.
    pub fn from_timestamps_us(ts: &[f64]) -> Self {
        assert!(ts.len() >= 2, "a trace needs at least two arrivals");
        let gaps_ns = ts
            .windows(2)
            .map(|w| {
                let gap = w[1] - w[0];
                assert!(gap >= 0.0, "trace timestamps must ascend");
                // Zero-length gaps (same-µs arrivals) become 1ns: the
                // burst is preserved, the "strictly positive" contract
                // holds.
                ((gap * 1_000.0) as u64).max(1)
            })
            .collect();
        Trace { gaps_ns }
    }

    /// Parses the text format (see type docs).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut ts = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let field = line.split_whitespace().next().expect("non-empty line");
            let t: f64 = field
                .parse()
                .map_err(|e| format!("trace line {}: bad timestamp {field:?}: {e}", i + 1))?;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("trace line {}: non-finite timestamp", i + 1));
            }
            if let Some(&prev) = ts.last() {
                if t < prev {
                    return Err(format!("trace line {}: timestamps must ascend", i + 1));
                }
            }
            ts.push(t);
        }
        if ts.len() < 2 {
            return Err("a trace needs at least two arrivals".to_string());
        }
        Ok(Trace::from_timestamps_us(&ts))
    }

    /// Number of replayable gaps.
    pub fn len(&self) -> usize {
        self.gaps_ns.len()
    }

    /// True if the trace holds no gaps (never after construction).
    pub fn is_empty(&self) -> bool {
        self.gaps_ns.is_empty()
    }

    /// Mean recorded arrival rate in requests per microsecond.
    pub fn mean_rate_per_us(&self) -> f64 {
        let total_ns: u128 = self.gaps_ns.iter().map(|&g| g as u128).sum();
        self.gaps_ns.len() as f64 / (total_ns as f64 / 1_000.0)
    }

    /// Generates a synthetic diurnal trace: `n` arrivals whose rate
    /// follows a full sinusoidal day (trough → peak → trough) around a
    /// unit mean rate, with Poisson micro-structure inside each step.
    /// Deterministic in `seed`; this is the generator behind the bundled
    /// `diurnal.trace` file (regenerate with `lab gen-trace`).
    pub fn synthetic_diurnal(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "a trace needs at least two arrivals");
        let mut rng = Xoshiro256::new(seed);
        let mut ts = Vec::with_capacity(n);
        // At unit mean rate, n arrivals span ≈ n µs: that is the "day".
        // The instantaneous rate follows one sinusoidal cycle over that
        // span — factors 0.25–1.75, so the trough parks most of an
        // elastic fleet and the peak staffs it back. Modulating by
        // elapsed *time* (not arrival index) keeps the time-averaged
        // rate at 1.0, so the host's load knob stays calibrated.
        let span = n as f64;
        let mut t = 0.0f64;
        for _ in 0..n {
            let phase = (t / span).min(1.0) * std::f64::consts::TAU;
            let factor = 1.0 - 0.75 * phase.cos();
            t += rng.next_exp(1.0 / factor);
            ts.push(t);
        }
        Trace::from_timestamps_us(&ts)
    }

    /// Renders the trace back to the text format (arrival timestamps in
    /// microseconds), suitable for committing next to a scenario spec.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# arrival timestamps (us), one per line\n0\n");
        let mut t_ns = 0u128;
        for &g in &self.gaps_ns {
            t_ns += g as u128;
            out.push_str(&format!("{:.3}\n", t_ns as f64 / 1_000.0));
        }
        out
    }
}

/// A declarative description of an arrival process (plain data: clonable,
/// comparable by shape, cheap to embed in experiment configurations).
#[derive(Clone, Debug, Default)]
pub enum ArrivalSpec {
    /// Constant-rate Poisson at the host's base rate (the paper's
    /// process, and the default).
    #[default]
    Poisson,
    /// Piecewise Poisson: cycles through `phases`, scaling the base rate
    /// by each phase's factor for its duration.
    Phased(Vec<Phase>),
    /// Replay a recorded trace's gap sequence, scaled to the base rate.
    Trace(Arc<Trace>),
}

impl ArrivalSpec {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Poisson => "poisson".to_string(),
            ArrivalSpec::Phased(p) => format!("phased({})", p.len()),
            ArrivalSpec::Trace(t) => format!("trace({} arrivals)", t.len() + 1),
        }
    }

    /// Instantiates the stateful generator for a host whose base arrival
    /// rate is `base_rate_per_us` (requests per microsecond).
    ///
    /// # Panics
    ///
    /// Panics if `base_rate_per_us` is not positive, or the spec is
    /// structurally empty (no phases / empty trace).
    pub fn source(&self, base_rate_per_us: f64) -> Arrivals {
        assert!(base_rate_per_us > 0.0, "base rate must be positive");
        match self {
            ArrivalSpec::Poisson => Arrivals::Poisson {
                mean_gap_us: 1.0 / base_rate_per_us,
            },
            ArrivalSpec::Phased(phases) => {
                assert!(!phases.is_empty(), "phased arrivals need phases");
                let mean_factor = phases
                    .iter()
                    .map(|p| {
                        assert!(p.duration_us > 0.0, "phase duration must be positive");
                        assert!(p.rate_factor > 0.0, "phase rate factor must be positive");
                        p.rate_factor * p.duration_us
                    })
                    .sum::<f64>()
                    / phases.iter().map(|p| p.duration_us).sum::<f64>();
                Arrivals::Phased {
                    phases: phases.clone(),
                    // Normalize so the long-run mean rate equals the base
                    // rate regardless of the factors chosen.
                    rate_scale: base_rate_per_us / mean_factor,
                    phase: 0,
                    left_us: phases[0].duration_us,
                }
            }
            ArrivalSpec::Trace(trace) => {
                assert!(!trace.is_empty(), "empty trace");
                Arrivals::Trace {
                    // Scale recorded gaps so the replayed mean rate is the
                    // base rate: shape from the trace, level from `load`.
                    gap_scale: trace.mean_rate_per_us() / base_rate_per_us,
                    trace: Arc::clone(trace),
                    next: 0,
                }
            }
        }
    }
}

/// A stateful arrival-process generator, built by [`ArrivalSpec::source`]:
/// the host pulls one inter-arrival gap at a time (open loop — the
/// generator never observes completions).
///
/// Contract: every gap is strictly positive and finite, and the long-run
/// mean of the gaps is `1 / base_rate_per_us` for the rate the source was
/// built with. A clone keeps the position (current phase, trace cursor),
/// so given the identical RNG stream it emits the identical gaps — the
/// deterministic-checkpoint contract. The variants are `non_exhaustive`
/// so that only [`ArrivalSpec::source`], which checks the contract's
/// conditions, builds one.
#[derive(Clone, Debug)]
pub enum Arrivals {
    /// Exponential gaps of a constant mean.
    #[non_exhaustive]
    Poisson {
        /// Mean gap in µs.
        mean_gap_us: f64,
    },
    /// Piecewise Poisson through a cycle of phases.
    #[non_exhaustive]
    Phased {
        /// The cycle.
        phases: Vec<Phase>,
        /// Rate per unit of a phase's `rate_factor`, in requests per µs.
        rate_scale: f64,
        /// Index of the current phase.
        phase: usize,
        /// Virtual time left in the current phase (µs).
        left_us: f64,
    },
    /// Replay of a trace's gaps, looping.
    #[non_exhaustive]
    Trace {
        /// The recorded gaps.
        trace: Arc<Trace>,
        /// Factor from a recorded gap to a replayed one.
        gap_scale: f64,
        /// Index of the next gap.
        next: usize,
    },
}

impl Arrivals {
    /// Time from the previous arrival to the next one, in microseconds.
    #[inline]
    pub fn next_gap_us(&mut self, rng: &mut Xoshiro256) -> f64 {
        match self {
            Arrivals::Poisson { mean_gap_us } => rng.next_exp(*mean_gap_us),
            Arrivals::Phased {
                phases,
                rate_scale,
                phase,
                left_us,
            } => {
                // Advance phases by the virtual time the gaps themselves
                // consume.
                let mut gap = 0.0;
                loop {
                    let rate = phases[*phase].rate_factor * *rate_scale;
                    let g = rng.next_exp(1.0 / rate);
                    if g <= *left_us {
                        *left_us -= g;
                        return gap + g;
                    }
                    // The sampled gap crosses a phase boundary: consume the
                    // rest of this phase and resample in the next
                    // (memorylessness makes this exact for exponential
                    // gaps).
                    gap += *left_us;
                    *phase = (*phase + 1) % phases.len();
                    *left_us = phases[*phase].duration_us;
                }
            }
            // Replay is deterministic: the RNG is not drawn.
            Arrivals::Trace {
                trace,
                gap_scale,
                next,
            } => {
                let gap_ns = trace.gaps_ns[*next];
                *next = (*next + 1) % trace.gaps_ns.len();
                (gap_ns as f64 / 1_000.0 * *gap_scale).max(1e-3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rate(spec: &ArrivalSpec, base: f64, n: usize) -> f64 {
        let mut rng = Xoshiro256::new(99);
        let mut src = spec.source(base);
        let total: f64 = (0..n).map(|_| src.next_gap_us(&mut rng)).sum();
        n as f64 / total
    }

    #[test]
    fn poisson_matches_base_rate() {
        let r = mean_rate(&ArrivalSpec::Poisson, 0.8, 200_000);
        assert!((r - 0.8).abs() < 0.01, "rate = {r}");
    }

    #[test]
    fn phased_preserves_mean_rate_and_modulates() {
        let spec = ArrivalSpec::Phased(vec![
            Phase {
                duration_us: 1_000.0,
                rate_factor: 0.25,
            },
            Phase {
                duration_us: 1_000.0,
                rate_factor: 1.75,
            },
        ]);
        let r = mean_rate(&spec, 0.5, 200_000);
        assert!((r - 0.5).abs() < 0.02, "long-run rate = {r}");
        // The first phase really is slower: few arrivals fit in it.
        let mut rng = Xoshiro256::new(1);
        let mut src = spec.source(0.5);
        let mut t = 0.0;
        let mut in_first = 0;
        let mut in_second = 0;
        while t < 2_000.0 {
            t += src.next_gap_us(&mut rng);
            if t < 1_000.0 {
                in_first += 1;
            } else if t < 2_000.0 {
                in_second += 1;
            }
        }
        assert!(
            in_second > 2 * in_first,
            "peak phase must out-arrive the trough ({in_first} vs {in_second})"
        );
    }

    #[test]
    fn trace_replay_scales_to_base_rate_and_loops() {
        let trace = Arc::new(Trace::from_timestamps_us(&[0.0, 1.0, 3.0, 7.0]));
        // Recorded mean rate: 3 gaps over 7µs.
        assert!((trace.mean_rate_per_us() - 3.0 / 7.0).abs() < 1e-9);
        let spec = ArrivalSpec::Trace(Arc::clone(&trace));
        let r = mean_rate(&spec, 2.0, 3_000);
        assert!((r - 2.0).abs() < 0.01, "scaled rate = {r}");
        // The gap *pattern* (1:2:4) survives scaling and wraps around.
        let mut rng = Xoshiro256::new(0);
        let mut src = spec.source(2.0);
        let gaps: Vec<f64> = (0..6).map(|_| src.next_gap_us(&mut rng)).collect();
        assert!((gaps[1] / gaps[0] - 2.0).abs() < 1e-6);
        assert!((gaps[2] / gaps[0] - 4.0).abs() < 1e-6);
        assert!((gaps[3] - gaps[0]).abs() < 1e-9, "loops back to gap 0");
    }

    #[test]
    fn trace_text_round_trips() {
        let t = Trace::synthetic_diurnal(500, 42);
        let text = t.to_text();
        let back = Trace::parse(&text).expect("well-formed");
        assert_eq!(back.len(), t.len());
        // Gaps survive to the millisecond-of-a-µs precision of the format.
        for (a, b) in t.gaps_ns.iter().zip(&back.gaps_ns) {
            assert!((*a as i64 - *b as i64).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn trace_parser_rejects_garbage() {
        assert!(Trace::parse("").is_err(), "empty");
        assert!(Trace::parse("1.0\n0.5\n").is_err(), "descending");
        assert!(Trace::parse("1.0\nfish\n").is_err(), "non-numeric");
        let ok = Trace::parse("# header\n\n0\n1.5 conn7\n2\n").expect("comments and ids ok");
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn synthetic_diurnal_has_unit_mean_rate_and_shape() {
        let t = Trace::synthetic_diurnal(20_000, 7);
        let r = t.mean_rate_per_us();
        assert!((r - 1.0).abs() < 0.05, "mean rate = {r}");
        // The middle of the cycle (peak) is denser than the edges
        // (trough): compare arrivals in the middle vs the first quarter
        // of the spanned time.
        let q1 = t.gaps_ns[..t.len() / 4].iter().sum::<u64>();
        let mid = t.gaps_ns[t.len() * 3 / 8..t.len() * 5 / 8]
            .iter()
            .sum::<u64>();
        assert!(
            mid * 2 < q1,
            "peak quarter should span far less time than the trough ({mid} vs {q1})"
        );
    }
}
