//! Experiment drivers: run one system, sweep load, or search max-load@SLO.
//!
//! The lab runner lowers every simulator case onto these functions; the
//! reference benchmark calls them directly.

use zygos_sim::engine::Engine;
use zygos_sim::queueing;

use crate::config::{SysConfig, SysOutput, SystemKind};
use crate::edge::{self, Server, World};
use crate::{linux, staged, zygos};

/// Divisor on the cold warmup for a warm-started point: a spliced run
/// starts from a converged neighbor, so it only needs to re-equilibrate
/// across the load step, not converge from an empty system.
pub const WARM_WARMUP_DIV: u64 = 8;

/// Floor on warm re-equilibration completions (a small load step still
/// needs a few hundred completions to settle; capped at the cold warmup).
pub const WARM_WARMUP_MIN: u64 = 500;

/// Loads above this always run cold: past saturation the backlog diverges
/// with run length, so a spliced world's queue depth depends on how long
/// the previous point ran — not a state a measurement may inherit.
pub const WARM_MAX_LOAD: f64 = 0.98;

/// The most a donor's backlog may grow over its own run, as a fraction of
/// its completions, for it to seed a warm start. A host can saturate well
/// below [`WARM_MAX_LOAD`]: Linux-floating on exponential 10 µs work
/// delivers 0.739 of 0.96 MRPS at load 0.6, and its backlog grows by 1,055
/// requests in 3,500 completions. Every donor that seeds a warm point in
/// the committed smoke specs grows by 16 or fewer.
pub const WARM_MAX_GROWTH: f64 = 0.02;

/// Re-equilibration completions for a warm-started run of `cfg`.
fn warm_warmup(cfg: &SysConfig) -> u64 {
    (cfg.warmup / WARM_WARMUP_DIV)
        .max(WARM_WARMUP_MIN)
        .min(cfg.warmup)
}

/// True when `cfg` can be warm-started: telemetry off (checkpoints drop
/// the observer plane).
pub fn warmable(cfg: &SysConfig) -> bool {
    cfg.telemetry.is_none()
}

/// A finished run kept to seed warm starts: its load, whether its backlog
/// held steady ([`WARM_MAX_GROWTH`]), and its final world.
struct Donor<S: Server> {
    load: f64,
    steady: bool,
    engine: Engine<World<S>>,
}

impl<S: Server> Donor<S> {
    /// Whether this donor may seed a run of `cfg`: a steady donor, an
    /// ascending step, and a target at or below [`WARM_MAX_LOAD`].
    fn seeds(&self, cfg: &SysConfig) -> bool {
        self.steady && self.load < cfg.load && cfg.load <= WARM_MAX_LOAD
    }
}

/// Runs `cfg`, warm from `donor` when given and cold otherwise, and keeps
/// the finished world as a donor when asked to and `cfg` is warmable.
fn run_point<S: Server>(
    new: &impl Fn(&SysConfig) -> World<S>,
    cfg: &SysConfig,
    donor: Option<&Donor<S>>,
    keep: bool,
) -> (SysOutput, Option<Donor<S>>) {
    let engine = match donor {
        Some(d) => edge::resume(&d.engine, cfg, warm_warmup(cfg)),
        None => edge::start(new(cfg)),
    };
    let (out, kept) = edge::run_kept(engine, keep && warmable(cfg));
    let donor = kept.map(|engine| Donor {
        load: cfg.load,
        steady: out.in_flight() as f64 <= WARM_MAX_GROWTH * out.completed_total as f64,
        engine,
    });
    (out, donor)
}

/// Work generic over the server model, which [`with_world`] runs on the
/// model a config names.
trait WithWorld {
    type Out;
    /// Runs on `cfg`, the config the host actually runs; `new` builds a
    /// fresh world of the host's model for `cfg` or any variant of it.
    fn run<S: Server>(self, cfg: &SysConfig, new: impl Fn(&SysConfig) -> World<S>) -> Self::Out;
}

/// The one `SystemKind → World<S>` dispatch point.
fn with_world<W: WithWorld>(cfg: &SysConfig, w: W) -> W::Out {
    match cfg.system {
        SystemKind::Zygos | SystemKind::ZygosNoInterrupts | SystemKind::Elastic { .. } => {
            w.run(cfg, zygos::world)
        }
        SystemKind::LinuxPartitioned | SystemKind::LinuxFloating => w.run(cfg, linux::world),
        SystemKind::Ix | SystemKind::Staged => match staged::lower(cfg) {
            (cfg, Some(plan)) => w.run(&cfg, |c| staged::world(c, &plan)),
            (cfg, None) => w.run(&cfg, zygos::world),
        },
    }
}

/// A cold run to the completion target.
struct Cold;

impl WithWorld for Cold {
    type Out = SysOutput;
    fn run<S: Server>(self, cfg: &SysConfig, new: impl Fn(&SysConfig) -> World<S>) -> SysOutput {
        edge::run(new(cfg))
    }
}

/// A warm chain over a load grid ([`run_system_chain`]).
struct Chain<'a>(&'a [f64]);

impl WithWorld for Chain<'_> {
    type Out = Vec<SysOutput>;
    fn run<S: Server>(self, base: &SysConfig, new: impl Fn(&SysConfig) -> World<S>) -> Self::Out {
        let mut cfg = base.clone();
        let mut prev: Option<Donor<S>> = None;
        let last = self.0.len().saturating_sub(1);
        (self.0.iter().enumerate())
            .map(|(i, &load)| {
                cfg.load = load;
                let donor = prev.take().filter(|d| d.seeds(&cfg));
                let (out, kept) = run_point(&new, &cfg, donor.as_ref(), i < last);
                prev = kept;
                out
            })
            .collect()
    }
}

/// A max-load@SLO bisection ([`max_load_at_quantile_slo_counting`]) over
/// `(quantile, slo_us, resolution)`.
struct Search(f64, f64, usize);

impl WithWorld for Search {
    type Out = (f64, u32, u32);
    fn run<S: Server>(self, base: &SysConfig, new: impl Fn(&SysConfig) -> World<S>) -> Self::Out {
        let mut cfg = base.clone();
        let (mut probes, mut cold) = (0u32, 0u32);
        let mut cache: Vec<Donor<S>> = Vec::new();
        let load = queueing::max_load_at_slo(
            |load| {
                probes += 1;
                cfg.load = load;
                let donor = (cache.iter().filter(|d| d.seeds(&cfg)))
                    .max_by(|a, b| a.load.total_cmp(&b.load));
                cold += u32::from(donor.is_none());
                let (out, kept) = run_point(&new, &cfg, donor, true);
                cache.extend(kept);
                out.latency.quantile_us(self.0)
            },
            self.1,
            self.2,
        );
        (load, probes, cold)
    }
}

/// Runs one system-simulation experiment.
pub fn run_system(cfg: &SysConfig) -> SysOutput {
    with_world(cfg, Cold)
}

/// One point of a latency-vs-throughput sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Offered load (fraction of ideal saturation).
    pub load: f64,
    /// Measured throughput in MRPS.
    pub mrps: f64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_us: f64,
    /// Fraction of events executed by non-home cores (ZygOS only).
    pub steal_fraction: f64,
    /// IPIs delivered per measured request.
    pub ipis_per_req: f64,
    /// Time-averaged granted cores (== configured cores for static
    /// systems; lower when `SystemKind::Elastic` parks cores).
    pub avg_active_cores: f64,
    /// Fraction of arrivals shed by the credit gate (0 with admission
    /// off).
    pub shed_fraction: f64,
    /// Wire time (µs) burned by shed requests over the window: rejects
    /// that travelled to the server and back. Zero under client-side
    /// credit distribution, where creditless requests are never sent.
    pub wasted_wire_us: f64,
}

fn sweep_point(load: f64, out: &SysOutput) -> SweepPoint {
    SweepPoint {
        load,
        mrps: out.throughput_mrps(),
        p99_us: out.p99_us(),
        steal_fraction: out.steal_fraction(),
        ipis_per_req: if out.completed == 0 {
            0.0
        } else {
            out.ipis as f64 / out.completed as f64
        },
        avg_active_cores: out.avg_active_cores,
        shed_fraction: out.shed_fraction(),
        wasted_wire_us: out.wasted_wire_us(),
    }
}

/// Sweeps offered load and reports `(throughput, p99)` points — the raw
/// data behind Figures 6, 8, 9, 10b and 11.
///
/// Telemetry-off sweeps **warm-start**: each point whose load sits above
/// its predecessor's (and at or below [`WARM_MAX_LOAD`]) is spliced onto
/// the previous point's converged checkpoint instead of re-converging from
/// an empty system, spending `warm_warmup` instead of the full cold
/// warmup, unless the predecessor's backlog grew past
/// [`WARM_MAX_GROWTH`]. Every other point runs cold — see `docs/TAIL.md`
/// for the policy.
pub fn latency_throughput_sweep(base: &SysConfig, loads: &[f64]) -> Vec<SweepPoint> {
    run_system_chain(base, loads)
        .iter()
        .zip(loads)
        .map(|(out, &load)| sweep_point(load, out))
        .collect()
}

/// Runs `loads` as one warm chain and returns the full [`SysOutput`] per
/// load — the raw form of [`latency_throughput_sweep`], for callers (the
/// lab runner) that reduce outputs to their own schema. Points the warm
/// policy rejects run cold; the chain head is bit-identical to a cold run.
pub fn run_system_chain(base: &SysConfig, loads: &[f64]) -> Vec<SysOutput> {
    with_world(base, Chain(loads))
}

/// The pre-warm-start sweep: every grid point pays the full cold
/// convergence. Kept as the cold side of the benchmark's
/// `sysim.warm.chain_speedup` probe and for callers that need fully
/// independent points.
pub fn latency_throughput_sweep_cold(base: &SysConfig, loads: &[f64]) -> Vec<SweepPoint> {
    let mut cfg = base.clone();
    loads
        .iter()
        .map(|&load| {
            cfg.load = load;
            let out = run_system(&cfg);
            sweep_point(load, &out)
        })
        .collect()
}

/// Finds the maximum load at which a system meets `quantile ≤ slo_us`
/// (the paper's Figures 3 and 7 metric at the 0.99 quantile; the
/// scenario plane's `[search]` block picks p50/p99/p999 here), reporting
/// `(max_load, probes, cold_probes)`.
///
/// `resolution` is the load grid (50 ⇒ 2% steps, the figures' visual
/// granularity).
///
/// Warmable configs reuse checkpoint prefixes across bisection probes:
/// each probe warm-starts from the converged world of the highest
/// already-probed load below it whose backlog held steady, so usually only
/// the first probe pays the cold warmup (previously *every* probe
/// re-converged from an empty system — the bisection ran the warmup
/// `O(log resolution)` times).
pub fn max_load_at_quantile_slo_counting(
    base: &SysConfig,
    quantile: f64,
    slo_us: f64,
    resolution: usize,
) -> (f64, u32, u32) {
    with_world(base, Search(quantile, slo_us, resolution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean_se;
    use zygos_sim::dist::ServiceDist;

    fn small(system: SystemKind, mean_us: f64) -> SysConfig {
        let mut cfg = SysConfig::paper(system, ServiceDist::exponential_us(mean_us), 0.5);
        cfg.requests = 15_000;
        cfg.warmup = 3_000;
        cfg
    }

    #[test]
    fn sweep_monotone_p99() {
        let pts = latency_throughput_sweep(&small(SystemKind::Zygos, 10.0), &[0.2, 0.5, 0.8]);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].p99_us < pts[2].p99_us, "p99 grows with load");
        assert!(pts[2].mrps > pts[0].mrps, "throughput grows with load");
    }

    #[test]
    fn paper_headline_zygos_beats_ix_at_10us_slo() {
        // The central claim (§6.1): for an SLO of 10×S̄ at p99, ZygOS
        // sustains much higher load than IX for 10µs exponential tasks.
        let slo = 100.0;
        let zygos =
            max_load_at_quantile_slo_counting(&small(SystemKind::Zygos, 10.0), 0.99, slo, 20).0;
        let ix = max_load_at_quantile_slo_counting(&small(SystemKind::Ix, 10.0), 0.99, slo, 20).0;
        assert!(
            zygos > ix + 0.10,
            "ZygOS load@SLO {zygos} should clearly beat IX {ix}"
        );
    }

    /// An IX run at the paper's scale: 16 cores, 2752 connections.
    fn ix(service: ServiceDist, load: f64, rx_batch: u64) -> SysOutput {
        let mut cfg = SysConfig::paper(SystemKind::Ix, service, load);
        cfg.requests = 20_000;
        cfg.warmup = 4_000;
        cfg.rx_batch = rx_batch;
        run_system(&cfg)
    }

    #[test]
    fn ix_golden_pin() {
        // IX runs as the staged engine's paper pipeline. These values were
        // recorded from the standalone IX model that engine replaced, which
        // matched it bit for bit on every output but `local_events`; they
        // are the oracle now that the standalone model is gone. `events`
        // is one lower than the standalone model's: a run now stops on the
        // event that reached the completion target instead of popping one
        // more (the stop rule of the shared client edge).
        // (service, load, B, events, generated, p99 µs); seed 1, 30k + 5k.
        let (exp, bimodal) = (
            ServiceDist::exponential_us(10.0),
            ServiceDist::bimodal1_us(10.0),
        );
        let pins = [
            (exp.clone(), 0.3, 1, 140_007, 35_006, 79.167),
            (exp.clone(), 0.8, 16, 115_443, 35_101, 397.055),
            (exp, 0.95, 64, 112_735, 38_061, 3051.519),
            (bimodal, 0.5, 1, 140_026, 35_017, 170.623),
        ];
        for (service, load, rx_batch, events, generated, p99_us) in pins {
            let mut cfg = SysConfig::paper(SystemKind::Ix, service, load);
            (cfg.requests, cfg.warmup, cfg.seed, cfg.rx_batch) = (30_000, 5_000, 1, rx_batch);
            let out = run_system(&cfg);
            let p99 = out.p99_us();
            let got = (
                out.events,
                out.completed_total,
                out.generated,
                p99.to_bits(),
            );
            let want = (events, 35_000, generated, f64::to_bits(p99_us));
            assert_eq!(got, want, "load {load}, B {rx_batch}: p99 {p99} µs");
        }
    }

    /// What a golden pin holds of one run: the engine's event count, the
    /// client edge's counters and the p99 bits. One struct, so a mismatch
    /// prints every field.
    #[derive(Debug, PartialEq)]
    struct Golden {
        events: u64,
        generated: u64,
        completed_total: u64,
        /// Total, then per class.
        admitted: (u64, Vec<u64>),
        rejected: (u64, Vec<u64>),
        retries: u64,
        give_ups: u64,
        timeouts: u64,
        wire_rejects: u64,
        p99_bits: u64,
    }

    impl Golden {
        fn of(out: &SysOutput) -> Self {
            Golden {
                events: out.events,
                generated: out.generated,
                completed_total: out.completed_total,
                admitted: (out.admitted, out.admitted_by_class.clone()),
                rejected: (out.rejected, out.rejected_by_class.clone()),
                retries: out.retries,
                give_ups: out.give_ups,
                timeouts: out.timeouts,
                wire_rejects: out.wire_rejects,
                p99_bits: out.p99_us().to_bits(),
            }
        }

        /// An open-loop run: no gate, no retries, one class.
        fn open(events: u64, generated: u64, completed_total: u64, p99_us: f64) -> Self {
            Golden {
                events,
                generated,
                completed_total,
                admitted: (0, vec![0]),
                rejected: (0, vec![0]),
                retries: 0,
                give_ups: 0,
                timeouts: 0,
                wire_rejects: 0,
                p99_bits: p99_us.to_bits(),
            }
        }
    }

    /// Runs each named config at seed 1 (20k measured after 4k warm-up
    /// completions) and compares all of them at once, so a failure prints
    /// every pin's values.
    fn check_pins(pins: Vec<(&str, SysConfig, Golden)>) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (name, mut cfg, pin) in pins {
            (cfg.requests, cfg.warmup, cfg.seed) = (20_000, 4_000, 1);
            got.push((name, Golden::of(&run_system(&cfg))));
            want.push((name, pin));
        }
        assert_eq!(got, want);
    }

    // The Linux and staged pins were recorded before those models moved
    // behind the shared client edge; their `events` are one lower than
    // then, because a run now stops on the event that reached the
    // completion target instead of popping one more.
    #[test]
    fn linux_golden_pin() {
        let linux =
            |system, load| SysConfig::paper(system, ServiceDist::exponential_us(25.0), load);
        let (part, float) = (SystemKind::LinuxPartitioned, SystemKind::LinuxFloating);
        check_pins(vec![
            (
                "partitioned 0.3",
                linux(part, 0.3),
                Golden::open(96_036, 24_012, 24_000, 226.431),
            ),
            (
                "partitioned 0.7",
                linux(part, 0.7),
                Golden::open(98_644, 24_882, 24_000, 4681.727),
            ),
            (
                "floating 0.3",
                linux(float, 0.3),
                Golden::open(95_970, 24_008, 24_000, 131.583),
            ),
            (
                "floating 0.7",
                linux(float, 0.7),
                Golden::open(73_614, 24_675, 24_000, 1491.967),
            ),
        ]);
    }

    #[test]
    fn staged_golden_pin() {
        use crate::staged::{CoreLayout, QueueDiscipline};
        let staged =
            || SysConfig::paper(SystemKind::Staged, ServiceDist::exponential_us(10.0), 0.7);
        let mut split = staged();
        let plan = split.staged.as_mut().expect("paper pipeline");
        plan.layout = CoreLayout::SplitNet { net_cores: 2 };
        let mut unified = staged();
        for s in &mut unified.staged.as_mut().expect("paper pipeline").stages {
            s.discipline = QueueDiscipline::Cfcfs;
        }
        check_pins(vec![
            (
                "split-net dfcfs-steal",
                split,
                Golden::open(116_443, 24_010, 24_000, 63.871),
            ),
            (
                "unified cfcfs",
                unified,
                Golden::open(92_849, 24_009, 24_000, 77.311),
            ),
        ]);
    }

    #[test]
    fn zygos_client_golden_pin() {
        use crate::config::AdmissionMode;
        use zygos_load::retry::RetryPolicy;
        use zygos_load::slo::{Slo, SloClass, TenantSlos};
        use zygos_sched::CreditConfig;
        let overload = || {
            let mut cfg =
                SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
            cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
            cfg
        };
        let mut edge = overload();
        edge.retry = Some(RetryPolicy::Backoff {
            base_us: 50,
            factor: 2.0,
            max_attempts: 3,
        });
        // Without a client timeout, each re-issue reaches the server as one
        // `Packet` event scheduled from the shed (no `Retry` hop).
        let folded = edge.clone();
        edge.retry_timeout_us = Some(120.0);
        let mut client = overload();
        client.admission_mode = AdmissionMode::ClientSide;
        client.slo = Some(TenantSlos::new(vec![
            SloClass::new("interactive", Slo::p99(100.0)),
            SloClass::new("batch", Slo::p99(1000.0)),
        ]));
        check_pins(vec![
            (
                "server-edge credits, backoff, timeout",
                edge,
                Golden {
                    events: 594_090,
                    generated: 46_493,
                    completed_total: 24_000,
                    admitted: (24_015, vec![24_015]),
                    rejected: (119_566, vec![119_566]),
                    retries: 97_377,
                    give_ups: 22_238,
                    timeouts: 49,
                    wire_rejects: 119_566,
                    p99_bits: f64::to_bits(347.903),
                },
            ),
            (
                "server-edge credits, backoff, no timeout",
                folded,
                Golden {
                    events: 351_822,
                    generated: 46_189,
                    completed_total: 24_000,
                    admitted: (24_015, vec![24_015]),
                    rejected: (117_785, vec![117_785]),
                    retries: 95_968,
                    give_ups: 21_817,
                    timeouts: 0,
                    wire_rejects: 117_785,
                    p99_bits: f64::to_bits(347.903),
                },
            ),
            (
                "client-side credits, two SLO classes",
                client,
                Golden {
                    events: 127_436,
                    generated: 38_340,
                    completed_total: 24_000,
                    admitted: (24_048, vec![13_088, 10_960]),
                    rejected: (14_292, vec![6_076, 8_216]),
                    retries: 0,
                    give_ups: 0,
                    timeouts: 0,
                    wire_rejects: 0,
                    p99_bits: f64::to_bits(95.231),
                },
            ),
        ]);
    }

    #[test]
    fn preemption_golden_pin() {
        // The quantum path, where a preempted remainder is joined back in
        // front of its connection's queue: elastic, min 2 cores,
        // q = 25 µs, exp 10 µs; seed 1, 20k measured after 4k warm-up
        // completions. (events, generated, completed_total, preemptions,
        // stolen_events, p99 µs) per background order and load.
        use zygos_sched::BackgroundOrder::{Fcfs, Srpt};
        let pins = [
            (Fcfs, 0.5, 243_905, 24_013, 24_000, 1_117, 15_338, 63.871),
            (Fcfs, 0.9, 84_516, 25_262, 24_000, 1_116, 807, 1761.279),
            (Srpt, 0.5, 243_887, 24_013, 24_000, 1_117, 15_337, 63.807),
            (Srpt, 0.9, 84_582, 25_254, 24_000, 1_115, 844, 1886.207),
        ];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (order, load, events, generated, completed, preemptions, stolen, p99_us) in pins {
            let mut cfg = SysConfig::paper(
                SystemKind::Elastic { min_cores: 2 },
                ServiceDist::exponential_us(10.0),
                load,
            );
            (cfg.requests, cfg.warmup, cfg.seed) = (20_000, 4_000, 1);
            cfg.preemption_quantum_us = 25.0;
            cfg.background_order = order;
            let out = run_system(&cfg);
            let p99 = out.p99_us();
            let fields = [
                out.events,
                out.generated,
                out.completed_total,
                out.preemptions,
                out.stolen_events,
                p99.to_bits(),
            ];
            got.push((order, load, p99, fields));
            let fields = [
                events,
                generated,
                completed,
                preemptions,
                stolen,
                f64::to_bits(p99_us),
            ];
            want.push((order, load, p99, fields));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn zygos_static_golden_pin() {
        // Static ZygOS (16 cores, exp 10 µs) at a low load, where idle
        // cores are woken in storms, and near the Fig. 6 operating point;
        // seed 1, 20k measured after 4k warm-up completions. (load,
        // events, generated, stolen_events, p99 µs.) A change that folds
        // the wake storms moves `events` here and nothing else.
        let pins = [
            (0.2, 418_743, 24_005, 5_354, 55.391),
            (0.8, 120_830, 24_034, 10_131, 125.695),
        ];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (load, events, generated, stolen, p99_us) in pins {
            let mut cfg =
                SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), load);
            (cfg.requests, cfg.warmup, cfg.seed) = (20_000, 4_000, 1);
            let out = run_system(&cfg);
            let p99 = out.p99_us();
            got.push((
                load,
                p99,
                [out.events, out.generated, out.stolen_events, p99.to_bits()],
            ));
            want.push((load, p99, [events, generated, stolen, f64::to_bits(p99_us)]));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn every_host_reads_the_client_edge_knobs() {
        use crate::config::AdmissionMode;
        use crate::SeriesKind;
        use zygos_load::retry::RetryPolicy;
        use zygos_sched::CreditConfig;
        use zygos_telemetry::TelemetryConfig;
        for system in [
            SystemKind::Ix,
            SystemKind::LinuxPartitioned,
            SystemKind::LinuxFloating,
            SystemKind::Staged,
        ] {
            let base = || {
                let mut cfg = SysConfig::paper(system, ServiceDist::exponential_us(10.0), 1.3);
                (cfg.requests, cfg.warmup, cfg.seed) = (8_000, 2_000, 1);
                cfg
            };
            let gated = || {
                let mut cfg = base();
                cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 80.0));
                cfg
            };
            let name = system.label();
            let ungated = run_system(&base());

            // Server-edge credits with backoff, recording two series.
            let mut cfg = gated();
            cfg.retry = Some(RetryPolicy::Backoff {
                base_us: 50,
                factor: 2.0,
                max_attempts: 3,
            });
            cfg.telemetry = Some(TelemetryConfig {
                series: vec![SeriesKind::CreditCapacity, SeriesKind::WindowP99],
                ..TelemetryConfig::default()
            });
            let edge = run_system(&cfg);
            assert!(edge.rejected > 0 && edge.retries > 0, "{name}: no sheds");
            assert!(
                edge.wasted_wire_us() > 0.0,
                "{name}: free server-edge sheds"
            );
            assert!(
                edge.p99_us() < ungated.p99_us(),
                "{name}: gated p99 {} vs ungated {}",
                edge.p99_us(),
                ungated.p99_us()
            );
            let series = edge
                .telemetry
                .as_ref()
                .expect("series armed")
                .series
                .clone();
            for want in ["credit_capacity", "window_p99_us"] {
                let s = series.iter().find(|s| s.name == want);
                assert!(s.is_some_and(|s| !s.points.is_empty()), "{name}: {want}");
            }

            // Client-side credits: a shed request never travels.
            let mut cfg = gated();
            cfg.admission_mode = AdmissionMode::ClientSide;
            let client = run_system(&cfg);
            assert!(client.rejected > 0, "{name}: client-side gate never shed");
            assert_eq!(client.wire_rejects, 0, "{name}");

            // No gate: only the client timeout can feed the retry policy.
            let mut cfg = base();
            cfg.retry = Some(RetryPolicy::Backoff {
                base_us: 1,
                factor: 1.0,
                max_attempts: 2,
            });
            cfg.retry_timeout_us = Some(300.0);
            let timeout = run_system(&cfg);
            assert!(timeout.timeouts > 0, "{name}: no timeouts fired");

            for out in [&ungated, &edge, &client, &timeout] {
                assert!(
                    out.in_flight() >= 0,
                    "{name}: gen {} + retries {} < done {} + rejected {}",
                    out.generated,
                    out.retries,
                    out.completed_total,
                    out.rejected
                );
            }
        }
    }

    #[test]
    fn ix_completes_and_never_steals() {
        let out = ix(ServiceDist::exponential_us(10.0), 0.4, 1);
        assert_eq!(out.completed, 20_000);
        assert_eq!(out.stolen_events, 0);
        assert_eq!(out.ipis, 0);
    }

    #[test]
    fn ix_partitioned_tail_grows_much_earlier_than_pooled() {
        // At 70% load a partitioned M/G/1-like system has a far worse tail
        // than centralized designs; just sanity-check stability + ordering.
        let lo = ix(ServiceDist::exponential_us(10.0), 0.3, 1);
        let hi = ix(ServiceDist::exponential_us(10.0), 0.7, 1);
        assert!(hi.p99_us() > lo.p99_us() * 1.5);
    }

    #[test]
    fn ix_batching_raises_saturation_throughput() {
        // With tiny tasks the fixed driver cost dominates; B=64 amortizes
        // it and sustains a higher load with bounded latency.
        let b1 = ix(ServiceDist::exponential_us(2.0), 0.8, 1);
        let b64 = ix(ServiceDist::exponential_us(2.0), 0.8, 64);
        assert!(
            b64.p99_us() < b1.p99_us(),
            "B=64 p99 {} should beat B=1 p99 {}",
            b64.p99_us(),
            b1.p99_us()
        );
    }

    #[test]
    fn ix_run_to_completion_head_of_line_blocking() {
        // Bimodal-1 at moderate load: the p99 reflects short requests stuck
        // behind 55µs ones on the same core — well above the 55µs mode.
        let mut cfg = SysConfig::paper(SystemKind::Ix, ServiceDist::bimodal1_us(10.0), 0.5);
        cfg.requests = 30_000;
        cfg.warmup = 5_000;
        let out = run_system(&cfg);
        assert!(out.p99_us() > 60.0, "p99 = {}", out.p99_us());
    }

    #[test]
    fn theory_bounds_bracket_systems() {
        // Systems fall below the zero-overhead M/M/16 bound (closed form).
        let central = queueing::theory::mmn_max_load_at_p99_slo(16, 10.0);
        let zygos =
            max_load_at_quantile_slo_counting(&small(SystemKind::Zygos, 10.0), 0.99, 100.0, 20).0;
        assert!(zygos < central + 0.05, "zygos {zygos} vs bound {central}");
    }

    #[test]
    fn warm_sweep_matches_cold_within_tolerance() {
        // The warm-started sweep must be statistically equivalent to the
        // cold sweep: same distribution, different (shorter) warmup.
        let base = small(SystemKind::Zygos, 10.0);
        let loads = [0.3, 0.5, 0.7, 0.85];
        let warm = latency_throughput_sweep(&base, &loads);
        let cold = latency_throughput_sweep_cold(&base, &loads);
        for (w, c) in warm.iter().zip(&cold) {
            assert!(
                (w.mrps - c.mrps).abs() / c.mrps < 0.05,
                "load {}: warm mrps {} vs cold {}",
                w.load,
                w.mrps,
                c.mrps
            );
            assert!(
                (w.p99_us - c.p99_us).abs() / c.p99_us < 0.30,
                "load {}: warm p99 {} vs cold {}",
                w.load,
                w.p99_us,
                c.p99_us
            );
        }
    }

    #[test]
    fn warm_chain_processes_a_fraction_of_the_cold_events() {
        // The warm-start gate as an exact count, on the smoke grid of the
        // benchmark's `sysim.warm.chain_speedup` probe. Each cold point
        // converges 30k + 2.5k completions; the chain pays that once, then
        // warmup/8 + 2.5k per point. Σ cold / Σ chain engine events
        // measured 2.531–2.557 over seeds 1–10, so the floor sits just
        // under the lowest seed. A chain that stops warming reads 1.0.
        const MIN_COLD_OVER_WARM: f64 = 2.5;
        let mut base = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.3);
        base.seed = 1;
        (base.requests, base.warmup) = (2_500, 30_000);
        let loads = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let mut cfg = base.clone();
        let cold: u64 = loads
            .iter()
            .map(|&load| {
                cfg.load = load;
                run_system(&cfg).events
            })
            .sum();
        let warm: u64 = run_system_chain(&base, &loads)
            .iter()
            .map(|o| o.events)
            .sum();
        assert!(
            cold as f64 >= MIN_COLD_OVER_WARM * warm as f64,
            "warm chain lost its head start: {cold} cold events vs {warm} chained \
             ({:.3}x, floor {MIN_COLD_OVER_WARM}x)",
            cold as f64 / warm as f64
        );
    }

    #[test]
    fn warm_sweep_is_deterministic() {
        let base = small(SystemKind::Zygos, 10.0);
        let loads = [0.4, 0.6, 0.8];
        let a = latency_throughput_sweep(&base, &loads);
        let b = latency_throughput_sweep(&base, &loads);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.p99_us, y.p99_us);
            assert_eq!(x.mrps, y.mrps);
        }
    }

    #[test]
    fn first_sweep_point_is_bit_identical_to_cold() {
        // The chain head always runs cold, and `run_keep` must not change
        // its output: point 0 of warm and cold sweeps agree exactly.
        let base = small(SystemKind::Zygos, 10.0);
        let warm = latency_throughput_sweep(&base, &[0.5, 0.7]);
        let cold = latency_throughput_sweep_cold(&base, &[0.5, 0.7]);
        assert_eq!(warm[0].p99_us, cold[0].p99_us);
        assert_eq!(warm[0].mrps, cold[0].mrps);
    }

    #[test]
    fn bisection_probe_count_is_pinned_and_reuses_prefixes() {
        // Resolution 16 ⇒ 1 edge probe + ⌈log2(15)⌉ = 4 bisection probes.
        // Prefix reuse means exactly one of them (the first) runs cold —
        // this pins the double-warm-up fix: before it, every probe paid
        // the cold warmup.
        let (load, probes, cold) =
            max_load_at_quantile_slo_counting(&small(SystemKind::Zygos, 10.0), 0.99, 100.0, 16);
        assert!(load > 0.5, "sane search result, got {load}");
        assert_eq!(probes, 5, "bisection probe count changed");
        assert_eq!(cold, 1, "only the first probe may run cold");
    }

    #[test]
    fn warm_points_count_only_their_own_requests() {
        // A warm chain with credits and backoff retries. Each point's
        // conservation terms are rebased at its splice, so attempts
        // offered less attempts ended is the change in requests in flight
        // (queued, or waiting out a backoff) over the point: within the
        // donor rule's 2 % of its completions, not the donors' arrivals.
        use zygos_load::retry::RetryPolicy;
        use zygos_sched::CreditConfig;
        let mut base = small(SystemKind::Zygos, 10.0);
        base.admission = Some(CreditConfig::for_cores(base.cores, 40.0));
        base.retry = Some(RetryPolicy::Backoff {
            base_us: 50,
            factor: 2.0,
            max_attempts: 3,
        });
        let outs = run_system_chain(&base, &[0.6, 0.8, 0.95]);
        for (i, out) in outs.iter().enumerate() {
            let growth = out.in_flight();
            assert!(out.retries > 0, "point {i}: the gate never shed");
            assert!(
                growth.unsigned_abs() as f64 <= WARM_MAX_GROWTH * out.completed_total as f64,
                "point {i}: generated {} + retries {} - completed {} - rejected {} = {growth}",
                out.generated,
                out.retries,
                out.completed_total,
                out.rejected
            );
            if i > 0 {
                assert_eq!(
                    out.completed_total,
                    warm_warmup(&base) + base.requests,
                    "point {i} ran cold"
                );
            }
        }
    }

    #[test]
    fn a_saturated_donor_seeds_no_warm_start() {
        // Linux-floating on exponential 10 µs work saturates near load
        // 0.45: its 0.6 point runs warm from 0.3 but grows a backlog, so
        // the 0.9 point must run cold, bit-identical to a lone cold run.
        let mut base = small(SystemKind::LinuxFloating, 10.0);
        (base.requests, base.warmup) = (3_000, 600);
        let chain = run_system_chain(&base, &[0.3, 0.6, 0.9]);
        assert_eq!(chain[1].completed_total, 3_500, "0.6 warm-starts");
        assert!(chain[1].in_flight() as f64 > WARM_MAX_GROWTH * 3_500.0);
        base.load = 0.9;
        let cold = run_system(&base);
        assert_eq!(chain[2].events, cold.events);
        assert_eq!(chain[2].p99_us().to_bits(), cold.p99_us().to_bits());
    }

    #[test]
    fn warm_and_cold_p99_agree_across_seeds() {
        // One stable 0.3 → 0.6 chain per seed and host: the warm points'
        // mean p99 must lie inside the 95 % CI (Student t, 7 degrees of
        // freedom) of the cold runs' p99 over the same seeds. Linux pays
        // ~11 µs of kernel time per request, so it runs 100 µs work to
        // stay below saturation at 0.6.
        use crate::staged::{CoreLayout, StagedConfig};
        const SEEDS: u64 = 8;
        const T_975: f64 = 2.365;
        for (system, mean_us) in [
            (SystemKind::Zygos, 10.0),
            (SystemKind::Ix, 10.0),
            (SystemKind::LinuxPartitioned, 100.0),
            (SystemKind::Staged, 10.0),
        ] {
            let mut base = SysConfig::paper(system, ServiceDist::exponential_us(mean_us), 0.3);
            let mut plan = StagedConfig::paper_pipeline(&base.cost);
            plan.layout = CoreLayout::SplitNet { net_cores: 2 };
            base.staged = Some(plan);
            (base.requests, base.warmup) = (3_000, 3_000);
            let (mut warm, mut cold) = (Vec::new(), Vec::new());
            for seed in 1..=SEEDS {
                base.seed = seed;
                let chain = run_system_chain(&base, &[0.3, 0.6]);
                assert_eq!(
                    chain[1].completed_total,
                    3_500,
                    "{}: 0.6 ran cold",
                    system.label()
                );
                warm.push(chain[1].p99_us());
                cold.push(
                    run_system(&SysConfig {
                        load: 0.6,
                        ..base.clone()
                    })
                    .p99_us(),
                );
            }
            let ((w, _), (c, se)) = (mean_se(&warm), mean_se(&cold));
            assert!(
                (w - c).abs() <= T_975 * se,
                "{}: warm p99 {w:.1} µs outside the cold {c:.1} ± {:.1} µs",
                system.label(),
                T_975 * se
            );
        }
    }
}
