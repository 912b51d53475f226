//! `sim-steal`, `sim-overload`, `sim-models`: the simulator as its users
//! run it — `run_system` on a paper-testbed configuration (16 cores,
//! 2752 connections, open-loop Poisson arrivals in simulated time).

use std::hint::black_box;

use zygos_load::retry::RetryPolicy;
use zygos_sched::CreditConfig;
use zygos_sim::dist::ServiceDist;
use zygos_sim::stats::LatencyHistogram;
use zygos_sysim::{run_system, CoreLayout, StagedConfig, SysConfig, SysOutput, SystemKind};

use super::{digest_words, UnitOutcome, Workload};
use crate::span::Spans;

/// One or more `run_system` calls per unit.
pub struct SimWorkload {
    /// `(span label, config)` per run.
    runs: Vec<(&'static str, SysConfig)>,
    /// The run whose p99 the unit reports (the p50 is over all runs).
    tail_run: usize,
}

fn sized(mut cfg: SysConfig, requests: u64, warmup: u64, seed: u64) -> SysConfig {
    cfg.requests = requests;
    cfg.warmup = warmup;
    cfg.seed = seed;
    cfg
}

/// The Figure 6 operating point: ZygOS, exponential 10 µs service, load
/// 0.8. Admission, retries and telemetry are off.
pub fn steal_config(seed: u64) -> SysConfig {
    let cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.8);
    sized(cfg, 200_000, 20_000, seed)
}

/// The same host at offered load 1.3, with credit admission and
/// closed-loop backoff retries: the control plane does the work.
pub fn overload_config(seed: u64) -> SysConfig {
    let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 1.3);
    cfg.admission = Some(CreditConfig::for_cores(cfg.cores, 70.0));
    cfg.retry = Some(RetryPolicy::Backoff {
        base_us: 50,
        factor: 2.0,
        max_attempts: 4,
    });
    sized(cfg, 120_000, 12_000, seed)
}

pub fn ix_config(seed: u64) -> SysConfig {
    let mut cfg = SysConfig::paper(SystemKind::Ix, ServiceDist::exponential_us(10.0), 0.8);
    cfg.rx_batch = 16;
    sized(cfg, 200_000, 20_000, seed)
}

pub fn linux_config(seed: u64) -> SysConfig {
    let cfg = SysConfig::paper(
        SystemKind::LinuxFloating,
        ServiceDist::exponential_us(50.0),
        0.6,
    );
    sized(cfg, 100_000, 10_000, seed)
}

pub fn staged_config(seed: u64) -> SysConfig {
    let mut cfg = SysConfig::paper(SystemKind::Staged, ServiceDist::exponential_us(10.0), 0.8);
    let mut plan = StagedConfig::paper_pipeline(&cfg.cost);
    plan.layout = CoreLayout::SplitNet { net_cores: 2 };
    cfg.staged = Some(plan);
    sized(cfg, 150_000, 15_000, seed)
}

impl SimWorkload {
    pub fn steal(seed: u64) -> Self {
        SimWorkload {
            runs: vec![("sysim.run_system[zygos]", steal_config(seed))],
            tail_run: 0,
        }
    }

    pub fn overload(seed: u64) -> Self {
        SimWorkload {
            runs: vec![("sysim.run_system[zygos-overload]", overload_config(seed))],
            tail_run: 0,
        }
    }

    /// The three models that are not `zygos.rs`, one run each per unit.
    ///
    /// The tail reported is Linux-floating's. The IX and staged runs sit
    /// close to saturation, where p99 grows with run length and differs
    /// two- to threefold between seeds (563–1276 µs and 2.1–7.4 ms over
    /// six seeds; Linux-floating: 247–250 µs): a bound on it would gate
    /// nothing.
    pub fn models(seed: u64) -> Self {
        SimWorkload {
            runs: vec![
                ("sysim.run_system[ix]", ix_config(seed)),
                ("sysim.run_system[linux-floating]", linux_config(seed)),
                ("sysim.run_system[staged]", staged_config(seed)),
            ],
            tail_run: 1,
        }
    }
}

/// Output checks of one run; returns one line per violation.
pub fn check_output(label: &str, cfg: &SysConfig, out: &SysOutput) -> Vec<String> {
    let mut errs = Vec::new();
    if out.completed != cfg.requests {
        errs.push(format!(
            "{label}: measured {} completions, asked for {}",
            out.completed, cfg.requests
        ));
    }
    if out.completed_total < cfg.requests + cfg.warmup {
        errs.push(format!(
            "{label}: {} completions in all, fewer than requests + warm-up",
            out.completed_total
        ));
    }
    // Conservation at drain: nothing completes or is shed that was not
    // first offered.
    if out.generated + out.retries < out.completed_total + out.rejected {
        errs.push(format!(
            "{label}: generated {} + retries {} < completed {} + rejected {}",
            out.generated, out.retries, out.completed_total, out.rejected
        ));
    }
    if out.latency.count() != out.completed {
        errs.push(format!(
            "{label}: {} latency samples for {} completions",
            out.latency.count(),
            out.completed
        ));
    }
    errs
}

impl Workload for SimWorkload {
    fn ops_per_unit(&self) -> u64 {
        self.runs.iter().map(|(_, c)| c.requests + c.warmup).sum()
    }

    fn unit(&mut self, spans: &mut Spans) -> UnitOutcome {
        let mut latency = LatencyHistogram::new();
        let mut errors = Vec::new();
        let (mut generated, mut give_ups) = (0u64, 0u64);
        let mut words = Vec::new();
        let mut p99_us = f64::NAN;
        for (i, (label, cfg)) in self.runs.iter().enumerate() {
            let out = spans.scope(label, |_| run_system(black_box(cfg)));
            errors.extend(check_output(label, cfg, &out));
            latency.merge(&out.latency);
            if i == self.tail_run {
                p99_us = out.latency.p99_us();
            }
            generated += out.generated;
            give_ups += out.give_ups;
            words.extend([
                out.latency.p50_us().to_bits(),
                out.latency.p99_us().to_bits(),
                out.latency.quantile_us(0.999).to_bits(),
                out.completed,
                out.events,
            ]);
        }
        let ops = self.ops_per_unit();
        UnitOutcome {
            ops,
            failed: if errors.is_empty() { 0 } else { ops },
            p50_us: latency.p50_us(),
            p99_us,
            goodput: 1.0 - give_ups as f64 / generated.max(1) as f64,
            digest: Some(digest_words(words)),
            errors,
        }
    }
}
