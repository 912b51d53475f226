//! Fleet harness: N independent `sysim` shards behind a simulated L4
//! balancer.
//!
//! The paper bounds tail latency *inside* one server by keeping the
//! queue→core indirection work-conserving; this module lifts the same
//! indirection one level, to request→server across a sharded fleet. The
//! balancer ([`zygos_load::route::Balancer`]) pins *connections* to
//! shards — the way a real L4 tier pins flows — so by Poisson thinning
//! each shard's arrival substream is exactly Poisson at its connection
//! share of the fleet rate. Between routing decisions the shards share
//! nothing, which buys three things at once:
//!
//! 1. **Fidelity** — every shard is a full, unmodified ZygOS-family
//!    world with its own policy-plane instance (work stealing, IPIs,
//!    credit admission, elastic control), not a fluid approximation.
//! 2. **Scale** — shards fan out over scoped threads with
//!    shard-index-ordered reassembly, so a 16-shard fleet at 10⁷–10⁸
//!    aggregate users costs one shard's wall-clock per core.
//! 3. **Trust** — with one shard and [`RoutePolicy::PassThrough`]
//!    routing, the fleet layer lowers to the base [`SysConfig`]
//!    *verbatim*: the aggregation is pinned bit-identical to
//!    [`crate::run_system`] by a differential test, the fleet analogue
//!    of the WheelQueue/HeapQueue engine oracle.
//!
//! **Scatter-gather** lifts the tail one more level: with
//! [`FleetConfig::fanout`] `M > 1` every user request fans out to `M`
//! distinct shards (its connection's replica set, chosen by
//! [`zygos_load::route::Balancer::route_multi`]) and completes when the
//! *slowest* sub-request does. The shards stay independent worlds — each
//! runs its Poisson substream of sub-requests exactly as before — and the
//! max-of-M completion is applied at aggregation: for iid sub-request
//! latencies `P(max ≤ x) = F(x)^M`, so the user p99 is the merged
//! histogram's `0.99^(1/M)` quantile and user throughput is sub-request
//! throughput over `M`. That one TOML key reproduces tail-at-scale
//! amplification (Dean & Barroso): a per-shard p99 hiccup that touches 1%
//! of sub-requests touches `1-0.99^M` of fanned user requests.
//!
//! Two fault injections come from the scenario spec:
//!
//! * **Degradation** — shard `i` serves at `f×` its healthy cost
//!   ([`zygos_sim::dist::ServiceDist::scaled`]); its arrival rate is
//!   unchanged (clients
//!   don't know), so its *effective* load multiplies by `f`. Load-aware
//!   routing sees capacity `1/f` and assigns the shard proportionally
//!   fewer connections; consistent-hash does not — the `fleet_tail`
//!   scenario's claim.
//! * **Loss** — shard `l` disappears at `t_loss`: its connections remap
//!   onto survivors (only *its* keys move under consistent hashing), and
//!   each survivor's arrival process becomes piecewise-Poisson — its
//!   pre-loss rate for `t_loss`, then its post-remap rate — via
//!   [`ArrivalSpec::Phased`]. The lost shard runs its pre-loss
//!   configuration with a completion target sized to drain before
//!   `t_loss`.
//!
//! Request conservation is observable end to end: every shard reports
//! `generated`, `completed_total` and `rejected`, and
//! [`FleetOutput::in_flight`] closes the identity
//! `generated == completed_total + rejected + in_flight` at drain — a
//! fleet-wide property test pins it for arbitrary shard counts and
//! seeds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use zygos_load::route::{conn_key, Balancer, RoutePolicy};
use zygos_load::source::{ArrivalSpec, Phase};
use zygos_sim::stats::LatencyHistogram;
use zygos_telemetry::TelemetryOut;

use crate::config::{SysConfig, SysOutput};
use crate::driver::run_system;
use crate::edge::idle_output;

/// Seed stride between shards: shard `i` runs at
/// `base.seed + i · FLEET_SEED_STRIDE` (shard 0 keeps the base seed, so
/// the single-shard fleet is seed-identical to the base world).
pub const FLEET_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where the credit-admission budget lives in a fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionTopology {
    /// Each shard runs the base pool as its own (the default: admission
    /// provisioned where the queues are).
    PerShard,
    /// The base pool is one fleet-wide budget, split evenly across the
    /// shards ([`zygos_sched::CreditConfig::split`]). Observable because
    /// pool sizing is not linear in cores: a split fleet budget starts
    /// tighter and probes more gently than shard-local provisioning.
    FleetWide,
}

/// A fleet experiment: `shards` copies of `base` behind a balancer.
///
/// `base` is read as the *fleet-level* description: `base.conns` is the
/// fleet's connection count (partitioned by routing), `base.load` the
/// offered load as a fraction of fleet-wide ideal saturation
/// (`shards × cores` healthy cores), and `base.requests`/`base.warmup`
/// fleet-total completion windows (divided by connection share).
/// `base.cores` is per shard.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Per-shard world template and fleet-level workload knobs.
    pub base: SysConfig,
    /// Number of server shards.
    pub shards: usize,
    /// Connection-routing policy at the balancer.
    pub routing: RoutePolicy,
    /// Credit-admission topology (ignored when `base.admission` is off).
    pub admission: AdmissionTopology,
    /// Degraded shards as `(shard, service factor)`: shard `i` serves at
    /// `factor ×` its healthy cost.
    pub degraded: Vec<(usize, f64)>,
    /// Shard loss as `(shard, at_us)`: the shard disappears at `at_us`
    /// and its connections remap onto the survivors. Requires Poisson
    /// base arrivals (survivor rewiring is expressed as phases).
    pub loss: Option<(usize, f64)>,
    /// Scatter-gather fan-out: every user request becomes `fanout`
    /// sub-requests on distinct shards and completes at the slowest
    /// (1 = plain routing, the default). `base.load` keeps its
    /// sub-request meaning — it is the *sub-request* fraction of fleet
    /// saturation — so the same load compares fairly across fan-outs;
    /// user-facing throughput and p99 are fan-out-adjusted at
    /// aggregation ([`FleetOutput::throughput_mrps`],
    /// [`FleetOutput::p99_us`]). Incompatible with shard loss: a lost
    /// shard would strand every replica set that includes it.
    pub fanout: usize,
}

impl FleetConfig {
    /// A healthy fleet of `shards` copies of `base` under `routing`.
    pub fn new(base: SysConfig, shards: usize, routing: RoutePolicy) -> Self {
        FleetConfig {
            base,
            shards,
            routing,
            admission: AdmissionTopology::PerShard,
            degraded: Vec::new(),
            loss: None,
            fanout: 1,
        }
    }

    /// Service-cost factor of `shard` (1.0 unless degraded).
    fn factor(&self, shard: usize) -> f64 {
        self.degraded
            .iter()
            .find(|&&(s, _)| s == shard)
            .map_or(1.0, |&(_, f)| f)
    }

    /// Fleet-wide offered arrival rate in requests/µs: `load` of the
    /// healthy fleet's ideal saturation.
    fn fleet_rate_per_us(&self) -> f64 {
        self.base.load * (self.shards * self.base.cores) as f64 / self.base.service.mean_us()
    }
}

/// One shard's lowered world, or `None` for a shard that has nothing to
/// run (no connections, or lost before it could complete anything).
type ShardPlan = Option<SysConfig>;

/// The deterministic lowering of a [`FleetConfig`]: per-shard configs
/// plus the balancer's connection ledger.
struct FleetPlan {
    configs: Vec<ShardPlan>,
    /// Connections assigned per shard (pre-loss).
    assigned: Vec<u32>,
    /// Connections remapped by the loss event (0 without one).
    moved: u64,
}

/// Aggregated result of a fleet run: the per-shard worlds' outputs in
/// shard order, plus fleet-level reductions.
#[derive(Clone)]
pub struct FleetOutput {
    /// Per-shard outputs, indexed by shard (idle shards report zeros).
    pub shards: Vec<SysOutput>,
    /// Connections assigned per shard at t=0 (replica-set slots when
    /// `fanout > 1`: each connection counts once per replica).
    pub assigned: Vec<u32>,
    /// Connections remapped by the loss event (0 without one).
    pub moved: u64,
    /// Scatter-gather fan-out the fleet ran with (1 = plain routing).
    pub fanout: usize,
    /// Merged measured-window latency histogram across all shards.
    /// Sub-request latencies when `fanout > 1`; [`Self::p99_us`] applies
    /// the max-of-M adjustment.
    pub latency: LatencyHistogram,
    /// Merged per-shard time-series, names prefixed `shard<i>/`.
    /// `None` unless the base config armed telemetry. Lifecycle traces
    /// are not merged: their correlation keys are per-world sequence
    /// numbers, which collide across shards.
    pub telemetry: Option<TelemetryOut>,
}

impl FleetOutput {
    /// Requests generated across the fleet (warmup and sheds included).
    pub fn generated(&self) -> u64 {
        self.shards.iter().map(|s| s.generated).sum()
    }

    /// Completions across the fleet, warmup included.
    pub fn completed_total(&self) -> u64 {
        self.shards.iter().map(|s| s.completed_total).sum()
    }

    /// Measured completions across the fleet (warmup excluded).
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Requests shed by credit gates across the fleet.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Requests admitted past credit gates across the fleet.
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Retry re-issues across the fleet (closed-loop feedback volume).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum()
    }

    /// Requests abandoned by their retry policy across the fleet.
    pub fn give_ups(&self) -> u64 {
        self.shards.iter().map(|s| s.give_ups).sum()
    }

    /// Client timeouts fired across the fleet.
    pub fn timeouts(&self) -> u64 {
        self.shards.iter().map(|s| s.timeouts).sum()
    }

    /// Engine events processed across the fleet — the fleet's
    /// machine-independent cost count, the sum of each shard's
    /// [`SysOutput::events`](crate::SysOutput::events).
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Requests generated but neither completed nor shed when the
    /// completion targets stopped the shard engines: still queued, in
    /// service, or on the wire. Closes the retry-extended conservation
    /// identity
    /// `generated + retries == completed_total + rejected + in_flight`
    /// (with retries off it collapses to the original); never negative
    /// for cold runs (the fleet always runs cold).
    pub fn in_flight(&self) -> i64 {
        self.generated() as i64 + self.retries() as i64
            - self.completed_total() as i64
            - self.rejected() as i64
    }

    /// Aggregate fleet throughput in requests/µs of *user* requests: the
    /// sum of per-shard measured sub-request rates, over the fan-out (a
    /// fanned user request only completes when all its sub-requests do).
    pub fn throughput_mrps(&self) -> f64 {
        let sub: f64 = self.shards.iter().map(|s| s.throughput_mrps()).sum();
        sub / self.fanout as f64
    }

    /// Fleet 99th-percentile *user* latency. With `fanout == 1` this is
    /// the merged histogram's p99 verbatim (bit-identical to the base
    /// world in the single-shard differential). With `fanout = M` a user
    /// request completes at the max of `M` iid sub-requests, so
    /// `P(max ≤ x) = F(x)^M` and the user p99 is the sub-request
    /// distribution's `0.99^(1/M)` quantile — for `M = 4` that is the
    /// sub-request p99.75, the tail-at-scale amplification in one line.
    pub fn p99_us(&self) -> f64 {
        if self.fanout == 1 {
            self.latency.p99_us()
        } else {
            self.latency
                .quantile_us(0.99f64.powf(1.0 / self.fanout as f64))
        }
    }
}

/// Lowers a [`FleetConfig`] to per-shard worlds.
///
/// # Panics
///
/// Panics on structural misuse: zero shards, out-of-range degradation or
/// loss indices, non-positive factors, a loss with non-Poisson base
/// arrivals, or a single-shard loss (nothing would remain).
fn plan_fleet(cfg: &FleetConfig) -> FleetPlan {
    assert!(cfg.shards >= 1, "a fleet needs at least one shard");
    assert!(cfg.base.conns >= 1, "a fleet needs connections to route");
    for &(s, f) in &cfg.degraded {
        assert!(s < cfg.shards, "degraded shard {s} out of range");
        assert!(
            f.is_finite() && f > 0.0,
            "degradation factor must be positive"
        );
    }
    assert!(cfg.fanout >= 1, "fan-out must be at least 1");
    assert!(
        cfg.fanout <= cfg.shards,
        "fan-out {} exceeds {} shards (replica sets are distinct)",
        cfg.fanout,
        cfg.shards
    );
    assert!(
        cfg.fanout == 1 || cfg.loss.is_none(),
        "scatter-gather is incompatible with shard loss: a lost shard \
         strands every replica set that includes it"
    );
    if let Some((l, at)) = cfg.loss {
        assert!(l < cfg.shards, "lost shard {l} out of range");
        assert!(cfg.shards >= 2, "losing the only shard ends the fleet");
        assert!(at.is_finite() && at > 0.0, "loss time must be positive");
        assert!(
            matches!(cfg.base.arrivals, ArrivalSpec::Poisson),
            "shard loss rewires survivor arrivals as phases and needs \
             Poisson base arrivals"
        );
    }

    // The differential wire: one shard, nothing injected — the base
    // world verbatim, so aggregation is the only fleet code in the loop.
    if cfg.shards == 1 && cfg.degraded.is_empty() && cfg.loss.is_none() {
        return FleetPlan {
            configs: vec![Some(cfg.base.clone())],
            assigned: vec![cfg.base.conns],
            moved: 0,
        };
    }

    let conns = cfg.base.conns as usize;
    let mut bal = Balancer::new(cfg.routing, cfg.shards, cfg.base.seed);
    for &(s, f) in &cfg.degraded {
        bal.set_capacity(s, 1.0 / f);
    }
    // With fan-out M each connection claims a replica *set* of M distinct
    // shards; `pre` counts substream slots per shard (M slots per
    // connection, one with plain routing), and every shard's arrival
    // share is its slot share of `conns × M` total slots.
    let slots = conns * cfg.fanout;
    let mut map = Vec::new();
    let mut pre = vec![0u32; cfg.shards];
    if cfg.fanout == 1 {
        map = bal.assign(conns);
        for &s in &map {
            pre[s as usize] += 1;
        }
    } else {
        for c in 0..conns {
            for s in bal.route_multi(conn_key(cfg.base.seed, c), cfg.fanout) {
                pre[s] += 1;
            }
        }
    }
    let (post, moved) = match cfg.loss {
        Some((l, _)) => {
            let moved = bal.lose_shard(l, &mut map) as u64;
            let mut post = vec![0u32; cfg.shards];
            for &s in &map {
                post[s as usize] += 1;
            }
            (post, moved)
        }
        None => (pre.clone(), 0),
    };

    let fleet_rate = cfg.fleet_rate_per_us();
    let mean_us = cfg.base.service.mean_us();
    let configs = (0..cfg.shards)
        .map(|i| {
            let factor = cfg.factor(i);
            let lost_here = cfg.loss.map(|(l, _)| l == i).unwrap_or(false);
            let (n_pre, n_post) = (pre[i] as f64, post[i] as f64);
            if pre[i] == 0 {
                return None; // Never offered traffic: nothing to run.
            }
            let mut shard = cfg.base.clone();
            shard.seed = cfg
                .base
                .seed
                .wrapping_add((i as u64).wrapping_mul(FLEET_SEED_STRIDE));
            shard.service = cfg.base.service.scaled(factor);
            if let (AdmissionTopology::FleetWide, Some(pool)) = (cfg.admission, cfg.base.admission)
            {
                shard.admission = Some(pool.split(cfg.shards));
            }
            if let Some(t) = &mut shard.telemetry {
                // Series only: lifecycle correlation keys collide across
                // shards, so fleet worlds never trace.
                t.trace = false;
                if t.is_off() {
                    shard.telemetry = None;
                }
            }
            let share_pre = n_pre / slots as f64;
            // `load` is calibrated so the shard's arrival rate is its
            // connection share of the fleet rate *at its scaled service
            // cost*: λ_i = load_i · cores / (mean · f) must equal
            // share · λ_fleet, hence the `factor` term — degradation
            // slows serving, never arrivals.
            let load_for = |rate: f64| rate * mean_us * factor / cfg.base.cores as f64;
            match cfg.loss {
                Some((_, at_us)) if lost_here => {
                    shard.conns = pre[i];
                    shard.load = load_for(share_pre * fleet_rate);
                    // Drain before the loss: target the completions the
                    // shard can plausibly reach by t_loss at its offered
                    // rate, halved for shedding/queueing headroom.
                    let cap = (share_pre * fleet_rate * at_us * 0.5) as u64;
                    if cap < 2 {
                        return None; // Lost too early to measure anything.
                    }
                    let warm = ((cfg.base.warmup as f64 * share_pre).round() as u64).min(cap / 2);
                    shard.warmup = warm;
                    shard.requests = (cap - warm).max(1);
                    Some(shard)
                }
                Some((_, at_us)) => {
                    // Survivor: pre-loss rate for t_loss, post-remap rate
                    // after. Factors are exact — the load knob carries the
                    // phase-weighted mean rate, so normalization cancels.
                    let r_pre = share_pre * fleet_rate;
                    let r_post = (n_post / conns as f64) * fleet_rate;
                    shard.conns = post[i];
                    let share_post = n_post / conns as f64;
                    shard.requests =
                        ((cfg.base.requests as f64 * share_post).round() as u64).max(1);
                    shard.warmup = (cfg.base.warmup as f64 * share_post).round() as u64;
                    if r_post != r_pre {
                        // Horizon: generously past the longest plausible
                        // run so the phase cycle never wraps.
                        let est_us = (shard.requests + shard.warmup) as f64 / r_pre.min(r_post);
                        let horizon = 8.0 * est_us + at_us;
                        let m = (r_pre * at_us + r_post * horizon) / (at_us + horizon);
                        shard.load = load_for(m);
                        shard.arrivals = ArrivalSpec::Phased(vec![
                            Phase {
                                duration_us: at_us,
                                rate_factor: r_pre / m,
                            },
                            Phase {
                                duration_us: horizon,
                                rate_factor: r_post / m,
                            },
                        ]);
                    } else {
                        shard.load = load_for(r_pre);
                    }
                    Some(shard)
                }
                None => {
                    shard.conns = pre[i];
                    shard.load = load_for(share_pre * fleet_rate);
                    // Completion windows are user-request counts at the
                    // fleet level; each user request is `fanout`
                    // sub-requests, split by slot share.
                    let sub_share = cfg.fanout as f64 * share_pre;
                    shard.requests = ((cfg.base.requests as f64 * sub_share).round() as u64).max(1);
                    shard.warmup = (cfg.base.warmup as f64 * sub_share).round() as u64;
                    Some(shard)
                }
            }
        })
        .collect();

    FleetPlan {
        configs,
        assigned: pre,
        moved,
    }
}

/// Runs a fleet with one worker thread per available core.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutput {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_fleet_threads(cfg, threads)
}

/// Runs a fleet on `threads` workers (1 = fully sequential), reassembling
/// shard outputs in shard-index order. The result is bit-identical for
/// any thread count: shards share nothing and each lands in its own slot.
pub fn run_fleet_threads(cfg: &FleetConfig, threads: usize) -> FleetOutput {
    let plan = plan_fleet(cfg);
    let n = plan.configs.len();
    let threads = threads.clamp(1, n.max(1));
    let mut outs: Vec<Option<SysOutput>> = Vec::with_capacity(n);
    if threads == 1 {
        for c in &plan.configs {
            outs.push(c.as_ref().map(run_system));
        }
    } else {
        let slots: Vec<Mutex<Option<SysOutput>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if let Some(c) = &plan.configs[i] {
                        let out = run_system(c);
                        *slots[i].lock().expect("fleet slot poisoned") = Some(out);
                    }
                });
            }
        });
        for slot in slots {
            outs.push(slot.into_inner().expect("fleet slot poisoned"));
        }
    }

    let shards: Vec<SysOutput> = outs
        .into_iter()
        .map(|o| o.unwrap_or_else(|| idle_output(&cfg.base)))
        .collect();
    let mut latency = LatencyHistogram::new();
    for s in &shards {
        latency.merge(&s.latency);
    }
    let telemetry = if cfg.base.telemetry.is_some() {
        let mut merged = TelemetryOut::default();
        for (i, s) in shards.iter().enumerate() {
            if let Some(t) = &s.telemetry {
                let mut t = t.clone();
                t.namespace_series(&format!("shard{i}/"));
                merged.series.extend(t.series);
                merged.dropped += t.dropped;
            }
        }
        Some(merged)
    } else {
        None
    };
    FleetOutput {
        shards,
        assigned: plan.assigned,
        moved: plan.moved,
        fanout: cfg.fanout,
        latency,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use zygos_sim::dist::ServiceDist;

    fn small_base(load: f64) -> SysConfig {
        let mut cfg = SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), load);
        cfg.cores = 4;
        cfg.conns = 64;
        cfg.requests = 2_000;
        cfg.warmup = 400;
        cfg.seed = 0xF1EE7;
        cfg
    }

    #[test]
    fn single_shard_pass_through_is_the_base_world() {
        let base = small_base(0.6);
        let fleet = FleetConfig::new(base.clone(), 1, RoutePolicy::PassThrough);
        let f = run_fleet_threads(&fleet, 1);
        let s = run_system(&base);
        assert_eq!(f.shards.len(), 1);
        assert_eq!(f.shards[0].completed, s.completed);
        assert_eq!(f.shards[0].events, s.events);
        assert_eq!(f.p99_us().to_bits(), s.p99_us().to_bits());
        assert_eq!(f.throughput_mrps().to_bits(), s.throughput_mrps().to_bits());
    }

    #[test]
    fn parallel_and_sequential_fleets_agree_bitwise() {
        let mut fleet = FleetConfig::new(small_base(0.7), 4, RoutePolicy::ConsistentHash);
        fleet.degraded = vec![(1, 2.0)];
        let a = run_fleet_threads(&fleet, 1);
        let b = run_fleet_threads(&fleet, 4);
        assert_eq!(a.generated(), b.generated());
        assert_eq!(a.completed_total(), b.completed_total());
        assert_eq!(a.p99_us().to_bits(), b.p99_us().to_bits());
        assert_eq!(a.throughput_mrps().to_bits(), b.throughput_mrps().to_bits());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.events, y.events);
            assert_eq!(x.generated, y.generated);
        }
    }

    #[test]
    fn conservation_holds_at_drain() {
        let mut fleet = FleetConfig::new(small_base(0.8), 3, RoutePolicy::LeastLoaded);
        fleet.base.admission = Some(zygos_sched::CreditConfig::for_cores(4, 60.0));
        let out = run_fleet_threads(&fleet, 2);
        assert_eq!(
            out.generated() as i64,
            out.completed_total() as i64 + out.rejected() as i64 + out.in_flight()
        );
        assert!(out.in_flight() >= 0, "in_flight = {}", out.in_flight());
        let total: u32 = out.assigned.iter().sum();
        assert_eq!(total, fleet.base.conns);
    }

    #[test]
    fn scatter_gather_amplifies_the_tail_with_fanout() {
        // Same sub-request load, same shards, balanced routing (so every
        // shard runs at the same load in both worlds): the only
        // difference is that a user request waits for the max of 4
        // sub-requests instead of 1, so the user p99 must grow.
        let base = small_base(0.6);
        let mut m1 = FleetConfig::new(base.clone(), 8, RoutePolicy::LeastLoaded);
        m1.base.conns = 128;
        let mut m4 = m1.clone();
        m4.fanout = 4;
        let a = run_fleet_threads(&m1, 2);
        let b = run_fleet_threads(&m4, 2);
        assert_eq!(a.fanout, 1);
        assert_eq!(b.fanout, 4);
        assert_eq!(b.assigned.iter().sum::<u32>(), 128 * 4);
        assert!(
            b.p99_us() > a.p99_us(),
            "fan-out 4 p99 {} must exceed fan-out 1 p99 {}",
            b.p99_us(),
            a.p99_us()
        );
        // User throughput is sub-request throughput over M: with the same
        // sub-request load it lands near the fan-out-1 rate over 4.
        let ratio = b.throughput_mrps() / a.throughput_mrps();
        assert!(
            (0.15..0.45).contains(&ratio),
            "user throughput ratio {ratio} should sit near 1/4"
        );
    }

    #[test]
    fn scatter_gather_of_one_changes_nothing() {
        // fanout = 1 must lower through the exact same code path bits as
        // the un-fanned fleet: the knob's default is free.
        let mut fleet = FleetConfig::new(small_base(0.7), 4, RoutePolicy::PowerOfTwoChoices);
        fleet.degraded = vec![(2, 1.5)];
        let a = run_fleet_threads(&fleet, 1);
        fleet.fanout = 1;
        let b = run_fleet_threads(&fleet, 1);
        assert_eq!(a.p99_us().to_bits(), b.p99_us().to_bits());
        assert_eq!(a.throughput_mrps().to_bits(), b.throughput_mrps().to_bits());
        assert_eq!(a.generated(), b.generated());
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn fanout_beyond_the_shard_count_is_rejected() {
        let mut fleet = FleetConfig::new(small_base(0.5), 2, RoutePolicy::ConsistentHash);
        fleet.fanout = 3;
        run_fleet_threads(&fleet, 1);
    }

    #[test]
    #[should_panic(expected = "incompatible with shard loss")]
    fn fanout_with_loss_is_rejected() {
        let mut fleet = FleetConfig::new(small_base(0.5), 4, RoutePolicy::ConsistentHash);
        fleet.fanout = 2;
        fleet.loss = Some((1, 2_000.0));
        run_fleet_threads(&fleet, 1);
    }

    #[test]
    fn retry_conservation_holds_fleet_wide() {
        // Retrying shards under fleet-wide credits: the retry-extended
        // identity must close through the fleet reductions.
        let mut fleet = FleetConfig::new(small_base(1.2), 3, RoutePolicy::LeastLoaded);
        fleet.base.admission = Some(zygos_sched::CreditConfig::for_cores(4, 60.0));
        fleet.admission = AdmissionTopology::FleetWide;
        fleet.base.retry = Some(zygos_load::retry::RetryPolicy::Backoff {
            base_us: 30,
            factor: 2.0,
            max_attempts: 3,
        });
        let out = run_fleet_threads(&fleet, 2);
        assert!(out.retries() > 0, "overload with backoff must retry");
        assert!(out.give_ups() > 0, "capped backoff must abandon some");
        assert_eq!(
            out.generated() as i64 + out.retries() as i64,
            out.completed_total() as i64 + out.rejected() as i64 + out.in_flight()
        );
        assert!(out.in_flight() >= 0, "in_flight = {}", out.in_flight());
    }

    #[test]
    fn shard_loss_shifts_load_to_survivors() {
        let mut fleet = FleetConfig::new(small_base(0.5), 3, RoutePolicy::ConsistentHash);
        fleet.loss = Some((2, 2_000.0));
        let out = run_fleet_threads(&fleet, 2);
        assert!(out.moved > 0, "loss must remap connections");
        assert_eq!(out.assigned.iter().sum::<u32>(), fleet.base.conns);
        // The lost shard drains early: far fewer completions than the
        // survivors.
        assert!(out.shards[2].completed_total < out.shards[0].completed_total);
    }
}
