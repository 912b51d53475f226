//! `sim::{engine, stats, dist, queueing}`, `sysim`, `telemetry`.

use std::hint::black_box;

use zygos_load::route::RoutePolicy;
use zygos_sim::dist::ServiceDist;
use zygos_sim::engine::{Engine, EventQueue, HeapQueue, Model, Scheduler, WheelQueue};
use zygos_sim::queueing::{self, Policy, QueueConfig};
use zygos_sim::rng::Xoshiro256;
use zygos_sim::stats::{LatencyHistogram, WindowHistogram};
use zygos_sim::time::{SimDuration, SimTime};
use zygos_sysim::{
    latency_throughput_sweep, latency_throughput_sweep_cold, run_fleet, run_system, FleetConfig,
    SysConfig, SysOutput, SystemKind, TelemetryConfig,
};
use zygos_telemetry::decompose;

use super::{fastest, ns_per_call, Scale, Values};
use crate::workload::sim::{ix_config, linux_config, overload_config, staged_config, steal_config};

/// Events kept pending in the queue probes: the order of the connection
/// count plus per-core timers of a paper-testbed run.
const PENDING: usize = 2_048;
const TABLE: usize = 4_096;

/// Delays in nanoseconds, uniform in `[lo, hi)`.
fn delays(rng: &mut Xoshiro256, lo: u64, hi: u64) -> Vec<u64> {
    (0..TABLE).map(|_| lo + rng.next_bounded(hi - lo)).collect()
}

/// Push + pop on a queue holding [`PENDING`] events: each pop is followed
/// by a push `delay` after the popped time, as a model's handler would.
fn queue_ns_per_event<Q: EventQueue<u64>>(scale: Scale, delays: &[u64]) -> f64 {
    let mut q = Q::default();
    let mut seq = 0u64;
    for (i, d) in delays.iter().take(PENDING).enumerate() {
        q.push(SimTime::from_nanos(*d), seq, i as u64);
        seq += 1;
    }
    ns_per_call(scale, |n| {
        for _ in 0..n {
            let (at, _, ev) = q.pop().expect("queue stays full");
            let d = delays[seq as usize % TABLE];
            q.push(at + SimDuration::from_nanos(d), seq, black_box(ev));
            seq += 1;
        }
    })
}

/// A model whose handler only reschedules its event: `Engine::run` with
/// nothing to do but run.
struct Reschedule {
    delays: Vec<u64>,
    left: u64,
}

impl Model for Reschedule {
    type Event = u64;

    fn handle(&mut self, _now: SimTime, event: u64, sched: &mut Scheduler<u64>) {
        self.left = self.left.saturating_sub(1);
        let d = self.delays[(event as usize + self.left as usize) % TABLE];
        sched.after(SimDuration::from_nanos(d), event);
        if self.left == 0 {
            sched.stop();
        }
    }
}

fn noop_model_ns_per_event(scale: Scale, delays: Vec<u64>) -> f64 {
    let mut engine = Engine::new(Reschedule { delays, left: 0 });
    for i in 0..PENDING as u64 {
        engine.schedule(SimTime::from_nanos(i), i);
    }
    ns_per_call(scale, |n| {
        engine.model_mut().left = n as u64;
        black_box(engine.run());
    })
}

fn shrunk(mut cfg: SysConfig, scale: Scale) -> SysConfig {
    cfg.requests /= scale.shrink;
    cfg.warmup /= scale.shrink;
    cfg
}

/// Fastest of the scale's repetitions of `run_system(cfg)`: nanoseconds
/// of host time per completed request, and the output.
fn run_ns_per_req(cfg: &SysConfig, scale: Scale) -> (f64, SysOutput) {
    let (secs, out) = fastest(scale.reps, || run_system(black_box(cfg)));
    (secs * 1e9 / out.completed_total as f64, out)
}

fn events_per_req(out: &SysOutput) -> f64 {
    out.events as f64 / out.completed_total as f64
}

pub fn probe(seed: u64, scale: Scale, v: &mut Values) {
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let mut rng = Xoshiro256::new(seed);

    // sim::engine — near-horizon delays stay in the wheel's first level;
    // 65 µs–10 ms delays (retry back-offs, control ticks, Linux-scale
    // service) go through level 1 and the overflow list.
    let near = delays(&mut rng, 200, 30_000);
    let far = delays(&mut rng, 65_000, 10_000_000);
    let wheel = queue_ns_per_event::<WheelQueue<u64>>(scale, &near);
    put("sim.engine.wheel_ns_per_event", wheel);
    put(
        "sim.engine.wheel_far_ns_per_event",
        queue_ns_per_event::<WheelQueue<u64>>(scale, &far),
    );
    put(
        "sim.engine.heap_ns_per_event",
        queue_ns_per_event::<HeapQueue<u64>>(scale, &near),
    );
    let noop = noop_model_ns_per_event(scale, near.clone());
    put("sim.engine.noop_model_ns_per_event", noop);

    // sim::stats, sim::dist, sim::queueing.
    let service = ServiceDist::exponential_us(10.0);
    let latencies: Vec<u64> = (0..TABLE)
        .map(|_| (service.sample_us(&mut rng) * 1e3) as u64 + 4_000)
        .collect();
    let mut hist = LatencyHistogram::new();
    let mut i = 0usize;
    let hist_ns = ns_per_call(scale, |n| {
        for _ in 0..n {
            hist.record_nanos(latencies[i % TABLE]);
            i += 1;
        }
        black_box(hist.count());
    });
    put("sim.stats.hist_record_ns", hist_ns);
    // One SLO-window tick as the credit controller does it: a window of
    // samples recorded, its tail read, the window cleared.
    const WINDOW: usize = 256;
    let mut window = WindowHistogram::new();
    let tick_scale = Scale {
        calls: scale.calls / 50 + 1,
        ..scale
    };
    put(
        "sim.stats.window_tick_ns",
        ns_per_call(tick_scale, |n| {
            for _ in 0..n {
                for s in &latencies[..WINDOW] {
                    window.record_nanos(*s);
                }
                black_box(window.value_at_quantile(0.99));
                window.clear();
            }
        }),
    );
    let dist_ns = ns_per_call(scale, |n| {
        for _ in 0..n {
            black_box(service.sample(&mut rng));
        }
    });
    put("sim.dist.sample_ns", dist_ns);
    let mg16 = QueueConfig {
        servers: 16,
        load: 0.8,
        service: service.clone(),
        policy: Policy::CentralFcfs,
        requests: 50_000 / scale.shrink,
        seed,
        warmup: 5_000 / scale.shrink,
    };
    let (secs, _) = fastest(scale.reps, || {
        black_box(queueing::simulate(&mg16)).completed
    });
    put(
        "sim.queueing.mg16_ns_per_req",
        secs * 1e9 / (mg16.requests + mg16.warmup) as f64,
    );

    // load::source belongs to `policy`, but the model's self time below
    // needs the arrival source's cost, so it is measured here.
    let mut source = zygos_sysim::ArrivalSpec::Poisson.source(1.28);
    let source_ns = ns_per_call(scale, |n| {
        for _ in 0..n {
            black_box(source.next_gap_us(&mut rng));
        }
    });
    put("load.source.next_gap_ns", source_ns);

    // sysim: the models, each on its workload's configuration.
    let zygos_cfg = shrunk(steal_config(seed), scale);
    let (zygos_ns, out) = run_ns_per_req(&zygos_cfg, scale);
    let zygos_events = events_per_req(&out);
    put("sysim.zygos.ns_per_req", zygos_ns);
    put("sysim.zygos.events_per_req", zygos_events);
    // What is left for the model's own logic once the engine loop and the
    // per-request recorder, service sample and arrival gap are taken out.
    put(
        "sysim.zygos.self_ns_per_req",
        zygos_ns - zygos_events * noop - hist_ns - dist_ns - source_ns,
    );
    put("sysim.zygos.steal_fraction", out.steal_fraction());
    put(
        "sysim.zygos.ipis_per_req",
        out.ipis as f64 / out.completed as f64,
    );

    let (ns, out) = run_ns_per_req(&shrunk(overload_config(seed), scale), scale);
    put("sysim.overload.ns_per_req", ns);
    put("sysim.overload.events_per_req", events_per_req(&out));
    put("sysim.overload.retries_per_req", out.retry_rate());
    put("sysim.overload.shed_fraction", out.shed_fraction());

    for (name, cfg) in [
        ("ix", ix_config(seed)),
        ("linux", linux_config(seed)),
        ("staged", staged_config(seed)),
    ] {
        let (ns, out) = run_ns_per_req(&shrunk(cfg, scale), scale);
        put(&format!("sysim.{name}.ns_per_req"), ns);
        put(
            &format!("sysim.{name}.events_per_req"),
            events_per_req(&out),
        );
    }

    // Four 4-core shards behind a po2c balancer (the `fleet:*` hot path).
    let mut base = SysConfig::paper(SystemKind::Zygos, service.clone(), 0.75);
    base.cores = 4;
    base.conns = 256;
    base.seed = seed;
    (base.requests, base.warmup) = (120_000 / scale.shrink, 12_000 / scale.shrink);
    let fleet = FleetConfig::new(base, 4, RoutePolicy::PowerOfTwoChoices);
    let (secs, done) = fastest(scale.reps, || {
        run_fleet(black_box(&fleet)).completed_total()
    });
    put("sysim.fleet.ns_per_req", secs * 1e9 / done as f64);

    // Warm-start chains: an ascending grid with a deep warm-up, point by
    // point from an empty system against one checkpoint chain.
    let mut sweep = SysConfig::paper(SystemKind::Zygos, service.clone(), 0.3);
    sweep.seed = seed;
    (sweep.requests, sweep.warmup) = (2_500 / scale.shrink, 30_000 / scale.shrink);
    let loads = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let (cold, _) = fastest(scale.reps, || {
        latency_throughput_sweep_cold(black_box(&sweep), &loads).len()
    });
    let (warm, _) = fastest(scale.reps, || {
        latency_throughput_sweep(black_box(&sweep), &loads).len()
    });
    put("sysim.warm.chain_speedup", cold / warm);

    // telemetry: what full-fidelity lifecycle tracing adds per request,
    // and what decomposing the trace costs per traced request.
    let mut traced_cfg = zygos_cfg.clone();
    traced_cfg.telemetry = Some(TelemetryConfig::full_trace());
    let (traced_ns, out) = run_ns_per_req(&traced_cfg, scale);
    put("telemetry.trace.full_ns_per_req", traced_ns - zygos_ns);
    let events = out.telemetry.map(|t| t.events).unwrap_or_default();
    let (secs, requests) = fastest(scale.reps, || decompose(black_box(&events)).len());
    put(
        "telemetry.decomp.ns_per_req",
        secs * 1e9 / requests.max(1) as f64,
    );
}
