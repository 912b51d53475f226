//! Open-loop client source and completion recording.
//!
//! The clients approximate mutilate's open-loop mode (§3.1): request
//! arrivals form a Poisson process; each request is issued on a uniformly
//! random connection out of the configured 2752. Connections are mapped to
//! home cores by the *real* RSS implementation (`zygos-net`), i.e. the same
//! Toeplitz hash + indirection table a multi-queue NIC would apply.

use zygos_load::source::Arrivals;
use zygos_net::flow::FiveTuple;
use zygos_net::rss::Rss;
use zygos_sim::dist::ServiceDist;
use zygos_sim::rng::Xoshiro256;
use zygos_sim::stats::LatencyHistogram;
use zygos_sim::time::{SimDuration, SimTime};

use crate::config::SysConfig;

/// One in-flight request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// Connection index.
    pub conn: u32,
    /// Monotonic request sequence number (generation order) — the
    /// telemetry plane's correlation key and sampling gate. Stamped from
    /// a counter, never an RNG, so tracing cannot perturb the workload.
    pub seq: u32,
    /// Home core of the connection (RSS).
    pub home: u16,
    /// Client send timestamp.
    pub send: SimTime,
    /// Sampled application service time.
    pub service: SimDuration,
}

/// The open-loop request source. Gap generation is delegated to the
/// configured [`zygos_load::source::ArrivalSpec`] (Poisson by default;
/// phases or trace replay modulate the instantaneous rate while keeping
/// the long-run mean at `cfg.lambda_per_us()`).
///
/// `Clone` duplicates the full client state — RNG position, sequence
/// counter, arrival-process cursor — so a cloned source emits exactly the
/// request stream the original would have (the checkpoint plane's
/// exact-resume guarantee; see `docs/TAIL.md`).
#[derive(Clone)]
pub struct Source {
    rng: Xoshiro256,
    conn_home: Vec<u16>,
    service: ServiceDist,
    arrivals: Arrivals,
    next_seq: u32,
    /// `next_seq` when the current measurement run began (rebased at a
    /// warm-start splice).
    first_seq: u32,
    /// One-way wire latency (half the configured RTT).
    pub half_rtt: SimDuration,
}

impl Source {
    /// Builds the source (and the RSS connection→core map) for a config.
    pub fn new(cfg: &SysConfig) -> Self {
        let rss = Rss::new(cfg.cores);
        let conn_home = (0..cfg.conns)
            .map(|i| rss.queue_for(&FiveTuple::synthetic(i)) as u16)
            .collect();
        Source {
            rng: Xoshiro256::new(cfg.seed),
            conn_home,
            service: cfg.service.clone(),
            arrivals: cfg.arrivals.source(cfg.lambda_per_us()),
            next_seq: 0,
            first_seq: 0,
            half_rtt: SimDuration::from_nanos(cfg.cost.network_rtt_ns / 2),
        }
    }

    /// Re-rates a converged source for a warm-started neighbor run: the
    /// arrival process is rebuilt at `cfg`'s offered load while the RNG
    /// position, RSS map, and sequence counter carry over, and
    /// [`Source::emitted`] counts from zero again. A memoryless (Poisson)
    /// process has no cursor to lose; phased/trace processes restart their
    /// schedule exactly as a cold run at the new load would.
    pub fn retarget(&mut self, cfg: &SysConfig) {
        self.service = cfg.service.clone();
        self.arrivals = cfg.arrivals.source(cfg.lambda_per_us());
        self.first_seq = self.next_seq;
    }

    /// Home core of connection `conn`.
    pub fn home_of(&self, conn: u32) -> u16 {
        self.conn_home[conn as usize]
    }

    /// Time until the next arrival.
    pub fn next_gap(&mut self) -> SimDuration {
        SimDuration::from_micros_f64(self.arrivals.next_gap_us(&mut self.rng))
    }

    /// Generates the next request, stamped with send time `now`.
    pub fn next_req(&mut self, now: SimTime) -> Req {
        let conn = self.rng.next_bounded(self.conn_home.len() as u64) as u32;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        Req {
            conn,
            seq,
            home: self.conn_home[conn as usize],
            send: now,
            service: self.service.sample(&mut self.rng),
        }
    }

    /// Requests emitted by [`Source::next_req`] in the current measurement
    /// run — the `generated` side of the conservation identity.
    pub fn emitted(&self) -> u64 {
        self.next_seq.wrapping_sub(self.first_seq) as u64
    }
}

/// Completion recorder with warmup handling and a measurement window.
#[derive(Clone)]
pub struct Recorder {
    /// End-to-end latency histogram (measured completions only).
    pub latency: LatencyHistogram,
    half_rtt: SimDuration,
    completed: u64,
    warmup: u64,
    target: u64,
    meas_start: SimTime,
    meas_end: SimTime,
    done: bool,
}

impl Recorder {
    /// Creates a recorder for `cfg`.
    pub fn new(cfg: &SysConfig, half_rtt: SimDuration) -> Self {
        Recorder::warm(cfg.requests, cfg.warmup, half_rtt, SimTime::ZERO)
    }

    /// Creates a recorder whose measurement window opens no earlier than
    /// `start` — the warm-start splice point. A cold run passes
    /// [`SimTime::ZERO`]; a warm-started run passes the checkpoint time so
    /// a zero-warmup window cannot reach back before the splice.
    pub fn warm(target: u64, warmup: u64, half_rtt: SimDuration, start: SimTime) -> Self {
        Recorder {
            latency: LatencyHistogram::new(),
            half_rtt,
            completed: 0,
            warmup,
            target,
            meas_start: start,
            meas_end: start,
            done: false,
        }
    }

    /// Records that `req`'s response left the server at `tx_time`.
    ///
    /// The client observes it half an RTT later. Returns `true` when the
    /// completion landed in the measurement window (i.e. the latency
    /// histogram recorded it) — the telemetry plane uses this to trace
    /// exactly the histogram's population, no more, no less.
    pub fn complete(&mut self, req: &Req, tx_time: SimTime) -> bool {
        if self.done {
            return false;
        }
        self.completed += 1;
        if self.completed == self.warmup {
            self.meas_start = tx_time;
        }
        if self.completed > self.warmup {
            let client_rx = tx_time + self.half_rtt;
            self.latency.record(client_rx.duration_since(req.send));
            if self.completed - self.warmup >= self.target {
                self.done = true;
                self.meas_end = tx_time;
            }
            return true;
        }
        false
    }

    /// True once the target completion count is reached.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True once warmup has completed and the measurement window is open.
    pub fn measurement_started(&self) -> bool {
        self.completed >= self.warmup
    }

    /// Measured completions (excluding warmup).
    pub fn measured(&self) -> u64 {
        self.completed.saturating_sub(self.warmup)
    }

    /// All completions, warmup included — the `completed_total` side of
    /// the conservation identity.
    pub fn completed_total(&self) -> u64 {
        self.completed
    }

    /// Length of the measurement window in microseconds.
    pub fn window_us(&self) -> f64 {
        self.meas_end
            .duration_since(self.meas_start)
            .as_micros_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SysConfig, SystemKind};

    fn cfg() -> SysConfig {
        SysConfig::paper(SystemKind::Zygos, ServiceDist::exponential_us(10.0), 0.5)
    }

    #[test]
    fn rss_maps_all_cores() {
        let s = Source::new(&cfg());
        let homes: std::collections::HashSet<u16> = (0..2752).map(|c| s.home_of(c)).collect();
        assert_eq!(homes.len(), 16, "all 16 cores should own flow groups");
    }

    #[test]
    fn arrival_rate_matches_load() {
        let c = cfg();
        let mut s = Source::new(&c);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| s.next_gap().as_micros_f64()).sum();
        let rate = n as f64 / total;
        // load 0.5 × 16 cores / 10µs = 0.8 req/µs.
        assert!((rate - 0.8).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn recorder_warmup_and_window() {
        let c = SysConfig {
            warmup: 2,
            requests: 3,
            ..cfg()
        };
        let mut r = Recorder::new(&c, SimDuration::from_micros(2));
        let req = Req {
            conn: 0,
            seq: 0,
            home: 0,
            send: SimTime::ZERO,
            service: SimDuration::from_micros(1),
        };
        for i in 1..=5u64 {
            assert!(!r.is_done());
            r.complete(&req, SimTime::from_micros(10 * i));
        }
        assert!(r.is_done());
        assert_eq!(r.measured(), 3);
        assert_eq!(r.latency.count(), 3);
        // Window spans completion 2 (warmup end) to completion 5.
        assert!((r.window_us() - 30.0).abs() < 1e-9);
        // Latency includes the return half-RTT: 30µs + 2µs for the 3rd.
        assert_eq!(r.latency.min_nanos(), 32_000);
    }

    #[test]
    fn recorder_ignores_after_done() {
        let c = SysConfig {
            warmup: 0,
            requests: 1,
            ..cfg()
        };
        let mut r = Recorder::new(&c, SimDuration::ZERO);
        let req = Req {
            conn: 0,
            seq: 0,
            home: 0,
            send: SimTime::ZERO,
            service: SimDuration::from_micros(1),
        };
        r.complete(&req, SimTime::from_micros(1));
        r.complete(&req, SimTime::from_micros(2));
        assert_eq!(r.latency.count(), 1);
    }
}
