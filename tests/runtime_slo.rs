//! The end-to-end SLO loop in the **live runtime**: ingress-stamped
//! sojourns → per-tenant windows → worker 0's control tick → the same
//! `SloController` object the simulator drives.
//!
//! The headline acceptance test induces a latency step (the handler
//! suddenly becomes 10× slower than the SLO bound) at *low utilization*
//! — a regime where the PR-1 utilization rule would never grant (busy ≈ 1
//! of 4 cores, no backlog) — and asserts the fleet staffs back up anyway:
//! only the measured p99-vs-bound ratio can be driving it, i.e. the PR-2
//! `slo_ratio: None` stub is demonstrably gone. A companion test runs the
//! simulator's elastic model through the same shape of experiment to pin
//! that both hosts react the same way through the shared policy object.
//!
//! Timing notes: these tests run a real multithreaded server on a shared
//! (possibly 1-CPU) host, so every bound is directional with generous
//! deadlines — they assert *reaction*, never absolute latencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos::load::slo::{Slo, TenantSlos};
use zygos::net::flow::ConnId;
use zygos::net::packet::RpcMessage;
use zygos::runtime::{RuntimeConfig, Server};
use zygos::sim::dist::ServiceDist;
use zygos::sysim::{run_system, SysConfig, SystemKind};

/// The SLO bound the live test staffs against (µs).
const BOUND_US: f64 = 200.0;

/// Drives one closed-loop request and waits for its response.
fn roundtrip(client: &zygos::runtime::ClientPort, conn: u32, id: u64) {
    client.send(ConnId(conn), &RpcMessage::new(1, id, Bytes::new()));
    client
        .recv_timeout(Duration::from_secs(30))
        .expect("response");
}

#[test]
fn slo_controller_staffs_up_on_an_induced_latency_step() {
    // Handler delay is adjustable at runtime: the latency step. Zero in the
    // healthy phase: a 20µs `sleep` takes 70–300µs on a shared 2-vCPU
    // host, which alone breached the 200µs bound often enough that phase 1
    // never saw a ratio below 1.
    let delay_us = Arc::new(AtomicU64::new(0));
    let handler_delay = Arc::clone(&delay_us);
    let app = move |_c: ConnId, req: &RpcMessage| {
        let d = handler_delay.load(Ordering::Relaxed);
        if d > 0 {
            std::thread::sleep(Duration::from_micros(d));
        }
        RpcMessage::new(0, req.header.req_id, Bytes::new())
    };
    let cfg = RuntimeConfig::elastic(4, 16).with_slo(TenantSlos::uniform(Slo::p99(BOUND_US)));
    let (server, client) = Server::start(cfg, Arc::new(app));
    assert_eq!(server.active_cores(), Some(4), "starts fully granted");

    // Phase 1 — healthy: fast handler, light closed-loop trickle. The
    // margin is wide, so the controller parks toward the floor. Phase 1
    // ends once a window has measured that margin (a published ratio
    // below 1) *and* the controller has parked. The park alone is not
    // enough: a window publishes a ratio only once it holds
    // `MIN_WINDOW_SAMPLES` samples, this trickle sends about one request
    // per 1 ms control tick, and the utilization rule can park before the
    // first ratio exists.
    let mut id = 0u64;
    let mut margin_measured = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    let parked_at = loop {
        roundtrip(&client, (id % 16) as u32, id);
        id += 1;
        std::thread::sleep(Duration::from_millis(1));
        margin_measured |= server.slo_ratio().is_some_and(|r| r < 1.0);
        let active = server.active_cores().expect("elastic gauge");
        if margin_measured && active < 4 {
            break active;
        }
        assert!(
            Instant::now() < deadline,
            "controller never parked under a measured wide margin \
             (margin measured: {margin_measured}, active = {active})"
        );
    };
    assert!(parked_at < 4);

    // Phase 2 — the step: the handler becomes 10× slower than the bound.
    // Utilization stays low (one request in flight, no backlog), so the
    // utilization rule would hold parked; the measured ratio must grant.
    delay_us.store((BOUND_US * 10.0) as u64, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        roundtrip(&client, (id % 16) as u32, id);
        id += 1;
        let active = server.active_cores().expect("elastic gauge");
        if active == 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SLO breach never staffed the fleet back up (active = {active})"
        );
    }
    let ratio = server
        .slo_ratio()
        .expect("a measured ratio must be published");
    assert!(
        ratio > 1.0,
        "the published ratio must show the breach: {ratio}"
    );

    // The registry holds the whole staffing-signal *trajectory*, not a
    // read-once gauge: the ratio series must show both regimes (healthy
    // margin below 1, breach above 1), and the active-core series must
    // record the park and the re-staff the gauges above only implied.
    let ratio_series = server
        .metric_series("slo_ratio")
        .expect("slo controller registers its series");
    assert!(
        ratio_series.points.iter().any(|&(_, r)| r < 1.0),
        "phase 1's healthy margin must be in the trajectory"
    );
    assert!(
        ratio_series.points.iter().any(|&(_, r)| r > 1.0),
        "phase 2's breach must be in the trajectory"
    );
    let active_series = server
        .metric_series("active_cores")
        .expect("elastic mode registers its series");
    assert!(
        active_series.points.iter().any(|&(_, a)| a < 4.0),
        "the park must be in the trajectory"
    );
    assert_eq!(
        active_series.last(),
        Some(4.0),
        "the re-staffed fleet is the latest point"
    );
    // Reading twice returns the same snapshot — the fix over the old
    // harvest-and-clear behavior.
    let again = server.metric_series("slo_ratio").expect("still there");
    assert!(again.points.len() >= ratio_series.points.len());
    server.shutdown();
}

#[test]
fn simulator_elastic_reacts_to_the_same_slo_signal_shape() {
    // The simulator-side mirror of the test above, through the same
    // SloController: at identical low load, a tight SLO holds more cores
    // granted than no SLO at all. (Deterministic, exact regression.)
    let mut cfg = SysConfig::paper(
        SystemKind::Elastic { min_cores: 2 },
        ServiceDist::exponential_us(10.0),
        0.2,
    );
    cfg.requests = 20_000;
    cfg.warmup = 4_000;
    cfg.slo = Some(TenantSlos::uniform(Slo::p99(55.0))); // barely above the no-load p99
    let strict = run_system(&cfg);
    cfg.slo = None;
    let unconstrained = run_system(&cfg);
    assert!(
        strict.avg_active_cores > unconstrained.avg_active_cores,
        "measured SLO pressure must hold cores: {:.2} vs {:.2}",
        strict.avg_active_cores,
        unconstrained.avg_active_cores
    );
}

#[test]
fn slo_driven_admission_tracks_the_tenant_bound_not_a_constant() {
    // Two runtimes differing only in their SLO bound, same slow handler,
    // same burst: the tighter bound must shed more — per-tenant targets,
    // not a fixed µs constant, are driving the AIMD.
    let run_with_bound = |bound_us: f64| {
        let slow = |_c: ConnId, req: &RpcMessage| {
            std::thread::sleep(Duration::from_micros(300));
            RpcMessage::new(0, req.header.req_id, Bytes::new())
        };
        let cfg = RuntimeConfig::zygos(2, 16)
            .with_admission(zygos::sched::CreditConfig {
                min_credits: 2,
                max_credits: 256,
                initial_credits: 64,
                additive: 4,
                md_factor: 0.3,
                target: 1.0, // Ratio-space: per-class targets come from the SLO.
            })
            .with_slo(TenantSlos::uniform(Slo::p99(bound_us)));
        let (server, client) = Server::start(cfg, Arc::new(slow));
        let n = 3_000u64;
        for id in 0..n {
            client.send(
                ConnId((id % 16) as u32),
                &RpcMessage::new(1, id, Bytes::new()),
            );
        }
        for _ in 0..n {
            client
                .recv_timeout(Duration::from_secs(30))
                .expect("answered");
        }
        let (_, rejected, _) = server.admission_stats().expect("gate armed");
        server.shutdown();
        rejected
    };
    // 300µs sojourns: far past a 100µs bound, comfortably inside 100ms.
    let strict_sheds = run_with_bound(100.0);
    let loose_sheds = run_with_bound(100_000.0);
    assert!(
        strict_sheds > loose_sheds,
        "tight bound must shed more: strict {strict_sheds} vs loose {loose_sheds}"
    );
}
