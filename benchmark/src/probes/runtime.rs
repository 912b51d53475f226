//! `runtime`: start and shutdown, the client's send path, the wake-up
//! path (one RPC in flight), and the scheduling counters of the two live
//! workloads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use zygos_core::stats::StatsSnapshot;
use zygos_net::packet::RpcMessage;
use zygos_runtime::app::EchoApp;
use zygos_runtime::{RuntimeConfig, Server};

use super::{Scale, Values};
use crate::est::median;
use crate::span::Spans;
use crate::workload::live::{Live, RPC_TIMEOUT, SERVER_CONNS, WORKERS};
use crate::workload::Workload;

/// Sends per timed burst: well inside the ingress ring, so `send` never
/// spins on a full ring.
const BURST: usize = 64;

fn per_event(count: u64, stats: &StatsSnapshot) -> f64 {
    count as f64 / stats.total_events().max(1) as f64
}

pub fn probe(seed: u64, scale: Scale, v: &mut Values) -> Result<(), String> {
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let mut no_spans = Spans::new();

    let (mut start_ms, mut shutdown_ms) = (Vec::new(), Vec::new());
    for _ in 0..scale.batches.min(5) {
        let t = Instant::now();
        let (server, client) = Server::start(
            RuntimeConfig::zygos(WORKERS, SERVER_CONNS),
            Arc::new(EchoApp),
        );
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(&client);
        let t = Instant::now();
        server.shutdown();
        shutdown_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put("runtime.start_ms", median(&start_ms));
    put("runtime.shutdown_ms", median(&shutdown_ms));

    let mut echo = Live::echo(seed)?;
    let body = bytes::Bytes::from(vec![0x5A; 64]);
    // Send path: bursts are timed, their responses drained untimed.
    let mut send_ns = Vec::new();
    let mut req_id = u64::MAX / 2; // Clear of the ids the units use.
    let mut lost = 0usize;
    for _ in 0..(scale.batches * scale.calls / BURST / 4).max(4) {
        let t = Instant::now();
        for i in 0..BURST {
            let msg = RpcMessage::new(1, req_id, body.clone());
            echo.client()
                .send(echo.conns()[i % echo.conns().len()], &msg);
            req_id += 1;
        }
        send_ns.push(t.elapsed().as_nanos() as f64 / BURST as f64);
        lost += (0..BURST)
            .filter(|_| echo.client().recv_timeout(RPC_TIMEOUT).is_none())
            .count();
    }
    put("runtime.send_ns", median(&send_ns));
    // One RPC in flight: every request finds its worker parked, so the
    // round trip is the doorbell wake-up plus the response channel.
    let mut rtt_us = Vec::new();
    for _ in 0..(scale.calls / 5).max(100) {
        let msg = RpcMessage::new(1, req_id, body.clone());
        req_id += 1;
        let t = Instant::now();
        echo.client().send(echo.conns()[0], &msg);
        if echo.client().recv_timeout(RPC_TIMEOUT).is_none() {
            lost += 1;
        }
        rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    put("runtime.pingpong_rtt_us", median(&rtt_us));
    if lost > 0 {
        return Err(format!("{lost} probe RPCs were not answered"));
    }

    let before = echo.stats();
    let unit = echo.unit(&mut no_spans);
    let stats = echo.stats();
    drop(echo);
    // Counters of the unit alone: the probes above also ran on this
    // server.
    let delta = |f: fn(&StatsSnapshot) -> u64| f(&stats) - f(&before);
    let events = delta(|s| s.total_events()).max(1) as f64;
    put(
        "runtime.echo.steal_fraction",
        delta(|s| s.stolen_events) as f64 / events,
    );
    put(
        "runtime.echo.ipis_per_event",
        delta(|s| s.ipis_sent) as f64 / events,
    );

    let mut steal = Live::steal(seed)?;
    let unit2 = steal.unit(&mut no_spans);
    let stats = steal.stats();
    drop(steal);
    put("runtime.steal.steal_fraction", stats.steal_fraction());
    put("runtime.steal.ipis_per_event", stats.ipis_per_event());
    put(
        "runtime.steal.failed_steals_per_event",
        per_event(stats.failed_steals, &stats),
    );
    put(
        "runtime.steal.remote_syscalls_per_event",
        per_event(stats.remote_syscalls, &stats),
    );
    match unit.failed + unit2.failed {
        0 => Ok(()),
        n => Err(format!("{n} RPCs of the live probes failed their checks")),
    }
}
