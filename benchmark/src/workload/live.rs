//! `live-echo`, `live-steal`: the live work-stealing runtime under a
//! closed-loop client.
//!
//! One client thread keeps eight RPCs outstanding, round-robin over
//! sixteen connections, and blocks in `recv_timeout` between them. The
//! loop is closed on purpose: beside two workers on a two-vCPU machine,
//! an open-loop generator that spins to keep its schedule measures the
//! hypervisor's scheduler, not the runtime (README.md has the numbers).
//! Open-loop arrivals are exercised in simulated time by `sim-*`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos_core::stats::StatsSnapshot;
use zygos_net::flow::ConnId;
use zygos_net::packet::RpcMessage;
use zygos_runtime::app::{EchoApp, SpinApp};
use zygos_runtime::server::REJECT_OPCODE;
use zygos_runtime::{ClientPort, RpcApp, RuntimeConfig, Server};
use zygos_sim::dist::ServiceDist;
use zygos_sim::rng::Xoshiro256;

use super::{UnitOutcome, Workload};
use crate::est::percentile_sorted;
use crate::span::Spans;

pub const WORKERS: usize = 2;
pub const SERVER_CONNS: u32 = 64;
/// Connections the client uses.
pub const CLIENT_CONNS: usize = 16;
/// RPCs the client keeps in flight.
pub const OUTSTANDING: usize = 8;
/// An RPC not answered within this long has failed.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(1);
/// Every this-many-th send and wait is recorded as a span.
const SPAN_EVERY: usize = 64;
const OPCODE: u16 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Echo,
    Steal,
}

pub struct Live {
    kind: Kind,
    server: Option<Server>,
    client: ClientPort,
    conns: Vec<ConnId>,
    /// Request bodies: one per connection (echo) or one per RPC of a
    /// unit (steal: the pre-sampled service time).
    bodies: Vec<Bytes>,
    rpcs_per_unit: usize,
    next_req_id: u64,
    origin: Instant,
    // Per-unit scratch, kept to avoid re-allocating on the measured path.
    sent_at_ns: Vec<u64>,
    answered: Vec<bool>,
    rtt_ns: Vec<u32>,
}

impl Live {
    /// Smallest-message case: 64-byte bodies echoed back, so rings,
    /// framing, the shuffle layer's local path and wake-ups are nearly
    /// all of the time.
    pub fn echo(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256::new(seed);
        let bodies = (0..CLIENT_CONNS)
            .map(|_| {
                let words: Vec<u8> = (0..8)
                    .flat_map(|_| rng.next_u64_raw().to_le_bytes())
                    .collect();
                Bytes::from(words)
            })
            .collect();
        let conns = |_: &Server| (0..CLIENT_CONNS as u32).map(ConnId).collect();
        Live::start(Kind::Echo, Arc::new(EchoApp), conns, bodies, 40_000)
    }

    /// The paper's mechanism, live: exponential 10 µs service times, and
    /// every connection the client uses is homed on worker 0, so worker 1
    /// works only by stealing.
    pub fn steal(seed: u64) -> Result<Self, String> {
        const RPCS: usize = 20_000;
        let dist = ServiceDist::exponential_us(10.0);
        let mut rng = Xoshiro256::new(seed);
        let bodies = (0..RPCS)
            .map(|_| {
                let ns = (dist.sample_us(&mut rng) * 1e3) as u64;
                Bytes::copy_from_slice(&ns.to_le_bytes())
            })
            .collect();
        let conns = |server: &Server| {
            (0..SERVER_CONNS)
                .map(ConnId)
                .filter(|&c| server.home_of(c) == 0)
                .take(CLIENT_CONNS)
                .collect()
        };
        Live::start(Kind::Steal, Arc::new(SpinApp), conns, bodies, RPCS)
    }

    fn start(
        kind: Kind,
        app: Arc<dyn RpcApp>,
        pick_conns: impl FnOnce(&Server) -> Vec<ConnId>,
        bodies: Vec<Bytes>,
        rpcs_per_unit: usize,
    ) -> Result<Self, String> {
        let (server, client) = Server::start(RuntimeConfig::zygos(WORKERS, SERVER_CONNS), app);
        let conns = pick_conns(&server);
        if conns.len() != CLIENT_CONNS {
            server.shutdown();
            return Err(format!(
                "only {} of {SERVER_CONNS} connections are homed where the workload needs them",
                conns.len()
            ));
        }
        Ok(Live {
            kind,
            server: Some(server),
            client,
            conns,
            bodies,
            rpcs_per_unit,
            next_req_id: 0,
            origin: Instant::now(),
            sent_at_ns: vec![0; rpcs_per_unit],
            answered: vec![false; rpcs_per_unit],
            rtt_ns: Vec::with_capacity(rpcs_per_unit),
        })
    }

    /// The server's scheduling counters since start.
    pub fn stats(&self) -> StatsSnapshot {
        self.server.as_ref().expect("server runs").stats()
    }

    pub fn client(&self) -> &ClientPort {
        &self.client
    }

    pub fn conns(&self) -> &[ConnId] {
        &self.conns
    }

    fn body_of(&self, i: usize) -> &Bytes {
        match self.kind {
            Kind::Echo => &self.bodies[i % CLIENT_CONNS],
            Kind::Steal => &self.bodies[i],
        }
    }

    fn send(&mut self, base: u64, i: usize, spans: &mut Spans) {
        let msg = RpcMessage::new(OPCODE, base + i as u64, self.body_of(i).clone());
        let conn = self.conns[i % CLIENT_CONNS];
        self.sent_at_ns[i] = self.origin.elapsed().as_nanos() as u64;
        if i.is_multiple_of(SPAN_EVERY) {
            spans.scope("runtime.ClientPort.send", |_| self.client.send(conn, &msg));
        } else {
            self.client.send(conn, &msg);
        }
    }

    /// Checks one response against the request it claims to answer.
    fn check(&self, base: u64, conn: ConnId, resp: &RpcMessage) -> Result<usize, String> {
        let id = resp.header.req_id;
        let i = id
            .checked_sub(base)
            .map(|i| i as usize)
            .filter(|&i| i < self.rpcs_per_unit)
            .ok_or_else(|| format!("response carries req_id {id}, not one of this unit's"))?;
        if self.answered[i] {
            return Err(format!("req_id {id} answered twice"));
        }
        if resp.header.opcode == REJECT_OPCODE {
            return Err(format!("req_id {id} was rejected"));
        }
        if resp.header.opcode != OPCODE || conn != self.conns[i % CLIENT_CONNS] {
            return Err(format!(
                "req_id {id} answered with the wrong opcode or connection"
            ));
        }
        let body_ok = match self.kind {
            Kind::Echo => resp.body == *self.body_of(i),
            Kind::Steal => resp.body.is_empty(),
        };
        if !body_ok {
            return Err(format!("req_id {id} answered with the wrong body"));
        }
        Ok(i)
    }
}

impl Workload for Live {
    fn ops_per_unit(&self) -> u64 {
        self.rpcs_per_unit as u64
    }

    fn unit(&mut self, spans: &mut Spans) -> UnitOutcome {
        let n = self.rpcs_per_unit;
        let base = self.next_req_id;
        self.next_req_id += n as u64;
        self.answered.fill(false);
        self.rtt_ns.clear();
        let mut errors = Vec::new();
        let (mut sent, mut done, mut failed) = (0usize, 0usize, 0usize);
        while sent < OUTSTANDING.min(n) {
            self.send(base, sent, spans);
            sent += 1;
        }
        while done < n {
            let got = if done % SPAN_EVERY == 0 {
                spans.scope("runtime.ClientPort.recv_timeout", |_| {
                    self.client.recv_timeout(RPC_TIMEOUT)
                })
            } else {
                self.client.recv_timeout(RPC_TIMEOUT)
            };
            let now_ns = self.origin.elapsed().as_nanos() as u64;
            let Some((conn, resp)) = got else {
                // Nothing for a second: what is in flight is lost, and the
                // rest of the unit with it.
                failed += n - done;
                errors.push(format!(
                    "no response within {RPC_TIMEOUT:?} with {} RPCs in flight",
                    sent - done
                ));
                break;
            };
            if resp.header.req_id < base {
                continue; // A straggler of a unit that already timed out.
            }
            match self.check(base, conn, &resp) {
                Ok(i) => {
                    self.answered[i] = true;
                    self.rtt_ns.push((now_ns - self.sent_at_ns[i]) as u32);
                }
                Err(e) => {
                    failed += 1;
                    if errors.len() < 8 {
                        errors.push(e);
                    }
                }
            }
            done += 1;
            if sent < n {
                self.send(base, sent, spans);
                sent += 1;
            }
        }
        if self.rtt_ns.is_empty() {
            return UnitOutcome::all_failed(n as u64, errors.join("; "));
        }
        self.rtt_ns.sort_unstable();
        UnitOutcome {
            ops: n as u64,
            failed: failed as u64,
            p50_us: f64::from(percentile_sorted(&self.rtt_ns, 0.5)) / 1e3,
            p99_us: f64::from(percentile_sorted(&self.rtt_ns, 0.99)) / 1e3,
            goodput: (n - failed) as f64 / n as f64,
            digest: None,
            errors,
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
