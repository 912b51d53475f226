//! The loopback client port (stands in for the NIC + client cluster).
//!
//! With [`RuntimeConfig::client_credits`](crate::RuntimeConfig) armed, the
//! port also runs the sender side of the Breakwater credit scheme: each
//! connection holds a local credit balance, [`ClientPort::try_send`]
//! refuses to transmit at zero balance (the shed request never touches
//! the wire), and response headers replenish the balance with the grants
//! the server piggybacks on them.
//!
//! With [`RuntimeConfig::credit_overcommit`](crate::RuntimeConfig) also
//! set, the shares are **demand-weighted** (Breakwater's overcommitment):
//! the initial pool is still split evenly, but a connection that finds
//! its balance empty may borrow a credit from a connection with zero
//! demand — one that has never attempted a send — instead of shedding
//! locally. Grants only ride on responses, so without lending the even
//! split permanently strands `pool/conns` credits on every idle
//! connection; under a skewed per-connection load that is most of the
//! pool.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::Receiver;

use zygos_core::doorbell::IpiReason;
use zygos_net::flow::ConnId;
use zygos_net::packet::{Packet, RpcHeader, RpcMessage, RPC_HEADER_LEN};

use crate::server::Shared;

/// Sends request frames into the server's per-core ingress rings (applying
/// the connection's RSS home) and receives response frames.
pub struct ClientPort {
    shared: Arc<Shared>,
    resp_rx: Receiver<(ConnId, Bytes)>,
    /// Sender-side credit balances, one per connection (`None` unless
    /// client-side credits are armed).
    credits: Option<Vec<AtomicU32>>,
    /// Per-connection send attempts — the demand signal for
    /// overcommitment: a connection with zero attempts has zero demand
    /// and may lend its balance.
    attempts: Vec<AtomicU64>,
    /// Rotating lender-scan cursor (spreads borrowing across idle
    /// connections).
    lend_cursor: AtomicUsize,
    /// Requests refused locally by [`ClientPort::try_send`]: sheds that
    /// cost zero wire RTT.
    local_sheds: AtomicU64,
    /// Credits borrowed from zero-demand connections (overcommitment).
    borrowed: AtomicU64,
}

impl ClientPort {
    pub(crate) fn new(shared: Arc<Shared>, resp_rx: Receiver<(ConnId, Bytes)>) -> Self {
        let credits = (shared.cfg.client_credits && shared.cfg.admission.is_some()).then(|| {
            // Split the initial pool across connections; every connection
            // starts with at least one credit so no sender deadlocks
            // before its first grant arrives.
            let initial = shared
                .cfg
                .admission
                .as_ref()
                .map_or(1, |c| c.initial_credits);
            let share = (initial / shared.cfg.conns.max(1)).max(1);
            (0..shared.cfg.conns)
                .map(|_| AtomicU32::new(share))
                .collect()
        });
        // Demand tracking exists only for overcommitment; without it the
        // credited send path stays a single CAS on the own balance.
        let attempts = if credits.is_some() && shared.cfg.credit_overcommit {
            (0..shared.cfg.conns as usize)
                .map(|_| AtomicU64::new(0))
                .collect()
        } else {
            Vec::new()
        };
        ClientPort {
            shared,
            resp_rx,
            credits,
            attempts,
            lend_cursor: AtomicUsize::new(0),
            local_sheds: AtomicU64::new(0),
            borrowed: AtomicU64::new(0),
        }
    }

    /// Number of usable connections.
    pub fn conns(&self) -> u32 {
        self.shared.cfg.conns
    }

    /// `conn`'s current sender-side credit balance (`None` when
    /// client-side credits are off).
    pub fn credit_balance(&self, conn: ConnId) -> Option<u32> {
        self.credits
            .as_ref()
            .map(|c| c[conn.index()].load(Ordering::Relaxed))
    }

    /// Requests refused locally for lack of credits — sheds that burned
    /// no wire RTT (compare with the server gate's `rejected` counter,
    /// which prices a full round trip per reject).
    pub fn local_sheds(&self) -> u64 {
        self.local_sheds.load(Ordering::Relaxed)
    }

    /// Credits borrowed from zero-demand connections — sends that
    /// overcommitment rescued from a local shed. Always 0 unless
    /// [`RuntimeConfig::credit_overcommit`](crate::RuntimeConfig) is set.
    pub fn borrowed_credits(&self) -> u64 {
        self.borrowed.load(Ordering::Relaxed)
    }

    /// Tries to borrow one credit from a connection with zero demand
    /// (never attempted a send). Returns `true` on success — the borrowed
    /// credit is spent directly on the caller's send.
    fn borrow_credit(&self, credits: &[AtomicU32]) -> bool {
        let n = credits.len();
        let start = self.lend_cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let lender = (start + i) % n;
            if self.attempts[lender].load(Ordering::Relaxed) != 0 {
                continue; // Active (or once-active): not a lender.
            }
            let balance = &credits[lender];
            let mut cur = balance.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
                    break; // Already lent out; try the next candidate.
                }
                match balance.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.borrowed.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
        false
    }

    /// Sends `msg` on `conn` if the connection holds a send credit,
    /// spending it; returns `false` (without touching the wire) when the
    /// balance is zero. Always sends when client-side credits are off —
    /// the caller can use this as its only send path.
    ///
    /// On `false`, the caller decides what the request's latency budget
    /// allows: drop it, back off and retry, or hedge — see
    /// `zygos_load::retry::RetryPolicy`.
    pub fn try_send(&self, conn: ConnId, msg: &RpcMessage) -> bool {
        if let Some(credits) = &self.credits {
            if self.shared.cfg.credit_overcommit {
                // Registering demand first also disqualifies this
                // connection as a lender before any borrowing below.
                self.attempts[conn.index()].fetch_add(1, Ordering::Relaxed);
            }
            let balance = &credits[conn.index()];
            let mut cur = balance.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
                    // Demand-weighted shares: spend an idle connection's
                    // stranded credit instead of shedding.
                    if self.shared.cfg.credit_overcommit && self.borrow_credit(credits) {
                        break;
                    }
                    self.local_sheds.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                match balance.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        self.send(conn, msg);
        true
    }

    /// Sends one request message on `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn send(&self, conn: ConnId, msg: &RpcMessage) {
        self.send_bytes(conn, msg.to_bytes());
    }

    /// Sends raw stream bytes on `conn` (may be a partial frame or several
    /// frames — the server's framer reassembles, like TCP).
    pub fn send_bytes(&self, conn: ConnId, payload: Bytes) {
        let home = self.shared.conn_home[conn.index()] as usize;
        let mut pkt = Packet::new(conn, payload);
        loop {
            match self.shared.rings[home].push(pkt) {
                Ok(()) => break,
                Err(back) => {
                    pkt = back;
                    std::hint::spin_loop();
                }
            }
        }
        // Kick the home core if it is parked (the NIC's interrupt).
        self.shared.doorbells[home].ring(IpiReason::PendingPackets);
    }

    /// Receives the next response, decoding its frame and harvesting any
    /// piggybacked credit grant into the connection's send balance.
    ///
    /// Returns `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ConnId, RpcMessage)> {
        let (conn, mut wire) = self.resp_rx.recv_timeout(timeout).ok()?;
        debug_assert!(wire.len() >= RPC_HEADER_LEN, "short response frame");
        let header = RpcHeader::decode(&mut wire).expect("well-formed response");
        let body = wire.slice(..header.body_len as usize);
        if let Some(credits) = &self.credits {
            if header.credits > 0 {
                credits[conn.index()].fetch_add(header.credits, Ordering::Relaxed);
            }
        }
        Some((conn, RpcMessage { header, body }))
    }

    /// Number of responses currently queued.
    pub fn pending_responses(&self) -> usize {
        self.resp_rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::config::RuntimeConfig;
    use crate::server::Server;

    #[test]
    fn partial_frames_reassemble_like_tcp() {
        let (server, client) = Server::start(RuntimeConfig::zygos(2, 4), Arc::new(EchoApp));
        let msg = RpcMessage::new(1, 9, Bytes::from_static(b"fragmented"));
        let wire = msg.to_bytes();
        // Send the frame in three segments.
        client.send_bytes(ConnId(1), wire.slice(..5));
        client.send_bytes(ConnId(1), wire.slice(5..12));
        client.send_bytes(ConnId(1), wire.slice(12..));
        let (_, resp) = client
            .recv_timeout(Duration::from_secs(5))
            .expect("reassembled response");
        assert_eq!(resp.header.req_id, 9);
        assert_eq!(&resp.body[..], b"fragmented");
        server.shutdown();
    }

    #[test]
    fn multiple_frames_in_one_packet() {
        let (server, client) = Server::start(RuntimeConfig::zygos(2, 4), Arc::new(EchoApp));
        let mut burst = Vec::new();
        for id in 0..4u64 {
            burst.extend_from_slice(&RpcMessage::new(1, id, Bytes::new()).to_bytes());
        }
        client.send_bytes(ConnId(2), Bytes::from(burst));
        let mut ids = Vec::new();
        for _ in 0..4 {
            let (_, resp) = client.recv_timeout(Duration::from_secs(5)).expect("resp");
            ids.push(resp.header.req_id);
        }
        // Same connection ⇒ strictly in order (§4.3).
        assert_eq!(ids, vec![0, 1, 2, 3]);
        server.shutdown();
    }

    #[test]
    fn conns_accessor() {
        let (server, client) = Server::start(RuntimeConfig::zygos(1, 7), Arc::new(EchoApp));
        assert_eq!(client.conns(), 7);
        server.shutdown();
    }

    #[test]
    fn overcommitment_cuts_local_sheds_under_skewed_load() {
        use zygos_sched::CreditConfig;
        // A fixed 16-credit pool over 16 connections (share = 1 each), a
        // 32-request burst on just two of them, and no response draining
        // (grants ride on responses, so balances only shrink here).
        let base = RuntimeConfig::zygos(2, 16)
            .with_admission(CreditConfig {
                min_credits: 16,
                max_credits: 16,
                initial_credits: 16,
                additive: 1,
                md_factor: 0.3,
                target: 1_000.0,
            })
            .with_client_credits();
        let run = |cfg: RuntimeConfig| {
            let (server, client) = Server::start(cfg, Arc::new(EchoApp));
            for id in 0..32u64 {
                client.try_send(
                    ConnId((id % 2) as u32),
                    &RpcMessage::new(1, id, Bytes::new()),
                );
            }
            let out = (client.local_sheds(), client.borrowed_credits());
            server.shutdown();
            out
        };
        let (sheds_even, borrowed_even) = run(base.clone());
        let (sheds_over, borrowed_over) = run(base.with_credit_overcommit());
        // Even split: the two active connections hold 1 credit each — 2
        // sends, 30 local sheds, 14 credits stranded on idle connections.
        assert_eq!(sheds_even, 30);
        assert_eq!(borrowed_even, 0);
        // Demand-weighted: the stranded shares are borrowed before any
        // shed — 16 sends (the whole pool), 16 sheds.
        assert_eq!(borrowed_over, 14);
        assert_eq!(sheds_over, 16);
        assert!(
            sheds_over < sheds_even,
            "overcommitment must cut local sheds ({sheds_over} vs {sheds_even})"
        );
    }
}
