//! The loopback client port (stands in for the NIC + client cluster).
//!
//! With [`RuntimeConfig::client_credits`](crate::RuntimeConfig) armed, the
//! port also runs the sender side of the Breakwater credit scheme: each
//! connection holds a local credit balance, [`ClientPort::try_send`]
//! refuses to transmit at zero balance (the shed request never touches
//! the wire), and response headers replenish the balance with the grants
//! the server piggybacks on them. The initial pool is split evenly across
//! connections.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use zygos_core::doorbell::IpiReason;
use zygos_net::flow::ConnId;
use zygos_net::packet::{Packet, RpcHeader, RpcMessage, RPC_HEADER_LEN};

use crate::server::Shared;

/// Sends request frames into the server's per-core ingress rings (applying
/// the connection's RSS home) and receives response frames.
pub struct ClientPort {
    shared: Arc<Shared>,
    /// Sender-side credit balances, one per connection (`None` unless
    /// client-side credits are armed).
    credits: Option<Vec<AtomicU32>>,
    /// Requests refused locally by [`ClientPort::try_send`]: sheds that
    /// cost zero wire RTT.
    local_sheds: AtomicU64,
}

impl ClientPort {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
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
        ClientPort {
            shared,
            credits,
            local_sheds: AtomicU64::new(0),
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
            let balance = &credits[conn.index()];
            let mut cur = balance.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
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
    ///
    /// Spins while the home core's ingress ring is full. Once the server
    /// has shut down, the packet is dropped instead, as a dead host's NIC
    /// would: no worker will drain the ring again.
    pub fn send_bytes(&self, conn: ConnId, payload: Bytes) {
        let home = self.shared.conn_home[conn.index()] as usize;
        let mut pkt = Packet::new(conn, payload);
        loop {
            match self.shared.rings[home].push(pkt) {
                Ok(()) => break,
                Err(_) if self.shared.stop.load(Ordering::Acquire) => return,
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
    /// Returns `None` on timeout, or once the server has shut down and
    /// every queued response has been read.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ConnId, RpcMessage)> {
        let (conn, mut wire) = self
            .shared
            .responses
            .recv_timeout(timeout, &self.shared.stop)?;
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
        self.shared.responses.len()
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
    fn sends_after_shutdown_drop_instead_of_spinning() {
        // Four ring slots and one connection: the fifth send finds the ring
        // full, and no worker is left to drain it.
        let cfg = RuntimeConfig {
            ring_capacity: 4,
            ..RuntimeConfig::zygos(1, 1)
        };
        let (server, client) = Server::start(cfg, Arc::new(EchoApp));
        server.shutdown();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            for id in 0..5u64 {
                client.send(ConnId(0), &RpcMessage::new(1, id, Bytes::new()));
            }
            done_tx.send(()).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "a send to a stopped server spun on its full ring"
        );
        sender.join().unwrap();
    }

    #[test]
    fn a_parked_receive_returns_at_shutdown() {
        let (server, client) = Server::start(RuntimeConfig::zygos(2, 4), Arc::new(EchoApp));
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            server.shutdown();
        });
        let t = std::time::Instant::now();
        assert!(client.recv_timeout(Duration::from_secs(10)).is_none());
        let took = t.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "returned {took:?} after entry"
        );
        stopper.join().unwrap();
    }

    #[test]
    fn conns_accessor() {
        let (server, client) = Server::start(RuntimeConfig::zygos(1, 7), Arc::new(EchoApp));
        assert_eq!(client.conns(), 7);
        server.shutdown();
    }
}
