//! Packets and the RPC wire format.
//!
//! Every workload in the repository (synthetic spinner, memcached-like KV,
//! Silo/TPC-C) speaks the same framed RPC format over a byte stream:
//!
//! ```text
//! +------------+------------+----------------+--------------+--------------+
//! | magic (2B) | opcode (2B)| request id (8B)| body len (4B)| credits (4B) |
//! +------------+------------+----------------+--------------+--------------+
//! | body (len bytes)...                                                    |
//! +------------------------------------------------------------------------+
//! ```
//!
//! All integers are little-endian. The header is 20 bytes.
//!
//! The **credits** field is the Breakwater-style sender-side credit grant,
//! piggybacked on responses: a server running credit-based admission sets
//! it to the number of send credits this reply returns to the client
//! (0 = the pool is full, stop sending; see
//! `zygos_sched::CreditGate::grant_for_response`). Requests, and servers
//! with admission off, carry 0; clients not participating in sender-side
//! credits ignore it. Keeping the grant in the fixed header — rather than
//! a separate control message — means credit distribution costs no extra
//! packets, which at µs scale is the difference between a control plane
//! and a tax.

use bytes::{Buf, Bytes, BytesMut};

use crate::flow::ConnId;

/// Magic marker starting every RPC frame.
pub const RPC_MAGIC: u16 = 0x5A47; // "ZG"

/// Size of the fixed RPC header in bytes.
pub const RPC_HEADER_LEN: usize = 20;

/// Maximum body length accepted by the framer (1 MiB).
pub const MAX_BODY_LEN: usize = 1 << 20;

/// Errors produced when decoding an RPC header.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The magic field did not match [`RPC_MAGIC`] — stream desync.
    BadMagic { found: u16 },
    /// Body length exceeds [`MAX_BODY_LEN`].
    Oversized { len: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#06x}"),
            FrameError::Oversized { len } => write!(f, "frame body too large: {len}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The fixed RPC frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcHeader {
    /// Application-defined operation code.
    pub opcode: u16,
    /// Request identifier echoed in the response (client latency matching).
    pub req_id: u64,
    /// Length of the body that follows.
    pub body_len: u32,
    /// Credit grant piggybacked on responses (see module docs); 0 on
    /// requests and when admission control is off.
    pub credits: u32,
}

impl RpcHeader {
    /// Encodes the header (including magic) into `dst`.
    pub fn encode(&self, dst: &mut BytesMut) {
        dst.extend_from_slice(&self.to_array());
    }

    /// The header's wire bytes, laid out as the module docs draw them.
    fn to_array(self) -> [u8; RPC_HEADER_LEN] {
        let mut h = [0u8; RPC_HEADER_LEN];
        h[0..2].copy_from_slice(&RPC_MAGIC.to_le_bytes());
        h[2..4].copy_from_slice(&self.opcode.to_le_bytes());
        h[4..12].copy_from_slice(&self.req_id.to_le_bytes());
        h[12..16].copy_from_slice(&self.body_len.to_le_bytes());
        h[16..20].copy_from_slice(&self.credits.to_le_bytes());
        h
    }

    /// Decodes a header from the first [`RPC_HEADER_LEN`] bytes of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than [`RPC_HEADER_LEN`] bytes.
    pub fn decode(src: &mut impl Buf) -> Result<RpcHeader, FrameError> {
        assert!(src.remaining() >= RPC_HEADER_LEN, "short header");
        let magic = src.get_u16_le();
        if magic != RPC_MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let opcode = src.get_u16_le();
        let req_id = src.get_u64_le();
        let body_len = src.get_u32_le();
        let credits = src.get_u32_le();
        if body_len as usize > MAX_BODY_LEN {
            return Err(FrameError::Oversized {
                len: body_len as usize,
            });
        }
        Ok(RpcHeader {
            opcode,
            req_id,
            body_len,
            credits,
        })
    }
}

/// A complete RPC message (header + body).
///
/// A message taken off the wire by [`Framer`](crate::wire::Framer) holds
/// its body as a slice of the received segment, so the body keeps that
/// whole segment alive. Copy what must outlive the request (as
/// `zygos-kv` does with keys and values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcMessage {
    /// Decoded header.
    pub header: RpcHeader,
    /// Message body.
    pub body: Bytes,
}

impl RpcMessage {
    /// Builds a message, filling in `body_len` (no credit grant).
    pub fn new(opcode: u16, req_id: u64, body: Bytes) -> Self {
        RpcMessage {
            header: RpcHeader {
                opcode,
                req_id,
                body_len: body.len() as u32,
                credits: 0,
            },
            body,
        }
    }

    /// Sets the piggybacked credit grant (responses from servers running
    /// sender-side admission control).
    pub fn with_credits(mut self, credits: u32) -> Self {
        self.header.credits = credits;
        self
    }

    /// Serializes header + body into a single buffer: one allocation, into
    /// which header and body are each copied once. A sender of many frames
    /// reuses their buffers through a
    /// [`FrameStack`](crate::wire::FrameStack) instead.
    pub fn to_bytes(&self) -> Bytes {
        let header = self.header.to_array();
        (&header[..])
            .chain(&self.body[..])
            .copy_to_bytes(self.wire_len())
    }

    /// Total wire length of the message.
    pub fn wire_len(&self) -> usize {
        RPC_HEADER_LEN + self.body.len()
    }
}

/// A raw packet as delivered by the (simulated) NIC: a segment of a
/// connection's byte stream.
///
/// The driver layer sees packets; only the per-connection framer reassembles
/// them into [`RpcMessage`]s — exactly the boundary-blindness that produces
/// ZygOS's implicit per-flow batching in §6.2.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Connection this segment belongs to.
    pub conn: ConnId,
    /// Payload bytes (a segment of the stream, not necessarily aligned to
    /// message boundaries).
    pub payload: Bytes,
}

impl Packet {
    /// Creates a packet.
    pub fn new(conn: ConnId, payload: Bytes) -> Self {
        Packet { conn, payload }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty (pure ACK in a real stack).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn header_roundtrip() {
        let h = RpcHeader {
            opcode: 7,
            req_id: 0xDEAD_BEEF_0123,
            body_len: 42,
            credits: 3,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), RPC_HEADER_LEN);
        let mut rd = buf.freeze();
        assert_eq!(RpcHeader::decode(&mut rd), Ok(h));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(0x1234);
        buf.put_bytes(0, RPC_HEADER_LEN - 2);
        let mut rd = buf.freeze();
        assert_eq!(
            RpcHeader::decode(&mut rd),
            Err(FrameError::BadMagic { found: 0x1234 })
        );
    }

    #[test]
    fn oversized_rejected() {
        let h = RpcHeader {
            opcode: 0,
            req_id: 0,
            body_len: (MAX_BODY_LEN + 1) as u32,
            credits: 0,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut rd = buf.freeze();
        assert!(matches!(
            RpcHeader::decode(&mut rd),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn message_serialization() {
        let m = RpcMessage::new(3, 99, Bytes::from_static(b"hello"));
        assert_eq!(m.header.body_len, 5);
        let wire = m.to_bytes();
        assert_eq!(wire.len(), m.wire_len());
        assert_eq!(&wire[RPC_HEADER_LEN..], b"hello");
    }

    #[test]
    fn credit_grant_roundtrips_and_defaults_to_zero() {
        let plain = RpcMessage::new(1, 5, Bytes::new());
        assert_eq!(plain.header.credits, 0);
        let granted = RpcMessage::new(1, 5, Bytes::from_static(b"ok")).with_credits(2);
        let wire = granted.to_bytes();
        let mut rd = wire.clone();
        let h = RpcHeader::decode(&mut rd).unwrap();
        assert_eq!(h.credits, 2);
        assert_eq!(h.req_id, 5);
    }

    #[test]
    fn packet_basics() {
        let p = Packet::new(ConnId(1), Bytes::from_static(b"abc"));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(Packet::new(ConnId(1), Bytes::new()).is_empty());
    }
}
