//! Byte-stream framing.
//!
//! TCP delivers a byte stream; RPC boundaries are an application concept.
//! [`Framer`] incrementally reassembles [`RpcMessage`]s from arbitrarily
//! segmented input — a message may span packets, and one packet may carry
//! several messages (the §6.2 pipelining case: "up to four distinct
//! memcached requests can be pipelined onto the same connection").
//!
//! The frame layout (including the credit-grant field that carries
//! Breakwater-style sender-side admission grants on responses) is
//! documented in [`crate::packet`]; the framer is layout-agnostic beyond
//! the fixed header length and the `body_len` field.
//!
//! ```
//! use bytes::Bytes;
//! use zygos_net::packet::RpcMessage;
//! use zygos_net::wire::Framer;
//!
//! let wire = RpcMessage::new(1, 7, Bytes::from_static(b"hi")).to_bytes();
//! let mut f = Framer::new();
//! // Feed the frame in two arbitrary segments, like TCP would deliver it.
//! f.feed(&wire[..9]).unwrap();
//! assert!(f.next_message().unwrap().is_none()); // incomplete
//! f.feed(&wire[9..]).unwrap();
//! let msg = f.next_message().unwrap().unwrap();
//! assert_eq!(msg.header.req_id, 7);
//! assert_eq!(&msg.body[..], b"hi");
//! ```

use bytes::{Buf, Bytes, BytesMut};

use crate::packet::{FrameError, RpcHeader, RpcMessage, RPC_HEADER_LEN};

/// Incremental frame decoder for one connection's receive stream.
#[derive(Default)]
pub struct Framer {
    buf: BytesMut,
    /// Set once the stream desynchronizes; all further input is rejected.
    poisoned: bool,
}

impl Framer {
    /// Creates an empty framer.
    pub fn new() -> Self {
        Framer::default()
    }

    /// Appends received bytes to the reassembly buffer.
    ///
    /// Returns an error if the stream was previously poisoned by a framing
    /// error (callers should reset the connection).
    pub fn feed(&mut self, data: &[u8]) -> Result<(), FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { found: 0 });
        }
        self.buf.extend_from_slice(data);
        Ok(())
    }

    /// Attempts to extract the next complete message.
    ///
    /// Returns `Ok(None)` when more bytes are needed. A framing error
    /// poisons the framer.
    pub fn next_message(&mut self) -> Result<Option<RpcMessage>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { found: 0 });
        }
        if self.buf.len() < RPC_HEADER_LEN {
            return Ok(None);
        }
        // Peek the header without consuming, in case the body is short.
        let mut peek = &self.buf[..RPC_HEADER_LEN];
        let header = match RpcHeader::decode(&mut peek) {
            Ok(h) => h,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let total = RPC_HEADER_LEN + header.body_len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        // One copy out of the reassembly buffer (which keeps its storage
        // for the bytes that follow), then consume header and body.
        let body = Bytes::copy_from_slice(&self.buf[RPC_HEADER_LEN..total]);
        self.buf.advance(total);
        Ok(Some(RpcMessage { header, body }))
    }

    /// Drains every currently complete message.
    pub fn drain(&mut self) -> Result<Vec<RpcMessage>, FrameError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// True once a framing error has been observed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RPC_MAGIC;
    use bytes::BufMut;

    fn msg(req_id: u64, body: &'static [u8]) -> RpcMessage {
        RpcMessage::new(1, req_id, Bytes::from_static(body))
    }

    #[test]
    fn whole_message_in_one_feed() {
        let mut f = Framer::new();
        f.feed(&msg(1, b"abc").to_bytes()).unwrap();
        let got = f.next_message().unwrap().unwrap();
        assert_eq!(got.header.req_id, 1);
        assert_eq!(&got.body[..], b"abc");
        assert!(f.next_message().unwrap().is_none());
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn message_split_byte_by_byte() {
        let wire = msg(7, b"hello world").to_bytes();
        let mut f = Framer::new();
        for (i, b) in wire.iter().enumerate() {
            f.feed(std::slice::from_ref(b)).unwrap();
            let m = f.next_message().unwrap();
            if i + 1 < wire.len() {
                assert!(m.is_none(), "early message at byte {i}");
            } else {
                assert_eq!(m.unwrap().header.req_id, 7);
            }
        }
    }

    #[test]
    fn multiple_messages_in_one_packet() {
        // The pipelined-requests case of §6.2.
        let mut wire = BytesMut::new();
        for id in 0..4u64 {
            wire.extend_from_slice(&msg(id, b"x").to_bytes());
        }
        let mut f = Framer::new();
        f.feed(&wire).unwrap();
        let all = f.drain().unwrap();
        assert_eq!(all.len(), 4);
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.header.req_id, i as u64, "in-order reassembly");
        }
    }

    #[test]
    fn desync_poisons_the_stream() {
        let mut f = Framer::new();
        let mut junk = BytesMut::new();
        junk.put_u16_le(0xFFFF);
        junk.put_bytes(0, 20);
        f.feed(&junk).unwrap();
        assert!(f.next_message().is_err());
        assert!(f.is_poisoned());
        assert!(f.feed(b"more").is_err());
    }

    #[test]
    fn empty_body_messages() {
        let mut f = Framer::new();
        f.feed(&RpcMessage::new(2, 5, Bytes::new()).to_bytes())
            .unwrap();
        let m = f.next_message().unwrap().unwrap();
        assert_eq!(m.header.body_len, 0);
        assert!(m.body.is_empty());
    }

    #[test]
    fn interleaved_feed_and_drain() {
        let mut f = Framer::new();
        let w1 = msg(1, b"aaaa").to_bytes();
        let w2 = msg(2, b"bbbb").to_bytes();
        // Feed w1 plus half of w2.
        f.feed(&w1).unwrap();
        f.feed(&w2[..10]).unwrap();
        let batch1 = f.drain().unwrap();
        assert_eq!(batch1.len(), 1);
        f.feed(&w2[10..]).unwrap();
        let batch2 = f.drain().unwrap();
        assert_eq!(batch2.len(), 1);
        assert_eq!(batch2[0].header.req_id, 2);
    }

    #[test]
    fn magic_constant_is_zg() {
        assert_eq!(RPC_MAGIC.to_le_bytes(), [0x47, 0x5A]); // "GZ" little-endian.
    }
}
