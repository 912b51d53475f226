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
//! Receive is zero-copy where it can be: a frame that lies whole inside
//! one fed segment comes out with its body as a [`Bytes::slice`] of that
//! segment (no copy, no allocation). Only a frame that spans segments is
//! reassembled in a buffer and copied out.
//!
//! Transmit reuses buffers: a [`FrameEncoder`] writes each frame into the
//! buffer of a frame it sent earlier once every receiver has dropped it,
//! so a sender whose frames come back allocates nothing in steady state.
//!
//! ```
//! use bytes::Bytes;
//! use zygos_net::packet::RpcMessage;
//! use zygos_net::wire::Framer;
//!
//! let wire = RpcMessage::new(1, 7, Bytes::from_static(b"hi")).to_bytes();
//! let mut f = Framer::new();
//! // Feed the frame in two arbitrary segments, like TCP would deliver it.
//! f.feed(&wire.slice(..9)).unwrap();
//! assert!(f.next_message().unwrap().is_none()); // incomplete
//! f.feed(&wire.slice(9..)).unwrap();
//! let msg = f.next_message().unwrap().unwrap();
//! assert_eq!(msg.header.req_id, 7);
//! assert_eq!(&msg.body[..], b"hi");
//! ```

use std::collections::VecDeque;

use bytes::{Buf, Bytes, BytesMut};

use crate::packet::{FrameError, RpcHeader, RpcMessage, RPC_HEADER_LEN};

/// Incremental frame decoder for one connection's receive stream.
///
/// The stream it has been fed and not yet handed out is `buf` followed by
/// `seg`. A body handed out as a slice of a segment keeps that whole
/// segment alive for as long as the body lives. The framer itself keeps
/// the last segment fed alive until the next one arrives.
#[derive(Default)]
pub struct Framer {
    /// The unconsumed rest of the last segment fed.
    seg: Bytes,
    /// Reassembly buffer: the start of a frame that spans segments.
    buf: BytesMut,
    /// Set once the stream desynchronizes; all further input is rejected.
    poisoned: bool,
}

impl Framer {
    /// Creates an empty framer.
    pub fn new() -> Self {
        Framer::default()
    }

    /// Takes the next received segment of the stream. The segment is
    /// shared, not copied; what is left of the previous one moves to the
    /// reassembly buffer.
    ///
    /// Returns an error if the stream was previously poisoned by a framing
    /// error (callers should reset the connection).
    pub fn feed(&mut self, segment: &Bytes) -> Result<(), FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { found: 0 });
        }
        // What is left of the previous segment starts a frame the new one
        // completes (or holds frames not taken yet), so it goes ahead of
        // the new segment.
        if !self.seg.is_empty() {
            self.buf.extend_from_slice(&self.seg);
        }
        self.seg = segment.clone();
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
        let next = self.take_frame();
        self.poisoned = next.is_err();
        next
    }

    fn take_frame(&mut self) -> Result<Option<RpcMessage>, FrameError> {
        if self.buf.is_empty() {
            // The frame starts in the segment: if it ends there too, its
            // body is a slice of the segment.
            let Some((header, total)) = peek_header(&self.seg)? else {
                return Ok(None);
            };
            if self.seg.len() < total {
                return Ok(None);
            }
            let body = self.seg.slice(RPC_HEADER_LEN..total);
            self.seg.advance(total);
            return Ok(Some(RpcMessage { header, body }));
        }
        // The frame started in an earlier segment: move just enough of this
        // one into the buffer to complete it, then copy the body out.
        self.fill_buf(RPC_HEADER_LEN);
        let Some((header, total)) = peek_header(&self.buf)? else {
            return Ok(None);
        };
        self.fill_buf(total);
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = Bytes::copy_from_slice(&self.buf[RPC_HEADER_LEN..total]);
        self.buf.advance(total);
        Ok(Some(RpcMessage { header, body }))
    }

    /// Moves bytes from the front of the segment to the buffer until the
    /// buffer holds `want` bytes or the segment runs out.
    fn fill_buf(&mut self, want: usize) {
        let n = want.saturating_sub(self.buf.len()).min(self.seg.len());
        self.buf.extend_from_slice(&self.seg[..n]);
        self.seg.advance(n);
    }

    /// Drains every currently complete message.
    pub fn drain(&mut self) -> Result<Vec<RpcMessage>, FrameError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }

    /// Bytes fed but not yet handed out: the reassembly buffer plus the
    /// rest of the held segment.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() + self.seg.len()
    }

    /// True once a framing error has been observed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Encodes frames into the buffers of frames it sent earlier.
///
/// The encoder keeps a clone of every frame it hands out, oldest first. To
/// encode, it tries to reclaim the oldest ([`Bytes::try_into_mut`]), which
/// succeeds once every receiver has dropped its views of that frame; the
/// header and body are then written over the old bytes. A frame still
/// held goes to the back of the queue and the new frame gets a fresh
/// buffer, so the encoder allocates only while its oldest frame is held.
/// At most `cap` frames are kept: at the cap, a held oldest frame is let
/// go (its receivers keep it alive) instead of being waited for.
///
/// A buffer is rewritten only after `try_into_mut` proves no [`Bytes`]
/// views it, so a receiver never sees its frame change.
///
/// ```
/// use bytes::Bytes;
/// use zygos_net::packet::RpcMessage;
/// use zygos_net::wire::FrameEncoder;
///
/// let mut enc = FrameEncoder::new(16);
/// let first = enc.encode(&RpcMessage::new(1, 1, Bytes::from_static(b"hi")));
/// assert_eq!(first, RpcMessage::new(1, 1, Bytes::from_static(b"hi")).to_bytes());
/// let at = first.as_ptr();
/// drop(first); // The receiver is done with it ...
/// let second = enc.encode(&RpcMessage::new(1, 2, Bytes::from_static(b"yo")));
/// assert_eq!(second.as_ptr(), at); // ... so its buffer carries the next.
/// ```
pub struct FrameEncoder {
    /// Clones of the frames handed out, oldest first.
    sent: VecDeque<Bytes>,
    /// Most frames kept in `sent`.
    cap: usize,
}

impl FrameEncoder {
    /// An encoder that keeps at most `cap` (at least 1) sent frames for
    /// reuse.
    pub fn new(cap: usize) -> Self {
        FrameEncoder {
            sent: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Serializes header + body, as [`RpcMessage::to_bytes`] does, into a
    /// reclaimed buffer when the oldest sent frame has been dropped by
    /// every receiver, else into a fresh one.
    pub fn encode(&mut self, msg: &RpcMessage) -> Bytes {
        let mut buf = match self.sent.pop_front().map(Bytes::try_into_mut) {
            Some(Ok(mut reclaimed)) => {
                reclaimed.clear();
                reclaimed
            }
            Some(Err(held)) => {
                // Room for it and the new frame, or let it go.
                if self.sent.len() + 2 <= self.cap {
                    self.sent.push_back(held);
                }
                BytesMut::with_capacity(msg.wire_len())
            }
            None => BytesMut::with_capacity(msg.wire_len()),
        };
        msg.header.encode(&mut buf);
        buf.extend_from_slice(&msg.body);
        let frame = buf.freeze();
        self.sent.push_back(frame.clone());
        // A hint, not a check: reading the next candidate's count now
        // starts its cache line back from the receiver that last dropped
        // it, while this frame is sent, instead of stalling the next
        // `try_into_mut` on it.
        std::hint::black_box(self.sent.front().map(Bytes::is_unique));
        frame
    }
}

/// Decodes the header at the front of `stream` and returns it with its
/// frame's total length, or `None` if fewer than a header's bytes are there.
fn peek_header(stream: &[u8]) -> Result<Option<(RpcHeader, usize)>, FrameError> {
    let Some(mut raw) = stream.get(..RPC_HEADER_LEN) else {
        return Ok(None);
    };
    let header = RpcHeader::decode(&mut raw)?;
    Ok(Some((header, RPC_HEADER_LEN + header.body_len as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RPC_MAGIC;
    use bytes::BufMut;

    fn msg(req_id: u64, body: &'static [u8]) -> RpcMessage {
        RpcMessage::new(1, req_id, Bytes::from_static(body))
    }

    /// Frames `ids` back to back in one segment.
    fn pipelined(ids: std::ops::Range<u64>, body: &'static [u8]) -> Bytes {
        let mut wire = BytesMut::new();
        for id in ids {
            wire.extend_from_slice(&msg(id, body).to_bytes());
        }
        wire.freeze()
    }

    /// True if `body`'s bytes lie inside `segment`'s buffer: sliced, not
    /// copied.
    fn inside(body: &Bytes, segment: &Bytes) -> bool {
        let seg = segment.as_ptr_range();
        let b = body.as_ptr_range();
        seg.start <= b.start && b.end <= seg.end
    }

    #[test]
    fn whole_message_in_one_feed() {
        let wire = msg(1, b"abc").to_bytes();
        let mut f = Framer::new();
        f.feed(&wire).unwrap();
        let got = f.next_message().unwrap().unwrap();
        assert_eq!(got.header.req_id, 1);
        assert_eq!(&got.body[..], b"abc");
        assert!(inside(&got.body, &wire), "a whole frame is not copied");
        assert!(f.next_message().unwrap().is_none());
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn message_split_byte_by_byte() {
        let wire = msg(7, b"hello world").to_bytes();
        let mut f = Framer::new();
        for i in 0..wire.len() {
            f.feed(&wire.slice(i..i + 1)).unwrap();
            let m = f.next_message().unwrap();
            if i + 1 < wire.len() {
                assert!(m.is_none(), "early message at byte {i}");
            } else {
                let m = m.unwrap();
                assert_eq!(m.header.req_id, 7);
                assert_eq!(&m.body[..], b"hello world");
            }
        }
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn multiple_messages_in_one_packet() {
        // The pipelined-requests case of §6.2.
        let wire = pipelined(0..4, b"xy");
        let mut f = Framer::new();
        f.feed(&wire).unwrap();
        let all = f.drain().unwrap();
        assert_eq!(all.len(), 4);
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.header.req_id, i as u64, "in-order reassembly");
            assert_eq!(&m.body[..], b"xy");
            assert!(inside(&m.body, &wire), "frame {i} was copied");
        }
    }

    #[test]
    fn frame_and_a_half_then_the_rest() {
        let wire = pipelined(1..3, b"bbbb");
        let cut = wire.len() - 12; // Frame 1 and the first 12 bytes of 2.
        let (first, rest) = (wire.slice(..cut), wire.slice(cut..));
        let mut f = Framer::new();
        f.feed(&first).unwrap();
        assert_eq!(f.pending_bytes(), cut);
        let batch1 = f.drain().unwrap();
        assert_eq!(batch1.len(), 1);
        assert_eq!(batch1[0].header.req_id, 1);
        assert!(inside(&batch1[0].body, &first));
        // The held segment's tail is still pending ...
        assert_eq!(f.pending_bytes(), cut - 24);
        f.feed(&rest).unwrap();
        // ... and now sits in the buffer, ahead of the new segment.
        assert_eq!(f.pending_bytes(), 24);
        let batch2 = f.drain().unwrap();
        assert_eq!(batch2.len(), 1);
        assert_eq!(batch2[0].header.req_id, 2);
        assert_eq!(&batch2[0].body[..], b"bbbb");
        assert!(!inside(&batch2[0].body, &first) && !inside(&batch2[0].body, &rest));
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn interleaved_feed_and_drain() {
        let mut f = Framer::new();
        let w1 = msg(1, b"aaaa").to_bytes();
        let w2 = msg(2, b"bbbb").to_bytes();
        // Feed w1 plus part of w2 before draining: the second feed moves
        // all of w1, a complete frame, into the buffer.
        f.feed(&w1).unwrap();
        f.feed(&w2.slice(..10)).unwrap();
        assert_eq!(f.pending_bytes(), w1.len() + 10);
        let batch1 = f.drain().unwrap();
        assert_eq!(batch1.len(), 1);
        assert_eq!(batch1[0].header.req_id, 1);
        assert_eq!(&batch1[0].body[..], b"aaaa");
        assert!(!inside(&batch1[0].body, &w1), "copied out of the buffer");
        assert_eq!(f.pending_bytes(), 10);
        f.feed(&w2.slice(10..)).unwrap();
        let batch2 = f.drain().unwrap();
        assert_eq!(batch2.len(), 1);
        assert_eq!(batch2[0].header.req_id, 2);
        assert_eq!(&batch2[0].body[..], b"bbbb");
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn frames_after_a_reassembled_one_are_sliced_again() {
        let w1 = msg(1, b"aaaa").to_bytes();
        let mut f = Framer::new();
        f.feed(&w1.slice(..5)).unwrap();
        assert!(f.next_message().unwrap().is_none());
        let mut tail = BytesMut::new();
        tail.extend_from_slice(&w1[5..]);
        tail.extend_from_slice(&msg(2, b"cc").to_bytes());
        let tail = tail.freeze();
        f.feed(&tail).unwrap();
        let all = f.drain().unwrap();
        assert_eq!(all.len(), 2);
        assert!(!inside(&all[0].body, &tail), "frame 1 spans segments");
        assert!(inside(&all[1].body, &tail), "frame 2 lies whole in one");
        assert_eq!(&all[1].body[..], b"cc");
    }

    #[test]
    fn desync_poisons_the_stream() {
        let mut f = Framer::new();
        let mut junk = BytesMut::new();
        junk.put_u16_le(0xFFFF);
        junk.put_bytes(0, 20);
        f.feed(&junk.freeze()).unwrap();
        assert!(f.next_message().is_err());
        assert!(f.is_poisoned());
        assert!(f.feed(&Bytes::from_static(b"more")).is_err());
    }

    #[test]
    fn poisoned_after_a_spill_stays_poisoned() {
        let mut junk = BytesMut::new();
        junk.put_u16_le(0xFFFF);
        junk.put_bytes(0, 20);
        let junk = junk.freeze();
        let mut f = Framer::new();
        f.feed(&junk.slice(..7)).unwrap();
        assert!(f.next_message().unwrap().is_none());
        // The 7 held bytes spill to the buffer; the bad magic is found there.
        f.feed(&junk.slice(7..)).unwrap();
        assert!(f.next_message().is_err());
        assert!(f.is_poisoned());
        let good = msg(3, b"ok").to_bytes();
        assert!(f.feed(&good).is_err());
        assert!(f.next_message().is_err());
        assert!(f.drain().is_err());
        assert!(f.is_poisoned());
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
    fn encoder_reuses_dropped_frames_and_never_rewrites_held_ones() {
        let mut enc = FrameEncoder::new(3);
        let a = enc.encode(&msg(1, b"aaaa"));
        assert_eq!(a, msg(1, b"aaaa").to_bytes());
        // `a` is held, so the next two frames get buffers of their own.
        let b = enc.encode(&msg(2, b"bbbb"));
        let b_at = b.as_ptr();
        drop(b);
        let c = enc.encode(&msg(3, b"cccc"));
        assert_ne!(c.as_ptr(), b_at);
        // `a` went behind `b`: the oldest is `b`, dropped, so it is reused.
        let d = enc.encode(&msg(4, b"dddd"));
        assert_eq!(d.as_ptr(), b_at);
        assert_eq!(d, msg(4, b"dddd").to_bytes());
        drop(c);
        // The oldest is `a`, still held: at the cap it is let go.
        let e = enc.encode(&msg(5, b"eeee"));
        assert_eq!(enc.sent.len(), 3);
        for id in 6..20 {
            let f = enc.encode(&msg(id, b"ffff"));
            assert_eq!(f, msg(id, b"ffff").to_bytes());
            assert_eq!(enc.sent.len(), 3);
        }
        for (frame, id, body) in [(a, 1, b"aaaa"), (d, 4, b"dddd"), (e, 5, b"eeee")] {
            assert_eq!(
                frame,
                msg(id, body).to_bytes(),
                "held frame {id} was rewritten"
            );
        }
    }

    #[test]
    fn encoded_frames_decode_like_to_bytes_ones() {
        let mut enc = FrameEncoder::new(4);
        let mut f = Framer::new();
        for id in 0..10 {
            let body: &'static [u8] = if id % 2 == 0 {
                b"short"
            } else {
                b"a longer body"
            };
            let m = RpcMessage::new(2, id, Bytes::from_static(body)).with_credits(id as u32);
            let wire = enc.encode(&m);
            assert_eq!(wire, m.to_bytes());
            f.feed(&wire).unwrap();
            assert_eq!(f.next_message().unwrap(), Some(m));
        }
    }

    #[test]
    fn magic_constant_is_zg() {
        assert_eq!(RPC_MAGIC.to_le_bytes(), [0x47, 0x5A]); // "GZ" little-endian.
    }
}
