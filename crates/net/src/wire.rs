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
//! Transmit reuses buffers: a [`FrameStack`] writes each frame into the
//! buffer of a frame its producer received once every view of it is
//! dropped, so a producer whose frames circulate allocates nothing in
//! steady state.
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

use bytes::{Buf, Bytes, BytesMut};

use crate::packet::{FrameError, RpcHeader, RpcMessage, RPC_HEADER_LEN};

/// Incremental frame decoder for one connection's receive stream.
///
/// The stream it has been fed and not yet handed out is `buf` followed by
/// `seg`. A body handed out as a slice of a segment keeps that whole
/// segment alive for as long as the body lives. The framer itself keeps
/// the last segment fed alive only until every byte of it is handed out,
/// so once a whole frame's body is dropped nothing views the frame.
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
        if self.seg.is_empty() {
            // Spent: let it go without waiting for the next feed.
            self.seg = Bytes::new();
        }
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

/// Most frames a [`FrameStack`] keeps; past that the oldest is let go.
const KEPT_FRAMES: usize = 32;

/// The frames a producer received, kept to carry the frames it sends.
///
/// The client keeps its responses, a worker the requests it runs, and
/// each encodes into the newest kept frame that [`Bytes::is_unique`]
/// proves nothing else views, so a receiver never sees its frame change.
/// The last views of a received frame drop on the thread that received
/// it, so that proof reads a count already in the thread's cache.
///
/// ```
/// use bytes::Bytes;
/// use zygos_net::packet::RpcMessage;
/// use zygos_net::wire::FrameStack;
///
/// let mut frames = FrameStack::default();
/// let request = RpcMessage::new(1, 1, Bytes::from_static(b"hi")).to_bytes();
/// let at = request.as_ptr();
/// frames.keep(request); // Received, handled and dropped ...
/// let reply = frames.encode(&RpcMessage::new(1, 1, Bytes::from_static(b"yo")));
/// assert_eq!(reply.as_ptr(), at); // ... so its buffer carries the reply.
/// ```
#[derive(Default)]
pub struct FrameStack {
    /// Received frames, oldest first.
    kept: Vec<Bytes>,
}

impl FrameStack {
    /// Keeps a received frame, or any view of it, for reuse once its
    /// views drop. An empty view need not hold a buffer: it is not kept.
    pub fn keep(&mut self, frame: Bytes) {
        if !frame.is_empty() {
            if self.kept.len() == KEPT_FRAMES {
                self.kept.remove(0);
            }
            self.kept.push(frame);
        }
    }

    /// Serializes header + body, as [`RpcMessage::to_bytes`] does, into
    /// the newest kept frame nothing else views, else a fresh buffer.
    pub fn encode(&mut self, msg: &RpcMessage) -> Bytes {
        let at = self.kept.iter().rposition(Bytes::is_unique);
        let mut buf = at
            .and_then(|at| self.kept.remove(at).try_into_mut().ok())
            .unwrap_or_default();
        buf.clear();
        buf.reserve(msg.wire_len());
        msg.header.encode(&mut buf);
        buf.extend_from_slice(&msg.body);
        buf.freeze()
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
    fn a_spent_segment_is_let_go_at_once() {
        let wire = pipelined(1..3, b"zz");
        let mut f = Framer::new();
        f.feed(&wire).unwrap();
        drop(f.next_message().unwrap());
        let two = f.next_message().unwrap();
        assert!(!wire.is_unique(), "frame 2's body views the segment");
        drop(two);
        assert!(wire.is_unique(), "the framer still holds a spent segment");
    }

    #[test]
    fn frames_circulate_and_a_viewed_one_is_never_rewritten() {
        // Requests ride in replies and replies in requests, whichever is
        // longer; a frame still viewed is skipped, then reused once free.
        let (mut client, mut server) = (FrameStack::default(), FrameStack::default());
        let mut f = Framer::new();
        let mut held = Vec::new();
        for id in 0..10 {
            let body: &'static [u8] = if id % 3 == 0 {
                b"longer body"
            } else {
                b"short"
            };
            let req = RpcMessage::new(2, id, Bytes::from_static(body)).with_credits(7);
            let wire = client.encode(&req);
            assert_eq!(wire, req.to_bytes());
            f.feed(&wire).unwrap();
            drop(wire);
            let got = f.next_message().unwrap().unwrap();
            assert_eq!(got, req);
            let reply = server.encode(&RpcMessage::new(3, id, got.body.clone()));
            server.keep(got.body);
            assert_eq!(server.kept.len(), 1, "each reply rides in the last request");
            held.push((id, body, reply.clone()));
            client.keep(reply);
            if id % 2 == 0 {
                held.pop(); // Odd replies stay viewed.
            }
        }
        assert_eq!(client.kept.len(), 5, "even replies carried requests");
        for (id, body, reply) in held {
            assert_eq!(
                reply,
                RpcMessage::new(3, id, Bytes::from_static(body)).to_bytes()
            );
        }
        // Empty views are not kept; past the cap the oldest is let go.
        client.keep(Bytes::new());
        let frames: Vec<Bytes> = (0..40).map(|id| msg(id, b"f").to_bytes()).collect();
        frames.iter().for_each(|f| client.keep(f.clone()));
        assert_eq!(client.kept.len(), KEPT_FRAMES);
        assert_eq!(client.kept[0].as_ptr(), frames[8].as_ptr());
    }

    #[test]
    fn magic_constant_is_zg() {
        assert_eq!(RPC_MAGIC.to_le_bytes(), [0x47, 0x5A]); // "GZ" little-endian.
    }
}
