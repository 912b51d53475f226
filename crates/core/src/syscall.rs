//! Batched system calls and the remote-syscall channel (paper §4.2).
//!
//! ZygOS applications interact with the kernel through FlexSC-style batched
//! system calls: the event handler records its syscalls (principally
//! "send this response on that socket") and the kernel executes the batch
//! after the handler returns. When the handler ran on a **remote** core,
//! the batch is shipped back to the home core over a multi-producer /
//! single-consumer queue, so the TCP TX path executes coherency-free on the
//! home core (step (b) of Figure 4).

use bytes::Bytes;
use zygos_net::flow::ConnId;
use zygos_net::ring::MpscRing;

/// One batched system call.
#[derive(Clone, Debug)]
pub enum BatchedSyscall {
    /// Transmit a fully serialized response on a connection.
    SendMsg { conn: ConnId, wire: Bytes },
}

impl BatchedSyscall {
    /// The connection this syscall operates on.
    pub fn conn(&self) -> ConnId {
        match self {
            BatchedSyscall::SendMsg { conn, .. } => *conn,
        }
    }
}

/// The per-home-core remote-syscall queue.
///
/// Producers: any core that executed a stolen connection homed here.
/// Consumer: the home core (between events, or from its IPI handler).
pub struct RemoteSyscallChannel {
    ring: MpscRing<BatchedSyscall>,
}

impl RemoteSyscallChannel {
    /// Creates a channel with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        RemoteSyscallChannel {
            ring: MpscRing::with_capacity(capacity),
        }
    }

    /// Ships a batch of syscalls home (a `Vec`, or the drain of a buffer
    /// the caller keeps). Spins if momentarily full — the home core is
    /// guaranteed to drain (it executes remote syscalls with
    /// interrupts-priority), so this cannot deadlock.
    pub fn ship(&self, batch: impl IntoIterator<Item = BatchedSyscall>) {
        for mut sc in batch {
            loop {
                match self.ring.push(sc) {
                    Ok(()) => break,
                    Err(back) => {
                        sc = back;
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Home core: drains up to `max` pending remote syscalls.
    pub fn drain(&self, max: usize) -> Vec<BatchedSyscall> {
        let mut out = Vec::new();
        self.drain_into(max, &mut out);
        out
    }

    /// [`drain`](RemoteSyscallChannel::drain) appending to a buffer the
    /// caller keeps; returns how many were appended.
    pub fn drain_into(&self, max: usize, out: &mut Vec<BatchedSyscall>) -> usize {
        let before = out.len();
        while out.len() - before < max {
            match self.ring.pop() {
                Some(sc) => out.push(sc),
                None => break,
            }
        }
        out.len() - before
    }

    /// Racy emptiness check (idle-loop / safepoint probe).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Racy length.
    pub fn len(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// An empty response on `conn`.
    fn send(conn: u32) -> BatchedSyscall {
        BatchedSyscall::SendMsg {
            conn: ConnId(conn),
            wire: Bytes::new(),
        }
    }

    #[test]
    fn ship_and_drain_preserve_order() {
        let ch = RemoteSyscallChannel::with_capacity(16);
        ch.ship([b"a", b"b", b"c"].map(|w| BatchedSyscall::SendMsg {
            conn: ConnId(1),
            wire: Bytes::from_static(w),
        }));
        let got = ch.drain(usize::MAX);
        let wires: Vec<&[u8]> = got
            .iter()
            .map(|BatchedSyscall::SendMsg { wire, .. }| &wire[..])
            .collect();
        assert_eq!(wires, [b"a", b"b", b"c"]);
        assert!(ch.is_empty());
    }

    #[test]
    fn drain_respects_max() {
        let ch = RemoteSyscallChannel::with_capacity(16);
        ch.ship((0..10).map(send));
        assert_eq!(ch.drain(4).len(), 4);
        assert_eq!(ch.len(), 6);
        assert_eq!(ch.drain(usize::MAX).len(), 6);
    }

    #[test]
    fn conn_accessor() {
        assert_eq!(send(3).conn(), ConnId(3));
    }

    #[test]
    fn concurrent_shippers_all_arrive() {
        let ch = Arc::new(RemoteSyscallChannel::with_capacity(64));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let ch = Arc::clone(&ch);
                std::thread::spawn(move || {
                    for i in 0..1_000u32 {
                        ch.ship([send(p * 10_000 + i)]);
                    }
                })
            })
            .collect();
        let ch2 = Arc::clone(&ch);
        let consumer = std::thread::spawn(move || {
            let mut seen = 0;
            while seen < 4_000 {
                let batch = ch2.drain(64);
                seen += batch.len();
                if batch.is_empty() {
                    std::hint::spin_loop();
                }
            }
            seen
        });
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 4_000);
    }
}
