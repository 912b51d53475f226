//! Network substrate for the ZygOS reproduction.
//!
//! The original system runs on Intel 82599 10GbE NICs driven by DPDK with
//! an lwIP TCP/IP stack. Neither is available (or meaningful) in this
//! environment, so this crate provides the equivalent substrate the
//! scheduler actually interacts with:
//!
//! * [`flow`] — flows, five-tuples and connection identifiers.
//! * [`rss`] — receive-side scaling: a faithful Toeplitz hash plus the
//!   128-entry indirection table used to map flows to hardware queues.
//! * [`packet`] — packets and the RPC wire format used by all workloads
//!   (20-byte header: magic, opcode, request id, body length, and the
//!   credit grant servers piggyback on responses for sender-side
//!   admission control).
//! * [`ring`] — the lock-free bounded ring under the ingress rings, the
//!   remote-syscall channels and the response queue.
//! * [`wire`] — byte-stream framing (the "TCP byte stream" of §6.2: the
//!   kernel does not know request boundaries until the framer finds them).
//! * [`tcp`] — a minimal TCP-like protocol control block: per-connection
//!   receive reassembly and transmit queue, as seen by the scheduler.
//! * [`cost`] — the calibrated cost model: every per-operation overhead the
//!   system simulator charges, documented against the paper's reported
//!   efficiencies (the Fig 3 calibration targets in `docs/FIGURES.md`).

pub mod cost;
pub mod flow;
pub mod packet;
pub mod ring;
pub mod rss;
pub mod tcp;
pub mod wire;

pub use cost::CostModel;
pub use flow::{ConnId, FiveTuple};
pub use packet::{Packet, RpcHeader};
pub use ring::MpscRing;
pub use rss::Rss;
