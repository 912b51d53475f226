//! The ZygOS scheduling machinery (paper §4–§5).
//!
//! This crate implements the paper's contribution as reusable, real
//! concurrent data structures:
//!
//! * [`spinlock`] — a TATAS spinlock with `try_lock` (remote cores must
//!   never block on a steal attempt; §5 "Remote cores rely on trylock").
//! * [`shuffle`] — the **shuffle layer**: one single-producer /
//!   multi-consumer shuffle queue per core holding *ready connections*,
//!   plus the per-connection `idle → ready → busy` state machine that
//!   provides exclusive socket ownership and therefore per-connection
//!   ordering under stealing (§4.3, §4.4, Figure 5).
//! * [`syscall`] — batched system calls and the remote-syscall channel that
//!   ships a stealing core's syscalls back to the home core (§4.2 step b).
//! * [`idle`] — the idle-loop polling policy: own NIC ring first, then
//!   randomized sweeps of remote shuffle queues, software queues and NIC
//!   rings (§5 "Idle loop polling logic"), and the sleeper set that lets a
//!   worker which parks instead of polling be woken when stealable work
//!   appears.
//! * [`doorbell`] — the IPI substitute for the live runtime: an atomic
//!   doorbell with reason bits plus an unpark hook (§4.5; delivery is a
//!   *hint*, tolerated to be lost or late, exactly like the paper's
//!   exit-less IPIs).
//! * [`stats`] — steal/IPI/event counters aggregated across cores
//!   (Figure 8's "steals per event" metric).
//!
//! The live runtime (`zygos-runtime`) drives these structures with real
//! threads; the system simulator (`zygos-sysim`) models their costs on a
//! virtual 16-core machine.

/// The line size the per-core and per-connection structures that other
/// cores write are aligned and padded to: two 64-byte lines, since x86's
/// adjacent-line prefetcher fetches lines in pairs (the size
/// `crossbeam`'s `CachePadded` uses there too). A `#[repr(align)]` takes
/// only a literal, so each such type spells it out and a unit test pins
/// it to this constant.
#[cfg(test)]
const CACHE_LINE: usize = 128;

pub mod doorbell;
pub mod idle;
pub mod shuffle;
pub mod spinlock;
pub mod stats;
pub mod syscall;

pub use doorbell::{Doorbell, IpiReason, IpiReasons};
pub use idle::SleeperSet;
pub use shuffle::{ConnState, FinishOutcome, ShuffleLayer};
pub use spinlock::SpinLock;
pub use stats::{CoreStats, StatsSnapshot};
pub use syscall::{BatchedSyscall, RemoteSyscallChannel};
