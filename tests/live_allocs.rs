//! Exact allocation count of the live RPC path.
//!
//! A live RPC makes no heap allocation in steady state. Every frame is
//! written into the buffer of a frame its producer received and every view
//! of it dropped: the client port's responses carry its next requests, and
//! a worker's requests (its own, or the ones it stole) carry its
//! responses. The request body reaches the handler as a slice of the
//! received frame, and the echoed body is that same slice. So once each
//! producer holds one free frame more than it sends at once, which a short
//! warm-up gives it, the supply is structural: it does not depend on the
//! most frames ever held at once.
//!
//! Two cases: echo, with connections homed on both workers; and steal,
//! with every connection homed on worker 0 and a spinning handler, so
//! worker 1 serves only by stealing and its responses travel home as
//! remote syscalls. Each case is counted twice after one plain closed-loop
//! warm-up: over 10 k RPCs in 1 k-RPC windows, and then shaped like the
//! reference benchmark's live workloads (`benchmark/src/workload/live.rs`):
//! one warm-up unit, then one counted unit of 40 k echo or 20 k steal RPCs
//! with exponential 10 µs handlers.
//!
//! The counting allocator counts every thread of the process (client and
//! workers), so this binary holds a single test that runs every count in
//! turn: nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use zygos::net::flow::ConnId;
use zygos::net::packet::RpcMessage;
use zygos::runtime::app::{EchoApp, SpinApp};
use zygos::runtime::{ClientPort, RpcApp, RuntimeConfig, Server};
use zygos::sim::dist::ServiceDist;
use zygos::sim::rng::Xoshiro256;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter update
// that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        // Relaxed: a statistic that publishes no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations every thread makes while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    COUNTING.store(false, Ordering::SeqCst);
    allocs
}

const SERVER_CONNS: u32 = 64;
const CONNS: usize = 16;
const OUTSTANDING: u64 = 8;
const WARM_UP: u64 = 1_000;
const WINDOWS: usize = 10;
const WINDOW: u64 = 1_000;
const COUNTED: u64 = WINDOWS as u64 * WINDOW;
/// The steal case's handler time in the windowed count.
const SPIN_NS: u64 = 5_000;
/// RPCs per unit of the benchmark-shaped audit, as in the benchmark.
const ECHO_UNIT: u64 = 40_000;
const STEAL_UNIT: u64 = 20_000;

/// One case: a running server, the connections the client uses, and the
/// request body of each RPC and the response body it expects back (the
/// RPC's index modulo their count picks them).
struct Rig {
    server: Server,
    client: ClientPort,
    conns: Vec<ConnId>,
    bodies: Vec<Bytes>,
    replies: Vec<Bytes>,
}

impl Rig {
    fn send(&self, id: u64) {
        let msg = RpcMessage::new(1, id, self.bodies[id as usize % self.bodies.len()].clone());
        self.client.send(self.conns[id as usize % CONNS], &msg);
    }

    fn recv(&self) -> RpcMessage {
        let (conn, resp) = self
            .client
            .recv_timeout(Duration::from_secs(5))
            .expect("every RPC is answered");
        let id = resp.header.req_id as usize;
        assert_eq!(
            conn,
            self.conns[id % CONNS],
            "answered on another connection"
        );
        assert!(
            resp.body == self.replies[id % self.replies.len()],
            "response body differs"
        );
        resp
    }

    /// Runs RPCs `ids` as a closed loop with [`OUTSTANDING`] in flight,
    /// round-robin over the connections, and returns once every one is
    /// answered (so nothing is in flight on either side of a call). Like
    /// the benchmark's client, it holds each response until it has sent
    /// the next request.
    fn rpcs(&self, ids: Range<u64>) {
        let mut next = ids.start;
        while next < ids.end.min(ids.start + OUTSTANDING) {
            self.send(next);
            next += 1;
        }
        for _ in ids.clone() {
            let _held = self.recv();
            if next < ids.end {
                self.send(next);
                next += 1;
            }
        }
    }

    /// Counts the allocations of [`COUNTED`] RPCs after a [`WARM_UP`]-RPC
    /// warm-up, per window of [`WINDOW`] so a failure shows whether the
    /// excess is spread over every window (a regression on the per-RPC
    /// path) or sits in one (a buffer that grew once, under some
    /// schedule). Also returns the events stolen while counting.
    fn windows(&self) -> ([u64; WINDOWS], u64) {
        self.rpcs(0..WARM_UP);
        let stolen = self.stolen();
        let mut per_window = [0; WINDOWS];
        for (w, count) in per_window.iter_mut().enumerate() {
            let start = WARM_UP + w as u64 * WINDOW;
            *count = counted(|| self.rpcs(start..start + WINDOW));
        }
        (per_window, self.stolen() - stolen)
    }

    /// The benchmark's audit: one warm-up unit of `unit` RPCs, then the
    /// allocations of one counted unit, and the events stolen in it.
    fn audit(&self, unit: u64) -> (u64, u64) {
        let first = WARM_UP + COUNTED;
        self.rpcs(first..first + unit);
        let stolen = self.stolen();
        let allocs = counted(|| self.rpcs(first + unit..first + 2 * unit));
        (allocs, self.stolen() - stolen)
    }

    fn stolen(&self) -> u64 {
        self.server.stats().stolen_events
    }
}

fn start(
    app: Arc<dyn RpcApp>,
    pick_conns: impl FnOnce(&Server) -> Vec<ConnId>,
    bodies: Vec<Bytes>,
    replies: Vec<Bytes>,
) -> Rig {
    let (server, client) = Server::start(RuntimeConfig::zygos(2, SERVER_CONNS), app);
    let conns = pick_conns(&server);
    assert_eq!(conns.len(), CONNS, "too few connections homed as needed");
    Rig {
        server,
        client,
        conns,
        bodies,
        replies,
    }
}

/// Echo of 64-byte bodies on connections homed on both workers: the
/// windowed count and the audit.
fn echo_case() -> ([u64; WINDOWS], u64) {
    let bodies: Vec<Bytes> = (0..CONNS).map(|c| Bytes::from(vec![c as u8; 64])).collect();
    let rig = start(
        Arc::new(EchoApp),
        |_| (0..CONNS as u32).map(ConnId).collect(),
        bodies.clone(),
        bodies,
    );
    let (windows, _) = rig.windows();
    let (audit, _) = rig.audit(ECHO_UNIT);
    rig.server.shutdown();
    (windows, audit)
}

/// Every connection homed on worker 0 and a spinning handler, so worker 1
/// serves by stealing: the windowed count with [`SPIN_NS`] handlers, and
/// the audit with exponential 10 µs ones. Also returns the events stolen
/// while counting each.
fn steal_case() -> ([u64; WINDOWS], u64, u64, u64) {
    let on_worker_0 = |server: &Server| {
        (0..SERVER_CONNS)
            .map(ConnId)
            .filter(|&c| server.home_of(c) == 0)
            .take(CONNS)
            .collect()
    };
    let spin = Bytes::copy_from_slice(&SPIN_NS.to_le_bytes());
    let mut rig = start(
        Arc::new(SpinApp),
        on_worker_0,
        vec![spin],
        vec![Bytes::new()],
    );
    let (windows, stolen_windows) = rig.windows();
    let dist = ServiceDist::exponential_us(10.0);
    let mut rng = Xoshiro256::new(7);
    rig.bodies = (0..STEAL_UNIT)
        .map(|_| {
            let ns = (dist.sample_us(&mut rng) * 1e3) as u64;
            Bytes::copy_from_slice(&ns.to_le_bytes())
        })
        .collect();
    let (audit, stolen_audit) = rig.audit(STEAL_UNIT);
    rig.server.shutdown();
    (windows, audit, stolen_windows, stolen_audit)
}

#[test]
fn live_rpcs_allocate_nothing() {
    let (echo, echo_audit) = echo_case();
    let (steal, steal_audit, stolen_windows, stolen_audit) = steal_case();
    // Over the windows, fixed 5 µs handlers have had from none to
    // thousands of events stolen, as the client and two workers share the
    // CPUs; the audit's exponential handlers always have thousands.
    assert!(
        stolen_windows + stolen_audit > 0,
        "worker 1 never stole: the steal case counts nothing"
    );
    assert!(
        echo == [0; WINDOWS] && steal == [0; WINDOWS],
        "allocations per {WINDOW}-RPC window over {COUNTED} RPCs, expected none: \
         echo {echo:?}, steal {steal:?} ({stolen_windows} events stolen)"
    );
    assert!(
        echo_audit == 0 && steal_audit == 0,
        "allocations in one counted benchmark unit, expected none: \
         echo {echo_audit} in {ECHO_UNIT} RPCs, steal {steal_audit} in {STEAL_UNIT} \
         ({stolen_audit} events stolen)"
    );
}
