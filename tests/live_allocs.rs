//! Exact allocation count of the live RPC path.
//!
//! A live RPC makes no heap allocation in steady state. The client port
//! and every worker encode each frame they send (request, response,
//! stolen response shipped home) into the buffer of a frame they sent
//! earlier that every receiver has dropped. The request body reaches the
//! handler as a slice of the received segment, and the echoed body is
//! that same slice.
//!
//! Two cases, each counted over 10 k RPCs in 1 k-RPC windows: echo, with
//! connections homed on both workers; and steal, with every connection
//! homed on worker 0 and a spinning handler, so worker 1 serves only by
//! stealing and its responses travel home as remote syscalls.
//!
//! The counting allocator counts every thread of the process (client and
//! workers), so this binary holds a single test that runs both cases in
//! turn: nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos::net::flow::ConnId;
use zygos::net::packet::RpcMessage;
use zygos::runtime::app::{EchoApp, SpinApp};
use zygos::runtime::{ClientPort, RpcApp, RuntimeConfig, Server};

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

const SERVER_CONNS: u32 = 64;
const CONNS: usize = 16;
const OUTSTANDING: u64 = 8;
/// Requests sent at once during warm-up, all answered before any is read.
const BURST: u64 = 256;
/// Most warm-up bursts before the steal case gives up on its thief.
const MAX_BURSTS: usize = 50;
const WARM_UP: u64 = 1_000;
const WINDOWS: usize = 10;
const WINDOW: u64 = 1_000;
const COUNTED: u64 = WINDOWS as u64 * WINDOW;
/// The steal case's handler time.
const SPIN_NS: u64 = 5_000;

/// One case: a running server, the connections the client uses, and the
/// request body of each and the response body it expects back.
struct Rig {
    server: Server,
    client: ClientPort,
    conns: Vec<ConnId>,
    bodies: Vec<Bytes>,
    replies: Vec<Bytes>,
}

impl Rig {
    fn send(&self, id: u64) {
        let i = id as usize % CONNS;
        let msg = RpcMessage::new(1, id, self.bodies[i].clone());
        self.client.send(self.conns[i], &msg);
    }

    fn recv(&self) -> RpcMessage {
        let (conn, resp) = self
            .client
            .recv_timeout(Duration::from_secs(5))
            .expect("every RPC is answered");
        let i = resp.header.req_id as usize % CONNS;
        assert_eq!(conn, self.conns[i], "answered on another connection");
        assert!(resp.body == self.replies[i], "response body differs");
        resp
    }

    /// Runs RPCs `ids` as a closed loop with [`OUTSTANDING`] in flight,
    /// round-robin over the connections, and returns once every one is
    /// answered (so nothing is in flight on either side of a call).
    fn rpcs(&self, ids: Range<u64>) {
        let mut next = ids.start;
        while next < ids.end.min(ids.start + OUTSTANDING) {
            self.send(next);
            next += 1;
        }
        for _ in ids.clone() {
            self.recv();
            if next < ids.end {
                self.send(next);
                next += 1;
            }
        }
    }

    /// Grows every buffer to the most it ever holds at once. The closed
    /// loop never has more than [`OUTSTANDING`] requests in flight, so
    /// it never queues more than that many events on one connection or
    /// keeps more than that many frames of one kind held. A burst of
    /// [`BURST`] requests, sent one connection after another so each
    /// connection's events queue up together, and whose responses are
    /// all queued and then all held at once, goes past both, provided
    /// each encoder produced enough of the responses: bursts repeat until
    /// one has `min_stolen` of its responses made by a thief. The loop
    /// then runs [`WARM_UP`] RPCs. Returns the next request id.
    fn warm_up(&self, min_stolen: u64) -> u64 {
        let per_conn = BURST / CONNS as u64;
        let mut next = 0;
        for _ in 0..MAX_BURSTS {
            let stolen_before = self.server.stats().stolen_events;
            for conn in 0..CONNS as u64 {
                for k in 0..per_conn {
                    self.send(next + k * CONNS as u64 + conn);
                }
            }
            next += BURST;
            let deadline = Instant::now() + Duration::from_secs(10);
            while (self.client.pending_responses() as u64) < BURST {
                assert!(
                    Instant::now() < deadline,
                    "warm-up responses did not arrive"
                );
                std::thread::yield_now();
            }
            let held: Vec<RpcMessage> = (0..BURST).map(|_| self.recv()).collect();
            drop(held);
            if self.server.stats().stolen_events - stolen_before >= min_stolen {
                self.rpcs(next..next + WARM_UP);
                return next + WARM_UP;
            }
        }
        panic!("no burst of {MAX_BURSTS} had {min_stolen} of its events stolen");
    }

    /// Warms up, then counts the allocations of [`COUNTED`] RPCs, per
    /// window of [`WINDOW`] so a failure shows whether the excess is
    /// spread over every window (a regression on the per-RPC path) or
    /// sits in one (a buffer that grew once, under some schedule). Also
    /// returns how many events were stolen meanwhile.
    fn count(&self, min_stolen: u64) -> ([u64; WINDOWS], u64) {
        let first = self.warm_up(min_stolen);
        let stolen_before = self.server.stats().stolen_events;
        let mut per_window = [0u64; WINDOWS];
        COUNTING.store(true, Ordering::SeqCst);
        for (w, count) in per_window.iter_mut().enumerate() {
            let start = first + w as u64 * WINDOW;
            let before = ALLOCS.load(Ordering::SeqCst);
            self.rpcs(start..start + WINDOW);
            *count = ALLOCS.load(Ordering::SeqCst) - before;
        }
        COUNTING.store(false, Ordering::SeqCst);
        let stolen = self.server.stats().stolen_events - stolen_before;
        (per_window, stolen)
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

/// Echo on connections homed on both workers.
fn echo_case() -> [u64; WINDOWS] {
    let bodies: Vec<Bytes> = (0..CONNS).map(|c| Bytes::from(vec![c as u8; 64])).collect();
    let rig = start(
        Arc::new(EchoApp),
        |_| (0..CONNS as u32).map(ConnId).collect(),
        bodies.clone(),
        bodies,
    );
    let (per_window, _) = rig.count(0);
    rig.server.shutdown();
    per_window
}

/// Every connection homed on worker 0 and a spinning handler: worker 1
/// serves by stealing. Also returns the events stolen while counting.
fn steal_case() -> ([u64; WINDOWS], u64) {
    let spin = Bytes::copy_from_slice(&SPIN_NS.to_le_bytes());
    let rig = start(
        Arc::new(SpinApp),
        |server| {
            (0..SERVER_CONNS)
                .map(ConnId)
                .filter(|&c| server.home_of(c) == 0)
                .take(CONNS)
                .collect()
        },
        vec![spin; CONNS],
        vec![Bytes::new(); CONNS],
    );
    let counted = rig.count(4 * OUTSTANDING);
    rig.server.shutdown();
    counted
}

#[test]
fn live_rpcs_allocate_nothing() {
    let echo = echo_case();
    let (steal, stolen) = steal_case();
    assert!(
        stolen > 0,
        "worker 1 never stole: the steal case counts nothing"
    );
    assert!(
        echo == [0; WINDOWS] && steal == [0; WINDOWS],
        "allocations per {WINDOW}-RPC window over {COUNTED} RPCs, expected none: \
         echo {echo:?}, steal {steal:?} ({stolen} events stolen)"
    );
}
