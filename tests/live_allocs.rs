//! Exact allocation count of the live RPC path.
//!
//! An echo RPC through the live runtime makes two heap allocations: the
//! client's request frame and the server's response frame. The request
//! body reaches the handler as a slice of the received segment, and the
//! echoed body is that same slice.
//!
//! This is its own test binary with a single test, so nothing else
//! allocates while the counting allocator is on; every thread of the
//! process (client and workers) is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zygos::net::flow::ConnId;
use zygos::net::packet::RpcMessage;
use zygos::runtime::app::EchoApp;
use zygos::runtime::{ClientPort, RuntimeConfig, Server};

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

const CONNS: usize = 16;
const OUTSTANDING: u64 = 8;
const BODY_LEN: usize = 64;
const WARM_UP: u64 = 1_000;
const WINDOWS: usize = 10;
const WINDOW: u64 = 1_000;
const COUNTED: u64 = WINDOWS as u64 * WINDOW;

fn send(client: &ClientPort, bodies: &[Bytes], id: u64) {
    let conn = id as usize % CONNS;
    let msg = RpcMessage::new(1, id, bodies[conn].clone());
    client.send(ConnId(conn as u32), &msg);
}

fn recv(client: &ClientPort, bodies: &[Bytes]) {
    let (conn, resp) = client
        .recv_timeout(Duration::from_secs(5))
        .expect("every echo RPC is answered");
    assert!(resp.body == bodies[conn.index()], "echoed body differs");
}

/// Runs RPCs `ids` as a closed loop with [`OUTSTANDING`] in flight,
/// round-robin over the connections, and returns once every one is
/// answered (so nothing is in flight on either side of a call).
fn echo_rpcs(client: &ClientPort, bodies: &[Bytes], ids: Range<u64>) {
    let mut next = ids.start;
    while next < ids.end.min(ids.start + OUTSTANDING) {
        send(client, bodies, next);
        next += 1;
    }
    for _ in ids.clone() {
        recv(client, bodies);
        if next < ids.end {
            send(client, bodies, next);
            next += 1;
        }
    }
}

#[test]
fn echo_rpc_makes_two_allocations() {
    let (server, client) = Server::start(RuntimeConfig::zygos(2, 64), Arc::new(EchoApp));
    let bodies: Vec<Bytes> = (0..CONNS)
        .map(|c| Bytes::from(vec![c as u8; BODY_LEN]))
        .collect();
    // Buffers grow to the most they ever hold at once. The closed loop
    // never queues more than OUTSTANDING responses for the client, so let
    // that many queue up once, before the loop starts.
    for id in 0..OUTSTANDING {
        send(&client, &bodies, id);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while (client.pending_responses() as u64) < OUTSTANDING {
        assert!(
            Instant::now() < deadline,
            "warm-up responses did not arrive"
        );
        std::thread::yield_now();
    }
    for _ in 0..OUTSTANDING {
        recv(&client, &bodies);
    }
    echo_rpcs(&client, &bodies, OUTSTANDING..WARM_UP);

    // Counted in windows, so a failure shows whether the excess is spread
    // over every window (a regression on the per-RPC path) or sits in one
    // (a buffer that grew once, under some schedule).
    let mut per_window = [0u64; WINDOWS];
    COUNTING.store(true, Ordering::SeqCst);
    for (w, count) in per_window.iter_mut().enumerate() {
        let start = WARM_UP + w as u64 * WINDOW;
        let before = ALLOCS.load(Ordering::SeqCst);
        echo_rpcs(&client, &bodies, start..start + WINDOW);
        *count = ALLOCS.load(Ordering::SeqCst) - before;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    server.shutdown();
    assert_eq!(
        allocs,
        2 * COUNTED,
        "{allocs} allocations over {COUNTED} echo RPCs; expected exactly two each \
         (request frame, response frame). Per {WINDOW}-RPC window: {per_window:?}"
    );
}
