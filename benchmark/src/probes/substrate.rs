//! `net::{ring, wire}` and `core::{shuffle, syscall, doorbell, spinlock}`:
//! the live substrate's per-operation costs, single-threaded.

use std::hint::black_box;

use bytes::Bytes;
use zygos_core::{
    BatchedSyscall, Doorbell, IpiReason, RemoteSyscallChannel, ShuffleLayer, SpinLock,
};
use zygos_net::flow::ConnId;
use zygos_net::packet::{Packet, RpcMessage};
use zygos_net::ring::MpscRing;
use zygos_net::wire::Framer;
use zygos_sim::rng::Xoshiro256;

use super::{ns_per_call, Scale, Values};
use crate::alloc;

const CONNS: u32 = 16;

pub fn probe(seed: u64, scale: Scale, v: &mut Values) {
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let mut rng = Xoshiro256::new(seed);
    let body: Vec<u8> = (0..8)
        .flat_map(|_| rng.next_u64_raw().to_le_bytes())
        .collect();
    let body = Bytes::from(body); // 64 bytes, as `live-echo` sends.
    let wire = RpcMessage::new(1, 0, body.clone()).to_bytes();

    // net
    let ring: MpscRing<Packet> = MpscRing::with_capacity(4_096);
    put(
        "net.ring.mpsc_push_pop_ns",
        ns_per_call(scale, |n| {
            for i in 0..n as u32 {
                let pushed = ring.push(Packet::new(ConnId(i % CONNS), wire.clone()));
                assert!(pushed.is_ok(), "the ring never fills: every push is popped");
                black_box(ring.pop());
            }
        }),
    );
    put(
        "net.wire.encode_ns",
        ns_per_call(scale, |n| {
            for i in 0..n as u64 {
                black_box(RpcMessage::new(1, i, black_box(&body).clone()).to_bytes());
            }
        }),
    );
    let mut framer = Framer::new();
    let mut decode = |n: usize| {
        for _ in 0..n {
            framer.feed(black_box(&wire)).expect("well-formed frame");
            let msg = framer.next_message().expect("well-formed frame");
            assert!(black_box(msg).is_some(), "one frame in, one message out");
        }
    };
    put("net.wire.frame_decode_ns", ns_per_call(scale, &mut decode));
    let ((), allocs) = alloc::counted(|| {
        for i in 0..scale.calls as u64 {
            black_box(RpcMessage::new(1, i, body.clone()).to_bytes());
        }
        decode(scale.calls);
    });
    put(
        "net.wire.allocs_per_msg",
        allocs as f64 / scale.calls as f64,
    );

    // core::shuffle — one event through a connection homed on core 0,
    // dequeued by its home core or stolen by core 1.
    let mut shuffle: ShuffleLayer<u64> = ShuffleLayer::new(2);
    let conns: Vec<ConnId> = (0..CONNS).map(|_| shuffle.register(0)).collect();
    let cycle = |n: usize, steal: bool| {
        for i in 0..n {
            shuffle.produce(conns[i % conns.len()], i as u64);
            let conn = if steal {
                shuffle.try_steal(0)
            } else {
                shuffle.dequeue_local(0)
            }
            .expect("the event just produced is ready");
            black_box(shuffle.take_events(conn, usize::MAX));
            black_box(shuffle.finish(conn));
        }
    };
    put(
        "core.shuffle.local_cycle_ns",
        ns_per_call(scale, |n| cycle(n, false)),
    );
    put(
        "core.shuffle.steal_cycle_ns",
        ns_per_call(scale, |n| cycle(n, true)),
    );
    let ((), allocs) = alloc::counted(|| cycle(scale.calls, false));
    put(
        "core.shuffle.allocs_per_cycle",
        allocs as f64 / scale.calls as f64,
    );

    // core::syscall — one response shipped home and drained there.
    let channel = RemoteSyscallChannel::with_capacity(1_024);
    put(
        "core.syscall.ship_drain_ns",
        ns_per_call(scale, |n| {
            for i in 0..n as u32 {
                channel.ship(vec![BatchedSyscall::SendMsg {
                    conn: ConnId(i % CONNS),
                    wire: wire.clone(),
                }]);
                black_box(channel.drain(64));
            }
        }),
    );
    // No thread is registered, so this is the IPI's bookkeeping without
    // the wake-up (`runtime.pingpong_rtt_us` has the wake-up).
    let doorbell = Doorbell::new();
    put(
        "core.doorbell.ring_take_ns",
        ns_per_call(scale, |n| {
            for _ in 0..n {
                black_box(doorbell.ring(IpiReason::RemoteSyscalls));
                black_box(doorbell.take());
            }
        }),
    );
    let lock = SpinLock::new(0u64);
    put(
        "core.spinlock.lock_unlock_ns",
        ns_per_call(scale, |n| {
            for _ in 0..n {
                *black_box(&lock).lock() += 1;
            }
        }),
    );
}
