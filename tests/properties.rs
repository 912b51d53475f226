//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use zygos::net::flow::FiveTuple;
use zygos::net::packet::RpcMessage;
use zygos::net::rss::Rss;
use zygos::net::wire::Framer;
use zygos::sim::stats::LatencyHistogram;

proptest! {
    /// The framer reassembles any message sequence under any segmentation.
    #[test]
    fn framer_handles_arbitrary_segmentation(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..20),
        cuts in proptest::collection::vec(1usize..64, 0..64),
    ) {
        let msgs: Vec<RpcMessage> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| RpcMessage::new(1, i as u64, bytes::Bytes::from(b.clone())))
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.to_bytes());
        }
        let wire = bytes::Bytes::from(wire);
        // Segment the stream at the proposed cut sizes (cycled): frames
        // whole inside a segment are sliced out of it, the rest reassembled.
        let mut framer = Framer::new();
        let mut out = Vec::new();
        let mut seg_ends = Vec::new();
        let mut off = 0;
        let mut cut_idx = 0;
        while off < wire.len() {
            let step = if cuts.is_empty() {
                wire.len()
            } else {
                cuts[cut_idx % cuts.len()]
            };
            cut_idx += 1;
            let end = (off + step).min(wire.len());
            framer.feed(&wire.slice(off..end)).unwrap();
            out.extend(framer.drain().unwrap());
            seg_ends.push(end);
            off = end;
        }
        prop_assert_eq!(out.len(), msgs.len());
        prop_assert_eq!(framer.pending_bytes(), 0);
        let in_wire = wire.as_ptr_range();
        let mut frame_start = 0;
        for (got, want) in out.iter().zip(&msgs) {
            prop_assert_eq!(got.header.req_id, want.header.req_id);
            prop_assert_eq!(&got.body[..], &want.body[..]);
            // Drained after every segment, a frame is sliced out of the
            // stream exactly when no segment boundary falls inside it.
            let frame_end = frame_start + want.wire_len();
            let whole = !seg_ends.iter().any(|&e| frame_start < e && e < frame_end);
            if !got.body.is_empty() {
                prop_assert_eq!(in_wire.contains(&got.body.as_ptr()), whole);
            }
            frame_start = frame_end;
        }
    }

    /// Histogram quantiles are within bucket precision of exact order
    /// statistics, for arbitrary value sets.
    #[test]
    fn histogram_quantiles_match_exact(
        mut values in proptest::collection::vec(0u64..1_000_000_000, 10..500),
        q in 0.01f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record_nanos(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = h.value_at_quantile(q);
        prop_assert!(est >= exact, "q={}: est {} < exact {}", q, est, exact);
        prop_assert!(
            est as f64 <= exact as f64 * 1.002 + 2.0,
            "q={}: est {} too far above exact {}", q, est, exact
        );
    }

    /// Histogram merge is equivalent to recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec(0u64..10_000_000, 0..200),
        b in proptest::collection::vec(0u64..10_000_000, 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &v in &a { ha.record_nanos(v); hu.record_nanos(v); }
        for &v in &b { hb.record_nanos(v); hu.record_nanos(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.max_nanos(), hu.max_nanos());
        for q in [0.25, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
        }
    }

    /// RSS is a pure function: same tuple, same queue — and queues are in
    /// range for any tuple and queue count.
    #[test]
    fn rss_mapping_is_stable_and_bounded(
        src_ip in any::<u32>(), src_port in any::<u16>(),
        dst_ip in any::<u32>(), dst_port in any::<u16>(),
        queues in 1usize..64,
    ) {
        let rss = Rss::new(queues);
        let t = FiveTuple::tcp(src_ip, src_port, dst_ip, dst_port);
        let q1 = rss.queue_for(&t);
        let q2 = rss.queue_for(&t);
        prop_assert_eq!(q1, q2);
        prop_assert!(q1 < queues);
    }
}

/// Sequential model check of the shuffle layer: random produce / dequeue /
/// steal / finish sequences against a reference model.
#[test]
fn shuffle_layer_matches_reference_model() {
    use zygos::core::shuffle::{ConnState, FinishOutcome, ShuffleLayer};
    use zygos::sim::rng::Xoshiro256;

    const CORES: usize = 3;
    const CONNS: usize = 9;

    let mut layer = ShuffleLayer::new(CORES);
    let conns: Vec<_> = (0..CONNS).map(|i| layer.register(i % CORES)).collect();

    // Reference model.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum MState {
        Idle,
        Ready,
        Busy,
    }
    let mut mstate = [MState::Idle; CONNS];
    let mut mqueues: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); CORES];
    let mut mevents = vec![std::collections::VecDeque::new(); CONNS];
    let mut owned: Vec<usize> = Vec::new();

    let mut rng = Xoshiro256::new(2024);
    let mut next_event = 0u64;
    for _ in 0..20_000 {
        match rng.next_bounded(4) {
            0 => {
                // produce on a random connection.
                let c = rng.next_bounded(CONNS as u64) as usize;
                let became_ready = layer.produce(conns[c], next_event);
                mevents[c].push_back(next_event);
                next_event += 1;
                let expect = mstate[c] == MState::Idle;
                assert_eq!(became_ready, expect, "produce transition");
                if expect {
                    mstate[c] = MState::Ready;
                    mqueues[c % CORES].push_back(c);
                }
            }
            1 => {
                // dequeue_local on a random core.
                let core = rng.next_bounded(CORES as u64) as usize;
                let got = layer.dequeue_local(core);
                let expect = mqueues[core].pop_front();
                assert_eq!(got.map(|c| c.index()), expect, "dequeue result");
                if let Some(c) = expect {
                    mstate[c] = MState::Busy;
                    owned.push(c);
                }
            }
            2 => {
                // steal from a random victim.
                let victim = rng.next_bounded(CORES as u64) as usize;
                let got = layer.try_steal(victim);
                let expect = mqueues[victim].pop_front();
                assert_eq!(got.map(|c| c.index()), expect, "steal result");
                if let Some(c) = expect {
                    mstate[c] = MState::Busy;
                    owned.push(c);
                }
            }
            _ => {
                // take events + finish an owned connection.
                if let Some(pos) =
                    (!owned.is_empty()).then(|| rng.next_bounded(owned.len() as u64) as usize)
                {
                    let c = owned.swap_remove(pos);
                    let events = layer.take_events(conns[c], usize::MAX);
                    let expect: Vec<u64> = mevents[c].drain(..).collect();
                    assert_eq!(events, expect, "event order");
                    let outcome = layer.finish(conns[c]);
                    // No events can arrive while we hold it (sequential
                    // test), so it must go idle.
                    assert_eq!(outcome, FinishOutcome::Idle);
                    mstate[c] = MState::Idle;
                }
            }
        }
        // Invariant: queue lengths agree.
        for (core, mq) in mqueues.iter().enumerate() {
            assert_eq!(layer.queue_len(core), mq.len());
        }
    }
    // Final states agree.
    for c in 0..CONNS {
        let expect = match mstate[c] {
            MState::Idle => ConnState::Idle,
            MState::Ready => ConnState::Ready,
            MState::Busy => ConnState::Busy,
        };
        assert_eq!(layer.state_of(conns[c]), expect, "final state of {c}");
    }
}

/// Observation 1 as a property over distributions: centralized FCFS never
/// loses to partitioned FCFS by more than simulation noise.
#[test]
fn centralized_dominates_partitioned_across_distributions() {
    use zygos::sim::dist::ServiceDist;
    use zygos::sim::queueing::{simulate, Policy, QueueConfig};
    for service in [
        ServiceDist::deterministic_us(1.0),
        ServiceDist::exponential_us(1.0),
        ServiceDist::bimodal1_us(1.0),
        ServiceDist::lognormal_us(1.0, 2.0),
    ] {
        for load in [0.3, 0.6, 0.8] {
            let run = |policy| {
                simulate(&QueueConfig {
                    servers: 16,
                    load,
                    service: service.clone(),
                    policy,
                    requests: 30_000,
                    seed: 5,
                    warmup: 5_000,
                })
                .p99_us()
            };
            let central = run(Policy::CentralFcfs);
            let part = run(Policy::PartitionedFcfs);
            assert!(
                central <= part * 1.10,
                "{} @ {load}: central {central} vs partitioned {part}",
                service.label()
            );
        }
    }
}
