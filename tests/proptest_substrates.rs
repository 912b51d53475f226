//! Property-based tests over the substrate crates: rings, time arithmetic,
//! distributions, Silo row codecs and TPC-C key order.

use proptest::prelude::*;

use zygos::net::ring::MpscRing;
use zygos::silo::tpcc::keys;
use zygos::silo::tpcc::rows::{Customer, OrderLine, Row, Stock};
use zygos::sim::dist::ServiceDist;
use zygos::sim::rng::Xoshiro256;
use zygos::sim::time::{SimDuration, SimTime};

proptest! {
    /// The ring behaves as a bounded FIFO under any single-threaded
    /// push/pop sequence.
    #[test]
    fn mpsc_ring_is_a_bounded_fifo(
        capacity in 1usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let ring = MpscRing::with_capacity(capacity);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u64;
        for push in ops {
            if push {
                let res = ring.push(next);
                if model.len() < ring.capacity() {
                    prop_assert!(res.is_ok());
                    model.push_back(next);
                } else {
                    prop_assert_eq!(res, Err(next));
                }
                next += 1;
            } else {
                prop_assert_eq!(ring.pop(), model.pop_front());
            }
            prop_assert_eq!(ring.len(), model.len());
        }
    }

    /// The MPSC ring preserves single-producer order.
    #[test]
    fn mpsc_ring_single_producer_order(values in proptest::collection::vec(any::<u32>(), 1..100)) {
        let ring = MpscRing::with_capacity(values.len().max(1));
        for &v in &values {
            ring.push(v).expect("capacity");
        }
        for &v in &values {
            prop_assert_eq!(ring.pop(), Some(v));
        }
        prop_assert!(ring.is_empty());
    }

    /// Time arithmetic never panics and is monotone.
    #[test]
    fn sim_time_arithmetic_total(a in any::<u64>(), b in any::<u64>()) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let later = t + d;
        prop_assert!(later >= t);
        prop_assert!(later.duration_since(t) <= d);
        prop_assert_eq!(t.duration_since(later), SimDuration::ZERO);
    }

    /// Every distribution samples non-negative finite values with a mean
    /// near its declared mean.
    #[test]
    fn distributions_sample_sanely(seed in any::<u64>(), mean in 1.0f64..100.0) {
        for d in [
            ServiceDist::deterministic_us(mean),
            ServiceDist::exponential_us(mean),
            ServiceDist::bimodal1_us(mean),
            ServiceDist::bimodal2_us(mean),
        ] {
            let mut rng = Xoshiro256::new(seed);
            let n = 20_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = d.sample_us(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0);
                sum += x;
            }
            let m = sum / n as f64;
            // Bimodal-2's rare 500.5·S̄ mode needs many samples; allow wide.
            prop_assert!(
                (m - mean).abs() / mean < 0.5,
                "{}: mean {} vs {}", d.label(), m, mean
            );
        }
    }

    /// Silo row codecs round-trip arbitrary field contents.
    #[test]
    fn customer_codec_roundtrip(
        c_id in any::<u32>(),
        balance in -1e6f64..1e6,
        first in "[a-zA-Z0-9]{0,16}",
        data in "[a-zA-Z0-9]{0,500}",
    ) {
        let c = Customer {
            c_id,
            d_id: 3,
            w_id: 7,
            first,
            middle: "OE".into(),
            last: "BARBARBAR".into(),
            street1: "s".into(),
            city: "c".into(),
            state: "st".into(),
            zip: "z".into(),
            phone: "p".into(),
            since: 1,
            credit: "GC".into(),
            credit_lim: 50_000.0,
            discount: 0.1,
            balance,
            ytd_payment: 0.0,
            payment_cnt: 0,
            delivery_cnt: 0,
            data,
        };
        prop_assert_eq!(Customer::decode(&c.encode()), c);
    }

    /// Order-line codec round-trips.
    #[test]
    fn order_line_codec_roundtrip(
        o_id in any::<u32>(),
        amount in 0f64..10_000.0,
        qty in any::<u8>(),
    ) {
        let ol = OrderLine {
            o_id,
            d_id: 1,
            w_id: 1,
            ol_number: 5,
            i_id: 77,
            supply_w_id: 1,
            delivery_d: 0,
            quantity: qty,
            amount,
            dist_info: "d".repeat(24),
        };
        prop_assert_eq!(OrderLine::decode(&ol.encode()), ol);
    }

    /// Stock codec round-trips with the 10 concatenated dist strings.
    #[test]
    fn stock_codec_roundtrip(i_id in any::<u32>(), quantity in -1000i32..1000) {
        let s = Stock {
            i_id,
            w_id: 2,
            quantity,
            dists: "x".repeat(240),
            ytd: 1.5,
            order_cnt: 3,
            remote_cnt: 1,
            data: "d".into(),
        };
        prop_assert_eq!(Stock::decode(&s.encode()), s);
    }

    /// TPC-C keys sort by their logical component order.
    #[test]
    fn tpcc_keys_order_by_components(
        w in 1u16..100, d in 1u8..11,
        a in any::<u32>(), b in any::<u32>(),
    ) {
        prop_assert_eq!(keys::order(w, d, a) < keys::order(w, d, b), a < b);
        prop_assert_eq!(
            keys::new_order(w, d, a) < keys::new_order(w, d, b), a < b);
        // Customer index groups by customer before order id.
        if a != b {
            prop_assert!(
                keys::order_by_customer(w, d, a.min(b), u32::MAX)
                    < keys::order_by_customer(w, d, a.max(b), 0)
            );
        }
    }

    /// Quantile function of the two-point distributions is consistent with
    /// sampling.
    #[test]
    fn twopoint_quantiles_consistent(mean in 1.0f64..50.0, q in 0.0f64..1.0) {
        let d = ServiceDist::bimodal1_us(mean);
        let v = d.quantile_us(q).expect("closed form");
        prop_assert!(v == 0.5 * mean || v == 5.5 * mean);
        prop_assert_eq!(v == 0.5 * mean, q < 0.9);
    }
}
