//! Tail-latency decomposition: from a lifecycle event stream back to
//! *where the microseconds went*.
//!
//! Each completed request's sojourn is partitioned exactly — the
//! interval between consecutive lifecycle points is billed to the state
//! the *earlier* point entered:
//!
//! | state entered at      | billed to |
//! |-----------------------|-----------|
//! | Arrival/Admit/Enqueue | `queue_ns` (wire ingress + HoL blocking)   |
//! | Steal / StolenDone    | `steal_ns` (shuffle-op + remote-TX / IPI)  |
//! | Dispatch              | `service_ns` (incl. TX + egress wire)      |
//! | Preempt / BgRequeue   | `preempt_ns` (background-queue wait)       |
//!
//! Because every nanosecond between `Arrival` and `Completion` lands in
//! exactly one bucket, `queue + service + steal + preempt == total` *by
//! construction* — the "components sum to the measured p99" acceptance
//! bound only has to absorb histogram bucketing (~0.1%), never
//! attribution error.

use crate::trace::{TraceEvent, TraceKind};

/// One request's sojourn, exactly partitioned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Decomposition {
    /// End-to-end sojourn: client send → client receive.
    pub total_ns: u64,
    /// Wire ingress + time queued behind other work (HoL blocking).
    pub queue_ns: u64,
    /// Application execution, response TX and egress wire time.
    pub service_ns: u64,
    /// Steal overhead: shuffle-queue grab plus the stolen result's
    /// remote-syscall-batch / IPI ride back to the home core.
    pub steal_ns: u64,
    /// Preemption-induced delay: time parked in the background queue
    /// between an interrupted chunk and its next dispatch.
    pub preempt_ns: u64,
}

impl Decomposition {
    /// Sum of the four components — equal to `total_ns` by construction.
    pub fn sum_ns(&self) -> u64 {
        self.queue_ns + self.service_ns + self.steal_ns + self.preempt_ns
    }

    /// A component-wise µs view `(queue, service, steal, preempt)`.
    pub fn as_us(&self) -> (f64, f64, f64, f64) {
        (
            self.queue_ns as f64 / 1_000.0,
            self.service_ns as f64 / 1_000.0,
            self.steal_ns as f64 / 1_000.0,
            self.preempt_ns as f64 / 1_000.0,
        )
    }
}

/// Bucket an interval is billed to, by the state its start entered.
fn bucket(d: &mut Decomposition, kind: TraceKind) -> &mut u64 {
    match kind {
        TraceKind::Arrival | TraceKind::Admit | TraceKind::Enqueue => &mut d.queue_ns,
        TraceKind::Steal | TraceKind::StolenDone => &mut d.steal_ns,
        TraceKind::Dispatch => &mut d.service_ns,
        TraceKind::Preempt | TraceKind::BgRequeue => &mut d.preempt_ns,
        // Terminal states start no interval; unreachable in the walk.
        TraceKind::Shed | TraceKind::Completion => &mut d.queue_ns,
    }
}

/// Bits per counting-sort digit: request keys are `u32`, so grouping
/// takes one pass, or two when the keys span more than `2^16`.
const DIGIT_BITS: u32 = 16;

/// A copy of `events` grouped by request: each request's events adjacent
/// and in `(t_ns, kind)` order, requests ascending by `seq`.
///
/// For any input order this equals a stable sort by `(seq, t_ns, kind)`,
/// in linear time: a stable LSD counting sort on `seq − min` (scratch
/// O(n + 2^16), never proportional to the `seq` span), then a sort of
/// each request's handful of events. The decomposition and the Chrome
/// exporter both walk this grouping.
pub(crate) fn group_by_request(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let Some(&first) = events.first() else {
        return Vec::new();
    };
    let (lo, hi) = events.iter().fold((first.seq, first.seq), |(lo, hi), e| {
        (lo.min(e.seq), hi.max(e.seq))
    });
    let mask = (1 << DIGIT_BITS) - 1;
    let (mut out, mut pass_in) = (Vec::new(), Vec::new());
    let mut shift = 0;
    loop {
        let src = if shift == 0 { events } else { &pass_in[..] };
        let digit = |e: &TraceEvent| (((e.seq - lo) >> shift) & mask) as usize;
        // start[d + 1] counts digit d; the prefix sum turns it into the
        // first slot of digit d + 1.
        let mut start = vec![0u32; ((hi - lo) >> shift).min(mask) as usize + 2];
        for e in src {
            start[digit(e) + 1] += 1;
        }
        for d in 1..start.len() {
            start[d] += start[d - 1];
        }
        out.resize(src.len(), first);
        for e in src {
            let slot = &mut start[digit(e)];
            out[*slot as usize] = *e;
            *slot += 1;
        }
        shift += DIGIT_BITS;
        if shift >= u32::BITS || (hi - lo) >> shift == 0 {
            break;
        }
        std::mem::swap(&mut out, &mut pass_in);
    }
    for request in out.chunk_by_mut(|a, b| a.seq == b.seq) {
        request.sort_by_key(|e| (e.t_ns, e.kind));
    }
    out
}

/// Decomposes every complete lifecycle in `events` (any order; shed and
/// torn lifecycles — no `Arrival`, or no `Completion` — are skipped).
///
/// Output is in `(completion t_ns, seq)` order, whatever the input order
/// — deterministic for a deterministic host, and independent of how seqs
/// were assigned.
pub fn decompose(events: &[TraceEvent]) -> Vec<Decomposition> {
    let grouped = group_by_request(events);
    let mut decomps = Vec::new();
    // (completion t_ns, index): indices ascend with seq, so sorting the
    // keys gives (completion, seq) order.
    let mut order: Vec<(u64, usize)> = Vec::new();
    for request in grouped.chunk_by(|a, b| a.seq == b.seq) {
        if let Some(d) = decompose_one(request) {
            order.push((request[request.len() - 1].t_ns, decomps.len()));
            decomps.push(d);
        }
    }
    order.sort_unstable();
    order.into_iter().map(|(_, i)| decomps[i]).collect()
}

/// Decomposes one request's `(t_ns, kind)`-ordered lifecycle; `None` when torn
/// or shed.
fn decompose_one(evs: &[TraceEvent]) -> Option<Decomposition> {
    if evs.first()?.kind != TraceKind::Arrival || evs.last()?.kind != TraceKind::Completion {
        return None;
    }
    if evs.iter().any(|e| e.kind == TraceKind::Shed) {
        return None;
    }
    let mut d = Decomposition {
        total_ns: evs.last()?.t_ns - evs.first()?.t_ns,
        ..Decomposition::default()
    };
    for w in evs.windows(2) {
        *bucket(&mut d, w[0].kind) += w[1].t_ns - w[0].t_ns;
    }
    debug_assert_eq!(d.sum_ns(), d.total_ns, "decomposition must partition");
    Some(d)
}

/// The decomposition of the request at quantile `q` by total sojourn.
///
/// Rank rule mirrors `zygos_sim::stats::LatencyHistogram`
/// (`ceil(q·n)` clamped to `[1, n]`), so against a histogram quantile of
/// the same population the totals differ only by bucket precision
/// (~0.1%). Ties in `total_ns` go to the earlier element, as under a
/// stable sort. `decomps` is left in its order; returns `None` when
/// empty.
pub fn decomposition_at_quantile(decomps: &mut [Decomposition], q: f64) -> Option<Decomposition> {
    if decomps.is_empty() {
        return None;
    }
    let n = decomps.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let mut keys: Vec<(u64, usize)> = decomps
        .iter()
        .enumerate()
        .map(|(i, d)| (d.total_ns, i))
        .collect();
    let (_, &mut (_, i), _) = keys.select_nth_unstable(rank - 1);
    Some(decomps[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u32, core: u16, kind: TraceKind, t_ns: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            seq,
            core,
            kind,
        }
    }

    /// The contrived two-flow HoL scenario: one core, a long job (1000ns
    /// service) dispatched first, a short job (100ns) arriving behind
    /// it. The short job's queueing delay is analytically the long job's
    /// residual service — the decomposition must attribute exactly that.
    #[test]
    fn hol_blocking_is_attributed_to_queueing() {
        let evs = vec![
            // Long job: arrives, dispatches immediately, runs 1000ns.
            ev(0, 0, TraceKind::Arrival, 0),
            ev(0, 0, TraceKind::Enqueue, 0),
            ev(0, 0, TraceKind::Dispatch, 0),
            ev(0, 0, TraceKind::Completion, 1000),
            // Short job: arrives at 100, must wait for the head of line.
            ev(1, 0, TraceKind::Arrival, 100),
            ev(1, 0, TraceKind::Enqueue, 100),
            ev(1, 0, TraceKind::Dispatch, 1000),
            ev(1, 0, TraceKind::Completion, 1100),
        ];
        let d = decompose(&evs);
        assert_eq!(d.len(), 2);
        // Long job: pure service.
        assert_eq!(d[0].queue_ns, 0);
        assert_eq!(d[0].service_ns, 1000);
        // Short job: 900ns HoL (the long job's residual) + 100ns service.
        assert_eq!(d[1].total_ns, 1000);
        assert_eq!(d[1].queue_ns, 900);
        assert_eq!(d[1].service_ns, 100);
        assert_eq!(d[1].sum_ns(), d[1].total_ns);
    }

    #[test]
    fn steal_and_preempt_intervals_land_in_their_buckets() {
        let evs = vec![
            ev(7, 0, TraceKind::Arrival, 0),
            ev(7, 0, TraceKind::Enqueue, 200),
            // Stolen at 300, dispatch on the thief at 350 (50ns grab).
            ev(7, 1, TraceKind::Steal, 300),
            ev(7, 1, TraceKind::Dispatch, 350),
            // Quantum expires at 450; remainder requeued, redispatched.
            ev(7, 1, TraceKind::Preempt, 450),
            ev(7, 1, TraceKind::BgRequeue, 450),
            ev(7, 1, TraceKind::Dispatch, 600),
            // Work done on the thief at 700; home TX + wire until 780.
            ev(7, 1, TraceKind::StolenDone, 700),
            ev(7, 0, TraceKind::Completion, 780),
        ];
        let d = decompose(&evs);
        assert_eq!(d.len(), 1);
        let d = d[0];
        assert_eq!(d.total_ns, 780);
        assert_eq!(d.queue_ns, 300); // arrival→steal
        assert_eq!(d.steal_ns, 50 + 80); // grab + return ride
        assert_eq!(d.service_ns, 100 + 100); // two dispatched chunks
        assert_eq!(d.preempt_ns, 150); // bg-queue wait
        assert_eq!(d.sum_ns(), d.total_ns);
    }

    #[test]
    fn shed_and_torn_lifecycles_are_skipped() {
        let evs = vec![
            ev(1, 0, TraceKind::Arrival, 0),
            ev(1, 0, TraceKind::Shed, 10),
            ev(2, 0, TraceKind::Dispatch, 0), // no arrival (ring wrap)
            ev(2, 0, TraceKind::Completion, 50),
            ev(3, 0, TraceKind::Arrival, 0), // never completed
            ev(3, 0, TraceKind::Dispatch, 20),
        ];
        assert!(decompose(&evs).is_empty());
    }

    /// The sort-based decomposition this module shipped until the
    /// counting-sort grouping replaced it: the oracle.
    fn decompose_by_sorting(events: &[TraceEvent]) -> Vec<Decomposition> {
        let mut evs = events.to_vec();
        evs.sort_by_key(|e| (e.seq, e.t_ns, e.kind));
        let mut tagged: Vec<(u64, Decomposition)> = Vec::new();
        for request in evs.chunk_by(|a, b| a.seq == b.seq) {
            if let Some(d) = decompose_one(request) {
                tagged.push((request[request.len() - 1].t_ns, d));
            }
        }
        tagged.sort_by_key(|&(t, _)| t);
        tagged.into_iter().map(|(_, d)| d).collect()
    }

    /// xorshift64: deterministic test randomness without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    /// `n` lifecycles on `seqs`, on a coarse clock so same-instant points
    /// of different kinds and cores are common: some complete (several
    /// Dispatch/Preempt rounds, maybe stolen), some shed, some torn.
    fn lifecycles(rng: &mut Rng, seqs: impl Iterator<Item = u32>) -> Vec<TraceEvent> {
        use TraceKind::*;
        let mut evs = Vec::new();
        for seq in seqs {
            let mut t = rng.below(50) * 10;
            let mut push = |rng: &mut Rng, kind| {
                evs.push(ev(seq, rng.below(4) as u16, kind, t));
                t += rng.below(3) * 10;
            };
            let torn = rng.below(8);
            if torn != 0 {
                push(rng, Arrival);
            }
            if rng.below(6) == 0 {
                push(rng, Shed);
                continue;
            }
            push(rng, Admit);
            push(rng, Enqueue);
            let stolen = rng.below(3) == 0;
            if stolen {
                push(rng, Steal);
            }
            for _ in 0..=rng.below(3) {
                push(rng, Dispatch);
                if rng.below(2) == 0 {
                    push(rng, Preempt);
                    push(rng, BgRequeue);
                }
            }
            if stolen {
                push(rng, StolenDone);
            }
            if torn != 1 {
                push(rng, Completion);
            }
        }
        evs
    }

    /// Shuffles `evs` several ways and checks grouping and decomposition
    /// against their sort-based definitions; returns the decomposition.
    fn assert_matches_sorting(rng: &mut Rng, mut evs: Vec<TraceEvent>) -> Vec<Decomposition> {
        let expect = decompose_by_sorting(&evs);
        for _ in 0..4 {
            rng.shuffle(&mut evs);
            let mut sorted = evs.clone();
            sorted.sort_by_key(|e| (e.seq, e.t_ns, e.kind));
            assert_eq!(group_by_request(&evs), sorted);
            assert_eq!(decompose(&evs), expect);
        }
        expect
    }

    #[test]
    fn shuffled_streams_decompose_like_the_sort_based_oracle() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for n in [1, 2, 17, 400] {
            let evs = lifecycles(&mut rng, 0..n);
            let d = assert_matches_sorting(&mut rng, evs);
            if n == 400 {
                assert!(d.len() > 100, "the mix keeps most lifecycles whole");
            }
        }
        assert!(assert_matches_sorting(&mut rng, Vec::new()).is_empty());
    }

    #[test]
    fn sheds_and_torn_lifecycles_match_the_oracle() {
        let mut rng = Rng(7);
        let mut evs = lifecycles(&mut rng, 0..50);
        assert!(evs.iter().any(|e| e.kind == TraceKind::Shed));
        // Nothing but sheds and fragments: every lifecycle loses its
        // Arrival or its Completion.
        evs.retain(|e| e.seq % 2 == 0 || e.kind != TraceKind::Arrival);
        evs.retain(|e| e.seq % 2 == 1 || e.kind != TraceKind::Completion);
        assert!(assert_matches_sorting(&mut rng, evs).is_empty());
    }

    #[test]
    fn sampled_seqs_group_like_the_oracle() {
        let mut rng = Rng(0xDEAD_BEEF);
        // Sampled traces: every seq a multiple of p, so the keys span p
        // times the request count (two counting passes past 2^16).
        for p in [3, 1_000] {
            let evs = lifecycles(&mut rng, (0..200).map(|i| i * p));
            assert!(!assert_matches_sorting(&mut rng, evs).is_empty());
        }
    }

    #[test]
    fn sparse_seqs_do_not_allocate_by_span() {
        // A span-sized count table here would be 16 GiB; the two 16-bit
        // passes need 2^16 + 1 entries each.
        let mut rng = Rng(42);
        let evs = lifecycles(&mut rng, [0, 7, u32::MAX - 1, 0, u32::MAX].into_iter());
        assert_matches_sorting(&mut rng, evs);
    }

    #[test]
    fn quantile_matches_a_stable_sort_with_tied_totals() {
        let mut rng = Rng(11);
        // Totals from a handful of values, so most ranks sit inside a
        // tie; the other fields tell tied elements apart.
        let ds: Vec<Decomposition> = (0..300u64)
            .map(|i| Decomposition {
                total_ns: rng.below(6) * 100,
                queue_ns: i,
                ..Decomposition::default()
            })
            .collect();
        let mut sorted = ds.clone();
        sorted.sort_by_key(|d| d.total_ns);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * ds.len() as f64).ceil() as usize).clamp(1, ds.len());
            let mut work = ds.clone();
            assert_eq!(
                decomposition_at_quantile(&mut work, q),
                Some(sorted[rank - 1]),
                "q = {q}"
            );
            assert_eq!(work, ds, "the slice keeps its order");
        }
    }

    #[test]
    fn quantile_rank_matches_histogram_rule() {
        let mut ds: Vec<Decomposition> = (1..=100u64)
            .map(|i| Decomposition {
                total_ns: i * 1_000,
                service_ns: i * 1_000,
                ..Decomposition::default()
            })
            .collect();
        // ceil(0.99·100) = 99 ⇒ the 99th order statistic.
        let p99 = decomposition_at_quantile(&mut ds, 0.99).unwrap();
        assert_eq!(p99.total_ns, 99_000);
        let p50 = decomposition_at_quantile(&mut ds, 0.50).unwrap();
        assert_eq!(p50.total_ns, 50_000);
        assert!(decomposition_at_quantile(&mut [], 0.99).is_none());
    }
}
