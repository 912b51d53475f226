//! The zero-alloc lifecycle tracer.
//!
//! One fixed-capacity ring per core; recording is an indexed store plus a
//! head bump. The rings never allocate after construction, so a tracer in
//! the simulator's hot loop (or a live worker's dispatch path) adds a
//! sampling branch and a 16-byte store, nothing else.

/// A request lifecycle point.
///
/// The catalog mirrors the paper's request path: client send, the credit
/// gate's verdict, the home ring, dispatch (local or stolen), preemption
/// and background requeue under a quantum, and the client-observed
/// completion. `StolenDone` marks a stolen request's work finishing on
/// the thief — the interval from there to `Completion` is the remote-TX /
/// IPI return cost the decomposition bills as steal delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// Client stamped the request and put it on the wire.
    Arrival = 0,
    /// Credit gate admitted it (server edge or client side).
    Admit = 1,
    /// Credit gate shed it; the lifecycle ends here.
    Shed = 2,
    /// Pushed onto its home core's ring.
    Enqueue = 3,
    /// A thief grabbed it from a shuffle queue (dispatch follows after
    /// the steal overhead).
    Steal = 4,
    /// An application chunk started executing.
    Dispatch = 5,
    /// The quantum expired mid-request; the remainder was interrupted.
    Preempt = 6,
    /// The remainder entered the background queue.
    BgRequeue = 7,
    /// A stolen request's work finished on the thief; the result now
    /// rides the remote-syscall batch (or an IPI) back to the home core.
    StolenDone = 8,
    /// The client observed the response (send-to-receive = the measured
    /// latency).
    Completion = 9,
}

/// One trace record: 16 bytes, `Copy`, no payload indirection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in nanoseconds (sim time, or since run start).
    pub t_ns: u64,
    /// Request sequence number (stamped at generation, sampling key).
    pub seq: u32,
    /// Core the event happened on (the home core for client-side points).
    pub core: u16,
    /// Lifecycle point.
    pub kind: TraceKind,
}

/// A fixed-capacity overwrite-oldest ring of [`TraceEvent`]s.
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next slot to overwrite once full.
    head: usize,
    /// Events overwritten (lost) to wrap-around.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            // Within the preallocated capacity: push never reallocates.
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Appends the events in recording order (oldest first) to `out`.
    fn copy_into(&self, out: &mut Vec<TraceEvent>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }
}

/// Per-core ring-buffer tracer with per-N request sampling.
///
/// `sample_period = 1` records every request; `p > 1` records requests
/// whose sequence number is a multiple of `p` — the whole lifecycle of a
/// sampled request is kept, so decomposition never sees torn records.
pub struct Tracer {
    sample_period: u32,
    rings: Vec<Ring>,
}

impl Tracer {
    /// A tracer for `cores` cores, `per_core_capacity` events per ring.
    pub fn new(cores: usize, per_core_capacity: usize, sample_period: u32) -> Self {
        Tracer {
            sample_period: sample_period.max(1),
            rings: (0..cores.max(1))
                .map(|_| Ring::new(per_core_capacity))
                .collect(),
        }
    }

    /// True when request `seq` is in the sample. Call once per lifecycle
    /// point (cheap) or latch per request — both give the same answer.
    #[inline]
    pub fn sampled(&self, seq: u32) -> bool {
        self.sample_period == 1 || seq.is_multiple_of(self.sample_period)
    }

    /// Records one lifecycle point for request `seq` on `core`,
    /// applying the sampling gate.
    #[inline]
    pub fn record(&mut self, core: u16, seq: u32, kind: TraceKind, t_ns: u64) {
        if !self.sampled(seq) {
            return;
        }
        // Fast path avoids an integer divide: `core` is in range for
        // every well-formed caller; the modulo only guards foreign cores.
        let n = self.rings.len();
        let idx = core as usize;
        let ring = &mut self.rings[if idx < n { idx } else { idx % n }];
        ring.record(TraceEvent {
            t_ns,
            seq,
            core,
            kind,
        });
    }

    /// Total events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Concatenates the rings into one stream, in recording order per
    /// core: ring 0 oldest-first, then ring 1, and so on.
    ///
    /// No sort: the order is a pure function of the recording sequence,
    /// so a deterministic host still yields byte-identical streams, and
    /// every consumer ([`decompose`](crate::decomp::decompose), the
    /// Chrome exporter) groups by request itself.
    pub fn collect(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.rings.iter().map(|r| r.buf.len()).sum());
        for r in &self.rings {
            r.copy_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::decompose;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::new(1, 4, 1);
        for i in 0..6u64 {
            t.record(0, i as u32, TraceKind::Arrival, i * 10);
        }
        assert_eq!(t.dropped(), 2);
        let evs = t.collect();
        assert_eq!(evs.len(), 4);
        // Oldest two were overwritten.
        assert_eq!(evs[0].seq, 2);
        assert_eq!(evs[3].seq, 5);
    }

    #[test]
    fn sampling_keeps_whole_lifecycles() {
        let mut t = Tracer::new(2, 64, 3);
        for seq in 0..9u32 {
            t.record(0, seq, TraceKind::Arrival, seq as u64 * 100);
            t.record(1, seq, TraceKind::Completion, seq as u64 * 100 + 50);
        }
        let evs = t.collect();
        // Only seq 0, 3, 6 sampled — both events each.
        assert_eq!(evs.len(), 6);
        for e in &evs {
            assert_eq!(e.seq % 3, 0);
        }
    }

    /// Calls `f` on every permutation of `v[k..]` (behind a fixed `v[..k]`).
    fn permutations(v: &mut [TraceEvent], k: usize, f: &mut impl FnMut(&[TraceEvent])) {
        if k == v.len() {
            return f(v);
        }
        for i in k..v.len() {
            v.swap(k, i);
            permutations(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn collect_is_deterministic_and_decomposes_in_any_order() {
        let record = || {
            let mut t = Tracer::new(4, 16, 1);
            t.record(3, 1, TraceKind::Dispatch, 500);
            t.record(0, 0, TraceKind::Arrival, 0);
            t.record(2, 1, TraceKind::Arrival, 100);
            t.record(0, 0, TraceKind::Dispatch, 100);
            t.record(0, 0, TraceKind::Completion, 500);
            t.record(2, 1, TraceKind::Completion, 700);
            t.collect()
        };
        let a = record();
        assert_eq!(a, record(), "same recording, same stream");
        // Recording order per core, cores in order: no time sort.
        let order: Vec<(u16, u64)> = a.iter().map(|e| (e.core, e.t_ns)).collect();
        assert_eq!(
            order,
            [(0, 0), (0, 100), (0, 500), (2, 100), (2, 700), (3, 500)]
        );
        let expect = decompose(&a);
        assert_eq!(expect.len(), 2);
        let mut v = a.clone();
        permutations(&mut v, 0, &mut |p| assert_eq!(decompose(p), expect));
    }
}
