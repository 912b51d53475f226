//! Latency recording and percentile statistics.
//!
//! [`LatencyHistogram`] is a log-linear (HDR-style) histogram over
//! nanosecond durations: values are bucketed with ~0.1% relative precision
//! (1024 sub-buckets per power of two), covering the full `u64` range.
//! Its counters grow only up to the bucket of the largest value recorded
//! (about 11 k counters for millisecond latencies, at most 56,320), so a
//! checkpoint that clones a recorder copies only what it used. All figure
//! harnesses report percentiles through it, and Figure 10a's CCDF is
//! exported from it.

use crate::time::SimDuration;

const SUB_BUCKET_HALF_COUNT_BITS: u32 = 10;
const SUB_BUCKET_HALF_COUNT: usize = 1 << SUB_BUCKET_HALF_COUNT_BITS; // 1024
const SUB_BUCKET_COUNT: usize = SUB_BUCKET_HALF_COUNT * 2; // 2048
const SUB_BUCKET_MASK: u64 = (SUB_BUCKET_COUNT - 1) as u64;
// Number of logarithmic buckets needed to cover u64 with 2048-wide bucket 0.
const BUCKET_COUNT: usize = 64 - (SUB_BUCKET_HALF_COUNT_BITS as usize + 1) + 1; // 54
const COUNTS_LEN: usize = (BUCKET_COUNT + 1) * SUB_BUCKET_HALF_COUNT;

/// Index of the log-linear bucket `value` falls in (shared by
/// [`LatencyHistogram`] and [`WindowHistogram`]).
#[inline]
fn counts_index_of(value: u64) -> usize {
    let pow2 = 63 - (value | SUB_BUCKET_MASK).leading_zeros() as usize;
    let bucket = pow2 - SUB_BUCKET_HALF_COUNT_BITS as usize;
    let sub = (value >> bucket) as usize;
    debug_assert!((SUB_BUCKET_HALF_COUNT..SUB_BUCKET_COUNT).contains(&sub) || bucket == 0);
    bucket * SUB_BUCKET_HALF_COUNT + sub
}

/// Lowest value mapping to counts index `idx` (inverse of
/// [`counts_index_of`] up to bucket precision).
#[inline]
fn lowest_of_index(idx: usize) -> u64 {
    let bucket = idx / SUB_BUCKET_HALF_COUNT;
    let sub = idx % SUB_BUCKET_HALF_COUNT;
    let (b, s) = if bucket == 0 {
        (0, sub)
    } else {
        (bucket - 1, sub + SUB_BUCKET_HALF_COUNT)
    };
    (s as u64) << b
}

/// A log-linear histogram of durations with ~0.1% value precision.
#[derive(Clone)]
pub struct LatencyHistogram {
    /// Counts by bucket index, up to the highest index recorded.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        // Index of the highest set bit at or above the sub-bucket range.
        let pow2 = 63 - (value | SUB_BUCKET_MASK).leading_zeros() as usize;
        pow2 - SUB_BUCKET_HALF_COUNT_BITS as usize
    }

    fn counts_index(value: u64) -> usize {
        // Bucket 0 owns indices [0, 2048) (its sub spans the full range);
        // bucket b ≥ 1 owns [(b+1)·1024, (b+2)·1024) with sub ∈ [1024, 2048).
        // Both collapse to `b·1024 + sub` without underflow.
        counts_index_of(value)
    }

    /// Highest value that maps to the same bucket as `value`.
    pub(crate) fn highest_equivalent(value: u64) -> u64 {
        let bucket = Self::bucket_index(value);
        let sub = value >> bucket;
        // `((sub + 1) << bucket) - 1`, without overflowing in the top bucket.
        (sub << bucket) | ((1u64 << bucket) - 1)
    }

    /// Records one duration expressed in nanoseconds.
    pub fn record_nanos(&mut self, ns: u64) {
        // Map zero to the first bucket; counts_index handles it naturally.
        let idx = Self::counts_index(ns);
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.grow_to_record(idx),
        }
        self.total += 1;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.sum += ns as u128;
    }

    /// Records the first value at an index past the counters' end.
    #[cold]
    fn grow_to_record(&mut self, idx: usize) {
        debug_assert!(idx < COUNTS_LEN);
        self.counts.resize(idx + 1, 0);
        self.counts[idx] = 1;
    }

    /// Records one [`SimDuration`].
    pub fn record(&mut self, d: SimDuration) {
        self.record_nanos(d.as_nanos());
    }

    /// Records a duration expressed in (fractional) microseconds.
    pub fn record_micros_f64(&mut self, us: f64) {
        self.record(SimDuration::from_micros_f64(us));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value (nanoseconds), or 0 when empty.
    pub fn min_nanos(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (nanoseconds), or 0 when empty.
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of recorded values (nanoseconds).
    pub fn mean_nanos(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_nanos() / 1_000.0
    }

    /// Value at quantile `q ∈ [0, 1]`, in nanoseconds.
    ///
    /// Returns the highest value equivalent to the bucket containing the
    /// `ceil(q · count)`-th recorded value (so the reported percentile is
    /// never an underestimate beyond bucket precision). Returns 0 when empty.
    ///
    /// Small-sample semantics (audited for off-by-one): the rank is
    /// `ceil(q·n)` clamped to `[1, n]`, so for `n < 100` the p99 rank is
    /// `n` and the **maximum** is reported — the conservative choice for
    /// an SLO check (a tail estimate from 50 samples that ignored the
    /// worst sample would be an underestimate). At exactly `n = 100`,
    /// `ceil(99.0) = 99` selects the 99th order statistic, not the 100th.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let lowest = lowest_of_index(idx);
                return Self::highest_equivalent(lowest).min(self.max);
            }
        }
        self.max
    }

    /// Value at quantile `q`, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.value_at_quantile(q) as f64 / 1_000.0
    }

    /// The 99th percentile in microseconds — the paper's headline metric.
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Iterates the complementary CDF as `(value_us, fraction_greater_equal)`
    /// pairs over non-empty buckets, in increasing value order.
    ///
    /// Used to export Figure 10a's per-transaction CCDF curves.
    pub fn ccdf_us(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut remaining = self.total;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lowest = lowest_of_index(idx);
            out.push((
                lowest as f64 / 1_000.0,
                remaining as f64 / self.total as f64,
            ));
            remaining -= c;
        }
        out
    }

    /// A compact one-line summary (count, mean, p50/p99/p999, max) in µs.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.2}us p50={:.2}us p99={:.2}us p99.9={:.2}us max={:.2}us",
            self.total,
            self.mean_us(),
            self.p50_us(),
            self.p99_us(),
            self.quantile_us(0.999),
            self.max_nanos() as f64 / 1_000.0,
        )
    }
}

/// A clearable latency *window* over the same log-linear buckets as
/// [`LatencyHistogram`]: constant memory, O(distinct values) clear, and
/// bounded-error (~0.1%) quantiles.
///
/// Built for control-tick windows — the per-tick signal a controller
/// harvests and resets. The previous shape (a `Vec<u64>` flattened and
/// `sort_unstable`d on every tick) costs O(n log n) per tick and an
/// allocation per harvest; this records in O(1), clears in O(touched
/// buckets), and quantiles by sorting only the *touched bucket indices*
/// (bounded by the bucket count, in practice a few dozen).
///
/// Quantile semantics match [`LatencyHistogram::value_at_quantile`]: the
/// rank is `ceil(q·n)` clamped to `[1, n]` and the reported value is the
/// top of the selected bucket (never an underestimate beyond bucket
/// precision), clamped to the observed maximum.
#[derive(Clone)]
pub struct WindowHistogram {
    counts: Vec<u32>,
    /// Indices with nonzero counts, unsorted until a quantile is taken.
    touched: Vec<u32>,
    total: u64,
    max: u64,
}

impl Default for WindowHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowHistogram {
    /// Creates an empty window.
    pub fn new() -> Self {
        WindowHistogram {
            counts: vec![0; COUNTS_LEN],
            touched: Vec::new(),
            total: 0,
            max: 0,
        }
    }

    /// Records one duration expressed in nanoseconds.
    #[inline]
    pub fn record_nanos(&mut self, ns: u64) {
        let idx = counts_index_of(ns);
        if self.counts[idx] == 0 {
            self.touched.push(idx as u32);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Number of recorded values since the last [`WindowHistogram::clear`].
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resets the window, touching only the buckets that were used.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
        self.total = 0;
        self.max = 0;
    }

    /// Value at quantile `q ∈ [0, 1]` in nanoseconds (0 when empty).
    /// Sorts the touched-bucket list in place, hence `&mut`.
    pub fn value_at_quantile(&mut self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        self.touched.sort_unstable();
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for &i in &self.touched {
            seen += self.counts[i as usize] as u64;
            if seen >= rank {
                let lowest = lowest_of_index(i as usize);
                return LatencyHistogram::highest_equivalent(lowest).min(self.max);
            }
        }
        self.max
    }

    /// Value at quantile `q`, in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.value_at_quantile(q) as f64 / 1_000.0
    }
}

/// Weighted latency samples for rare-event estimation.
///
/// Importance splitting (RESTART) records each completion with the weight
/// of the trajectory that produced it (`1/∏ splits` across the levels the
/// trajectory crossed); the deep-tail quantile is then the *weighted*
/// inverse CDF. Unlike the histograms above this keeps exact values — the
/// sample counts in splitting runs are small enough (one entry per
/// completion across all trajectories) that bucketing would only add a
/// second error term to an already-statistical estimate.
#[derive(Clone, Debug, Default)]
pub struct WeightedSamples {
    /// `(value_ns, weight)` pairs, unsorted until a quantile is taken.
    samples: Vec<(u64, f64)>,
}

impl WeightedSamples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value with the given (positive) weight.
    pub fn push(&mut self, value_ns: u64, weight: f64) {
        debug_assert!(weight > 0.0, "weights must be positive");
        self.samples.push((value_ns, weight));
    }

    /// Number of recorded samples (trajectory completions, not effective
    /// sample size).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total recorded weight — the estimator's denominator. For an
    /// unbiased splitting run this converges to the number of *base*
    /// completions the run emulates.
    pub fn total_weight(&self) -> f64 {
        self.samples.iter().map(|&(_, w)| w).sum()
    }

    /// Weighted quantile in nanoseconds: the smallest recorded value `v`
    /// with `weight{x ≤ v} ≥ q · total_weight` (0 when empty). Sorts the
    /// samples in place, hence `&mut`.
    pub fn value_at_quantile(&mut self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return 0;
        }
        self.samples.sort_unstable_by_key(|s| s.0);
        let target = q * self.total_weight();
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        self.samples.last().expect("non-empty").0
    }

    /// Weighted quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.value_at_quantile(q) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0.0);
        assert!(h.ccdf_us().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..2048u64 {
            h.record_nanos(v);
        }
        // Values below 2048 land in dedicated unit-width buckets.
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.count(), 2048);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.max_nanos(), 2047);
        let mid = h.value_at_quantile(0.5);
        assert!((1023..=1024).contains(&mid), "mid = {mid}");
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = LatencyHistogram::new();
        let v = 1_234_567_890u64;
        h.record_nanos(v);
        let q = h.value_at_quantile(1.0);
        assert!(q >= v);
        assert!((q - v) as f64 / (v as f64) < 0.002, "q = {q}");
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record_nanos(v);
        }
        let p99 = h.value_at_quantile(0.99);
        assert!((98_900..=99_200).contains(&p99), "p99 = {p99}");
        let p50 = h.value_at_quantile(0.5);
        assert!((49_900..=50_100).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record_nanos(v);
        }
        assert_eq!(h.mean_nanos(), 25.0);
    }

    #[test]
    fn merge_equals_union() {
        let mut rng = Xoshiro256::new(3);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..10_000 {
            let v = rng.next_bounded(10_000_000) + 1;
            if i % 2 == 0 {
                a.record_nanos(v);
            } else {
                b.record_nanos(v);
            }
            all.record_nanos(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_nanos(), all.max_nanos());
        assert_eq!(a.min_nanos(), all.min_nanos());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.value_at_quantile(q), all.value_at_quantile(q));
        }
    }

    #[test]
    fn ccdf_is_monotone() {
        let mut rng = Xoshiro256::new(8);
        let mut h = LatencyHistogram::new();
        for _ in 0..5_000 {
            h.record_nanos(rng.next_bounded(1_000_000));
        }
        let ccdf = h.ccdf_us();
        assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
        for w in ccdf.windows(2) {
            assert!(w[0].0 < w[1].0, "values increase");
            assert!(w[0].1 >= w[1].1, "ccdf decreases");
        }
    }

    #[test]
    fn quantile_never_underestimates_true_rank_value() {
        let mut rng = Xoshiro256::new(13);
        let mut values: Vec<u64> = (0..20_000).map(|_| rng.next_bounded(1 << 40)).collect();
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record_nanos(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let truth = values[rank];
            let est = h.value_at_quantile(q);
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(
                est as f64 <= truth as f64 * 1.002 + 2.0,
                "q={q}: est {est} way above truth {truth}"
            );
        }
    }

    #[test]
    fn p99_of_fewer_than_100_samples_is_the_max() {
        // Regression for the small-sample rank arithmetic: for n < 100,
        // ceil(0.99·n) = n, so p99 must report the maximum — not the
        // (n−1)-th order statistic an off-by-one would select.
        for n in [1u64, 2, 10, 50, 99] {
            let mut h = LatencyHistogram::new();
            for v in 1..=n {
                h.record_nanos(v);
            }
            assert_eq!(h.value_at_quantile(0.99), n, "p99 of {n} distinct samples");
        }
    }

    #[test]
    fn p99_of_exactly_100_samples_is_the_99th_order_statistic() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record_nanos(v);
        }
        // ceil(0.99·100) = 99 ⇒ the 99th smallest, not the max.
        assert_eq!(h.value_at_quantile(0.99), 99);
        assert_eq!(h.value_at_quantile(1.0), 100);
    }

    /// A histogram with every counter allocated up front, as before the
    /// counters grew lazily: the reference the lazy one must match.
    fn dense() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; COUNTS_LEN],
            ..LatencyHistogram::new()
        }
    }

    fn assert_same_readings(lazy: &LatencyHistogram, dense: &LatencyHistogram, what: &str) {
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                lazy.value_at_quantile(q),
                dense.value_at_quantile(q),
                "{what}: q={q}"
            );
        }
        assert_eq!(lazy.ccdf_us(), dense.ccdf_us(), "{what}: ccdf");
        assert_eq!(lazy.count(), dense.count(), "{what}: count");
        assert_eq!(lazy.min_nanos(), dense.min_nanos(), "{what}: min");
        assert_eq!(lazy.max_nanos(), dense.max_nanos(), "{what}: max");
        assert_eq!(
            lazy.mean_nanos().to_bits(),
            dense.mean_nanos().to_bits(),
            "{what}: mean"
        );
        assert_eq!(
            lazy.counts[..],
            dense.counts[..lazy.counts.len()],
            "{what}: counts"
        );
        assert!(
            dense.counts[lazy.counts.len()..].iter().all(|&c| c == 0),
            "{what}: the lazy counters stop before a recorded bucket"
        );
    }

    #[test]
    fn lazy_counters_read_like_dense_ones() {
        // Bucket 0's last value, bucket 1's first, and the top of u64.
        let edges = [0u64, 2_047, 2_048, u64::MAX];
        let mut rng = Xoshiro256::new(33);
        let spread: Vec<u64> = (0..2_000)
            .map(|i| rng.next_bounded(1 << (8 + i % 40)))
            .collect();
        let small: Vec<u64> = (0..500).map(|_| rng.next_bounded(3_000)).collect();

        let (mut lazy, mut reference) = (LatencyHistogram::new(), dense());
        assert_same_readings(&lazy, &reference, "empty");
        for v in edges {
            let (mut one, mut one_ref) = (LatencyHistogram::new(), dense());
            one.record_nanos(v);
            one_ref.record_nanos(v);
            assert_same_readings(&one, &one_ref, &format!("only {v}"));
        }
        for &v in &spread {
            lazy.record_nanos(v);
            reference.record_nanos(v);
        }
        assert_same_readings(&lazy, &reference, "spread");
        for v in edges {
            lazy.record_nanos(v);
            reference.record_nanos(v);
            assert_same_readings(&lazy, &reference, &format!("spread and {v}"));
        }

        // Merges of a short histogram and a long one, both ways round,
        // and of a lazy one into an empty one.
        let (mut short, mut short_ref) = (LatencyHistogram::new(), dense());
        for &v in &small {
            short.record_nanos(v);
            short_ref.record_nanos(v);
        }
        assert!(short.counts.len() < lazy.counts.len());
        let mut long_into_short = short.clone();
        long_into_short.merge(&lazy);
        let mut short_into_long = lazy.clone();
        short_into_long.merge(&short);
        let mut merged_ref = short_ref.clone();
        merged_ref.merge(&reference);
        assert_same_readings(&long_into_short, &merged_ref, "long into short");
        assert_same_readings(&short_into_long, &merged_ref, "short into long");
        let mut into_empty = LatencyHistogram::new();
        into_empty.merge(&short);
        assert_same_readings(&into_empty, &short_ref, "short into empty");
    }

    #[test]
    fn extreme_quantiles_hit_min_and_max_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [7u64, 13, 1_000] {
            h.record_nanos(v);
        }
        // Rank clamps to [1, n]: q=0 selects the first recorded bucket.
        assert_eq!(h.value_at_quantile(0.0), 7);
        assert_eq!(h.value_at_quantile(1.0), 1_000);
    }

    #[test]
    fn window_histogram_tracks_exact_quantiles_within_bucket_error() {
        let mut rng = Xoshiro256::new(21);
        let mut w = WindowHistogram::new();
        let mut exact = LatencyHistogram::new();
        let mut values = Vec::new();
        for _ in 0..5_000 {
            let v = rng.next_bounded(50_000_000) + 1_000;
            w.record_nanos(v);
            exact.record_nanos(v);
            values.push(v);
        }
        assert_eq!(w.count(), 5_000);
        // The window agrees with the full histogram exactly (same buckets,
        // same rank rule).
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(w.value_at_quantile(q), exact.value_at_quantile(q), "q={q}");
        }
        // And with the true order statistics within bucket precision.
        values.sort_unstable();
        let rank = ((0.99 * values.len() as f64).ceil() as usize).max(1) - 1;
        let truth = values[rank];
        let est = w.value_at_quantile(0.99);
        assert!(est >= truth && est as f64 <= truth as f64 * 1.002 + 2.0);
    }

    #[test]
    fn window_histogram_clear_resets_and_reuses() {
        let mut w = WindowHistogram::new();
        for v in [5u64, 5, 7, 1 << 30] {
            w.record_nanos(v);
        }
        assert_eq!(w.value_at_quantile(1.0), 1 << 30);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.value_at_quantile(0.99), 0, "empty window reports 0");
        // Reuse after clear behaves like a fresh window.
        w.record_nanos(42);
        assert_eq!(w.count(), 1);
        assert_eq!(w.value_at_quantile(0.5), 42);
    }

    #[test]
    fn weighted_samples_match_unweighted_quantiles_at_unit_weight() {
        let mut w = WeightedSamples::new();
        let mut values: Vec<u64> = Vec::new();
        let mut rng = Xoshiro256::new(17);
        for _ in 0..5_000 {
            let v = rng.next_bounded(1_000_000) + 1;
            w.push(v, 1.0);
            values.push(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let truth = values[rank];
            let est = w.value_at_quantile(q);
            assert!(
                (est as i64 - truth as i64).unsigned_abs() <= 1,
                "q={q}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn weighted_samples_respect_weights() {
        // 90% of the weight at 10, 10% at 1000: the p95 must be 1000 and
        // the p50 must be 10, regardless of sample multiplicity.
        let mut w = WeightedSamples::new();
        w.push(10, 0.9);
        for _ in 0..100 {
            w.push(1_000, 0.001);
        }
        assert_eq!(w.value_at_quantile(0.5), 10);
        assert_eq!(w.value_at_quantile(0.95), 1_000);
        assert!((w.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_micros_f64_scales() {
        let mut h = LatencyHistogram::new();
        h.record_micros_f64(12.5);
        assert_eq!(h.max_nanos(), 12_500);
        assert!((h.p99_us() - 12.5).abs() / 12.5 < 0.002);
    }
}
