//! Estimators over the units of a run: fastest, median, quartiles,
//! percentiles. All take the raw samples and never round.

/// Which unit stands for the run.
///
/// Deterministic single-threaded work (`sim-*`, `lab-gate`) can only be
/// slowed by the machine, so its *fastest* unit is the least disturbed
/// reading. The multi-threaded `live-*` workloads have no such floor —
/// their best unit is a scheduling accident — so they report the
/// *median* unit. README.md carries the measurements behind the choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    Fastest,
    Median,
}

impl Estimator {
    /// The run's estimate of a quantity where *lower is less disturbed*
    /// (a time, a latency).
    pub fn of_times(self, samples: &[f64]) -> f64 {
        match self {
            Estimator::Fastest => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Estimator::Median => median(samples),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Estimator::Fastest => "fastest",
            Estimator::Median => "median",
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed
/// here equals the one the acceptance procedure computes. Fewer than two
/// samples have no spread: both quartiles are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let n = v.len();
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 for one sample).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The `q`-quantile of an ascending slice by nearest rank (the smallest
/// sample with at least `q·n` samples at or below it).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted<T: Copy>(ascending: &[T], q: f64) -> T {
    assert!(!ascending.is_empty(), "percentile of no samples");
    let rank = (q * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[2.0]), 0.0);
    }

    #[test]
    fn estimators_pick_fastest_or_median() {
        let t = [0.19, 0.108, 0.11, 0.2, 0.109];
        assert_eq!(Estimator::Fastest.of_times(&t), 0.108);
        assert_eq!(Estimator::Median.of_times(&t), 0.11);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[42u32], 0.99), 42);
    }
}
