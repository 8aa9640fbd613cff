//! Order statistics for the benchmark's samples.
//!
//! Two conventions, each matching what its consumer expects:
//!
//! * [`percentile`] is nearest-rank: the smallest sample with at least
//!   `p` percent of the samples at or below it. It always returns a
//!   value that was measured, which is what a latency percentile means.
//! * [`quartiles`] interpolates exactly like Python's
//!   `statistics.quantiles(values, n=4)` (the default "exclusive"
//!   method), so the spreads this program records agree with the ones a
//!   Python script computes over the same values.

/// Nearest-rank percentile of `samples` (any order). `p` is in percent,
/// `0 < p <= 100`. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] over an already sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The conventional median (mean of the two middle values for even
/// counts), as Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile, interpolated as Python's
/// `statistics.quantiles(values, n=4)` does. Needs at least two samples;
/// a single sample is returned as all three quartiles.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return Some([sorted[0]; 3]);
    }
    let n = 4usize;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    Some(out)
}

/// Sample count and quartiles of one metric's within-run samples, as
/// the result file records them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Spread> {
        let [q1, _, q3] = quartiles(samples)?;
        Some(Spread {
            n: samples.len(),
            q1,
            median: median(samples)?,
            q3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.5), Some(1.0));
        // Unsorted input, few samples: p99 of ten values is the maximum.
        let few = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(percentile(&few, 99.0), Some(10.0));
        assert_eq!(percentile(&few, 50.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11:
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_records_count_and_quartiles() {
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]).expect("samples");
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
    }
}
