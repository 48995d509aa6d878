//! Order statistics for the benchmark's reports.

/// A percentile read from a sample, with the percentile actually used and
/// the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile used (0–100).
    pub pct: f64,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-free by contract).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    v
}

/// Median of an ascending sample.
pub fn median_sorted(sorted: &[f64]) -> Pct {
    Pct {
        value: percentile_sorted(sorted, 50.0),
        pct: 50.0,
        samples: sorted.len(),
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    median_sorted(&sorted(v.to_vec())).value
}

/// The highest percentile, at most `cap`, that leaves at least ten samples
/// beyond it. Below 20 samples that would fall under the median, and the
/// median is returned instead (its `pct` says so).
pub fn tail_sorted(sorted: &[f64], cap: f64) -> Pct {
    let n = sorted.len();
    if n < 20 {
        return median_sorted(sorted);
    }
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond it; r ≤
    // n − 10 holds for every p ≤ 100·(n − 10)/n. Round down to 0.1 so the
    // reported percentile is the one actually read.
    let pct = cap.min((1000.0 * (n - 10) as f64 / n as f64).floor() / 10.0);
    Pct {
        value: percentile_sorted(sorted, pct),
        pct,
        samples: n,
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [20usize, 21, 50, 99, 100, 101, 999, 1000, 1001, 100_000] {
            let v = ramp(n);
            let t = tail_sorted(&v, 99.0);
            assert_eq!(t.samples, n);
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond p{}", t.pct);
            assert!(t.pct <= 99.0);
        }
        // Large samples reach the cap; small ones fall back to lower tails.
        assert_eq!(tail_sorted(&ramp(1000), 99.0).pct, 99.0);
        assert_eq!(tail_sorted(&ramp(100_000), 99.0).value, 99_000.0);
        assert_eq!(tail_sorted(&ramp(100), 99.0).pct, 90.0);
        assert_eq!(tail_sorted(&ramp(40), 99.0).pct, 75.0);
        // Too few samples: the median, labelled as such.
        let small = tail_sorted(&ramp(16), 99.0);
        assert_eq!((small.pct, small.value), (50.0, 8.0));
        assert_eq!(tail_sorted(&ramp(20), 99.0).pct, 50.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
    }
}
