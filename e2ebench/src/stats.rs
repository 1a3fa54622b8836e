//! Percentiles and small summaries over measured samples.

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`:
/// the smallest sample with at least `q` of all samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and returns (p50, p99).
pub fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (percentile(&s, 0.50), percentile(&s, 0.99))
}

/// Median of a copy of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// Whether `n` samples leave at least ten beyond percentile `q`.
pub fn tail_is_resolved(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 0.5), 2.0);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let (p50, p99) = p50_p99(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(p50, 3.0);
        assert_eq!(p99, 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!tail_is_resolved(999, 0.99));
        assert!(tail_is_resolved(1000, 0.99));
        assert!(tail_is_resolved(20, 0.5));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
