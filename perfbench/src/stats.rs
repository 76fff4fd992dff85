//! Summary statistics for timings and latencies.

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty. Takes any order.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it: a tail
/// percentile resting on a handful of samples is one stall, not a
/// distribution. Missing samples (a shed request) belong in `sorted` as
/// `f64::INFINITY`, so they count against every limit.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps `99.9% of 10,000` at rank 9,990 despite rounding.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    Some(sorted[idx])
}

/// Sorts `values` ascending, in place, for [`percentile`].
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// `num / den`, or 0 when `den` is 0.
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

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly ten above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&v, 99.0).is_some());
        // One fewer sample and only nine lie beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None);
        // p99.9 needs 10,000 samples.
        assert_eq!(percentile(&v, 99.9), None);
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.9), Some(9990.0));
        // The maximum never has anything beyond it.
        assert_eq!(percentile(&big, 100.0), None);
    }

    #[test]
    fn missing_samples_count_against_the_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        sort(&mut v);
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 50.0), Some(520.0));
    }

    #[test]
    fn ratio_of_zero_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
