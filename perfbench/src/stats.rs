//! Order statistics with the benchmark's reporting rules.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, reported only
/// when at least [`MIN_BEYOND`] samples lie strictly above its rank.
/// Returns the value and the sample count.
pub fn percentile(values: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((sorted[rank - 1], n))
}

/// Percentile `q` of every consecutive full window of `window`
/// samples (each under the [`percentile`] rule), then the median over
/// windows, so a single stalled window does not set the run's value.
/// Returns the value and the samples used.
pub fn windowed_percentile(values: &[f64], window: usize, q: f64) -> Option<(f64, usize)> {
    if window == 0 {
        return None;
    }
    let per_window: Option<Vec<f64>> = values
        .chunks_exact(window)
        .map(|chunk| percentile(chunk, q).map(|(v, _)| v))
        .collect();
    let per_window = per_window?;
    let used = per_window.len() * window;
    median(&per_window).map(|v| (v, used))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, 10 beyond -> reported.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some((990.0, 1000)));
        // 999 samples: rank ceil(989.01) = 990, 9 beyond -> refused.
        assert_eq!(percentile(&values[..999], 0.99), None);
    }

    #[test]
    fn p50_and_p90_ranks() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some((50.0, 100)));
        assert_eq!(percentile(&values, 0.9), Some((90.0, 100)));
        // 19 samples: p50 rank 10, 9 beyond -> refused.
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&values[..20], 0.5).map(|p| p.1), Some(20));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 100; the middle one holds a stall.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.extend((1..=100).map(|v| f64::from(v) * 100.0));
        values.extend((1..=100).map(f64::from));
        values.extend([5.0; 40]); // partial window, ignored
        assert_eq!(windowed_percentile(&values, 100, 0.5), Some((50.0, 300)));
        // p90 of a 100-sample window has 10 beyond: allowed.
        assert_eq!(windowed_percentile(&values, 100, 0.9), Some((90.0, 300)));
        // p99 of a 100-sample window has 1 beyond: refused.
        assert_eq!(windowed_percentile(&values, 100, 0.99), None);
        assert_eq!(windowed_percentile(&values[..50], 100, 0.5), None);
    }

    #[test]
    fn percentile_rejects_bad_quantiles() {
        let values = vec![1.0; 100];
        assert_eq!(percentile(&values, 1.0), None);
        assert_eq!(percentile(&values, -0.1), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
