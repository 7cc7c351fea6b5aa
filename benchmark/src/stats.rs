//! Order statistics the harness reports: nearest-rank percentiles with the
//! ten-samples-beyond rule, medians, and the quartile spread `compare`
//! judges run-to-run noise by.

/// Samples that must lie beyond a percentile (on the side away from the
/// median) before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample in place (timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `p` percent of the sample at or below it. Returns the value and
/// the number of samples beyond it, or `None` for an empty sample.
fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = if p >= 50.0 { n - rank } else { rank - 1 };
    Some((sorted[rank - 1], beyond))
}

/// Nearest-rank percentile, reported only when at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    nearest_rank(sorted, p).filter(|&(_, beyond)| beyond >= MIN_BEYOND).map(|(v, _)| v)
}

/// Median of a sorted sample (mean of the two middle values for even
/// counts); 0 for an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median_of(mut samples: Vec<f64>) -> f64 {
    sort(&mut samples);
    median(&samples)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method). `None` below two samples or at median 0.
pub fn quartile_spread(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    let med = median(sorted);
    if n < 2 || med == 0.0 {
        return None;
    }
    let quartile = |q: usize| {
        // Position q·(n+1)/4 on a 1-based axis; like Python, only the
        // index is clamped, so tiny samples extrapolate.
        let num = q * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 95.0), Some(190.0));
        assert_eq!(percentile(&s, 50.0), Some(100.0));
        let s = ramp(1000);
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(percentile(&s, 10.0), Some(100.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 199 samples: rank 190, nine beyond — not reported.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // A low percentile counts the samples below it.
        assert_eq!(percentile(&ramp(100), 10.0), None);
        assert_eq!(percentile(&ramp(110), 10.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median_of(vec![9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let spread = quartile_spread(&ramp(10)).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), None);
    }
}
