//! Fixed-size log₂ histograms of `u64` samples.

use crate::json::JsonValue;

/// Number of buckets: bucket 0 counts zeros, bucket `i` (1 ≤ i < 15)
/// counts samples in `[2^(i-1), 2^i)`, the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 16;

/// A log₂-bucketed histogram. Plain `u64` cells — recording is two adds
/// and serves the per-worker sharding model (one histogram per worker,
/// merged at snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram.
    pub const fn new() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Bucket index of `value`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i` (samples `v` with
    /// `bucket_of(v) == i` satisfy `lower_bound(i) <= v`).
    fn lower_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one sample. The running sum saturates at `u64::MAX` rather
    /// than wrapping, so adversarial samples cannot corrupt the mean's
    /// sign or panic a debug build.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Cumulative counts: entry `i` = samples in buckets `0..=i`. By
    /// construction non-decreasing and ending at [`Self::count`] — the
    /// invariant the metrics property tests assert.
    pub fn cumulative(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        let mut acc = 0u64;
        for (o, &b) in out.iter_mut().zip(&self.buckets) {
            acc += b;
            *o = acc;
        }
        out
    }

    /// Smallest bucket lower bound such that at least `q` (0..=1) of the
    /// samples fall in buckets up to it — a coarse quantile.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return Self::lower_bound(i);
            }
        }
        Self::lower_bound(HIST_BUCKETS - 1)
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// JSON object: `{"count":..,"sum":..,"max":..,"mean":..,"buckets":[..]}`.
    ///
    /// Trailing empty buckets are kept so the array length is stable
    /// across reports (simpler for downstream tooling).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("count", JsonValue::U64(self.count)),
            ("sum", JsonValue::U64(self.sum)),
            ("max", JsonValue::U64(self.max)),
            ("mean", JsonValue::F64(self.mean())),
            (
                "buckets",
                JsonValue::Array(self.buckets.iter().map(|&b| JsonValue::U64(b)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's lower bound maps back into that bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(Histogram::bucket_of(Histogram::lower_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 113);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 113.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 2); // the ones
    }

    #[test]
    fn cumulative_is_monotone_and_totals() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * v % 509);
        }
        let c = h.cumulative();
        for w in c.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(c[HIST_BUCKETS - 1], h.count());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            let x = v.wrapping_mul(2654435761) % 10_000;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantile_bound_brackets_median() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(5);
        }
        // All samples are 5 → the q50 bucket bound is 4 (bucket [4,8)).
        assert_eq!(h.quantile_bound(0.5), 4);
        assert_eq!(h.quantile_bound(1.0), 4);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
