//! Measurement primitives: latency histograms, counters and time series.
//!
//! The histogram is log-bucketed (power-of-two buckets with linear
//! sub-buckets, HDR-histogram style) so that it covers nanoseconds to hours
//! with bounded memory and ≤ ~1.6% relative quantile error.

use crate::time::{SimDuration, SimTime};

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Quantile readout reports the bucket lower bound, except the top
/// quantile (`q >= 1.0`) which reports the exact recorded maximum.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // 64 exponent groups x 32 sub-buckets covers the full u64 range.
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let group = msb - SUB_BUCKET_BITS + 1;
        let sub = (value >> (group - 1)) as usize & (SUB_BUCKETS - 1);
        group as usize * SUB_BUCKETS + sub
    }

    /// Lowest representative value of a bucket (used for quantile readout).
    fn bucket_value(index: usize) -> u64 {
        let group = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if group == 0 {
            sub
        } else {
            let shift = group as u32 - 1;
            ((SUB_BUCKETS as u64) << shift) | (sub << shift)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        *self
            .counts
            .get_mut(idx)
            .expect("invariant: bucket_index is bounded by the counts table size") += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of the samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (bucket lower bound, except the
    /// top quantile which reports the exact recorded maximum).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// A compact summary (count/mean/quantiles) for reporting.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// Point-in-time summary of a histogram, values in the histogram's unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

impl Summary {
    /// Render assuming the unit is nanoseconds.
    pub fn display_nanos(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        format!(
            "n={} mean={:.3}ms p50={:.3}ms p90={:.3}ms p99={:.3}ms p999={:.3}ms max={:.3}ms",
            self.count,
            self.mean / 1e6,
            ms(self.p50),
            ms(self.p90),
            ms(self.p99),
            ms(self.p999),
            ms(self.max)
        )
    }
}

/// Aggregate wall-clock throughput over a batch of independent trials —
/// what the parallel trial harness reports: how long the batch took, how
/// many trials per second that is, and the per-trial latency distribution.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Trials executed.
    pub trials: u64,
    /// Wall-clock time for the whole batch, in nanoseconds.
    pub wall_ns: u64,
    /// Per-trial wall-clock summary (nanoseconds per trial).
    pub per_trial: Summary,
}

impl ThroughputReport {
    /// Build from the batch wall-clock and each trial's wall-clock.
    pub fn from_trials(wall_ns: u64, per_trial_ns: &[u64]) -> Self {
        let mut h = Histogram::new();
        for &ns in per_trial_ns {
            h.record(ns);
        }
        ThroughputReport {
            trials: per_trial_ns.len() as u64,
            wall_ns,
            per_trial: h.summary(),
        }
    }

    /// Completed trials per wall-clock second.
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.trials as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// One-line human-readable rendering.
    pub fn display(&self) -> String {
        format!(
            "trials={} wall={:.3}s trials/sec={:.1} per-trial mean={:.3}ms p99={:.3}ms",
            self.trials,
            self.wall_ns as f64 / 1e9,
            self.trials_per_sec(),
            self.per_trial.mean / 1e6,
            self.per_trial.p99 as f64 / 1e6,
        )
    }
}

/// A time-stamped series of gauge observations (for lag/occupancy plots).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append an observation. Timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "TimeSeries timestamps must be non-decreasing");
        }
        self.points.push((t, v));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All observations in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Largest observed value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(1.0), 31);
        assert!((h.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_order_consistent() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1000); // 1us..10ms in ns
        }
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p50 of uniform 1k..10M should be near 5M within bucket error.
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.05, "p50={p50}");
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        // Every recorded value must land in a bucket whose representative
        // value is within 1/32 relative error below the true value.
        let mut h = Histogram::new();
        for &v in &[100u64, 1_000, 123_456, 7_654_321, u32::MAX as u64 * 7] {
            h.record(v);
            let q = h.quantile(1.0);
            assert_eq!(q, h.max());
        }
        for shift in 0..50u32 {
            let v = 1u64 << shift;
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            assert!(rep <= v, "rep {rep} > value {v}");
            assert!(
                (v - rep) as f64 <= v as f64 / 32.0 + 1.0,
                "bucket error too large at {v}: rep={rep}"
            );
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(i);
            b.record(i + 1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0);
        assert!(a.max() >= 1_000_000);
    }

    #[test]
    fn time_series_keeps_max_and_length() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 10.0);
        ts.push(SimTime::from_secs(1), 20.0);
        ts.push(SimTime::from_secs(3), 0.0);
        assert_eq!(ts.max(), Some(20.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_series_rejects_time_travel() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(2), 1.0);
        ts.push(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn summary_display_is_stable() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(2));
        let s = h.summary().display_nanos();
        assert!(s.contains("n=1"), "{s}");
        assert!(s.contains("p999="), "{s}");
        assert!(s.contains("p50=2.000ms") || s.contains("p50=1.9"), "{s}");
    }
}
