//! The unified metrics registry: named counters, gauges, histograms and
//! time series behind stable `BTreeMap` keys.
//!
//! The registry absorbs the ad-hoc stat fields that used to live on
//! `StorageWorld` (`write_order_waits`, journal-stall retries, …): each
//! becomes a named counter (see [`crate::names`]) that instrumented code
//! bumps through one handle, and reports read back by name. Time-series
//! sampling (RPO lag, journal occupancy) is gated by
//! [`MetricsRegistry::enable_sampling`] so the hot path stays free when
//! nobody will read the series.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tsuru_sim::{Histogram, SimTime, Summary, TimeSeries};

/// Named counters, gauges, histograms and time series. See the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<&'static str, TimeSeries>,
    shard_series: BTreeMap<(&'static str, u32), TimeSeries>,
    sampling: bool,
}

impl MetricsRegistry {
    /// An empty registry with sampling off.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Increment counter `name` by `n`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into histogram `name`.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Summary of histogram `name`, if any sample was recorded.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.histograms.get(name).map(Histogram::summary)
    }

    /// Turn time-series sampling on; [`MetricsRegistry::sample`] is a
    /// no-op until this is called.
    pub fn enable_sampling(&mut self) {
        self.sampling = true;
    }

    /// True once [`MetricsRegistry::enable_sampling`] was called.
    pub fn sampling_enabled(&self) -> bool {
        self.sampling
    }

    /// Append an observation to series `name` — only when sampling is
    /// enabled, so instrumented edges can call this unconditionally.
    /// Timestamps must be non-decreasing per series.
    pub fn sample(&mut self, name: &'static str, t: SimTime, v: f64) {
        if !self.sampling {
            return;
        }
        self.series.entry(name).or_default().push(t, v);
    }

    /// Time series `name`, if any observation was sampled.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Append an observation to the shard-`shard` lane of series `name` —
    /// gated by [`MetricsRegistry::enable_sampling`] exactly like
    /// [`MetricsRegistry::sample`]. Sharded worlds sample journal
    /// occupancy and apply lag per lane through this, so E12 tables and
    /// the SLO engine read the same per-shard signals.
    pub fn sample_shard(&mut self, name: &'static str, shard: u32, t: SimTime, v: f64) {
        if !self.sampling {
            return;
        }
        self.shard_series.entry((name, shard)).or_default().push(t, v);
    }

    /// The shard-`shard` lane of series `name`, if ever sampled.
    pub fn shard_series<'a>(&'a self, name: &'a str, shard: u32) -> Option<&'a TimeSeries> {
        self.shard_series.get(&(name, shard))
    }

    /// All sampled lanes of series `name`, in ascending shard order.
    pub fn shard_lanes<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (u32, &'a TimeSeries)> + 'a {
        self.shard_series
            .range((name, 0)..=(name, u32::MAX))
            .map(|(&(_, s), ts)| (s, ts))
    }

    /// A serializable point-in-time snapshot: counters and gauges by
    /// name, histogram summaries, and per-series value summaries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut series: Vec<(String, SeriesSummary)> = self
            .series
            .iter()
            .map(|(&k, s)| (k.to_string(), SeriesSummary::of(s)))
            // Shard lanes ride in the same list as `name#shard`, so the
            // snapshot schema stays unchanged for unsharded worlds.
            .chain(
                self.shard_series
                    .iter()
                    .map(|(&(k, sh), s)| (format!("{k}#{sh}"), SeriesSummary::of(s))),
            )
            .collect();
        series.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.summary()))
                .collect(),
            series,
        }
    }
}

/// Value summary of one time series, computed over the observed points
/// (not time-weighted): enough to gate regressions on a snapshot without
/// carrying the whole series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Number of observations.
    pub len: u64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// Arithmetic mean of the observed values (0 when empty).
    pub mean: f64,
    /// Last observed value (0 when empty).
    pub last: f64,
}

impl SeriesSummary {
    /// Summarize `series`.
    pub fn of(series: &TimeSeries) -> Self {
        let pts = series.points();
        if pts.is_empty() {
            return SeriesSummary {
                len: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                last: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &(_, v) in pts {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        SeriesSummary {
            len: pts.len() as u64,
            min,
            max,
            mean: sum / pts.len() as f64,
            last: pts.last().expect("invariant: the empty case returned above").1,
        }
    }
}

/// Point-in-time view of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, Summary)>,
    /// Per-series value summaries by name.
    pub series: Vec<(String, SeriesSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("writes.failed"), 0);
        m.inc("writes.failed");
        m.add("writes.failed", 2);
        assert_eq!(m.counter("writes.failed"), 3);
        assert_eq!(m.gauge("journal.cap"), None);
        m.set_gauge("journal.cap", 64.0);
        assert_eq!(m.gauge("journal.cap"), Some(64.0));
    }

    #[test]
    fn histograms_summarize() {
        let mut m = MetricsRegistry::new();
        assert!(m.summary("lat").is_none());
        m.record("lat", 1_000_000);
        m.record("lat", 3_000_000);
        let s = m.summary("lat").expect("two samples recorded");
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 3_000_000);
    }

    #[test]
    fn sampling_is_gated() {
        let mut m = MetricsRegistry::new();
        m.sample("rpo.lag_writes", SimTime::from_millis(1), 5.0);
        assert!(m.series("rpo.lag_writes").is_none());
        m.enable_sampling();
        m.sample("rpo.lag_writes", SimTime::from_millis(2), 5.0);
        m.sample("rpo.lag_writes", SimTime::from_millis(3), 2.0);
        let s = m.series("rpo.lag_writes").expect("sampling enabled");
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn shard_lanes_are_gated_and_keyed_per_shard() {
        let mut m = MetricsRegistry::new();
        m.sample_shard("shard.apply_lag_writes", 0, SimTime::ZERO, 1.0);
        assert!(m.shard_series("shard.apply_lag_writes", 0).is_none());
        m.enable_sampling();
        m.sample_shard("shard.apply_lag_writes", 1, SimTime::ZERO, 3.0);
        m.sample_shard("shard.apply_lag_writes", 0, SimTime::from_millis(1), 2.0);
        m.sample_shard("shard.apply_lag_writes", 1, SimTime::from_millis(1), 5.0);
        // Neighbouring names on either side must not leak into the lanes.
        m.sample_shard("shard.apply_lag", u32::MAX, SimTime::ZERO, 9.0);
        m.sample_shard("shard.journal_occupancy_bytes", 0, SimTime::ZERO, 9.0);
        assert_eq!(
            m.shard_series("shard.apply_lag_writes", 1).map(|s| s.len()),
            Some(2)
        );
        let lanes: Vec<(u32, u64)> = m
            .shard_lanes("shard.apply_lag_writes")
            .map(|(s, ts)| (s, ts.len() as u64))
            .collect();
        assert_eq!(lanes, vec![(0, 1), (1, 2)]);
        // Lanes surface in the snapshot as `name#shard`.
        let snap = m.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "shard.apply_lag#4294967295",
                "shard.apply_lag_writes#0",
                "shard.apply_lag_writes#1",
                "shard.journal_occupancy_bytes#0"
            ]
        );
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut m = MetricsRegistry::new();
        m.enable_sampling();
        m.inc("b.counter");
        m.inc("a.counter");
        m.record("lat", 42);
        m.sample("occ", SimTime::ZERO, 1.0);
        m.sample("occ", SimTime::from_millis(1), 7.0);
        let snap = m.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.counter".to_string(), 1), ("b.counter".to_string(), 1)]
        );
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(
            snap.series,
            vec![(
                "occ".to_string(),
                SeriesSummary {
                    len: 2,
                    min: 1.0,
                    max: 7.0,
                    mean: 4.0,
                    last: 7.0,
                }
            )]
        );
    }
}
