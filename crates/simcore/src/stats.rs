//! Latency statistics: exact samples, one quantile rule, summaries.
//!
//! Every quantile the simulator reports is the exact order statistic at
//! index `⌈n·q⌉ − 1` of the sorted samples, with `q` given as `num/den`
//! ([`quantile`]). The `latency` block, the health windows and series,
//! the stage and phase rows and the tail profile all quote it, so two
//! blocks over the same ops quote the same value. [`Latencies`] keeps every
//! sample (8 bytes each) and sorts a copy once per
//! [`Latencies::summary`].
//!
//! ```
//! use simcore::stats::Latencies;
//! use simcore::time::SimDuration;
//!
//! let mut lat = Latencies::new();
//! for us in 1..=1000 {
//!     lat.record(SimDuration::from_micros(us));
//! }
//! let s = lat.summary();
//! assert_eq!(s.p99, SimDuration::from_micros(990));
//! assert_eq!(s.p50, SimDuration::from_micros(500));
//! ```

use crate::time::SimDuration;
use std::fmt;

/// The index of the `num/den` quantile among `len` sorted values:
/// `⌈len·num/den⌉ − 1`, clamped into the slice; `None` when `len` is 0.
pub(crate) fn quantile_index(len: usize, num: u64, den: u64) -> Option<usize> {
    let idx = (len as u64 * num).div_ceil(den).saturating_sub(1) as usize;
    (len > 0).then(|| idx.min(len - 1))
}

/// The exact `num/den` quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[u64], num: u64, den: u64) -> u64 {
    quantile_index(sorted.len(), num, den).map_or(0, |i| sorted[i])
}

/// Every recorded latency sample, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    /// No samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.ns.push(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Appends another set's samples.
    pub fn merge(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// The headline numbers, all zero when empty.
    pub fn summary(&self) -> LatencySummary {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let at = |num, den| SimDuration::from_nanos(quantile(&sorted, num, den));
        let sum: u128 = sorted.iter().map(|&ns| ns as u128).sum();
        LatencySummary {
            count: self.count(),
            mean: SimDuration::from_nanos((sum / self.count().max(1) as u128) as u64),
            p50: at(1, 2),
            p95: at(95, 100),
            p99: at(99, 100),
            p999: at(999, 1000),
            min: SimDuration::from_nanos(sorted.first().copied().unwrap_or(0)),
            max: SimDuration::from_nanos(sorted.last().copied().unwrap_or(0)),
        }
    }
}

/// Headline latency numbers of a [`Latencies`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} p999={} max={}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(us: std::ops::RangeInclusive<u64>) -> LatencySummary {
        let mut lat = Latencies::new();
        for v in us {
            lat.record(SimDuration::from_micros(v));
        }
        lat.summary()
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        // Rank ⌈n·q⌉: the 990th of 1..=1000 µs, where a 1/32-octave bucket
        // edge would quote 983,040 ns.
        let s = ramp(1..=1000);
        assert_eq!(s.p99.as_nanos(), 990_000);
        assert_eq!(s.p50.as_micros(), 500);
        assert_eq!(s.p95.as_micros(), 950);
        assert_eq!(s.p999.as_micros(), 999);
        assert_eq!((s.min.as_micros(), s.max.as_micros()), (1, 1000));
        assert_eq!(s.mean.as_nanos(), 500_500);
    }

    #[test]
    fn the_index_rounds_the_rank_up_and_stays_in_range() {
        assert_eq!(quantile_index(0, 1, 2), None);
        assert_eq!(quantile_index(1, 99, 100), Some(0));
        assert_eq!(quantile_index(2, 1, 2), Some(0));
        assert_eq!(quantile_index(3, 1, 2), Some(1));
        assert_eq!(quantile_index(101, 99, 100), Some(99));
        assert_eq!(quantile_index(5, 0, 1), Some(0));
        assert_eq!(quantile_index(5, 1, 1), Some(4));
        assert_eq!(quantile(&[], 99, 100), 0);
        assert_eq!(quantile(&[3, 5, 8], 99, 100), 8);
    }

    #[test]
    fn summary_ignores_record_order() {
        let mut lat = Latencies::new();
        for us in [7, 1, 9, 3, 5] {
            lat.record(SimDuration::from_micros(us));
        }
        let s = lat.summary();
        assert_eq!((s.count, s.p50.as_micros(), s.max.as_micros()), (5, 5, 9));
        assert_eq!(s.min.as_micros(), 1);
    }

    #[test]
    fn empty_summary_is_all_zeroes() {
        let s = Latencies::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, SimDuration::ZERO);
        assert_eq!(s.p99, SimDuration::ZERO);
        assert_eq!(s.min, SimDuration::ZERO);
    }

    #[test]
    fn merge_appends_samples() {
        let mut a = Latencies::new();
        let mut b = Latencies::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 2);
        assert_eq!((s.min.as_micros(), s.max.as_micros()), (10, 1000));
    }
}
