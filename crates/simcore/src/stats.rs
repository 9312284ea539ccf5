//! Latency statistics: log-bucketed histograms and summaries.
//!
//! [`Histogram`] keeps HDR-style buckets (5 significant bits per power of
//! two), giving ~3% relative quantile error over 1 ns .. 18 s at a fixed,
//! small memory footprint — exactly what tail-latency experiments need.
//!
//! ```
//! use simcore::stats::Histogram;
//! use simcore::time::SimDuration;
//!
//! let mut h = Histogram::new();
//! for us in 1..=1000 {
//!     h.record(SimDuration::from_micros(us));
//! }
//! let p99 = h.quantile(0.99);
//! assert!((960..=1020).contains(&p99.as_micros()));
//! ```

use crate::time::SimDuration;
use std::fmt;

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 32 linear sub-buckets / octave
const OCTAVES: usize = 64 - SUB_BUCKET_BITS as usize;
const NUM_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A log-bucketed latency histogram with bounded relative error.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

fn bucket_of(value_ns: u64) -> usize {
    if value_ns < SUB_BUCKETS as u64 {
        return value_ns as usize;
    }
    let octave = 63 - value_ns.leading_zeros(); // >= SUB_BUCKET_BITS
    let shift = octave - SUB_BUCKET_BITS;
    let sub = (value_ns >> shift) as usize & (SUB_BUCKETS - 1);
    ((octave - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
}

/// Upper edge (inclusive representative value) of a bucket.
fn bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index / SUB_BUCKETS - 1) as u32 + SUB_BUCKET_BITS;
    let sub = (index % SUB_BUCKETS) as u64;
    let shift = octave - SUB_BUCKET_BITS;
    ((1u64 << SUB_BUCKET_BITS) | sub) << shift
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of all samples ([`SimDuration::ZERO`] when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    /// Smallest recorded sample ([`SimDuration::ZERO`] when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The value at quantile `q ∈ [0, 1]`, with ~3% relative error.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        // Every bucket below the one holding `min_ns` is empty by
        // construction, so start the scan there instead of at index 0.
        let start = bucket_of(self.min_ns);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate().skip(start) {
            seen += c;
            if seen >= rank {
                // Clamp to the observed extremes so q=1.0 reports max exactly.
                return SimDuration::from_nanos(bucket_value(i).clamp(self.min_ns, self.max_ns));
            }
        }
        self.max()
    }

    /// Occupied buckets as `(upper_edge, count)` pairs, in ascending order.
    ///
    /// Empty buckets are skipped, so this is suitable for plotting the full
    /// latency distribution without materialising ~1,900 mostly-zero rows.
    pub fn buckets(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (SimDuration::from_nanos(bucket_value(i)), c))
    }

    /// Convenience accessor for the median.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// Convenience accessor for the 95th percentile.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Convenience accessor for the 99.9th percentile.
    pub fn p999(&self) -> SimDuration {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Snapshot of the headline numbers.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            p999: self.p999(),
            min: self.min(),
            max: self.max(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

/// Headline latency numbers extracted from a [`Histogram`].
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

/// A plain monotonically increasing counter with a name, for bookkeeping like
/// context switches or bytes moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Resets to zero and returns the old value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_error_is_bounded() {
        for &v in &[1u64, 31, 32, 33, 100, 1_000, 65_535, 1 << 20, u64::MAX / 2] {
            let b = bucket_of(v);
            let rep = bucket_value(b);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "v={v} rep={rep} err={err}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for v in (0..200_000u64).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket index decreased at {v}");
            last = b;
        }
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        // Exact p99 is 9 900 us; the histogram guarantees ~3% relative error.
        assert!(
            (9_600..=10_000).contains(&h.p99().as_micros()),
            "{:?}",
            h.p99()
        );
        assert!(
            (4_800..=5_200).contains(&h.p50().as_micros()),
            "{:?}",
            h.p50()
        );
        assert_eq!(h.min().as_micros(), 1);
        assert_eq!(h.max().as_micros(), 10_000);
        assert!((4_900..=5_100).contains(&h.mean().as_micros()));
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(42));
        assert_eq!(h.p50().as_micros(), 42);
        assert_eq!(h.p99().as_micros(), 42);
        assert_eq!(h.quantile(1.0).as_micros(), 42);
        assert_eq!(h.quantile(0.0).as_micros(), 42);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max().as_micros(), 1000);
        assert_eq!(a.min().as_micros(), 10);
    }

    #[test]
    fn summary_is_consistent() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(SimDuration::from_micros(i));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn counter_behaviour() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        Histogram::new().quantile(1.5);
    }
}
