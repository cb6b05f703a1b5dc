//! The workspace's one histogram: lock-free, log-linear, `u64`-valued.
//!
//! # Bucket layout
//!
//! HDR-style log-linear buckets: values below `2^SUB_BITS` get one bucket
//! each (exact), and every power-of-two range above that is split into
//! `2^SUB_BITS` equal sub-buckets. With [`SUB_BITS`]` = 5` that is 32
//! sub-buckets per octave, a worst-case relative error of `1/32 ≈ 3.1%`,
//! and [`NUM_BUCKETS`]` = 1920` buckets covering the whole `u64` range —
//! small enough to snapshot by copying, precise enough that p999 of a
//! microsecond latency distribution is meaningful, and exact for small
//! work counts such as learnt-clause glue.
//!
//! Recording is one relaxed `fetch_add` on a pre-computed index plus one
//! on the running sum: safe to call from every worker thread with no
//! coordination. The same type serves both sides of the determinism
//! boundary: registry histograms ([`crate::histogram!`]) record work
//! counts and feed `render_deterministic`; wall-clock histograms (serve
//! latency in `lockbind-telemetry`) are unregistered instances that never
//! enter the registry.
//!
//! # Quantiles
//!
//! [`HistogramSnapshot::quantile`] uses the nearest-rank definition: the
//! `q`-quantile of `N` observations is the value at rank
//! `max(1, ceil(q*N))` in sorted order, reported as the upper bound of
//! the bucket that rank falls in — so reported quantiles never
//! understate. `tests/quantile_prop.rs` checks it against a sorted-vector
//! oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: `2^SUB_BITS` linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const LINEAR: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * (1 << SUB_BITS as usize);

/// The bucket index recording `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = (msb - u64::from(SUB_BITS)) as u32;
        let offset = ((v >> shift) & (LINEAR - 1)) as usize;
        (shift as usize + 1) * LINEAR as usize + offset
    }
}

/// The largest value that lands in bucket `idx` — what quantile
/// extraction reports, so reported quantiles never understate.
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR as usize {
        idx as u64
    } else {
        let shift = (idx / LINEAR as usize - 1) as u32;
        let offset = (idx % LINEAR as usize) as u64;
        // Saturate at the top of the u64 range (the last bucket's upper
        // bound would otherwise overflow).
        ((LINEAR + offset + 1) << shift)
            .wrapping_sub(1)
            .max(1 << shift)
    }
}

#[derive(Debug)]
struct Buckets {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A lock-free log-linear histogram of `u64` observations. Clones share
/// one set of buckets (the registry hands out clones of one handle).
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<Buckets>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(Buckets {
                counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value in one atomic add (bulk
    /// import of externally aggregated histograms, e.g. a solver's glue
    /// distribution merged after an attack). The running sum is kept
    /// modulo `2^64`, so `v * n` never overflows.
    pub fn record_n(&self, v: u64, n: u64) {
        self.inner.counts[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.inner
            .sum
            .fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Zeroes every bucket (used when a window slot is recycled).
    pub fn clear(&self) {
        for c in self.inner.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.inner.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        self.add_to(&mut snap);
        snap
    }

    /// Adds this histogram's counts and sum into `acc` (merging a window
    /// of histograms without a copy per slot).
    pub fn add_to(&self, acc: &mut HistogramSnapshot) {
        for (slot, c) in acc.counts.iter_mut().zip(self.inner.counts.iter()) {
            *slot += c.load(Ordering::Relaxed);
        }
        acc.sum = acc.sum.wrapping_add(self.inner.sum.load(Ordering::Relaxed));
    }
}

/// A point-in-time (or merged, or delta) copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub counts: Vec<u64>,
    /// Sum of all recorded values, modulo `2^64` (for mean / `_sum`).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The non-empty buckets as `(upper bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_upper(idx), c))
    }

    /// The activity recorded since `earlier`: bucket-wise subtraction.
    pub(crate) fn delta_from(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, was)| now.saturating_sub(*was))
                .collect(),
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }

    /// The nearest-rank `q`-quantile, as the upper bound of the bucket
    /// the rank falls in; 0 when empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// The largest recorded value, rounded up to its bucket bound.
    pub fn max(&self) -> u64 {
        self.quantile(1.0)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            0.0
        } else {
            self.sum as f64 / total as f64
        }
    }

    /// Count of observations whose bucket upper bound is `<= bound` —
    /// the cumulative `le` series for Prometheus exposition. Values are
    /// attributed to their bucket bound, so the result can overstate by
    /// at most one bucket's relative error (≈3%), never understate.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(idx, _)| bucket_upper(*idx) <= bound)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probe value lands in a bucket whose range contains it:
        // upper bound >= value, and the previous bucket's upper < value.
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < v,
                    "value {v} fits an earlier bucket"
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for idx in 1..NUM_BUCKETS {
            let upper = bucket_upper(idx);
            assert!(
                upper > prev,
                "bounds not increasing at {idx}: {upper} <= {prev}"
            );
            prev = upper;
        }
    }

    #[test]
    fn relative_error_is_bounded_by_sub_bucket_width() {
        for &v in &[100u64, 999, 12_345, 1_000_000, 123_456_789] {
            let upper = bucket_upper(bucket_index(v));
            let err = (upper - v) as f64 / v as f64;
            assert!(
                err <= 1.0 / LINEAR as f64 + 1e-9,
                "error {err} too large for {v}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for glue in 1..=8u64 {
            h.record_n(glue, glue * 10);
        }
        let buckets: Vec<(u64, u64)> = h.snapshot().buckets().collect();
        let expected: Vec<(u64, u64)> = (1..=8u64).map(|g| (g, g * 10)).collect();
        assert_eq!(buckets, expected, "one bucket per value below 32");
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        // Nearest-rank p50 of 1..=1000 is 500; the histogram reports its
        // bucket upper bound.
        assert_eq!(snap.quantile(0.50), bucket_upper(bucket_index(500)));
        assert_eq!(snap.quantile(0.99), bucket_upper(bucket_index(990)));
        assert_eq!(snap.quantile(0.999), bucket_upper(bucket_index(999)));
        assert_eq!(snap.max(), bucket_upper(bucket_index(1000)));
        assert_eq!(snap.sum, 500_500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.cumulative_le(u64::MAX), 0);
        assert_eq!(snap.buckets().count(), 0);
    }

    #[test]
    fn cumulative_le_matches_manual_count() {
        let h = Histogram::new();
        for v in [1u64, 5, 10, 100, 1000, 100_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // Bounds below hold exactly because each probe's bucket upper
        // bound stays under the next cumulative bound tested.
        assert_eq!(snap.cumulative_le(1), 1);
        assert_eq!(snap.cumulative_le(16), 3);
        assert_eq!(snap.cumulative_le(2048), 5);
        assert_eq!(snap.cumulative_le(u64::MAX), 6);
    }

    #[test]
    fn clones_share_buckets_and_clear_zeroes_them() {
        let a = Histogram::new();
        let b = a.clone();
        a.record(7);
        assert_eq!(b.snapshot().count(), 1);
        b.clear();
        assert_eq!(a.snapshot(), HistogramSnapshot::default());
    }
}
