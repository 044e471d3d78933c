//! Log-linear latency histograms: power-of-two nanosecond buckets recorded
//! with relaxed atomics.
//!
//! Recording is the engine's telemetry hot path, so it must be as close to
//! free as a metric can be: [`LogLinearHist::record_ns`] performs exactly two
//! relaxed `fetch_add`s (bucket count and nanosecond sum) — no locks, no
//! allocation, no floating point.  Bucket boundaries are powers of two, so
//! the bucket index is a `leading_zeros` away; the decoded bounds (in
//! seconds) follow Prometheus histogram conventions when snapshotted into a
//! [`HistogramSnapshot`] for exposition.
//!
//! The bucket layout is fixed: `BUCKETS` counters covering
//! `(2^8, 2^31]` nanoseconds (≈ 512 ns to ≈ 2.1 s) in ×2 steps, with
//! everything faster in the first bucket and everything slower in the
//! implicit `+Inf` bucket — wide enough for a probe record on one end and a
//! pathological scrape round on the other.

use std::sync::atomic::{AtomicU64, Ordering};

use teemon_metrics::HistogramSnapshot;

/// Number of atomic buckets (the last one doubles as the `+Inf` bucket, so
/// there are `BUCKETS - 1` finite bounds).
pub(crate) const BUCKETS: usize = 24;

/// `log2` of the first bucket's upper bound in nanoseconds: bucket 0 holds
/// everything up to `2^(MIN_SHIFT + 1)` ns.
const MIN_SHIFT: u32 = 8;

/// A fixed-slot log-linear histogram of nanosecond durations.
pub struct LogLinearHist {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LogLinearHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHist {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        #[allow(
            clippy::declare_interior_mutable_const,
            reason = "the const only repeats a non-Copy initialiser; each array element is its own atomic"
        )]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self { buckets: [ZERO; BUCKETS], sum_ns: ZERO }
    }

    /// Records one duration: two relaxed `fetch_add`s, nothing else.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(bucket) = self.buckets.get(bucket_index(ns)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of recorded durations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Snapshots into the canonical bucketed exposition form.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot::default();
        self.snapshot_into(&mut snapshot);
        snapshot
    }

    /// Overwrites `out` with the histogram's current state in place: once
    /// `out` has held a snapshot of this layout, nothing is allocated.
    pub(crate) fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        out.bounds.clear();
        out.cumulative_counts.clear();
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if i < BUCKETS - 1 {
                out.bounds.push(bound_seconds(i));
            }
            out.cumulative_counts.push(cumulative);
        }
        out.sum = self.sum_ns() as f64 / 1e9;
        out.count = cumulative;
    }
}

/// The bucket a duration belongs to: bucket `i` holds
/// `(2^(MIN_SHIFT + i), 2^(MIN_SHIFT + i + 1)]` nanoseconds, with bucket 0
/// additionally absorbing everything faster and the last bucket everything
/// slower.
#[inline]
pub(crate) fn bucket_index(ns: u64) -> usize {
    // `ns - 1` makes exact powers of two land in the bucket they bound
    // (le-inclusive, like Prometheus); `| 1` keeps 0 and 1 well-defined.
    let log2 = 63 - (ns.saturating_sub(1) | 1).leading_zeros();
    (log2.saturating_sub(MIN_SHIFT) as usize).min(BUCKETS - 1)
}

/// Upper bound of bucket `i` in seconds (`+Inf` for the last bucket).
pub(crate) fn bound_seconds(i: usize) -> f64 {
    if i >= BUCKETS - 1 {
        f64::INFINITY
    } else {
        (1u64 << (MIN_SHIFT as usize + 1 + i)) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_le_inclusive_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(512), 0, "exact bound stays in its bucket");
        assert_eq!(bucket_index(513), 1);
        assert_eq!(bucket_index(1024), 1);
        assert_eq!(bucket_index(1025), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_are_powers_of_two() {
        assert_eq!(bound_seconds(0), 512e-9);
        assert_eq!(bound_seconds(1), 1024e-9);
        assert!(bound_seconds(BUCKETS - 1).is_infinite());
        assert!((bound_seconds(BUCKETS - 2) - (1u64 << 31) as f64 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_counts_and_sum() {
        let hist = LogLinearHist::new();
        hist.record_ns(100);
        hist.record_ns(700);
        hist.record_ns(5_000_000_000); // 5 s → +Inf bucket
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.bounds.len(), BUCKETS - 1);
        assert_eq!(snap.cumulative_counts.len(), BUCKETS);
        assert_eq!(snap.cumulative_counts[0], 1);
        assert_eq!(snap.cumulative_counts[1], 2);
        assert_eq!(*snap.cumulative_counts.last().unwrap(), 3);
        assert!((snap.sum - 5.0000008).abs() < 1e-6);
        // Cumulative counts are monotone.
        assert!(snap.cumulative_counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn quantile_estimates_land_in_the_recorded_range() {
        let hist = LogLinearHist::new();
        for _ in 0..100 {
            hist.record_ns(10_000); // 10 µs
        }
        let q = hist.snapshot().quantile(0.5);
        assert!(q > 1e-6 && q < 1e-4, "median ≈ 10 µs, got {q}");
    }
}
