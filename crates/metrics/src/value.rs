//! Histogram and summary values of the wire data model.
//!
//! A histogram or summary point carries its whole distribution: cumulative
//! bucket counts, or precomputed quantiles, plus the sum and count of the
//! observations.  Exporters build these values from what they read at
//! scrape time (the engine's self-telemetry turns its latency histograms
//! into [`HistogramSnapshot`]s), and the text exposition encodes and decodes
//! the same types at the edges.

/// Immutable snapshot of a histogram's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of each bucket (excluding the implicit `+Inf` bucket).
    pub bounds: Vec<f64>,
    /// Cumulative observation counts per bucket, same length as `bounds`,
    /// followed by the `+Inf` bucket appended at the end.
    pub cumulative_counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) assuming a uniform distribution
    /// within each bucket — the same estimation Prometheus' `histogram_quantile`
    /// performs and which PMAN uses for box plots.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut prev_count = 0u64;
        let mut prev_bound = 0.0f64;
        // A bound without a count is not read past.
        for (bound, &c) in self.bounds.iter().zip(&self.cumulative_counts) {
            if (c as f64) >= rank {
                let bucket_count = c - prev_count;
                if bucket_count == 0 {
                    return *bound;
                }
                let within = (rank - prev_count as f64) / bucket_count as f64;
                return prev_bound + (bound - prev_bound) * within;
            }
            prev_count = c;
            prev_bound = *bound;
        }
        // Falls into the +Inf bucket: report the largest finite bound.
        self.bounds.last().copied().unwrap_or(f64::NAN)
    }
}

/// Immutable state of a summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySnapshot {
    /// `(quantile, estimated value)` pairs in ascending quantile order.
    pub quantiles: Vec<(f64, f64)>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(bounds: &[f64], cumulative_counts: &[u64], sum: f64) -> HistogramSnapshot {
        let count = cumulative_counts.last().copied().unwrap_or(0);
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            cumulative_counts: cumulative_counts.to_vec(),
            sum,
            count,
        }
    }

    #[test]
    fn histogram_quantile_estimation() {
        // 1..=100 observed into the linear buckets 10, 20, …, 100.
        let bounds: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        let mut counts: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        counts.push(100);
        let snap = histogram(&bounds, &counts, 5050.0);
        let median = snap.quantile(0.5);
        assert!((median - 50.0).abs() <= 10.0, "median estimate {median} too far from 50");
        assert!(snap.quantile(0.0) <= snap.quantile(0.5));
        assert!(snap.quantile(0.5) <= snap.quantile(1.0));
        // A rank past the last finite bucket reports the largest finite bound.
        assert_eq!(histogram(&[1.0, 2.0], &[0, 0, 1], 9.0).quantile(0.5), 2.0);
    }

    #[test]
    fn a_histogram_with_fewer_counts_than_bounds_estimates_without_panicking() {
        // The fields are public, so an exporter may hand over any shape.
        let short = HistogramSnapshot {
            bounds: vec![1.0, 2.0, 3.0],
            cumulative_counts: vec![4],
            sum: 4.0,
            count: 8,
        };
        assert_eq!(short.quantile(0.5), 1.0);
        assert_eq!(short.quantile(0.9), 3.0);
    }

    #[test]
    fn histogram_quantile_of_empty_is_nan() {
        assert!(histogram(&[1.0, 2.0, 3.0], &[0, 0, 0, 0], 0.0).quantile(0.5).is_nan());
    }
}
