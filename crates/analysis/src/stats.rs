//! Sliding windows, window statistics and box plots.

use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_query::{EvalError, Expr, QueryEngine, RangeFunc};
use teemon_tsdb::Selector;

/// A five-number summary (plus mean) of a metric over a window — the "box plot
/// for SGX metrics" PMAN provides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples summarised.
    pub count: usize,
}

impl BoxPlot {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// `true` when `value` lies outside the Tukey fences (1.5 × IQR beyond the
    /// quartiles) — a standard box-plot outlier rule.
    pub fn is_outlier(&self, value: f64) -> bool {
        let fence = 1.5 * self.iqr();
        value < self.q1 - fence || value > self.q3 + fence
    }
}

/// Statistics of one evaluated window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window start timestamp (ms).
    pub start_ms: u64,
    /// Window end timestamp (ms).
    pub end_ms: u64,
    /// Box-plot summary of the window's values.
    pub summary: BoxPlot,
}

/// The statistic of a [`BoxPlot`] one engine function fills in.
type Field = fn(&mut BoxPlot) -> &mut f64;

/// A sliding window: its length and the step it advances by.
///
/// PMAN's default is a 5-minute window advanced every minute ("it processes
/// every minute for the last five minutes", §4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlidingWindow {
    /// Window length in milliseconds.
    pub window_ms: u64,
    /// Step between successive window evaluations in milliseconds.
    pub step_ms: u64,
}

impl Default for SlidingWindow {
    fn default() -> Self {
        Self { window_ms: 5 * 60 * 1000, step_ms: 60 * 1000 }
    }
}

impl SlidingWindow {
    /// Creates a window of `window_ms` advanced by `step_ms`.
    pub fn new(window_ms: u64, step_ms: u64) -> Self {
        Self { window_ms: window_ms.max(1), step_ms: step_ms.max(1) }
    }

    /// The box plot of every window `[t − window_ms, t]` that holds a
    /// sample, for `t` on the grid `[start_ms, end_ms]` advanced by
    /// `step_ms`, per series `selector` picks (in key order).  Each statistic
    /// is the engine's: `count_over_time`, `min_over_time`,
    /// `quantile_over_time(0.25 | 0.5 | 0.75)`, `max_over_time` and
    /// `avg_over_time` — the functions [`crate::compile_threshold`] gives an
    /// alert.  The functions drop the metric name, so `selector` should pick
    /// one metric.
    pub(crate) fn box_plots(
        &self,
        engine: &QueryEngine,
        selector: &Selector,
        start_ms: u64,
        end_ms: u64,
    ) -> Result<Vec<(Labels, Vec<WindowStats>)>, EvalError> {
        let range = Expr::Range { selector: selector.clone(), window_ms: self.window_ms };
        let column = |func, param| {
            let expr = Expr::Call { func, param, arg: Box::new(range.clone()) };
            engine.range(&expr, start_ms, end_ms, self.step_ms)
        };
        let window = |(end_ms, count): (u64, f64)| WindowStats {
            start_ms: end_ms.saturating_sub(self.window_ms),
            end_ms,
            summary: BoxPlot {
                min: f64::NAN,
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
                count: count as usize,
            },
        };
        // A window holds a sample exactly where every function has a value,
        // so the other columns line up with the counts point for point.
        let mut plots: Vec<(Labels, Vec<WindowStats>)> = column(RangeFunc::CountOverTime, None)?
            .into_iter()
            .map(|series| (series.labels, series.points.into_iter().map(window).collect()))
            .collect();
        let fields: [(RangeFunc, Option<f64>, Field); 6] = [
            (RangeFunc::MinOverTime, None, |plot| &mut plot.min),
            (RangeFunc::QuantileOverTime, Some(0.25), |plot| &mut plot.q1),
            (RangeFunc::QuantileOverTime, Some(0.5), |plot| &mut plot.median),
            (RangeFunc::QuantileOverTime, Some(0.75), |plot| &mut plot.q3),
            (RangeFunc::MaxOverTime, None, |plot| &mut plot.max),
            (RangeFunc::AvgOverTime, None, |plot| &mut plot.mean),
        ];
        for (func, param, field) in fields {
            for ((_, windows), series) in plots.iter_mut().zip(column(func, param)?) {
                for (window, (_, value)) in windows.iter_mut().zip(series.points) {
                    *field(&mut window.summary) = value;
                }
            }
        }
        Ok(plots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_tsdb::TimeSeriesDb;

    /// `values` one a second from `t = 0`, as the series `m`.
    fn engine(values: impl IntoIterator<Item = f64>) -> QueryEngine {
        let db = TimeSeriesDb::new();
        for (i, value) in values.into_iter().enumerate() {
            db.append("m", &Labels::new(), i as u64 * 1000, value);
        }
        QueryEngine::new(db)
    }

    /// The windows of the one series `m`, on the grid `[start_ms, end_ms]`.
    fn windows(
        engine: &QueryEngine,
        window: &SlidingWindow,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<WindowStats> {
        let plots = window.box_plots(engine, &Selector::metric("m"), start_ms, end_ms).unwrap();
        plots.into_iter().flat_map(|(_, windows)| windows).collect()
    }

    /// The box plot of 1, 2, …, 100 in one window.
    fn one_to_a_hundred() -> BoxPlot {
        let engine = engine((1..=100).map(f64::from));
        let [only] = windows(&engine, &SlidingWindow::new(100_000, 1_000), 99_000, 99_000)[..]
        else {
            panic!("one window expected")
        };
        only.summary
    }

    #[test]
    fn box_plot_five_number_summary() {
        let bp = one_to_a_hundred();
        assert_eq!(bp.min, 1.0);
        assert_eq!(bp.max, 100.0);
        assert!((bp.median - 50.5).abs() < 1e-9);
        assert!((bp.q1 - 25.75).abs() < 1e-9);
        assert!((bp.q3 - 75.25).abs() < 1e-9);
        assert!((bp.mean - 50.5).abs() < 1e-9);
        assert_eq!(bp.count, 100);
        assert!(bp.iqr() > 0.0);
    }

    #[test]
    fn empty_windows_have_no_box_plot_and_nan_is_the_engines() {
        // Samples at 0 s and 1 s: the closed 10 s windows ending at 0 … 11 s
        // hold one, the later ones none.
        let nan = engine([f64::NAN, f64::NAN]);
        let found = windows(&nan, &SlidingWindow::new(10_000, 1_000), 0, 30_000);
        let ends: Vec<u64> = found.iter().map(|w| w.end_ms).collect();
        assert_eq!(ends, (0..=11).map(|s| s * 1_000).collect::<Vec<_>>());
        // No sample is dropped for being NaN; the statistics are NaN.
        assert_eq!(found[5].summary.count, 2);
        assert!(found[5].summary.mean.is_nan() && found[5].summary.median.is_nan());
        let single = windows(&engine([7.0]), &SlidingWindow::new(10_000, 1_000), 0, 0);
        assert_eq!((single[0].summary.min, single[0].summary.max), (7.0, 7.0));
    }

    #[test]
    fn outlier_detection_uses_tukey_fences() {
        let bp = one_to_a_hundred();
        assert!(!bp.is_outlier(50.0));
        assert!(!bp.is_outlier(100.0));
        assert!(bp.is_outlier(500.0));
        assert!(bp.is_outlier(-500.0));
    }

    #[test]
    fn sliding_window_evaluates_per_step() {
        // One sample per second for 10 minutes; 5-minute window, 1-minute step.
        let engine = engine((0..600).map(|i| f64::from(i % 60)));
        let found = windows(&engine, &SlidingWindow::default(), 0, 599_000);
        assert_eq!(found.len(), 10, "one window per grid step");
        for w in &found {
            assert!(w.end_ms - w.start_ms <= 5 * 60 * 1000);
            assert!(w.summary.count > 0);
        }
        // Windows advance monotonically and are closed: `[t − 5m, t]`.
        assert!(found.windows(2).all(|p| p[0].end_ms < p[1].end_ms));
        assert_eq!(found[5].summary.count, 301);
    }

    #[test]
    fn latest_window_covers_recent_samples_only() {
        let engine = engine((0..100).map(f64::from));
        let window = SlidingWindow::new(10_000, 1_000);
        let [latest] = windows(&engine, &window, 99_000, 99_000)[..] else { panic!() };
        assert_eq!(latest.start_ms, 89_000);
        assert_eq!(latest.summary.min, 89.0, "the window's start is inside it");
        assert!(
            windows(&engine, &window, 1_000_000, 1_000_000).is_empty(),
            "stale data must not fill the window"
        );
    }

    #[test]
    fn empty_input_evaluates_to_no_windows() {
        let plots =
            SlidingWindow::default().box_plots(&engine([]), &Selector::metric("m"), 0, 600_000);
        assert!(plots.unwrap().is_empty());
    }
}
