//! Threshold rules and anomaly reports.

use serde::{Deserialize, Serialize};
use teemon_query::Severity;
use teemon_tsdb::Selector;

use crate::stats::WindowStats;

/// How a window statistic is compared against the threshold value.
///
/// [`crate::Analyzer::detect_anomalies`] compares the statistic of the
/// engine's [`crate::BoxPlot`] of each window; [`crate::compile_threshold`]
/// states the same comparison as a TeeQL alert expression (e.g.
/// `MeanAbove(v)` becomes `avg_over_time(sel[w]) > v`), so an anomaly and
/// its alert fire at the same steps.  TeeQL alert rules
/// ([`teemon_query::AlertRule`]) express arbitrarily richer comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdKind {
    /// Fire when the window mean exceeds the value.
    MeanAbove(f64),
    /// Fire when the window mean falls below the value.
    MeanBelow(f64),
    /// Fire when the window maximum exceeds the value.
    MaxAbove(f64),
    /// Fire when the window median exceeds the value.
    MedianAbove(f64),
}

/// A user-defined threshold rule.
///
/// The paper identifies thresholds "using benchmarking with real-world
/// SGX-based applications"; [`Threshold::sgx_defaults`] encodes that set for
/// the simulated substrate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Threshold {
    /// Rule name (appears in alerts).
    pub name: String,
    /// Series this rule applies to.
    pub selector: Selector,
    /// Comparison performed on each window.
    pub kind: ThresholdKind,
    /// Severity of the resulting anomaly.
    pub severity: Severity,
    /// Human-oriented description of the likely root cause.
    pub hint: String,
}

impl Threshold {
    /// Creates a threshold rule.
    pub fn new(
        name: impl Into<String>,
        selector: Selector,
        kind: ThresholdKind,
        severity: Severity,
        hint: impl Into<String>,
    ) -> Self {
        Self { name: name.into(), selector, kind, severity, hint: hint.into() }
    }

    /// The default SGX rule set: high EPC eviction rate, exhausted free pages,
    /// syscall floods and excessive context switches.
    pub fn sgx_defaults() -> Vec<Threshold> {
        vec![
            Threshold::new(
                "epc_evictions_high",
                Selector::metric("sgx_pages_evicted_per_second"),
                ThresholdKind::MeanAbove(1_000.0),
                Severity::Warning,
                "working set exceeds the EPC; expect paging-dominated latency",
            ),
            Threshold::new(
                "epc_free_pages_low",
                Selector::metric("sgx_nr_free_pages"),
                ThresholdKind::MeanBelow(512.0),
                Severity::Warning,
                "EPC nearly exhausted; ksgxswapd will start evicting",
            ),
            Threshold::new(
                "syscall_flood",
                Selector::metric("teemon_syscalls_per_second"),
                ThresholdKind::MeanAbove(100_000.0),
                Severity::Warning,
                "system calls dominate; every call forces an enclave exit",
            ),
            Threshold::new(
                "context_switch_storm",
                Selector::metric("teemon_context_switches_per_second"),
                ThresholdKind::MeanAbove(50_000.0),
                Severity::Critical,
                "host context switches excessive; check framework threading",
            ),
        ]
    }

    /// Evaluates the rule against one window's statistics.
    pub fn fires_on(&self, window: &WindowStats) -> bool {
        match self.kind {
            ThresholdKind::MeanAbove(v) => window.summary.mean > v,
            ThresholdKind::MeanBelow(v) => window.summary.mean < v,
            ThresholdKind::MaxAbove(v) => window.summary.max > v,
            ThresholdKind::MedianAbove(v) => window.summary.median > v,
        }
    }
}

/// An anomaly produced by a fired threshold rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// The rule that fired.
    pub rule: String,
    /// Severity of the rule.
    pub severity: Severity,
    /// Metric the rule matched.
    pub metric: String,
    /// Series labels (rendered) the rule matched.
    pub series: String,
    /// Window that triggered the rule.
    pub window: WindowStats,
    /// The rule's root-cause hint.
    pub hint: String,
}

/// The threshold rules [`crate::Analyzer::detect_anomalies`] runs.
#[derive(Debug, Clone, Default)]
pub struct AnomalyDetector {
    rules: Vec<Threshold>,
}

impl AnomalyDetector {
    /// Creates a detector with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector with the default SGX rule set.
    pub fn with_sgx_defaults() -> Self {
        Self { rules: Threshold::sgx_defaults() }
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: Threshold) {
        self.rules.push(rule);
    }

    /// The configured rules.
    pub fn rules(&self) -> &[Threshold] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BoxPlot;
    use crate::Analyzer;
    use teemon_metrics::Labels;
    use teemon_tsdb::TimeSeriesDb;

    fn window(mean: f64, max: f64) -> WindowStats {
        WindowStats {
            start_ms: 0,
            end_ms: 60_000,
            summary: BoxPlot {
                min: 0.0,
                q1: mean / 2.0,
                median: mean,
                q3: mean * 1.5,
                max,
                mean,
                count: 60,
            },
        }
    }

    #[test]
    fn threshold_kinds_fire_correctly() {
        let w = window(100.0, 500.0);
        let sel = Selector::metric("m");
        assert!(Threshold::new(
            "a",
            sel.clone(),
            ThresholdKind::MeanAbove(50.0),
            Severity::Info,
            ""
        )
        .fires_on(&w));
        assert!(!Threshold::new(
            "b",
            sel.clone(),
            ThresholdKind::MeanAbove(150.0),
            Severity::Info,
            ""
        )
        .fires_on(&w));
        assert!(Threshold::new(
            "c",
            sel.clone(),
            ThresholdKind::MeanBelow(150.0),
            Severity::Info,
            ""
        )
        .fires_on(&w));
        assert!(Threshold::new(
            "d",
            sel.clone(),
            ThresholdKind::MaxAbove(400.0),
            Severity::Info,
            ""
        )
        .fires_on(&w));
        assert!(Threshold::new("e", sel, ThresholdKind::MedianAbove(99.0), Severity::Info, "")
            .fires_on(&w));
    }

    #[test]
    fn detector_matches_rules_by_selector() {
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for minute in 0..6u64 {
            let t = minute * 60_000;
            db.append("sgx_pages_evicted_per_second", &labels, t, 5_000.0);
            db.append("unrelated_metric", &labels, t, 5_000.0);
            db.append("sgx_nr_free_pages", &labels, t, 100.0);
        }
        let analyzer = Analyzer::new(db);
        let detect = |selector: Selector| analyzer.detect_anomalies(&selector, 0, u64::MAX);
        // High eviction rate fires the EPC rule, at each of the six steps.
        let evictions = detect(Selector::metric("sgx_pages_evicted_per_second"));
        assert_eq!(evictions.len(), 6);
        assert!(evictions.iter().all(|a| a.rule == "epc_evictions_high"));
        assert_eq!(evictions[0].severity, Severity::Warning);
        assert!(evictions[0].hint.contains("EPC"));
        assert_eq!(evictions[0].series, labels.to_string());

        // The same values on an unrelated metric fire nothing.
        assert!(detect(Selector::metric("unrelated_metric")).is_empty());

        // Low free pages fires the MeanBelow rule.
        let low = detect(Selector::metric("sgx_nr_free_pages"));
        assert_eq!(low.len(), 6);
        assert!(low.iter().all(|a| a.rule == "epc_free_pages_low"));

        // A name-less selector lets every rule find its own metric.
        assert_eq!(detect(Selector::all()).len(), evictions.len() + low.len());
    }

    #[test]
    fn custom_rules_can_be_added() {
        let mut detector = AnomalyDetector::new();
        assert!(detector.rules().is_empty());
        detector.add_rule(Threshold::new(
            "latency_high",
            Selector::metric("latency_ms").with_label("app", "redis"),
            ThresholdKind::MedianAbove(10.0),
            Severity::Critical,
            "latency above SLO",
        ));
        let db = TimeSeriesDb::new();
        for app in ["redis", "nginx"] {
            db.append("latency_ms", &Labels::from_pairs([("app", app)]), 0, 20.0);
        }
        let analyzer = Analyzer::new(db).with_detector(detector);
        let detect = |selector: Selector| analyzer.detect_anomalies(&selector, 0, u64::MAX);
        let anomalies = detect(Selector::all());
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].series, Labels::from_pairs([("app", "redis")]).to_string());
        // The caller's selector narrows the rule's; one that contradicts it
        // leaves nothing to evaluate.
        assert_eq!(detect(Selector::metric("latency_ms")).len(), 1);
        assert!(detect(Selector::all().with_label("app", "nginx")).is_empty());
        assert!(detect(Selector::metric("other_ms")).is_empty());
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
