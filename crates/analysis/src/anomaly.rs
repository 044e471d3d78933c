//! Threshold rules and anomaly reports.

use serde::{Deserialize, Serialize};
use teemon_query::Severity;
use teemon_tsdb::Selector;

use crate::stats::WindowStats;

/// How a window statistic is compared against the threshold value.
///
/// This fixed comparison set predates TeeQL and is kept for the sliding
/// window analytics of [`crate::Analyzer`]; for alerting, prefer TeeQL alert
/// rules ([`teemon_query::AlertRule`]), which express these comparisons — and
/// arbitrarily richer ones — as query expressions.
/// [`crate::compile_threshold`] converts any [`Threshold`] into the
/// equivalent TeeQL expression (e.g. `MeanAbove(v)` becomes
/// `avg_over_time(sel[w]) > v`).
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

/// Evaluates a set of threshold rules against windowed series data.
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

    /// Evaluates every rule against a series' windows.  `metric` and `series`
    /// describe the series the windows came from; only rules whose selector
    /// matches are evaluated.
    pub fn evaluate(
        &self,
        metric: &str,
        labels: &teemon_metrics::Labels,
        windows: &[WindowStats],
    ) -> Vec<Anomaly> {
        let mut anomalies = Vec::new();
        for rule in &self.rules {
            if !rule.selector.matches(metric, labels) {
                continue;
            }
            for window in windows {
                if rule.fires_on(window) {
                    anomalies.push(Anomaly {
                        rule: rule.name.clone(),
                        severity: rule.severity,
                        metric: metric.to_string(),
                        series: labels.to_string(),
                        window: *window,
                        hint: rule.hint.clone(),
                    });
                }
            }
        }
        anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BoxPlot;
    use teemon_metrics::Labels;

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
        let detector = AnomalyDetector::with_sgx_defaults();
        let labels = Labels::from_pairs([("node", "n1")]);
        // High eviction rate fires the EPC rule.
        let anomalies =
            detector.evaluate("sgx_pages_evicted_per_second", &labels, &[window(5_000.0, 9_000.0)]);
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].rule, "epc_evictions_high");
        assert_eq!(anomalies[0].severity, Severity::Warning);
        assert!(anomalies[0].hint.contains("EPC"));

        // The same windows on an unrelated metric fire nothing.
        assert!(detector
            .evaluate("unrelated_metric", &labels, &[window(5_000.0, 9_000.0)])
            .is_empty());

        // Low free pages fires the MeanBelow rule.
        let low = detector.evaluate("sgx_nr_free_pages", &labels, &[window(100.0, 200.0)]);
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].rule, "epc_free_pages_low");
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
        let redis = Labels::from_pairs([("app", "redis")]);
        let nginx = Labels::from_pairs([("app", "nginx")]);
        assert_eq!(detector.evaluate("latency_ms", &redis, &[window(20.0, 40.0)]).len(), 1);
        assert!(detector.evaluate("latency_ms", &nginx, &[window(20.0, 40.0)]).is_empty());
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
