//! PMAN's threshold rules as TeeQL alert rules.
//!
//! A [`Threshold`] compares a window statistic of a selector with a value;
//! [`compile_threshold`] states the same comparison as a TeeQL expression,
//! so the rule can run in [`teemon_query::RuleEngine`] beside every other
//! alert.  PMAN's detector reads the same statistic from the same engine, so
//! the two fire at the same steps.

use teemon_query::{AlertRule, BinOp, Expr, RangeFunc};

use crate::anomaly::{Threshold, ThresholdKind};

/// Compiles a [`Threshold`] into the TeeQL expression it denotes:
/// `MeanAbove(v)` becomes `avg_over_time(sel[w]) > v`, `MaxAbove` uses
/// `max_over_time`, `MedianAbove` uses `quantile_over_time(0.5, ...)`, and
/// `MeanBelow` flips the comparison.
pub fn compile_threshold(threshold: &Threshold, window_ms: u64) -> Expr {
    let range = Expr::Range { selector: threshold.selector.clone(), window_ms: window_ms.max(1) };
    let (func, param, op, value) = match threshold.kind {
        ThresholdKind::MeanAbove(v) => (RangeFunc::AvgOverTime, None, BinOp::Gt, v),
        ThresholdKind::MeanBelow(v) => (RangeFunc::AvgOverTime, None, BinOp::Lt, v),
        ThresholdKind::MaxAbove(v) => (RangeFunc::MaxOverTime, None, BinOp::Gt, v),
        ThresholdKind::MedianAbove(v) => (RangeFunc::QuantileOverTime, Some(0.5), BinOp::Gt, v),
    };
    Expr::Binary {
        op,
        lhs: Box::new(Expr::Call { func, param, arg: Box::new(range) }),
        rhs: Box::new(Expr::Number(value)),
    }
}

impl Threshold {
    /// The TeeQL alert rule equivalent to this threshold over `window_ms`
    /// windows: [`compile_threshold`], with the rule's name, severity and
    /// hint, firing without a `for` hold.
    pub fn alert_rule(&self, window_ms: u64) -> AlertRule {
        AlertRule::new(self.name.clone(), compile_threshold(self, window_ms), self.severity)
            .with_hint(self.hint.clone())
    }
}

/// The default SGX alert rules: [`Threshold::sgx_defaults`] compiled to TeeQL
/// over `window_ms` windows.
pub fn sgx_default_alerts(window_ms: u64) -> Vec<AlertRule> {
    Threshold::sgx_defaults().iter().map(|t| t.alert_rule(window_ms)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;
    use teemon_query::{parse, RuleEngine, RuleGroup, Severity};
    use teemon_tsdb::{Selector, TimeSeriesDb};

    #[test]
    fn thresholds_compile_to_teeql() {
        let thresholds = Threshold::sgx_defaults();
        for t in &thresholds {
            let expr = compile_threshold(t, 300_000);
            // The compiled expression round-trips through the parser.
            assert_eq!(parse(&expr.to_string()).unwrap(), expr);
        }
        let mean_below = thresholds.iter().find(|t| t.name == "epc_free_pages_low").unwrap();
        assert_eq!(
            compile_threshold(mean_below, 300_000).to_string(),
            "avg_over_time(sgx_nr_free_pages[5m]) < 512"
        );
        let median = Threshold::new(
            "m",
            Selector::metric("latency_ms"),
            ThresholdKind::MedianAbove(10.0),
            Severity::Info,
            "",
        );
        assert_eq!(
            compile_threshold(&median, 60_000).to_string(),
            "quantile_over_time(0.5, latency_ms[1m]) > 10"
        );
        let alerts = sgx_default_alerts(300_000);
        assert_eq!(alerts.len(), thresholds.len());
        assert_eq!(alerts[0].name, thresholds[0].name);
        assert_eq!(alerts[0].severity, thresholds[0].severity);
    }

    #[test]
    fn compiled_threshold_fires_like_the_legacy_detector() {
        // The legacy path: MeanBelow(512) over sgx_nr_free_pages windows.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for minute in 0..10u64 {
            let free = if minute < 5 { 20_000.0 } else { 100.0 };
            db.append("sgx_nr_free_pages", &labels, minute * 60_000, free);
        }
        let engine = RuleEngine::new(db);
        let mut group = RuleGroup::new("sgx", 60_000);
        for alert in sgx_default_alerts(300_000) {
            group = group.with_rule(alert);
        }
        engine.add_group(group);
        // At t=10 min the 5-minute window covers only the collapsed values.
        let summary = engine.evaluate_due(10 * 60_000);
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        let firing = engine.firing_alerts();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].rule, "epc_free_pages_low");
        assert!(firing[0].hint.contains("EPC"));
    }
}
