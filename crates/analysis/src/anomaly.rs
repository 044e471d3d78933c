//! Anomaly reports: PMAN's threshold alerts as they fired.

use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_query::Severity;

/// One firing evaluation of an alert rule, read back from the
/// `ALERTS{alertstate="firing"}` series the rule engine appends.  The rule's
/// root-cause hint stays on the rule; a live [`teemon_query::Alert`] carries
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// The rule that fired (the `alertname` label).
    pub rule: String,
    /// Severity of the rule (the `severity` label).
    pub severity: Severity,
    /// The alert instance's labels, without `alertname`, `alertstate` and
    /// `severity`.
    pub labels: Labels,
    /// When the rule was evaluated and fired (ms).
    pub at_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use teemon_query::{parse, AlertRule, RuleEngine, RuleGroup};
    use teemon_tsdb::TimeSeriesDb;

    #[test]
    fn custom_rules_can_be_added() {
        // A user-defined threshold is any alert rule, in a group of its own.
        let db = TimeSeriesDb::new();
        let rules = RuleEngine::new(db.clone());
        let median = r#"quantile_over_time(0.5, latency_ms{app="redis"}[1m]) > 10"#;
        rules.add_group(
            RuleGroup::new("latency", 60_000).with_rule(
                AlertRule::new("latency_high", parse(median).unwrap(), Severity::Critical)
                    .with_hint("latency above SLO"),
            ),
        );
        for minute in 0..3u64 {
            for app in ["redis", "nginx"] {
                db.append("latency_ms", &Labels::from_pairs([("app", app)]), minute * 60_000, 20.0);
            }
            rules.evaluate_due(minute * 60_000);
        }
        // One anomaly per firing evaluation, of the one instance the rule
        // selects, with the rule's name and severity read off the labels.
        let anomalies = Analyzer::new(db).detect_anomalies(0, u64::MAX);
        let expected: Vec<Anomaly> = (0..3u64)
            .map(|minute| Anomaly {
                rule: "latency_high".into(),
                severity: Severity::Critical,
                labels: Labels::from_pairs([("app", "redis")]),
                at_ms: minute * 60_000,
            })
            .collect();
        assert_eq!(anomalies, expected);
    }
}
