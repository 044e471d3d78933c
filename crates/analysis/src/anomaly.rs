//! Anomaly reports: PMAN's alerts as they fired.
//!
//! Anomaly detection evaluates nothing: the rule engine already ran PMAN's
//! rules ([`crate::pman_alerts`]) in the monitoring loop and stored every
//! firing evaluation as an `ALERTS{alertstate="firing"}` sample, which
//! [`detect_anomalies`] reads back.

use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_query::Severity;
use teemon_tsdb::{Selector, TimeSeriesDb};

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

/// The anomalies `db` holds within `[start_ms, end_ms]`: every firing
/// evaluation of an alert rule — PMAN's ([`crate::pman_alerts`]) and any
/// other — that the rule engine recorded as an `ALERTS{alertstate="firing"}`
/// sample, per alert instance in time order.  Each stored sample is one
/// evaluation, so no lookback applies: an alert that resolved stays
/// resolved.
pub fn detect_anomalies(db: &TimeSeriesDb, start_ms: u64, end_ms: u64) -> Vec<Anomaly> {
    let firing = Selector::metric("ALERTS").with_label("alertstate", "firing");
    let mut anomalies = Vec::new();
    for series in db.select(&firing) {
        let rule = series.label_value("alertname").unwrap_or_default().to_string();
        let severity = [Severity::Info, Severity::Warning, Severity::Critical]
            .into_iter()
            .find(|severity| series.label_value("severity") == Some(severity.label()))
            .unwrap_or(Severity::Info);
        let labels = Labels::from_pairs(
            series
                .labels()
                .filter(|(name, _)| !matches!(*name, "alertname" | "alertstate" | "severity")),
        );
        anomalies.extend(series.points_in(start_ms, end_ms).into_iter().map(|sample| Anomaly {
            rule: rule.clone(),
            severity,
            labels: labels.clone(),
            at_ms: sample.timestamp_ms,
        }));
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_query::{parse, AlertRule, QueryEngine, RuleEngine, RuleGroup};

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
        let anomalies = detect_anomalies(&db, 0, u64::MAX);
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

    #[test]
    fn anomaly_detection_over_db_ranges() {
        // Twelve one-minute samples; free pages collapse at minute 5.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        let rules = RuleEngine::new(db.clone());
        rules.add_group(crate::pman_alerts());
        let mut ticks = Vec::new();
        for minute in 0..12u64 {
            let t = minute * 60_000;
            let free = if minute < 5 { 20_000.0 } else { 100.0 };
            db.append("sgx_nr_free_pages", &labels, t, free);
            let summary = rules.evaluate_due(t);
            assert!(summary.errors.is_empty(), "{:?}", summary.errors);
            let firing = rules.firing_alerts();
            if let Some(alert) = firing.iter().find(|a| a.rule == "epc_free_pages_low") {
                assert!(alert.hint.contains("EPC"), "the live alert carries the hint");
                ticks.push(t);
            }
        }
        // The 5-minute mean falls below 512 once the closed window has left
        // minute 4 behind: from minute 10 on.
        assert_eq!(ticks, [600_000, 660_000]);

        let anomalies = detect_anomalies(&db, 0, 700_000);
        let at: Vec<u64> = anomalies.iter().map(|a| a.at_ms).collect();
        assert_eq!(at, ticks);
        for anomaly in &anomalies {
            assert_eq!(anomaly.rule, "epc_free_pages_low");
            assert_eq!(anomaly.severity, Severity::Warning);
            assert_eq!(anomaly.labels, labels);
        }
        // The range picks evaluations, nothing is smeared across a window.
        let first: Vec<u64> = detect_anomalies(&db, 0, 630_000).iter().map(|a| a.at_ms).collect();
        assert_eq!(first, [600_000]);
        // A range outside the data has no anomalies.
        assert!(detect_anomalies(&db, 800_000, 900_000).is_empty());
    }

    #[test]
    fn an_anomaly_fires_exactly_where_its_alert_fires() {
        // Twelve one-minute samples of `m`, one spike of 1000 at minute 5,
        // watched by a user rule evaluated every minute as they arrive.
        let db = TimeSeriesDb::new();
        let expr = parse("max_over_time(m[5m]) > 500").unwrap();
        let rules = RuleEngine::new(db.clone());
        rules.add_group(RuleGroup::new("spikes", 60_000).with_rule(AlertRule::new(
            "spike",
            expr.clone(),
            Severity::Warning,
        )));
        for minute in 0..12u64 {
            let value = if minute == 5 { 1_000.0 } else { 1.0 };
            db.append("m", &Labels::new(), minute * 60_000, value);
            let summary = rules.evaluate_due(minute * 60_000);
            assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        }
        let anomalies = detect_anomalies(&db, 0, u64::MAX);
        let pman: Vec<u64> = anomalies.iter().map(|a| a.at_ms).collect();

        // The alert's expression on the same grid: [0, 660 s] every minute.
        let engine = QueryEngine::new(db);
        let firing = engine.range(&expr, 0, 660_000, 60_000).unwrap();
        let alerted: Vec<u64> = firing[0].points.iter().map(|p| p.timestamp_ms).collect();
        assert_eq!(pman, alerted);
        assert_eq!(pman, (5..=10).map(|m| m * 60_000).collect::<Vec<_>>());
        assert!(anomalies.iter().all(|a| a.rule == "spike" && a.severity == Severity::Warning));
    }
}
