//! PMAN's threshold rules as one TeeQL rule group.
//!
//! §4: PMAN "processes every minute for the last five minutes of the
//! monitoring data" and "compares the monitoring data with user-defined
//! thresholds".  [`pman_alerts`] states those thresholds as alert rules over
//! 5-minute windows, evaluated every minute by [`teemon_query::RuleEngine`]
//! inside the monitoring loop; each firing evaluation is an `ALERTS` sample,
//! which [`crate::Analyzer::detect_anomalies`] reads back as an anomaly.
//! Further rules are any [`AlertRule`] in a group of the caller's own.

use teemon_query::{parse, AlertRule, RuleGroup, Severity};

/// The `teemon_pman` group: the default SGX thresholds, the paper's
/// constants, each over a series the full monitoring stack exports.
///
/// * `epc_evictions_high` — more than 1 000 EPC pages evicted a second,
/// * `epc_free_pages_low` — fewer than 512 free EPC pages on average,
/// * `syscall_flood` — more than 100 000 system calls a second per process,
/// * `context_switch_storm` — more than 50 000 host context switches a
///   second.
pub fn pman_alerts() -> RuleGroup {
    let rule = |name: &str, query: &str, severity, hint: &str| {
        // The expressions are compile-time constants; a unit test reparses every one of them.
        AlertRule::new(name, parse(query).expect("built-in rule parses"), severity).with_hint(hint)
    };
    RuleGroup::new("teemon_pman", 60_000)
        .with_rule(rule(
            "epc_evictions_high",
            "rate(sgx_pages_evicted_total[5m]) > 1000",
            Severity::Warning,
            "working set exceeds the EPC; expect paging-dominated latency",
        ))
        .with_rule(rule(
            "epc_free_pages_low",
            "avg_over_time(sgx_nr_free_pages[5m]) < 512",
            Severity::Warning,
            "EPC nearly exhausted; ksgxswapd will start evicting",
        ))
        .with_rule(rule(
            "syscall_flood",
            "sum without (syscall) (rate(teemon_syscalls_total[5m])) > 100000",
            Severity::Warning,
            "system calls dominate; every call forces an enclave exit",
        ))
        .with_rule(rule(
            "context_switch_storm",
            r#"rate(teemon_context_switches_total{scope="host_total"}[5m]) > 50000"#,
            Severity::Critical,
            "host context switches excessive; check framework threading",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;
    use teemon_query::{Rule, RuleEngine};
    use teemon_tsdb::TimeSeriesDb;

    #[test]
    fn thresholds_compile_to_teeql() {
        let group = pman_alerts();
        assert_eq!((group.name.as_str(), group.interval_ms), ("teemon_pman", 60_000));
        let mut named = Vec::new();
        for rule in &group.rules {
            let Rule::Alert(alert) = rule else { panic!("the PMAN group is alerts only") };
            // Every built-in expression round-trips through the parser (the
            // group builder unwraps on this invariant).
            assert_eq!(parse(&alert.expr.to_string()).unwrap(), alert.expr);
            assert_eq!(alert.for_ms, 0, "a threshold fires on the window that crosses it");
            named.push((alert.name.as_str(), alert.severity));
        }
        assert_eq!(
            named,
            [
                ("epc_evictions_high", Severity::Warning),
                ("epc_free_pages_low", Severity::Warning),
                ("syscall_flood", Severity::Warning),
                ("context_switch_storm", Severity::Critical),
            ]
        );
    }

    #[test]
    fn compiled_threshold_fires_like_the_legacy_detector() {
        // PMAN's check: the mean of the last five minutes of free EPC pages
        // below 512, now `avg_over_time(sgx_nr_free_pages[5m]) < 512`.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        for minute in 0..10u64 {
            let free = if minute < 5 { 20_000.0 } else { 100.0 };
            db.append("sgx_nr_free_pages", &labels, minute * 60_000, free);
        }
        let engine = RuleEngine::new(db);
        engine.add_group(pman_alerts());
        // At t=10 min the 5-minute window covers only the collapsed values.
        let summary = engine.evaluate_due(10 * 60_000);
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        let firing = engine.firing_alerts();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].rule, "epc_free_pages_low");
        assert_eq!(firing[0].labels, labels);
        assert!(firing[0].hint.contains("EPC"));
    }
}
