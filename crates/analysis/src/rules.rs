//! PMAN's thresholds and bottleneck diagnoses as one TeeQL rule group.
//!
//! §4: PMAN "processes every minute for the last five minutes of the
//! monitoring data" and "compares the monitoring data with user-defined
//! thresholds".  [`pman_alerts`] states those thresholds, and the bottleneck
//! diagnoses of §6.4/§6.5, as alert rules over 5-minute windows, evaluated
//! every minute by [`teemon_query::RuleEngine`] inside the monitoring loop;
//! each firing evaluation is an `ALERTS` sample, which
//! [`crate::detect_anomalies`] reads back as an anomaly.  Further rules are
//! any [`AlertRule`] in a group of the caller's own.

use teemon_query::{parse, AlertRule, RuleGroup, Severity};

/// The `teemon_pman` group: the default SGX thresholds and the bottleneck
/// diagnoses, with the paper's constants, each over series a full monitoring
/// stack exports — the per-request ones also over the application's own
/// `app_requests_total` (a deployment's
/// `teemon_frameworks::RequestCounter`, registered as a scrape target).
/// Every rule sums over every series it selects, so on a cluster aggregator
/// it judges the fleet as a whole.
///
/// * `epc_evictions_high` — more than 1 000 EPC pages evicted a second,
/// * `epc_free_pages_low` — fewer than 512 free EPC pages on average,
/// * `syscall_flood` — more than 100 000 system calls a second per process,
/// * `context_switch_storm` — more than 50 000 host context switches a
///   second,
/// * `syscall_dominance` (§6.4) — one system call other than
///   `read`/`write`/`recvfrom`/`sendto` is at least half of all calls,
///   labelled by that call, its share the value,
/// * `epc_thrashing` (§6.5) — at least 50 EPC pages evicted per 100
///   requests,
/// * `context_switch_storm_per_request` (§6.5) — at least 2 context
///   switches per request on the host, ksgxswapd's left out: they are one
///   per eviction, which `epc_thrashing` reports.  ksgxswapd is the first
///   process a kernel starts, so its per-PID series is `scope="pid_100"`;
///   the rule sums every other per-PID series, which together are the
///   host's total less ksgxswapd's and do not go missing on a host where
///   ksgxswapd never ran.
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
        .with_rule(rule(
            "syscall_dominance",
            r#"sum by (syscall) (increase(teemon_syscalls_total{syscall!="read",syscall!="write",syscall!="recvfrom",syscall!="sendto"}[5m])) / scalar(sum(increase(teemon_syscalls_total[5m]))) >= 0.5"#,
            Severity::Warning,
            "a system call other than I/O is half or more of all calls; each call is an \
             expensive enclave exit — consider handling it inside the enclave",
        ))
        .with_rule(rule(
            "epc_thrashing",
            "sum(increase(sgx_pages_evicted_total[5m])) * 100 / sum(increase(app_requests_total[5m])) >= 50",
            Severity::Warning,
            "EPC pages evicted per 100 requests: the working set does not fit the ~94 MiB \
             EPC; expect paging-dominated latency",
        ))
        .with_rule(rule(
            "context_switch_storm_per_request",
            r#"sum(increase(teemon_context_switches_total{scope!="host_total",scope!="pid_100"}[5m])) / sum(increase(app_requests_total[5m])) >= 2"#,
            Severity::Warning,
            "host context switches per request: the framework's host interaction \
             (synchronous exits, helper threads) dominates",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;
    use teemon_query::{Alert, Rule, RuleEngine};
    use teemon_tsdb::TimeSeriesDb;

    /// The alerts firing after one evaluation of the PMAN group at `at_ms`;
    /// every rule must evaluate.
    fn firing_at(db: &TimeSeriesDb, at_ms: u64) -> Vec<Alert> {
        let engine = RuleEngine::new(db.clone());
        engine.add_group(pman_alerts());
        let summary = engine.evaluate_due(at_ms);
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        engine.firing_alerts()
    }

    fn fired<'a>(firing: &'a [Alert], rule: &str) -> Option<&'a Alert> {
        firing.iter().find(|alert| alert.rule == rule)
    }

    /// A counter series rising from 0 at t = 0 to `total` at one minute.
    fn counter(db: &TimeSeriesDb, metric: &str, labels: &[(&str, &str)], total: f64) {
        let labels = Labels::from_pairs(labels.iter().copied());
        db.append(metric, &labels, 0, 0.0);
        db.append(metric, &labels, 60_000, total);
    }

    fn db_with_syscall_mix(clock: f64, read: f64, write: f64) -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for (syscall, total) in [("clock_gettime", clock), ("read", read), ("write", write)] {
            counter(&db, "teemon_syscalls_total", &[("syscall", syscall), ("node", "n1")], total);
        }
        db
    }

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
            assert!(!alert.hint.is_empty(), "{} explains itself", alert.name);
            named.push((alert.name.as_str(), alert.severity));
        }
        assert_eq!(
            named,
            [
                ("epc_evictions_high", Severity::Warning),
                ("epc_free_pages_low", Severity::Warning),
                ("syscall_flood", Severity::Warning),
                ("context_switch_storm", Severity::Critical),
                ("syscall_dominance", Severity::Warning),
                ("epc_thrashing", Severity::Warning),
                ("context_switch_storm_per_request", Severity::Warning),
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
        // At t=10 min the 5-minute window covers only the collapsed values.
        let firing = firing_at(&db, 10 * 60_000);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].rule, "epc_free_pages_low");
        assert_eq!(firing[0].labels, labels);
        assert!(firing[0].hint.contains("EPC"));
    }

    #[test]
    fn clock_gettime_dominance_is_detected() {
        // The paper's Figure 6a situation: 370 000 clock_gettime vs tens of
        // reads/writes per second.
        let firing = firing_at(&db_with_syscall_mix(370_000.0, 23.0, 23.0), 60_000);
        let alert = fired(&firing, "syscall_dominance").expect("dominance should be detected");
        assert_eq!(alert.labels, Labels::from_pairs([("syscall", "clock_gettime")]));
        assert!((alert.value - 370_000.0 / 370_046.0).abs() < 1e-12, "{}", alert.value);
        assert!(alert.hint.contains("enclave exit"));
    }

    #[test]
    fn balanced_io_mix_is_not_flagged() {
        // Figure 6b: after the fix, reads/writes dominate.
        let firing = firing_at(&db_with_syscall_mix(100.0, 3_200.0, 3_200.0), 60_000);
        assert!(fired(&firing, "syscall_dominance").is_none(), "{firing:?}");
        // Neither does an I/O call that is most of the mix.
        let firing = firing_at(&db_with_syscall_mix(100.0, 9_000.0, 10.0), 60_000);
        assert!(fired(&firing, "syscall_dominance").is_none(), "{firing:?}");
    }

    #[test]
    fn epc_thrashing_is_detected_above_threshold() {
        // 13 700 pages evicted over 10 000 requests: 137 per 100 requests
        // (the paper's SCONE value at 105 MB / 580 connections).
        let db = TimeSeriesDb::new();
        counter(&db, "sgx_pages_evicted_total", &[], 13_700.0);
        counter(&db, "app_requests_total", &[("app", "redis-server")], 10_000.0);
        let firing = firing_at(&db, 60_000);
        let alert = fired(&firing, "epc_thrashing").expect("thrashing should be detected");
        assert!((alert.value - 137.0).abs() < 1e-9, "{}", alert.value);
        assert!(alert.hint.contains("94 MiB"));
        // Small databases with no evictions produce no finding.
        let quiet = TimeSeriesDb::new();
        counter(&quiet, "sgx_pages_evicted_total", &[], 0.0);
        counter(&quiet, "app_requests_total", &[("app", "redis-server")], 10_000.0);
        assert!(fired(&firing_at(&quiet, 60_000), "epc_thrashing").is_none());
    }

    #[test]
    fn context_switch_storm_detection() {
        // 30 000 switches, all the application's (the host total counts
        // them too), over 10 000 requests: 3 per request, a storm
        // (Graphene-like); over 100 000 requests, 0.3 — fine (SCONE-like).
        let storm = |requests| {
            let db = TimeSeriesDb::new();
            for scope in ["host_total", "pid_101"] {
                counter(&db, "teemon_context_switches_total", &[("scope", scope)], 30_000.0);
            }
            counter(&db, "app_requests_total", &[("app", "redis-server")], requests);
            fired(&firing_at(&db, 60_000), "context_switch_storm_per_request").map(|a| a.value)
        };
        assert_eq!(storm(10_000.0), Some(3.0));
        assert_eq!(storm(100_000.0), None);
    }

    #[test]
    fn ksgxswapd_is_left_out_of_the_storm_and_its_absence_is_no_gap() {
        // 12 000 application switches and 20 000 of ksgxswapd's over 10 000
        // requests: 1.2 per request once ksgxswapd is left out.
        let db = TimeSeriesDb::new();
        for (scope, total) in
            [("host_total", 32_000.0), ("pid_101", 12_000.0), ("pid_100", 20_000.0)]
        {
            counter(&db, "teemon_context_switches_total", &[("scope", scope)], total);
        }
        counter(&db, "app_requests_total", &[("app", "redis-server")], 10_000.0);
        assert!(fired(&firing_at(&db, 60_000), "context_switch_storm_per_request").is_none());
        // A host where ksgxswapd never ran has no series of it, and the
        // rule still judges the application's switches.
        let db = TimeSeriesDb::new();
        for scope in ["host_total", "pid_101"] {
            counter(&db, "teemon_context_switches_total", &[("scope", scope)], 25_000.0);
        }
        counter(&db, "app_requests_total", &[("app", "redis-server")], 10_000.0);
        let firing = firing_at(&db, 60_000);
        let alert = fired(&firing, "context_switch_storm_per_request").expect("2.5 per request");
        assert_eq!(alert.value, 2.5);
    }

    #[test]
    fn per_request_rules_need_the_request_counter() {
        // Without an application's request counter there is no request to
        // divide by: no per-request verdict, and no evaluation error.
        let db = TimeSeriesDb::new();
        counter(&db, "sgx_pages_evicted_total", &[], 13_700.0);
        for scope in ["host_total", "pid_101"] {
            counter(&db, "teemon_context_switches_total", &[("scope", scope)], 30_000.0);
        }
        let firing = firing_at(&db, 60_000);
        assert!(fired(&firing, "epc_thrashing").is_none(), "{firing:?}");
        assert!(fired(&firing, "context_switch_storm_per_request").is_none(), "{firing:?}");
    }

    #[test]
    fn the_bottleneck_rules_fire_together() {
        let db = db_with_syscall_mix(500_000.0, 50.0, 50.0);
        counter(&db, "sgx_pages_evicted_total", &[], 20_000.0);
        counter(&db, "app_requests_total", &[("app", "redis-server")], 10_000.0);
        let firing = firing_at(&db, 60_000);
        assert!(firing.len() >= 2, "{firing:?}");
        assert!(fired(&firing, "syscall_dominance").is_some(), "{firing:?}");
        assert!(fired(&firing, "epc_thrashing").is_some(), "{firing:?}");
        assert!(firing.iter().all(|alert| !alert.hint.is_empty()));
    }
}
