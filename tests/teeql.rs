//! Integration test for the TeeQL subsystem: a dashboard panel, a recording
//! rule and an alert rule all exercised through `MonitorBuilder` against a
//! live monitored workload.

use teemon_repro::analysis::Severity;
use teemon_repro::dashboard::Panel;
use teemon_repro::query::{parse, QueryEngine, RecordingRule, RuleGroup};
use teemon_repro::teemon::{MonitorBuilder, MonitoringMode};
use teemon_repro::tsdb::Selector;

#[test]
fn teeql_panel_recording_and_alert_rules_through_the_builder() {
    // A synthetic always-true alert proves firing; PMAN's thresholds come
    // with the full monitoring mode, not from this group.
    let rules = RuleGroup::new("teeql", 5_000)
        .with_rule(RecordingRule::new(
            "node:syscalls:rate30s",
            parse("sum by (node) (rate(teemon_syscalls_total[30s]))").unwrap(),
        ))
        .with_rule(
            teemon_repro::teemon::AlertRule::new(
                "pages_exist",
                parse("avg_over_time(sgx_nr_free_pages[30s]) > 0").unwrap(),
                Severity::Info,
            )
            .with_for_ms(10_000)
            .with_hint("synthetic: free pages observed"),
        );

    let host = MonitorBuilder::new("it-node")
        .mode(MonitoringMode::Full)
        .scrape_interval_ms(5_000)
        .with_rules(rules)
        .build();
    assert_eq!(host.rules().group_count(), 2, "teeql + teemon_pman");

    // Drive syscall activity through the monitored kernel.
    let pid = host.kernel().spawn_process(
        "redis-server",
        teemon_repro::kernel_sim::process::ProcessKind::Enclave,
        4,
    );
    for _ in 0..10 {
        for _ in 0..100 {
            host.kernel().syscall(pid, teemon_repro::kernel_sim::Syscall::Read, true);
        }
        host.run_scrape_loop(1);
    }

    // Recording rule: the derived series exists and is itself queryable.
    let derived = host.db().select(&Selector::metric("node:syscalls:rate30s"));
    assert_eq!(derived.len(), 1);
    assert_eq!(derived[0].label_value("node"), Some("it-node"));
    let engine = QueryEngine::new(host.db().clone());
    let now = host.kernel().clock().now_millis();
    let requeried = engine.instant_query("max_over_time(node:syscalls:rate30s[30s])", now).unwrap();
    let samples = requeried.as_vector().expect("vector").to_vec();
    assert_eq!(samples.len(), 1);
    assert!(samples[0].value > 0.0, "derived rate is positive: {}", samples[0].value);

    // Alert rules: the synthetic rule held its `for` duration and fires;
    // PMAN's thresholds stay quiet on a healthy host.
    let firing = host.rules().firing_alerts();
    assert_eq!(firing.len(), 1, "{firing:?}");
    assert_eq!(firing[0].rule, "pages_exist");
    assert!(firing[0].since_ms <= now.saturating_sub(10_000));

    // Dashboard panel in TeeQL expression mode over the same database.
    let panel =
        Panel::teeql("Syscall rate by node", "sum by (node) (rate(teemon_syscalls_total[30s]))")
            .with_unit("calls/s")
            .with_step_ms(5_000);
    let data = panel.evaluate(host.db(), 0, u64::MAX);
    assert!(!data.aggregated.is_empty());
    assert!(data.current.unwrap() > 0.0);
    assert!(data.render(60).contains("Syscall rate by node"));

    // The standard SGX dashboard ships a TeeQL panel and renders end to end.
    let rendered = host.render_dashboard("SGX", 60).unwrap();
    assert!(rendered.contains("EPC eviction rate by node"));
}
