//! TeeQL end to end: monitor an enclave workload, query the database with
//! TeeQL expressions, derive a series with a recording rule, and watch an
//! alert rule go pending → firing inside the monitoring loop.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example teeql
//! ```

use teemon::{AlertRule, MonitorBuilder, MonitoringMode, RecordingRule, RuleGroup};
use teemon_analysis::Severity;
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
use teemon_query::{parse, QueryEngine, Value};

fn main() {
    // 1. A fully monitored host with one TeeQL rule group evaluated every
    //    scrape: a recording rule deriving the per-node syscall rate, and an
    //    alert rule that must hold 15 s before firing.
    let host = MonitorBuilder::new("worker-1")
        .mode(MonitoringMode::Full)
        .scrape_interval_ms(5_000)
        .with_rules(
            RuleGroup::new("teeql-demo", 5_000)
                .with_rule(RecordingRule::new(
                    "node:syscalls:rate30s",
                    parse("sum by (node) (rate(teemon_syscalls_total[30s]))").unwrap(),
                ))
                .with_rule(
                    AlertRule::new(
                        "syscall_rate_high",
                        parse("sum(rate(teemon_syscalls_total[30s])) > 100").unwrap(),
                        Severity::Warning,
                    )
                    .with_for_ms(15_000)
                    .with_hint("workload is syscall-bound; every call exits the enclave"),
                ),
        )
        .build();

    // 2. Deploy a Redis-like enclave workload and drive load while the
    //    monitoring loop scrapes and evaluates rules.
    let mut deployment = Deployment::deploy(
        host.kernel(),
        FrameworkParams::for_kind(FrameworkKind::Scone),
        "redis-server",
        32 << 20,
        8,
        7,
    )
    .expect("deployment");
    let request = teemon_frameworks::RequestProfile::keyvalue_get(64, 8_000);
    for round in 0..12 {
        for _ in 0..400 {
            deployment.execute(&request, 320);
        }
        host.run_scrape_loop(1); // advance 5 s, scrape, evaluate rules
        let alerts = host.rules().active_alerts();
        if let Some(alert) = alerts.first() {
            println!(
                "t={:>3}s  alert {:<18} {:?} (value {:.0}/s, since t={}s)",
                (round + 1) * 5,
                alert.rule,
                alert.state,
                alert.value,
                alert.since_ms / 1000,
            );
        } else {
            println!("t={:>3}s  no active alerts", (round + 1) * 5);
        }
    }

    // 3. Ad-hoc TeeQL queries over everything the monitoring stack stored —
    //    including the series the recording rule derived.
    let engine = QueryEngine::new(host.db().clone());
    let now = host.kernel().clock().now_millis();
    println!("\nTeeQL instant queries at t={}s:", now / 1000);
    for query in [
        "sum(rate(teemon_syscalls_total[30s]))",
        "node:syscalls:rate30s",
        "avg_over_time(sgx_nr_free_pages[30s])",
        "quantile_over_time(0.9, node:syscalls:rate30s[1m])",
        "sum by (syscall) (rate(teemon_syscalls_total[30s]))",
    ] {
        match engine.instant_query(query, now) {
            Ok(Value::Vector(samples)) => {
                println!("  {query}");
                for sample in samples.iter().take(4) {
                    let label = match (&sample.name, sample.labels.is_empty()) {
                        (Some(name), true) => name.clone(),
                        (Some(name), false) => format!("{name}{}", sample.labels),
                        (None, _) => sample.labels.to_string(),
                    };
                    println!("    {label:<50} {:.1}", sample.value);
                }
            }
            Ok(other) => println!("  {query} -> {other:?}"),
            Err(err) => println!("  {query} -> error: {err}"),
        }
    }

    // 4. The alert also lands in the database as the ALERTS series (one per
    //    instance and `alertstate`), so dashboards can plot it like any
    //    other metric.
    let alerts_series = engine
        .instant_query(r#"ALERTS{alertstate="firing"}"#, now)
        .ok()
        .and_then(|v| v.as_vector().map(<[teemon_query::VectorSample]>::len))
        .unwrap_or(0);
    println!("\nFiring ALERTS series currently exported: {alerts_series}");
    for alert in host.rules().firing_alerts() {
        println!("FIRING [{:?}] {}: {}", alert.severity, alert.rule, alert.hint);
    }
}
