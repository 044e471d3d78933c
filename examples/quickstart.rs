//! Quickstart: monitor a Redis-like workload running under SCONE with full
//! TEEMon monitoring, then print what the monitoring stack observed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use teemon::{MonitorBuilder, MonitoringMode};
use teemon_analysis::detect_anomalies;
use teemon_apps::{Application, RedisApp};
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
use teemon_query::QueryEngine;
use teemon_tsdb::ScrapeTargetConfig;

fn main() {
    // 1. A simulated SGX host with the full TEEMon stack (SGX exporter, eBPF
    //    exporter, node exporter, cAdvisor, aggregation, analysis, dashboards),
    //    assembled through the monitor builder.  The scrape path is typed:
    //    exporters hand the aggregator structured snapshots, and OpenMetrics
    //    text only exists at the edges.
    let host = MonitorBuilder::new("worker-1")
        .mode(MonitoringMode::Full)
        .scrape_interval_ms(5_000)
        .exporter_interval_ms("cadvisor", 15_000) // container specs change rarely
        .build();

    // 2. Deploy a Redis-like application inside an enclave under SCONE.
    let app = RedisApp::paper_config(64); // ~105 MB database: exceeds the EPC.
    let mut deployment = Deployment::deploy(
        host.kernel(),
        FrameworkParams::for_kind(FrameworkKind::Scone),
        app.name(),
        app.memory_bytes(),
        app.threads(),
        42,
    )
    .expect("deployment");
    // Redis exports the requests it served, as its own exporter would; the
    // host scrapes them with everything else (PMAN's per-request rules read
    // them).
    host.scraper().add_target(
        ScrapeTargetConfig::new("redis", "worker-1:9121"),
        Arc::new(deployment.request_counter()),
    );
    println!(
        "deployed {} under {} (enclave: {:?}, startup {})",
        app.name(),
        deployment.kind(),
        deployment.enclave(),
        deployment.startup_latency()
    );

    // 3. Drive load against it while TEEMon scrapes every 5 (virtual)
    //    seconds.  Thirteen rounds span a minute, so PMAN's rule group
    //    (every minute, over the last five) evaluates twice.
    let request = app.request(8, 320);
    for _ in 0..13 {
        for _ in 0..500 {
            deployment.execute(&request, 320);
        }
        host.run_scrape_loop(1);
    }

    // 4. What did TEEMon see?
    let db = host.db();
    println!("\nTime-series stored: {:?}", db.stats());
    let engine = QueryEngine::new(db.clone());
    for metric in [
        "sgx_nr_free_pages",
        "sgx_pages_evicted_total",
        "teemon_syscalls_total",
        "teemon_page_faults_total",
    ] {
        let total = latest_total(&engine, metric);
        println!("  {metric:<32} latest total = {total:.0}");
    }

    // 5. Render the SGX dashboard (Figure 3 of the paper) and PMAN's box
    //    plot as text.
    println!("\n{}", host.render_dashboard("SGX", 64).expect("SGX dashboard"));
    println!("{}", host.render_dashboard("PMAN", 64).expect("PMAN dashboard"));

    // 6. PMAN's rules ran in the monitoring loop: how often did they fire?
    let anomalies = detect_anomalies(db, 0, u64::MAX);
    println!("PMAN anomalies recorded: {}", anomalies.len());

    // 7. Its diagnoses: the alerts firing at the last evaluation, each with
    //    the value that crossed its threshold.
    let firing = host.rules().firing_alerts();
    if firing.is_empty() {
        println!("PMAN: no bottlenecks detected");
    }
    for alert in firing {
        println!(
            "PMAN alert [{:?}] {}{} = {:.2}: {}",
            alert.severity, alert.rule, alert.labels, alert.value, alert.hint
        );
    }
}

/// `sum(metric)` at the newest stored sample: the latest value of every
/// series of `metric`, added up.
fn latest_total(engine: &QueryEngine, metric: &str) -> f64 {
    let now = engine.db().newest_timestamp().unwrap_or(0);
    let total = engine.instant_query(&format!("sum({metric})"), now).expect("sum parses");
    total.as_vector().and_then(|samples| samples.first()).map_or(0.0, |sample| sample.value)
}
