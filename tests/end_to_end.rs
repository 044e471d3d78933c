//! End-to-end integration tests spanning the whole stack:
//! workload → kernel/SGX simulation → exporters → scraper → TSDB → analysis →
//! dashboards.

use std::sync::Arc;

use teemon::{HostMonitor, MonitorBuilder, MonitoringMode};
use teemon_analysis::{detect_anomalies, pman_alerts};
use teemon_apps::{Application, RedisApp};
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams, SconeVersion};
use teemon_query::{QueryEngine, Value};
use teemon_tsdb::{ScrapeTargetConfig, Selector};

/// Runs Redis with its request counter as a scrape target, a scrape after
/// each of eight batches.
fn run_workload(host: &HostMonitor, value_bytes: u64, requests: u64) -> Deployment {
    let app = RedisApp::paper_config(value_bytes);
    let mut deployment = Deployment::deploy(
        host.kernel(),
        FrameworkParams::scone(SconeVersion::Commit09fea91),
        app.name(),
        app.memory_bytes(),
        app.threads(),
        99,
    )
    .expect("deploy");
    // A monitor that scrapes nothing (monitoring off) is given nothing more.
    if host.scraper().target_count() > 0 {
        host.scraper().add_target(
            ScrapeTargetConfig::new("redis", "it-node:9121"),
            Arc::new(deployment.request_counter()),
        );
    }
    let request = app.request(8, 320);
    let batches = 8;
    for _ in 0..batches {
        for _ in 0..(requests / batches) {
            deployment.execute(&request, 320);
        }
        host.scrape_tick();
    }
    deployment
}

/// Whether the monitoring loop stored a firing `rule`.  The workload spans
/// less than PMAN's one-minute cadence, so the loop first runs on for one
/// cadence: the group evaluates after the workload, over a trailing window
/// that starts at the first batch's scrape.
fn pman_fired(host: &HostMonitor, rule: &str) -> bool {
    host.run_scrape_loop(pman_alerts().interval_ms.div_ceil(host.scraper().interval_ms()));
    detect_anomalies(host.db(), 0, u64::MAX).iter().any(|anomaly| anomaly.rule == rule)
}

#[test]
fn full_pipeline_from_workload_to_dashboard() {
    let host = MonitorBuilder::new("it-node").mode(MonitoringMode::Full).build();
    run_workload(&host, 64, 2_400);

    // The aggregation database holds series from all four exporters.
    let db = host.db();
    assert!(db.series_count() > 20, "expected a rich series set, got {}", db.series_count());
    for metric in [
        "teemon_syscalls_total",
        "teemon_context_switches_total",
        "teemon_page_faults_total",
        "sgx_nr_free_pages",
        "sgx_pages_evicted_total",
        "node_memory_MemTotal_bytes",
        "up",
    ] {
        assert!(
            !db.select(&Selector::metric(metric)).is_empty(),
            "metric {metric} missing from the TSDB"
        );
    }

    // Counter series are monotonically non-decreasing (scrapes of counters).
    for series in db.select(&Selector::metric("teemon_syscalls_total")) {
        assert!(
            series.points_in(0, u64::MAX).windows(2).all(|w| w[1].value >= w[0].value),
            "counter series {} went backwards",
            series.display_name()
        );
    }

    // The per-second rate over the monitored window is positive.
    let (oldest, newest) = (db.oldest_timestamp().unwrap(), db.newest_timestamp().unwrap());
    let query = format!("sum(rate(teemon_syscalls_total[{}ms]))", newest - oldest);
    let Value::Vector(rate) = QueryEngine::new(db.clone()).instant_query(&query, newest).unwrap()
    else {
        panic!("sum(rate()) is an instant vector")
    };
    assert!(rate[0].value > 0.0, "{rate:?}");

    // The 105 MB database exceeds the EPC: the SGX exporter must have seen
    // evictions, and they must match what the driver reports.
    let evicted_metric: f64 = db
        .select(&Selector::metric("sgx_pages_evicted_total"))
        .iter()
        .filter_map(|series| series.at(u64::MAX))
        .map(|sample| sample.value)
        .sum();
    let evicted_driver = host.kernel().sgx_driver().stats().epc_pages_evicted as f64;
    assert!(evicted_metric > 0.0);
    assert!(evicted_metric <= evicted_driver);

    // Dashboards render non-trivially from the scraped data.
    let sgx_dashboard = host.render_dashboard("SGX", 60).unwrap();
    assert!(sgx_dashboard.contains("EPC free pages"));
    assert!(sgx_dashboard.contains("System calls by type"));

    // PMAN sees the EPC thrashing.
    assert!(pman_fired(&host, "epc_thrashing"), "expected an EPC thrashing alert");
}

#[test]
fn small_database_produces_no_epc_findings() {
    let host = MonitorBuilder::new("it-node").mode(MonitoringMode::Full).build();
    run_workload(&host, 32, 1_200);
    assert!(!pman_fired(&host, "epc_thrashing"), "78 MB database fits the EPC");
}

#[test]
fn monitoring_off_observes_nothing_but_workload_still_runs() {
    let host = MonitorBuilder::new("it-node").mode(MonitoringMode::Off).build();
    let deployment = run_workload(&host, 32, 600);
    assert_eq!(deployment.totals().requests, 600 / 8 * 8);
    assert_eq!(host.db().series_count(), 0, "monitoring off must not collect anything");
    // The kernel still counted activity (it just was not exported).
    assert!(host.kernel().counters().syscalls > 0);
}

#[test]
fn framework_transparency_same_monitoring_for_all_frameworks() {
    // TEEMon's design goal 3: framework-agnostic.  The same monitoring stack
    // observes every framework without reconfiguration.
    for kind in FrameworkKind::ALL {
        let host = MonitorBuilder::new("it-node").mode(MonitoringMode::Full).build();
        let app = RedisApp::paper_config(32);
        let mut deployment = Deployment::deploy(
            host.kernel(),
            FrameworkParams::for_kind(kind),
            app.name(),
            app.memory_bytes(),
            app.threads(),
            3,
        )
        .unwrap();
        let request = app.request(8, 320);
        for _ in 0..400 {
            deployment.execute(&request, 320);
        }
        host.scrape_tick();
        let observed = host.db().select(&Selector::metric("teemon_syscalls_total")).len();
        assert!(observed > 0, "{kind}: no syscalls observed");
        // Enclave frameworks also show up in the SGX exporter.
        let enclaves: f64 = host
            .db()
            .select(&Selector::metric("sgx_nr_enclaves"))
            .iter()
            .map(|series| series.at(u64::MAX).unwrap().value)
            .sum();
        assert_eq!(enclaves > 0.0, kind.uses_enclave(), "{kind}: enclave count mismatch");
    }
}
