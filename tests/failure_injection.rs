//! Failure-injection integration tests: failing scrape targets, counter
//! resets, node churn and misbehaving exporters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use teemon::ClusterMonitor;
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_orchestrator::{Cluster, HelmChart, Node};
use teemon_query::{QueryEngine, Value};
use teemon_tsdb::{
    MetricsEndpoint, ScrapeError, ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb,
};

/// A typed endpoint counting events that can be switched into a failing
/// state at runtime.
struct FlakyEndpoint {
    events: Arc<AtomicU64>,
    failing: Arc<AtomicBool>,
}

impl MetricsEndpoint for FlakyEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        if self.failing.load(Ordering::Relaxed) {
            Err(ScrapeError::Unreachable("connection timed out".to_string()))
        } else {
            let events = self.events.load(Ordering::Relaxed) as f64;
            Ok(vec![FamilySnapshot::new("events_total", "events", MetricKind::Counter)
                .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(events)))])
        }
    }
}

#[test]
fn scraper_survives_target_failures_and_recovers() {
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone());
    let events = Arc::new(AtomicU64::new(0));
    let failing = Arc::new(AtomicBool::new(false));
    scraper.add_target(
        ScrapeTargetConfig::new("flaky", "node-1:9999"),
        Arc::new(FlakyEndpoint { events: events.clone(), failing: failing.clone() }),
    );

    // Healthy scrapes.
    for round in 0..3u64 {
        events.fetch_add(5, Ordering::Relaxed);
        scraper.scrape_once(round * 5_000);
    }
    assert!(scraper.unhealthy_instances(15_000).is_empty());

    // The target starts failing: `up` flips to 0 but the scraper keeps going.
    failing.store(true, Ordering::Relaxed);
    for round in 3..6u64 {
        let outcomes = scraper.scrape_once(round * 5_000);
        assert!(!outcomes[0].up);
    }
    assert_eq!(scraper.unhealthy_instances(30_000), vec!["node-1:9999".to_string()]);

    // Recovery: data flows again, and previously collected data is intact.
    failing.store(false, Ordering::Relaxed);
    events.fetch_add(5, Ordering::Relaxed);
    scraper.scrape_once(30_000);
    assert!(scraper.unhealthy_instances(30_000).is_empty());
    let series = db.select(&Selector::metric("events_total"));
    assert_eq!(series.len(), 1);
    assert!(series[0].len() >= 4);
}

#[test]
fn counter_resets_are_handled_by_rate() {
    // A monitored process restarts: its counters reset to zero.  The stored
    // series reflects the reset and `rate`/`increase` still report the true
    // total increase.
    let db = TimeSeriesDb::new();
    let labels = Labels::from_pairs([("syscall", "read")]);
    let samples =
        [(0u64, 0.0), (5_000, 1_000.0), (10_000, 2_000.0), (15_000, 50.0), (20_000, 450.0)];
    for (ts, value) in samples {
        db.append("teemon_syscalls_total", &labels, ts, value);
    }
    let engine = QueryEngine::new(db);
    let Value::Vector(increase) =
        engine.instant_query("increase(teemon_syscalls_total[20s])", 20_000).unwrap()
    else {
        panic!("increase() is an instant vector")
    };
    assert_eq!(increase[0].value, 1_000.0 + 1_000.0 + 50.0 + 400.0);
    let Value::Vector(rate) =
        engine.instant_query("rate(teemon_syscalls_total[20s])", 20_000).unwrap()
    else {
        panic!("rate() is an instant vector")
    };
    assert_eq!(rate[0].value, increase[0].value / 20.0);
}

#[test]
fn malformed_exporter_output_does_not_poison_the_db() {
    // An external target that only speaks the wire format feeds the scraper
    // through the text edge; its garbage must not poison typed ingestion.
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone());
    scraper.add_text_source(
        ScrapeTargetConfig::new("broken", "node-2:1234"),
        Arc::new(|| Ok("garbage {{{ not metrics".to_string())),
    );
    let good = FamilySnapshot::new("good_metric", "fine", MetricKind::Gauge)
        .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(1.0)));
    scraper.add_target(
        ScrapeTargetConfig::new("good", "node-3:9100"),
        Arc::new(move || Ok(vec![good.clone()])),
    );

    let outcomes = scraper.scrape_once(1_000);
    assert_eq!(outcomes.iter().filter(|o| o.up).count(), 1);
    assert_eq!(outcomes.iter().filter(|o| !o.up).count(), 1);
    // The good target's data made it in; the broken one contributed nothing
    // but its `up == 0` marker.
    assert_eq!(db.select(&Selector::metric("good_metric")).len(), 1);
    assert!(db.select(&Selector::metric("garbage")).is_empty());
}

#[test]
fn cluster_monitor_handles_node_churn() {
    let cluster = Cluster::with_nodes(3, 0);
    let mut monitor = ClusterMonitor::install(cluster.clone(), &HelmChart::teemon());
    assert_eq!(monitor.nodes().len(), 3);
    let baseline_endpoints = monitor.endpoints().len();

    // Two nodes die, one new node joins.
    cluster.set_ready("sgx-0", false);
    cluster.remove_node("sgx-1");
    cluster.add_node(Node::sgx("sgx-replacement"));
    let (added, removed) = monitor.reconcile();
    assert_eq!(added, 1);
    assert_eq!(removed, 2);
    assert_eq!(monitor.nodes().len(), 2);
    assert!(monitor.endpoints().len() < baseline_endpoints);

    // Everything that remains is scrapable: four exporters per node plus
    // the aggregator's own self-telemetry target.
    assert_eq!(monitor.aggregator().scrape_tick(), monitor.nodes().len() * 4 + 1);

    // The failed node recovers.
    cluster.set_ready("sgx-0", true);
    let (added, removed) = monitor.reconcile();
    assert_eq!((added, removed), (1, 0));
    assert_eq!(monitor.nodes().len(), 3);
}
