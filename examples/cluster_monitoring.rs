//! Cluster-scale deployment (§5.4 of the paper): TEEMon installed through the
//! Helm chart onto a Kubernetes-like cluster, exporters placed as DaemonSets
//! (all four on SGX nodes, the node exporter and cAdvisor on the others), one
//! aggregator scraping every endpoint service discovery resolves into one
//! store, and discovery following topology changes.  Cluster-wide figures are
//! TeeQL over that store.
//!
//! ```text
//! cargo run --release --example cluster_monitoring
//! ```

use teemon::ClusterMonitor;
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
use teemon_orchestrator::{Cluster, HelmChart, Node};
use teemon_query::QueryEngine;

fn main() {
    // A cluster with 4 SGX nodes and 2 ordinary nodes.
    let cluster = Cluster::with_nodes(4, 2);
    println!("cluster: {} nodes ({} SGX-capable)", cluster.node_count(), 4);
    let chart = HelmChart::teemon();
    println!("helm chart:\n{}", chart.to_json());

    // Install TEEMon: the chart's exporters on every node, one aggregator
    // scraping every endpoint discovery resolves.
    let mut monitor = ClusterMonitor::install(cluster.clone(), &chart);
    println!("\nservice discovery resolved {} scrape endpoints:", monitor.endpoints().len());
    for endpoint in monitor.endpoints() {
        println!("  {:<24} {}", endpoint.job, endpoint.instance);
    }

    // Start enclave workloads on every SGX node.
    let mut deployments = Vec::new();
    for node in cluster.ready_nodes().into_iter().filter(|n| n.sgx_capable) {
        let kernel = monitor.nodes()[node.name.as_str()];
        let mut d = Deployment::deploy(
            kernel,
            FrameworkParams::for_kind(FrameworkKind::Scone),
            "redis-server",
            64 << 20,
            8,
            7,
        )
        .expect("deploy");
        let request = teemon_frameworks::RequestProfile::keyvalue_get(64, 16_000);
        for _ in 0..1_000 {
            d.execute(&request, 320);
        }
        deployments.push(d);
    }

    // One aggregator round over every node, then the cluster-wide figures
    // from its store.
    let healthy = monitor.aggregator().scrape_tick();
    let engine = QueryEngine::new(monitor.aggregator().db().clone());
    let enclaves = by_node(&engine, "sum(sgx_nr_enclaves)").first().map_or(0.0, |e| e.1);
    println!("\nactive enclaves across the cluster: {enclaves}");
    println!("healthy scrape targets: {healthy}");
    let evicted = by_node(&engine, "sum by (node) (sgx_pages_evicted_total)");
    for (node, syscalls) in by_node(&engine, "sum by (node) (teemon_syscalls_total)") {
        let evicted = evicted.iter().find(|(n, _)| *n == node).map_or(0.0, |e| e.1);
        println!("  node {node:<8} syscalls observed: {syscalls:>8.0}  EPC pages evicted: {evicted:>6.0}");
    }

    // Topology change: a new SGX node joins, an old one drains.
    cluster.add_node(Node::sgx("sgx-burst"));
    cluster.set_ready("sgx-0", false);
    let (added, removed) = monitor.reconcile();
    println!("\ntopology change reconciled: {added} node(s) added, {removed} removed");
    println!("service discovery now resolves {} endpoints", monitor.endpoints().len());
    println!(
        "the aggregator now scrapes {} targets",
        monitor.aggregator().scraper().target_count()
    );
}

/// `expr` at the newest stored sample, as (`node` label, value) pairs sorted
/// by node; a result without a `node` label has an empty one.
fn by_node(engine: &QueryEngine, expr: &str) -> Vec<(String, f64)> {
    let now = engine.db().newest_timestamp().unwrap_or(0);
    let value = engine.instant_query(expr, now).expect("the query parses");
    let mut out: Vec<_> = value
        .as_vector()
        .unwrap_or(&[])
        .iter()
        .map(|s| (s.labels.get("node").unwrap_or("").to_string(), s.value))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
