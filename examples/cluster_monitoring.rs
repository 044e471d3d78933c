//! Cluster-scale deployment (§5.4 of the paper): TEEMon installed through the
//! Helm chart onto a Kubernetes-like cluster, exporters placed as DaemonSets
//! on SGX nodes, service discovery following topology changes, and enclaves
//! monitored across nodes.
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
    println!("helm chart:\n{}", HelmChart::teemon().to_json());

    // Install TEEMon: one HostMonitor per SGX node.
    let mut monitor = ClusterMonitor::install(cluster.clone());
    println!("\nservice discovery resolved {} scrape endpoints:", monitor.endpoints().len());
    for endpoint in monitor.endpoints() {
        println!("  {:<24} {}", endpoint.job, endpoint.instance);
    }

    // Start enclave workloads on every SGX node.
    let mut deployments = Vec::new();
    for host in monitor.hosts() {
        let mut d = Deployment::deploy(
            host.kernel(),
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
    println!("\nactive enclaves across the cluster: {}", monitor.total_active_enclaves());

    // Scrape everything and summarise per node.
    let healthy = monitor.scrape_all();
    println!("healthy scrape targets: {healthy}");
    for host in monitor.hosts() {
        let engine = QueryEngine::new(host.db().clone());
        let evicted = latest_total(&engine, "sgx_pages_evicted_total");
        let syscalls = latest_total(&engine, "teemon_syscalls_total");
        println!(
            "  node {:<8} syscalls observed: {:>8.0}  EPC pages evicted: {:>6.0}",
            host.node(),
            syscalls,
            evicted
        );
    }

    // Topology change: a new SGX node joins, an old one drains.
    cluster.add_node(Node::sgx("sgx-burst"));
    cluster.set_ready("sgx-0", false);
    let (added, removed) = monitor.reconcile();
    println!("\ntopology change reconciled: {added} monitor(s) added, {removed} removed");
    println!("service discovery now resolves {} endpoints", monitor.endpoints().len());
}

/// `sum(metric)` at the newest stored sample: the latest value of every
/// series of `metric`, added up.
fn latest_total(engine: &QueryEngine, metric: &str) -> f64 {
    let now = engine.db().newest_timestamp().unwrap_or(0);
    let total = engine.instant_query(&format!("sum({metric})"), now).expect("sum parses");
    total.as_vector().and_then(|samples| samples.first()).map_or(0.0, |sample| sample.value)
}
