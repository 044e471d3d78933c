//! DaemonSets and service discovery.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::chart::Exporter;
use crate::cluster::{Cluster, Node, Taint};

/// A DaemonSet: one pod of an [`Exporter`] on every matching node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DaemonSet {
    /// The exporter its pods run.
    pub exporter: Exporter,
    /// Node selector labels; empty = every node.
    pub node_selector: BTreeMap<String, String>,
    /// Taints this DaemonSet tolerates.
    pub tolerations: Vec<Taint>,
}

impl DaemonSet {
    /// The chart's DaemonSet for `exporter`: it tolerates the SGX taint, and
    /// an SGX-only exporter selects the SGX label.
    pub(crate) fn new(exporter: Exporter) -> Self {
        let mut node_selector = BTreeMap::new();
        if exporter.sgx_only() {
            node_selector.insert(Node::SGX_LABEL.to_string(), "true".to_string());
        }
        Self { exporter, node_selector, tolerations: vec![Taint::sgx()] }
    }

    /// Places the DaemonSet across the cluster: the ready nodes it runs one
    /// pod on, those matching its selector whose every taint it tolerates.
    pub(crate) fn place(&self, cluster: &Cluster) -> Vec<Node> {
        let tolerated = |node: &Node| node.taints.iter().all(|t| self.tolerations.contains(t));
        let fits = |node: &Node| node.matches_selector(&self.node_selector) && tolerated(node);
        cluster.ready_nodes().into_iter().filter(|node| fits(node)).collect()
    }
}

/// One discoverable scrape endpoint (what Kubernetes service discovery hands
/// to the aggregation component).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScrapeEndpoint {
    /// The exporter serving it.
    pub exporter: Exporter,
    /// Scrape job, the exporter's ([`Exporter::job`]).
    pub job: String,
    /// `<node>:<port>` instance string.
    pub instance: String,
    /// Node the endpoint lives on.
    pub node: String,
}

/// Service discovery: derives scrape endpoints from DaemonSets and the current
/// cluster state.
#[derive(Debug, Clone, Default)]
pub struct ServiceDiscovery {
    pub(crate) daemonsets: Vec<DaemonSet>,
}

impl ServiceDiscovery {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the current endpoints against the cluster.  Called again after
    /// every topology change ("these two features allow TEEMon to adapt to
    /// arbitrary changes in the cluster topology", §5.4).
    pub fn endpoints(&self, cluster: &Cluster) -> Vec<ScrapeEndpoint> {
        let mut endpoints = Vec::new();
        for ds in &self.daemonsets {
            let exporter = ds.exporter;
            for node in ds.place(cluster) {
                endpoints.push(ScrapeEndpoint {
                    exporter,
                    job: exporter.job().to_string(),
                    instance: exporter.instance(&node.name),
                    node: node.name,
                });
            }
        }
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::HelmChart;

    #[test]
    fn daemonset_places_one_pod_per_matching_node() {
        let cluster = Cluster::with_nodes(3, 2);
        // An "everywhere" DaemonSet tolerates the SGX taint: all 5 nodes
        // take its pod.
        assert_eq!(DaemonSet::new(Exporter::Node).place(&cluster).len(), 5);

        let nodes = DaemonSet::new(Exporter::Sgx).place(&cluster);
        assert_eq!(nodes.len(), 3, "SGX exporter must land only on SGX nodes");
        assert!(nodes.iter().all(|n| n.sgx_capable));
    }

    #[test]
    fn tainted_nodes_require_toleration() {
        let cluster = Cluster::new();
        cluster.add_node(Node::sgx("sgx-0"));
        // A DaemonSet without the toleration cannot land on the tainted node,
        // even though the selector is empty.
        let no_toleration = DaemonSet { tolerations: Vec::new(), ..DaemonSet::new(Exporter::Node) };
        assert!(no_toleration.place(&cluster).is_empty());
        let tolerating = DaemonSet::new(Exporter::Node);
        assert!(tolerating.node_selector.is_empty());
        assert_eq!(tolerating.place(&cluster).len(), 1);
    }

    #[test]
    fn not_ready_nodes_are_skipped() {
        let cluster = Cluster::with_nodes(2, 0);
        cluster.set_ready("sgx-1", false);
        assert_eq!(DaemonSet::new(Exporter::Sgx).place(&cluster).len(), 1);
    }

    #[test]
    fn service_discovery_adapts_to_topology_changes() {
        let cluster = Cluster::with_nodes(2, 1);
        let mut discovery = ServiceDiscovery::new();
        HelmChart::teemon().install(&mut discovery);
        let before = discovery.endpoints(&cluster);
        // Each SGX node runs all four exporters, the plain node the two
        // "everywhere" ones: 2×4 + 1×2 = 10.
        assert_eq!(before.len(), 2 * 4 + 2);
        assert!(before.iter().any(|e| e.exporter == Exporter::Sgx
            && e.job == "sgx_exporter"
            && e.instance == "sgx-0:9090"));

        // A new SGX node joins: the four exporters follow automatically.
        cluster.add_node(Node::sgx("sgx-new"));
        let after = discovery.endpoints(&cluster);
        assert_eq!(after.len(), before.len() + 4);
        assert!(after.iter().any(|e| e.node == "sgx-new"));

        // The node leaves again: its endpoints disappear.
        cluster.remove_node("sgx-new");
        assert_eq!(discovery.endpoints(&cluster).len(), before.len());
    }
}
