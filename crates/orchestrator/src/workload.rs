//! DaemonSets, pods and service discovery.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, Node, Taint};

/// Lifecycle phase of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum PodPhase {
    /// Scheduled and running.
    Running,
    /// Could not be scheduled (no matching node).
    Pending,
}

/// A pod: one instance of an exporter (or other workload) on one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Pod {
    /// Pod name (`<daemonset>-<node>`).
    pub name: String,
    /// Owning DaemonSet.
    pub owner: String,
    /// Node the pod runs on (empty when pending).
    pub node: String,
    /// Phase.
    pub phase: PodPhase,
    /// Port the pod's metrics endpoint listens on.
    pub metrics_port: u16,
}

/// A DaemonSet: one pod per matching node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DaemonSet {
    /// DaemonSet name (e.g. `teemon-sgx-exporter`).
    pub name: String,
    /// Node selector labels; empty = every node.
    pub node_selector: BTreeMap<String, String>,
    /// Taints this DaemonSet tolerates.
    pub tolerations: Vec<Taint>,
    /// Port its pods expose metrics on.
    pub metrics_port: u16,
}

impl DaemonSet {
    /// Creates a DaemonSet that runs on every node.
    pub(crate) fn everywhere(name: impl Into<String>, metrics_port: u16) -> Self {
        Self {
            name: name.into(),
            node_selector: BTreeMap::new(),
            tolerations: Vec::new(),
            metrics_port,
        }
    }

    /// Creates a DaemonSet restricted to SGX-capable nodes (selector on the
    /// SGX label plus a toleration for the SGX taint).
    pub(crate) fn sgx_only(name: impl Into<String>, metrics_port: u16) -> Self {
        let mut selector = BTreeMap::new();
        selector.insert(Node::SGX_LABEL.to_string(), "true".to_string());
        Self {
            name: name.into(),
            node_selector: selector,
            tolerations: vec![Taint::new("sgx.intel.com/epc", "present")],
            metrics_port,
        }
    }

    /// `true` when the DaemonSet can be placed on `node`.
    pub(crate) fn schedulable_on(&self, node: &Node) -> bool {
        if !node.ready {
            return false;
        }
        if !node.matches_selector(&self.node_selector) {
            return false;
        }
        node.taints.iter().all(|t| self.tolerations.contains(t))
    }

    /// Places the DaemonSet across the cluster: exactly one running pod per
    /// schedulable node.
    pub(crate) fn place(&self, cluster: &Cluster) -> Vec<Pod> {
        cluster
            .ready_nodes()
            .iter()
            .filter(|node| self.schedulable_on(node))
            .map(|node| Pod {
                name: format!("{}-{}", self.name, node.name),
                owner: self.name.clone(),
                node: node.name.clone(),
                phase: PodPhase::Running,
                metrics_port: self.metrics_port,
            })
            .collect()
    }
}

/// One discoverable scrape endpoint (what Kubernetes service discovery hands
/// to the aggregation component).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrapeEndpoint {
    /// Job name, derived from the owning DaemonSet.
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
    daemonsets: Vec<DaemonSet>,
}

impl ServiceDiscovery {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a DaemonSet whose pods should be scraped.
    pub(crate) fn register(&mut self, daemonset: DaemonSet) {
        self.daemonsets.push(daemonset);
    }

    /// Resolves the current endpoints against the cluster.  Called again after
    /// every topology change ("these two features allow TEEMon to adapt to
    /// arbitrary changes in the cluster topology", §5.4).
    pub fn endpoints(&self, cluster: &Cluster) -> Vec<ScrapeEndpoint> {
        let mut endpoints = Vec::new();
        for ds in &self.daemonsets {
            for pod in ds.place(cluster) {
                endpoints.push(ScrapeEndpoint {
                    job: ds.name.clone(),
                    instance: format!("{}:{}", pod.node, ds.metrics_port),
                    node: pod.node,
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
        let everywhere = DaemonSet::everywhere("teemon-node-exporter", 9100);
        // "Everywhere" still respects taints: only the 2 untainted nodes take
        // the pod unless a toleration is added.
        assert_eq!(everywhere.place(&cluster).len(), 2);

        let sgx_only = DaemonSet::sgx_only("teemon-sgx-exporter", 9090);
        let pods = sgx_only.place(&cluster);
        assert_eq!(pods.len(), 3, "SGX exporter must land only on SGX nodes");
        assert!(pods.iter().all(|p| p.node.starts_with("sgx-")));
        assert!(pods.iter().all(|p| p.phase == PodPhase::Running));
    }

    #[test]
    fn tainted_nodes_require_toleration() {
        let cluster = Cluster::new();
        cluster.add_node(Node::sgx("sgx-0"));
        // A DaemonSet without the toleration cannot land on the tainted node,
        // even though the selector is empty.
        let no_toleration = DaemonSet::everywhere("plain", 9100);
        assert!(no_toleration.place(&cluster).is_empty());
        let tolerating = DaemonSet {
            tolerations: vec![Taint::new("sgx.intel.com/epc", "present")],
            ..DaemonSet::everywhere("tolerant", 9100)
        };
        assert_eq!(tolerating.place(&cluster).len(), 1);
    }

    #[test]
    fn not_ready_nodes_are_skipped() {
        let cluster = Cluster::with_nodes(2, 0);
        cluster.set_ready("sgx-1", false);
        let ds = DaemonSet::sgx_only("teemon-sgx-exporter", 9090);
        assert_eq!(ds.place(&cluster).len(), 1);
    }

    #[test]
    fn service_discovery_adapts_to_topology_changes() {
        let cluster = Cluster::with_nodes(2, 1);
        let mut discovery = ServiceDiscovery::new();
        HelmChart::teemon().install(&mut discovery);
        let before = discovery.endpoints(&cluster);
        // 2 SGX nodes × (sgx + ebpf) + 3 nodes × (node-exporter)... but the
        // everywhere DaemonSets lack the SGX taint toleration, so they only
        // land on untainted nodes: 2×2 + 1×2 = 6.
        assert_eq!(before.len(), 2 * 2 + 2);
        assert!(before
            .iter()
            .any(|e| e.job == "teemon-sgx-exporter" && e.instance == "sgx-0:9090"));

        // A new SGX node joins: the SGX exporters follow automatically.
        cluster.add_node(Node::sgx("sgx-new"));
        let after = discovery.endpoints(&cluster);
        assert_eq!(after.len(), before.len() + 2);
        assert!(after.iter().any(|e| e.node == "sgx-new"));

        // The node leaves again: its endpoints disappear.
        cluster.remove_node("sgx-new");
        assert_eq!(discovery.endpoints(&cluster).len(), before.len());
    }
}
