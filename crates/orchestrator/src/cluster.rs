//! Nodes and the cluster membership model.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A node taint: pods must tolerate it to be scheduled on the node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Taint {
    /// Taint key (e.g. `sgx.intel.com/epc`).
    pub key: String,
    /// Taint value.
    pub value: String,
}

impl Taint {
    /// The taint SGX device plugins put on SGX nodes.
    pub(crate) fn sgx() -> Self {
        Self { key: "sgx.intel.com/epc".into(), value: "present".into() }
    }
}

/// A cluster node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node name (unique within the cluster).
    pub name: String,
    /// Node labels (e.g. `intel.feature.node.kubernetes.io/sgx = "true"`).
    pub labels: BTreeMap<String, String>,
    /// Node taints.
    pub taints: Vec<Taint>,
    /// Whether the node has SGX hardware (convenience over the label).
    pub sgx_capable: bool,
    /// Whether the node is currently Ready.
    pub ready: bool,
}

impl Node {
    /// The label used to advertise SGX capability.
    pub(crate) const SGX_LABEL: &'static str = "intel.feature.node.kubernetes.io/sgx";

    /// Creates a ready node without SGX.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            labels: BTreeMap::new(),
            taints: Vec::new(),
            sgx_capable: false,
            ready: true,
        }
    }

    /// Creates a ready SGX-capable node (labelled and tainted the way SGX
    /// device plugins do).
    pub fn sgx(name: impl Into<String>) -> Self {
        let mut node = Self::new(name);
        node.sgx_capable = true;
        node.labels.insert(Self::SGX_LABEL.to_string(), "true".to_string());
        node.taints.push(Taint::sgx());
        node
    }

    /// `true` when the node carries every label in `selector` with equal
    /// values.
    pub(crate) fn matches_selector(&self, selector: &BTreeMap<String, String>) -> bool {
        selector.iter().all(|(k, v)| self.labels.get(k) == Some(v))
    }
}

#[derive(Default)]
struct ClusterInner {
    nodes: BTreeMap<String, Node>,
}

/// The cluster: a dynamic set of nodes.  Clones share state.
#[derive(Clone, Default)]
pub struct Cluster {
    inner: Arc<RwLock<ClusterInner>>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a cluster with `sgx_nodes` SGX nodes and `plain_nodes` ordinary
    /// nodes, named `sgx-N` / `node-N`.
    pub fn with_nodes(sgx_nodes: usize, plain_nodes: usize) -> Self {
        let cluster = Self::new();
        for i in 0..sgx_nodes {
            cluster.add_node(Node::sgx(format!("sgx-{i}")));
        }
        for i in 0..plain_nodes {
            cluster.add_node(Node::new(format!("node-{i}")));
        }
        cluster
    }

    /// Adds (or replaces) a node.
    pub fn add_node(&self, node: Node) {
        self.inner.write().nodes.insert(node.name.clone(), node);
    }

    /// Removes a node.  Returns `true` when it existed.
    pub fn remove_node(&self, name: &str) -> bool {
        self.inner.write().nodes.remove(name).is_some()
    }

    /// Marks a node ready / not ready.  Returns `false` for unknown nodes.
    pub fn set_ready(&self, name: &str, ready: bool) -> bool {
        match self.inner.write().nodes.get_mut(name) {
            Some(node) => {
                node.ready = ready;
                true
            }
            None => false,
        }
    }

    /// Ready nodes only.
    pub fn ready_nodes(&self) -> Vec<Node> {
        self.inner.read().nodes.values().filter(|n| n.ready).cloned().collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.read().nodes.len()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("nodes", &self.node_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgx_nodes_carry_label_and_taint() {
        let node = Node::sgx("sgx-0");
        assert!(node.sgx_capable);
        assert_eq!(node.labels.get(Node::SGX_LABEL).map(String::as_str), Some("true"));
        assert_eq!(node.taints.len(), 1);
        let mut selector = BTreeMap::new();
        selector.insert(Node::SGX_LABEL.to_string(), "true".to_string());
        assert!(node.matches_selector(&selector));
        assert!(!Node::new("plain").matches_selector(&selector));
        assert!(Node::new("plain").matches_selector(&BTreeMap::new()));
    }

    #[test]
    fn cluster_membership() {
        let cluster = Cluster::with_nodes(2, 1);
        assert_eq!(cluster.node_count(), 3);
        assert_eq!(cluster.ready_nodes().len(), 3);

        cluster.add_node(Node::sgx("sgx-late"));
        assert!(cluster.remove_node("node-0"));
        assert!(!cluster.remove_node("node-0"));
        let names: Vec<String> = cluster.ready_nodes().into_iter().map(|n| n.name).collect();
        assert_eq!(names, ["sgx-0", "sgx-1", "sgx-late"]);
    }

    #[test]
    fn readiness_toggles_ready_nodes() {
        let cluster = Cluster::with_nodes(1, 0);
        assert!(cluster.set_ready("sgx-0", false));
        assert!(cluster.set_ready("sgx-0", false), "idempotent");
        assert_eq!(cluster.ready_nodes().len(), 0);
        assert_eq!(cluster.node_count(), 1, "a NotReady node stays a member");
        assert!(cluster.set_ready("sgx-0", true));
        assert_eq!(cluster.ready_nodes().len(), 1);
        assert!(!cluster.set_ready("ghost", true));
    }
}
