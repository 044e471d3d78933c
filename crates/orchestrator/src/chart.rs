//! The TEEMon Helm chart model.
//!
//! §5.4: "We created a chart to install TEEMon in large-scale infrastructures
//! managed by Kubernetes."  [`HelmChart`] captures the chart's values
//! (which exporters to enable, scrape interval, retention) and renders the
//! resulting DaemonSets, one per enabled [`Exporter`].

use serde::{Deserialize, Serialize};

use crate::workload::{DaemonSet, ServiceDiscovery};

/// An exporter the chart deploys: the one table of each exporter's
/// DaemonSet, scrape job and port, for a `Full` host and the cluster alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Exporter {
    /// The SGX (TME) exporter, on SGX nodes.
    Sgx,
    /// The node exporter, on every node.
    Node,
    /// cAdvisor, on every node.
    Cadvisor,
    /// The eBPF exporter, on SGX nodes.
    Ebpf,
}

impl Exporter {
    /// Every exporter, in a `Full` host's scrape order.
    pub const ALL: [Self; 4] = [Self::Sgx, Self::Node, Self::Cadvisor, Self::Ebpf];

    /// The DaemonSet name, scrape job and metrics port.
    fn spec(self) -> (&'static str, &'static str, u16) {
        match self {
            Self::Sgx => ("teemon-sgx-exporter", "sgx_exporter", 9090),
            Self::Node => ("teemon-node-exporter", "node_exporter", 9100),
            Self::Cadvisor => ("teemon-cadvisor", "cadvisor", 8080),
            Self::Ebpf => ("teemon-ebpf-exporter", "ebpf_exporter", 9435),
        }
    }

    /// The DaemonSet the chart renders for it.
    pub fn daemonset(self) -> &'static str {
        self.spec().0
    }

    /// The scrape job its targets are stored under.
    pub fn job(self) -> &'static str {
        self.spec().1
    }

    /// Its `<node>:<port>` instance on `node`.
    pub fn instance(self, node: &str) -> String {
        format!("{node}:{}", self.spec().2)
    }

    /// Whether it runs on SGX-capable nodes only.
    pub(crate) fn sgx_only(self) -> bool {
        matches!(self, Self::Sgx | Self::Ebpf)
    }
}

/// The chart's `values.yaml` equivalent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChartValues {
    /// Deploy the SGX (TME) exporter on SGX nodes.
    pub sgx_exporter: bool,
    /// Deploy the eBPF exporter on SGX nodes.
    pub ebpf_exporter: bool,
    /// Deploy the node exporter everywhere.
    pub node_exporter: bool,
    /// Deploy cAdvisor everywhere.
    pub cadvisor: bool,
    /// Scrape interval in seconds (the paper's default is 5 s).
    pub scrape_interval_seconds: u64,
    /// Retention of the aggregation component in hours.
    pub retention_hours: u64,
}

impl Default for ChartValues {
    fn default() -> Self {
        Self {
            sgx_exporter: true,
            ebpf_exporter: true,
            node_exporter: true,
            cadvisor: true,
            scrape_interval_seconds: 5,
            retention_hours: 24,
        }
    }
}

impl ChartValues {
    /// Whether the chart deploys `exporter`.
    fn deploys(&self, exporter: Exporter) -> bool {
        match exporter {
            Exporter::Sgx => self.sgx_exporter,
            Exporter::Node => self.node_exporter,
            Exporter::Cadvisor => self.cadvisor,
            Exporter::Ebpf => self.ebpf_exporter,
        }
    }
}

/// The TEEMon Helm chart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelmChart {
    /// Chart name.
    pub name: String,
    /// Chart version.
    pub version: String,
    /// Values controlling the rendered resources.
    pub values: ChartValues,
}

impl HelmChart {
    /// The TEEMon chart with default values.
    pub fn teemon() -> Self {
        Self { name: "teemon".into(), version: "0.1.0".into(), values: ChartValues::default() }
    }

    /// Renders the DaemonSets the chart would install, in [`Exporter::ALL`]'s
    /// order.
    pub(crate) fn render_daemonsets(&self) -> Vec<DaemonSet> {
        Exporter::ALL.into_iter().filter(|&e| self.values.deploys(e)).map(DaemonSet::new).collect()
    }

    /// Installs the chart into a service-discovery catalog (the equivalent of
    /// `helm install teemon`).
    pub fn install(&self, discovery: &mut ServiceDiscovery) {
        discovery.daemonsets.extend(self.render_daemonsets());
    }

    /// Serialises the chart (name, version, values) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn default_chart_installs_four_daemonsets() {
        let chart = HelmChart::teemon();
        let rendered: Vec<Exporter> =
            chart.render_daemonsets().iter().map(|d| d.exporter).collect();
        assert_eq!(rendered, Exporter::ALL, "a `Full` host's scrape order");
        assert_eq!(chart.values.scrape_interval_seconds, 5);
        let mut discovery = ServiceDiscovery::new();
        chart.install(&mut discovery);
        // Two untainted nodes take only the two everywhere-DaemonSets; two
        // SGX nodes take all four, the everywhere ones tolerating the taint.
        assert_eq!(discovery.endpoints(&Cluster::with_nodes(0, 2)).len(), 4);
        assert_eq!(discovery.endpoints(&Cluster::with_nodes(2, 0)).len(), 8);
    }

    #[test]
    fn values_toggle_components() {
        let chart = HelmChart {
            values: ChartValues { cadvisor: false, ebpf_exporter: false, ..ChartValues::default() },
            ..HelmChart::teemon()
        };
        let names: Vec<&str> =
            chart.render_daemonsets().iter().map(|d| d.exporter.daemonset()).collect();
        assert_eq!(names, vec!["teemon-sgx-exporter", "teemon-node-exporter"]);
        // The paper notes cAdvisor could be deactivated "to further reduce
        // interferences induced by the tool itself" (§6.2).
        assert!(!names.contains(&"teemon-cadvisor"));
    }

    #[test]
    fn chart_serialises_to_json() {
        let json = HelmChart::teemon().to_json();
        assert!(json.contains("\"teemon\""));
        assert!(json.contains("scrape_interval_seconds"));
    }
}
