//! The TEEMon Helm chart model.
//!
//! §5.4: "We created a chart to install TEEMon in large-scale infrastructures
//! managed by Kubernetes."  [`HelmChart`] captures the chart's values
//! (which exporters to enable, scrape interval, retention) and renders the
//! resulting DaemonSets.

use serde::{Deserialize, Serialize};

use crate::workload::{DaemonSet, ServiceDiscovery};

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

    /// Renders the DaemonSets the chart would install.
    pub(crate) fn render_daemonsets(&self) -> Vec<DaemonSet> {
        let mut out = Vec::new();
        if self.values.sgx_exporter {
            out.push(DaemonSet::sgx_only("teemon-sgx-exporter", 9090));
        }
        if self.values.ebpf_exporter {
            out.push(DaemonSet::sgx_only("teemon-ebpf-exporter", 9435));
        }
        if self.values.node_exporter {
            out.push(DaemonSet::everywhere("teemon-node-exporter", 9100));
        }
        if self.values.cadvisor {
            out.push(DaemonSet::everywhere("teemon-cadvisor", 8080));
        }
        out
    }

    /// Installs the chart into a service-discovery catalog (the equivalent of
    /// `helm install teemon`).
    pub fn install(&self, discovery: &mut ServiceDiscovery) {
        for ds in self.render_daemonsets() {
            discovery.register(ds);
        }
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
        assert_eq!(chart.render_daemonsets().len(), 4);
        assert_eq!(chart.values.scrape_interval_seconds, 5);
        let mut discovery = ServiceDiscovery::new();
        chart.install(&mut discovery);
        // Two untainted nodes take only the two everywhere-DaemonSets; two
        // SGX nodes take only the two SGX ones.
        assert_eq!(discovery.endpoints(&Cluster::with_nodes(0, 2)).len(), 4);
        assert_eq!(discovery.endpoints(&Cluster::with_nodes(2, 0)).len(), 4);
    }

    #[test]
    fn values_toggle_components() {
        let chart = HelmChart {
            values: ChartValues { cadvisor: false, ebpf_exporter: false, ..ChartValues::default() },
            ..HelmChart::teemon()
        };
        let names: Vec<String> = chart.render_daemonsets().iter().map(|d| d.name.clone()).collect();
        assert_eq!(names, vec!["teemon-sgx-exporter", "teemon-node-exporter"]);
        // The paper notes cAdvisor could be deactivated "to further reduce
        // interferences induced by the tool itself" (§6.2).
        assert!(!names.contains(&"teemon-cadvisor".to_string()));
    }

    #[test]
    fn chart_serialises_to_json() {
        let json = HelmChart::teemon().to_json();
        assert!(json.contains("\"teemon\""));
        assert!(json.contains("scrape_interval_seconds"));
    }
}
