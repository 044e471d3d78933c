//! The node exporter.
//!
//! §5.1: "The node exporter … exports machine metrics available through the
//! /proc and /sys directories … We integrated the node exporter into TEEMon
//! and reduced the reported metrics to CPU statistics, Memory statistics, File
//! system statistics, and Network statistics."
//!
//! The simulated equivalent reads the kernel's configuration and counters and
//! keeps a small set of node-level gauges that the host model updates.

use std::sync::Arc;

use parking_lot::RwLock;
use teemon_kernel_sim::Kernel;
use teemon_metrics::{
    FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue, ScrapeError,
};

/// Mutable node-level statistics updated by the host model (disk and network
/// I/O are not modelled inside the kernel simulation, so the deployment layer
/// accounts them here, the way `/proc` would accumulate them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeUsage {
    /// Bytes received on the network interface.
    pub network_rx_bytes: u64,
    /// Bytes transmitted on the network interface.
    pub network_tx_bytes: u64,
    /// Bytes read from the root filesystem.
    pub fs_read_bytes: u64,
    /// Bytes written to the root filesystem.
    pub fs_written_bytes: u64,
    /// Bytes of memory currently in use (excluding page cache).
    pub memory_used_bytes: u64,
}

/// The per-node machine-metrics exporter.
#[derive(Clone)]
pub struct NodeExporter {
    usage: Arc<RwLock<NodeUsage>>,
    kernel: Kernel,
    node: Labels,
}

impl NodeExporter {
    /// Creates a node exporter for `kernel`, labelled with the node name.
    pub fn new(kernel: &Kernel, node: &str) -> Self {
        Self {
            usage: Arc::new(RwLock::new(NodeUsage::default())),
            kernel: kernel.clone(),
            node: crate::registry::node_labels(node),
        }
    }

    /// Accounts additional I/O and memory usage (called by the host model).
    pub fn record_usage(&self, delta: NodeUsage) {
        let mut usage = self.usage.write();
        usage.network_rx_bytes += delta.network_rx_bytes;
        usage.network_tx_bytes += delta.network_tx_bytes;
        usage.fs_read_bytes += delta.fs_read_bytes;
        usage.fs_written_bytes += delta.fs_written_bytes;
        if delta.memory_used_bytes > 0 {
            usage.memory_used_bytes = delta.memory_used_bytes;
        }
    }

    fn gauge(name: &str, help: &str, value: f64) -> FamilySnapshot {
        FamilySnapshot::new(name, help, MetricKind::Gauge)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(value)))
    }

    fn counter(name: &str, help: &str, value: f64) -> FamilySnapshot {
        FamilySnapshot::new(name, help, MetricKind::Counter)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(value)))
    }

    fn gather(kernel: &Kernel, usage: &NodeUsage) -> Vec<FamilySnapshot> {
        let counters = kernel.counters();
        let config = kernel.config();
        let uptime = kernel.clock().now().as_secs_f64();
        let total_memory = config.memory_bytes as f64;
        vec![
            // CPU statistics.
            Self::gauge("node_cpu_cores", "Number of CPU cores", config.cpu_cores as f64),
            Self::counter("node_uptime_seconds_total", "Host uptime", uptime),
            Self::counter(
                "node_context_switches_total",
                "Context switches since boot",
                counters.context_switches as f64,
            ),
            Self::counter(
                "node_syscalls_total",
                "System calls since boot",
                counters.syscalls as f64,
            ),
            // Memory statistics.
            Self::gauge("node_memory_MemTotal_bytes", "Total memory", total_memory),
            Self::gauge(
                "node_memory_MemAvailable_bytes",
                "Available memory",
                (total_memory - usage.memory_used_bytes as f64).max(0.0),
            ),
            Self::counter(
                "node_vmstat_pgfault_total",
                "Page faults since boot",
                counters.page_faults_total() as f64,
            ),
            // File-system statistics.
            Self::counter(
                "node_filesystem_read_bytes_total",
                "Bytes read from the root filesystem",
                usage.fs_read_bytes as f64,
            ),
            Self::counter(
                "node_filesystem_written_bytes_total",
                "Bytes written to the root filesystem",
                usage.fs_written_bytes as f64,
            ),
            // Network statistics.
            Self::counter(
                "node_network_receive_bytes_total",
                "Bytes received",
                usage.network_rx_bytes as f64,
            ),
            Self::counter(
                "node_network_transmit_bytes_total",
                "Bytes transmitted",
                usage.network_tx_bytes as f64,
            ),
        ]
    }
}

impl MetricsEndpoint for NodeExporter {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(crate::registry::gather(&self.node, Self::gather(&self.kernel, &self.usage.read())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_kernel_sim::process::ProcessKind;
    use teemon_kernel_sim::Syscall;
    use teemon_metrics::exposition::{encode_text, parse_families};

    fn value(families: &[FamilySnapshot], name: &str, labels: &Labels) -> Option<f64> {
        families.iter().find(|f| f.name == name)?.point(labels).map(|p| p.value.scalar())
    }

    #[test]
    fn exports_cpu_memory_fs_and_network_classes() {
        let kernel = Kernel::new();
        let exporter = NodeExporter::new(&kernel, "worker-1");
        let text = encode_text(&exporter.scrape().unwrap());
        for metric in [
            "node_cpu_cores",
            "node_memory_MemTotal_bytes",
            "node_filesystem_read_bytes_total",
            "node_network_receive_bytes_total",
        ] {
            assert!(text.contains(metric), "missing {metric}");
        }
    }

    #[test]
    fn kernel_activity_and_usage_show_up() {
        let kernel = Kernel::new();
        let exporter = NodeExporter::new(&kernel, "worker-1");
        let pid = kernel.spawn_process("redis-server", ProcessKind::User, 1);
        kernel.syscall(pid, Syscall::Write, false);
        exporter.record_usage(NodeUsage {
            network_rx_bytes: 1_000,
            network_tx_bytes: 5_000,
            memory_used_bytes: 1 << 30,
            ..NodeUsage::default()
        });
        exporter.record_usage(NodeUsage { network_rx_bytes: 500, ..NodeUsage::default() });

        let parsed = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        let labels = Labels::from_pairs([("node", "worker-1")]);
        assert_eq!(value(&parsed, "node_syscalls_total", &labels), Some(1.0));
        assert_eq!(value(&parsed, "node_network_receive_bytes_total", &labels), Some(1_500.0));
        assert_eq!(value(&parsed, "node_network_transmit_bytes_total", &labels), Some(5_000.0));
        let available = value(&parsed, "node_memory_MemAvailable_bytes", &labels).unwrap();
        let total = value(&parsed, "node_memory_MemTotal_bytes", &labels).unwrap();
        assert_eq!(total - available, (1u64 << 30) as f64);
    }
}
