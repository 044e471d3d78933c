//! The container exporter (cAdvisor equivalent).
//!
//! §5.1: "To provide utilization metrics for Docker containers, Google created
//! the cAdvisor web-service.  We integrated cAdvisor into TEEMon to collect
//! and store per container metrics."  The simulated equivalent tracks a set of
//! containers (name, image, PID, limits) and their resource usage, fed by the
//! deployment layer the way cgroups feed the real cAdvisor.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use teemon_metrics::{
    FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue, ScrapeError,
};

/// Static description of a running container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerSpec {
    /// Container name (e.g. `redis-0`).
    pub name: String,
    /// Image reference (e.g. `sconecuratedimages/redis:5-scone`).
    pub image: String,
    /// PID of the main process inside the container.
    pub pid: u32,
    /// Memory limit in bytes (0 = unlimited).
    pub memory_limit_bytes: u64,
}

/// Mutable per-container usage, updated by the host model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ContainerUsage {
    /// Cumulative CPU seconds consumed.
    pub cpu_seconds: f64,
    /// Current memory working set in bytes.
    pub memory_bytes: u64,
    /// Cumulative bytes received.
    pub network_rx_bytes: u64,
    /// Cumulative bytes transmitted.
    pub network_tx_bytes: u64,
}

#[derive(Default)]
struct State {
    containers: BTreeMap<String, (ContainerSpec, ContainerUsage)>,
}

/// The per-node container metrics exporter.
#[derive(Clone)]
pub struct ContainerExporter {
    state: Arc<RwLock<State>>,
    node: Labels,
}

impl ContainerExporter {
    /// Creates a container exporter labelled with the node name.
    pub fn new(node: &str) -> Self {
        Self {
            state: Arc::new(RwLock::new(State::default())),
            node: crate::registry::node_labels(node),
        }
    }

    /// Registers (or replaces) a container.
    pub fn register_container(&self, spec: ContainerSpec) {
        self.state.write().containers.insert(spec.name.clone(), (spec, ContainerUsage::default()));
    }

    /// Adds usage to a container's counters and replaces its memory gauge.
    /// Returns `false` for unknown containers.
    pub fn record_usage(&self, name: &str, delta: ContainerUsage) -> bool {
        let mut state = self.state.write();
        match state.containers.get_mut(name) {
            Some((_, usage)) => {
                usage.cpu_seconds += delta.cpu_seconds;
                usage.network_rx_bytes += delta.network_rx_bytes;
                usage.network_tx_bytes += delta.network_tx_bytes;
                if delta.memory_bytes > 0 {
                    usage.memory_bytes = delta.memory_bytes;
                }
                true
            }
            None => false,
        }
    }

    fn gather(state: &State) -> Vec<FamilySnapshot> {
        let mut cpu = FamilySnapshot::new(
            "container_cpu_usage_seconds_total",
            "Cumulative CPU time per container",
            MetricKind::Counter,
        );
        let mut memory = FamilySnapshot::new(
            "container_memory_working_set_bytes",
            "Current working set per container",
            MetricKind::Gauge,
        );
        let mut limit = FamilySnapshot::new(
            "container_spec_memory_limit_bytes",
            "Configured memory limit per container",
            MetricKind::Gauge,
        );
        let mut rx = FamilySnapshot::new(
            "container_network_receive_bytes_total",
            "Bytes received per container",
            MetricKind::Counter,
        );
        let mut tx = FamilySnapshot::new(
            "container_network_transmit_bytes_total",
            "Bytes transmitted per container",
            MetricKind::Counter,
        );
        for (name, (spec, usage)) in &state.containers {
            let labels =
                Labels::from_pairs([("container", name.clone()), ("image", spec.image.clone())]);
            cpu.points
                .push(MetricPoint::new(labels.clone(), PointValue::Counter(usage.cpu_seconds)));
            memory.points.push(MetricPoint::new(
                labels.clone(),
                PointValue::Gauge(usage.memory_bytes as f64),
            ));
            limit.points.push(MetricPoint::new(
                labels.clone(),
                PointValue::Gauge(spec.memory_limit_bytes as f64),
            ));
            rx.points.push(MetricPoint::new(
                labels.clone(),
                PointValue::Counter(usage.network_rx_bytes as f64),
            ));
            tx.points
                .push(MetricPoint::new(labels, PointValue::Counter(usage.network_tx_bytes as f64)));
        }
        vec![cpu, memory, limit, rx, tx]
    }
}

impl MetricsEndpoint for ContainerExporter {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(crate::registry::gather(&self.node, Self::gather(&self.state.read())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::exposition::{encode_text, parse_families};

    fn value(families: &[FamilySnapshot], name: &str, labels: &Labels) -> Option<f64> {
        families.iter().find(|f| f.name == name)?.point(labels).map(|p| p.value.scalar())
    }

    fn redis_spec() -> ContainerSpec {
        ContainerSpec {
            name: "redis-0".into(),
            image: "scone/redis:5".into(),
            pid: 1234,
            memory_limit_bytes: 1 << 30,
        }
    }

    #[test]
    fn registered_containers_are_exported() {
        let exporter = ContainerExporter::new("worker-1");
        exporter.register_container(redis_spec());
        exporter.record_usage(
            "redis-0",
            ContainerUsage {
                cpu_seconds: 12.5,
                memory_bytes: 200 << 20,
                network_rx_bytes: 1_000,
                network_tx_bytes: 2_000,
            },
        );
        let parsed = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        let labels = Labels::from_pairs([
            ("node", "worker-1"),
            ("container", "redis-0"),
            ("image", "scone/redis:5"),
        ]);
        assert_eq!(value(&parsed, "container_cpu_usage_seconds_total", &labels), Some(12.5));
        assert_eq!(
            value(&parsed, "container_memory_working_set_bytes", &labels),
            Some((200u64 << 20) as f64)
        );
        assert_eq!(
            value(&parsed, "container_spec_memory_limit_bytes", &labels),
            Some((1u64 << 30) as f64)
        );
        assert_eq!(exporter.state.read().containers.len(), 1);
    }

    #[test]
    fn usage_accumulates_and_unknown_containers_are_rejected() {
        let exporter = ContainerExporter::new("n");
        exporter.register_container(redis_spec());
        assert!(exporter
            .record_usage("redis-0", ContainerUsage { cpu_seconds: 1.0, ..Default::default() }));
        assert!(exporter
            .record_usage("redis-0", ContainerUsage { cpu_seconds: 2.0, ..Default::default() }));
        assert!(!exporter.record_usage("nope", ContainerUsage::default()));
        let parsed = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        let cpu = parsed.iter().find(|f| f.name == "container_cpu_usage_seconds_total").unwrap();
        assert_eq!(cpu.total(), 3.0);
    }
}
