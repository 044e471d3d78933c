//! The resource footprint of TEEMon's own components (Figure 4) and the
//! throughput impact of running them alongside the monitored application
//! (Figure 5).

use serde::{Deserialize, Serialize};

use crate::monitor::MonitoringMode;

/// CPU and memory footprint of one TEEMon component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentFootprint {
    /// Component name (as labelled in Figure 4).
    pub component: String,
    /// Average CPU utilisation in percent of one core over the measurement
    /// period.
    pub cpu_percent: f64,
    /// Average resident memory in megabytes.
    pub memory_mb: f64,
}

/// The model behind Figures 4 and 5.
///
/// The per-component costs are expressed mechanistically: each exporter pays a
/// fixed cost per scrape plus a cost per exported sample; the aggregator pays
/// a cost per ingested sample and holds recent samples in memory; the
/// visualisation and analysis components poll the aggregator at a lower rate.
/// Evaluating the model over a 24-hour scrape schedule yields the Figure 4
/// numbers; the CPU the components consume competes with the monitored
/// application for cores, which (together with the in-kernel eBPF cost that
/// the kernel model charges directly) produces the Figure 5 overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Scrape interval in seconds.
    pub scrape_interval_s: f64,
    /// CPU seconds one exporter spends serving one scrape.
    pub exporter_cpu_per_scrape_s: f64,
    /// CPU seconds cAdvisor spends per container per scrape (it walks cgroups,
    /// which is why it is the most expensive component in Figure 4a).
    pub cadvisor_cpu_per_scrape_s: f64,
    /// CPU seconds the aggregator spends ingesting one sample.
    pub aggregator_cpu_per_sample_s: f64,
    /// Bytes of aggregator memory per retained sample.
    pub aggregator_bytes_per_sample: f64,
    /// Base resident memory of each component in MB.
    pub base_memory_mb: f64,
    /// Aggregator base memory in MB (Prometheus keeps its head chunks in
    /// memory — the paper measured ~4× the other components).
    pub aggregator_base_memory_mb: f64,
    /// Number of CPU cores on the host.
    pub cpu_cores: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self {
            scrape_interval_s: 5.0,
            exporter_cpu_per_scrape_s: 0.02,
            cadvisor_cpu_per_scrape_s: 0.08,
            aggregator_cpu_per_sample_s: 0.000_01,
            aggregator_bytes_per_sample: 120.0,
            base_memory_mb: 100.0,
            aggregator_base_memory_mb: 260.0,
            cpu_cores: 8.0,
        }
    }
}

impl OverheadModel {
    /// Evaluates the Figure 4 experiment: the CPU and memory footprint of each
    /// component over `hours` of monitoring with `samples_per_scrape` samples
    /// collected from `containers` containers on one host.
    pub(crate) fn component_footprints(
        &self,
        hours: f64,
        samples_per_scrape: f64,
        containers: f64,
    ) -> Vec<ComponentFootprint> {
        let scrapes_per_second = 1.0 / self.scrape_interval_s;
        let exporter_cpu = self.exporter_cpu_per_scrape_s * scrapes_per_second * 100.0;
        let cadvisor_cpu = (self.cadvisor_cpu_per_scrape_s + 0.002 * containers.max(1.0))
            * scrapes_per_second
            * 100.0;
        let ingested_per_second = samples_per_scrape * scrapes_per_second;
        let aggregator_cpu = self.aggregator_cpu_per_sample_s * ingested_per_second * 100.0
            + 0.2 /* compaction, rule evaluation */;
        // Memory: the aggregator keeps the most recent head chunks (about half
        // an hour of samples) in memory regardless of how long the experiment
        // ran; older chunks are compacted.
        let retained_seconds = (hours * 3600.0).min(0.5 * 3600.0);
        let aggregator_memory_mb = self.aggregator_base_memory_mb
            + ingested_per_second * retained_seconds * self.aggregator_bytes_per_sample / 1e6;
        vec![
            ComponentFootprint {
                component: "sgx-exporter".into(),
                cpu_percent: exporter_cpu * 0.5,
                memory_mb: self.base_memory_mb * 0.6,
            },
            ComponentFootprint {
                component: "ebpf-exporter".into(),
                cpu_percent: exporter_cpu * 1.5,
                memory_mb: self.base_memory_mb * 0.9,
            },
            ComponentFootprint {
                component: "node-exporter".into(),
                cpu_percent: exporter_cpu,
                memory_mb: self.base_memory_mb * 0.5,
            },
            ComponentFootprint {
                component: "cadvisor".into(),
                cpu_percent: cadvisor_cpu,
                memory_mb: self.base_memory_mb,
            },
            ComponentFootprint {
                component: "prometheus".into(),
                cpu_percent: aggregator_cpu,
                memory_mb: aggregator_memory_mb,
            },
            ComponentFootprint {
                component: "grafana".into(),
                cpu_percent: 0.5,
                memory_mb: self.base_memory_mb,
            },
            ComponentFootprint {
                component: "pman".into(),
                cpu_percent: 0.4,
                memory_mb: self.base_memory_mb * 0.7,
            },
        ]
    }

    /// The throughput factor (≤ 1.0) the *user-space* TEEMon components impose
    /// on a monitored application by competing for CPU.  The in-kernel eBPF
    /// cost is not included here — the kernel model charges it directly per
    /// traced event — so Figure 5's observation that "the eBPF programs …
    /// contribute for half of the performance drop" emerges from combining
    /// both halves.
    pub(crate) fn userspace_throughput_factor(&self, mode: MonitoringMode, containers: f64) -> f64 {
        match mode {
            MonitoringMode::Off | MonitoringMode::EbpfOnly => 1.0,
            MonitoringMode::Full => {
                let footprints = self.component_footprints(1.0, 2_000.0, containers);
                let total_cpu_percent: f64 = footprints.iter().map(|c| c.cpu_percent).sum();
                // The monitored application loses that share of the machine's
                // cores, plus cache/memory-bandwidth interference roughly equal
                // to the CPU share.
                let share = total_cpu_percent / (100.0 * self.cpu_cores);
                (1.0 - 2.0 * share).clamp(0.5, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_is_the_memory_hog() {
        let model = OverheadModel::default();
        let footprints = model.component_footprints(24.0, 2_000.0, 10.0);
        let prometheus = footprints.iter().find(|c| c.component == "prometheus").unwrap();
        let others_max = footprints
            .iter()
            .filter(|c| c.component != "prometheus")
            .map(|c| c.memory_mb)
            .fold(0.0, f64::max);
        // The paper: "While all other components use 100 MB on average,
        // Prometheus allocates 4× as much."
        assert!(
            prometheus.memory_mb > 3.0 * others_max,
            "{} vs {}",
            prometheus.memory_mb,
            others_max
        );
        let total: f64 = footprints.iter().map(|c| c.memory_mb).sum();
        assert!(
            (500.0..1_000.0).contains(&total),
            "total memory {total} MB outside paper band (~700 MB)"
        );
    }

    #[test]
    fn cadvisor_is_the_cpu_hog_and_stays_modest() {
        let footprints = OverheadModel::default().component_footprints(24.0, 2_000.0, 10.0);
        let cadvisor = footprints.iter().find(|c| c.component == "cadvisor").unwrap();
        for c in &footprints {
            assert!(c.cpu_percent <= cadvisor.cpu_percent + 1e-9, "{} > cadvisor", c.component);
            assert!(
                c.cpu_percent < 5.0,
                "{} uses {}% CPU, paper says ≲3%",
                c.component,
                c.cpu_percent
            );
        }
        assert!(cadvisor.cpu_percent > 0.3);
    }

    #[test]
    fn userspace_factor_only_applies_to_full_monitoring() {
        let model = OverheadModel::default();
        assert_eq!(model.userspace_throughput_factor(MonitoringMode::Off, 10.0), 1.0);
        assert_eq!(model.userspace_throughput_factor(MonitoringMode::EbpfOnly, 10.0), 1.0);
        let full = model.userspace_throughput_factor(MonitoringMode::Full, 10.0);
        assert!(full < 1.0);
        assert!(full > 0.9, "user-space share should be a few percent, got {full}");
    }
}
