//! The eBPF exporter — the heart of the System Metrics Exporter.
//!
//! Modelled on Cloudflare's `ebpf_exporter` (§5.1): it loads the standard
//! TEEMon program set (Table 2) into the kernel's hook registry and publishes
//! the aggregated BPF-map contents as OpenMetrics families:
//!
//! * `teemon_syscalls_total{syscall=…}`
//! * `teemon_context_switches_total{scope=…}`
//! * `teemon_page_faults_total{scope=…}`
//! * `teemon_cache_events_total{event=…}`

use teemon_kernel_sim::ebpf::{BpfMap, EbpfVm, PidFilter};
use teemon_kernel_sim::Kernel;
use teemon_metrics::{
    FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue, ScrapeError,
};

/// The eBPF-based system metrics exporter (one per node).
pub struct EbpfExporter {
    vm: EbpfVm,
    maps: Vec<BpfMap>,
    node: Labels,
}

impl EbpfExporter {
    /// Attaches the standard program set to `kernel` observing every process.
    pub fn attach(kernel: &Kernel, node: &str) -> Self {
        let mut vm = EbpfVm::new(kernel.hooks().clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        Self { vm, maps, node: crate::registry::node_labels(node) }
    }

    /// Number of eBPF programs currently loaded.
    pub(crate) fn program_count(&self) -> usize {
        self.vm.program_count()
    }

    fn family_from_map(
        name: &str,
        help: &str,
        label_name: &str,
        map: &BpfMap,
        key_filter: fn(&str) -> Option<String>,
    ) -> FamilySnapshot {
        let mut family = FamilySnapshot::new(name, help, MetricKind::Counter);
        for (key, value) in map.dump() {
            if let Some(label_value) = key_filter(&key) {
                family.points.push(MetricPoint::new(
                    Labels::from_pairs([(label_name, label_value)]),
                    PointValue::Counter(value as f64),
                ));
            }
        }
        family
    }

    fn gather(maps: &[BpfMap]) -> Vec<FamilySnapshot> {
        let syscalls = &maps[0];
        let switches = &maps[1];
        let faults = &maps[2];
        let cache = &maps[3];
        vec![
            Self::family_from_map(
                "teemon_syscalls_total",
                "System calls observed via raw_syscalls:sys_enter",
                "syscall",
                syscalls,
                |k| Some(k.to_string()),
            ),
            Self::family_from_map(
                "teemon_context_switches_total",
                "Context switches observed via sched:sched_switch",
                "scope",
                switches,
                |k| Some(k.replace(':', "_")),
            ),
            Self::family_from_map(
                "teemon_page_faults_total",
                "Page faults observed via exceptions:page_fault_*",
                "scope",
                faults,
                |k| Some(k.replace(':', "_")),
            ),
            Self::family_from_map(
                "teemon_cache_events_total",
                "LLC and page-cache events",
                "event",
                cache,
                |k| Some(k.to_string()),
            ),
        ]
    }
}

impl MetricsEndpoint for EbpfExporter {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(crate::registry::gather(&self.node, Self::gather(&self.maps)))
    }
}

impl std::fmt::Debug for EbpfExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbpfExporter").field("programs", &self.program_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_kernel_sim::process::ProcessKind;
    use teemon_kernel_sim::{FaultKind, SwitchKind, Syscall};
    use teemon_metrics::exposition::{encode_text, parse_families};

    fn value(families: &[FamilySnapshot], name: &str, labels: &Labels) -> Option<f64> {
        families.iter().find(|f| f.name == name)?.point(labels).map(|p| p.value.scalar())
    }

    #[test]
    fn exports_syscall_counts_by_name() {
        let kernel = Kernel::new();
        let exporter = EbpfExporter::attach(&kernel, "worker-1");
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
        for _ in 0..5 {
            kernel.syscall(pid, Syscall::ClockGettime, true);
        }
        kernel.syscall(pid, Syscall::Read, true);

        let parsed = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        let labels = Labels::from_pairs([("node", "worker-1"), ("syscall", "clock_gettime")]);
        assert_eq!(value(&parsed, "teemon_syscalls_total", &labels), Some(5.0));
        assert_eq!(exporter.program_count(), 4);
    }

    #[test]
    fn exports_context_switches_page_faults_and_cache() {
        let kernel = Kernel::new();
        let exporter = EbpfExporter::attach(&kernel, "n1");
        let pid = kernel.spawn_process("nginx", ProcessKind::User, 4);
        kernel.context_switch(pid, SwitchKind::Voluntary);
        kernel.page_fault(pid, FaultKind::User, false);
        kernel.cache_access(pid, 1_000, 50, false);

        let text = encode_text(&exporter.scrape().unwrap());
        let parsed = parse_families(&text).unwrap();
        assert_eq!(
            value(
                &parsed,
                "teemon_context_switches_total",
                &Labels::from_pairs([("node", "n1"), ("scope", "host_total")])
            ),
            Some(1.0)
        );
        assert_eq!(
            value(
                &parsed,
                "teemon_page_faults_total",
                &Labels::from_pairs([("node", "n1"), ("scope", "user")])
            ),
            Some(1.0)
        );
        assert_eq!(
            value(
                &parsed,
                "teemon_cache_events_total",
                &Labels::from_pairs([("node", "n1"), ("event", "misses")])
            ),
            Some(50.0)
        );
    }
}
