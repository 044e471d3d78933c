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
use teemon_kernel_sim::{Kernel, Pid};
use teemon_metrics::{
    CollectError, Collector, FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue,
};

/// The eBPF-based system metrics exporter (one per node).
pub struct EbpfExporter {
    vm: EbpfVm,
    maps: Vec<BpfMap>,
    filter: PidFilter,
    node: Labels,
}

impl EbpfExporter {
    /// Attaches the standard program set to `kernel` observing every process.
    pub fn attach(kernel: &Kernel, node: &str) -> Self {
        Self::attach_filtered(kernel, node, PidFilter::All)
    }

    /// Attaches with a PID filter (the "macro … set in the eBPF configuration
    /// file" of §6.3) so per-PID series only exist for the filtered process.
    pub fn attach_for_pid(kernel: &Kernel, node: &str, pid: Pid) -> Self {
        Self::attach_filtered(kernel, node, PidFilter::Only(pid))
    }

    fn attach_filtered(kernel: &Kernel, node: &str, filter: PidFilter) -> Self {
        let mut vm = EbpfVm::new(kernel.hooks().clone());
        let maps = vm.load_standard_programs(filter);
        Self { vm, maps, filter, node: crate::registry::node_labels(node) }
    }

    /// The PID filter in effect.
    pub fn filter(&self) -> PidFilter {
        self.filter
    }

    /// Number of eBPF programs currently loaded.
    pub fn program_count(&self) -> usize {
        self.vm.program_count()
    }

    /// Detaches every program (monitoring off); the exporter keeps serving the
    /// last observed values but stops paying instrumentation costs.
    pub fn detach(&mut self) {
        self.vm.unload_all();
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

    /// Direct read of the syscall counts map (used by tests and analysis).
    pub fn syscall_map(&self) -> &BpfMap {
        &self.maps[0]
    }
}

impl Collector for EbpfExporter {
    fn job_name(&self) -> &str {
        "ebpf_exporter"
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
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

        let parsed = parse_families(&encode_text(&exporter.collect().unwrap())).unwrap();
        let labels = Labels::from_pairs([("node", "worker-1"), ("syscall", "clock_gettime")]);
        assert_eq!(value(&parsed, "teemon_syscalls_total", &labels), Some(5.0));
        assert_eq!(exporter.program_count(), 4);
        assert_eq!(exporter.job_name(), "ebpf_exporter");
    }

    #[test]
    fn exports_context_switches_page_faults_and_cache() {
        let kernel = Kernel::new();
        let exporter = EbpfExporter::attach(&kernel, "n1");
        let pid = kernel.spawn_process("nginx", ProcessKind::User, 4);
        kernel.context_switch(pid, SwitchKind::Voluntary);
        kernel.page_fault(pid, FaultKind::User, false);
        kernel.cache_access(pid, 1_000, 50, false);

        let text = encode_text(&exporter.collect().unwrap());
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

    #[test]
    fn pid_filter_restricts_per_pid_series() {
        let kernel = Kernel::new();
        let redis = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
        let other = kernel.spawn_process("noise", ProcessKind::User, 1);
        let exporter = EbpfExporter::attach_for_pid(&kernel, "n1", redis);
        kernel.context_switch(redis, SwitchKind::Voluntary);
        kernel.context_switch(other, SwitchKind::Voluntary);

        let parsed = parse_families(&encode_text(&exporter.collect().unwrap())).unwrap();
        let redis_scope = format!("pid_{redis}");
        let other_scope = format!("pid_{other}");
        assert!(value(
            &parsed,
            "teemon_context_switches_total",
            &Labels::from_pairs([("node", "n1".to_string()), ("scope", redis_scope)])
        )
        .is_some());
        assert!(value(
            &parsed,
            "teemon_context_switches_total",
            &Labels::from_pairs([("node", "n1".to_string()), ("scope", other_scope)])
        )
        .is_none());
        // Host total still counts both.
        assert_eq!(
            value(
                &parsed,
                "teemon_context_switches_total",
                &Labels::from_pairs([("node", "n1"), ("scope", "host_total")])
            ),
            Some(2.0)
        );
    }

    #[test]
    fn detach_stops_observing_but_keeps_serving() {
        let kernel = Kernel::new();
        let mut exporter = EbpfExporter::attach(&kernel, "n1");
        let pid = kernel.spawn_process("redis-server", ProcessKind::User, 1);
        kernel.syscall(pid, Syscall::Write, false);
        exporter.detach();
        kernel.syscall(pid, Syscall::Write, false);
        assert_eq!(exporter.syscall_map().get("write"), Some(1));
        assert_eq!(exporter.program_count(), 0);
        assert_eq!(kernel.hooks().total_attached(), 0);
    }
}
