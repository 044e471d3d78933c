//! The paper stack's reference footprint (Figure 4) and the throughput
//! impact it charges a monitored application (Figure 5).
//!
//! teemon's own footprint is not here: [`crate::experiments::figure4`]
//! measures it by running the stack.

use crate::monitor::MonitoringMode;

/// Paper stack reference (modelled Prometheus / Grafana / cAdvisor), not
/// teemon: per component, its CPU in percent of one core and its resident
/// memory in MB.
///
/// Every row is the output of the cost model this table replaced (a fixed
/// cost per scrape and per sample over 2 000 samples a scrape from 10
/// containers), not a value quoted from the paper: the repository holds no
/// measured values of the paper's own stack to cite.  The model gave the
/// same rows for every run of 30 minutes or more.
pub const PAPER_STACK_REFERENCE: [(&str, f64, f64); 7] = [
    ("sgx-exporter", 0.2, 60.0),
    ("ebpf-exporter", 0.6000000000000001, 90.0),
    ("node-exporter", 0.4, 50.0),
    ("cadvisor", 2.0000000000000004, 100.0),
    ("prometheus", 0.6000000000000001, 346.4),
    ("grafana", 0.5, 100.0),
    ("pman", 0.4, 70.0),
];

/// Cores of the host the reference footprint shares with the application.
const CPU_CORES: f64 = 8.0;

/// The throughput factor (≤ 1.0) the paper stack's *user-space* components
/// impose on a monitored application by competing for CPU: the share of the
/// host's cores [`PAPER_STACK_REFERENCE`] uses, doubled for cache and
/// memory-bandwidth interference.  The in-kernel eBPF cost is not included —
/// the kernel model charges it directly per traced event — so Figure 5's
/// observation that "the eBPF programs … contribute for half of the
/// performance drop" emerges from combining both halves.
pub(crate) fn paper_stack_throughput_factor(mode: MonitoringMode) -> f64 {
    match mode {
        MonitoringMode::Off | MonitoringMode::EbpfOnly => 1.0,
        MonitoringMode::Full => {
            let total_cpu_percent: f64 = PAPER_STACK_REFERENCE.iter().map(|c| c.1).sum();
            let share = total_cpu_percent / (100.0 * CPU_CORES);
            1.0 - 2.0 * share
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_is_the_memory_hog() {
        let footprints = PAPER_STACK_REFERENCE;
        let prometheus = footprints.iter().find(|c| c.0 == "prometheus").unwrap();
        let others_max =
            footprints.iter().filter(|c| c.0 != "prometheus").map(|c| c.2).fold(0.0, f64::max);
        // The paper: "While all other components use 100 MB on average,
        // Prometheus allocates 4× as much."
        assert!(prometheus.2 > 3.0 * others_max, "{} vs {}", prometheus.2, others_max);
        let total: f64 = footprints.iter().map(|c| c.2).sum();
        assert!(
            (500.0..1_000.0).contains(&total),
            "total memory {total} MB outside paper band (~700 MB)"
        );
    }

    #[test]
    fn cadvisor_is_the_cpu_hog_and_stays_modest() {
        let footprints = PAPER_STACK_REFERENCE;
        let cadvisor = footprints.iter().find(|c| c.0 == "cadvisor").unwrap();
        for c in &footprints {
            assert!(c.1 <= cadvisor.1 + 1e-9, "{} > cadvisor", c.0);
            assert!(c.1 < 5.0, "{} uses {}% CPU, paper says ≲3%", c.0, c.1);
        }
        assert!(cadvisor.1 > 0.3);
    }

    #[test]
    fn userspace_factor_only_applies_to_full_monitoring() {
        assert_eq!(paper_stack_throughput_factor(MonitoringMode::Off), 1.0);
        assert_eq!(paper_stack_throughput_factor(MonitoringMode::EbpfOnly), 1.0);
        let full = paper_stack_throughput_factor(MonitoringMode::Full);
        assert!(full < 1.0);
        assert!(full > 0.9, "user-space share should be a few percent, got {full}");
    }
}
