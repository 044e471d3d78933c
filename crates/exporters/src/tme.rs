//! The TEE Metrics Exporter (SGX exporter).
//!
//! §5.1: "To collect the SGX metrics, we instrument the official Intel SGX
//! driver source code at specific function calls … for each metric, there is a
//! file with the same name in `/sys/module/isgx/parameters`.  \[An\] interface
//! component … reads the metrics and exposes them in the OpenMetrics format to
//! its metrics endpoint."  [`SgxExporter`] is that interface component; the
//! "files" are the simulated driver's [`teemon_sgx_sim::DriverStats`].

use teemon_metrics::{
    FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue, ScrapeError,
};
use teemon_sgx_sim::SgxDriver;

/// The per-machine SGX exporter (one instance per node, privileged).
#[derive(Clone)]
pub struct SgxExporter {
    driver: SgxDriver,
    node: Labels,
}

impl SgxExporter {
    /// Creates an exporter reading `driver`, labelling every sample with the
    /// node name.
    pub fn new(driver: SgxDriver, node: &str) -> Self {
        Self { driver, node: crate::registry::node_labels(node) }
    }

    fn gauge(name: &str, help: &str, value: f64) -> FamilySnapshot {
        FamilySnapshot::new(name, help, MetricKind::Gauge)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(value)))
    }

    fn counter(name: &str, help: &str, value: f64) -> FamilySnapshot {
        FamilySnapshot::new(name, help, MetricKind::Counter)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(value)))
    }

    fn gather(driver: &SgxDriver) -> Vec<FamilySnapshot> {
        let stats = driver.stats();
        vec![
            // Enclave metrics.
            Self::counter(
                "sgx_enclaves_created_total",
                "Enclaves created since driver load",
                stats.enclaves_created as f64,
            ),
            Self::gauge(
                "sgx_nr_enclaves",
                "Currently active enclaves",
                stats.enclaves_active as f64,
            ),
            Self::counter(
                "sgx_enclaves_removed_total",
                "Enclaves removed since driver load",
                stats.enclaves_removed as f64,
            ),
            // EPC metrics.
            Self::gauge("sgx_nr_total_epc_pages", "Usable EPC pages", stats.epc_total_pages as f64),
            Self::gauge("sgx_nr_free_pages", "Free EPC pages", stats.epc_free_pages as f64),
            Self::gauge(
                "sgx_nr_old_pages",
                "EPC pages currently marked old",
                stats.epc_old_pages as f64,
            ),
            Self::counter(
                "sgx_pages_evicted_total",
                "EPC pages evicted to main memory (EWB)",
                stats.epc_pages_evicted as f64,
            ),
            Self::counter(
                "sgx_pages_added_total",
                "Pages added to enclaves (EADD/EAUG)",
                stats.epc_pages_added as f64,
            ),
            Self::counter(
                "sgx_pages_reclaimed_total",
                "Evicted pages reloaded into the EPC (ELDU)",
                stats.epc_pages_reclaimed as f64,
            ),
            Self::counter(
                "sgx_pages_marked_old_total",
                "Pages marked old by the swapping daemon",
                stats.epc_pages_marked_old as f64,
            ),
            Self::counter(
                "sgx_enclave_page_faults_total",
                "Page faults on evicted enclave pages",
                stats.enclave_page_faults as f64,
            ),
            Self::counter("sgx_swapd_runs_total", "ksgxswapd wakeups", stats.swapd_wakeups as f64),
        ]
    }
}

impl MetricsEndpoint for SgxExporter {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(crate::registry::gather(&self.node, Self::gather(&self.driver)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::exposition::{encode_text, parse_families};
    use teemon_sim_core::SimClock;

    fn value(families: &[FamilySnapshot], name: &str, labels: &Labels) -> Option<f64> {
        families.iter().find(|f| f.name == name)?.point(labels).map(|p| p.value.scalar())
    }

    #[test]
    fn exports_driver_state_with_node_label() {
        let driver = SgxDriver::new(SimClock::new());
        driver.create_enclave(100, 8 * 1024 * 1024, 4).unwrap();
        let exporter = SgxExporter::new(driver.clone(), "worker-1");

        let text = encode_text(&exporter.scrape().unwrap());
        let parsed = parse_families(&text).unwrap();
        let labels = Labels::from_pairs([("node", "worker-1")]);
        assert_eq!(value(&parsed, "sgx_nr_enclaves", &labels), Some(1.0));
        let added = value(&parsed, "sgx_pages_added_total", &labels).unwrap();
        assert_eq!(added, SgxDriver::pages_for(8 * 1024 * 1024) as f64);
        let free = parsed.iter().find(|f| f.name == "sgx_nr_free_pages").unwrap();
        assert_eq!(free.kind, teemon_metrics::MetricKind::Gauge);
    }

    #[test]
    fn render_reflects_live_driver_changes() {
        let driver = SgxDriver::new(SimClock::new());
        let exporter = SgxExporter::new(driver.clone(), "worker-1");
        let labels = Labels::from_pairs([("node", "worker-1")]);

        let before = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        assert_eq!(value(&before, "sgx_nr_enclaves", &labels), Some(0.0));

        let (id, _) = driver.create_enclave(1, 1024 * 1024, 1).unwrap();
        let during = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        assert_eq!(value(&during, "sgx_nr_enclaves", &labels), Some(1.0));

        driver.destroy_enclave(id).unwrap();
        let after = parse_families(&encode_text(&exporter.scrape().unwrap())).unwrap();
        assert_eq!(value(&after, "sgx_nr_enclaves", &labels), Some(0.0));
        assert_eq!(value(&after, "sgx_enclaves_removed_total", &labels), Some(1.0));
    }

    #[test]
    fn exposes_all_paper_metric_classes() {
        let driver = SgxDriver::new(SimClock::new());
        let text = encode_text(&SgxExporter::new(driver, "n").scrape().unwrap());
        for metric in [
            "sgx_enclaves_created_total",
            "sgx_nr_enclaves",
            "sgx_enclaves_removed_total",
            "sgx_nr_total_epc_pages",
            "sgx_nr_free_pages",
            "sgx_nr_old_pages",
            "sgx_pages_evicted_total",
            "sgx_pages_added_total",
            "sgx_pages_reclaimed_total",
        ] {
            assert!(text.contains(metric), "missing {metric}");
        }
    }
}
