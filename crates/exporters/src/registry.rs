//! The last step of every exporter's `scrape`: what a Prometheus client
//! library's registry does when it is gathered — stamp the exporter's
//! constant `node` label on every point and order the families by name.

use teemon_metrics::{FamilySnapshot, Labels};

/// The `{node="…"}` label set an exporter deployed on `node` stamps on
/// every point, the way DaemonSet-deployed exporters tag their metrics.
pub(crate) fn node_labels(node: &str) -> Labels {
    Labels::from_pairs([("node", node)])
}

/// Adds `node` to every point of `families` and sorts the families by name.
pub(crate) fn gather(node: &Labels, mut families: Vec<FamilySnapshot>) -> Vec<FamilySnapshot> {
    for family in &mut families {
        for point in &mut family.points {
            point.labels = point.labels.merged(node);
        }
    }
    families.sort_by(|a, b| a.name.cmp(&b.name));
    families
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SgxExporter;
    use teemon_metrics::{MetricKind, MetricPoint, MetricsEndpoint, PointValue};
    use teemon_sgx_sim::SgxDriver;
    use teemon_sim_core::SimClock;

    fn family(name: &str, kind: MetricKind, labels: Labels, value: PointValue) -> FamilySnapshot {
        FamilySnapshot::new(name, name, kind).with_point(MetricPoint::new(labels, value))
    }

    #[test]
    fn registry_gathers_sorted_families() {
        let families = vec![
            family("z_total", MetricKind::Counter, Labels::new(), PointValue::Counter(1.0)),
            family("a_gauge", MetricKind::Gauge, Labels::new(), PointValue::Gauge(1.0)),
        ];
        let gathered = gather(&node_labels("n1"), families);
        let names: Vec<_> = gathered.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "z_total"]);
    }

    #[test]
    fn constant_labels_are_applied() {
        let kind = Labels::from_pairs([("kind", "page_fault")]);
        let families =
            vec![family("events_total", MetricKind::Counter, kind, PointValue::Counter(4.0))];
        let gathered = gather(&node_labels("n1"), families);
        let point = &gathered[0].points[0];
        assert_eq!(point.labels.get("node"), Some("n1"));
        assert_eq!(point.labels.get("kind"), Some("page_fault"));
        assert_eq!(point.value.scalar(), 4.0);
    }

    #[test]
    fn dynamic_collectors_run_at_gather_time() {
        let driver = SgxDriver::new(SimClock::new());
        let exporter = SgxExporter::new(driver.clone(), "n1");
        let enclaves = |families: Vec<FamilySnapshot>| {
            let family = families.into_iter().find(|f| f.name == "sgx_nr_enclaves").unwrap();
            family.point(&node_labels("n1")).unwrap().value.scalar()
        };
        assert_eq!(enclaves(exporter.scrape().unwrap()), 0.0);
        driver.create_enclave(7, 1024 * 1024, 1).unwrap();
        assert_eq!(enclaves(exporter.scrape().unwrap()), 1.0);
    }
}
