//! [`ObsCollector`]: the probe table exposed through the standard
//! [`Collector`] trait.
//!
//! Nothing here names a metric: `collect` interprets [`PROBES`] (the single
//! declaration of every family, in `probes.rs`) and appends the
//! lock-contention [`LOCK_FAMILIES`].
//!
//! This is the canonical (bucketed) view of the same probes that
//! [`crate::SelfSnapshot`] pre-expands: histograms are emitted as
//! [`PointValue::Histogram`] points, so the collector plugs into everything
//! that consumes collectors — the text exposition renderer, registries, and
//! the scraper's collector endpoints.  The expanded sample stream is
//! identical to [`crate::SelfSnapshot`]'s by construction (a unit test
//! asserts it), the difference is purely cost: `collect` allocates a fresh
//! snapshot per call, which is fine for `/metrics`-style exposition but not
//! for the engine's own per-round self-scrape — the scraper uses the
//! in-place [`crate::SelfSnapshot`] path for that.

use parking_lot::contention;
use teemon_metrics::{
    CollectError, Collector, FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint,
    PointValue,
};

use crate::probes::{LOCK_FAMILIES, PROBES};

/// The default job label under which the engine scrapes itself.
pub const SELF_JOB: &str = "teemon_self";

/// A [`Collector`] over the engine's own probe table — all of it, or the
/// families of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsCollector {
    layer: Option<&'static str>,
}

impl ObsCollector {
    /// Creates the collector over every layer (stateless; the probes are
    /// static).
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector over one layer's families only (`ingest`, `storage`,
    /// `query`, `http` or `locks`), so a caller that exports a slice of the
    /// surface does not pay for snapshotting the rest.
    pub fn layer(layer: &'static str) -> Self {
        Self { layer: Some(layer) }
    }

    fn covers(&self, layer: &str) -> bool {
        self.layer.is_none_or(|only| only == layer)
    }
}

/// The canonical bucketed form of one lock class's wait histogram.
fn wait_snapshot(class: &contention::ClassContention) -> HistogramSnapshot {
    let mut bounds = Vec::with_capacity(contention::WAIT_BUCKETS - 1);
    let mut cumulative_counts = Vec::with_capacity(contention::WAIT_BUCKETS);
    let mut cumulative = 0u64;
    for (i, bucket) in class.wait_buckets.iter().enumerate() {
        cumulative += bucket;
        if i < contention::WAIT_BUCKETS - 1 {
            bounds.push(contention::bucket_upper_bound_ns(i) as f64 / 1e9);
        }
        cumulative_counts.push(cumulative);
    }
    HistogramSnapshot {
        bounds,
        cumulative_counts,
        sum: class.wait_ns_sum as f64 / 1e9,
        count: class.contended,
    }
}

impl Collector for ObsCollector {
    fn job_name(&self) -> &str {
        SELF_JOB
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
        let mut families = Vec::with_capacity(PROBES.len() + LOCK_FAMILIES.len());
        for probe in PROBES.iter().filter(|probe| self.covers(probe.layer)) {
            let kind = probe.kind();
            let mut family = FamilySnapshot::new(probe.name, probe.help, kind);
            for (member, hist) in probe.hists() {
                let value = PointValue::Histogram(hist.snapshot());
                family.points.push(MetricPoint::new(probe.labels(member, None), value));
            }
            for (member, slot) in probe.members {
                slot.for_each_value(|shard, value| {
                    let value = match kind {
                        MetricKind::Counter => PointValue::Counter(value),
                        _ => PointValue::Gauge(value),
                    };
                    family.points.push(MetricPoint::new(probe.labels(member, shard), value));
                });
            }
            families.push(family);
        }
        if self.covers("locks") {
            let [(acquires, acquires_help), (contended, contended_help), (wait, wait_help)] =
                LOCK_FAMILIES;
            let mut acquires = FamilySnapshot::new(acquires, acquires_help, MetricKind::Counter);
            let mut contended = FamilySnapshot::new(contended, contended_help, MetricKind::Counter);
            let mut waits = FamilySnapshot::new(wait, wait_help, MetricKind::Histogram);
            contention::for_each(&mut |class| {
                let labels = Labels::new().with("class", class.name);
                acquires.points.push(MetricPoint::new(
                    labels.clone(),
                    PointValue::Counter(class.acquires as f64),
                ));
                contended.points.push(MetricPoint::new(
                    labels.clone(),
                    PointValue::Counter(class.contended as f64),
                ));
                waits
                    .points
                    .push(MetricPoint::new(labels, PointValue::Histogram(wait_snapshot(class))));
            });
            families.extend([acquires, contended, waits]);
        }
        Ok(families)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SelfSnapshot;

    /// Flattens families into `(sample_name, labels, value)` rows via the
    /// canonical expansion.
    fn samples_of(families: &[FamilySnapshot]) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for family in families {
            family.for_each_sample(|name, labels: &Labels, value, _ts| {
                let mut rendered: Vec<String> =
                    labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                rendered.sort();
                out.push((name.to_string(), rendered.join(","), value));
            });
        }
        out
    }

    #[test]
    fn job_name_is_the_self_job() {
        assert_eq!(ObsCollector::new().job_name(), SELF_JOB);
    }

    #[test]
    fn canonical_and_preexpanded_forms_agree_on_the_wire() {
        // The collector's bucketed families and the in-place SelfSnapshot
        // must expand to the same (name, labels) sample stream — this is
        // what makes the two self-scrape paths interchangeable.  Values can
        // race (other tests record into the shared probes), so compare the
        // series identities only.
        // The canonical form interleaves `_bucket`/`_sum`/`_count` per point
        // while the pre-expanded form groups whole families, so compare the
        // sample *set*, not the order.
        let collected = ObsCollector::new().collect().expect("collect is infallible");
        let snap = SelfSnapshot::new();
        let mut canonical: Vec<(String, String)> =
            samples_of(&collected).into_iter().map(|(n, l, _)| (n, l)).collect();
        let mut expanded: Vec<(String, String)> =
            samples_of(snap.families()).into_iter().map(|(n, l, _)| (n, l)).collect();
        canonical.sort();
        expanded.sort();
        assert_eq!(canonical, expanded);
    }

    #[test]
    fn a_layer_collector_exports_only_that_layer() {
        let http = ObsCollector::layer("http").collect().expect("collect is infallible");
        assert_eq!(http.len(), PROBES.iter().filter(|p| p.layer == "http").count());
        assert!(http.iter().all(|f| f.name.starts_with("teemon_http_")));
        let locks = ObsCollector::layer("locks").collect().expect("collect is infallible");
        let names: Vec<&str> = locks.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, LOCK_FAMILIES.map(|(name, _)| name));
    }
}
