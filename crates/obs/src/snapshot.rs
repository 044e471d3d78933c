//! The engine's self-telemetry as metric families: the one view of the
//! probe table.
//!
//! Nothing here names a metric: `walk` interprets [`PROBES`] (the single
//! declaration of every family, in `probes.rs`) and appends the
//! lock-contention [`LOCK_FAMILIES`].  Histograms stay in their canonical
//! bucketed form ([`PointValue::Histogram`] points); on the wire
//! [`FamilySnapshot::for_each_sample`] expands them as it expands every
//! other family's.
//!
//! The walk writes into a list of families: a point already at its
//! position is overwritten in place, a missing one is built and appended.
//! [`build`] walks into an empty list, over every layer or one, for text
//! exposition (`/self/metrics`); [`SelfSnapshot`] walks into the one it
//! keeps, for the engine's own per-round self-scrape, so a warm refresh never invokes a label closure
//! and performs zero allocations — and because point positions never move
//! between rounds, the scraper's positional target cache verifies on every
//! self-scrape.  Points only ever append: the probes are static, and a lock
//! class registers into the `parking_lot` contention table's next free slot
//! and never leaves it.

use parking_lot::contention;
use teemon_metrics::{
    FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint, PointValue,
};

use crate::probes::{LOCK_FAMILIES, PROBES};

/// Where the walk is: how many families it has entered (it writes the last
/// of them) and the position of its next point there.
struct Cursor<'a> {
    families: &'a mut Vec<FamilySnapshot>,
    entered: usize,
    point: usize,
}

impl Cursor<'_> {
    /// Enters the next family, appending it if the list ends here.
    fn family(&mut self, name: &'static str, help: &'static str, kind: MetricKind) {
        if self.entered == self.families.len() {
            self.families.push(FamilySnapshot::new(name, help, kind));
        }
        self.entered += 1;
        self.point = 0;
    }

    /// The value of the next point, appended (labelled by `labels`, valued
    /// by `empty`) if the family ends here.
    fn next(
        &mut self,
        labels: impl FnOnce() -> Labels,
        empty: impl FnOnce(MetricKind) -> PointValue,
    ) -> Option<&mut PointValue> {
        let family = self.families.get_mut(self.entered.checked_sub(1)?)?;
        if self.point == family.points.len() {
            family.points.push(MetricPoint::new(labels(), empty(family.kind)));
        }
        self.point += 1;
        family.points.get_mut(self.point - 1).map(|point| &mut point.value)
    }

    fn scalar(&mut self, labels: impl FnOnce() -> Labels, value: f64) {
        let empty = |kind| match kind {
            MetricKind::Counter => PointValue::Counter(0.0),
            _ => PointValue::Gauge(0.0),
        };
        if let Some(PointValue::Counter(v) | PointValue::Gauge(v)) = self.next(labels, empty) {
            *v = value;
        }
    }

    fn histogram(
        &mut self,
        labels: impl FnOnce() -> Labels,
        fill: impl FnOnce(&mut HistogramSnapshot),
    ) {
        let empty = |_| PointValue::Histogram(HistogramSnapshot::default());
        if let Some(PointValue::Histogram(histogram)) = self.next(labels, empty) {
            fill(histogram);
        }
    }
}

/// Overwrites `out` with one lock class's wait histogram, in seconds.
fn wait_into(class: &contention::ClassContention, out: &mut HistogramSnapshot) {
    out.bounds.clear();
    out.cumulative_counts.clear();
    let mut cumulative = 0u64;
    for (i, bucket) in class.wait_buckets.iter().enumerate() {
        cumulative += bucket;
        if i < contention::WAIT_BUCKETS - 1 {
            out.bounds.push(contention::bucket_upper_bound_ns(i) as f64 / 1e9);
        }
        out.cumulative_counts.push(cumulative);
    }
    out.sum = class.wait_ns_sum as f64 / 1e9;
    out.count = class.contended;
}

/// Writes the current values of `layer`'s families (every layer for
/// `None`) into `families`: [`PROBES`] in table order, then the
/// lock-contention families (layer `locks`), one point per registered
/// class.
fn walk(families: &mut Vec<FamilySnapshot>, layer: Option<&str>) {
    let cursor = &mut Cursor { families, entered: 0, point: 0 };
    let covers = |probe_layer: &str| layer.is_none_or(|only| only == probe_layer);
    for probe in PROBES.iter().filter(|probe| covers(probe.layer)) {
        cursor.family(probe.name, probe.help, probe.kind());
        for (member, hist) in probe.hists() {
            cursor.histogram(|| probe.labels(member, None), |out| hist.snapshot_into(out));
        }
        for (member, slot) in probe.members {
            slot.for_each_value(|shard, value| {
                cursor.scalar(|| probe.labels(member, shard), value)
            });
        }
    }
    if !covers("locks") {
        return;
    }
    let [(acquires, acquires_help), (contended, contended_help), (wait, wait_help)] = LOCK_FAMILIES;
    let class_labels =
        |class: &contention::ClassContention| Labels::new().with("class", class.name);
    cursor.family(acquires, acquires_help, MetricKind::Counter);
    contention::for_each(&mut |class| cursor.scalar(|| class_labels(class), class.acquires as f64));
    cursor.family(contended, contended_help, MetricKind::Counter);
    contention::for_each(&mut |class| {
        cursor.scalar(|| class_labels(class), class.contended as f64)
    });
    cursor.family(wait, wait_help, MetricKind::Histogram);
    contention::for_each(&mut |class| {
        cursor.histogram(|| class_labels(class), |out| wait_into(class, out));
    });
}

/// The families of `layer` (`ingest`, `storage`, `query`, `http` or
/// `locks`; every layer for `None`), freshly built — so a caller that
/// exports a slice of the surface does not pay for snapshotting the rest.
/// It allocates a fresh set per call, which is fine for exposition; the
/// per-round self-scrape refreshes a [`SelfSnapshot`] in place instead.
pub fn build(layer: Option<&str>) -> Vec<FamilySnapshot> {
    let mut families = Vec::new();
    walk(&mut families, layer);
    families
}

/// The engine's own telemetry, built once and refreshed in place.
///
/// Build one with [`SelfSnapshot::new`], then call
/// [`SelfSnapshot::refresh`] before each read of
/// [`SelfSnapshot::families`].  A warm refresh (no new lock classes since
/// the last) allocates nothing and keeps every family and point at a
/// stable position.
pub struct SelfSnapshot {
    families: Vec<FamilySnapshot>,
}

impl SelfSnapshot {
    /// Builds the families from the current probe values.
    pub fn new() -> Self {
        Self { families: build(None) }
    }

    /// Re-reads every probe into the existing families.  Allocation-free
    /// on the warm path; a lock class registered since the last refresh
    /// appends its points (allocating, rare).
    pub fn refresh(&mut self) {
        walk(&mut self.families, None);
    }

    /// The families (call [`SelfSnapshot::refresh`] first for current
    /// values).
    pub fn families(&self) -> &[FamilySnapshot] {
        &self.families
    }
}

impl Default for SelfSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hist;
    use crate::probes::{self, LOCK_FAMILIES};

    #[test]
    fn layout_expands_histograms_like_the_canonical_form() {
        // A histogram probe is one bucketed point per member, its bounds the
        // log-linear layout's finite ones and one count more for `+Inf`.
        let snap = SelfSnapshot::new();
        let family = snap
            .families()
            .iter()
            .find(|f| f.name == "teemon_scrape_stage_seconds")
            .expect("stage family");
        assert_eq!(family.kind, MetricKind::Histogram);
        let stages: Vec<_> = family.points.iter().filter_map(|p| p.labels.get("stage")).collect();
        assert_eq!(stages, ["collect", "cache_walk", "append"]);
        for point in &family.points {
            let PointValue::Histogram(histogram) = &point.value else { panic!("not a histogram") };
            let bounds: Vec<f64> = (0..hist::BUCKETS - 1).map(hist::bound_seconds).collect();
            assert_eq!(histogram.bounds, bounds);
            assert_eq!(histogram.cumulative_counts.len(), hist::BUCKETS);
            assert_eq!(histogram.cumulative_counts.last().copied(), Some(histogram.count));
        }
    }

    #[test]
    fn a_layer_build_exports_only_that_layer() {
        let http = build(Some("http"));
        assert_eq!(http.len(), PROBES.iter().filter(|p| p.layer == "http").count());
        assert!(http.iter().all(|f| f.name.starts_with("teemon_http_")));
        let locks = build(Some("locks"));
        let names: Vec<&str> = locks.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, LOCK_FAMILIES.map(|(name, _)| name));
    }

    #[test]
    fn refresh_updates_values_without_moving_points() {
        let mut snap = SelfSnapshot::new();
        // The `teemon_lock_*` families are documented to follow the lock
        // class table, which a concurrent test in this binary
        // (`lock_families_track_registered_classes`) grows: they are the one
        // part of the layout a refresh may legitimately extend.
        let layout = |snap: &SelfSnapshot| -> Vec<(String, usize)> {
            snap.families()
                .iter()
                .filter(|f| !f.name.starts_with("teemon_lock_"))
                .map(|f| (f.name.clone(), f.points.len()))
                .collect()
        };
        let before_layout = layout(&snap);
        let find = |snap: &SelfSnapshot, name: &str| -> f64 {
            snap.families()
                .iter()
                .find(|f| f.name == name)
                .and_then(|f| f.points.first())
                .map(|p| p.value.scalar())
                .expect("family with a point")
        };
        let before = find(&snap, "teemon_scrape_cache_hits_total");
        probes::CACHE_HITS.add(3);
        probes::STORAGE_SERIES.set(1234.0);
        snap.refresh();
        // Values moved, structure did not (other tests may also bump probes,
        // so assert monotonically).
        assert!(find(&snap, "teemon_scrape_cache_hits_total") >= before + 3.0);
        assert_eq!(find(&snap, "teemon_tsdb_series"), 1234.0);
        assert_eq!(before_layout, layout(&snap));
    }

    #[test]
    fn lock_families_track_registered_classes() {
        // Registering a class (by constructing a named lock) must surface a
        // labelled point after refresh even though the layout was built
        // earlier.
        let mut snap = SelfSnapshot::new();
        let lock = parking_lot::Mutex::named(0u32, parking_lot::LockClass::new("obs.test_class"));
        *lock.lock() += 1;
        snap.refresh();
        let acquires = snap
            .families()
            .iter()
            .find(|f| f.name == "teemon_lock_acquires_total")
            .expect("acquires family");
        let point = acquires
            .points
            .iter()
            .find(|p| p.labels.get("class") == Some("obs.test_class"))
            .expect("class point after refresh rebuild");
        assert!(point.value.scalar() >= 1.0);
    }
}
