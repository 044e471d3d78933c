//! The allocation-free self-scrape view of the probe table.
//!
//! Nothing here names a metric: `emit_all` interprets [`PROBES`] (the single
//! declaration of every family, in `probes.rs`) and appends the
//! lock-contention [`LOCK_FAMILIES`].
//!
//! [`SelfSnapshot`] holds every probe pre-expanded into scalar
//! [`FamilySnapshot`]s — histograms appear as explicit `_bucket` (with `le`
//! labels), `_sum` and `_count` families, per-shard and per-lock-class
//! probes as labelled points — so the sample stream is byte-identical to
//! what [`FamilySnapshot::for_each_sample`] would produce from the canonical
//! bucketed form, without the per-scrape `le` label allocation that
//! expansion performs.
//!
//! The structure (family names, label sets, point order) is built once;
//! [`SelfSnapshot::refresh`] re-walks the same emission sequence and only
//! overwrites the scalar values in place.  Label closures are never invoked
//! on the refresh path, so a warm refresh performs zero allocations — and
//! because point positions never move between rounds, the scraper's
//! positional target cache verifies on every self-scrape.  The layout is
//! rebuilt (allocating, rare) only when a new lock class registers in the
//! `parking_lot` contention table.

use parking_lot::contention;
use teemon_metrics::{format_bound, FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};

use crate::probes::{LOCK_FAMILIES, PROBES};

/// One emission step: build mode materialises families and points, refresh
/// mode advances cursors and overwrites values.  A family is named
/// `name` + `suffix` (`_bucket`/`_sum`/`_count` for expanded histograms) and
/// `labels` is a thunk, so the refresh path never pays for name or label
/// construction.
trait Emit {
    fn family(&mut self, name: &str, suffix: &str, help: &'static str, kind: MetricKind);
    fn point(&mut self, labels: impl FnOnce() -> Labels, value: f64);
}

/// Build mode: allocates the family/point structure.
struct BuildEmit {
    families: Vec<FamilySnapshot>,
}

impl Emit for BuildEmit {
    fn family(&mut self, name: &str, suffix: &str, help: &'static str, kind: MetricKind) {
        self.families.push(FamilySnapshot::new(format!("{name}{suffix}"), help, kind));
    }

    fn point(&mut self, labels: impl FnOnce() -> Labels, value: f64) {
        if let Some(family) = self.families.last_mut() {
            let value = match family.kind {
                MetricKind::Counter => PointValue::Counter(value),
                MetricKind::Gauge => PointValue::Gauge(value),
                _ => PointValue::Untyped(value),
            };
            family.points.push(MetricPoint::new(labels(), value));
        }
    }
}

/// Refresh mode: walks the already-built structure with a (family, point)
/// cursor and overwrites scalar values only.  Any cursor/shape mismatch
/// (a probe emitted more or fewer points than the built layout) flips
/// `mismatch`, telling the caller to rebuild.
struct RefreshEmit<'a> {
    families: &'a mut [FamilySnapshot],
    family: Option<usize>,
    point: usize,
    mismatch: bool,
}

impl Emit for RefreshEmit<'_> {
    fn family(&mut self, _name: &str, _suffix: &str, _help: &'static str, _kind: MetricKind) {
        let next = self.family.map_or(0, |f| f + 1);
        if let Some(family) = self.family {
            // The previous family must have been walked exactly.
            if self.families.get(family).map(|f| f.points.len()) != Some(self.point) {
                self.mismatch = true;
            }
        }
        self.family = Some(next);
        self.point = 0;
        if next >= self.families.len() {
            self.mismatch = true;
        }
    }

    fn point(&mut self, _labels: impl FnOnce() -> Labels, value: f64) {
        let slot = self
            .family
            .and_then(|f| self.families.get_mut(f))
            .and_then(|family| family.points.get_mut(self.point));
        match slot {
            Some(point) => {
                match &mut point.value {
                    PointValue::Counter(v) | PointValue::Gauge(v) | PointValue::Untyped(v) => {
                        *v = value;
                    }
                    _ => self.mismatch = true,
                }
                self.point += 1;
            }
            None => self.mismatch = true,
        }
    }
}

/// Number of lock classes currently registered in the contention table.
fn lock_class_count() -> usize {
    let mut n = 0usize;
    contention::for_each(&mut |_| n += 1);
    n
}

/// The full emission sequence: [`PROBES`] in table order, then the
/// lock-contention families.  Called with a [`BuildEmit`] to create the
/// layout and a [`RefreshEmit`] to update it.  Histograms are pre-expanded
/// into `_bucket`/`_sum`/`_count` scalar families (cumulative counts, `le`
/// labels via [`format_bound`]) — identical on the wire to the canonical
/// bucketed expansion.
fn emit_all(e: &mut impl Emit) {
    for probe in PROBES {
        let kind = probe.kind();
        if kind != MetricKind::Histogram {
            e.family(probe.name, "", probe.help, kind);
            for (member, slot) in probe.members {
                slot.for_each_value(|shard, value| {
                    e.point(|| probe.labels(member, shard), value);
                });
            }
            continue;
        }
        e.family(probe.name, "_bucket", probe.help, MetricKind::Counter);
        for (member, hist) in probe.hists() {
            hist.for_each_cumulative(&mut |bound, cumulative| {
                e.point(
                    || probe.labels(member, None).with("le", format_bound(bound)),
                    cumulative as f64,
                );
            });
        }
        e.family(probe.name, "_sum", probe.help, MetricKind::Counter);
        for (member, hist) in probe.hists() {
            e.point(|| probe.labels(member, None), hist.sum_ns() as f64 / 1e9);
        }
        e.family(probe.name, "_count", probe.help, MetricKind::Counter);
        for (member, hist) in probe.hists() {
            e.point(|| probe.labels(member, None), hist.count() as f64);
        }
    }

    // One point per registered contention class.
    let [(acquires, acquires_help), (contended, contended_help), (wait, wait_help)] = LOCK_FAMILIES;
    let class_labels =
        |class: &contention::ClassContention| Labels::new().with("class", class.name);
    e.family(acquires, "", acquires_help, MetricKind::Counter);
    contention::for_each(&mut |class| e.point(|| class_labels(class), class.acquires as f64));
    e.family(contended, "", contended_help, MetricKind::Counter);
    contention::for_each(&mut |class| e.point(|| class_labels(class), class.contended as f64));
    e.family(wait, "_bucket", wait_help, MetricKind::Counter);
    contention::for_each(&mut |class| {
        let mut cumulative = 0u64;
        for (i, bucket) in class.wait_buckets.iter().enumerate() {
            cumulative += bucket;
            let bound = if i >= contention::WAIT_BUCKETS - 1 {
                f64::INFINITY
            } else {
                contention::bucket_upper_bound_ns(i) as f64 / 1e9
            };
            e.point(|| class_labels(class).with("le", format_bound(bound)), cumulative as f64);
        }
    });
    e.family(wait, "_sum", wait_help, MetricKind::Counter);
    contention::for_each(&mut |class| {
        e.point(|| class_labels(class), class.wait_ns_sum as f64 / 1e9);
    });
    e.family(wait, "_count", wait_help, MetricKind::Counter);
    contention::for_each(&mut |class| e.point(|| class_labels(class), class.contended as f64));
}

/// The engine's own telemetry, pre-expanded for allocation-free refresh.
///
/// Build one with [`SelfSnapshot::new`], then call
/// [`SelfSnapshot::refresh`] before each read of
/// [`SelfSnapshot::families`].  A warm refresh (no new lock classes since
/// the last build) allocates nothing and keeps every family and point at a
/// stable position.
pub struct SelfSnapshot {
    families: Vec<FamilySnapshot>,
    lock_classes: usize,
}

impl SelfSnapshot {
    /// Builds the expanded family layout from the current probe values.
    pub fn new() -> Self {
        let mut snap = Self { families: Vec::new(), lock_classes: 0 };
        snap.rebuild();
        snap
    }

    fn rebuild(&mut self) {
        self.lock_classes = lock_class_count();
        let mut build = BuildEmit { families: Vec::new() };
        emit_all(&mut build);
        self.families = build.families;
    }

    /// Re-reads every probe into the existing layout.  Allocation-free on
    /// the warm path; rebuilds (allocating) only when the set of registered
    /// lock classes changed or the layout no longer matches.
    pub fn refresh(&mut self) {
        if lock_class_count() != self.lock_classes {
            self.rebuild();
            return;
        }
        let mut refresh =
            RefreshEmit { families: &mut self.families, family: None, point: 0, mismatch: false };
        emit_all(&mut refresh);
        if refresh.mismatch {
            self.rebuild();
        }
    }

    /// The expanded families (call [`SelfSnapshot::refresh`] first for
    /// current values).
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

    use crate::{hist, probes};

    #[test]
    fn layout_expands_histograms_like_the_canonical_form() {
        let snap = SelfSnapshot::new();
        let bucket = snap
            .families()
            .iter()
            .find(|f| f.name == "teemon_scrape_round_seconds_bucket")
            .expect("bucket family");
        assert_eq!(bucket.points.len(), hist::BUCKETS);
        for (i, point) in bucket.points.iter().enumerate() {
            assert_eq!(
                point.labels.get("le").map(str::to_owned),
                Some(format_bound(hist::bound_seconds(i))),
            );
        }
        let last = bucket.points.last().expect("at least one bucket");
        assert_eq!(last.labels.get("le"), Some("+Inf"));
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
