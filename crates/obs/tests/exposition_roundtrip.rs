//! Property guard for the self-telemetry exposition path: log-linear probe
//! histograms rendered through the canonical text format must parse back
//! into the exact same bucketed families.  This licenses scraping a
//! `teemon self` endpoint over the text edge (or scraping one monitor's
//! self-metrics from another) without losing bucket fidelity.

use teemon_metrics::exposition::{encode_text, parse_families};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_obs::hist::LogLinearHist;
use teemon_obs::snapshot;

proptest::proptest! {
    #[test]
    fn log_linear_histograms_round_trip_through_text(
        durations in proptest::collection::vec(1u64..u64::MAX / 2, 1..200),
        label in "[a-z]{1,8}",
    ) {
        let hist = LogLinearHist::new();
        for ns in &durations {
            hist.record_ns(*ns);
        }
        let family = FamilySnapshot::new(
            "teemon_test_seconds",
            "round trip fixture",
            MetricKind::Histogram,
        )
        .with_point(MetricPoint::new(
            Labels::from_pairs([("stage", label)]),
            PointValue::Histogram(hist.snapshot()),
        ));
        let families = vec![family];
        let text = encode_text(&families);
        let parsed = parse_families(&text).unwrap();
        proptest::prop_assert_eq!(&parsed, &families);
        // The parsed histogram must preserve the exact count.
        let total = durations.len() as u64;
        match &parsed[0].points[0].value {
            PointValue::Histogram(h) => {
                proptest::prop_assert_eq!(h.count, total);
                proptest::prop_assert_eq!(
                    h.cumulative_counts.last().copied().unwrap_or(0),
                    total
                );
            }
            other => proptest::prop_assert!(false, "not a histogram: {:?}", other),
        }
    }
}

#[test]
fn collector_families_survive_the_text_edge() {
    // The whole self-telemetry surface (histograms included) must encode and
    // parse back unchanged — this is an end-to-end guard over every probe.
    // A family with zero points only leaves a `# TYPE` line on the wire
    // (the documented parser caveat), so make sure the lock families have at
    // least one class registered.
    let lock = parking_lot::Mutex::named(0u8, parking_lot::LockClass::new("obs.roundtrip_test"));
    *lock.lock() += 1;
    let families = snapshot::build(None);
    let text = encode_text(&families);
    let parsed = parse_families(&text).expect("rendered exposition parses");
    // Parsing sorts/folds by name; compare as (name → family) maps.
    for family in &families {
        let back = parsed
            .iter()
            .find(|f| f.name == family.name)
            .unwrap_or_else(|| panic!("family {} lost on the wire", family.name));
        assert_eq!(back.kind, family.kind, "kind drift for {}", family.name);
        assert_eq!(back.points.len(), family.points.len(), "points drift for {}", family.name);
    }
}
