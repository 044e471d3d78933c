//! Property-style guard for the text edge adapter: arbitrary (consistent)
//! `FamilySnapshot` sets must survive `encode_text` → `parse_families`
//! unchanged.  This is what licenses the scraper to treat the text path and
//! the typed path as interchangeable at the edges.
//!
//! One caveat is intentional: a family with zero points only leaves a
//! `# TYPE` line on the wire, which the parser cannot turn back into a
//! family, so generated families always carry at least one point.

use teemon_metrics::exposition::{encode_text, parse_families};
use teemon_metrics::{
    FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint, PointValue, SummarySnapshot,
};

/// The histogram of `observations` over `bounds`, as an exporter reports it.
fn histogram(bounds: &[f64], observations: &[f64]) -> HistogramSnapshot {
    let below = |bound: &f64| observations.iter().filter(|v| *v <= bound).count() as u64;
    let mut cumulative_counts: Vec<u64> = bounds.iter().map(below).collect();
    cumulative_counts.push(observations.len() as u64);
    HistogramSnapshot {
        bounds: bounds.to_vec(),
        cumulative_counts,
        sum: observations.iter().sum(),
        count: observations.len() as u64,
    }
}

/// The median, p90 and p99 (nearest rank) of `observations`.
fn summary(observations: &[f64]) -> SummarySnapshot {
    let mut sorted = observations.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    SummarySnapshot {
        quantiles: [0.5, 0.9, 0.99].map(|q| (q, rank(q))).to_vec(),
        sum: observations.iter().sum(),
        count: observations.len() as u64,
    }
}

fn counters(name: &str, help: &str, points: &[(f64, String, Option<u64>)]) -> FamilySnapshot {
    let mut family = FamilySnapshot::new(name, help, MetricKind::Counter);
    for (value, label, ts) in points {
        let mut point = MetricPoint::new(
            Labels::from_pairs([("syscall", label.clone())]),
            PointValue::Counter(*value),
        );
        point.timestamp_ms = *ts;
        family.points.push(point);
    }
    family
}

proptest::proptest! {
    #[test]
    fn counters_and_gauges_round_trip(
        values in proptest::collection::vec((0.0f64..1e12, "[a-z_]{1,10}", 0u64..3), 1..6),
        gauge_value in -1.0e9f64..1e9,
        help in "[ -~]{0,30}",
        timestamp in 1u64..1_000_000,
    ) {
        let points: Vec<(f64, String, Option<u64>)> = values
            .iter()
            .enumerate()
            .map(|(i, (v, s, t))| {
                // Make label values unique so points stay distinguishable.
                (*v, format!("{s}_{i}"), (*t > 0).then_some(timestamp + *t))
            })
            .collect();
        // HELP text parsing trims leading whitespace; keep the generated help
        // representative but normalised.
        let help = help.trim().to_string();
        let families = vec![
            counters("req_total", &help, &points),
            FamilySnapshot::new("temp_gauge", "a gauge", MetricKind::Gauge).with_point(
                MetricPoint::new(Labels::new(), PointValue::Gauge(gauge_value)),
            ),
        ];
        let text = encode_text(&families);
        let parsed = parse_families(&text).unwrap();
        proptest::prop_assert_eq!(parsed, families);
    }

    #[test]
    fn histograms_and_summaries_round_trip(
        observations in proptest::collection::vec(0.0f64..20.0, 1..40),
        summary_observations in proptest::collection::vec(0.0f64..100.0, 1..25),
        label in "[a-z]{1,6}",
    ) {
        let families = vec![
            FamilySnapshot::new("latency_seconds", "request latency", MetricKind::Histogram)
                .with_point(MetricPoint::new(
                    Labels::from_pairs([("endpoint", label.clone())]),
                    PointValue::Histogram(histogram(&[0.5, 2.0, 10.0], &observations)),
                )),
            FamilySnapshot::new("payload_bytes", "payload sizes", MetricKind::Summary)
                .with_point(MetricPoint::new(
                    Labels::from_pairs([("endpoint", label)]),
                    PointValue::Summary(summary(&summary_observations)),
                )),
        ];
        let text = encode_text(&families);
        let parsed = parse_families(&text).unwrap();
        proptest::prop_assert_eq!(parsed, families);
    }

    #[test]
    fn mixed_label_values_round_trip(
        value in "[ -~]{0,24}",
        count in 1.0f64..1e6,
    ) {
        let mut labels = Labels::new();
        labels.insert("path", value);
        let families = vec![FamilySnapshot::new("files_total", "", MetricKind::Counter)
            .with_point(MetricPoint::new(labels, PointValue::Counter(count)))];
        let parsed = parse_families(&encode_text(&families)).unwrap();
        proptest::prop_assert_eq!(parsed, families);
    }
}

#[test]
fn multi_point_histogram_families_round_trip() {
    let mut family =
        FamilySnapshot::new("queue_depth", "queue depth distribution", MetricKind::Histogram);
    for (node, observations) in [("a", vec![0.1, 0.7]), ("b", vec![5.0, 0.2, 9.0])] {
        family.points.push(MetricPoint::new(
            Labels::from_pairs([("node", node)]),
            PointValue::Histogram(histogram(&[0.5, 1.0, 8.0], &observations)),
        ));
    }
    let families = vec![family];
    let parsed = parse_families(&encode_text(&families)).unwrap();
    assert_eq!(parsed, families);
}

#[test]
fn untyped_samples_survive_without_type_metadata() {
    let text = "plain_metric{x=\"1\"} 3.25 777\n";
    let families = parse_families(text).unwrap();
    assert_eq!(families.len(), 1);
    assert_eq!(families[0].kind, MetricKind::Untyped);
    assert_eq!(families[0].points[0].value, PointValue::Untyped(3.25));
    assert_eq!(families[0].points[0].timestamp_ms, Some(777));
    // Untyped families re-encode and re-parse stably too.
    assert_eq!(parse_families(&encode_text(&families)).unwrap(), families);
}
