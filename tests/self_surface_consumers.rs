//! Ties the built-in consumers of the engine's self-telemetry to what the
//! engine exports.  A panel whose expression names a series nobody writes
//! "renders as an empty panel" and a rule over one never fires, so a probe
//! renamed in `teemon_obs`'s table must fail here instead: every `teemon_*`
//! metric the "Teemon Self" dashboard and the `teemon_self` /
//! `teemon_cardinality` alert packs mention has to be a family of
//! `teemon_obs::PROBES`, a lock-contention family, or the one documented
//! stored roll-up.

use std::collections::BTreeSet;

use teemon_repro::obs::{LOCK_FAMILIES, PROBES};
use teemon_repro::query::{cardinality_alerts, self_observe_alerts, Rule};

/// Written by the scrape edge as an ordinary stored series, not a probe.
const STORED_ROLLUP: &str = "teemon_overflow_series_total";

/// Every `teemon_*` identifier in `text`, with a histogram's
/// `_bucket`/`_sum`/`_count` expansion folded back onto its family name.
fn metric_names(text: &str, into: &mut BTreeSet<String>) {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    for (start, _) in text.match_indices("teemon_") {
        if text[..start].chars().next_back().is_some_and(is_name_char) {
            continue;
        }
        let name: String = text[start..].chars().take_while(|c| is_name_char(*c)).collect();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(&name);
        into.insert(family.to_string());
    }
}

#[test]
fn self_dashboard_and_alert_packs_only_name_exported_families() {
    let mut mentioned = BTreeSet::new();

    let dashboards = teemon_repro::dashboard::standard();
    let own = dashboards.get("Teemon Self").expect("the self dashboard is built in");
    for panel in &own.panels {
        let mut names = BTreeSet::new();
        metric_names(&panel.expr, &mut names);
        // The scan must find what it is there to check.
        assert!(!names.is_empty(), "panel `{}` names no teemon_* metric", panel.title);
        mentioned.append(&mut names);
    }

    for group in [self_observe_alerts(5_000), cardinality_alerts(5_000)] {
        for rule in &group.rules {
            let Rule::Alert(alert) = rule else { continue };
            let mut names = BTreeSet::new();
            metric_names(&alert.expr.to_string(), &mut names);
            assert!(!names.is_empty(), "rule `{}` names no teemon_* metric", alert.name);
            mentioned.append(&mut names);
        }
    }

    let exported: BTreeSet<&str> = PROBES
        .iter()
        .map(|probe| probe.name)
        .chain(LOCK_FAMILIES.map(|(name, _)| name))
        .chain([STORED_ROLLUP])
        .collect();
    let unknown: Vec<&String> =
        mentioned.iter().filter(|name| !exported.contains(name.as_str())).collect();
    assert!(unknown.is_empty(), "consumers name metrics nothing exports: {unknown:?}");
}
