//! Pins the self-telemetry wire surface: every sample identity and, per
//! family in export order, the name, kind and point count of the probe
//! table's families must match `golden/self_surface.txt` byte for byte —
//! and [`SelfSnapshot`], the in-place form the self-scrape refreshes, must
//! hold exactly the layout [`snapshot::build`] gives `/self/metrics`.
//! Dashboards, alert rules and the scraper's positional cache all key on
//! this surface; a change to it must be deliberate and show up as a diff of
//! the golden file.
//!
//! The `teemon_lock_*` families are left out: their points follow the
//! `parking_lot` shim's runtime contention table, which depends on which
//! named locks the process has constructed.

use std::fmt::Write;

use teemon_metrics::FamilySnapshot;
use teemon_obs::{snapshot, SelfSnapshot};

const GOLDEN: &str = include_str!("golden/self_surface.txt");

fn is_lock_family(family: &FamilySnapshot) -> bool {
    family.name.starts_with("teemon_lock_")
}

/// Sorted `name{k="v",…}` identities of every sample the families expand to.
fn identities(families: &[FamilySnapshot]) -> Vec<String> {
    let mut out = Vec::new();
    for family in families.iter().filter(|f| !is_lock_family(f)) {
        family.for_each_sample(|name, labels, _value, _ts| {
            let mut pairs: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            pairs.sort();
            let mut row = name.to_string();
            if !pairs.is_empty() {
                write!(row, "{{{}}}", pairs.join(",")).expect("writing to a String");
            }
            out.push(row);
        });
    }
    out.sort();
    out
}

/// `name kind points` per family, in export order.
fn layout(out: &mut String, families: &[FamilySnapshot]) {
    for family in families.iter().filter(|f| !is_lock_family(f)) {
        writeln!(out, "{} {} {}", family.name, family.kind.as_str(), family.points.len())
            .expect("writing to a String");
    }
}

fn render() -> String {
    let collected = snapshot::build(None);
    let snapshot = SelfSnapshot::new();
    let (mut collected_layout, mut snapshot_layout) = (String::new(), String::new());
    layout(&mut collected_layout, &collected);
    layout(&mut snapshot_layout, snapshot.families());
    assert_eq!(snapshot_layout, collected_layout, "SelfSnapshot holds the built families");
    let mut out = String::from("# sample identities, sorted (both views expand to this set)\n");
    for row in identities(&collected) {
        out.push_str(&row);
        out.push('\n');
    }
    // The built families' section; its header keeps the golden file's
    // wording, which names the type that built them before `build` did.
    out.push_str("# ObsCollector families in export order: name kind points\n");
    out.push_str(&collected_layout);
    out
}

#[test]
fn both_views_match_the_golden_surface() {
    let rendered = render();
    if rendered != GOLDEN {
        let diff: Vec<String> = rendered
            .lines()
            .zip(GOLDEN.lines())
            .enumerate()
            .filter(|(_, (got, want))| got != want)
            .take(10)
            .map(|(i, (got, want))| format!("line {}: got `{got}`, golden `{want}`", i + 1))
            .collect();
        panic!(
            "self-telemetry surface drifted from tests/golden/self_surface.txt \
             ({} lines rendered, {} golden):\n{}",
            rendered.lines().count(),
            GOLDEN.lines().count(),
            diff.join("\n")
        );
    }
}
