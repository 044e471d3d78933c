//! The root `BENCH_*.json` files are what the criterion shim writes: one per
//! `[[bench]]` target of this crate, nothing else, each in the shim's one
//! schema.  A file typed by hand, left behind by a deleted target or copied
//! from an older layout fails here.

use std::collections::BTreeSet;
use std::path::Path;

use serde_json::Value;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace root: where the shim writes (the nearest `Cargo.lock`).
fn root() -> &'static Path {
    manifest_dir().ancestors().find(|dir| dir.join("Cargo.lock").is_file()).expect("workspace root")
}

/// The `name`s of this crate's `[[bench]]` tables.
fn bench_targets() -> BTreeSet<String> {
    let manifest = std::fs::read_to_string(manifest_dir().join("Cargo.toml")).expect("manifest");
    let mut targets = BTreeSet::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bench) {
            targets.insert(name.trim_matches('"').to_string());
        }
    }
    targets
}

/// The targets the root's `BENCH_<target>.json` files are named after.
fn bench_files() -> BTreeSet<String> {
    std::fs::read_dir(root())
        .expect("read the workspace root")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter_map(|name| Some(name.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
        .collect()
}

#[test]
fn one_result_file_per_bench_target() {
    let targets = bench_targets();
    assert_eq!(targets.len(), 6, "{targets:?}");
    assert_eq!(bench_files(), targets);
}

#[test]
fn every_result_file_is_in_the_shims_schema() {
    for target in bench_files() {
        let path = root().join(format!("BENCH_{target}.json"));
        let text = std::fs::read_to_string(&path).expect("read result file");
        let file: Value = serde_json::from_str(&text).expect("result file parses");
        let fields = file.as_object().unwrap_or_else(|| panic!("{target}: not an object"));
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["bench", "command", "cpus", "results_us"], "{target}");
        assert_eq!(file.get("bench").and_then(Value::as_str), Some(target.as_str()));
        let command = format!("cargo bench -p teemon-bench --bench {target}");
        assert_eq!(file.get("command").and_then(Value::as_str), Some(command.as_str()));
        let cpus = file.get("cpus").and_then(Value::as_f64).expect("cpus is a number");
        assert!(cpus >= 1.0 && cpus.fract() == 0.0, "{target}: cpus {cpus}");
        let rows = file.get("results_us").and_then(Value::as_object).expect("results_us");
        assert!(!rows.is_empty(), "{target}: no rows");
        for (row, stats) in rows {
            let stat = |name| {
                stats.get(name).and_then(Value::as_f64).unwrap_or_else(|| panic!("{row}: {name}"))
            };
            let keys: Vec<&str> =
                stats.as_object().expect("row").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["min", "mean", "max"], "{target}: {row}");
            let (min, mean, max) = (stat("min"), stat("mean"), stat("max"));
            assert!(0.0 <= min && min <= mean && mean <= max, "{target}: {row} {min} {mean} {max}");
        }
    }
}
