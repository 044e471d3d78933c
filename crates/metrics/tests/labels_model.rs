//! Model check of the packed [`Labels`] representation against the
//! `BTreeMap<String, String>` it replaced: random operation sequences run on
//! both, and after every step the packed set must agree with the map on
//! content, iteration order, `Eq`, `Ord` and `Hash`, and must round-trip
//! through serde as a JSON object.  The pools deliberately hold what the
//! offset table has to get right: empty names and values, multi-byte UTF-8,
//! and values far longer than anything an exporter emits — one of them past
//! the `u16` offsets of the inline table, which also stops at six labels, so
//! the sequences cross the inline/heap boundary in both directions.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use teemon_metrics::{is_valid_label_name, Labels, MetricError};

type Model = BTreeMap<String, String>;

/// The first seven names are valid label names; the rest are not and can
/// only enter a set through the unvalidated `insert`/`with`.
const NAMES: &[&str] =
    &["a", "b", "job", "instance", "le", "zz", "_x", "", "ключ", "a b", "__name__", "naïve"];
const VALID_NAMES: usize = 7;

fn values() -> Vec<String> {
    let mut values: Vec<String> =
        ["", "1", "x", "node-1:9100", "ünïcødé✓", "a\"b\\c\nd", "日本語", "{}=,"]
            .iter()
            .map(|v| v.to_string())
            .collect();
    values.push("v".repeat(16 * 1024));
    // Short values again, so that the one past `u16` is a rare pick.
    values.extend((0..10).map(|i| format!("v{i}")));
    values.push("w".repeat(70 * 1024));
    values
}

fn hash_of(labels: &Labels) -> u64 {
    let mut hasher = DefaultHasher::new();
    labels.hash(&mut hasher);
    hasher.finish()
}

fn from_model(model: &Model) -> Labels {
    // Reverse insertion order: the packed form must be canonical whatever
    // order the pairs arrived in.
    let mut labels = Labels::new();
    for (k, v) in model.iter().rev() {
        labels.insert(k.clone(), v.clone());
    }
    labels
}

/// The canonical-form half of [`assert_agrees`], cheap enough to run after
/// every single insert and remove of a boundary crossing.
fn assert_canonical(labels: &Labels, model: &Model) {
    let rebuilt = from_model(model);
    assert_eq!(labels, &rebuilt, "equal content, equal representation");
    assert_eq!(hash_of(labels), hash_of(&rebuilt));
    assert!(labels.matches(&rebuilt) && rebuilt.matches(labels));
    // The borrowed constructor lands on the same representation from sorted
    // pairs (its one-allocation path), from reversed ones, and from pairs
    // that repeat a name with a value that loses.  (Like `from_pairs`, it is
    // for names the program wrote: it debug-asserts them valid.)
    if !model.keys().all(|name| is_valid_label_name(name)) {
        return;
    }
    let pairs: Vec<(&str, &str)> = model.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(labels, &Labels::from_str_pairs(pairs.iter().copied()));
    assert_eq!(labels, &Labels::from_str_pairs(pairs.iter().rev().copied()));
    let stale = pairs.iter().map(|&(k, _)| (k, "stale")).chain(pairs.iter().copied());
    assert_eq!(labels, &Labels::from_str_pairs(stale));
}

fn assert_agrees(labels: &Labels, model: &Model) {
    assert_eq!(labels.len(), model.len());
    assert_eq!(labels.is_empty(), model.is_empty());
    let pairs: Vec<(&str, &str)> = labels.iter().collect();
    let expected: Vec<(&str, &str)> = model.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(pairs, expected, "iteration is the map's sorted order");
    for name in NAMES {
        assert_eq!(labels.get(name), model.get(*name).map(String::as_str), "get({name:?})");
    }
    assert_canonical(labels, model);
}

/// Serde keeps the JSON-object shape the map had.  (Sets holding the value
/// past `u16` sit this out: the vendored JSON shim reads a string of that
/// length in quadratic time, and the shape does not depend on it.)
fn assert_serde_round_trips(labels: &Labels, model: &Model) {
    if model.values().any(|v| v.len() > usize::from(u16::MAX)) {
        return;
    }
    let json = serde_json::to_string(labels).unwrap();
    assert_eq!(json, serde_json::to_string(model).unwrap());
    assert_eq!(&serde_json::from_str::<Labels>(&json).unwrap(), labels);
}

fn assert_related_like_models(a: &Labels, ma: &Model, b: &Labels, mb: &Model) {
    assert_eq!(a == b, ma == mb);
    assert_eq!(a.cmp(b), ma.cmp(mb), "Ord is the map's lexicographic (name, value) order");
    assert_eq!(a.partial_cmp(b), ma.partial_cmp(mb));
    if ma == mb {
        assert_eq!(hash_of(a), hash_of(b));
    }
}

proptest::proptest! {
    #[test]
    fn packed_labels_behave_like_the_btreemap_they_replaced(
        ops in proptest::collection::vec((0u8..9, 0usize..1000, 0usize..1000), 1..60),
    ) {
        let values = values();
        let pick = |k: usize, v: usize| (NAMES[k % NAMES.len()], values[v % values.len()].as_str());
        let mut labels = Labels::new();
        let mut model = Model::new();
        let mut previous = (labels.clone(), model.clone());
        for (step, (op, k, v)) in ops.iter().copied().enumerate() {
            let (name, value) = pick(k, v);
            match op {
                0 => {
                    // insert: new name or replacement, any position.
                    labels.insert(name, value);
                    model.insert(name.to_string(), value.to_string());
                }
                1 => {
                    assert_eq!(labels.remove(name), model.remove(name));
                }
                2 => {
                    let before = labels.clone();
                    let derived = labels.with(name, value);
                    assert_eq!(labels, before, "with() leaves the receiver alone");
                    labels = derived;
                    model.insert(name.to_string(), value.to_string());
                }
                3 => {
                    // merged: the argument wins on conflict.
                    let mut other = Labels::new();
                    let mut other_model = Model::new();
                    for i in 0..(v % 4) {
                        let (n, val) = pick(k + i * 5, v + i);
                        other.insert(n, val);
                        other_model.insert(n.to_string(), val.to_string());
                    }
                    labels = labels.merged(&other);
                    model.extend(other_model);
                }
                4 => {
                    // from_pairs (and FromIterator): valid names only, in
                    // arbitrary order, duplicates resolved last-wins.
                    let pairs: Vec<(&str, &str)> = (0..(v % 6))
                        .map(|i| (NAMES[(k + i * 3) % VALID_NAMES], values[(v + i) % values.len()].as_str()))
                        .collect();
                    labels = Labels::from_pairs(pairs.iter().copied());
                    assert_eq!(labels, pairs.iter().copied().collect::<Labels>());
                    model = pairs.iter().map(|(n, val)| (n.to_string(), val.to_string())).collect();
                }
                5 => {
                    // try_from_pairs: any names; the first invalid one fails it.
                    let pairs: Vec<(&str, &str)> = (0..(v % 5)).map(|i| pick(k + i * 7, v + i)).collect();
                    let built = Labels::try_from_pairs(pairs.iter().copied());
                    match pairs.iter().find(|(n, _)| !is_valid_label_name(n)) {
                        Some((bad, _)) => {
                            assert_eq!(built, Err(MetricError::InvalidLabelName(bad.to_string())));
                        }
                        None => {
                            labels = built.unwrap();
                            model = pairs.iter().map(|(n, val)| (n.to_string(), val.to_string())).collect();
                        }
                    }
                }
                6 => {
                    // Fill to at least seven labels: the offset table leaves
                    // its inline form.
                    for i in 0..7 {
                        let (n, val) = pick(k + i, v + i);
                        labels.insert(n, val);
                        model.insert(n.to_string(), val.to_string());
                        assert_canonical(&labels, &model);
                    }
                }
                7 => {
                    // Drain back to six or fewer: it has to return to it.
                    while model.len() > (v % 7) {
                        let name = model.keys().nth(k % model.len()).unwrap().clone();
                        assert_eq!(labels.remove(&name), model.remove(&name));
                        assert_canonical(&labels, &model);
                    }
                }
                _ => {
                    let copy = labels.clone();
                    assert_eq!(copy, labels);
                    assert_eq!(hash_of(&copy), hash_of(&labels));
                    labels = copy;
                }
            }
            assert_agrees(&labels, &model);
            assert_related_like_models(&labels, &model, &previous.0, &previous.1);
            assert_related_like_models(&previous.0, &previous.1, &labels, &model);
            if step % 3 == 0 {
                previous = (labels.clone(), model.clone());
                assert_serde_round_trips(&labels, &model);
            }
        }
        assert_serde_round_trips(&labels, &model);
    }
}

#[test]
fn debug_and_display_match_the_map_newtype() {
    let labels = Labels::from_pairs([("b", "2"), ("a", "1\"q")]);
    assert_eq!(format!("{labels:?}"), r#"Labels({"a": "1\"q", "b": "2"})"#);
    assert_eq!(labels.to_string(), r#"{a="1\"q",b="2"}"#);
    assert_eq!(format!("{:?}", Labels::new()), "Labels({})");
}
