//! The inverted index: postings lists from metric name and `(label, value)`
//! pairs to series, plus the compiled form of a [`Selector`].
//!
//! Each lock shard maintains one [`Postings`] over its own series: **two
//! maps**, metric name → series and `(label key, label value)` → series, so
//! a series costs one entry for its name and one per label.  Series are
//! registered in creation order, so every postings list is sorted and
//! selection is a sorted-list intersection over the lists the selector's
//! name and `=` matchers name — cost proportional to the smallest postings
//! list touched, not to the total number of series (the way Prometheus' head
//! index answers matchers).
//!
//! A list of one series lives in its map slot and owns no heap block: that
//! is every `pod`, request-id or other per-instance label value, two lists a
//! series on the churn workloads.  A second series under the same key
//! promotes the list to a `Vec`.
//!
//! [`crate::StorageStats::index_bytes`] is a **model** — 16 bytes an entry,
//! 48 a list — kept as it was because the end-to-end benchmark's
//! `mem_bytes_per_sample` is defined on it.  What the heap holds
//! (`tests/heap_ledger.rs` measures it): 4 bytes an entry of a list of
//! several, at up to twice that in `Vec` slack, and 33 bytes a list — key,
//! list, control byte — at the map's load of 7/16 to 7/8, so 38 to 75.
//!
//! `Exists` and `!=` matchers have no list of their own.  They are checked
//! per candidate against the series' own label symbols, after the
//! intersection, and a selector that carries neither a name nor an equality
//! starts from every series of the shard ([`Candidates::All`]).  That is a
//! deliberate trade: a label-key → series map would hold one more entry per
//! label per series — close to half of all postings entries, resident for as
//! long as the series lives — to serve matchers that no dashboard panel,
//! recording rule, example or benchmark workload issues, and only two of
//! PMAN's alert rules do, each beside a metric name.  With a name or an
//! equality in the selector (every shape the parser's users write) the
//! post-filter walks a list that is already short; without one,
//! `{k!=""}` is a shard scan, as `{}` already is.
//!
//! [`Selector`]: crate::query::Selector

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

use crate::query::{LabelMatch, Selector};
use crate::symbols::{SymbolId, SymbolTable};

/// One postings list: shard-local series indices, ascending.  A list of one
/// series — what every per-pod / per-request-id label value produces, two a
/// series on the churn workloads — lives in its map slot; only a second
/// series under the same key buys the list a heap block.
#[derive(Debug)]
enum PostingsList {
    One(u32),
    Many(Vec<u32>),
}

impl PostingsList {
    fn as_slice(&self) -> &[u32] {
        match self {
            PostingsList::One(local) => std::slice::from_ref(local),
            PostingsList::Many(locals) => locals,
        }
    }

    /// Appends `local`, greater than every index the list holds.
    fn push(&mut self, local: u32) {
        match self {
            PostingsList::One(first) => *self = PostingsList::Many(vec![*first, local]),
            PostingsList::Many(locals) => locals.push(local),
        }
    }
}

/// Per-shard postings lists.  All lists hold shard-local series indices in
/// ascending order.
#[derive(Debug, Default)]
pub(crate) struct Postings {
    /// Metric name → series.
    names: HashMap<SymbolId, PostingsList>,
    /// `(label key, label value)` → series.
    pairs: HashMap<(SymbolId, SymbolId), PostingsList>,
    /// Modelled resident bytes, maintained incrementally on register.
    /// Rebuilds (retention, drop_series reindex) start from `default()`, so
    /// the figure — and the maps' capacity — tracks the live index, not its
    /// high-water mark.
    bytes: usize,
}

/// Modelled cost of one postings entry — a series under its name, or under
/// one of its `(label, value)` pairs: the `u32` plus amortised map/list
/// overhead.  Coarse on purpose — the gauge exists to expose *growth*, and
/// entry count is what grows with cardinality.  (What the heap holds,
/// measured by `tests/heap_ledger.rs`: 4 bytes an entry at up to twice that
/// in `Vec` slack for a list of several, nothing for a list of one.)
const POSTING_ENTRY_BYTES: usize = 16;
/// Modelled cost of a new postings list in either map (map key + list
/// header).  (Measured: a 33-byte slot — key, [`PostingsList`], control byte
/// — at the map's load factor of 7/16 to 7/8, so 38 to 75 bytes.)
const POSTING_LIST_BYTES: usize = 48;

impl Postings {
    /// Registers a new series under its name and every label pair.  `local`
    /// must be greater than every previously registered index so the lists
    /// stay sorted.
    pub(crate) fn register(&mut self, local: u32, name: SymbolId, labels: &[(SymbolId, SymbolId)]) {
        self.bytes += Self::list_cost(&mut self.names, name, local);
        for &(key, value) in labels {
            self.bytes += Self::list_cost(&mut self.pairs, (key, value), local);
        }
    }

    /// Modelled resident bytes of this shard's postings lists: one entry
    /// per series in `names`, one per label of every series in `pairs`.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    fn list_cost<K: Eq + Hash>(map: &mut HashMap<K, PostingsList>, key: K, local: u32) -> usize {
        match map.entry(key) {
            Entry::Occupied(mut list) => {
                list.get_mut().push(local);
                POSTING_ENTRY_BYTES
            }
            Entry::Vacant(slot) => {
                slot.insert(PostingsList::One(local));
                POSTING_ENTRY_BYTES + POSTING_LIST_BYTES
            }
        }
    }

    fn name_list(&self, name: SymbolId) -> Option<&[u32]> {
        self.names.get(&name).map(PostingsList::as_slice)
    }

    fn pair_list(&self, key: SymbolId, value: SymbolId) -> Option<&[u32]> {
        self.pairs.get(&(key, value)).map(PostingsList::as_slice)
    }
}

/// A [`Selector`] compiled against the symbol table.
///
/// Compilation resolves every string the selector mentions to its symbol
/// once, before any shard lock is taken.  A selector that names a string the
/// database has never interned can match nothing, which short-circuits the
/// whole query ([`SelectorPlan::Nothing`]).
#[derive(Debug)]
pub(crate) enum SelectorPlan {
    /// The selector cannot match any series in this database.
    Nothing,
    /// Intersect the postings lists, then post-filter.
    Filtered {
        /// Required metric name.
        name: Option<SymbolId>,
        /// `label == value` matchers (pure postings intersection).
        eq: Vec<(SymbolId, SymbolId)>,
        /// `label` must exist: checked per candidate.
        exists: Vec<SymbolId>,
        /// `label != value` matchers — the label must exist with another
        /// value: checked per candidate.
        neq: Vec<(SymbolId, SymbolId)>,
    },
}

impl SelectorPlan {
    /// Compiles `selector` against `symbols`.
    pub(crate) fn compile(selector: &Selector, symbols: &SymbolTable) -> Self {
        let name = match &selector.name {
            Some(n) => match symbols.get(n) {
                Some(sym) => Some(sym),
                None => return SelectorPlan::Nothing,
            },
            None => None,
        };
        let mut eq = Vec::new();
        let mut exists = Vec::new();
        let mut neq = Vec::new();
        for matcher in &selector.matchers {
            match matcher {
                LabelMatch::Equals(k, v) => match (symbols.get(k), symbols.get(v)) {
                    (Some(k), Some(v)) => eq.push((k, v)),
                    // A never-interned key or value cannot be present.
                    _ => return SelectorPlan::Nothing,
                },
                LabelMatch::Exists(k) => match symbols.get(k) {
                    Some(k) => exists.push(k),
                    None => return SelectorPlan::Nothing,
                },
                LabelMatch::NotEquals(k, v) => match symbols.get(k) {
                    // A never-interned value differs from every stored value,
                    // so the matcher degenerates to existence of the key.
                    Some(k) => match symbols.get(v) {
                        Some(v) => neq.push((k, v)),
                        None => exists.push(k),
                    },
                    None => return SelectorPlan::Nothing,
                },
            }
        }
        SelectorPlan::Filtered { name, eq, exists, neq }
    }

    /// Shard-local candidate series for this plan among a shard's `series`:
    /// the intersection of the name's and every `=` matcher's postings list,
    /// walked where the lists lie.  `Exists` and `NotEquals` matchers are NOT
    /// applied here; the caller post-filters with
    /// [`SelectorPlan::post_filters`].
    pub(crate) fn candidates<'a>(&self, postings: &'a Postings, series: u32) -> Candidates<'a> {
        let SelectorPlan::Filtered { name, eq, .. } = self else { return Candidates::All(0..0) };
        let name = name.map(|name| postings.name_list(name));
        let mut lists = name.into_iter().chain(eq.iter().map(|&(k, v)| postings.pair_list(k, v)));
        // A matcher whose postings list is absent in this shard matches
        // nothing here.
        let Some(first) = lists.next() else { return Candidates::All(0..series) };
        let Some(mut smallest) = first else { return Candidates::All(0..0) };
        let mut others = Vec::new();
        for list in lists {
            let Some(mut list) = list else { return Candidates::All(0..0) };
            if list.len() < smallest.len() {
                std::mem::swap(&mut list, &mut smallest);
            }
            others.push(list);
        }
        others.sort_unstable_by_key(|list| list.len());
        Candidates::Postings { walk: smallest.iter(), others }
    }

    /// What the caller checks per candidate series: the keys it must carry,
    /// and the `(key, value)` pairs whose key it must carry with a
    /// *different* value.
    pub(crate) fn post_filters(&self) -> (&[SymbolId], &[(SymbolId, SymbolId)]) {
        match self {
            SelectorPlan::Filtered { exists, neq, .. } => (exists, neq),
            SelectorPlan::Nothing => (&[], &[]),
        }
    }
}

/// The series of one shard a compiled selector may match, as shard-local
/// indices in ascending order, walked where the postings lists lie.
#[derive(Debug)]
pub(crate) enum Candidates<'a> {
    /// Every series in the shard, where no postings list constrains the plan
    /// (it carries neither a name nor an equality) — or none, where a list
    /// it names is absent.
    All(std::ops::Range<u32>),
    /// The indices of the smallest list that every other list holds too,
    /// found by binary search, smallest list first: the work is bounded by
    /// the most selective matcher, and `others` is the one allocation a
    /// selection makes in a shard, where it names more than one list.
    Postings { walk: std::slice::Iter<'a, u32>, others: Vec<&'a [u32]> },
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Candidates::All(range) => range.next(),
            Candidates::Postings { walk, others } => {
                walk.by_ref().copied().find(|id| others.iter().all(|l| l.binary_search(id).is_ok()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::selection::{intersection, matches};
    use super::*;
    use teemon_metrics::Labels;

    fn table_with(strings: &[&str]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for s in strings {
            table.intern(s);
        }
        table
    }

    #[test]
    fn walked_intersections_are_sorted_and_minimal() {
        // Series 0..10 under `up`, with `a="1"` on the evens below ten,
        // `b="1"` on 2, 3, 4, 8, 9 and `c="1"` on 4 and 8.
        let mut table = SymbolTable::default();
        let [up, a, b, c, one] = ["up", "a", "b", "c", "1"].map(|s| table.intern(s));
        table.intern("x");
        let mut postings = Postings::default();
        for local in 0..10u32 {
            let labels = [
                (a, local % 2 == 0),
                (b, [2, 3, 4, 8, 9].contains(&local)),
                (c, local % 4 == 0 && local > 0),
            ];
            let labels: Vec<_> =
                labels.iter().filter(|l| l.1).map(|&(key, _)| (key, one)).collect();
            postings.register(local, up, &labels);
        }
        let walk = |selector: Selector| {
            SelectorPlan::compile(&selector, &table).candidates(&postings, 10).collect::<Vec<_>>()
        };
        let all = Selector::metric("up");
        let abc = all.clone().with_label("a", "1").with_label("b", "1").with_label("c", "1");
        assert_eq!(walk(abc.clone()), [4, 8]);
        assert_eq!(walk(abc.with_label("x", "1")), [], "a list this shard does not hold");
        assert_eq!(walk(all.clone().with_label("b", "1").with_label("a", "1")), [2, 4, 8]);
        assert_eq!(walk(all.with_label("a", "1")), [0, 2, 4, 6, 8]);
        assert_eq!(walk(Selector::all()), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_strings_compile_to_nothing() {
        let table = table_with(&["up", "node", "n1"]);
        assert!(matches!(
            SelectorPlan::compile(&Selector::metric("missing"), &table),
            SelectorPlan::Nothing
        ));
        assert!(matches!(
            SelectorPlan::compile(&Selector::metric("up").with_label("node", "unseen"), &table),
            SelectorPlan::Nothing
        ));
        assert!(matches!(
            SelectorPlan::compile(&Selector::all().with_label_present("pod"), &table),
            SelectorPlan::Nothing
        ));
    }

    #[test]
    fn unknown_not_equals_value_degenerates_to_exists() {
        let table = table_with(&["node"]);
        let plan =
            SelectorPlan::compile(&Selector::all().without_label_value("node", "unseen"), &table);
        match plan {
            SelectorPlan::Filtered { exists, neq, .. } => {
                assert_eq!(exists.len(), 1);
                assert!(neq.is_empty());
            }
            SelectorPlan::Nothing => panic!("plan must stay satisfiable"),
        }
    }

    #[test]
    fn postings_drive_candidates() {
        let mut table = SymbolTable::default();
        let up = table.intern("up");
        let node = table.intern("node");
        let n1 = table.intern("n1");
        let n2 = table.intern("n2");
        let mut postings = Postings::default();
        postings.register(0, up, &[(node, n1)]);
        postings.register(1, up, &[(node, n2)]);

        let plan = SelectorPlan::compile(&Selector::metric("up").with_label("node", "n2"), &table);
        assert_eq!(plan.candidates(&postings, 2).collect::<Vec<_>>(), [1]);
        let all = SelectorPlan::compile(&Selector::all(), &table);
        assert!(matches!(all.candidates(&postings, 2), Candidates::All(range) if range == (0..2)));
        // A name or pair absent from this shard's postings matches nothing
        // here.
        let other_shard = SelectorPlan::compile(&Selector::metric("up"), &table);
        assert_eq!(other_shard.candidates(&Postings::default(), 0).count(), 0);
    }

    #[test]
    fn a_list_of_one_lives_in_its_map_slot() {
        let mut table = SymbolTable::default();
        let up = table.intern("up");
        let pod = table.intern("pod");
        let pods: Vec<SymbolId> = (0..3).map(|i| table.intern(&format!("p{i}"))).collect();
        let mut postings = Postings::default();
        for (local, &value) in pods.iter().enumerate() {
            postings.register(local as u32, up, &[(pod, value)]);
        }
        // One series a pod: no list of theirs owns a heap block, and a slot
        // is no wider for it than a `Vec`'s header.
        assert!(postings.pairs.values().all(|list| matches!(list, PostingsList::One(_))));
        assert!(size_of::<PostingsList>() <= size_of::<Vec<u32>>());
        assert_eq!(postings.pair_list(pod, pods[1]), Some(&[1][..]));
        // The name's list grew past one in registration order.
        assert_eq!(postings.name_list(up), Some(&[0, 1, 2][..]));
        // A pod's second series promotes its list, ascending still.
        postings.register(3, up, &[(pod, pods[1])]);
        assert_eq!(postings.pair_list(pod, pods[1]), Some(&[1, 3][..]));
        let plan = SelectorPlan::compile(&Selector::metric("up").with_label("pod", "p1"), &table);
        assert_eq!(plan.candidates(&postings, 4).collect::<Vec<_>>(), [1, 3]);
        // The model counts entries and lists as it always did.
        assert_eq!(postings.bytes(), 8 * POSTING_ENTRY_BYTES + 4 * POSTING_LIST_BYTES);
    }

    #[test]
    fn exists_and_not_equals_constrain_no_postings_list() {
        let mut table = SymbolTable::default();
        let up = table.intern("up");
        let node = table.intern("node");
        let n1 = table.intern("n1");
        let pod = table.intern("pod");
        let p1 = table.intern("p1");
        let mut postings = Postings::default();
        postings.register(0, up, &[(node, n1)]);
        postings.register(1, up, &[(node, n1), (pod, p1)]);
        // One entry per name and one per label: no third map.
        assert_eq!(postings.bytes(), 5 * POSTING_ENTRY_BYTES + 3 * POSTING_LIST_BYTES);

        // Only `exists` / `!=`: every series of the shard is a candidate and
        // the matchers are handed to the caller.
        let only_filters = SelectorPlan::compile(
            &Selector::all().with_label_present("pod").without_label_value("node", "n1"),
            &table,
        );
        assert_eq!(only_filters.candidates(&postings, 2).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(only_filters.post_filters(), (&[pod][..], &[(node, n1)][..]));

        // A name plus `exists`: the name's list, untouched by the matcher.
        let named =
            SelectorPlan::compile(&Selector::metric("up").with_label_present("pod"), &table);
        assert_eq!(named.candidates(&postings, 2).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(named.post_filters(), (&[pod][..], &[][..]));
    }

    #[test]
    fn exists_on_a_key_this_shard_never_saw_matches_nothing_there() {
        // Two series in two shards, one of them carrying `pod`: the key is
        // interned database-wide, so the plan stays satisfiable, and the
        // shard without it answers from the post-filter alone.
        let db = crate::TimeSeriesDb::new();
        db.resolve("carrier", &teemon_metrics::Labels::from_pairs([("pod", "p1")]));
        let home = db.census().shard_series.iter().position(|&n| n == 1).expect("one series");
        let bare = teemon_metrics::Labels::new();
        let other = (0..64)
            .map(|i| format!("bare_{i}"))
            .find(|name| {
                let before = db.census().shard_series[home];
                db.resolve(name, &bare);
                db.census().shard_series[home] == before
            })
            .expect("some name hashes to another shard");
        let matched = db.select(&Selector::all().with_label_present("pod"));
        assert_eq!(matched.iter().map(|s| s.name()).collect::<Vec<_>>(), ["carrier"]);
        let negated = db.select(&Selector::all().without_label_value("pod", "p2"));
        assert_eq!(negated.len(), 1, "`!=` needs the key present too");
        assert!(!db.select(&Selector::metric(&other)).is_empty());
        assert!(db.select(&Selector::metric(&other).with_label_present("pod")).is_empty());
    }

    /// The strings of the generated shards, all interned before anything is
    /// registered, so that a plan is never `Nothing` for want of a symbol.
    /// Series draw the first two names and the first three keys and values,
    /// so the last of each names a list no series of the shard holds.
    const NAMES: [&str; 3] = ["up", "m_total", "absent_total"];
    const KEYS: [&str; 4] = ["node", "pod", "job", "zone"];
    const VALUES: [&str; 4] = ["a", "b", "c", "z"];

    proptest::proptest! {
        /// A shard's postings walk yields what the model's sorted sets
        /// intersect to — for a name alone, several `=`, `!=` and exists
        /// beside them (which name no list), and a list the shard does not
        /// hold — and, post-filtered by the model's matcher, exactly the
        /// series a scan of the shard with it selects.
        #[test]
        fn the_postings_walk_is_the_sorted_set_intersection(
            series in proptest::collection::vec(
                (0u8..2, proptest::collection::vec((0u8..3, 0u8..3), 0..4)),
                0..40,
            ),
            selectors in proptest::collection::vec(
                (0u8..4, proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 0..4)),
                1..8,
            ),
        ) {
            let mut table = SymbolTable::default();
            for s in NAMES.iter().chain(&KEYS).chain(&VALUES) {
                table.intern(s);
            }
            let symbol = |s: &str| table.get(s).expect("interned up front");
            let mut postings = Postings::default();
            let mut stored = Vec::new();
            for (name, pairs) in &series {
                let name = NAMES[usize::from(*name)];
                let labels = Labels::from_pairs(
                    pairs.iter().map(|&(k, v)| (KEYS[usize::from(k)], VALUES[usize::from(v)])),
                );
                let pairs: Vec<_> = labels.iter().map(|(k, v)| (symbol(k), symbol(v))).collect();
                postings.register(stored.len() as u32, symbol(name), &pairs);
                stored.push((name, labels));
            }
            for (name, matchers) in &selectors {
                let mut selector =
                    NAMES.get(usize::from(*name)).map_or_else(Selector::all, |n| Selector::metric(*n));
                for &(kind, k, v) in matchers {
                    let (key, value) = (KEYS[usize::from(k)], VALUES[usize::from(v)]);
                    selector = match kind {
                        0 => selector.with_label(key, value),
                        1 => selector.without_label_value(key, value),
                        _ => selector.with_label_present(key),
                    };
                }
                let plan = SelectorPlan::compile(&selector, &table);
                let walked: Vec<u32> = plan.candidates(&postings, stored.len() as u32).collect();
                let want: Vec<u32> = intersection(&selector, &stored).into_iter().collect();
                assert_eq!(walked, want, "{selector}");
                let selected = |local: &&u32| {
                    let (name, labels) = &stored[**local as usize];
                    matches(&selector, name, labels)
                };
                let scanned = stored.iter().filter(|(name, labels)| matches(&selector, name, labels));
                assert_eq!(walked.iter().filter(selected).count(), scanned.count(), "{selector}");
            }
        }
    }
}

/// The selection model of `tests/index_consistency.rs`, kept in the test
/// support crate and included by path (a unit test cannot depend on a crate
/// that depends on this one), so that the postings walk is held to
/// sorted-set intersections.
#[cfg(test)]
#[path = "../../testkit/src/selection.rs"]
mod selection;
