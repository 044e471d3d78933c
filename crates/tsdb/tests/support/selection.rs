//! The selection model: what a [`Selector`] picks, stated plainly, for the
//! suites that hold the inverted index to it — `tests/index_consistency.rs`
//! (a whole store against a scan of every series with [`matches`]) and the
//! index's unit tests (a shard's postings walk against [`intersection`]).
//! The includer brings `Selector` and `LabelMatch` into scope; what one
//! includer leaves unused is allowed.

#![allow(dead_code)]

use std::collections::BTreeSet;

use teemon_metrics::Labels;

use super::{LabelMatch, Selector};

/// `true` when a series with `name` and `labels` matches `selector`: the
/// name, if the selector has one, is equal, and every matcher holds — `=` the
/// label has the value, `!=` the label is present with another value,
/// exists the label is present.
pub fn matches(selector: &Selector, name: &str, labels: &Labels) -> bool {
    selector.name.as_ref().is_none_or(|wanted| wanted == name)
        && selector.matchers.iter().all(|m| match m {
            LabelMatch::Equals(k, v) => labels.get(k) == Some(v.as_str()),
            LabelMatch::NotEquals(k, v) => labels.get(k).is_some_and(|actual| actual != v),
            LabelMatch::Exists(k) => labels.get(k).is_some(),
        })
}

/// The indices into `series` (a shard's, in registration order) that a
/// postings walk must yield for `selector`: the intersection of the set of
/// series under its name and the set under each `=` matcher's pair — empty
/// where one of them is — or every series where it names neither.  `!=` and
/// exists matchers name no set and constrain nothing here.
pub fn intersection(selector: &Selector, series: &[(&str, Labels)]) -> BTreeSet<u32> {
    let under = |holds: &dyn Fn(&str, &Labels) -> bool| -> BTreeSet<u32> {
        (0..)
            .zip(series)
            .filter(|(_, (name, labels))| holds(name, labels))
            .map(|(i, _)| i)
            .collect()
    };
    let name = selector.name.iter().map(|wanted| under(&|name, _| name == wanted));
    let equals = selector.matchers.iter().filter_map(|m| match m {
        LabelMatch::Equals(k, v) => Some(under(&|_, labels| labels.get(k) == Some(v.as_str()))),
        _ => None,
    });
    name.chain(equals).reduce(|a, b| &a & &b).unwrap_or_else(|| under(&|_, _| true))
}
