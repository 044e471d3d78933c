//! Label selectors.
//!
//! PMAG "supports data queries over specified time ranges and labeled
//! dimensions.  It provides detailed quantitative analysis by selecting and
//! applying aggregation functions to query results" (§4).  This module is
//! the storage half of that: [`Selector`]s pick series, and
//! [`crate::TimeSeriesDb::select`] returns them as
//! [`crate::SeriesSnapshot`]s — the one way stored samples are read.  The
//! functions and aggregations are TeeQL's (`teemon_query`), which evaluates
//! them over the same selectors and snapshots.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How one label must compare for a series to match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelMatch {
    /// Label must equal the value.
    Equals(String, String),
    /// Label must exist and differ from the value.
    NotEquals(String, String),
    /// Label must exist (any value).
    Exists(String),
}

/// Escapes a label value for TeeQL / exposition-style rendering.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

impl fmt::Display for LabelMatch {
    /// Renders the matcher in TeeQL syntax.  [`LabelMatch::Exists`] prints as
    /// `label!=""` — the TeeQL parser canonicalises that form back to
    /// `Exists`, so a `NotEquals(_, "")` matcher is not representable in
    /// query text (construct it programmatically if you really need it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelMatch::Equals(k, v) => write!(f, "{k}=\"{}\"", escape_label_value(v)),
            LabelMatch::NotEquals(k, v) => write!(f, "{k}!=\"{}\"", escape_label_value(v)),
            LabelMatch::Exists(k) => write!(f, "{k}!=\"\""),
        }
    }
}

/// A series selector: an optional metric-name filter plus label matchers.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Selector {
    /// Metric name to match exactly; `None` matches every name.
    pub name: Option<String>,
    /// Label matchers, all of which must hold.
    pub matchers: Vec<LabelMatch>,
}

impl Selector {
    /// Matches every series.
    pub fn all() -> Self {
        Self::default()
    }

    /// Matches series of one metric name.
    pub fn metric(name: impl Into<String>) -> Self {
        Self { name: Some(name.into()), matchers: Vec::new() }
    }

    /// Adds an equality matcher.
    #[must_use]
    pub fn with_label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.matchers.push(LabelMatch::Equals(name.into(), value.into()));
        self
    }

    /// Adds a not-equals matcher.
    #[must_use]
    pub fn without_label_value(
        mut self,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.matchers.push(LabelMatch::NotEquals(name.into(), value.into()));
        self
    }

    /// Adds an existence matcher.
    #[must_use]
    pub fn with_label_present(mut self, name: impl Into<String>) -> Self {
        self.matchers.push(LabelMatch::Exists(name.into()));
        self
    }
}

impl fmt::Display for Selector {
    /// Renders the selector in TeeQL syntax: `name`, `name{matchers}`,
    /// `{matchers}` for a name-less selector, or `{}` for the match-all
    /// selector.  The output parses back to an equal selector with
    /// `teemon_query`'s parser (modulo the [`LabelMatch::Exists`] caveat).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            f.write_str(name)?;
            if self.matchers.is_empty() {
                return Ok(());
            }
        }
        write!(f, "{{")?;
        for (i, m) in self.matchers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_display_is_teeql_syntax() {
        assert_eq!(Selector::all().to_string(), "{}");
        assert_eq!(Selector::metric("up").to_string(), "up");
        assert_eq!(Selector::metric("up").with_label("node", "n1").to_string(), "up{node=\"n1\"}");
        assert_eq!(
            Selector::metric("m")
                .with_label("a", "x")
                .without_label_value("b", "y")
                .with_label_present("c")
                .to_string(),
            "m{a=\"x\", b!=\"y\", c!=\"\"}"
        );
        let nameless = Selector::all().with_label("node", "n1");
        assert_eq!(nameless.to_string(), "{node=\"n1\"}");
        // Quotes and backslashes in values are escaped.
        assert_eq!(
            Selector::metric("m").with_label("a", "q\"\\u").to_string(),
            "m{a=\"q\\\"\\\\u\"}"
        );
    }
}
