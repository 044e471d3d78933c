//! The typed scrape contract between exporters and the aggregation
//! component.
//!
//! The paper's deployment separates exporters and Prometheus into different
//! processes, so every scrape serialises the exporter's state to OpenMetrics
//! text and parses it back.  In this reproduction both sides live in one
//! process, so the scrape contract is typed instead: a [`MetricsEndpoint`]
//! hands the scraper [`FamilySnapshot`]s directly.  Every exporter
//! implements it, and so does every other scrape target; closures returning
//! snapshots work directly.  The text format is an edge codec
//! ([`crate::exposition`]), applied only where an external party speaks the
//! wire format: `/metrics` and `/self/metrics` serve
//! [`encode_text`](crate::exposition::encode_text), and remote-write pushes
//! and `teemon_tsdb::Scraper::add_text_source` targets are read with
//! [`parse_families_bounded`](crate::exposition::parse_families_bounded).
//! A push stays text: its [`Exposition`](crate::exposition::Exposition)
//! keeps every counter, gauge or untyped line as the bytes it was sent as,
//! and the push lane matches it by those bytes, building a label set only
//! for a series it has not seen.  A text target is turned into this
//! contract's snapshots by
//! [`Exposition::to_snapshots`](crate::exposition::Exposition::to_snapshots)
//! and scraped like any other target.

use std::fmt;

use crate::error::MetricError;
use crate::snapshot::FamilySnapshot;

/// Why scraping one target failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScrapeError {
    /// The target was unreachable or refused to produce metrics (the typed
    /// equivalent of a failed HTTP GET on `/metrics`).
    Unreachable(String),
    /// A text target produced a malformed exposition document.
    Parse(MetricError),
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrapeError::Unreachable(reason) => write!(f, "target unreachable: {reason}"),
            ScrapeError::Parse(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

impl From<MetricError> for ScrapeError {
    fn from(err: MetricError) -> Self {
        ScrapeError::Parse(err)
    }
}

/// Something that can be scraped: returns the current typed family
/// snapshots.  The scrape contract of every TEEMon exporter and of every
/// other in-process scrape target.
pub trait MetricsEndpoint: Send + Sync {
    /// Produces the current family snapshots.
    ///
    /// # Errors
    ///
    /// Returns a [`ScrapeError`] when the endpoint is unreachable or failing,
    /// which the scraper records as `up == 0`.
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError>;

    /// Hands the current snapshots to `visit` by reference instead of
    /// returning them by value.  The scraper ingests through this method, so
    /// an endpoint that maintains its snapshots in place (updating values
    /// without reallocating points) can override it and make a steady-state
    /// scrape round allocation-free end to end; the default simply wraps
    /// [`MetricsEndpoint::scrape`] and visits the freshly collected
    /// families.
    ///
    /// Contract: implementations must invoke `visit` **exactly once** on
    /// success, passing the complete round (chunked delivery would make the
    /// scraper's per-round sample accounting and scrape cache see partial
    /// rounds), and must not scrape the same target from *inside* `visit`
    /// (the scraper holds the target's ingest-cache lock while `visit`
    /// runs; collecting before calling `visit` — as the default does — is
    /// always safe).
    ///
    /// # Errors
    ///
    /// Returns a [`ScrapeError`] when the endpoint is unreachable or
    /// failing; `visit` is not called in that case.
    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let families = self.scrape()?;
        visit(&families);
        Ok(())
    }
}

impl<F> MetricsEndpoint for F
where
    F: Fn() -> Result<Vec<FamilySnapshot>, ScrapeError> + Send + Sync,
{
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        (self)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_error_displays_both_shapes() {
        let unreachable = ScrapeError::Unreachable("connection refused".into());
        assert!(unreachable.to_string().contains("connection refused"));
        let invalid: ScrapeError = MetricError::InvalidLabelName("0bad".into()).into();
        assert!(invalid.to_string().contains("0bad"));
    }
}
