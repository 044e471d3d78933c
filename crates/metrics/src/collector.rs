//! The typed collection contract between exporters and the aggregation
//! component.
//!
//! The paper's deployment separates exporters and Prometheus into different
//! processes, so every scrape serialises the exporter's state to OpenMetrics
//! text and parses it back.  In this reproduction both sides live in one
//! process, so the scrape contract is typed instead: a [`Collector`] hands
//! the scraper owned [`FamilySnapshot`]s directly.  The text format is an
//! edge codec ([`crate::exposition`]), applied only where an external party
//! speaks the wire format: `/metrics` and `/self/metrics` serve
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
use std::sync::Arc;

use crate::error::MetricError;
use crate::snapshot::FamilySnapshot;

/// Why a collection attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectError {
    /// The underlying source is unreachable or refused to produce metrics
    /// (the typed equivalent of a failed HTTP GET on `/metrics`).
    Unavailable(String),
    /// The source produced metrics that violate the metric model.
    Invalid(MetricError),
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Unavailable(reason) => write!(f, "collector unavailable: {reason}"),
            CollectError::Invalid(err) => write!(f, "collector produced invalid metrics: {err}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<MetricError> for CollectError {
    fn from(err: MetricError) -> Self {
        CollectError::Invalid(err)
    }
}

/// A typed metrics source: the scrape contract of every TEEMon exporter.
///
/// Implementors hand the aggregation component structured snapshots; no text
/// round-trip is involved on the in-process path.
pub trait Collector: Send + Sync {
    /// The job name scrape configurations use for this source
    /// (`sgx_exporter`, `ebpf_exporter`, `node_exporter`, `cadvisor`).
    fn job_name(&self) -> &str;

    /// Refreshes dynamic state (reads driver counters, dumps BPF maps, …).
    /// Called right before [`Collector::collect`]; sources that read at
    /// gather time may keep this a no-op.
    fn refresh(&self) {}

    /// Produces the current snapshots of every family this source owns.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] when the source is unreachable or produced
    /// metrics violating the metric model; the scraper records such targets
    /// as `up == 0`.
    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError>;
}

impl<C: Collector + ?Sized> Collector for Arc<C> {
    fn job_name(&self) -> &str {
        (**self).job_name()
    }

    fn refresh(&self) {
        (**self).refresh()
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
        (**self).collect()
    }
}

impl<C: Collector + ?Sized> Collector for Box<C> {
    fn job_name(&self) -> &str {
        (**self).job_name()
    }

    fn refresh(&self) {
        (**self).refresh()
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
        (**self).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Empty;

    impl Collector for Empty {
        fn job_name(&self) -> &str {
            "wrapped"
        }

        fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn arc_and_box_delegate() {
        let arc: Arc<dyn Collector> = Arc::new(Empty);
        assert_eq!(arc.job_name(), "wrapped");
        assert!(arc.collect().unwrap().is_empty());
        let boxed: Box<dyn Collector> = Box::new(Empty);
        boxed.refresh();
        assert_eq!(boxed.job_name(), "wrapped");
    }

    #[test]
    fn collect_error_displays_both_shapes() {
        let unavailable = CollectError::Unavailable("connection refused".into());
        assert!(unavailable.to_string().contains("connection refused"));
        let invalid: CollectError = MetricError::InvalidMetricName("0bad".into()).into();
        assert!(invalid.to_string().contains("0bad"));
    }
}
