//! The metric data model and the text edge of the TEEMon monitoring
//! framework.
//!
//! This crate provides the building blocks shared by every other TEEMon
//! component:
//!
//! * [`FamilySnapshot`], [`MetricPoint`] and [`PointValue`] (with
//!   [`HistogramSnapshot`] and [`SummarySnapshot`]) — the wire-level data
//!   model every exporter produces and the aggregator stores,
//! * [`Labels`] — validated, order-normalised label sets,
//! * [`MetricsEndpoint`] — the **typed scrape contract**: exporters (the
//!   PME component of the paper) hand the aggregation component (PMAG)
//!   structured [`FamilySnapshot`]s directly, with no text round-trip on the
//!   in-process path; a failed scrape is a [`ScrapeError`],
//! * [`series_hash`] / [`SeriesKey`] — stable structural identity of wire
//!   series over borrowed snapshot data, the foundation of the aggregator's
//!   per-target scrape cache (zero allocation on a steady-state hit),
//! * [`encode_text`](exposition::encode_text) /
//!   [`parse_families`](exposition::parse_families) — the OpenMetrics-style
//!   text exposition format, kept as an explicit edge adapter for external
//!   producers and consumers of the wire format.
//!
//! The paper's exporters publish their measurements "in the standard
//! text-based format as specified by the OpenMetrics project" (§4) because
//! exporters and Prometheus run as separate processes there; in this
//! in-process reproduction the same data flows as typed snapshots and the
//! text format only appears at the edges.  An exporter reads its source when
//! it is scraped and builds the snapshots from what it read; there are no
//! live counter objects in between.
//!
//! # Example
//!
//! ```
//! use teemon_metrics::{
//!     exposition, FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue,
//!     ScrapeError,
//! };
//!
//! /// An endpoint reading one counter when it is scraped.
//! struct Syscalls(u64);
//!
//! impl MetricsEndpoint for Syscalls {
//!     fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
//!         let read = Labels::from_pairs([("syscall", "read")]);
//!         Ok(vec![FamilySnapshot::new("teemon_syscalls_total", "System calls observed", MetricKind::Counter)
//!             .with_point(MetricPoint::new(read, PointValue::Counter(self.0 as f64)))])
//!     }
//! }
//!
//! // The typed scrape path: structured snapshots, no text in between.
//! let families = Syscalls(42).scrape().unwrap();
//! assert_eq!(families[0].name, "teemon_syscalls_total");
//! assert_eq!(families[0].total(), 42.0);
//!
//! // The text exposition stays available as an edge adapter and round-trips.
//! let text = exposition::encode_text(&families);
//! assert!(text.contains("teemon_syscalls_total{syscall=\"read\"} 42"));
//! assert_eq!(exposition::parse_families(&text).unwrap(), families);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod endpoint;
pub mod error;
pub mod exposition;
pub mod identity;
pub mod label;
pub mod snapshot;
pub mod value;

pub use endpoint::{MetricsEndpoint, ScrapeError};
pub use error::MetricError;
pub use identity::{series_hash, SeriesKey};
pub use label::{is_valid_label_name, is_valid_metric_name, Labels};
pub use snapshot::{FamilySnapshot, MetricKind, MetricPoint, PointValue};
pub use value::{HistogramSnapshot, SummarySnapshot};
