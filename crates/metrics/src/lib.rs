//! Metric primitives for the TEEMon monitoring framework.
//!
//! This crate provides the building blocks shared by every other TEEMon
//! component:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] and [`Summary`] metric values,
//! * [`Labels`] — validated, order-normalised label sets,
//! * [`MetricFamily`] and [`Registry`] — grouping of metric instances and the
//!   gathering machinery used by exporters (the PME component of the paper),
//! * [`Collector`] — the **typed scrape contract**: exporters hand the
//!   aggregation component (PMAG) structured [`FamilySnapshot`]s directly,
//!   with no text round-trip on the in-process path,
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
//! text format only appears at the edges.
//!
//! # Example
//!
//! ```
//! use teemon_metrics::{Collector, Labels, Registry, RegistryCollector, exposition};
//!
//! let registry = Registry::new();
//! let syscalls = registry.counter_family("teemon_syscalls_total", "System calls observed");
//! syscalls.with(&Labels::from_pairs([("syscall", "read")])).inc_by(42.0);
//!
//! // The typed scrape path: structured snapshots, no text in between.
//! let collector = RegistryCollector::new("custom", registry);
//! let families = collector.collect().unwrap();
//! assert_eq!(families[0].name, "teemon_syscalls_total");
//! assert_eq!(families[0].total(), 42.0);
//!
//! // The text exposition stays available as an edge adapter and round-trips.
//! let text = exposition::encode_text(&families);
//! assert!(text.contains("teemon_syscalls_total{syscall=\"read\"} 42"));
//! assert_eq!(exposition::parse_families(&text).unwrap(), families);
//! ```

#![warn(missing_docs)]

pub mod collector;
pub mod error;
pub mod exposition;
pub mod family;
pub mod identity;
pub mod label;
pub mod registry;
pub mod snapshot;
pub mod value;

pub use collector::{CollectError, Collector, RegistryCollector};
pub use error::MetricError;
pub use family::{CounterFamily, GaugeFamily, HistogramFamily, MetricFamily, SummaryFamily};
pub use identity::{series_hash, SeriesKey};
pub use label::{LabelName, Labels, MetricName};
pub use registry::{Registry, SnapshotSource};
pub use snapshot::{format_bound, FamilySnapshot, MetricKind, MetricPoint, PointValue};
pub use value::{Counter, Gauge, Histogram, HistogramSnapshot, Summary, SummarySnapshot};
