//! PMAN — the Performance Metrics Analysis component.
//!
//! §4: "we design the PMAN component to analyze the aggregated data from the
//! PMAG component in real-time, to identify the bottlenecks or potential
//! anomalies, and to report them to the visualization component … Technically,
//! we make use of threshold-based approaches to detect anomalies … PMAN
//! analyzes the time-series monitoring data using slide window computations,
//! e.g., it processes every minute for the last five minutes of the monitoring
//! data.  In each time window, PMAN not only compares the monitoring data with
//! user-defined thresholds to detect anomalies but also provides a box plot
//! for SGX metrics."
//!
//! This crate provides exactly those pieces:
//!
//! * [`SlidingWindow`] — the window length and the step it advances by,
//! * [`BoxPlot`] — five-number summaries of SGX metrics, one per window,
//!   read from the engine's `min_over_time`, `quantile_over_time`,
//!   `max_over_time`, `avg_over_time` and `count_over_time`,
//! * [`Threshold`] / [`AnomalyDetector`] — user-defined threshold rules
//!   compared with each window's box plot, producing [`Anomaly`] reports at
//!   exactly the steps where the rule's alert fires,
//! * [`Analyzer`] — the periodic analysis loop over a
//!   [`teemon_tsdb::TimeSeriesDb`]: anomaly detection, and the bottleneck
//!   heuristics used in §6.4/§6.5 (e.g. "`clock_gettime` dominates
//!   read/write"), every one a TeeQL evaluation through
//!   [`teemon_query::QueryEngine`],
//! * [`compile_threshold`] / [`sgx_default_alerts`] — the threshold rules as
//!   TeeQL alert rules for [`teemon_query::RuleEngine`].

#![warn(missing_docs)]

pub mod anomaly;
pub mod bottleneck;
pub mod rules;
pub mod stats;

pub use anomaly::{Anomaly, AnomalyDetector, Threshold, ThresholdKind};
pub use bottleneck::{Analyzer, AnalyzerConfig, BottleneckFinding, BottleneckKind};
pub use rules::{compile_threshold, sgx_default_alerts};
pub use stats::{BoxPlot, SlidingWindow, WindowStats};
pub use teemon_query::Severity;
