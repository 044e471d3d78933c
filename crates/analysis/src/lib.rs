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
//! This crate provides those pieces over the engine the rest of TEEMon runs:
//!
//! * [`pman_alerts`] — the user-defined thresholds and the bottleneck
//!   diagnoses of §6.4/§6.5 (e.g. "`clock_gettime` dominates read/write",
//!   EPC pages evicted per 100 requests, host context switches per request)
//!   as the `teemon_pman` rule group: TeeQL alert rules over 5-minute
//!   windows, evaluated every minute by [`teemon_query::RuleEngine`] inside
//!   the monitoring loop (a full monitoring host installs it), each firing
//!   with a hint that explains it,
//! * [`detect_anomalies`] — reads the [`Anomaly`] reports back: every firing
//!   evaluation the rule engine stored as an `ALERTS{alertstate="firing"}`
//!   sample.
//!
//! The box plot is drawn where the paper draws it, on the "PMAN" dashboard
//! of `teemon_dashboard`: `min_over_time`, `quantile_over_time(0.25 | 0.5 |
//! 0.75)` and `max_over_time` of the EPC's free pages over 5-minute windows.

#![warn(missing_docs)]

pub mod anomaly;
pub mod rules;

pub use anomaly::{detect_anomalies, Anomaly};
pub use rules::pman_alerts;
pub use teemon_query::Severity;
