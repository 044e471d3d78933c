//! PMV — the Performance Metrics Visualization component.
//!
//! The paper uses Grafana with three dashboards (§5.3): an SGX dashboard (EPC
//! metrics plus selected eBPF metrics), a Docker dashboard (cAdvisor data) and
//! an infrastructure dashboard (node exporter + eBPF exporter).  Each
//! dashboard is a set of panels — graphs, gauges, single stats, tables,
//! histograms — bound to queries against the aggregation component, with a
//! process filter and a selectable time range (Figure 3).
//!
//! This crate reproduces that layer with text rendering: [`Panel`]s bind a
//! TeeQL expression to a visualisation type, [`Dashboard`]s group
//! panels, [`standard`] builds the three dashboards of the paper, and
//! rendering produces human-readable ASCII.

#![warn(missing_docs)]

mod dashboards;
pub mod panel;
mod render;

pub use dashboards::{standard, Dashboard, DashboardSet};
pub use panel::Panel;
