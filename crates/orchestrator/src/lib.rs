//! Kubernetes-like cluster model for TEEMon deployments.
//!
//! §5.4 describes how TEEMon is deployed at scale: every metrics exporter runs
//! as a DaemonSet (exactly one pod per node, including nodes added later),
//! node taints/labels restrict TEE-specific exporters to SGX-capable nodes,
//! and Kubernetes service discovery feeds the aggregation component so it
//! "adapts to arbitrary changes in the cluster topology".  TEEMon monitored
//! more than 6 000 enclaves in production this way.
//!
//! This crate models that control plane:
//!
//! * [`Node`], [`Cluster`] — nodes with labels, taints and SGX capability,
//!   joining and leaving dynamically,
//! * [`HelmChart`] — the TEEMon chart: one DaemonSet per enabled
//!   [`Exporter`], placed by node selector and taint toleration,
//! * [`ServiceDiscovery`] — the scrape endpoints the DaemonSets resolve to on
//!   the current cluster: the aggregator's target set.

#![warn(missing_docs)]

mod chart;
mod cluster;
mod workload;

pub use chart::{ChartValues, Exporter, HelmChart};
pub use cluster::{Cluster, Node, Taint};
pub use workload::{ScrapeEndpoint, ServiceDiscovery};
