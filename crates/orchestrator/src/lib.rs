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
//! * DaemonSets and pods — per-node workload placement with taint
//!   toleration and node selectors,
//! * [`HelmChart`] — the TEEMon chart: which exporters to deploy and where,
//! * [`ServiceDiscovery`] — the catalog of scrape endpoints derived from the
//!   running pods, consumed by the scrape manager.

#![warn(missing_docs)]

mod chart;
mod cluster;
mod workload;

pub use chart::{ChartValues, HelmChart};
pub use cluster::{Cluster, Node, Taint};
pub use workload::{ScrapeEndpoint, ServiceDiscovery};
