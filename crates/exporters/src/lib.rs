//! PME — the Performance Metrics Exporters.
//!
//! The paper's exporter component has two halves (§4, §5.1):
//!
//! * the **TEE Metrics Exporter** (TME), a per-machine privileged exporter
//!   that reads the instrumented SGX driver's module parameters
//!   (`/sys/module/isgx/parameters/*`) and republishes them as OpenMetrics —
//!   implemented here as [`SgxExporter`] reading the simulated
//!   [`teemon_sgx_sim::SgxDriver`];
//! * the **System Metrics Exporter** (SME), composed of the eBPF exporter
//!   (syscalls, context switches, page faults, cache statistics — Table 2),
//!   the Prometheus node exporter (CPU/memory/filesystem/network) and
//!   cAdvisor (per-container utilisation) — implemented here as
//!   [`EbpfExporter`], [`NodeExporter`] and [`ContainerExporter`] reading the
//!   simulated kernel.
//!
//! Every exporter implements
//! [`MetricsEndpoint`](teemon_metrics::MetricsEndpoint), the one typed scrape
//! contract, by reading its source when it is scraped — the paper's SGX
//! exporter likewise re-reads `/sys/module/isgx/parameters/*` on every
//! scrape — and labelling every point with the node it runs on.  An
//! exporter does not name its job: the deployment registers it with the
//! scraper under one (`sgx_exporter`, `ebpf_exporter`, `node_exporter`,
//! `cadvisor`).  The aggregation component scrapes the structured
//! [`FamilySnapshot`](teemon_metrics::FamilySnapshot)s directly, and the
//! OpenMetrics text document only exists at the edges (see
//! [`teemon_metrics::exposition`]).

#![warn(missing_docs)]

pub mod container;
pub mod ebpf_exporter;
pub mod node;
mod registry;
pub mod tme;

pub use container::{ContainerExporter, ContainerSpec};
pub use ebpf_exporter::EbpfExporter;
pub use node::NodeExporter;
pub use tme::SgxExporter;
