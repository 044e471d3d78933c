//! TEEMon — a continuous performance monitoring framework for TEEs.
//!
//! This crate is the user-facing façade of the reproduction: it wires the
//! exporters (PME), the aggregation database and scraper (PMAG), the analysis
//! component (PMAN) and the dashboards (PMV) on top of the simulated host
//! (kernel + SGX driver), and provides the experiment drivers that regenerate
//! every table and figure of the paper's evaluation.
//!
//! # Quick start
//!
//! ```
//! use teemon::{MonitorBuilder, MonitoringMode};
//! use teemon_apps::{Application, RedisApp};
//! use teemon_frameworks::{Deployment, FrameworkParams};
//!
//! // A simulated SGX host with full TEEMon monitoring attached.  The builder
//! // composes the deployment: mode preset, scrape intervals, extra
//! // endpoints; `HostMonitor::new(node, mode)` remains as shorthand.
//! let host = MonitorBuilder::new("worker-1").mode(MonitoringMode::Full).build();
//!
//! // Run a Redis-like workload under SCONE on that host.
//! let app = RedisApp::paper_config(32);
//! let mut deployment = Deployment::deploy(
//!     host.kernel(),
//!     FrameworkParams::for_kind(teemon_frameworks::FrameworkKind::Scone),
//!     app.name(),
//!     app.memory_bytes(),
//!     app.threads(),
//!     7,
//! )
//! .unwrap();
//! let request = app.request(8, 320);
//! for _ in 0..200 {
//!     deployment.execute(&request, 320);
//! }
//!
//! // Scrape, then ask TEEMon what it observed.
//! host.scrape_tick();
//! let engine = teemon_query::QueryEngine::new(host.db().clone());
//! let newest = host.db().newest_timestamp().unwrap();
//! let total = engine.instant_query("sum(teemon_syscalls_total)", newest).unwrap();
//! assert!(total.as_vector().unwrap()[0].value > 0.0);
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod monitor;
pub mod overhead;

pub use monitor::{ClusterMonitor, HostMonitor, MonitorBuilder, MonitoringMode};
pub use overhead::PAPER_STACK_REFERENCE;
pub use teemon_query::{Alert, AlertRule, AlertState, RecordingRule, Rule, RuleEngine, RuleGroup};
