//! SGX framework execution models: native, SCONE, SGX-LKL and Graphene-SGX.
//!
//! §6.5 of the paper benchmarks Redis running inside enclaves under three
//! shielded-execution frameworks and compares them against native execution,
//! then uses TEEMon's metrics to explain *why* each framework behaves the way
//! it does (synchronous vs. asynchronous system calls, enclave memory
//! management, host interaction).  This crate models those frameworks as cost
//! models layered on top of the simulated kernel and SGX driver:
//!
//! * [`FrameworkKind`] / [`FrameworkParams`] — the per-framework knobs
//!   (how system calls leave the enclave, libOS overhead, scalability
//!   penalties, memory footprint multipliers),
//! * [`SconeVersion`] — the two SCONE commits of Figure 6/7, which differ in
//!   whether `clock_gettime` is handled inside the enclave,
//! * [`Deployment`] — a running application instance under a framework: it
//!   owns the enclave, issues syscalls through the kernel (firing the hooks
//!   TEEMon observes) and touches enclave memory through the EPC model,
//! * [`RequestCounter`] — the requests a deployment served, published as the
//!   application's own exporter would (`app_requests_total{app=…}`),
//! * [`RequestProfile`] — the per-request behaviour of an application
//!   (syscalls, memory touched, cache behaviour, CPU work).
//!
//! The models are calibrated so that the *relative* results of the paper hold
//! (who wins, by roughly what factor, where the cliffs are), not the absolute
//! hardware numbers.

#![warn(missing_docs)]

mod deployment;
mod profile;
mod request;

pub use deployment::{Deployment, DeploymentError, ExecutionTotals, RequestCounter};
pub use profile::{FrameworkKind, FrameworkParams, SconeVersion};
pub use request::RequestProfile;
