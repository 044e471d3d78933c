//! Linux kernel substrate simulation.
//!
//! TEEMon's System Metrics Exporter (SME) attaches small eBPF programs to
//! kernel tracepoints, kprobes and perf events (Table 2 of the paper) and
//! aggregates the resulting events in BPF maps.  This crate reproduces the
//! kernel-side machinery those programs need:
//!
//! * [`Kernel`] — the host-kernel façade: process table, syscall dispatch,
//!   context switches, page faults, cache accesses and page-cache operations,
//!   each of which fires the corresponding tracepoint, kprobe or perf event,
//! * [`Syscall`] — the syscall inventory with per-call base costs,
//! * [`ebpf`] — a small eBPF-like execution environment: programs attached to
//!   those hooks through the [`ebpf::HookRegistry`], aggregating into
//!   [`ebpf::BpfMap`]s that user-space exporters read.
//!
//! Per-process event counts, the syscall mix of one process included, exist
//! only in those maps (the `pid:<n>` keys of the standard programs, or a VM
//! loaded with [`ebpf::PidFilter::Only`]).  The kernel itself keeps only the
//! host-wide [`KernelCounters`] the node exporter reads.
//!
//! The simulated kernel also understands enclave-backed processes: syscalls
//! issued from inside an enclave are charged the enclave-transition cost and
//! paging activity from the [`teemon_sgx_sim::SgxDriver`] surfaces as page
//! faults and `ksgxswapd` context switches at host scope, exactly the coupling
//! the paper's Figure 11 relies on.

#![warn(missing_docs)]

pub mod ebpf;
mod hooks;
mod kernel;
pub mod process;
mod syscall;

pub use kernel::{FaultKind, Kernel, KernelConfig, KernelCounters, PageCacheOp, SwitchKind};
pub use process::Pid;
pub use syscall::Syscall;
