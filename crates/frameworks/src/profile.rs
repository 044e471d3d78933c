//! Per-framework execution parameters.

use serde::{Deserialize, Serialize};

/// The execution frameworks compared in §6.5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// Vanilla execution without SGX — the baseline of Figures 8–11.
    Native,
    /// SCONE: shielded execution with an asynchronous system call interface.
    Scone,
    /// SGX-LKL: a library OS (Linux Kernel Library) inside the enclave.
    SgxLkl,
    /// Graphene-SGX: the Graphene library OS ported to SGX.
    GrapheneSgx,
}

impl FrameworkKind {
    /// All frameworks, in the order the paper's figures present them.
    pub const ALL: [FrameworkKind; 4] = [
        FrameworkKind::Native,
        FrameworkKind::Scone,
        FrameworkKind::SgxLkl,
        FrameworkKind::GrapheneSgx,
    ];

    /// Human readable name used in metric labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::Native => "native",
            FrameworkKind::Scone => "scone",
            FrameworkKind::SgxLkl => "sgx-lkl",
            FrameworkKind::GrapheneSgx => "graphene-sgx",
        }
    }

    /// `true` when the framework runs the application inside an enclave.
    pub fn uses_enclave(&self) -> bool {
        !matches!(self, FrameworkKind::Native)
    }
}

impl std::fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The two SCONE releases compared in Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SconeVersion {
    /// Commit `572bd1a5`: `clock_gettime` is forwarded to the kernel, so the
    /// syscall (and the enclave exit it causes) dominates the workload —
    /// the paper measured >370 000 `clock_gettime` calls per second.
    Commit572bd1a5,
    /// Commit `09fea91`: `clock_gettime` is handled inside the enclave;
    /// kernel-visible calls drop to ~100/s and Redis throughput roughly
    /// doubles (268 K → 622 K IOP/s in the paper's single-host benchmark).
    Commit09fea91,
}

impl SconeVersion {
    /// The short git hash used in the paper.
    pub fn commit_hash(&self) -> &'static str {
        match self {
            SconeVersion::Commit572bd1a5 => "572bd1a5",
            SconeVersion::Commit09fea91 => "09fea91",
        }
    }

    /// `true` when this release handles `clock_gettime` inside the enclave.
    pub(crate) fn clock_gettime_in_enclave(&self) -> bool {
        matches!(self, SconeVersion::Commit09fea91)
    }
}

/// How system calls leave (or do not leave) the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum SyscallPath {
    /// Direct syscalls without any enclave involvement (native).
    Direct,
    /// Asynchronous syscall queue: enclave threads push requests to untrusted
    /// threads; no synchronous exit, but futex-based signalling (SCONE).
    Asynchronous,
    /// Every syscall performs a synchronous enclave exit and re-entry
    /// (Graphene-SGX, and SGX-LKL for calls its libOS cannot satisfy).
    SynchronousExit,
}

/// The tunable parameters of one framework's execution model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkParams {
    /// Which framework these parameters describe.
    pub kind: FrameworkKind,
    /// How syscalls reach the kernel.
    pub(crate) syscall_path: SyscallPath,
    /// Fraction of application syscalls the in-enclave libOS absorbs without
    /// ever reaching the host kernel (0.0 for SCONE/native; high for library
    /// OSes that implement e.g. file systems internally).
    pub syscall_absorption: f64,
    /// Extra in-enclave CPU time per absorbed or forwarded syscall, modelling
    /// the libOS code path (shim, internal VFS/network stack), in nanoseconds.
    pub libos_syscall_ns: u64,
    /// Cost of signalling an asynchronous syscall (futex wake + response
    /// polling) in nanoseconds; only used by the asynchronous (SCONE) path.
    pub async_signal_ns: u64,
    /// Whether `clock_gettime`/`gettimeofday` are served inside the enclave.
    pub time_in_enclave: bool,
    /// Fixed extra CPU work per request (argument marshalling, shielding,
    /// encryption of I/O buffers), in nanoseconds.
    pub per_request_overhead_ns: u64,
    /// Multiplier on the application's memory footprint (library OS image,
    /// guard pages, allocator slack) — Graphene's libOS is the largest.
    pub memory_overhead_factor: f64,
    /// Scalability penalty: relative service-time increase per additional
    /// 100 client connections beyond the first 8 (models internal lock and
    /// scheduler contention; large for Graphene-SGX).
    pub contention_per_100_conns: f64,
    /// Average host-visible context switches generated per request on top of
    /// those caused by blocking syscalls (untrusted helper threads, libOS
    /// internal scheduling).
    pub context_switches_per_request: f64,
    /// Probability that a memory access that misses the LLC was to enclave
    /// memory (drives the MEE overhead and the elevated miss rates TEEMon
    /// observes for all SGX frameworks).
    pub epc_access_fraction: f64,
    /// Multiplier on the application's baseline LLC miss rate (enclave
    /// layouts and copying increase misses).
    pub llc_miss_factor: f64,
    /// Effective number of worker threads the framework can keep busy.
    pub effective_threads: u32,
}

impl FrameworkParams {
    /// Parameters for native (non-SGX) execution.
    pub fn native() -> Self {
        Self {
            kind: FrameworkKind::Native,
            syscall_path: SyscallPath::Direct,
            syscall_absorption: 0.0,
            libos_syscall_ns: 0,
            async_signal_ns: 0,
            time_in_enclave: true,
            per_request_overhead_ns: 0,
            memory_overhead_factor: 1.0,
            contention_per_100_conns: 0.0,
            context_switches_per_request: 0.001,
            epc_access_fraction: 0.0,
            llc_miss_factor: 1.0,
            effective_threads: 8,
        }
    }

    /// Parameters for SCONE at a given release.
    pub fn scone(version: SconeVersion) -> Self {
        Self {
            kind: FrameworkKind::Scone,
            syscall_path: SyscallPath::Asynchronous,
            syscall_absorption: 0.0,
            libos_syscall_ns: 600,
            async_signal_ns: 1_000,
            time_in_enclave: version.clock_gettime_in_enclave(),
            per_request_overhead_ns: 800,
            memory_overhead_factor: 1.08,
            contention_per_100_conns: 0.01,
            context_switches_per_request: 0.3,
            epc_access_fraction: 0.9,
            llc_miss_factor: 2.2,
            effective_threads: 8,
        }
    }

    /// Parameters for SGX-LKL.
    pub(crate) fn sgx_lkl() -> Self {
        Self {
            kind: FrameworkKind::SgxLkl,
            syscall_path: SyscallPath::SynchronousExit,
            // The LKL kernel absorbs most POSIX calls internally...
            syscall_absorption: 0.7,
            // ...but pays a full Linux-kernel code path for them in-enclave.
            libos_syscall_ns: 3_500,
            async_signal_ns: 0,
            time_in_enclave: true,
            per_request_overhead_ns: 2_500,
            memory_overhead_factor: 1.2,
            contention_per_100_conns: 0.05,
            context_switches_per_request: 0.8,
            epc_access_fraction: 0.9,
            llc_miss_factor: 2.8,
            effective_threads: 4,
        }
    }

    /// Parameters for Graphene-SGX.
    pub fn graphene_sgx() -> Self {
        Self {
            kind: FrameworkKind::GrapheneSgx,
            syscall_path: SyscallPath::SynchronousExit,
            syscall_absorption: 0.3,
            libos_syscall_ns: 5_000,
            async_signal_ns: 0,
            time_in_enclave: true,
            per_request_overhead_ns: 30_000,
            memory_overhead_factor: 1.35,
            // Graphene-SGX degrades with additional connections — the paper
            // measured its best throughput at a single client (8 connections).
            contention_per_100_conns: 0.35,
            context_switches_per_request: 9.0,
            epc_access_fraction: 0.95,
            llc_miss_factor: 5.0,
            effective_threads: 1,
        }
    }

    /// Parameters for a framework kind using its default configuration
    /// (SCONE uses the newer `09fea91` release).
    pub fn for_kind(kind: FrameworkKind) -> Self {
        match kind {
            FrameworkKind::Native => Self::native(),
            FrameworkKind::Scone => Self::scone(SconeVersion::Commit09fea91),
            FrameworkKind::SgxLkl => Self::sgx_lkl(),
            FrameworkKind::GrapheneSgx => Self::graphene_sgx(),
        }
    }

    /// Service-time multiplier caused by contention at `connections` client
    /// connections (1.0 at 8 connections or fewer).
    pub(crate) fn contention_factor(&self, connections: u32) -> f64 {
        let extra = (connections.saturating_sub(8)) as f64 / 100.0;
        1.0 + self.contention_per_100_conns * extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_unique_names() {
        let mut names: Vec<_> = FrameworkKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(FrameworkKind::Scone.to_string(), "scone");
    }

    #[test]
    fn only_native_avoids_the_enclave() {
        assert!(!FrameworkKind::Native.uses_enclave());
        assert!(FrameworkKind::Scone.uses_enclave());
        assert!(FrameworkKind::SgxLkl.uses_enclave());
        assert!(FrameworkKind::GrapheneSgx.uses_enclave());
    }

    #[test]
    fn scone_versions_differ_in_time_handling() {
        assert!(!SconeVersion::Commit572bd1a5.clock_gettime_in_enclave());
        assert!(SconeVersion::Commit09fea91.clock_gettime_in_enclave());
        assert_ne!(
            SconeVersion::Commit572bd1a5.commit_hash(),
            SconeVersion::Commit09fea91.commit_hash()
        );
        let old = FrameworkParams::scone(SconeVersion::Commit572bd1a5);
        let new = FrameworkParams::scone(SconeVersion::Commit09fea91);
        assert!(!old.time_in_enclave);
        assert!(new.time_in_enclave);
    }

    #[test]
    fn per_request_overhead_ordering_matches_paper() {
        let native = FrameworkParams::native();
        let scone = FrameworkParams::for_kind(FrameworkKind::Scone);
        let lkl = FrameworkParams::sgx_lkl();
        let graphene = FrameworkParams::graphene_sgx();
        assert!(native.per_request_overhead_ns < scone.per_request_overhead_ns);
        assert!(scone.per_request_overhead_ns < lkl.per_request_overhead_ns);
        assert!(lkl.per_request_overhead_ns < graphene.per_request_overhead_ns);
        assert!(
            graphene.context_switches_per_request > 5.0 * lkl.context_switches_per_request / 2.0
        );
    }

    #[test]
    fn contention_factor_grows_with_connections() {
        let graphene = FrameworkParams::graphene_sgx();
        assert_eq!(graphene.contention_factor(8), 1.0);
        assert!(graphene.contention_factor(320) > graphene.contention_factor(80));
        let native = FrameworkParams::native();
        assert_eq!(native.contention_factor(800), 1.0);
    }

    #[test]
    fn for_kind_round_trips_kind() {
        for kind in FrameworkKind::ALL {
            assert_eq!(FrameworkParams::for_kind(kind).kind, kind);
        }
    }
}
