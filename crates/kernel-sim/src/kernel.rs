//! The host-kernel façade.
//!
//! [`Kernel`] is the single object framework and application models interact
//! with to "execute": issuing syscalls, causing page faults and cache
//! activity, switching contexts and touching enclave memory.  Every such
//! interaction fires the corresponding instrumentation hook so that attached
//! eBPF-style programs (and therefore the TEEMon exporters) observe exactly
//! the events a real kernel would produce.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use teemon_sgx_sim::{AccessOutcome, CostModel, EnclaveId, EpcConfig, SgxDriver};
use teemon_sim_core::{SimClock, SimDuration};

use crate::hooks::{HookEvent, HookPoint, HookRegistry, PerfEventKind};
use crate::process::{Pid, ProcessKind, ProcessTable};
use crate::syscall::{Syscall, SyscallTable};

/// Whether a page fault was taken in user or kernel mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// `exceptions:page_fault_user`
    User,
    /// `exceptions:page_fault_kernel`
    Kernel,
}

/// Why a context switch happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchKind {
    /// The running task blocked (I/O wait, futex, sleep).
    Voluntary,
    /// The running task was preempted at the end of its time slice.
    Involuntary,
}

/// Page-cache operations observable through kprobes (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageCacheOp {
    /// `add_to_page_cache_lru`
    AddToPageCacheLru,
    /// `mark_page_accessed`
    MarkPageAccessed,
    /// `account_page_dirtied`
    AccountPageDirtied,
    /// `mark_buffer_dirty`
    MarkBufferDirty,
}

impl PageCacheOp {
    /// The kprobed kernel function name.
    pub(crate) fn function(&self) -> &'static str {
        match self {
            PageCacheOp::AddToPageCacheLru => "add_to_page_cache_lru",
            PageCacheOp::MarkPageAccessed => "mark_page_accessed",
            PageCacheOp::AccountPageDirtied => "account_page_dirtied",
            PageCacheOp::MarkBufferDirty => "mark_buffer_dirty",
        }
    }

    fn hook(&self) -> HookPoint {
        HookPoint::Kprobe(self.function().to_string())
    }
}

/// Static kernel cost configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Direct cost of one context switch in nanoseconds.
    pub context_switch_ns: u64,
    /// Cost of servicing a minor page fault in nanoseconds.
    pub minor_fault_ns: u64,
    /// Number of CPU cores on the host (used by utilisation accounting).
    pub cpu_cores: u32,
    /// Host memory in bytes (node-exporter style metrics).
    pub memory_bytes: u64,
    /// Cost charged per attached eBPF handler invocation, in nanoseconds.
    ///
    /// This is the mechanism behind the paper's Figure 5: with no programs
    /// attached ("Monitoring OFF") instrumentation is free; attaching the
    /// SME's programs makes every traced event slightly more expensive, which
    /// is "half of the performance drop" the paper attributes to eBPF.
    pub ebpf_overhead_ns_per_handler: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            context_switch_ns: 2_000,
            minor_fault_ns: 1_200,
            cpu_cores: 8,
            memory_bytes: 32 * 1024 * 1024 * 1024,
            ebpf_overhead_ns_per_handler: 160,
        }
    }
}

/// Host-wide event counters (what `/proc/stat` and friends would expose).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Total syscalls dispatched.
    pub syscalls: u64,
    /// Total context switches.
    pub context_switches: u64,
    /// User-mode page faults.
    pub page_faults_user: u64,
    /// Kernel-mode page faults.
    pub page_faults_kernel: u64,
    /// Last-level cache references.
    pub llc_references: u64,
    /// Last-level cache misses.
    pub llc_misses: u64,
    /// Page-cache operations observed by kprobes.
    pub page_cache_ops: u64,
}

impl KernelCounters {
    /// Total page faults of either kind.
    pub fn page_faults_total(&self) -> u64 {
        self.page_faults_user + self.page_faults_kernel
    }
}

struct KernelInner {
    counters: KernelCounters,
    syscall_tables: BTreeMap<Pid, SyscallTable>,
}

/// The simulated host kernel.  Clones share all state.
#[derive(Clone)]
pub struct Kernel {
    clock: SimClock,
    config: KernelConfig,
    processes: ProcessTable,
    hooks: HookRegistry,
    sgx: SgxDriver,
    ksgxswapd: Pid,
    inner: Arc<Mutex<KernelInner>>,
}

impl Kernel {
    /// Creates a kernel with default configuration, a default-sized EPC and a
    /// fresh clock.
    pub fn new() -> Self {
        Self::with_config(
            SimClock::new(),
            KernelConfig::default(),
            EpcConfig::default(),
            CostModel::default(),
        )
    }

    /// Creates a kernel with explicit configuration.
    pub fn with_config(
        clock: SimClock,
        config: KernelConfig,
        epc: EpcConfig,
        sgx_costs: CostModel,
    ) -> Self {
        let processes = ProcessTable::new();
        let sgx = SgxDriver::with_config(clock.clone(), epc, sgx_costs);
        let ksgxswapd = processes.spawn("ksgxswapd", ProcessKind::KernelThread, 1, clock.now());
        Self {
            clock,
            config,
            processes,
            hooks: HookRegistry::new(),
            sgx,
            ksgxswapd,
            inner: Arc::new(Mutex::new(KernelInner {
                counters: KernelCounters::default(),
                syscall_tables: BTreeMap::new(),
            })),
        }
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The hook registry exporters attach their programs to.
    pub fn hooks(&self) -> &HookRegistry {
        &self.hooks
    }

    /// The process table.
    pub fn processes(&self) -> &ProcessTable {
        &self.processes
    }

    /// The SGX driver backing enclave-related activity.
    pub fn sgx_driver(&self) -> &SgxDriver {
        &self.sgx
    }

    /// Spawns a process.
    pub fn spawn_process(&self, name: &str, kind: ProcessKind, threads: u32) -> Pid {
        self.processes.spawn(name, kind, threads, self.clock.now())
    }

    /// Converts a number of invoked instrumentation handlers into the time the
    /// traced code path spent executing them.
    fn instrumentation_cost(&self, handlers_invoked: usize) -> SimDuration {
        SimDuration::from_nanos(handlers_invoked as u64 * self.config.ebpf_overhead_ns_per_handler)
    }

    /// Dispatches a system call from `pid` and returns its in-kernel service
    /// time.  `from_enclave` marks calls that originate from enclave-backed
    /// execution (the SGX frameworks); the kernel-side cost is identical, but
    /// the flag propagates into the hook events so monitoring can attribute
    /// them.
    pub fn syscall(&self, pid: Pid, syscall: Syscall, from_enclave: bool) -> SimDuration {
        {
            let mut inner = self.inner.lock();
            inner.counters.syscalls += 1;
            inner.syscall_tables.entry(pid).or_default().record(syscall);
        }
        let event = HookEvent::basic(pid).with_syscall(syscall).in_enclave(from_enclave);
        let mut handlers = self.hooks.fire(&HookPoint::sys_enter(), &event);
        handlers += self.hooks.fire(&HookPoint::sys_exit(), &event);
        syscall.base_cost() + self.instrumentation_cost(handlers)
    }

    /// Records a context switch attributed to `pid` and returns its cost.
    /// Both kinds count alike, as in `/proc/stat`'s `ctxt`.
    pub fn context_switch(&self, pid: Pid, _kind: SwitchKind) -> SimDuration {
        self.inner.lock().counters.context_switches += 1;
        let event = HookEvent::basic(pid);
        let mut handlers = self.hooks.fire(&HookPoint::sched_switch(), &event);
        handlers +=
            self.hooks.fire(&HookPoint::PerfEvent(PerfEventKind::SwContextSwitches), &event);
        SimDuration::from_nanos(self.config.context_switch_ns) + self.instrumentation_cost(handlers)
    }

    /// Records a page fault and returns its service time.
    pub fn page_fault(&self, pid: Pid, kind: FaultKind, from_enclave: bool) -> SimDuration {
        {
            let mut inner = self.inner.lock();
            match kind {
                FaultKind::User => inner.counters.page_faults_user += 1,
                FaultKind::Kernel => inner.counters.page_faults_kernel += 1,
            }
        }
        let detail = match kind {
            FaultKind::User => "user",
            FaultKind::Kernel => "kernel",
        };
        let event = HookEvent::basic(pid).in_enclave(from_enclave).with_detail(detail);
        let hook = match kind {
            FaultKind::User => HookPoint::page_fault_user(),
            FaultKind::Kernel => HookPoint::page_fault_kernel(),
        };
        let mut handlers = self.hooks.fire(&hook, &event);
        handlers += self.hooks.fire(&HookPoint::PerfEvent(PerfEventKind::SwPageFaults), &event);
        SimDuration::from_nanos(self.config.minor_fault_ns) + self.instrumentation_cost(handlers)
    }

    /// Records last-level-cache activity for `pid` and returns the stall time
    /// caused by the misses.  `in_epc` applies the MEE overhead.
    pub fn cache_access(
        &self,
        pid: Pid,
        references: u64,
        misses: u64,
        in_epc: bool,
    ) -> SimDuration {
        let misses = misses.min(references);
        {
            let mut inner = self.inner.lock();
            inner.counters.llc_references += references;
            inner.counters.llc_misses += misses;
        }
        let mut handlers = 0;
        if references > 0 {
            let event = HookEvent::basic(pid)
                .with_value(references)
                .with_detail("references")
                .in_enclave(in_epc);
            handlers +=
                self.hooks.fire(&HookPoint::PerfEvent(PerfEventKind::HwCacheReferences), &event);
        }
        if misses > 0 {
            let event =
                HookEvent::basic(pid).with_value(misses).with_detail("misses").in_enclave(in_epc);
            handlers +=
                self.hooks.fire(&HookPoint::PerfEvent(PerfEventKind::HwCacheMisses), &event);
        }
        self.sgx.costs().llc_miss(in_epc).mul(misses) + self.instrumentation_cost(handlers)
    }

    /// Records a page-cache operation (kprobe) for `pid` and returns the
    /// instrumentation cost (zero when no program is attached).
    pub fn page_cache_op(&self, pid: Pid, op: PageCacheOp) -> SimDuration {
        self.inner.lock().counters.page_cache_ops += 1;
        let event = HookEvent::basic(pid).with_detail(op.function());
        let handlers = self.hooks.fire(&op.hook(), &event);
        self.instrumentation_cost(handlers)
    }

    /// Touches one page of enclave memory on behalf of `pid`.
    ///
    /// On an EPC miss this produces the full cascade a real access produces:
    /// an asynchronous enclave exit, a user-mode page fault, possible
    /// `ksgxswapd` activity to evict victim pages (visible as host context
    /// switches), a page reload, and the corresponding latency.
    ///
    /// # Errors
    ///
    /// Propagates [`teemon_sgx_sim::SgxError`] for unknown enclaves or
    /// out-of-range pages.
    pub fn enclave_page_access(
        &self,
        pid: Pid,
        enclave: EnclaveId,
        page: u64,
    ) -> Result<(AccessOutcome, SimDuration), teemon_sgx_sim::SgxError> {
        let outcome = self.sgx.access_page(enclave, page)?;
        let mut latency = outcome.latency;
        if outcome.faulted {
            latency += self.page_fault(pid, FaultKind::User, true);
        }
        if outcome.evicted > 0 {
            // ksgxswapd woke up to write back victim pages: that is a kernel
            // thread being scheduled, i.e. host-visible context switches.
            latency += self.context_switch(self.ksgxswapd, SwitchKind::Voluntary);
            for _ in 0..outcome.evicted {
                self.page_fault(self.ksgxswapd, FaultKind::Kernel, true);
            }
        }
        Ok((outcome, latency))
    }

    /// Polls EPC pressure the way the kernel's reclaim path would and lets
    /// `ksgxswapd` evict pages proactively.  Returns pages evicted.
    pub fn poll_epc_pressure(&self) -> u64 {
        let (evicted, _latency) = self.sgx.run_swapd();
        if evicted > 0 {
            self.context_switch(self.ksgxswapd, SwitchKind::Voluntary);
        }
        evicted
    }

    /// Host-wide counters.
    pub fn counters(&self) -> KernelCounters {
        self.inner.lock().counters
    }

    /// The per-PID syscall histogram.
    pub fn syscall_table(&self, pid: Pid) -> SyscallTable {
        self.inner.lock().syscall_tables.get(&pid).cloned().unwrap_or_default()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("counters", &self.counters())
            .field("processes", &self.processes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebpf::{EbpfVm, PidFilter};

    fn kernel_with_epc_mib(mib: u64) -> Kernel {
        let epc = EpcConfig { total_bytes: mib << 20, reserved_bytes: 0, ..EpcConfig::default() };
        Kernel::with_config(SimClock::new(), KernelConfig::default(), epc, CostModel::default())
    }

    #[test]
    fn syscalls_update_counters_and_tables() {
        let kernel = Kernel::new();
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
        for _ in 0..5 {
            kernel.syscall(pid, Syscall::ClockGettime, true);
        }
        kernel.syscall(pid, Syscall::Read, true);
        assert_eq!(kernel.counters().syscalls, 6);
        let table = kernel.syscall_table(pid);
        assert_eq!(table.count(Syscall::ClockGettime), 5);
        assert_eq!(table.count(Syscall::Read), 1);
    }

    #[test]
    fn hooks_fire_for_kernel_activity() {
        let kernel = Kernel::new();
        let pid = kernel.spawn_process("nginx", ProcessKind::User, 4);
        let mut vm = EbpfVm::new(kernel.hooks().clone());
        let maps = vm.load_standard_programs(PidFilter::All);

        kernel.syscall(pid, Syscall::Sendto, false);
        kernel.context_switch(pid, SwitchKind::Voluntary);
        kernel.page_fault(pid, FaultKind::User, false);
        kernel.cache_access(pid, 100, 7, false);
        kernel.page_cache_op(pid, PageCacheOp::MarkPageAccessed);

        assert_eq!(maps[0].get("sendto"), Some(1));
        assert_eq!(maps[1].get("host_total"), Some(1));
        assert_eq!(maps[2].get("host_total"), Some(1));
        assert_eq!(maps[2].get("user"), Some(1));
        assert_eq!(maps[3].get("references"), Some(100));
        assert_eq!(maps[3].get("misses"), Some(7));
        assert_eq!(maps[3].get("mark_page_accessed"), Some(1));
    }

    #[test]
    fn enclave_access_within_epc_is_silent() {
        let kernel = kernel_with_epc_mib(64);
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
        let (enclave, _) =
            kernel.sgx_driver().create_enclave(pid.as_u32(), 16 * 1024 * 1024, 8).unwrap();
        for page in 0..100 {
            let (outcome, _) = kernel.enclave_page_access(pid, enclave, page).unwrap();
            assert!(!outcome.faulted);
        }
        assert_eq!(kernel.counters().page_faults_total(), 0);
    }

    #[test]
    fn enclave_thrashing_produces_faults_and_swapd_switches() {
        let kernel = kernel_with_epc_mib(8);
        let mut vm = EbpfVm::new(kernel.hooks().clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
        let (enclave, _) =
            kernel.sgx_driver().create_enclave(pid.as_u32(), 16 * 1024 * 1024, 8).unwrap();
        let pages = SgxDriver::pages_for(16 * 1024 * 1024);
        let mut total_latency = SimDuration::ZERO;
        for round in 0..2 {
            for page in 0..pages {
                let (_, latency) = kernel.enclave_page_access(pid, enclave, page).unwrap();
                total_latency += latency;
                let _ = round;
            }
        }
        let counters = kernel.counters();
        assert!(counters.page_faults_user > 0, "thrashing must fault");
        assert!(counters.page_faults_kernel > 0, "ksgxswapd writeback faults");
        assert!(maps[1].get(&format!("pid:{}", kernel.ksgxswapd)).is_some_and(|n| n > 0));
        assert!(total_latency > SimDuration::from_millis(1));
        assert!(kernel.sgx_driver().stats().epc_pages_evicted > 0);
    }

    #[test]
    fn cache_misses_capped_by_references() {
        let kernel = Kernel::new();
        let pid = kernel.spawn_process("mongod", ProcessKind::User, 4);
        kernel.cache_access(pid, 10, 100, false);
        assert_eq!(kernel.counters().llc_misses, 10);
        assert_eq!(kernel.counters().llc_references, 10);
    }

    #[test]
    fn epc_pressure_polling_accounts_to_ksgxswapd() {
        let kernel = kernel_with_epc_mib(4);
        let mut vm = EbpfVm::new(kernel.hooks().clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 2);
        kernel.sgx_driver().create_enclave(pid.as_u32(), 4 * 1024 * 1024 - 64 * 1024, 2).unwrap();
        let evicted = kernel.poll_epc_pressure();
        assert!(evicted > 0);
        assert_eq!(maps[1].get(&format!("pid:{}", kernel.ksgxswapd)), Some(1));
        // No pressure → no work.
        let kernel2 = kernel_with_epc_mib(64);
        assert_eq!(kernel2.poll_epc_pressure(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let kernel = Kernel::new();
        let clone = kernel.clone();
        let pid = clone.spawn_process("p", ProcessKind::User, 1);
        clone.syscall(pid, Syscall::Write, false);
        assert_eq!(kernel.counters().syscalls, 1);
    }

    #[test]
    fn enclave_syscall_cost_is_kernel_side_only() {
        // The kernel charges only its own service time; enclave transition
        // costs are the framework's responsibility.
        let kernel = Kernel::new();
        let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 1);
        let native = kernel.syscall(pid, Syscall::Write, false);
        let enclave = kernel.syscall(pid, Syscall::Write, true);
        assert_eq!(native, enclave);
    }
}
