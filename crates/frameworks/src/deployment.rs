//! A running application instance under one SGX framework.
//!
//! [`Deployment::deploy`] creates the process (and, for SGX frameworks, the
//! enclave holding the application's memory), and [`Deployment::execute`]
//! runs one request through the framework's cost model: issuing syscalls via
//! the simulated kernel, touching enclave memory through the EPC, recording
//! cache activity and context switches.  Every effect is therefore observable
//! by the TEEMon exporters attached to the same kernel, which is precisely the
//! property §6.5 relies on ("TEEMon can be transparently used across a variety
//! of SGX frameworks without changing their source code").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use teemon_kernel_sim::process::ProcessKind;
use teemon_kernel_sim::{FaultKind, Kernel, PageCacheOp, Pid, SwitchKind, Syscall};
use teemon_metrics::{
    FamilySnapshot, Labels, MetricKind, MetricPoint, MetricsEndpoint, PointValue, ScrapeError,
};
use teemon_sgx_sim::{EnclaveId, SgxError, TransitionCounts, TransitionKind, TransitionTracker};
use teemon_sim_core::{DetRng, SimDuration};

use crate::profile::{FrameworkKind, FrameworkParams, SyscallPath};
use crate::request::RequestProfile;

/// Errors produced while deploying or executing under a framework.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentError {
    /// Enclave creation failed in the SGX driver.
    Sgx(SgxError),
    /// The application's memory footprint is zero.
    EmptyApplication,
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::Sgx(e) => write!(f, "SGX error: {e}"),
            DeploymentError::EmptyApplication => write!(f, "application memory must be non-zero"),
        }
    }
}

impl std::error::Error for DeploymentError {}

impl From<SgxError> for DeploymentError {
    fn from(e: SgxError) -> Self {
        DeploymentError::Sgx(e)
    }
}

/// Aggregate execution statistics of a deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTotals {
    /// Requests executed: the deployment's [`RequestCounter`].
    pub requests: u64,
    /// Total service time spent on the server side (nanoseconds).
    pub busy_ns: u64,
    /// Enclave page faults observed while executing requests.
    pub enclave_page_faults: u64,
    /// EPC pages evicted while executing requests.
    pub epc_pages_evicted: u64,
    /// Enclave transitions (enter + exit + async exits).
    pub enclave_transitions: u64,
    /// Kernel-visible system calls issued.
    pub syscalls: u64,
}

/// The requests a deployment served, published the way an application's
/// own exporter (a Redis or NGINX exporter) publishes them: one
/// `app_requests_total{app="<name>"}` counter, the same family for every
/// application.  [`Deployment::execute`] bumps it; the handle
/// [`Deployment::request_counter`] returns reads the same count, so it can
/// be registered as a scrape target.
#[derive(Debug, Clone)]
pub struct RequestCounter {
    app: String,
    served: Arc<AtomicU64>,
}

impl MetricsEndpoint for RequestCounter {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        let served = self.served.load(Ordering::Relaxed) as f64;
        let point = MetricPoint::new(
            Labels::from_pairs([("app", self.app.as_str())]),
            PointValue::Counter(served),
        );
        let family =
            FamilySnapshot::new("app_requests_total", "Requests served", MetricKind::Counter);
        Ok(vec![family.with_point(point)])
    }
}

/// A running application instance under one framework.
pub struct Deployment {
    kernel: Kernel,
    params: FrameworkParams,
    app_name: String,
    pid: Pid,
    enclave: Option<EnclaveId>,
    enclave_pages: u64,
    transitions: TransitionTracker,
    totals: ExecutionTotals,
    requests: RequestCounter,
    rng: DetRng,
    startup_latency: SimDuration,
}

impl Deployment {
    /// Deploys `app_name` with `memory_bytes` of application memory and
    /// `threads` worker threads under the framework described by `params`.
    ///
    /// For SGX frameworks this creates an enclave sized
    /// `memory_bytes * params.memory_overhead_factor` (the library OS and
    /// shielding layers consume protected memory too).
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError::EmptyApplication`] when `memory_bytes` is 0
    /// and propagates SGX driver failures.
    pub fn deploy(
        kernel: &Kernel,
        params: FrameworkParams,
        app_name: &str,
        memory_bytes: u64,
        threads: u32,
        seed: u64,
    ) -> Result<Self, DeploymentError> {
        if memory_bytes == 0 {
            return Err(DeploymentError::EmptyApplication);
        }
        let kind =
            if params.kind.uses_enclave() { ProcessKind::Enclave } else { ProcessKind::User };
        let pid = kernel.spawn_process(app_name, kind, threads);
        let mut startup_latency = SimDuration::ZERO;
        let (enclave, enclave_pages) = if params.kind.uses_enclave() {
            let enclave_bytes =
                (memory_bytes as f64 * params.memory_overhead_factor).round() as u64;
            let (id, latency) =
                kernel.sgx_driver().create_enclave(pid.as_u32(), enclave_bytes, threads)?;
            startup_latency = latency;
            (Some(id), teemon_sgx_sim::SgxDriver::pages_for(enclave_bytes))
        } else {
            (None, 0)
        };
        let costs = kernel.sgx_driver().costs().clone();
        Ok(Self {
            kernel: kernel.clone(),
            params,
            app_name: app_name.to_string(),
            pid,
            enclave,
            enclave_pages,
            transitions: TransitionTracker::new(costs),
            totals: ExecutionTotals::default(),
            requests: RequestCounter {
                app: app_name.to_string(),
                served: Arc::new(AtomicU64::new(0)),
            },
            rng: DetRng::seed_from_u64(seed),
            startup_latency,
        })
    }

    /// The framework kind.
    pub fn kind(&self) -> FrameworkKind {
        self.params.kind
    }

    /// PID of the application process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The enclave backing the deployment, if any.
    pub fn enclave(&self) -> Option<EnclaveId> {
        self.enclave
    }

    /// Latency of creating the enclave and loading the application.
    pub fn startup_latency(&self) -> SimDuration {
        self.startup_latency
    }

    /// Totals accumulated so far.
    pub fn totals(&self) -> ExecutionTotals {
        ExecutionTotals { requests: self.requests.served.load(Ordering::Relaxed), ..self.totals }
    }

    /// A handle on the deployment's request counter, to register as a
    /// scrape target.
    pub fn request_counter(&self) -> RequestCounter {
        self.requests.clone()
    }

    fn sample_count(&mut self, expected: f64) -> u64 {
        let base = expected.floor() as u64;
        let frac = expected - base as f64;
        base + u64::from(self.rng.chance(frac))
    }

    /// Charges the cost of getting one syscall to the kernel and back under
    /// the framework's syscall path, including the kernel-side service time.
    fn forwarded_syscall(&mut self, syscall: Syscall) -> SimDuration {
        let from_enclave = self.enclave.is_some();
        let mut latency = self.kernel.syscall(self.pid, syscall, from_enclave);
        self.totals.syscalls += 1;
        match self.params.syscall_path {
            SyscallPath::Direct => {}
            SyscallPath::Asynchronous => {
                // SCONE: the enclave thread enqueues the request and an
                // untrusted thread executes it; the enclave pays the signalling
                // cost and (about half the time under load) a futex wait that
                // itself reaches the kernel.
                latency += SimDuration::from_nanos(self.params.async_signal_ns);
                latency += SimDuration::from_nanos(self.params.libos_syscall_ns);
                if self.rng.chance(0.5) {
                    latency += self.kernel.syscall(self.pid, Syscall::Futex, from_enclave);
                    self.totals.syscalls += 1;
                }
            }
            SyscallPath::SynchronousExit => {
                latency += self.transitions.record(TransitionKind::Exit);
                latency += self.transitions.record(TransitionKind::Enter);
                latency += SimDuration::from_nanos(self.params.libos_syscall_ns);
                self.totals.enclave_transitions += 2;
            }
        }
        latency
    }

    /// Executes one request with `connections` concurrent client connections
    /// (used for the contention model) and returns its server-side service
    /// time.
    pub fn execute(&mut self, req: &RequestProfile, connections: u32) -> SimDuration {
        let mut latency = SimDuration::from_nanos(req.cpu_ns + self.params.per_request_overhead_ns);

        // --- Memory accesses -------------------------------------------------
        let evicted_before = self.kernel.sgx_driver().stats().epc_pages_evicted;
        for _ in 0..req.pages_touched {
            let page = self.rng.zipf(req.working_set_pages.max(1), 0.8);
            match self.enclave {
                Some(enclave) => {
                    let page = page.min(self.enclave_pages.saturating_sub(1));
                    if let Ok((outcome, access_latency)) =
                        self.kernel.enclave_page_access(self.pid, enclave, page)
                    {
                        latency += access_latency;
                        if outcome.faulted {
                            self.totals.enclave_page_faults += 1;
                        }
                    }
                }
                None => {
                    // Native processes fault only on first touch; the paper
                    // measured essentially zero user-space page faults for
                    // native Redis, so model a tiny residual rate.
                    if self.rng.chance(0.000_05) {
                        latency += self.kernel.page_fault(self.pid, FaultKind::User, false);
                    }
                }
            }
        }
        let evicted_after = self.kernel.sgx_driver().stats().epc_pages_evicted;
        self.totals.epc_pages_evicted += evicted_after - evicted_before;

        // --- Cache behaviour --------------------------------------------------
        let miss_rate = (req.cache_miss_rate * self.params.llc_miss_factor).clamp(0.0, 1.0);
        let misses = (req.cache_references as f64 * miss_rate).round() as u64;
        let in_epc = self.enclave.is_some() && self.rng.chance(self.params.epc_access_fraction);
        latency += self.kernel.cache_access(self.pid, req.cache_references, misses, in_epc);

        // --- System calls -----------------------------------------------------
        for (syscall, expected) in &req.syscalls {
            let count = self.sample_count(*expected);
            for _ in 0..count {
                let absorbed = self.params.syscall_absorption > 0.0
                    && !matches!(
                        syscall,
                        Syscall::Recvfrom | Syscall::Sendto | Syscall::Accept | Syscall::EpollWait
                    )
                    && self.rng.chance(self.params.syscall_absorption);
                if absorbed {
                    latency += SimDuration::from_nanos(self.params.libos_syscall_ns);
                } else {
                    latency += self.forwarded_syscall(*syscall);
                }
            }
        }

        // --- Time queries (clock_gettime) --------------------------------------
        for _ in 0..req.time_queries {
            if self.params.time_in_enclave {
                latency += SimDuration::from_nanos(40);
            } else {
                latency += self.forwarded_syscall(Syscall::ClockGettime);
            }
        }

        // --- File-system page-cache operations ---------------------------------
        let cache_ops = self.sample_count(req.page_cache_ops);
        for i in 0..cache_ops {
            let op = match i % 4 {
                0 => PageCacheOp::AddToPageCacheLru,
                1 => PageCacheOp::MarkPageAccessed,
                2 => PageCacheOp::AccountPageDirtied,
                _ => PageCacheOp::MarkBufferDirty,
            };
            latency += self.kernel.page_cache_op(self.pid, op);
        }

        // --- Scheduling --------------------------------------------------------
        if self.rng.chance(req.block_probability) {
            latency += self.kernel.context_switch(self.pid, SwitchKind::Voluntary);
        }
        let extra_switches = self.sample_count(self.params.context_switches_per_request);
        for _ in 0..extra_switches {
            latency += self.kernel.context_switch(self.pid, SwitchKind::Involuntary);
        }

        // --- Contention --------------------------------------------------------
        let latency = latency.mul_f64(self.params.contention_factor(connections));

        self.requests.served.fetch_add(1, Ordering::Relaxed);
        self.totals.busy_ns += latency.as_nanos();
        self.kernel.clock().advance(latency);
        latency
    }

    /// Executes `n` identical requests and returns the mean service time.
    pub fn execute_many(&mut self, req: &RequestProfile, connections: u32, n: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for _ in 0..n {
            total += self.execute(req, connections);
        }
        if n == 0 {
            SimDuration::ZERO
        } else {
            total.div(n)
        }
    }

    /// Transition counts accumulated through synchronous exits.
    pub fn transition_counts(&self) -> TransitionCounts {
        self.transitions.counts()
    }

    /// Tears down the deployment: destroys the enclave (if any) and marks the
    /// process as exited.
    pub fn shutdown(self) {
        if let Some(enclave) = self.enclave {
            let _ = self.kernel.sgx_driver().destroy_enclave(enclave);
        }
        self.kernel.processes().exit(self.pid);
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("app", &self.app_name)
            .field("framework", &self.params.kind)
            .field("pid", &self.pid)
            .field("enclave", &self.enclave)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SconeVersion;
    use teemon_kernel_sim::ebpf::{EbpfVm, PidFilter};
    use teemon_kernel_sim::KernelConfig;
    use teemon_sgx_sim::{CostModel, EpcConfig};
    use teemon_sim_core::SimClock;

    fn kernel() -> Kernel {
        Kernel::with_config(
            SimClock::new(),
            KernelConfig::default(),
            EpcConfig::default(),
            CostModel::default(),
        )
    }

    fn small_epc_kernel(mib: u64) -> Kernel {
        let epc = EpcConfig { total_bytes: mib << 20, reserved_bytes: 0, ..EpcConfig::default() };
        Kernel::with_config(SimClock::new(), KernelConfig::default(), epc, CostModel::default())
    }

    fn get_request(db_mib: u64) -> RequestProfile {
        RequestProfile::keyvalue_get(64, db_mib * 1024 * 1024 / 4096).amortised_over_pipeline(8)
    }

    #[test]
    fn deploy_native_has_no_enclave() {
        let kernel = kernel();
        let d =
            Deployment::deploy(&kernel, FrameworkParams::native(), "redis-server", 78 << 20, 8, 1)
                .unwrap();
        assert!(d.enclave().is_none());
        assert_eq!(d.kind(), FrameworkKind::Native);
        assert_eq!(d.startup_latency(), SimDuration::ZERO);
        assert_eq!(kernel.sgx_driver().stats().enclaves_active, 0);
        d.shutdown();
    }

    #[test]
    fn the_request_counter_exports_every_executed_request() {
        let kernel = kernel();
        let mut d =
            Deployment::deploy(&kernel, FrameworkParams::native(), "redis-server", 78 << 20, 8, 1)
                .unwrap();
        // The handle is taken before the requests and still sees them.
        let counter = d.request_counter();
        d.execute_many(&get_request(78), 8, 25);
        let families = counter.scrape().unwrap();
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].name, "app_requests_total");
        assert_eq!(families[0].kind, MetricKind::Counter);
        let labels = Labels::from_pairs([("app", "redis-server")]);
        let point = families[0].point(&labels).expect("one point per application");
        assert_eq!(point.value.scalar(), 25.0);
        assert_eq!(d.totals().requests, 25);
    }

    #[test]
    fn deploy_sgx_framework_creates_enclave() {
        let kernel = kernel();
        let d = Deployment::deploy(
            &kernel,
            FrameworkParams::scone(SconeVersion::Commit09fea91),
            "redis-server",
            78 << 20,
            8,
            1,
        )
        .unwrap();
        assert!(d.enclave().is_some());
        assert!(d.startup_latency() > SimDuration::ZERO);
        assert_eq!(kernel.sgx_driver().stats().enclaves_active, 1);
        let pid = d.pid();
        d.shutdown();
        assert_eq!(kernel.sgx_driver().stats().enclaves_active, 0);
        assert!(!kernel.processes().get(pid).unwrap().alive);
    }

    #[test]
    fn zero_memory_rejected() {
        let kernel = kernel();
        assert!(matches!(
            Deployment::deploy(&kernel, FrameworkParams::native(), "x", 0, 1, 1),
            Err(DeploymentError::EmptyApplication)
        ));
    }

    #[test]
    fn framework_service_time_ordering_matches_paper() {
        // Native < SCONE < SGX-LKL < Graphene-SGX in per-request service time
        // (the inverse of the paper's throughput ordering).
        let req = get_request(78);
        let mut times = Vec::new();
        for kind in FrameworkKind::ALL {
            let kernel = kernel();
            let mut d = Deployment::deploy(
                &kernel,
                FrameworkParams::for_kind(kind),
                "redis-server",
                78 << 20,
                8,
                7,
            )
            .unwrap();
            let mean = d.execute_many(&req, 320, 2_000);
            times.push((kind, mean));
        }
        assert!(times[0].1 < times[1].1, "native {:?} !< scone {:?}", times[0].1, times[1].1);
        assert!(times[1].1 < times[2].1, "scone !< sgx-lkl");
        assert!(times[2].1 < times[3].1, "sgx-lkl !< graphene");
    }

    #[test]
    fn scone_old_commit_issues_many_clock_gettime_syscalls() {
        let req = get_request(78);
        // A release's syscall table is the eBPF syscall map filtered to its
        // process, as TEEMon's SME would load it.
        let run = |version| {
            let kernel = kernel();
            let params = FrameworkParams::scone(version);
            let mut d =
                Deployment::deploy(&kernel, params, "redis-server", 78 << 20, 8, 3).unwrap();
            let mut vm = EbpfVm::new(kernel.hooks().clone());
            let table = vm.load_standard_programs(PidFilter::Only(d.pid())).remove(0);
            d.execute_many(&req, 320, 1_000);
            let count = |syscall: Syscall| table.get(syscall.name()).unwrap_or(0);
            (count(Syscall::ClockGettime), count(Syscall::Recvfrom), d.totals().busy_ns)
        };
        let (old_clock, old_recvfrom, old_busy_ns) = run(SconeVersion::Commit572bd1a5);
        let (new_clock, _, new_busy_ns) = run(SconeVersion::Commit09fea91);

        assert!(old_clock > 1_500, "old commit should flood clock_gettime, got {old_clock}");
        assert_eq!(new_clock, 0, "new commit handles clock_gettime in-enclave");
        // And the old commit is measurably slower per request.
        assert!(old_busy_ns > new_busy_ns);
        // clock_gettime dominates read/write for the old commit (Figure 6a).
        assert!(old_clock > 5 * old_recvfrom);
    }

    #[test]
    fn database_exceeding_epc_causes_paging_for_scone() {
        // 105 MB database does not fit the ~94 MiB EPC → evictions and faults.
        let kernel = small_epc_kernel(94);
        let mut d = Deployment::deploy(
            &kernel,
            FrameworkParams::scone(SconeVersion::Commit09fea91),
            "redis-server",
            105 * 1000 * 1000,
            8,
            11,
        )
        .unwrap();
        let req = get_request(100);
        d.execute_many(&req, 320, 3_000);
        assert!(d.totals().enclave_page_faults > 0, "expected EPC paging");
        assert!(kernel.sgx_driver().stats().epc_pages_evicted > 0);

        // The same database under native execution has no enclave faults.
        let kernel_native = kernel_with_default();
        let mut native = Deployment::deploy(
            &kernel_native,
            FrameworkParams::native(),
            "redis-server",
            105 * 1000 * 1000,
            8,
            11,
        )
        .unwrap();
        native.execute_many(&req, 320, 3_000);
        assert_eq!(native.totals().enclave_page_faults, 0);
    }

    fn kernel_with_default() -> Kernel {
        kernel()
    }

    #[test]
    fn graphene_generates_most_context_switches() {
        let req = get_request(78);
        let mut switches = Vec::new();
        for kind in FrameworkKind::ALL {
            let kernel = kernel();
            let mut d = Deployment::deploy(
                &kernel,
                FrameworkParams::for_kind(kind),
                "redis-server",
                78 << 20,
                8,
                5,
            )
            .unwrap();
            d.execute_many(&req, 320, 1_000);
            switches.push((kind, kernel.counters().context_switches));
        }
        let native = switches[0].1;
        let graphene = switches[3].1;
        assert!(
            graphene > 5 * native.max(1),
            "graphene ({graphene}) should dwarf native ({native})"
        );
        // Graphene also beats SCONE and SGX-LKL on context switches.
        assert!(graphene > switches[1].1);
        assert!(graphene > switches[2].1);
    }

    #[test]
    fn synchronous_exit_frameworks_record_transitions() {
        let kernel = kernel();
        let mut d = Deployment::deploy(
            &kernel,
            FrameworkParams::graphene_sgx(),
            "redis-server",
            16 << 20,
            1,
            9,
        )
        .unwrap();
        d.execute_many(&get_request(16), 8, 200);
        assert!(d.transition_counts().exits > 0);
        assert!(d.totals().enclave_transitions > 0);

        let kernel2 = kernel_with_default();
        let mut scone = Deployment::deploy(
            &kernel2,
            FrameworkParams::scone(SconeVersion::Commit09fea91),
            "redis-server",
            16 << 20,
            8,
            9,
        )
        .unwrap();
        scone.execute_many(&get_request(16), 8, 200);
        assert_eq!(
            scone.transition_counts(),
            TransitionCounts::default(),
            "async syscalls avoid sync exits"
        );
    }

    #[test]
    fn contention_slows_graphene_with_many_connections() {
        let req = get_request(16);
        let kernel_a = kernel();
        let mut few = Deployment::deploy(
            &kernel_a,
            FrameworkParams::graphene_sgx(),
            "redis-server",
            16 << 20,
            1,
            13,
        )
        .unwrap();
        let t_few = few.execute_many(&req, 8, 500);

        let kernel_b = kernel_with_default();
        let mut many = Deployment::deploy(
            &kernel_b,
            FrameworkParams::graphene_sgx(),
            "redis-server",
            16 << 20,
            1,
            13,
        )
        .unwrap();
        let t_many = many.execute_many(&req, 580, 500);
        assert!(
            t_many > t_few.mul_f64(2.0),
            "580 connections ({t_many}) should be much slower than 8 ({t_few})"
        );
    }

    #[test]
    fn totals_track_requests_and_time() {
        let kernel = kernel();
        let mut d =
            Deployment::deploy(&kernel, FrameworkParams::native(), "redis-server", 1 << 20, 1, 2)
                .unwrap();
        d.execute_many(&get_request(1), 8, 50);
        let totals = d.totals();
        assert_eq!(totals.requests, 50);
        assert!(totals.busy_ns > 0);
        // The simulation clock advanced by the busy time.
        assert!(kernel.clock().now().as_nanos() >= totals.busy_ns);
    }
}
