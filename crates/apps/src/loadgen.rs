//! The memtier-like closed-loop load generator and benchmark engine.
//!
//! §6.5: "We make use of the memtier_benchmark suite to measure the
//! performance of Redis and configure it to use 8 concurrent threads …
//! a pipeline of 8 requests and 8 connections per client-thread."
//!
//! [`run_benchmark`] deploys an [`Application`] under a
//! framework, executes a sample of requests through the simulated kernel (so
//! that every TEEMon-observable event actually happens, and a monitor scraping
//! at the edges of the measured phase sees them) and extrapolates
//! steady-state throughput and latency with a closed-loop queueing model:
//!
//! * the server completes `parallelism / S` requests per second, where `S` is
//!   the measured mean service time,
//! * each of the `C` connections keeps `pipeline` requests outstanding, so the
//!   client side can sustain at most `C·pipeline / (pipeline·S + RTT)`,
//! * the 1 Gbit/s network caps the rate at
//!   [`NetworkModel::max_requests_per_second`],
//! * the achieved rate is the minimum of the three; latency follows from
//!   Little's law (`outstanding / throughput`).

use serde::{Deserialize, Serialize};

use teemon_frameworks::{Deployment, DeploymentError, FrameworkKind, FrameworkParams};
use teemon_kernel_sim::{Kernel, Pid};

use crate::network::NetworkModel;
use crate::spec::Application;

/// Configuration of the memtier-like load generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemtierConfig {
    /// Number of client threads (the paper uses 8).
    pub client_threads: u32,
    /// Connections per client thread (the paper uses 8, so total connections
    /// are always a multiple of 8).
    pub connections_per_thread: u32,
    /// Pipeline depth per connection (the paper uses 8).
    pub pipeline: u32,
    /// Number of requests in the measured phase, which service time is
    /// averaged over (larger = tighter estimates, slower benches).
    pub sample_requests: u64,
    /// RNG seed for the deployment's stochastic choices.
    pub seed: u64,
}

impl MemtierConfig {
    /// The paper's configuration at a given *total* connection count
    /// (`connections` is rounded down to a multiple of 8, minimum 8).
    pub fn paper_default(connections: u32) -> Self {
        let per_thread = (connections / 8).max(1);
        Self {
            client_threads: 8,
            connections_per_thread: per_thread,
            pipeline: 8,
            sample_requests: 4_000,
            seed: 42,
        }
    }

    /// Total number of client connections.
    pub(crate) fn total_connections(&self) -> u32 {
        self.client_threads * self.connections_per_thread
    }

    /// Total requests kept outstanding by the closed-loop clients.
    pub(crate) fn outstanding_requests(&self) -> u64 {
        self.total_connections() as u64 * self.pipeline as u64
    }

    /// Returns a copy with a different sample size (used by quick tests).
    #[must_use]
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.sample_requests = samples;
        self
    }
}

/// The outcome of one benchmark configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkResult {
    /// Framework the application ran under.
    pub framework: FrameworkKind,
    /// Application name.
    pub app: String,
    /// Total client connections.
    pub connections: u32,
    /// Pipeline depth.
    pub pipeline: u32,
    /// Application memory (database size) in megabytes (decimal).
    pub database_mb: u64,
    /// Achieved throughput in operations per second.
    pub throughput_iops: f64,
    /// Mean request latency in milliseconds.
    pub latency_ms: f64,
    /// Mean server-side service time in microseconds.
    pub service_time_us: f64,
    /// Requests actually simulated to obtain the estimates.
    pub sampled_requests: u64,
}

impl BenchmarkResult {
    /// Throughput in thousands of operations per second (the unit of Fig. 8).
    pub fn kiops(&self) -> f64 {
        self.throughput_iops / 1_000.0
    }
}

/// Runs one benchmark configuration: deploys `app` under `params` on `kernel`,
/// samples requests and extrapolates steady-state performance.
///
/// `at_edge` is called with the deployment's PID just before and just after
/// the measured requests, after the warm-up: a caller that observes the run
/// (scrapes a monitor, reads counters) acts there; one that does not passes
/// `|_| {}`.
///
/// # Errors
///
/// Propagates deployment failures (zero-sized application, SGX errors).
pub fn run_benchmark(
    kernel: &Kernel,
    params: FrameworkParams,
    app: &dyn Application,
    network: &NetworkModel,
    config: &MemtierConfig,
    mut at_edge: impl FnMut(Pid),
) -> Result<BenchmarkResult, DeploymentError> {
    let connections = config.total_connections();
    let request = app.request(config.pipeline, connections);

    let mut deployment = Deployment::deploy(
        kernel,
        params.clone(),
        app.name(),
        app.memory_bytes(),
        app.threads(),
        config.seed,
    )?;
    let pid = deployment.pid();

    // Warm up (populate phase): touch the working set once so that steady
    // state, not cold faults, dominates the measured phase.
    let warmup = (config.sample_requests / 10).clamp(50, 2_000);
    deployment.execute_many(&request, connections, warmup);

    // Measurement phase, between the caller's two edges.
    at_edge(pid);
    let mean_service = deployment.execute_many(&request, connections, config.sample_requests);
    at_edge(pid);

    // --- Closed-loop steady-state model ------------------------------------
    let service_s = mean_service.as_secs_f64().max(1e-9);
    let parallelism = app.threads().min(params.effective_threads).max(1) as f64;
    let server_rate = parallelism / service_s;

    let rtt = network.batch_transfer_time(&request, config.pipeline).as_secs_f64();
    let per_connection_cycle = config.pipeline as f64 * service_s / parallelism + rtt;
    let client_rate = connections as f64 * config.pipeline as f64 / per_connection_cycle;

    let network_rate = network.max_requests_per_second(&request, config.pipeline);

    let throughput = server_rate.min(client_rate).min(network_rate);
    let outstanding = config.outstanding_requests() as f64;
    let latency_s = outstanding / throughput.max(1.0);

    let result = BenchmarkResult {
        framework: params.kind,
        app: app.name().to_string(),
        connections,
        pipeline: config.pipeline,
        database_mb: app.memory_bytes() / 1_000_000,
        throughput_iops: throughput,
        latency_ms: latency_s * 1_000.0,
        service_time_us: mean_service.as_secs_f64() * 1e6,
        sampled_requests: config.sample_requests,
    };
    deployment.shutdown();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redis::RedisApp;
    use teemon_frameworks::SconeVersion;
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

    fn quick(conns: u32) -> MemtierConfig {
        MemtierConfig::paper_default(conns).with_samples(1_500)
    }

    #[test]
    fn memtier_config_matches_paper_defaults() {
        let config = MemtierConfig::paper_default(320);
        assert_eq!(config.client_threads, 8);
        assert_eq!(config.connections_per_thread, 40);
        assert_eq!(config.total_connections(), 320);
        assert_eq!(config.pipeline, 8);
        assert_eq!(config.outstanding_requests(), 2_560);
        assert_eq!(MemtierConfig::paper_default(3).total_connections(), 8);
    }

    #[test]
    fn native_redis_hits_the_network_or_cpu_limit_at_320_connections() {
        let app = RedisApp::paper_config(32);
        let result = run_benchmark(
            &kernel(),
            FrameworkParams::native(),
            &app,
            &NetworkModel::default(),
            &quick(320),
            |_| {},
        )
        .unwrap();
        // Paper: 1.01–1.2 M IOP/s.  Accept a generous band around it.
        assert!(
            result.throughput_iops > 700_000.0 && result.throughput_iops < 1_500_000.0,
            "native throughput {} outside plausible band",
            result.throughput_iops
        );
        // Paper: ~2 ms latency at 320 connections.
        assert!(
            result.latency_ms > 1.0 && result.latency_ms < 4.5,
            "native latency {} ms implausible",
            result.latency_ms
        );
        assert_eq!(result.framework, FrameworkKind::Native);
        assert_eq!(result.connections, 320);
    }

    #[test]
    fn scone_reaches_roughly_a_quarter_of_native() {
        let app = RedisApp::paper_config(32);
        let native = run_benchmark(
            &kernel(),
            FrameworkParams::native(),
            &app,
            &NetworkModel::default(),
            &quick(320),
            |_| {},
        )
        .unwrap();
        let scone = run_benchmark(
            &kernel(),
            FrameworkParams::scone(SconeVersion::Commit09fea91),
            &app,
            &NetworkModel::default(),
            &quick(560),
            |_| {},
        )
        .unwrap();
        let ratio = scone.throughput_iops / native.throughput_iops;
        assert!(
            ratio > 0.12 && ratio < 0.45,
            "SCONE/native ratio {ratio} far from the paper's ~23 %"
        );
        assert!(scone.latency_ms > native.latency_ms);
    }

    #[test]
    fn graphene_is_slowest_and_best_at_few_connections() {
        let app = RedisApp::paper_config(32);
        let at8 = run_benchmark(
            &kernel(),
            FrameworkParams::graphene_sgx(),
            &app,
            &NetworkModel::default(),
            &quick(8).with_samples(800),
            |_| {},
        )
        .unwrap();
        let at320 = run_benchmark(
            &kernel(),
            FrameworkParams::graphene_sgx(),
            &app,
            &NetworkModel::default(),
            &quick(320).with_samples(800),
            |_| {},
        )
        .unwrap();
        assert!(
            at8.throughput_iops > at320.throughput_iops,
            "Graphene should peak at 8 connections ({} vs {})",
            at8.throughput_iops,
            at320.throughput_iops
        );
        // Paper: ~20 KIOP/s peak (~1.6 % of native).
        assert!(at8.throughput_iops < 60_000.0);
        assert!(at8.throughput_iops > 4_000.0);
    }

    #[test]
    fn larger_database_reduces_scone_throughput() {
        let small = RedisApp::paper_config(32); // ~78 MB, fits EPC
        let large = RedisApp::paper_config(64); // ~105 MB, exceeds EPC
        let params = FrameworkParams::scone(SconeVersion::Commit09fea91);
        let net = NetworkModel::default();
        let run = |app: &RedisApp| {
            run_benchmark(&kernel(), params.clone(), app, &net, &quick(320), |_| {}).unwrap()
        };
        let (r_small, r_large) = (run(&small), run(&large));
        assert!(
            r_large.throughput_iops < r_small.throughput_iops,
            "paging should reduce throughput ({} !< {})",
            r_large.throughput_iops,
            r_small.throughput_iops
        );
    }

    #[test]
    fn metric_rates_are_per_100_requests() {
        let app = RedisApp::paper_config(32);
        let result = run_benchmark(
            &kernel(),
            FrameworkParams::scone(SconeVersion::Commit09fea91),
            &app,
            &NetworkModel::default(),
            &quick(320),
            |_| {},
        )
        .unwrap();
        assert!(result.kiops() > 0.0);
    }
}
