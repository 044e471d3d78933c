//! Experiment drivers regenerating every figure of the paper's evaluation.
//!
//! Each function returns structured rows (serialisable with serde); the
//! `figures` binary in `teemon-bench` prints them, and
//! `tests/golden/figures/` pins its output for Figures 5–11.
//!
//! | function | paper artefact |
//! |---|---|
//! | [`figure4`] | Fig. 4a/4b — CPU & memory footprint of teemon's own stack |
//! | [`figure5`] | Fig. 5 — monitoring overhead on MongoDB / NGINX / Redis |
//! | [`figure6`] | Fig. 6 — syscall mix of two SCONE releases running Redis |
//! | [`figure7`] | Fig. 7 — Redis throughput across SCONE code evolution |
//! | [`figure8_9`] | Fig. 8/9/10 — throughput & latency of Redis under each framework |
//! | [`figure11`] | Fig. 11a–f — per-100-request metric rates per framework |
//!
//! Figures 6 and 11 are what a `Full` monitor saw: each count is the
//! difference of two instant TeeQL reads of an exporter series, scraped at
//! the edges of the measured requests.

use std::io::{Read, Seek};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use teemon_analysis::pman_alerts;
use teemon_apps::{
    run_benchmark, Application, MemtierConfig, MongoApp, NetworkModel, NginxApp, RedisApp,
};
use teemon_exporters::ContainerSpec;
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams, SconeVersion};
use teemon_kernel_sim::{Kernel, Pid, Syscall};
use teemon_query::QueryEngine;
use teemon_tsdb::{ScrapeTargetConfig, StorageStats};

use crate::monitor::{HostMonitor, MonitorBuilder, MonitoringMode};
use crate::overhead::paper_stack_throughput_factor;

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Requests Redis serves between two scrape rounds of [`figure4`].
pub const FIG4_REQUESTS_PER_ROUND: u64 = 5;

/// Figure 4 as teemon measures it (see [`figure4`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4 {
    /// Virtual hours the run spanned.
    pub hours: f64,
    /// Scrape rounds run.
    pub rounds: u64,
    /// Containers cAdvisor exported at the end of the run.
    pub containers: u64,
    /// Samples stored per scrape round, averaged over the run.
    pub samples_per_scrape: f64,
    /// Per activity of the loop: its name, the windows it was timed in, and
    /// its CPU seconds net of the clock reads in them.
    pub activities: Vec<(String, u64, f64)>,
    /// The store's `stats()` at the end of the run.
    pub stats: StorageStats,
    /// CPU seconds of the whole loop.
    pub thread_cpu_s: f64,
    /// CPU seconds of Redis's requests inside the loop.
    pub app_cpu_s: f64,
    /// Reads of the thread's CPU clock inside the loop.
    pub reads: u64,
    /// CPU seconds one read costs, calibrated in the same run.
    pub read_cost_s: f64,
}

impl Fig4 {
    /// The loop's CPU seconds that no activity, request or clock read holds.
    pub fn residual_s(&self) -> f64 {
        let activities: f64 = self.activities.iter().map(|a| a.2).sum();
        self.thread_cpu_s - activities - self.app_cpu_s - self.reads as f64 * self.read_cost_s
    }
}

/// The first field of `/proc/thread-self/schedstat`, the nanoseconds this
/// thread has run, and a count of its reads.  The kernel brings a running
/// thread's figure up to date only at scheduler ticks, so a short window
/// reads nothing or a whole tick: a total over many windows is a sample.
struct ThreadClock(std::fs::File, u64);

impl ThreadClock {
    fn now_ns(&mut self) -> u64 {
        // Three numbers on one line: one read returns the whole file.
        let mut buf = [0u8; 96];
        self.0.rewind().expect("rewind /proc/thread-self/schedstat");
        let n = self.0.read(&mut buf).expect("read /proc/thread-self/schedstat");
        self.1 += 1;
        let text = std::str::from_utf8(&buf[..n]).unwrap_or_default();
        text.split(' ').next().and_then(|ns| ns.parse().ok()).expect("schedstat's run time")
    }

    /// Reads until the figure moves past `seen`.
    fn next_update(&mut self, seen: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now != seen {
                return now;
            }
        }
    }

    /// The CPU nanoseconds one read costs: the reads between two updates of
    /// the figure, at least ten updates and a thousand reads apart.
    fn read_cost_ns(&mut self) -> f64 {
        let seen = self.now_ns();
        let (start, first_read) = (self.next_update(seen), self.1);
        let (mut at, mut updates) = (start, 0);
        while updates < 10 || self.1 - first_read < 1_000 {
            at = self.next_update(at);
            updates += 1;
        }
        (at - start) as f64 / (self.1 - first_read) as f64
    }

    /// Runs `f`, adding a window and the nanoseconds it read to `tally`.
    fn time<T>(&mut self, tally: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        *tally = (tally.0 + 1, tally.1 + self.now_ns() - start);
        out
    }
}

/// Runs the Figure 4 experiment on teemon's own stack for `hours` of virtual
/// time: one `Full` host set up as `quickstart` (scrapes every 5 s, cAdvisor
/// every 15 s) on a durable store in a scratch directory removed afterwards.
/// Redis (`paper_config(64)`, past the EPC limit) runs under SCONE,
/// registered with cAdvisor, and serves [`FIG4_REQUESTS_PER_ROUND`] requests
/// between rounds.  Timed on the thread's CPU clock: collection + ingest +
/// WAL, the rule tick (PMAN's group included), retention at the monitoring
/// loop's cadence, and a refresh of every standard dashboard over the last
/// hour every 60 s.  The paper stack's rows are
/// [`crate::overhead::PAPER_STACK_REFERENCE`].
///
/// Only the CPU figures and `stats.resident_bytes` differ between two runs
/// in a process of their own: the self-scrape target stores the engine's
/// wall-clock timings, which compress differently each time, and
/// process-wide probes, which other threads move.
///
/// # Panics
///
/// When `/proc/thread-self/schedstat` cannot be read (the run needs Linux)
/// or the store cannot be opened in the temp directory.
pub fn figure4(hours: f64) -> Fig4 {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("teemon-fig4-{}-{run}", std::process::id()));
    let fig = run_figure4(hours, &dir).0;
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&dir);
    fig
}

fn run_figure4(hours: f64, dir: &std::path::Path) -> (Fig4, HostMonitor) {
    let host = MonitorBuilder::new("worker-1")
        .mode(MonitoringMode::Full)
        .scrape_interval_ms(5_000)
        .exporter_interval_ms("cadvisor", 15_000)
        .with_durability(dir)
        .build();
    let app = RedisApp::paper_config(64);
    let params = FrameworkParams::for_kind(FrameworkKind::Scone);
    let (name, memory_limit_bytes) = (app.name(), app.memory_bytes());
    let mut redis =
        Deployment::deploy(host.kernel(), params, name, memory_limit_bytes, app.threads(), 42)
            .expect("deploy Redis");
    let image = "sconecuratedimages/redis:5-scone".into();
    let pid = redis.pid().as_u32();
    host.register_container(ContainerSpec { name: name.into(), image, pid, memory_limit_bytes });
    let (request, dashboards) = (app.request(8, 320), teemon_dashboard::standard());
    let (db, clock) = (host.db(), host.kernel().clock());
    let interval_ms = host.scraper().interval_ms();
    let rounds = (hours * 3_600_000.0 / interval_ms as f64).round() as u64;

    let file = std::fs::File::open("/proc/thread-self/schedstat").expect("open schedstat");
    let mut cpu = ThreadClock(file, 0);
    let read_cost_ns = cpu.read_cost_ns();
    let (mut tallies, mut app_tally, mut samples) = ([(0, 0); 4], (0, 0), 0);
    let (start_ms, first_read, start_ns) = (clock.now_millis(), cpu.1, cpu.now_ns());
    for round in 1..=rounds {
        cpu.time(&mut app_tally, || {
            for _ in 0..FIG4_REQUESTS_PER_ROUND {
                redis.execute(&request, 320);
            }
        });
        clock.advance(teemon_sim_core::SimDuration::from_millis(interval_ms));
        let now = clock.now_millis();
        samples += cpu.time(&mut tallies[0], || host.scraper().scrape_round_due(now)).samples_added;
        cpu.time(&mut tallies[1], || host.rules().evaluate_due(now));
        if host.retention_due(now) {
            cpu.time(&mut tallies[2], || db.apply_retention());
        }
        // Every 60 s, every standard dashboard over the last hour.
        if round % (60_000 / interval_ms) == 0 {
            cpu.time(&mut tallies[3], || {
                for dashboard in &dashboards.dashboards {
                    dashboard.render(db, now.saturating_sub(3_600_000), now, 64);
                }
            });
        }
    }
    let thread_ns = cpu.now_ns() - start_ns;

    // A window that read no scheduler tick comes out below zero by its reads.
    let net_s = |(runs, ns): (u64, u64)| ((ns as f64 - runs as f64 * read_cost_ns) / 1e9).max(0.0);
    let names =
        ["collection + ingest + WAL", "rule tick (PMAN group)", "retention", "dashboard refresh"];
    let activities =
        names.iter().zip(tallies).map(|(n, t)| (n.to_string(), t.0, net_s(t))).collect();
    let count = "count(container_spec_memory_limit_bytes)";
    let fig = Fig4 {
        hours: (clock.now_millis() - start_ms) as f64 / 3_600_000.0,
        rounds,
        containers: instant(&QueryEngine::new(db.clone()), count, clock.now_millis()) as u64,
        samples_per_scrape: samples as f64 / rounds.max(1) as f64,
        activities,
        stats: db.stats(),
        thread_cpu_s: thread_ns as f64 / 1e9,
        app_cpu_s: net_s(app_tally),
        reads: cpu.1 - first_read,
        read_cost_s: read_cost_ns / 1e9,
    };
    (fig, host)
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// One bar of Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Application name.
    pub app: String,
    /// Monitoring configuration label (as in the paper's legend).
    pub configuration: String,
    /// Throughput in operations per second.
    pub throughput_iops: f64,
    /// Throughput normalised to the unmonitored ("Monitoring OFF") run.
    pub normalized: f64,
}

fn mode_label(mode: MonitoringMode) -> &'static str {
    match mode {
        MonitoringMode::Off => "Monitoring OFF",
        MonitoringMode::EbpfOnly => "Monitoring OFF + eBPF ON",
        MonitoringMode::Full => "Monitoring ON",
    }
}

/// Runs the Figure 5 experiment: each application under SCONE, in the three
/// monitoring configurations, normalised against the unmonitored run.
pub fn figure5(samples: u64) -> Vec<Fig5Row> {
    let apps: Vec<(String, Box<dyn Application>)> = vec![
        ("mongodb".into(), Box::new(MongoApp::default_collection())),
        ("nginx".into(), Box::new(NginxApp::small_site())),
        ("redis".into(), Box::new(RedisApp::paper_config(32))),
    ];
    // Single-host (loopback) benchmark so the server, not the NIC, is the
    // bottleneck: on the 1 Gb/s default link NGINX's ~8 KB responses cap
    // throughput at the wire rate in every configuration, hiding the CPU-side
    // monitoring overhead this experiment exists to measure.
    let network = NetworkModel::loopback();
    let params = FrameworkParams::scone(SconeVersion::Commit09fea91);
    let mut rows = Vec::new();
    for (name, app) in &apps {
        let mut baseline = None;
        for mode in [MonitoringMode::Off, MonitoringMode::EbpfOnly, MonitoringMode::Full] {
            let host = MonitorBuilder::new("bench-node").mode(mode).build();
            let config = MemtierConfig::paper_default(320).with_samples(samples);
            let result = run_benchmark(
                host.kernel(),
                params.clone(),
                app.as_ref(),
                &network,
                &config,
                |_| {},
            )
            .expect("benchmark");
            // Full monitoring additionally competes for CPU in user space.
            let factor = paper_stack_throughput_factor(mode);
            let throughput = result.throughput_iops * factor;
            let baseline_value = *baseline.get_or_insert(throughput);
            rows.push(Fig5Row {
                app: name.clone(),
                configuration: mode_label(mode).to_string(),
                throughput_iops: throughput,
                normalized: throughput / baseline_value,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 6 and 7
// ---------------------------------------------------------------------------

/// One bar of Figure 6: occurrences per second of one syscall under one SCONE
/// release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// SCONE commit hash.
    pub commit: String,
    /// Syscall name.
    pub syscall: String,
    /// Occurrences per second of the server's busy time.
    pub per_second: f64,
}

/// One bar of Figure 7: Redis throughput under one SCONE release (plus the
/// native reference).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Configuration label (commit hash or `native`).
    pub configuration: String,
    /// Throughput in IOP/s on a single host (loopback) benchmark.
    pub throughput_iops: f64,
}

/// Runs the Figure 6 experiment: the syscall mix of Redis under the two SCONE
/// releases, each read from `teemon_syscalls_total{syscall="…"}` on its own
/// `Full` host, per second of busy time (which the eBPF programs lengthen).
pub fn figure6(samples: u64) -> Vec<Fig6Row> {
    use Syscall::{ClockGettime, EpollWait, Futex, Recvfrom, Sendto};
    let app = RedisApp::paper_config(32);
    let mut rows = Vec::new();
    for version in [SconeVersion::Commit572bd1a5, SconeVersion::Commit09fea91] {
        let host = MonitorBuilder::new("bench-node").mode(MonitoringMode::Full).build();
        let mut deployment = Deployment::deploy(
            host.kernel(),
            FrameworkParams::scone(version),
            app.name(),
            app.memory_bytes(),
            app.threads(),
            17,
        )
        .expect("deploy");
        let start = scrape_edge(&host);
        deployment.execute_many(&app.request(8, 320), 320, samples);
        let edges = [start, scrape_edge(&host)];
        let elapsed_s = (deployment.totals().busy_ns as f64 / 1e9).max(1e-9);
        let engine = QueryEngine::new(host.db().clone());
        for syscall in [ClockGettime, Futex, Recvfrom, Sendto, EpollWait] {
            let series = format!(r#"teemon_syscalls_total{{syscall="{syscall}"}}"#);
            rows.push(Fig6Row {
                commit: version.commit_hash().to_string(),
                syscall: syscall.name().to_string(),
                per_second: increase(&engine, &series, edges) / elapsed_s,
            });
        }
    }
    rows
}

/// Runs the Figure 7 experiment: Redis throughput on a single host for the two
/// SCONE releases and native execution.
pub fn figure7(samples: u64) -> Vec<Fig7Row> {
    let app = RedisApp::paper_config(32);
    let network = NetworkModel::loopback();
    let config = MemtierConfig::paper_default(64).with_samples(samples);
    let mut rows = Vec::new();
    for (label, params) in [
        ("572bd1a5".to_string(), FrameworkParams::scone(SconeVersion::Commit572bd1a5)),
        ("09fea91".to_string(), FrameworkParams::scone(SconeVersion::Commit09fea91)),
        ("native".to_string(), FrameworkParams::native()),
    ] {
        let result = run_benchmark(&Kernel::new(), params, &app, &network, &config, |_| {})
            .expect("benchmark");
        rows.push(Fig7Row { configuration: label, throughput_iops: result.throughput_iops });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 8, 9 and 10
// ---------------------------------------------------------------------------

/// One point of Figures 8/9/10: a framework × database size × connection count
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkSweepRow {
    /// Framework name.
    pub framework: String,
    /// Database size label in MB (78 / 105 / 127).
    pub database_mb: u64,
    /// Total client connections.
    pub connections: u32,
    /// Throughput in thousands of operations per second (Figure 8).
    pub kiops: f64,
    /// Mean latency in milliseconds (Figure 9).
    pub latency_ms: f64,
}

/// The connection counts swept in the paper's figures.
pub const PAPER_CONNECTIONS: [u32; 6] = [8, 80, 160, 320, 560, 800];

/// Runs the Figures 8/9 sweep: every framework × database size × connection
/// count.  Figure 10 is the 78 MB slice of the same data.
pub fn figure8_9(samples: u64, connections: &[u32]) -> Vec<FrameworkSweepRow> {
    let mut rows = Vec::new();
    let network = NetworkModel::default();
    for kind in FrameworkKind::ALL {
        for (db_label, app) in RedisApp::paper_database_sizes() {
            for &conns in connections {
                let config = MemtierConfig::paper_default(conns).with_samples(samples);
                let result = run_benchmark(
                    &Kernel::new(),
                    FrameworkParams::for_kind(kind),
                    &app,
                    &network,
                    &config,
                    |_| {},
                )
                .expect("benchmark");
                rows.push(FrameworkSweepRow {
                    framework: kind.name().to_string(),
                    database_mb: db_label,
                    connections: conns,
                    kiops: result.kiops(),
                    latency_ms: result.latency_ms,
                });
            }
        }
    }
    rows
}

/// The Figure 10 slice: only the 78 MB database.
pub fn figure10(samples: u64, connections: &[u32]) -> Vec<FrameworkSweepRow> {
    figure8_9(samples, connections).into_iter().filter(|r| r.database_mb == 78).collect()
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// Event rates per 100 requests, the unit of Figure 11, each read through the
/// monitor from the exporter series its field names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricRates {
    /// Figure 11a: `teemon_page_faults_total{scope="user"}`.
    pub user_page_faults: f64,
    /// Figure 11b, the whole host's page faults: `node_vmstat_pgfault_total`.
    pub total_page_faults: f64,
    /// Figure 11c: `teemon_cache_events_total{event="misses"}`.
    pub llc_misses: f64,
    /// Figure 11d: `sgx_pages_evicted_total`.
    pub evicted_epc_pages: f64,
    /// Figure 11e: `teemon_context_switches_total{scope="pid_<application pid>"}`.
    pub context_switches_pid: f64,
    /// Figure 11f: `teemon_context_switches_total{scope="host_total"}`.
    pub context_switches_host: f64,
    /// System calls: `sum(teemon_syscalls_total)`.
    pub syscalls: f64,
}

/// One group of bars of Figure 11: the per-100-request metric rates for one
/// framework at one (connections, database size) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Framework name.
    pub framework: String,
    /// Total client connections (8 / 320 / 580 in the paper).
    pub connections: u32,
    /// Database size label in MB (78 = "S", 105 = "L" in the paper).
    pub database_mb: u64,
    /// The per-100-request rates (Figures 11a–f).
    pub rates: MetricRates,
}

/// Runs `app` under `params` on a fresh `Full` host, scraping it just before
/// and just after the measured requests, with the deployment's request
/// counter a target from the first scrape on.  The measured phase is shorter
/// than PMAN's one-minute cadence, so the monitoring loop then runs on for
/// one cadence: the group evaluates after the phase, over a trailing window
/// whose first sample is the first edge's, after the warm-up.  Returns the
/// host, the deployment's PID and the times of the two edge scrapes.
fn monitored_run(
    params: FrameworkParams,
    app: &RedisApp,
    config: &MemtierConfig,
) -> (HostMonitor, Pid, [u64; 2]) {
    let host = MonitorBuilder::new("bench-node").mode(MonitoringMode::Full).build();
    let mut edges = Vec::with_capacity(2);
    run_benchmark(host.kernel(), params, app, &NetworkModel::default(), config, |deployment| {
        if edges.is_empty() {
            let target = ScrapeTargetConfig::new("app", "bench-node:app");
            host.scraper().add_target(target, Arc::new(deployment.request_counter()));
        }
        edges.push((deployment.pid(), scrape_edge(&host)));
    })
    .expect("benchmark");
    host.run_scrape_loop(pman_alerts().interval_ms.div_ceil(host.scraper().interval_ms()));
    let [(pid, start), (_, end)] = edges[..] else { unreachable!("a run has two edges") };
    (host, pid, [start, end])
}

/// Scrapes `host` a millisecond on and returns the scrape's time: a short
/// phase can move the clock by less than a millisecond, and a second scrape
/// in the same millisecond would store no new point.
fn scrape_edge(host: &HostMonitor) -> u64 {
    host.kernel().clock().advance(teemon_sim_core::SimDuration::from_millis(1));
    host.scrape_tick();
    host.kernel().clock().now_millis()
}

/// `expr`'s first value at `at` through TeeQL; 0 when it has none.
fn instant(engine: &QueryEngine, expr: &str, at: u64) -> f64 {
    let value = engine.instant_query(expr, at).ok();
    value.and_then(|v| Some(v.as_vector()?.first()?.value)).unwrap_or(0.0)
}

/// How much `sum(<series>)` rose from the first edge to the second.
fn increase(engine: &QueryEngine, series: &str, [start, end]: [u64; 2]) -> f64 {
    let sum = format!("sum({series})");
    instant(engine, &sum, end) - instant(engine, &sum, start)
}

/// The Figure 11 rates of one configuration as the monitor saw them: each is
/// the difference of two instant TeeQL reads of an exporter series, taken at
/// the edges of the measured phase, per 100 requests.
fn figure11_rates(params: FrameworkParams, app: &RedisApp, config: &MemtierConfig) -> MetricRates {
    let (host, pid, edges) = monitored_run(params, app, config);
    let engine = QueryEngine::new(host.db().clone());
    let per_100 =
        |series: &str| increase(&engine, series, edges) * 100.0 / config.sample_requests as f64;
    MetricRates {
        user_page_faults: per_100(r#"teemon_page_faults_total{scope="user"}"#),
        total_page_faults: per_100("node_vmstat_pgfault_total"),
        llc_misses: per_100(r#"teemon_cache_events_total{event="misses"}"#),
        evicted_epc_pages: per_100("sgx_pages_evicted_total"),
        context_switches_pid: per_100(&format!(
            r#"teemon_context_switches_total{{scope="pid_{pid}"}}"#
        )),
        context_switches_host: per_100(r#"teemon_context_switches_total{scope="host_total"}"#),
        syscalls: per_100("teemon_syscalls_total"),
    }
}

/// Runs the Figure 11 experiment: every framework at 8, 320 and 580
/// connections on the 78 and 105 MB databases, each read through a `Full`
/// monitor (see [`MetricRates`]).
pub fn figure11(samples: u64) -> Vec<Fig11Row> {
    let [small, large, _] = RedisApp::paper_database_sizes();
    let mut rows = Vec::new();
    for kind in FrameworkKind::ALL {
        for conns in [8, 320, 580] {
            for (db_mb, app) in [&small, &large] {
                let config = MemtierConfig::paper_default(conns).with_samples(samples);
                rows.push(Fig11Row {
                    framework: kind.name().to_string(),
                    connections: conns,
                    database_mb: *db_mb,
                    rates: figure11_rates(FrameworkParams::for_kind(kind), app, &config),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Rendering helpers shared by the fig* binaries
// ---------------------------------------------------------------------------

/// Renders rows of any serialisable experiment output as pretty JSON.
pub fn to_json<T: Serialize>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).unwrap_or_else(|_| "[]".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 400;

    /// Fifteen virtual minutes: 180 rounds, 15 dashboard refreshes.
    const SHORT_HOURS: f64 = 0.25;

    #[test]
    fn figure4_reproduces_component_shape() {
        let reference = crate::overhead::PAPER_STACK_REFERENCE;
        let total_memory: f64 = reference.iter().map(|r| r.2).sum();
        assert!((500.0..1_000.0).contains(&total_memory));
        assert!(reference.iter().all(|r| r.1 < 5.0));

        let fig = figure4(SHORT_HOURS);
        assert_eq!(fig.rounds, 180);
        let runs: Vec<u64> = fig.activities.iter().map(|a| a.1).collect();
        assert_eq!(runs, [180, 180, 0, 15], "retention is due every 90 min");
        let span_s = fig.hours * 3_600.0;
        assert!(fig.activities.iter().all(|a| a.2 / span_s * 100.0 < 5.0));
        assert_eq!(fig.containers, 1);
        assert!(fig.samples_per_scrape > 100.0, "{}", fig.samples_per_scrape);
        let store_mb = fig.stats.total_bytes() as f64 / 1e6;
        assert!(store_mb > 0.0 && store_mb < 346.4, "teemon's store holds {store_mb} MB");
    }

    #[test]
    fn figure4_memory_rows_are_the_stores_stats() {
        let dir =
            std::env::temp_dir().join(format!("teemon-figure4-memory-rows-{}", std::process::id()));
        let (fig, host) = run_figure4(SHORT_HOURS, &dir);
        assert_eq!(fig.stats, host.db().stats());
        assert!(fig.stats.series > 0 && fig.stats.series_bytes > 0);
        drop(host);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figure4_cpu_reconciles_with_the_thread_total() {
        let fig = figure4(SHORT_HOURS);
        let residual = fig.residual_s();
        println!(
            "loop {:.4} s, application {:.4} s, {} reads x {:.3} us, residual {residual:.4} s",
            fig.thread_cpu_s,
            fig.app_cpu_s,
            fig.reads,
            fig.read_cost_s * 1e6
        );
        assert!(fig.thread_cpu_s > 0.0);
        assert!(
            residual.abs() <= 0.1 * fig.thread_cpu_s,
            "residual {residual} s of {} s",
            fig.thread_cpu_s
        );
    }

    #[test]
    fn figure5_overhead_is_within_paper_band() {
        let rows = figure5(QUICK);
        assert_eq!(rows.len(), 9);
        for row in rows.iter().filter(|r| r.configuration == "Monitoring ON") {
            assert!(
                row.normalized > 0.75 && row.normalized <= 1.0,
                "{}: monitored throughput {} of baseline, expected 0.83–0.95",
                row.app,
                row.normalized
            );
        }
        // eBPF-only sits between OFF and full monitoring.
        for app in ["mongodb", "nginx", "redis"] {
            let off = rows
                .iter()
                .find(|r| r.app == app && r.configuration == "Monitoring OFF")
                .unwrap()
                .normalized;
            let ebpf = rows
                .iter()
                .find(|r| r.app == app && r.configuration == "Monitoring OFF + eBPF ON")
                .unwrap()
                .normalized;
            let full = rows
                .iter()
                .find(|r| r.app == app && r.configuration == "Monitoring ON")
                .unwrap()
                .normalized;
            assert!(off >= ebpf && ebpf >= full, "{app}: {off} >= {ebpf} >= {full} violated");
        }
    }

    #[test]
    fn figure6_clock_gettime_dominates_only_in_old_commit() {
        let rows = figure6(QUICK);
        let clock_old = rows
            .iter()
            .find(|r| r.commit == "572bd1a5" && r.syscall == "clock_gettime")
            .unwrap()
            .per_second;
        let read_old = rows
            .iter()
            .find(|r| r.commit == "572bd1a5" && r.syscall == "recvfrom")
            .unwrap()
            .per_second;
        let clock_new = rows
            .iter()
            .find(|r| r.commit == "09fea91" && r.syscall == "clock_gettime")
            .unwrap()
            .per_second;
        assert!(clock_old > 10.0 * read_old.max(1.0), "old commit: clock_gettime must dominate");
        assert!(clock_new < clock_old / 100.0, "new commit handles clock_gettime in-enclave");
    }

    /// The instances of `rule` the monitoring loop stored as firing.
    fn fired(host: &HostMonitor, rule: &str) -> Vec<teemon_metrics::Labels> {
        let anomalies = teemon_analysis::detect_anomalies(host.db(), 0, u64::MAX);
        let mut labels: Vec<_> =
            anomalies.into_iter().filter(|a| a.rule == rule).map(|a| a.labels).collect();
        labels.dedup();
        labels
    }

    #[test]
    fn pman_flags_clock_gettime_only_in_old_commit() {
        // §6.4: the monitor's syscall statistics are how the regression was
        // found.  PMAN's loop judges them over the measured phase at 320
        // connections.
        let app = RedisApp::paper_config(32);
        let config = MemtierConfig::paper_default(320).with_samples(QUICK);
        let diagnose = |version| {
            let (host, _, _) = monitored_run(FrameworkParams::scone(version), &app, &config);
            fired(&host, "syscall_dominance")
        };
        let clock_gettime = teemon_metrics::Labels::from_pairs([("syscall", "clock_gettime")]);
        assert_eq!(diagnose(SconeVersion::Commit572bd1a5), [clock_gettime]);
        assert_eq!(diagnose(SconeVersion::Commit09fea91), []);
    }

    #[test]
    fn pman_storm_rule_fires_for_graphene_sgx_only() {
        // §6.5: Graphene-SGX's host interaction, not the EPC, is its
        // bottleneck.  Over every Figure 11 configuration the per-request
        // storm rule fires for Graphene-SGX and for no other framework —
        // SGX-LKL at 105 MB included, whose ksgxswapd switches (one per
        // eviction) the rule leaves to `epc_thrashing`.
        let [small, large, _] = RedisApp::paper_database_sizes();
        for kind in FrameworkKind::ALL {
            for conns in [8, 320, 580] {
                for (db_mb, app) in [&small, &large] {
                    let config = MemtierConfig::paper_default(conns).with_samples(QUICK);
                    let (host, _, _) = monitored_run(FrameworkParams::for_kind(kind), app, &config);
                    let stormy = !fired(&host, "context_switch_storm_per_request").is_empty();
                    assert_eq!(
                        stormy,
                        kind == FrameworkKind::GrapheneSgx,
                        "{} at {conns} connections, {db_mb} MB",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn figure7_new_commit_roughly_doubles_throughput() {
        let rows = figure7(QUICK);
        let old = rows.iter().find(|r| r.configuration == "572bd1a5").unwrap().throughput_iops;
        let new = rows.iter().find(|r| r.configuration == "09fea91").unwrap().throughput_iops;
        let native = rows.iter().find(|r| r.configuration == "native").unwrap().throughput_iops;
        let speedup = new / old;
        assert!(
            (1.4..3.5).contains(&speedup),
            "expected roughly 2x speedup from the clock_gettime fix, got {speedup}"
        );
        assert!(native > new, "native Redis must still beat SCONE");
    }

    #[test]
    fn figure8_preserves_the_framework_ordering() {
        let rows = figure8_9(QUICK, &[320]);
        let at = |fw: &str, db: u64| {
            rows.iter()
                .find(|r| r.framework == fw && r.database_mb == db && r.connections == 320)
                .unwrap()
        };
        let native = at("native", 78);
        let scone = at("scone", 78);
        let lkl = at("sgx-lkl", 78);
        let graphene = at("graphene-sgx", 78);
        assert!(native.kiops > scone.kiops);
        assert!(scone.kiops > lkl.kiops);
        assert!(lkl.kiops > graphene.kiops);
        // Latency ordering is the inverse (Figure 9).
        assert!(native.latency_ms < scone.latency_ms);
        assert!(scone.latency_ms < lkl.latency_ms);
        assert!(lkl.latency_ms < graphene.latency_ms);
        // Paging hurts SCONE when the database exceeds the EPC (Figure 8b).
        assert!(at("scone", 105).kiops < at("scone", 78).kiops);
        // Figure 10 is the 78 MB slice.
        let fig10 = figure10(QUICK, &[320]);
        assert!(fig10.iter().all(|r| r.database_mb == 78));
        assert_eq!(fig10.len(), 4);
    }

    #[test]
    fn figure11_metric_signatures_match_paper_qualitatively() {
        let rows = figure11(QUICK);
        let at = |fw: &str, conns: u32, db: u64| {
            rows.iter()
                .find(|r| r.framework == fw && r.connections == conns && r.database_mb == db)
                .unwrap()
        };
        // (a) native Redis causes essentially no user-space page faults.
        assert!(at("native", 320, 105).rates.user_page_faults < 1.0);
        // (d) SCONE evicts far more EPC pages than the others at 105 MB.
        let scone_evict = at("scone", 580, 105).rates.evicted_epc_pages;
        assert!(scone_evict > 0.0);
        assert!(scone_evict >= at("graphene-sgx", 580, 105).rates.evicted_epc_pages / 10.0);
        // Small databases fitting the EPC do not evict under SCONE.
        assert_eq!(at("scone", 320, 78).rates.evicted_epc_pages, 0.0);
        // (c) every SGX framework has more LLC misses than native.
        for fw in ["scone", "sgx-lkl", "graphene-sgx"] {
            assert!(
                at(fw, 320, 78).rates.llc_misses > at("native", 320, 78).rates.llc_misses,
                "{fw} should miss more than native"
            );
        }
        // (f) Graphene-SGX causes by far the most host context switches.
        let graphene_cs = at("graphene-sgx", 580, 105).rates.context_switches_host;
        for fw in ["native", "scone", "sgx-lkl"] {
            assert!(
                graphene_cs > 2.0 * at(fw, 580, 105).rates.context_switches_host,
                "graphene ({graphene_cs}) vs {fw}"
            );
        }
    }

    #[test]
    fn figure11_rates_are_the_kernels_counts() {
        // The reference is the kernel's own counters read around the same
        // measured phase on a kernel no monitor is attached to.  The PID's
        // switches have no host-wide counter to compare with.
        let app = RedisApp::paper_config(64);
        let config = MemtierConfig::paper_default(320).with_samples(QUICK);
        let network = NetworkModel::default();
        let per_100 = |delta: u64| delta as f64 * 100.0 / QUICK as f64;
        for kind in FrameworkKind::ALL {
            let params = FrameworkParams::for_kind(kind);
            let monitored = figure11_rates(params.clone(), &app, &config);
            let (kernel, mut reads) = (Kernel::new(), Vec::new());
            run_benchmark(&kernel, params, &app, &network, &config, |_| {
                reads.push((kernel.counters(), kernel.sgx_driver().stats().epc_pages_evicted));
            })
            .unwrap();
            let [(before, evicted_before), (after, evicted_after)] = reads[..] else {
                panic!("two edges, not {}", reads.len())
            };
            let direct = MetricRates {
                user_page_faults: per_100(after.page_faults_user - before.page_faults_user),
                total_page_faults: per_100(after.page_faults_total() - before.page_faults_total()),
                llc_misses: per_100(after.llc_misses - before.llc_misses),
                evicted_epc_pages: per_100(evicted_after - evicted_before),
                context_switches_pid: monitored.context_switches_pid,
                context_switches_host: per_100(after.context_switches - before.context_switches),
                syscalls: per_100(after.syscalls - before.syscalls),
            };
            assert_eq!(monitored, direct, "{}", kind.name());
        }
    }

    #[test]
    fn figure11_rates_follow_the_database_size() {
        let config = MemtierConfig::paper_default(320).with_samples(QUICK);
        let [(_, small), (_, large), _] = RedisApp::paper_database_sizes();
        let scone = || FrameworkParams::scone(SconeVersion::Commit09fea91);
        let (small, large) =
            (figure11_rates(scone(), &small, &config), figure11_rates(scone(), &large, &config));
        // Only the database past the EPC evicts and faults in user space.
        assert!(large.evicted_epc_pages > small.evicted_epc_pages);
        assert!(large.user_page_faults > 0.0);
        assert_eq!(small.evicted_epc_pages, 0.0);
        assert!(small.syscalls > 0.0);
        assert!(small.llc_misses > 0.0);
        assert!(small.context_switches_host >= small.context_switches_pid);
    }

    #[test]
    fn experiment_rows_serialise_to_json() {
        let json = to_json(&figure4(SHORT_HOURS));
        assert!(json.contains("samples_per_scrape"));
        let json = to_json(&figure7(200));
        assert!(json.contains("09fea91"));
    }
}
