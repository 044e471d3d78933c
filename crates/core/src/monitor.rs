//! The TEEMon façade: a monitored host, a monitored cluster, and the
//! [`MonitorBuilder`] that assembles them.
//!
//! Monitoring is composed, not hard-wired: the builder picks which exporters
//! to deploy (the [`MonitoringMode`] presets reproduce the three
//! configurations of §6.3), lets callers plug additional [`Collector`]s in
//! and set per-target scrape intervals.  Every exporter is scraped typed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use teemon_analysis::{pman_alerts, Analyzer};
use teemon_dashboard::{standard, DashboardSet};
use teemon_exporters::{
    Collector, ContainerExporter, ContainerSpec, EbpfExporter, NodeExporter, SgxExporter,
};
use teemon_kernel_sim::Kernel;
use teemon_orchestrator::{Cluster, HelmChart, ServiceDiscovery};
use teemon_query::{RuleEngine, RuleGroup};
use teemon_tsdb::{ScrapeTargetConfig, Scraper, TimeSeriesDb, TsdbConfig};

/// The monitoring loop runs a retention pass each time scraped time has
/// advanced this fraction of [`TsdbConfig::retention_ms`] since the last one:
/// aged chunks are dropped, fully aged series leave the index, and series
/// that stopped receiving samples give their head buffers back — without it
/// a deployed monitor grows without bound.
const RETENTION_PASSES_PER_WINDOW: u64 = 16;

/// Which parts of TEEMon are active — the three configurations of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MonitoringMode {
    /// "Monitoring OFF": nothing attached, the baseline.
    Off,
    /// "Monitoring OFF + eBPF ON": only the in-kernel programs run.
    EbpfOnly,
    /// "Monitoring ON": exporters, aggregation, analysis and dashboards.
    /// Analysis includes PMAN's thresholds: `build` installs the
    /// [`pman_alerts`] group, so they run in the monitoring loop.
    Full,
}

/// Composable constructor for [`HostMonitor`]s.
///
/// ```
/// use teemon::{MonitorBuilder, MonitoringMode};
///
/// let host = MonitorBuilder::new("worker-1")
///     .mode(MonitoringMode::Full)
///     .scrape_interval_ms(5_000)
///     .exporter_interval_ms("cadvisor", 15_000)
///     .build();
/// // Full-mode recount: sgx_exporter, node_exporter, cadvisor and
/// // ebpf_exporter — four exporters — plus the `teemon_self` self-scrape
/// // target makes 5 targets per host.
/// assert_eq!(host.scraper().target_count(), 5);
/// ```
pub struct MonitorBuilder {
    node: String,
    mode: MonitoringMode,
    kernel: Option<Kernel>,
    db: Option<TimeSeriesDb>,
    scrape_interval_ms: u64,
    exporter_intervals: Vec<(String, u64)>,
    extra_collectors: Vec<(ScrapeTargetConfig, Arc<dyn Collector>)>,
    rule_groups: Vec<RuleGroup>,
    self_observe_alerts: bool,
    durability_dir: Option<std::path::PathBuf>,
    server_addr: Option<String>,
}

impl MonitorBuilder {
    /// Starts a builder for `node` with monitoring off (the baseline preset).
    pub fn new(node: impl Into<String>) -> Self {
        Self {
            node: node.into(),
            mode: MonitoringMode::Off,
            kernel: None,
            db: None,
            scrape_interval_ms: Scraper::DEFAULT_INTERVAL_MS,
            exporter_intervals: Vec::new(),
            extra_collectors: Vec::new(),
            rule_groups: Vec::new(),
            self_observe_alerts: false,
            durability_dir: None,
            server_addr: None,
        }
    }

    /// Applies a [`MonitoringMode`] preset (which exporters `build` deploys).
    #[must_use]
    pub fn mode(mut self, mode: MonitoringMode) -> Self {
        self.mode = mode;
        self
    }

    /// Uses an existing kernel so workloads and monitoring share the same
    /// simulated machine (replaces the former `HostMonitor::with_kernel`).
    #[must_use]
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Feeds an existing database instead of a fresh one (e.g. a shared
    /// cluster-level store).
    #[must_use]
    pub fn db(mut self, db: TimeSeriesDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Makes the host's aggregation database durable: `build` opens it with
    /// [`TimeSeriesDb::open`] on `dir`, replaying any write-ahead logs a
    /// previous run left behind (crash recovery) before the first scrape,
    /// and every scrape round from then on ends with one WAL commit per
    /// dirty shard.  A database plugged in via [`MonitorBuilder::db`] takes
    /// precedence — a shared store manages its own durability.
    ///
    /// # Panics
    ///
    /// `build` panics when `dir` cannot be created or its logs cannot be
    /// opened: a monitor asked to be durable must not come up silently
    /// volatile.
    #[must_use]
    pub fn with_durability(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }

    /// Sets the global scrape interval in milliseconds.
    #[must_use]
    pub fn scrape_interval_ms(mut self, interval_ms: u64) -> Self {
        self.scrape_interval_ms = interval_ms.max(1);
        self
    }

    /// Overrides the scrape interval of one built-in exporter, keyed by job
    /// name (`sgx_exporter`, `ebpf_exporter`, `node_exporter`, `cadvisor`).
    #[must_use]
    pub fn exporter_interval_ms(mut self, job: impl Into<String>, interval_ms: u64) -> Self {
        self.exporter_intervals.push((job.into(), interval_ms.max(1)));
        self
    }

    /// Plugs an additional collector into the scrape set — monitoring for
    /// sources the standard exporters do not cover (application metrics,
    /// sidecars, …).
    #[must_use]
    pub fn collector(mut self, config: ScrapeTargetConfig, collector: Arc<dyn Collector>) -> Self {
        self.extra_collectors.push((config, collector));
        self
    }

    /// Adds a TeeQL rule group: recording rules write derived series back
    /// into the host's database and alert rules raise
    /// [`teemon_query::Alert`]s, both evaluated on the group's cadence
    /// inside the monitoring loop ([`HostMonitor::scrape_tick`] /
    /// [`HostMonitor::run_scrape_loop`]).
    #[must_use]
    pub fn with_rules(mut self, group: RuleGroup) -> Self {
        self.rule_groups.push(group);
        self
    }

    /// Adds the built-in self-watching alert groups: `teemon_self`
    /// ([`teemon_query::self_observe_alerts`]) for storage shard imbalance,
    /// slow-query rate, WAL corruption salvage and unclean flushes, and the
    /// serving edge's shed, panic and slow-client rates,
    /// and `teemon_cardinality` ([`teemon_query::cardinality_alerts`]) for
    /// budget rejections at the ingest edges and interned-symbol memory
    /// growth.  Both evaluate on the scrape interval's cadence over the
    /// series the self-scrape target ingests.
    #[must_use]
    pub fn with_self_observe_alerts(mut self) -> Self {
        self.self_observe_alerts = true;
        self
    }

    /// Serves this host over HTTP: `build` binds `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) and starts a
    /// [`teemon_server::Server`] over the host's database — remote-write
    /// ingest, TeeQL queries and `/metrics` exposition behind the full
    /// resilience middleware stack.  The serving edge is watched like the
    /// engine: its probes are process-wide, so the `teemon_self` target
    /// (which a `Full` host has anyway) stores its shed/panic/slow-client
    /// counters in the same database as every other job.  A host in any
    /// other mode gets that target too, and with it the engine's whole self
    /// surface, not only the edge's slice.
    ///
    /// # Panics
    ///
    /// `build` panics when the address cannot be bound — a monitor asked to
    /// serve must not come up silently unreachable.
    #[must_use]
    pub fn with_server(mut self, addr: impl Into<String>) -> Self {
        self.server_addr = Some(addr.into());
        self
    }

    fn target_config(&self, job: &str, port: u16) -> ScrapeTargetConfig {
        let mut config = ScrapeTargetConfig::new(job, format!("{}:{port}", self.node))
            .with_label("node", self.node.clone());
        if let Some((_, interval)) = self.exporter_intervals.iter().find(|(j, _)| j == job) {
            config = config.with_interval_ms(*interval);
        }
        config
    }

    /// Builds the host monitor, deploying exporters according to the mode.
    pub fn build(self) -> HostMonitor {
        let kernel = self.kernel.clone().unwrap_or_default();
        let db = self.db.clone().unwrap_or_else(|| match &self.durability_dir {
            // teemon-verify: allow(no-unwrap): documented panic — a monitor
            // asked to be durable must not come up silently volatile.
            Some(dir) => TimeSeriesDb::open(dir, TsdbConfig::default())
                .expect("open the durable aggregation database"),
            None => TimeSeriesDb::new(),
        });
        let scraper = Scraper::new(db.clone()).with_interval_ms(self.scrape_interval_ms);
        let analyzer = Analyzer::new(db.clone());
        let dashboards = standard();
        let rules = RuleEngine::new(db.clone());
        for group in &self.rule_groups {
            rules.add_group(group.clone());
        }
        if self.mode == MonitoringMode::Full {
            rules.add_group(pman_alerts());
        }
        if self.self_observe_alerts {
            rules.add_group(teemon_query::self_observe_alerts(self.scrape_interval_ms));
            rules.add_group(teemon_query::cardinality_alerts(self.scrape_interval_ms));
        }
        let mut host = HostMonitor {
            node: self.node.clone(),
            kernel,
            db,
            scraper,
            analyzer,
            dashboards,
            rules,
            container_exporter: None,
            ebpf_exporter: None,
            server: None,
            last_retention_ms: AtomicU64::new(0),
        };
        if let Some(addr) = &self.server_addr {
            // teemon-verify: allow(no-unwrap): documented panic — a monitor
            // asked to serve must not come up silently unreachable.
            let server = teemon_server::Server::start(
                addr,
                teemon_server::ServerConfig::default(),
                host.db.clone(),
            )
            .expect("bind the HTTP serving edge");
            host.server = Some(server);
        }
        self.deploy(&mut host);
        host
    }

    fn deploy(self, host: &mut HostMonitor) {
        match self.mode {
            MonitoringMode::Off => {}
            MonitoringMode::EbpfOnly => {
                host.ebpf_exporter = Some(Arc::new(EbpfExporter::attach(&host.kernel, &self.node)));
            }
            MonitoringMode::Full => {
                let ebpf = Arc::new(EbpfExporter::attach(&host.kernel, &self.node));
                let sgx = SgxExporter::new(host.kernel.sgx_driver().clone(), &self.node);
                let node_exp = NodeExporter::new(&host.kernel, &self.node);
                let containers = ContainerExporter::new(&self.node);

                let scraper = &host.scraper;
                scraper.add_collector(self.target_config("sgx_exporter", 9090), Arc::new(sgx));
                scraper
                    .add_collector(self.target_config("node_exporter", 9100), Arc::new(node_exp));
                scraper.add_collector(
                    self.target_config("cadvisor", 8080),
                    Arc::new(containers.clone()),
                );
                // Scraped through the same `Arc` the host keeps.
                scraper.add_collector(
                    self.target_config("ebpf_exporter", 9435),
                    Arc::clone(&ebpf) as Arc<dyn Collector>,
                );
                host.container_exporter = Some(containers);
                host.ebpf_exporter = Some(ebpf);
            }
        }
        if self.server_addr.is_some() || self.mode == MonitoringMode::Full {
            // The engine watches itself: the self-scrape target snapshots
            // the `teemon_obs` probes (scrape timings, shard heat, query
            // modes, lock contention, the serving edge's middleware) into
            // the same database every round.
            host.scraper.add_self_target(format!("{}:self", self.node));
        }
        for (config, collector) in &self.extra_collectors {
            host.scraper.add_collector(config.clone(), Arc::clone(collector));
        }
    }
}

/// One monitored host: a simulated kernel plus the TEEMon components deployed
/// on it according to the [`MonitoringMode`].  Construct with
/// [`MonitorBuilder`] (or [`HostMonitor::new`] for the plain presets).
pub struct HostMonitor {
    node: String,
    kernel: Kernel,
    db: TimeSeriesDb,
    scraper: Scraper,
    analyzer: Analyzer,
    dashboards: DashboardSet,
    rules: RuleEngine,
    container_exporter: Option<ContainerExporter>,
    ebpf_exporter: Option<Arc<EbpfExporter>>,
    server: Option<teemon_server::Server>,
    /// Scraped time of the last retention pass (see
    /// [`RETENTION_PASSES_PER_WINDOW`]).
    last_retention_ms: AtomicU64,
}

impl HostMonitor {
    /// Creates a monitored host with a fresh kernel — shorthand for
    /// [`MonitorBuilder::new`]`(node).mode(mode).build()`.
    pub fn new(node: &str, mode: MonitoringMode) -> Self {
        MonitorBuilder::new(node).mode(mode).build()
    }

    /// The node name.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The simulated kernel workloads should run against.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The aggregation database (PMAG).
    pub fn db(&self) -> &TimeSeriesDb {
        &self.db
    }

    /// The scrape manager feeding the database.
    pub fn scraper(&self) -> &Scraper {
        &self.scraper
    }

    /// The analysis component (PMAN).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The TeeQL rule engine (recording + alert rules).  Groups added via
    /// [`MonitorBuilder::with_rules`] evaluate inside the monitoring loop;
    /// inspect firing alerts with
    /// [`rules().firing_alerts()`](RuleEngine::firing_alerts).
    pub fn rules(&self) -> &RuleEngine {
        &self.rules
    }

    /// The HTTP serving edge, when [`MonitorBuilder::with_server`] was used.
    pub fn server(&self) -> Option<&teemon_server::Server> {
        self.server.as_ref()
    }

    /// Gracefully shuts the serving edge down: stop accepting, drain
    /// in-flight connections under the configured deadline, flush the WAL.
    /// Returns `true` when the drain completed (also when no server ran).
    pub fn shutdown_server(&mut self) -> bool {
        match self.server.take() {
            Some(server) => server.shutdown(),
            None => true,
        }
    }

    /// The container exporter, when full monitoring is active, so the host
    /// model can register containers (cAdvisor's data source).
    pub fn container_exporter(&self) -> Option<&ContainerExporter> {
        self.container_exporter.as_ref()
    }

    /// Registers a container with the container exporter (no-op unless full
    /// monitoring is active).
    pub fn register_container(&self, spec: ContainerSpec) {
        if let Some(exporter) = &self.container_exporter {
            exporter.register_container(spec);
        }
    }

    /// Performs one forced scrape of every target at the kernel's current
    /// virtual time (per-target intervals do not gate a manual tick).
    /// Returns the number of healthy targets.
    ///
    /// Runs through the scraper's ingest fast lane and the allocation-free
    /// [`teemon_tsdb::RoundSummary`] path — a steady-state tick touches each
    /// storage shard lock once.  The store's side allocates nothing, so a
    /// tick over endpoints that refresh their families in place allocates
    /// nothing either (`crates/tsdb/tests/alloc_free_scrape.rs`).  The
    /// exporters this monitor installs do not yet: each `collect` builds
    /// its families afresh, and a warm Full-mode round makes about 209
    /// allocations (ROADMAP item 13).  Like
    /// [`HostMonitor::run_scrape_loop`] it then evaluates due rule groups
    /// and, each sixteenth of the retention window, applies the database's
    /// retention policy.
    pub fn scrape_tick(&self) -> usize {
        let now = self.kernel.clock().now_millis();
        let healthy = self.scraper.scrape_round(now).healthy;
        self.after_round(now);
        healthy
    }

    /// What follows every scrape round of the monitoring loop: due rule
    /// groups are evaluated, and the database's retention policy is applied
    /// when a pass is due.
    fn after_round(&self, now: u64) {
        self.rules.evaluate_due(now);
        if self.retention_due(now) {
            self.db.apply_retention();
        }
    }

    /// Whether the loop's retention pass is due at `now` (see
    /// [`RETENTION_PASSES_PER_WINDOW`]); a `true` counts as the pass taken.
    pub(crate) fn retention_due(&self, now: u64) -> bool {
        let every = (self.db.config().retention_ms / RETENTION_PASSES_PER_WINDOW).max(1);
        let due = now.saturating_sub(self.last_retention_ms.load(Ordering::Relaxed)) >= every;
        if due {
            self.last_retention_ms.store(now, Ordering::Relaxed);
        }
        due
    }

    /// Runs `ticks` scrape rounds spaced by the scraper's global interval,
    /// advancing the simulated clock accordingly.  Each round scrapes only
    /// the targets that are due (via the batched
    /// [`teemon_tsdb::Scraper::scrape_round_due`] path), so per-target
    /// intervals thin out slow targets here.
    pub fn run_scrape_loop(&self, ticks: u64) {
        for _ in 0..ticks {
            self.kernel
                .clock()
                .advance(teemon_sim_core::SimDuration::from_millis(self.scraper.interval_ms()));
            let now = self.kernel.clock().now_millis();
            self.scraper.scrape_round_due(now);
            self.after_round(now);
        }
    }

    /// Renders one of the standard dashboards over the whole retained range.
    pub fn render_dashboard(&self, title: &str, width: usize) -> Option<String> {
        self.dashboards.get(title).map(|d| d.render(&self.db, 0, u64::MAX, width))
    }
}

/// A monitored Kubernetes-like cluster: one [`HostMonitor`] per SGX node,
/// deployed through the TEEMon Helm chart and discovered via the cluster's
/// service discovery (§5.4).
pub struct ClusterMonitor {
    cluster: Cluster,
    discovery: ServiceDiscovery,
    hosts: Vec<HostMonitor>,
}

impl ClusterMonitor {
    /// Installs TEEMon on every SGX node of `cluster` using the default chart
    /// and full monitoring.
    pub fn install(cluster: Cluster) -> Self {
        let mut discovery = ServiceDiscovery::new();
        HelmChart::teemon().install(&mut discovery);
        let mut hosts = Vec::new();
        for node in cluster.ready_nodes() {
            if node.sgx_capable {
                hosts.push(MonitorBuilder::new(&node.name).mode(MonitoringMode::Full).build());
            }
        }
        Self { cluster, discovery, hosts }
    }

    /// Per-node host monitors.
    pub fn hosts(&self) -> &[HostMonitor] {
        &self.hosts
    }

    /// The scrape endpoints service discovery currently resolves.
    pub fn endpoints(&self) -> Vec<teemon_orchestrator::ScrapeEndpoint> {
        self.discovery.endpoints(&self.cluster)
    }

    /// Reconciles monitors after cluster topology changes: adds monitors for
    /// new SGX nodes, drops monitors for departed ones.  Returns
    /// `(added, removed)`.
    pub fn reconcile(&mut self) -> (usize, usize) {
        let ready_sgx: Vec<String> = self
            .cluster
            .ready_nodes()
            .iter()
            .filter(|n| n.sgx_capable)
            .map(|n| n.name.clone())
            .collect();
        let before = self.hosts.len();
        self.hosts.retain(|h| ready_sgx.contains(&h.node().to_string()));
        let removed = before - self.hosts.len();
        let mut added = 0;
        for name in &ready_sgx {
            if !self.hosts.iter().any(|h| h.node() == name) {
                self.hosts.push(MonitorBuilder::new(name).mode(MonitoringMode::Full).build());
                added += 1;
            }
        }
        (added, removed)
    }

    /// Scrapes every host once.  Returns the number of healthy targets.
    pub fn scrape_all(&self) -> usize {
        self.hosts.iter().map(|h| h.scrape_tick()).sum()
    }

    /// Total enclaves currently active across the cluster.
    pub fn total_active_enclaves(&self) -> u64 {
        self.hosts.iter().map(|h| h.kernel().sgx_driver().stats().enclaves_active).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
    use teemon_kernel_sim::Syscall;
    use teemon_metrics::{
        CollectError, FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue,
    };
    use teemon_orchestrator::Node;
    use teemon_tsdb::Selector;

    /// An application's own exporter, plugged into a host: one unlabelled
    /// family with a fixed value.
    struct AppExporter(FamilySnapshot);

    impl AppExporter {
        fn gauge(name: &str, value: f64) -> Self {
            Self(
                FamilySnapshot::new(name, "", MetricKind::Gauge)
                    .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(value))),
            )
        }

        fn counter(name: &str, value: f64) -> Self {
            Self(
                FamilySnapshot::new(name, "", MetricKind::Counter)
                    .with_point(MetricPoint::new(Labels::new(), PointValue::Counter(value))),
            )
        }
    }

    impl Collector for AppExporter {
        fn job_name(&self) -> &str {
            "app"
        }

        fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
            Ok(vec![self.0.clone()])
        }
    }

    #[test]
    fn off_mode_attaches_nothing() {
        let host = HostMonitor::new("n1", MonitoringMode::Off);
        assert_eq!(host.kernel().hooks().total_attached(), 0);
        assert_eq!(host.scrape_tick(), 0);
    }

    #[test]
    fn ebpf_only_attaches_programs_but_no_scraping() {
        let host = HostMonitor::new("n1", MonitoringMode::EbpfOnly);
        assert!(host.kernel().hooks().total_attached() > 0);
        assert_eq!(host.scrape_tick(), 0, "no scrape targets in eBPF-only mode");
    }

    #[test]
    fn full_monitoring_scrapes_all_exporters_and_the_self_target() {
        let host = HostMonitor::new("worker-1", MonitoringMode::Full);
        assert!(host.kernel().hooks().total_attached() > 0);

        // Generate some activity, then scrape.
        let pid = host.kernel().spawn_process(
            "redis-server",
            teemon_kernel_sim::process::ProcessKind::Enclave,
            8,
        );
        host.kernel().syscall(pid, Syscall::Read, true);
        host.register_container(ContainerSpec {
            name: "redis-0".into(),
            image: "redis:5".into(),
            pid: pid.as_u32(),
            memory_limit_bytes: 1 << 30,
        });
        host.kernel().clock().advance(teemon_sim_core::SimDuration::from_secs(5));
        assert_eq!(host.scrape_tick(), 5, "4 exporters + the teemon_self target");

        // All exporter families land in the database, the engine's own
        // telemetry among them.
        for metric in [
            "teemon_syscalls_total",
            "sgx_nr_free_pages",
            "node_cpu_cores",
            "container_spec_memory_limit_bytes",
            "teemon_scrape_rounds_total",
        ] {
            assert!(
                !host.db().select(&Selector::metric(metric)).is_empty(),
                "metric {metric} missing after scrape"
            );
        }
        // Dashboards render from the scraped data.
        let rendered = host.render_dashboard("SGX", 50).unwrap();
        assert!(rendered.contains("EPC free pages"));
        assert!(host.render_dashboard("missing", 50).is_none());
    }

    #[test]
    fn workload_on_monitored_host_is_observable_end_to_end() {
        let host = HostMonitor::new("worker-1", MonitoringMode::Full);
        let mut deployment = Deployment::deploy(
            host.kernel(),
            FrameworkParams::for_kind(FrameworkKind::Scone),
            "redis-server",
            32 << 20,
            8,
            11,
        )
        .unwrap();
        let request = teemon_frameworks::RequestProfile::keyvalue_get(64, 8_000);
        for _ in 0..300 {
            deployment.execute(&request, 320);
        }
        host.run_scrape_loop(3);
        assert!(!host.db().select(&Selector::metric("teemon_syscalls_total")).is_empty());
        // The analyzer can run over the scraped data without findings blowing up.
        let findings = host.analyzer().diagnose_all(300.0, 0, u64::MAX);
        let _ = findings;
    }

    #[test]
    fn the_monitoring_loop_enforces_retention() {
        // Ten minutes of retention at a 5 s interval: 120 rounds per window,
        // a pass every 8th round.
        let db =
            TimeSeriesDb::with_config(TsdbConfig { chunk_size: 8, retention_ms: 10 * 60 * 1_000 });
        let host = MonitorBuilder::new("worker-1")
            .mode(MonitoringMode::Full)
            .db(db.clone())
            .collector(
                ScrapeTargetConfig::new("short_lived", "worker-1:9121"),
                Arc::new(AppExporter::gauge("app_up", 1.0)),
            )
            .build();
        let short_lived = Selector::all().with_label("job", "short_lived");

        host.run_scrape_loop(60);
        assert!(!db.select(&short_lived).is_empty());
        // The target goes away; its series stay queryable for one window…
        assert_eq!(host.scraper().remove_instance("worker-1:9121"), 1);
        host.run_scrape_loop(100);
        assert!(!db.select(&short_lived).is_empty(), "still inside the retention window");

        // …and then leave the index, while the standing targets' samples
        // plateau at one window of rounds (plus the chunk and the pass
        // granularity, 8 rounds each) however long the loop runs.
        host.run_scrape_loop(240);
        assert!(db.select(&short_lived).is_empty(), "evicted series must leave the index");
        let settled = db.stats();
        host.run_scrape_loop(600);
        let later = db.stats();
        assert_eq!(later.series, settled.series);
        let window = settled.series * (120 + 8 + 8);
        assert!(
            settled.samples <= window && later.samples <= window,
            "{} then {} samples held for a window of {window}",
            settled.samples,
            later.samples
        );
        assert!(later.samples * 10 >= settled.samples * 9, "a plateau, not a sawtooth to zero");
    }

    #[test]
    fn builder_reuses_kernel_and_db_and_plugs_collectors() {
        let kernel = Kernel::new();
        let db = TimeSeriesDb::new();

        let host = MonitorBuilder::new("worker-9")
            .mode(MonitoringMode::Full)
            .kernel(kernel.clone())
            .db(db.clone())
            .collector(
                ScrapeTargetConfig::new("redis_exporter", "worker-9:9121"),
                Arc::new(AppExporter::counter("app_requests_total", 9.0)),
            )
            .build();
        assert_eq!(
            host.scraper().target_count(),
            6,
            "4 standard exporters + teemon_self + 1 plugged in"
        );
        kernel.clock().advance(teemon_sim_core::SimDuration::from_secs(5));
        assert_eq!(host.scrape_tick(), 6);
        // The plugged-in collector's samples land in the shared db.
        let results = db.select(&Selector::metric("app_requests_total"));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].label_value("job"), Some("redis_exporter"));
    }

    #[test]
    fn builder_per_exporter_intervals_thin_out_scrapes() {
        let host = MonitorBuilder::new("worker-2")
            .mode(MonitoringMode::Full)
            .scrape_interval_ms(5_000)
            .exporter_interval_ms("cadvisor", 20_000)
            .build();
        // Four rounds at t = 5, 10, 15, 20 s: cadvisor (20 s interval) is
        // only due on the first round; the other three scrape every round.
        host.run_scrape_loop(4);
        let up = host.db().select(&Selector::metric("up"));
        let points_of = |job: &str| {
            up.iter().find(|r| r.label_value("job") == Some(job)).map_or(0, |r| r.len())
        };
        assert_eq!(points_of("node_exporter"), 4);
        assert_eq!(points_of("sgx_exporter"), 4);
        assert_eq!(points_of("cadvisor"), 1);
    }

    #[test]
    fn builder_rules_evaluate_inside_the_monitoring_loop() {
        use teemon_analysis::Severity;
        use teemon_query::{parse, AlertRule, RecordingRule, RuleGroup};

        let host = MonitorBuilder::new("worker-3")
            .mode(MonitoringMode::Full)
            .scrape_interval_ms(5_000)
            .with_rules(
                RuleGroup::new("teeql", 5_000)
                    .with_rule(RecordingRule::new(
                        "node:syscalls:rate30s",
                        parse("sum by (node) (rate(teemon_syscalls_total[30s]))").unwrap(),
                    ))
                    .with_rule(
                        AlertRule::new(
                            "always_low_pages",
                            // Free pages are always below this absurd bound;
                            // the rule must hold 10 s before firing.
                            parse("avg_over_time(sgx_nr_free_pages[30s]) < 1000000").unwrap(),
                            Severity::Warning,
                        )
                        .with_for_ms(10_000)
                        .with_hint("synthetic"),
                    ),
            )
            .build();
        assert_eq!(host.rules().group_count(), 2, "teeql + teemon_pman");
        assert_eq!(host.rules().rule_count(), 2 + 4);

        let pid = host.kernel().spawn_process(
            "redis-server",
            teemon_kernel_sim::process::ProcessKind::Enclave,
            4,
        );
        for _ in 0..8 {
            for _ in 0..50 {
                host.kernel().syscall(pid, Syscall::Read, true);
            }
            host.kernel().clock().advance(teemon_sim_core::SimDuration::from_secs(5));
            host.scrape_tick();
        }
        // The recording rule derived a queryable series.
        let derived = host.db().select(&Selector::metric("node:syscalls:rate30s"));
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].label_value("node"), Some("worker-3"));
        assert!(derived[0].len() >= 5, "one point per evaluation after warm-up");
        assert!(derived[0].last_sample().unwrap().value > 0.0, "observed a positive syscall rate");
        // The alert held for its `for` duration and fired, with the ALERTS
        // series exported for dashboards.
        let firing = host.rules().firing_alerts();
        assert!(firing.iter().any(|a| a.rule == "always_low_pages"), "{firing:?}");
        assert!(
            !host
                .db()
                .select(&Selector::metric("ALERTS").with_label("alertname", "always_low_pages"))
                .is_empty(),
            "firing alerts are exported as the ALERTS metric"
        );
        // run_scrape_loop drives rules too.
        host.run_scrape_loop(2);
        assert!(!host.rules().firing_alerts().is_empty());
    }

    #[test]
    fn builder_self_observe_alerts_evaluate_over_self_scraped_data() {
        let host = MonitorBuilder::new("worker-5")
            .mode(MonitoringMode::Full)
            .scrape_interval_ms(5_000)
            .with_self_observe_alerts()
            .build();
        assert_eq!(host.rules().group_count(), 3, "teemon_pman + teemon_self + teemon_cardinality");
        assert_eq!(
            host.rules().rule_count(),
            4 + 11,
            "PMAN's four thresholds; imbalance, slow-query, WAL-salvage, \
             WAL-unclean, HTTP-shed, HTTP-panic and HTTP-slow-client alerts, \
             plus the four cardinality-defense alerts"
        );
        // The group evaluates inside the monitoring loop over the series the
        // self target ingests — it must run cleanly against live self data
        // (whether an alert fires depends on process-global probe history).
        host.run_scrape_loop(4);
        assert!(!host.db().select(&Selector::metric("teemon_tsdb_shard_series")).is_empty());
    }

    /// Every selector in `expr`.
    fn selectors(expr: &teemon_query::Expr, out: &mut Vec<Selector>) {
        use teemon_query::Expr;
        match expr {
            Expr::Number(_) => {}
            Expr::Selector(selector) | Expr::Range { selector, .. } => out.push(selector.clone()),
            Expr::Call { arg, .. } => selectors(arg, out),
            Expr::Aggregate { expr, .. } => selectors(expr, out),
            Expr::Binary { lhs, rhs, .. } => {
                selectors(lhs, out);
                selectors(rhs, out);
            }
        }
    }

    #[test]
    fn full_mode_runs_pman_over_series_the_stack_exports() {
        let host = HostMonitor::new("worker-4", MonitoringMode::Full);
        assert_eq!(host.rules().group_count(), 1, "teemon_pman, with no builder call");
        let pid = host.kernel().spawn_process(
            "redis-server",
            teemon_kernel_sim::process::ProcessKind::Enclave,
            4,
        );
        // What any running enclave does: a system call, a context switch.
        host.kernel().syscall(pid, Syscall::Read, true);
        host.kernel().context_switch(pid, teemon_kernel_sim::SwitchKind::Voluntary);
        host.run_scrape_loop(2);
        let mut watched = Vec::new();
        for rule in &pman_alerts().rules {
            let teemon_query::Rule::Alert(alert) = rule else { panic!("alerts only") };
            selectors(&alert.expr, &mut watched);
        }
        assert_eq!(watched.len(), 4);
        for selector in watched {
            assert!(!host.db().select(&selector).is_empty(), "PMAN watches {selector}: no series");
        }
    }

    #[test]
    fn builder_with_server_serves_and_self_scrapes_the_edge() {
        let mut host = MonitorBuilder::new("worker-8")
            .mode(MonitoringMode::Full)
            .with_server("127.0.0.1:0")
            .build();
        let addr = host.server().expect("server running").addr();

        // Remote-write lands in the host's database...
        let resp =
            teemon_server::http_post(addr, "/api/v1/write", "text/plain", b"pushed_demo_total 5\n")
                .expect("push");
        assert_eq!(resp.status, 200, "{}", resp.body_text());

        // ...and a scrape round ingests the exporters and, through the
        // `teemon_self` target, the serving edge's own probes — once: every
        // `teemon_http_*` family is one series per label set, under one job.
        host.kernel().clock().advance(teemon_sim_core::SimDuration::from_secs(5));
        assert_eq!(host.scrape_tick(), 5, "4 exporters + teemon_self");
        // Series keyed by name and labels, job and instance aside.
        let mut edge_series = std::collections::BTreeMap::<String, usize>::new();
        for series in host.db().select(&Selector::all()) {
            if series.name().starts_with("teemon_http_") {
                let labels: Vec<_> =
                    series.labels().filter(|(k, _)| !matches!(*k, "job" | "instance")).collect();
                *edge_series.entry(format!("{}{labels:?}", series.name())).or_default() += 1;
            }
        }
        for family in ["requests_total", "shed_total", "connections_total"] {
            let family = format!("teemon_http_{family}[");
            assert!(edge_series.keys().any(|k| k.starts_with(&family)), "{family} stored");
        }
        assert!(edge_series.values().all(|&n| n == 1), "one series per label set: {edge_series:?}");
        assert!(!host.db().select(&Selector::metric("pushed_demo_total")).is_empty());

        // Queries answer over HTTP from the same database the scraper fills.
        let resp = teemon_server::http_get(
            addr,
            &format!("/api/v1/query?query={}", teemon_server::percent_encode("up")),
        )
        .expect("query");
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains(r#""status":"success""#));

        assert!(host.shutdown_server(), "graceful drain");
        assert!(host.server().is_none());
        // The edge is gone; the monitor itself keeps scraping every target.
        host.kernel().clock().advance(teemon_sim_core::SimDuration::from_secs(5));
        assert_eq!(host.scrape_tick(), 5, "4 exporters + teemon_self");
    }

    #[test]
    fn builder_durability_survives_a_monitor_restart() {
        let dir = std::env::temp_dir().join(format!("teemon-monitor-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let host = MonitorBuilder::new("worker-7")
                .mode(MonitoringMode::Full)
                .with_durability(&dir)
                .build();
            assert!(host.db().durable());
            host.kernel().clock().advance(teemon_sim_core::SimDuration::from_secs(5));
            // scrape_tick drives the WAL flush at the end of the round.
            assert_eq!(host.scrape_tick(), 5);
            assert!(host.db().stats().samples > 0);
        }
        // A fresh monitor on the same directory replays the logs: the
        // previous run's series are queryable before any new scrape.
        let reopened = MonitorBuilder::new("worker-7")
            .mode(MonitoringMode::Full)
            .with_durability(&dir)
            .build();
        assert!(reopened.db().durable());
        assert!(reopened.db().stats().samples > 0, "recovery must restore the scraped rounds");
        assert!(!reopened.db().select(&Selector::metric("sgx_nr_free_pages")).is_empty());
        assert_eq!(reopened.db().stats().wal_failed_shards, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_full_mode_exporter_text_exposition_parses_back_to_its_collection(
    ) -> Result<(), Box<dyn std::error::Error>> {
        use teemon_metrics::exposition::{encode_text, parse_families};

        let kernel = Kernel::new();
        let ebpf = EbpfExporter::attach(&kernel, "wire-a");
        let sgx = SgxExporter::new(kernel.sgx_driver().clone(), "wire-a");
        let node = NodeExporter::new(&kernel, "wire-a");
        let containers = ContainerExporter::new("wire-a");
        // A database larger than the EPC, so that requests fault and every
        // exporter family has points (a family without any has no samples
        // on the wire, and a parse cannot bring it back).
        let mut deployment = Deployment::deploy(
            &kernel,
            FrameworkParams::for_kind(FrameworkKind::Scone),
            "redis-server",
            128 << 20,
            8,
            11,
        )?;
        containers.register_container(ContainerSpec {
            name: "redis-0".into(),
            image: "sconecuratedimages/redis:5".into(),
            pid: deployment.pid().as_u32(),
            memory_limit_bytes: 1 << 30,
        });
        let request = teemon_frameworks::RequestProfile::keyvalue_get(64, 30_000);
        deployment.execute_many(&request, 320, 3_000);

        let collectors: [&dyn Collector; 4] = [&sgx, &ebpf, &node, &containers];
        for collector in collectors {
            let typed = collector.collect()?;
            assert!(!typed.is_empty(), "{} collected nothing", collector.job_name());
            let parsed = parse_families(&encode_text(&typed))?;
            assert_eq!(parsed, collector.collect()?, "{}", collector.job_name());
        }
        Ok(())
    }

    #[test]
    fn cluster_monitor_follows_topology() {
        let cluster = Cluster::with_nodes(2, 1);
        let mut monitor = ClusterMonitor::install(cluster.clone());
        assert_eq!(monitor.hosts().len(), 2, "one monitor per SGX node");
        assert!(monitor.endpoints().len() >= 4);
        assert_eq!(monitor.total_active_enclaves(), 0);

        cluster.add_node(Node::sgx("sgx-new"));
        cluster.remove_node("sgx-0");
        let (added, removed) = monitor.reconcile();
        assert_eq!((added, removed), (1, 1));
        assert_eq!(monitor.hosts().len(), 2);
        let healthy = monitor.scrape_all();
        assert_eq!(healthy, 2 * 5);
    }
}
