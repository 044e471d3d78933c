//! The TEEMon façade: a monitored host, a monitored cluster, and the
//! [`MonitorBuilder`] that assembles them.
//!
//! Monitoring is composed, not hard-wired: the builder picks which exporters
//! to deploy (the [`MonitoringMode`] presets reproduce the three
//! configurations of §6.3), lets callers plug additional
//! [`MetricsEndpoint`]s in and set per-target scrape intervals.  Every
//! exporter is scraped typed, registered under the job name the builder
//! gives it.
//!
//! A [`ClusterMonitor`] is one [`HostMonitor`] — the aggregator, with the one
//! store, scraper, rule engine and monitoring loop — whose targets are the
//! endpoints service discovery resolves from the chart, on every node that
//! hosts one, as §5.4 deploys TEEMon.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use teemon_analysis::pman_alerts;
use teemon_dashboard::{standard, DashboardSet};
use teemon_exporters::{ContainerExporter, ContainerSpec, EbpfExporter, NodeExporter, SgxExporter};
use teemon_kernel_sim::Kernel;
use teemon_orchestrator::{Cluster, Exporter, HelmChart, ScrapeEndpoint, ServiceDiscovery};
use teemon_query::{RuleEngine, RuleGroup};
use teemon_tsdb::{MetricsEndpoint, ScrapeTargetConfig, Scraper, TimeSeriesDb, TsdbConfig};

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
    extra_targets: Vec<(ScrapeTargetConfig, Arc<dyn MetricsEndpoint>)>,
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
            extra_targets: Vec::new(),
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

    /// Plugs an additional endpoint into the scrape set under `config`'s job
    /// and instance — monitoring for sources the standard exporters do not
    /// cover (application metrics, sidecars, …).
    #[must_use]
    pub fn collector(
        mut self,
        config: ScrapeTargetConfig,
        endpoint: Arc<dyn MetricsEndpoint>,
    ) -> Self {
        self.extra_targets.push((config, endpoint));
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

    /// Builds the host monitor, deploying exporters according to the mode.
    /// The loop runs on virtual time, so `scrape_duration_seconds` is charged
    /// from the scraper's model: two identical runs store the same values.
    pub fn build(self) -> HostMonitor {
        let kernel = self.kernel.unwrap_or_default();
        let db = self.db.unwrap_or_else(|| match &self.durability_dir {
            // Documented panic: a monitor asked to be durable must not come
            // up silently volatile.
            Some(dir) => TimeSeriesDb::open(dir, TsdbConfig::default())
                .expect("open the durable aggregation database"),
            None => TimeSeriesDb::new(),
        });
        let scraper = Scraper::new(db.clone())
            .with_interval_ms(self.scrape_interval_ms)
            .with_modelled_durations();
        let rules = RuleEngine::new(db.clone());
        for group in self.rule_groups {
            rules.add_group(group);
        }
        if self.mode == MonitoringMode::Full {
            rules.add_group(pman_alerts());
        }
        if self.self_observe_alerts {
            rules.add_group(teemon_query::self_observe_alerts(self.scrape_interval_ms));
            rules.add_group(teemon_query::cardinality_alerts(self.scrape_interval_ms));
        }
        let container_exporter = match self.mode {
            MonitoringMode::Off => None,
            MonitoringMode::EbpfOnly => {
                // The programs stay attached; nothing scrapes their maps.
                EbpfExporter::attach(&kernel, &self.node);
                None
            }
            MonitoringMode::Full => {
                let (node, containers) = (&self.node, ContainerExporter::new(&self.node));
                for exporter in Exporter::ALL {
                    let ms = self.exporter_intervals.iter().find(|(j, _)| j == exporter.job());
                    add_exporter(&scraper, exporter, node, &kernel, &containers, ms.map(|j| j.1));
                }
                Some(containers)
            }
        };
        if self.server_addr.is_some() || self.mode == MonitoringMode::Full {
            // The engine watches itself: the self-scrape target snapshots
            // the `teemon_obs` probes (scrape timings, shard heat, query
            // modes, lock contention, the serving edge's middleware) into
            // the same database every round.
            scraper.add_self_target(format!("{}:self", self.node));
        }
        for (config, endpoint) in self.extra_targets {
            scraper.add_target(config, endpoint);
        }
        // Documented panic: a monitor asked to serve must not come up
        // silently unreachable.
        let server = self.server_addr.map(|addr| {
            teemon_server::Server::start(&addr, teemon_server::ServerConfig::default(), db.clone())
                .expect("bind the HTTP serving edge")
        });
        HostMonitor {
            kernel,
            scraper,
            dashboards: standard(),
            rules,
            db,
            container_exporter,
            server,
            last_retention_ms: AtomicU64::new(0),
        }
    }
}

/// Attaches `exporter` of `node` to `kernel` (cAdvisor is `containers`) and
/// registers it with `scraper` under its job, `<node>:<port>` instance and a
/// `node` label, every `interval_ms` if given: a `Full` host's and the
/// cluster's one way to deploy an exporter.
fn add_exporter(
    scraper: &Scraper,
    exporter: Exporter,
    node: &str,
    kernel: &Kernel,
    containers: &ContainerExporter,
    interval_ms: Option<u64>,
) {
    let endpoint: Arc<dyn MetricsEndpoint> = match exporter {
        Exporter::Sgx => Arc::new(SgxExporter::new(kernel.sgx_driver().clone(), node)),
        Exporter::Node => Arc::new(NodeExporter::new(kernel, node)),
        Exporter::Cadvisor => Arc::new(containers.clone()),
        Exporter::Ebpf => Arc::new(EbpfExporter::attach(kernel, node)),
    };
    let mut config =
        ScrapeTargetConfig::new(exporter.job(), exporter.instance(node)).with_label("node", node);
    if let Some(interval_ms) = interval_ms {
        config = config.with_interval_ms(interval_ms);
    }
    scraper.add_target(config, endpoint);
}

/// One monitored host: a simulated kernel plus the TEEMon components deployed
/// on it according to the [`MonitoringMode`].  Construct with
/// [`MonitorBuilder`] (or [`HostMonitor::new`] for the plain presets).
pub struct HostMonitor {
    kernel: Kernel,
    db: TimeSeriesDb,
    scraper: Scraper,
    dashboards: DashboardSet,
    rules: RuleEngine,
    container_exporter: Option<ContainerExporter>,
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

    /// The TeeQL rule engine (recording + alert rules), PMAN's among them.
    /// Groups added via [`MonitorBuilder::with_rules`] evaluate inside the
    /// monitoring loop; inspect firing alerts with
    /// [`rules().firing_alerts()`](RuleEngine::firing_alerts), or read the
    /// stored history with [`teemon_analysis::detect_anomalies`].
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
    /// exporters this monitor installs do not yet: each `scrape` builds
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
    /// groups are evaluated (a rule the engine refuses is counted in
    /// `teemon_rule_evaluation_failures_total`), and the database's retention
    /// policy is applied when a pass is due.
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

/// A Kubernetes-like cluster monitored as §5.4 deploys TEEMon: every
/// endpoint service discovery resolves from the chart (all four exporters on
/// an SGX node, the node exporter and cAdvisor on any other) is a target of
/// one aggregator — a [`HostMonitor`] exporting nothing of its own host, with
/// one store, scraper and rule engine (PMAN's group once), the dashboards and
/// a `teemon_self` target.  A node contributes only its kernel, on the
/// aggregator's clock; a cluster-wide question is TeeQL over the one store.
pub struct ClusterMonitor {
    cluster: Cluster,
    discovery: ServiceDiscovery,
    aggregator: HostMonitor,
    /// The kernels of the nodes that host an endpoint, by node name.
    nodes: BTreeMap<String, Kernel>,
    /// The endpoints the last reconcile left as targets.
    targets: BTreeSet<ScrapeEndpoint>,
}

impl ClusterMonitor {
    /// Installs `chart` on `cluster`: the aggregator, scraping every
    /// `scrape_interval_seconds` into a store that keeps `retention_hours`,
    /// and the exporters of every endpoint discovery resolves.
    pub fn install(cluster: Cluster, chart: &HelmChart) -> Self {
        let mut discovery = ServiceDiscovery::new();
        chart.install(&mut discovery);
        let retention_ms = chart.values.retention_hours.saturating_mul(3_600_000);
        let aggregator = MonitorBuilder::new("aggregator")
            .scrape_interval_ms(chart.values.scrape_interval_seconds.saturating_mul(1_000))
            .db(TimeSeriesDb::with_config(TsdbConfig { retention_ms, ..TsdbConfig::default() }))
            .with_rules(pman_alerts())
            .build();
        aggregator.scraper().add_self_target("aggregator:self");
        let (nodes, targets) = (BTreeMap::new(), BTreeSet::new());
        let mut monitor = Self { cluster, discovery, aggregator, nodes, targets };
        monitor.reconcile();
        monitor
    }

    /// The aggregator: the cluster's store, scraper, rule engine (PMAN's
    /// group among them), dashboards and monitoring loop.
    pub fn aggregator(&self) -> &HostMonitor {
        &self.aggregator
    }

    /// The kernels of every node hosting an endpoint, SGX or not, by name.
    pub fn nodes(&self) -> &BTreeMap<String, Kernel> {
        &self.nodes
    }

    /// The scrape endpoints service discovery currently resolves.
    pub fn endpoints(&self) -> Vec<ScrapeEndpoint> {
        self.discovery.endpoints(&self.cluster)
    }

    /// Follows topology changes: diffs discovery's endpoints against the
    /// targets the last reconcile left, removing the gone and adding the new
    /// (a node's first endpoint brings its kernel); returns the `(added,
    /// removed)` node counts.  A departed node's series stay in the store
    /// until retention, and leave instant queries at the 5-minute lookback.
    pub fn reconcile(&mut self) -> (usize, usize) {
        let (scraper, before) = (self.aggregator.scraper(), self.nodes.len());
        let resolved: BTreeSet<_> = self.endpoints().into_iter().collect();
        for gone in self.targets.difference(&resolved) {
            scraper.remove_instance(&gone.instance);
        }
        let (clock, mut hosting) = (self.aggregator.kernel().clock(), BTreeMap::new());
        for endpoint @ ScrapeEndpoint { exporter, node, .. } in &resolved {
            let kernel = hosting.entry(node.clone()).or_insert_with(|| {
                self.nodes.remove(node).unwrap_or_else(|| Kernel::with_clock(clock.clone()))
            });
            if !self.targets.contains(endpoint) {
                add_exporter(scraper, *exporter, node, kernel, &ContainerExporter::new(node), None);
            }
        }
        self.targets = resolved;
        // The nodes not taken over host nothing any more.
        let removed = std::mem::replace(&mut self.nodes, hosting).len();
        (self.nodes.len() + removed - before, removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
    use teemon_kernel_sim::Syscall;
    use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
    use teemon_orchestrator::{ChartValues, Node};
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

    impl MetricsEndpoint for AppExporter {
        fn scrape(&self) -> Result<Vec<FamilySnapshot>, teemon_tsdb::ScrapeError> {
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

    /// Deploys a Redis-like application under SCONE on `host` and registers
    /// its request counter as a scrape target.
    fn deploy_redis(host: &HostMonitor) -> Deployment {
        let deployment = Deployment::deploy(
            host.kernel(),
            FrameworkParams::for_kind(FrameworkKind::Scone),
            "redis-server",
            32 << 20,
            8,
            11,
        )
        .unwrap();
        host.scraper().add_target(
            ScrapeTargetConfig::new("redis", "worker:6379"),
            Arc::new(deployment.request_counter()),
        );
        deployment
    }

    #[test]
    fn workload_on_monitored_host_is_observable_end_to_end() {
        let host = HostMonitor::new("worker-1", MonitoringMode::Full);
        let mut deployment = deploy_redis(&host);
        // The counter is process-wide; no rule of any test here is refused.
        let failures = teemon_obs::probes::RULE_EVALUATION_FAILURES.get();
        host.run_scrape_loop(1);
        let request = teemon_frameworks::RequestProfile::keyvalue_get(64, 8_000);
        for _ in 0..300 {
            deployment.execute(&request, 320);
        }
        // The PMAN group evaluates at 5 s and again at 65 s, over the
        // requests in between.
        host.run_scrape_loop(12);
        assert!(!host.db().select(&Selector::metric("teemon_syscalls_total")).is_empty());
        assert!(!host.db().select(&Selector::metric("app_requests_total")).is_empty());
        assert_eq!(host.rules().rule_count(), 7, "PMAN's seven rules");
        assert_eq!(
            teemon_obs::probes::RULE_EVALUATION_FAILURES.get(),
            failures,
            "every PMAN rule evaluated over the scraped data"
        );
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
        // The plugged-in endpoint's samples land in the shared db.
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
        // only due on the first round; every other job a Full host stores —
        // the other three exporters and the self-scrape — every round.
        host.run_scrape_loop(4);
        let up = host.db().select(&Selector::metric("up"));
        let points_of = |job: &str| {
            up.iter().find(|r| r.label_value("job") == Some(job)).map_or(0, |r| r.len())
        };
        assert_eq!(points_of("node_exporter"), 4);
        assert_eq!(points_of("sgx_exporter"), 4);
        assert_eq!(points_of("ebpf_exporter"), 4);
        assert_eq!(points_of("teemon_self"), 4);
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
        assert_eq!(host.rules().rule_count(), 2 + 7);

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
        assert!(derived[0].at(u64::MAX).unwrap().value > 0.0, "observed a positive syscall rate");
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
            7 + 11,
            "PMAN's four thresholds and three bottleneck rules; imbalance, \
             slow-query, WAL-salvage, WAL-unclean, HTTP-shed, HTTP-panic and \
             HTTP-slow-client alerts, plus the four cardinality-defense alerts"
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
            Expr::Aggregate { expr, .. } | Expr::Scalar(expr) => selectors(expr, out),
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
        // An application whose request counter is a target, and what any
        // running enclave does: system calls, a context switch.
        let deployment = deploy_redis(&host);
        let pid = deployment.pid();
        host.kernel().syscall(pid, Syscall::Read, true);
        host.kernel().syscall(pid, Syscall::Futex, true);
        host.kernel().context_switch(pid, teemon_kernel_sim::SwitchKind::Voluntary);
        host.run_scrape_loop(2);
        let mut watched = Vec::new();
        for rule in &pman_alerts().rules {
            let teemon_query::Rule::Alert(alert) = rule else { panic!("alerts only") };
            selectors(&alert.expr, &mut watched);
        }
        assert_eq!(watched.len(), 10);
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

        let exporters: [(&str, &dyn MetricsEndpoint); 4] = [
            ("sgx_exporter", &sgx),
            ("ebpf_exporter", &ebpf),
            ("node_exporter", &node),
            ("cadvisor", &containers),
        ];
        for (job, exporter) in exporters {
            let typed = exporter.scrape()?;
            assert!(!typed.is_empty(), "{job} scraped nothing");
            let parsed = parse_families(&encode_text(&typed))?;
            assert_eq!(parsed, exporter.scrape()?, "{job}");
        }
        Ok(())
    }

    #[test]
    fn two_identical_hosts_store_identical_scrape_durations() {
        // The four exporters' durations only: the self target's size follows
        // process-wide probes that concurrent tests move.
        let run = |node: &str| {
            let host = HostMonitor::new(node, MonitoringMode::Full);
            host.run_scrape_loop(3);
            let mut durations = Vec::new();
            for series in host.db().select(&Selector::metric("scrape_duration_seconds")) {
                if series.label_value("job") != Some("teemon_self") {
                    let points = series.points_in(0, u64::MAX);
                    let bits: Vec<_> =
                        points.iter().map(|p| (p.timestamp_ms, p.value.to_bits())).collect();
                    durations.push((series.label_value("job").map(String::from), bits));
                }
            }
            durations.sort();
            durations
        };
        let first = run("worker-a");
        assert_eq!(first.len(), 4, "one series per exporter");
        assert!(first.iter().all(|(_, points)| points.len() == 3));
        assert_eq!(first, run("worker-b"));
    }

    /// `expr` over the aggregator's store at its newest sample: each result's
    /// `node` label (empty when it has none) and value, in that order.
    fn by_node(monitor: &ClusterMonitor, expr: &str) -> Vec<(String, f64)> {
        let db = monitor.aggregator().db();
        let at = db.newest_timestamp().unwrap_or(0);
        let value = teemon_query::QueryEngine::new(db.clone()).instant_query(expr, at).unwrap();
        let mut out: Vec<_> = value
            .as_vector()
            .unwrap_or(&[])
            .iter()
            .map(|s| (s.labels.get("node").unwrap_or("").to_string(), s.value))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn cluster_monitor_follows_topology() {
        let cluster = Cluster::with_nodes(2, 1);
        let mut monitor = ClusterMonitor::install(cluster.clone(), &HelmChart::teemon());
        assert_eq!(monitor.nodes().len(), 3, "one kernel per node hosting an endpoint");
        assert_eq!(monitor.endpoints().len(), 2 * 4 + 2);
        monitor.aggregator().run_scrape_loop(1);
        assert_eq!(by_node(&monitor, "sum(sgx_nr_enclaves)"), [(String::new(), 0.0)]);

        cluster.add_node(Node::sgx("sgx-new"));
        cluster.remove_node("sgx-0");
        let (added, removed) = monitor.reconcile();
        assert_eq!((added, removed), (1, 1));
        assert_eq!(monitor.nodes().len(), 3);
        let healthy = monitor.aggregator().scrape_tick();
        assert_eq!(
            healthy,
            2 * 4 + 2 + 1,
            "four exporters an SGX node, two on the plain node, and the aggregator's self target"
        );
    }

    #[test]
    fn cluster_wide_syscalls_are_the_sum_of_the_nodes_kernels() {
        let monitor = ClusterMonitor::install(Cluster::with_nodes(3, 1), &HelmChart::teemon());
        let aggregator = monitor.aggregator();
        assert_eq!(aggregator.rules().group_count(), 1, "PMAN's group, once for the fleet");
        let sgx_nodes = || monitor.nodes().iter().filter(|(node, _)| node.starts_with("sgx-"));
        for (calls, (_, kernel)) in [10, 20, 30].into_iter().zip(sgx_nodes()) {
            let enclave = teemon_kernel_sim::process::ProcessKind::Enclave;
            let pid = kernel.spawn_process("redis-server", enclave, 4);
            for _ in 0..calls {
                kernel.syscall(pid, Syscall::Read, true);
            }
        }
        aggregator.run_scrape_loop(1);
        let kernels: Vec<_> =
            sgx_nodes().map(|(node, k)| (node.clone(), k.counters().syscalls as f64)).collect();
        assert_eq!(kernels.iter().map(|(_, n)| n).sum::<f64>(), 10.0 + 20.0 + 30.0);
        assert_eq!(by_node(&monitor, "sum(teemon_syscalls_total)"), [(String::new(), 60.0)]);
        assert_eq!(by_node(&monitor, "sum by (node) (teemon_syscalls_total)"), kernels);
    }

    #[test]
    fn a_drained_node_leaves_the_targets_and_then_the_lookback() {
        let cluster = Cluster::with_nodes(2, 0);
        let mut monitor = ClusterMonitor::install(cluster.clone(), &HelmChart::teemon());
        let run = |monitor: &ClusterMonitor, rounds| monitor.aggregator().run_scrape_loop(rounds);
        let ups = |monitor: &ClusterMonitor| {
            by_node(monitor, r#"sum by (node) (up{job!="teemon_self"})"#)
        };
        run(&monitor, 2);
        assert_eq!(ups(&monitor), [("sgx-0".into(), 4.0), ("sgx-1".into(), 4.0)]);

        // The drained node's four targets leave in the reconcile; its series
        // stay visible to instant queries until the 5-minute lookback passes.
        cluster.set_ready("sgx-0", false);
        assert_eq!(monitor.reconcile(), (0, 1));
        assert_eq!(monitor.aggregator().scraper().target_count(), 4 + 1);
        run(&monitor, 1);
        assert_eq!(ups(&monitor), [("sgx-0".into(), 4.0), ("sgx-1".into(), 4.0)]);
        run(&monitor, 5 * 60 / 5);
        assert_eq!(ups(&monitor), [("sgx-1".into(), 4.0)]);

        // A joining node's targets scrape healthy at the next tick.
        cluster.add_node(Node::sgx("sgx-join"));
        assert_eq!(monitor.reconcile(), (1, 0));
        run(&monitor, 1);
        assert_eq!(ups(&monitor), [("sgx-1".into(), 4.0), ("sgx-join".into(), 4.0)]);
    }

    /// The `(job, instance)` of every target the aggregator scrapes, its own
    /// `aggregator:self` aside, from one forced round.
    fn scraped(monitor: &ClusterMonitor) -> BTreeSet<(String, String)> {
        let aggregator = monitor.aggregator();
        let now = aggregator.kernel().clock().now_millis();
        let outcomes = aggregator.scraper().scrape_once(now);
        outcomes
            .into_iter()
            .filter(|o| o.instance != "aggregator:self")
            .map(|o| (o.job, o.instance))
            .collect()
    }

    /// The `(job, instance)` of every endpoint discovery resolves.
    fn discovered(monitor: &ClusterMonitor) -> BTreeSet<(String, String)> {
        monitor.endpoints().into_iter().map(|e| (e.job, e.instance)).collect()
    }

    #[test]
    fn the_discovered_list_is_the_scraped_list() {
        let cluster = Cluster::with_nodes(4, 2);
        let mut monitor = ClusterMonitor::install(cluster.clone(), &HelmChart::teemon());
        assert_eq!(monitor.endpoints().len(), 4 * 4 + 2 * 2);
        assert_eq!(scraped(&monitor), discovered(&monitor));
        assert_eq!(
            monitor.aggregator().scrape_tick(),
            20 + 1,
            "every endpoint and the self target"
        );

        cluster.add_node(Node::sgx("sgx-join"));
        cluster.set_ready("sgx-0", false);
        assert_eq!(monitor.reconcile(), (1, 1));
        assert_eq!(scraped(&monitor), discovered(&monitor));
        assert_eq!(monitor.aggregator().scrape_tick(), monitor.endpoints().len() + 1);
    }

    #[test]
    fn each_chart_value_takes_effect() {
        let cluster = Cluster::with_nodes(2, 1);
        let default = ClusterMonitor::install(cluster.clone(), &HelmChart::teemon());
        assert_eq!(default.aggregator().scraper().interval_ms(), 5_000);
        assert_eq!(default.aggregator().db().config().retention_ms, 24 * 3_600_000);
        let everything = scraped(&default);
        for off in Exporter::ALL {
            let mut chart = HelmChart::teemon();
            let flag = match off {
                Exporter::Sgx => &mut chart.values.sgx_exporter,
                Exporter::Node => &mut chart.values.node_exporter,
                Exporter::Cadvisor => &mut chart.values.cadvisor,
                Exporter::Ebpf => &mut chart.values.ebpf_exporter,
            };
            *flag = false;
            let monitor = ClusterMonitor::install(cluster.clone(), &chart);
            let expected: BTreeSet<_> =
                everything.iter().filter(|(job, _)| job != off.job()).cloned().collect();
            assert!(expected.len() < everything.len(), "{off:?} had targets");
            assert_eq!(scraped(&monitor), expected, "{off:?} off");
        }
    }

    #[test]
    fn a_drained_nodes_series_leave_the_store() {
        let chart = HelmChart {
            values: ChartValues { retention_hours: 1, ..ChartValues::default() },
            ..HelmChart::teemon()
        };
        let cluster = Cluster::with_nodes(2, 0);
        let mut monitor = ClusterMonitor::install(cluster.clone(), &chart);
        let db = monitor.aggregator().db().clone();
        assert_eq!(db.config().retention_ms, 3_600_000);
        // The `teemon_self` job left out: its size follows the process's
        // history.
        let series_on = |node: Option<&str>| {
            db.select(&Selector::all())
                .iter()
                .filter(|s| s.label_value("job") != Some(teemon_obs::SELF_JOB))
                .filter(|s| node.is_none_or(|node| s.label_value("node") == Some(node)))
                .count()
        };
        monitor.aggregator().run_scrape_loop(2);
        let (held, drained) = (series_on(None), series_on(Some("sgx-0")));
        assert!(drained > 0 && held > drained);

        cluster.set_ready("sgx-0", false);
        assert_eq!(monitor.reconcile(), (0, 1));
        // One window of rounds, and one pass more: the loop's retention pass
        // runs each sixteenth of the window.
        let window = 3_600 / 5;
        monitor.aggregator().run_scrape_loop(window / 2);
        assert_eq!(series_on(None), held, "still inside the retention window");
        monitor.aggregator().run_scrape_loop(window / 2 + window / RETENTION_PASSES_PER_WINDOW);
        assert_eq!(series_on(Some("sgx-0")), 0, "the drained node's series are evicted");
        assert_eq!(series_on(None), held - drained, "what the remaining node holds");
    }
}
