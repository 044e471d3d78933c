//! Dashboards and the three standard TEEMon dashboards.

use serde::{Deserialize, Serialize};
use teemon_tsdb::{Selector, TimeSeriesDb};

use crate::panel::{Panel, PanelData, PanelKind};

/// A named group of panels (one Grafana dashboard).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dashboard {
    /// Dashboard title.
    pub title: String,
    /// Panels in display order.
    pub panels: Vec<Panel>,
}

impl Dashboard {
    /// Creates an empty dashboard.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), panels: Vec::new() }
    }

    /// Adds a panel.
    #[must_use]
    pub(crate) fn with_panel(mut self, panel: Panel) -> Self {
        self.panels.push(panel);
        self
    }

    /// Evaluates every panel over `[start_ms, end_ms]`.
    pub(crate) fn evaluate(&self, db: &TimeSeriesDb, start_ms: u64, end_ms: u64) -> Vec<PanelData> {
        self.panels.iter().map(|p| p.evaluate(db, start_ms, end_ms)).collect()
    }

    /// Renders the whole dashboard as text.
    pub fn render(&self, db: &TimeSeriesDb, start_ms: u64, end_ms: u64, width: usize) -> String {
        let mut out = format!("### {} ###\n", self.title);
        for data in self.evaluate(db, start_ms, end_ms) {
            out.push_str(&data.render(width));
            out.push('\n');
        }
        out
    }
}

/// The set of dashboards deployed together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DashboardSet {
    /// All dashboards.
    pub dashboards: Vec<Dashboard>,
}

impl DashboardSet {
    /// Finds a dashboard by title.
    pub fn get(&self, title: &str) -> Option<&Dashboard> {
        self.dashboards.iter().find(|d| d.title == title)
    }
}

/// Builds the standard TEEMon dashboards: the three of §5.3 (SGX, containers
/// and infrastructure), PMAN's box plot and firing alerts (§4), and the
/// dogfooded "Teemon Self" dashboard over the engine's own telemetry
/// (`job="teemon_self"`).
pub fn standard() -> DashboardSet {
    let sgx = Dashboard::new("SGX")
        .with_panel(
            Panel::gauge("EPC free pages", Selector::metric("sgx_nr_free_pages"), 24_064.0)
                .with_unit("pages"),
        )
        .with_panel(
            Panel::graph("EPC pages evicted", Selector::metric("sgx_pages_evicted_total"))
                .with_unit("pages"),
        )
        .with_panel(
            Panel::teeql(
                "EPC eviction rate by node",
                "sum by (node) (rate(sgx_pages_evicted_total[30s]))",
            )
            .with_unit("pages/s"),
        )
        .with_panel(
            Panel::graph("Enclave page faults", Selector::metric("sgx_enclave_page_faults_total"))
                .with_unit("faults"),
        )
        .with_panel(Panel::stat("Active enclaves", Selector::metric("sgx_nr_enclaves")))
        .with_panel(
            Panel::table("System calls by type", Selector::metric("teemon_syscalls_total"))
                .with_unit("calls"),
        )
        .with_panel(
            Panel::graph("Page faults (host)", Selector::metric("teemon_page_faults_total"))
                .with_unit("faults"),
        );

    let docker = Dashboard::new("Containers")
        .with_panel(
            Panel::table("CPU by container", Selector::metric("container_cpu_usage_seconds_total"))
                .with_unit("s"),
        )
        .with_panel(
            Panel::table(
                "Memory working set",
                Selector::metric("container_memory_working_set_bytes"),
            )
            .with_unit("bytes"),
        )
        .with_panel(
            Panel::graph(
                "Network received",
                Selector::metric("container_network_receive_bytes_total"),
            )
            .with_unit("bytes"),
        );

    let infrastructure = Dashboard::new("Infrastructure")
        .with_panel(
            Panel::graph("Context switches", Selector::metric("teemon_context_switches_total"))
                .with_unit("switches"),
        )
        .with_panel(
            Panel::graph("Cache events", Selector::metric("teemon_cache_events_total"))
                .with_unit("events"),
        )
        .with_panel(
            Panel::gauge(
                "Memory available",
                Selector::metric("node_memory_MemAvailable_bytes"),
                32.0 * 1024.0 * 1024.0 * 1024.0,
            )
            .with_unit("bytes"),
        )
        .with_panel(Panel::stat("Nodes up", Selector::metric("up")))
        .with_panel(Panel::table("Scrape health", Selector::metric("up")));

    // PMAN (§4): "in each time window … provides a box plot for SGX
    // metrics", every minute over the last five minutes, beside the
    // threshold alerts that fired.
    let box_plot =
        |title: &str, expr: &str| Panel::teeql(title, expr).with_unit("pages").with_step_ms(60_000);
    let pman = Dashboard::new("PMAN")
        .with_panel(box_plot("EPC free pages: min (5m)", "min_over_time(sgx_nr_free_pages[5m])"))
        .with_panel(box_plot(
            "EPC free pages: q1 (5m)",
            "quantile_over_time(0.25, sgx_nr_free_pages[5m])",
        ))
        .with_panel(box_plot(
            "EPC free pages: median (5m)",
            "quantile_over_time(0.5, sgx_nr_free_pages[5m])",
        ))
        .with_panel(box_plot(
            "EPC free pages: q3 (5m)",
            "quantile_over_time(0.75, sgx_nr_free_pages[5m])",
        ))
        .with_panel(box_plot("EPC free pages: max (5m)", "max_over_time(sgx_nr_free_pages[5m])"))
        .with_panel(Panel::table(
            "Firing alerts",
            Selector::metric("ALERTS").with_label("alertstate", "firing"),
        ));

    // The engine watching itself: every panel reads series the self-scrape
    // target ingests from `teemon_obs` probes (no external exporter involved).
    let teemon_self = Dashboard::new("Teemon Self")
        .with_panel(
            Panel::teeql("Scrape rounds", "rate(teemon_scrape_rounds_total[30s])")
                .with_unit("rounds/s"),
        )
        // Chunk memory only — `StorageStats::total_bytes` adds the symbol
        // and index panels below for the engine's whole footprint.
        .with_panel(
            Panel::stat("Resident chunk bytes", Selector::metric("teemon_tsdb_resident_bytes"))
                .with_unit("bytes"),
        )
        .with_panel(
            Panel::stat("Symbol table bytes", Selector::metric("teemon_tsdb_symbol_bytes"))
                .with_unit("bytes"),
        )
        .with_panel(
            Panel::stat("Index bytes", Selector::metric("teemon_tsdb_index_bytes"))
                .with_unit("bytes"),
        )
        .with_panel(
            Panel::stat("Interned symbols", Selector::metric("teemon_tsdb_symbols"))
                .with_unit("symbols"),
        )
        .with_panel(
            Panel::stat("Symbols swept", Selector::metric("teemon_tsdb_symbols_swept_total"))
                .with_unit("symbols"),
        )
        .with_panel(
            Panel::teeql("Budget rejections", "rate(teemon_scrape_budget_rejected_total[30s])")
                .with_unit("samples/s"),
        )
        .with_panel(
            Panel::table("Overflow by job", Selector::metric("teemon_overflow_series_total"))
                .with_unit("samples"),
        )
        .with_panel(
            Panel::stat(
                "HTTP too-many-series rejections",
                Selector::metric("teemon_http_cardinality_rejected_total"),
            )
            .with_unit("requests"),
        )
        .with_panel(
            Panel::stat("Stored samples", Selector::metric("teemon_tsdb_samples"))
                .with_unit("samples"),
        )
        .with_panel(
            Panel::table("Series per shard", Selector::metric("teemon_tsdb_shard_series"))
                .with_unit("series"),
        )
        .with_panel(
            Panel::teeql("Shard append heat", "rate(teemon_tsdb_shard_appends_total[30s])")
                .with_unit("samples/s"),
        )
        .with_panel(
            Panel::teeql("Query modes", "rate(teemon_query_range_total[30s])")
                .with_unit("queries/s"),
        )
        .with_panel(
            Panel::teeql("Slow queries", "rate(teemon_query_slow_total[30s])")
                .with_unit("queries/s"),
        )
        .with_panel(
            Panel::table("Lock contention", Selector::metric("teemon_lock_contended_total"))
                .with_unit("acquires"),
        )
        .with_panel(
            Panel::teeql("WAL write rate", "rate(teemon_wal_bytes_written_total[30s])")
                .with_unit("bytes/s"),
        )
        // One group, one write per round.  TeeQL has no
        // `histogram_quantile`, so the flush's p50/p99 are read off the
        // cumulative `le` buckets; the write rate equals "Scrape rounds"
        // above when every round costs exactly one write.
        .with_panel(
            Panel::teeql("WAL flush time", "sum by (le) (teemon_wal_flush_seconds_bucket)")
                .with_kind(PanelKind::Table)
                .with_unit("flushes"),
        )
        .with_panel(
            Panel::teeql("WAL writes", "rate(teemon_wal_writes_total[30s])").with_unit("writes/s"),
        )
        .with_panel(
            Panel::stat("WAL salvaged tails", Selector::metric("teemon_wal_salvage_total"))
                .with_unit("truncations"),
        )
        .with_panel(
            Panel::stat("WAL failed shards", Selector::metric("teemon_wal_failed_shards"))
                .with_unit("shards"),
        )
        .with_panel(
            Panel::stat("WAL unclean rounds", Selector::metric("teemon_wal_unclean_rounds_total"))
                .with_unit("rounds"),
        )
        .with_panel(
            Panel::stat("HTTP shed requests", Selector::metric("teemon_http_shed_total"))
                .with_unit("requests"),
        )
        .with_panel(
            Panel::stat("HTTP handler panics", Selector::metric("teemon_http_panics_total"))
                .with_unit("panics"),
        )
        .with_panel(
            Panel::stat("HTTP slow clients", Selector::metric("teemon_http_slow_clients_total"))
                .with_unit("clients"),
        );

    DashboardSet { dashboards: vec![sgx, docker, infrastructure, pman, teemon_self] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_metrics::Labels;

    fn populated_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..12u64 {
            let labels = Labels::from_pairs([("node", "n1")]);
            db.append("sgx_nr_free_pages", &labels, t * 5_000, 24_000.0 - 500.0 * t as f64);
            db.append("sgx_pages_evicted_total", &labels, t * 5_000, (t * 40) as f64);
            db.append("sgx_nr_enclaves", &labels, t * 5_000, 3.0);
            db.append("up", &Labels::from_pairs([("instance", "n1:9090")]), t * 5_000, 1.0);
            db.append(
                "container_cpu_usage_seconds_total",
                &Labels::from_pairs([("container", "redis-0")]),
                t * 5_000,
                t as f64,
            );
        }
        db
    }

    #[test]
    fn standard_set_has_five_dashboards() {
        let set = standard();
        assert_eq!(set.dashboards.len(), 5);
        let titles: Vec<&str> = set.dashboards.iter().map(|d| d.title.as_str()).collect();
        assert_eq!(titles, ["SGX", "Containers", "Infrastructure", "PMAN", "Teemon Self"]);
        assert!(set.get("SGX").is_some());
        assert!(set.get("Nope").is_none());
        // The SGX dashboard shows EPC metrics and eBPF metrics (Figure 3).
        let sgx = set.get("SGX").unwrap();
        assert!(sgx.panels.len() >= 5);
        // The self dashboard covers ingest, storage, query, lock and
        // durability probes.
        let own = set.get("Teemon Self").unwrap();
        assert!(own.panels.len() >= 12);
        assert!(own.panels.iter().any(|p| p.title.starts_with("WAL")));
        // One stat panel per HTTP self-alert (shed, panics, slow clients).
        assert!(own.panels.iter().filter(|p| p.title.starts_with("HTTP")).count() >= 3);
    }

    #[test]
    fn pman_dashboard_draws_the_box_plot_and_the_firing_alerts() {
        // 1, 2, …, 100 free pages, one a second: one 5-minute window.
        let db = TimeSeriesDb::new();
        for i in 0..100u64 {
            db.append("sgx_nr_free_pages", &Labels::new(), i * 1_000, (i + 1) as f64);
        }
        let alert = |state: &str| {
            Labels::from_pairs([("alertname", "epc_free_pages_low"), ("alertstate", state)])
        };
        db.append("ALERTS", &alert("pending"), 60_000, 1.0);
        db.append("ALERTS", &alert("firing"), 99_000, 1.0);
        let set = standard();
        let pman = set.get("PMAN").unwrap();
        let current: Vec<f64> =
            pman.evaluate(&db, 0, u64::MAX).iter().map(|p| p.current.unwrap()).collect();
        assert_eq!(current, [1.0, 25.75, 50.5, 75.25, 100.0, 1.0], "min, q1, median, q3, max");
        let table = pman.panels[5].evaluate(&db, 0, u64::MAX).render(80);
        assert!(table.contains("alertstate=\"firing\""), "{table}");
        assert!(!table.contains("pending"), "{table}");
    }

    #[test]
    fn self_dashboard_renders_from_self_scraped_series() {
        let db = TimeSeriesDb::new();
        let self_labels = Labels::from_pairs([("job", "teemon_self"), ("instance", "n1:self")]);
        for t in 1..=6u64 {
            db.append("teemon_scrape_rounds_total", &self_labels, t * 5_000, t as f64);
            db.append("teemon_tsdb_resident_bytes", &self_labels, t * 5_000, 4096.0 * t as f64);
            db.append("teemon_tsdb_samples", &self_labels, t * 5_000, 100.0 * t as f64);
            for shard in 0..4u64 {
                let mut labels = self_labels.clone();
                labels.insert("shard", shard.to_string());
                db.append("teemon_tsdb_shard_series", &labels, t * 5_000, 12.0);
            }
            db.append("teemon_wal_bytes_written_total", &self_labels, t * 5_000, 900.0 * t as f64);
            db.append("teemon_wal_writes_total", &self_labels, t * 5_000, t as f64);
            for (le, share) in [("1e-5", 0.5), ("2e-5", 0.99), ("+Inf", 1.0)] {
                let mut labels = self_labels.clone();
                labels.insert("le", le.to_string());
                db.append("teemon_wal_flush_seconds_bucket", &labels, t * 5_000, share * t as f64);
            }
            db.append("teemon_wal_salvage_total", &self_labels, t * 5_000, 0.0);
            db.append("teemon_wal_failed_shards", &self_labels, t * 5_000, 0.0);
            db.append("teemon_http_shed_total", &self_labels, t * 5_000, (t * 2) as f64);
            db.append("teemon_http_panics_total", &self_labels, t * 5_000, 0.0);
            db.append("teemon_http_slow_clients_total", &self_labels, t * 5_000, 1.0);
            db.append("teemon_tsdb_symbol_bytes", &self_labels, t * 5_000, 2048.0);
            db.append("teemon_tsdb_index_bytes", &self_labels, t * 5_000, 1024.0);
            let mut job = self_labels.clone();
            job.insert("job", "churny".to_string());
            db.append("teemon_overflow_series_total", &job, t * 5_000, t as f64);
        }
        let set = standard();
        let rendered = set.get("Teemon Self").unwrap().render(&db, 0, u64::MAX, 50);
        assert!(rendered.contains("Scrape rounds"));
        assert!(rendered.contains("Resident chunk bytes"));
        assert!(rendered.contains("Symbol table bytes"));
        assert!(rendered.contains("Index bytes"));
        assert!(rendered.contains("Overflow by job"));
        assert!(rendered.contains("Series per shard"));
        assert!(rendered.contains("WAL write rate"));
        assert!(rendered.contains("WAL flush time"));
        assert!(rendered.contains("WAL writes"));
        assert!(rendered.contains("WAL failed shards"));
        assert!(rendered.contains("HTTP shed requests"));
        assert!(rendered.contains("HTTP handler panics"));
        assert!(rendered.contains("HTTP slow clients"));
        let evaluated = set.get("Teemon Self").unwrap().evaluate(&db, 0, u64::MAX);
        assert!(evaluated.iter().filter(|p| !p.aggregated.is_empty()).count() >= 4);
    }

    #[test]
    fn dashboards_evaluate_and_render() {
        let db = populated_db();
        let set = standard();
        let rendered = set.get("SGX").unwrap().render(&db, 0, u64::MAX, 50);
        assert!(rendered.contains("EPC free pages"));
        assert!(rendered.contains("Active enclaves"));
        assert!(rendered.contains('#'), "gauge fill expected");
        let evaluated = set.get("Containers").unwrap().evaluate(&db, 0, u64::MAX);
        assert!(evaluated.iter().any(|p| !p.aggregated.is_empty()));
    }

    #[test]
    fn a_departed_node_stops_counting_after_the_lookback() {
        // Two nodes report `up`; n2 goes silent ten minutes before the newest
        // sample, twice the engine's five-minute lookback.
        let db = TimeSeriesDb::new();
        for t in (0..=1_200_000u64).step_by(15_000) {
            db.append("up", &Labels::from_pairs([("instance", "n1:9090")]), t, 1.0);
            if t <= 600_000 {
                db.append("up", &Labels::from_pairs([("instance", "n2:9090")]), t, 1.0);
            }
        }
        let infrastructure = standard().get("Infrastructure").unwrap().clone();
        let panel = |title: &str| infrastructure.panels.iter().find(|p| p.title == title).unwrap();
        let nodes_up = panel("Nodes up");
        assert_eq!(nodes_up.evaluate(&db, 0, u64::MAX).current, Some(1.0));
        // While n2 reported, both counted.
        assert_eq!(nodes_up.evaluate(&db, 0, 600_000).current, Some(2.0));
        // The table keeps only the node that is still reporting.
        let table = panel("Scrape health").evaluate(&db, 0, u64::MAX).render(60);
        assert!(table.contains("n1:9090") && !table.contains("n2:9090"), "{table}");
    }
}
