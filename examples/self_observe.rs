//! Self-observability end to end: the engine watches itself.
//!
//! A full TEEMon host monitors a workload while its own telemetry — scrape
//! round timings, storage shard heat, query plan choices, lock contention —
//! is scraped by the `teemon_self` target into the same database, rendered
//! on the built-in "Teemon Self" dashboard, and watched by the built-in
//! self-observe alert group.  `QueryEngine::explain`/`analyze` show the
//! plan tree and measured counters for individual queries.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example self_observe
//! ```

use teemon::{MonitorBuilder, MonitoringMode};
use teemon_apps::{Application, RedisApp};
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams};
use teemon_query::QueryEngine;
use teemon_tsdb::Selector;

fn main() {
    // 1. A fully monitored host with the self-scrape target (registered by
    //    default in Full mode) and the built-in self-observe alert group.
    let host = MonitorBuilder::new("worker-1")
        .mode(MonitoringMode::Full)
        .scrape_interval_ms(5_000)
        .with_self_observe_alerts()
        .build();
    // Full-mode recount: sgx_exporter, node_exporter, cadvisor and
    // ebpf_exporter — four exporters — plus the `teemon_self` target the
    // engine scrapes itself through makes 5 targets on this host.
    assert_eq!(host.scraper().target_count(), 5);

    // 2. A workload to monitor, so the self-telemetry shows real ingest load.
    let app = RedisApp::paper_config(16);
    let mut deployment = Deployment::deploy(
        host.kernel(),
        FrameworkParams::for_kind(FrameworkKind::Scone),
        app.name(),
        app.memory_bytes(),
        app.threads(),
        42,
    )
    .expect("deployment");
    let request = app.request(8, 320);

    // Catch every query over 50 µs in the slow-query ring for the demo.
    teemon_obs::set_threshold_seconds(0.000_05);

    // 3. Drive load and run queries while the monitor scrapes — each round
    //    also snapshots the engine's probes through the self target.
    let engine = QueryEngine::new(host.db().clone());
    for _ in 0..12 {
        for _ in 0..300 {
            deployment.execute(&request, 320);
        }
        host.run_scrape_loop(1);
        let now = host.kernel().clock().now_millis();
        let start = now.saturating_sub(30_000);
        // A grouped rate and a vector-vector match.
        let _ = engine.range_query(
            "sum by (node) (rate(teemon_syscalls_total[30s]))",
            start,
            now,
            5_000,
        );
        let _ =
            engine.range_query("teemon_syscalls_total + teemon_syscalls_total", start, now, 5_000);
    }

    // 4. EXPLAIN: the plan tree with its series counts, unexecuted.
    let now = host.kernel().clock().now_millis();
    let start = now.saturating_sub(30_000);
    for query in [
        "sum by (node) (rate(teemon_syscalls_total[30s]))",
        "teemon_syscalls_total + teemon_syscalls_total",
    ] {
        let explain = engine.explain(query, start, now).expect("query plans");
        println!("EXPLAIN {explain}\n");
    }

    // 5. ANALYZE: the same plan annotated with measured counters.
    let analyze = engine
        .analyze("sum by (node) (rate(teemon_syscalls_total[30s]))", start, now, 5_000)
        .expect("query runs");
    println!("ANALYZE {analyze}\n");

    // 6. The dogfooded dashboard over the self-scraped series.
    println!("{}", host.render_dashboard("Teemon Self", 64).expect("self dashboard"));

    // 7. The slow-query ring (newest first).
    println!("slow queries (threshold lowered to 50 µs for the demo):");
    for slow in teemon_obs::slow_queries().into_iter().take(5) {
        println!(
            "  {:>9.3} ms  decoded={} irregular={} {}",
            slow.wall_seconds * 1e3,
            slow.samples_decoded,
            slow.irregular_series,
            slow.query,
        );
    }

    // 8. Lock contention, straight from the vendored parking_lot shim.
    println!("\nlock contention by class:");
    parking_lot::contention::for_each(&mut |class| {
        println!(
            "  {:<24} acquires={:<8} contended={:<6} waited={:.3} ms",
            class.name,
            class.acquires,
            class.contended,
            class.wait_ns_sum as f64 / 1e6,
        );
    });

    // 9. Self-observe alerts.
    let firing = host.rules().firing_alerts();
    if firing.is_empty() {
        println!("\nself-observe alerts: none firing");
    } else {
        println!("\nself-observe alerts firing:");
        for alert in firing {
            println!("  [{:?}] {} — {}", alert.severity, alert.rule, alert.hint);
        }
    }

    // The self job's series live in the same database as the workload's.
    let self_series = host.db().select(&Selector::metric("teemon_scrape_rounds_total"));
    println!(
        "\nself job ingested {} series for teemon_scrape_rounds_total (job={})",
        self_series.len(),
        self_series.first().and_then(|series| series.label_value("job")).unwrap_or("?"),
    );
}
