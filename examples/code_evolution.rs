//! Continuous profiling during code evolution (§6.4 of the paper).
//!
//! Runs the Redis benchmark under two SCONE releases on a fully monitored
//! host and shows how TEEMon's syscall statistics reveal the
//! `clock_gettime` bottleneck that the later commit fixes — roughly doubling
//! throughput.  The host is scraped just before and just after the measured
//! requests, and the syscall rate is read from those scrapes.  The run is
//! shorter than PMAN's one-minute cadence, so the monitoring loop runs on for
//! one cadence past it, and PMAN's verdict is what the loop's rule group
//! raised over that trailing window.
//!
//! ```text
//! cargo run --release --example code_evolution
//! ```

use std::sync::Arc;

use teemon::{MonitorBuilder, MonitoringMode};
use teemon_analysis::pman_alerts;
use teemon_apps::{run_benchmark, MemtierConfig, NetworkModel, RedisApp};
use teemon_frameworks::{FrameworkParams, SconeVersion};
use teemon_query::QueryEngine;
use teemon_sim_core::SimDuration;
use teemon_tsdb::ScrapeTargetConfig;

fn main() {
    let app = RedisApp::paper_config(32);
    let network = NetworkModel::loopback();
    let config = MemtierConfig::paper_default(64).with_samples(4_000);

    for version in [SconeVersion::Commit572bd1a5, SconeVersion::Commit09fea91] {
        // A monitored host per run, like a CI job with TEEMon attached.
        let host = MonitorBuilder::new("ci-runner").mode(MonitoringMode::Full).build();
        let clock = host.kernel().clock();
        let params = FrameworkParams::scone(version);
        let mut edges = Vec::new();
        let result = run_benchmark(host.kernel(), params, &app, &network, &config, |deployment| {
            if edges.is_empty() {
                let target = ScrapeTargetConfig::new("redis", "ci-runner:9121");
                host.scraper().add_target(target, Arc::new(deployment.request_counter()));
            }
            // Each scrape lands in a millisecond of its own.
            clock.advance(SimDuration::from_millis(1));
            host.scrape_tick();
            edges.push(clock.now_millis());
        })
        .expect("benchmark run");
        let (start, end) = (edges[0], edges[1]);
        // One more cadence of the monitoring loop: PMAN evaluates after the run.
        host.run_scrape_loop(pman_alerts().interval_ms.div_ceil(host.scraper().interval_ms()));

        let engine = QueryEngine::new(host.db().clone());
        let syscalls = |at| {
            let total = engine.instant_query("sum(teemon_syscalls_total)", at).expect("parses");
            total.as_vector().and_then(|v| Some(v.first()?.value)).unwrap_or(0.0)
        };
        let per_100 = (syscalls(end) - syscalls(start)) * 100.0 / config.sample_requests as f64;

        println!("== SCONE commit {} ==", version.commit_hash());
        println!("  throughput : {:>12.0} IOP/s", result.throughput_iops);
        println!("  latency    : {:>12.2} ms", result.latency_ms);
        println!("  syscalls   : {:>12.1} per 100 requests", per_100);

        // The syscall mix TEEMon recorded (Figure 6).
        let per_syscall =
            engine.instant_query("sum by (syscall) (teemon_syscalls_total)", end).expect("parses");
        let mut mix: Vec<(String, f64)> = per_syscall
            .as_vector()
            .unwrap_or_default()
            .iter()
            .filter_map(|s| Some((s.labels.get("syscall")?.to_string(), s.value)))
            .collect();
        mix.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!("  top syscalls observed:");
        for (syscall, count) in mix.iter().take(5) {
            println!("    {syscall:<16} {count:>12.0}");
        }

        // PMAN's diagnosis, as the loop raised it.
        let firing = host.rules().firing_alerts();
        match firing.iter().find(|alert| alert.rule == "syscall_dominance") {
            Some(alert) => println!(
                "  PMAN: {} accounts for {:.0}% of system calls — {}",
                alert.labels.get("syscall").unwrap_or("one call"),
                alert.value * 100.0,
                alert.hint
            ),
            None => println!("  PMAN: syscall mix looks healthy (I/O-bound)"),
        }
        println!();
    }
}
