//! Continuous profiling during code evolution (§6.4 of the paper).
//!
//! Runs the Redis benchmark under two SCONE releases on a fully monitored
//! host and shows how TEEMon's syscall statistics reveal the
//! `clock_gettime` bottleneck that the later commit fixes — roughly doubling
//! throughput.  The host is scraped just before and just after the measured
//! requests; the syscall rate and PMAN's verdict are read from those scrapes.
//!
//! ```text
//! cargo run --release --example code_evolution
//! ```

use teemon::{MonitorBuilder, MonitoringMode};
use teemon_analysis::Analyzer;
use teemon_apps::{run_benchmark, MemtierConfig, NetworkModel, RedisApp};
use teemon_frameworks::{FrameworkParams, SconeVersion};
use teemon_query::QueryEngine;
use teemon_sim_core::SimDuration;

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
        let result = run_benchmark(host.kernel(), params, &app, &network, &config, |_| {
            // Each scrape lands in a millisecond of its own.
            clock.advance(SimDuration::from_millis(1));
            host.scrape_tick();
            edges.push(clock.now_millis());
        })
        .expect("benchmark run");
        let (start, end) = (edges[0], edges[1]);

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

        // PMAN's diagnosis.
        let analyzer: &Analyzer = host.analyzer();
        match analyzer.diagnose_syscall_mix("teemon_syscalls_total", start, end) {
            Some(finding) => println!("  PMAN: {}", finding.explanation),
            None => println!("  PMAN: syscall mix looks healthy (I/O-bound)"),
        }
        println!();
    }
}
