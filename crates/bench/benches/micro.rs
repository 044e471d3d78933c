//! Microbenchmarks of TEEMon's own machinery (ablation of the overhead
//! figures): hook dispatch with and without attached programs, exposition
//! encoding/parsing, the typed vs text scrape pipeline and the TeeQL query
//! engine.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teemon_exporters::{Collector, ContainerExporter, EbpfExporter, NodeExporter, SgxExporter};
use teemon_kernel_sim::process::ProcessKind;
use teemon_kernel_sim::{Kernel, Syscall};
use teemon_metrics::{exposition, FamilySnapshot, Labels, Registry, RegistryCollector};
use teemon_query::{parse, QueryEngine};
use teemon_tsdb::{ScrapeError, ScrapeTargetConfig, Scraper, TimeSeriesDb};

fn bench_hooks(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/syscall_dispatch");
    group.sample_size(30);

    // Monitoring OFF: no programs attached — the instrumentation-free baseline.
    let kernel_off = Kernel::new();
    let pid_off = kernel_off.spawn_process("redis-server", ProcessKind::User, 1);
    group.bench_function("monitoring_off", |b| {
        b.iter(|| black_box(kernel_off.syscall(pid_off, Syscall::Read, false)))
    });

    // eBPF ON: the standard program set observes every syscall.
    let kernel_on = Kernel::new();
    let _exporter = EbpfExporter::attach(&kernel_on, "bench-node");
    let pid_on = kernel_on.spawn_process("redis-server", ProcessKind::User, 1);
    group.bench_function("ebpf_on", |b| {
        b.iter(|| black_box(kernel_on.syscall(pid_on, Syscall::Read, false)))
    });
    group.finish();
}

fn bench_exposition(c: &mut Criterion) {
    let registry = Registry::new();
    let counters = registry.counter_family("teemon_syscalls_total", "syscalls");
    for syscall in ["read", "write", "futex", "clock_gettime", "epoll_wait", "sendto"] {
        counters.with(&Labels::from_pairs([("syscall", syscall)])).inc_by(1234.0);
    }
    let text = exposition::encode_text(&registry.gather());

    let mut group = c.benchmark_group("micro/exposition");
    group.bench_function("encode", |b| {
        b.iter(|| black_box(exposition::encode_text(&registry.gather())))
    });
    // What the remote-write and text-source edges run on an inbound document.
    let limits = exposition::ParseLimits::network();
    group.bench_function("parse", |b| {
        b.iter(|| black_box(exposition::parse_families_bounded(&text, limits).unwrap()))
    });
    group.finish();
}

type CollectorTargets = Vec<(ScrapeTargetConfig, Arc<dyn Collector>)>;

/// Builds a node's full exporter set (SGX, eBPF, node, cAdvisor) on a kernel
/// with realistic activity, and returns the four collectors.
fn full_exporter_set() -> (Kernel, CollectorTargets) {
    let kernel = Kernel::new();
    let node = "bench-node";
    let ebpf = EbpfExporter::attach(&kernel, node);
    kernel.sgx_driver().create_enclave(1, 16 << 20, 4).unwrap();
    let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
    for syscall in [Syscall::Read, Syscall::Write, Syscall::ClockGettime, Syscall::Futex] {
        for _ in 0..64 {
            kernel.syscall(pid, syscall, true);
        }
    }
    let containers = ContainerExporter::new(node);
    containers.register_container(teemon_exporters::ContainerSpec {
        name: "redis-0".into(),
        image: "redis:5".into(),
        pid: pid.as_u32(),
        memory_limit_bytes: 1 << 30,
    });
    let targets: CollectorTargets = vec![
        (
            ScrapeTargetConfig::new("sgx_exporter", "bench-node:9090"),
            Arc::new(SgxExporter::new(kernel.sgx_driver().clone(), node)),
        ),
        (
            ScrapeTargetConfig::new("ebpf_exporter", "bench-node:9435"),
            Arc::new(RegistryCollector::new("ebpf_exporter", ebpf.registry().clone())),
        ),
        (
            ScrapeTargetConfig::new("node_exporter", "bench-node:9100"),
            Arc::new(NodeExporter::new(&kernel, node)),
        ),
        (ScrapeTargetConfig::new("cadvisor", "bench-node:8080"), Arc::new(containers)),
    ];
    (kernel, targets)
}

/// The headline comparison for the typed pipeline redesign: scraping a node's
/// full exporter set through typed snapshots vs through the OpenMetrics text
/// round-trip (encode on the exporter side, parse on the scraper side) that
/// the paper's multi-process deployment pays on every scrape.
fn bench_scrape_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/scrape_full_node");
    group.sample_size(30);

    let (_kernel, targets) = full_exporter_set();
    let typed = Scraper::new(TimeSeriesDb::new());
    for (config, collector) in &targets {
        typed.add_collector(config.clone(), Arc::clone(collector));
    }
    let mut now = 0u64;
    group.bench_function("typed", |b| {
        b.iter(|| {
            now += 5_000;
            black_box(typed.scrape_once(now))
        })
    });

    let (_kernel, targets) = full_exporter_set();
    let text = Scraper::new(TimeSeriesDb::new());
    for (config, collector) in &targets {
        let collector = Arc::clone(collector);
        let round_trip = move || -> Result<Vec<FamilySnapshot>, ScrapeError> {
            collector.refresh();
            let document = exposition::encode_text(&collector.collect()?);
            Ok(exposition::parse_families(&document)?)
        };
        text.add_target(config.clone(), Arc::new(round_trip));
    }
    let mut now = 0u64;
    group.bench_function("text_round_trip", |b| {
        b.iter(|| {
            now += 5_000;
            black_box(text.scrape_once(now))
        })
    });
    group.finish();
}

/// A database resembling an hour of cluster monitoring: 8 nodes × 4 syscall
/// counter series plus a gauge per node, at 5 s resolution.
fn populated_tsdb() -> TimeSeriesDb {
    let db = TimeSeriesDb::new();
    for t in 0..720u64 {
        for node in 0..8u32 {
            let node_name = format!("node-{node}");
            for (syscall, per_tick) in
                [("read", 500.0), ("write", 480.0), ("futex", 90.0), ("clock_gettime", 2_100.0)]
            {
                db.append(
                    "teemon_syscalls_total",
                    &Labels::from_pairs([("node", node_name.as_str()), ("syscall", syscall)]),
                    t * 5_000,
                    t as f64 * per_tick * (1.0 + node as f64 / 8.0),
                );
            }
            db.append(
                "sgx_nr_free_pages",
                &Labels::from_pairs([("node", node_name.as_str())]),
                t * 5_000,
                24_064.0 - ((t * (node as u64 + 1)) % 20_000) as f64,
            );
        }
    }
    db
}

/// The TeeQL pipeline stages: parse only, one instant evaluation, and a
/// dashboard-sized range evaluation with grouping + rate.
fn bench_query_engine(c: &mut Criterion) {
    const QUERY: &str = "sum by (node) (rate(teemon_syscalls_total[1m]))";
    let mut group = c.benchmark_group("micro/query_engine");
    group.sample_size(30);

    group.bench_function("parse_only", |b| b.iter(|| black_box(parse(QUERY).unwrap())));

    let engine = QueryEngine::new(populated_tsdb());
    let expr = parse(QUERY).unwrap();
    group.bench_function("instant_query", |b| {
        b.iter(|| black_box(engine.instant(&expr, 3_600_000).unwrap()))
    });

    // A graph panel's workload: 60 steps over 30 minutes.
    group.bench_function("range_query_30m_step30s", |b| {
        b.iter(|| black_box(engine.range(&expr, 1_800_000, 3_600_000, 30_000).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_hooks, bench_exposition, bench_scrape_paths, bench_query_engine
}
criterion_main!(benches);
