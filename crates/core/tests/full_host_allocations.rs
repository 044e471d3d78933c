//! What a warm `Full` host's scrape tick allocates, pinned: the baseline an
//! allocation-free exporter has to beat.
//!
//! The store's side of a warm round allocates nothing
//! (`crates/tsdb/tests/alloc_free_scrape.rs`), so a tick costs what its
//! endpoints build.  The split calls each endpoint's `scrape_visit` on its
//! own: twins of the four exporters the host installs, on the same kernel,
//! seeing the same activity, and a `teemon_self` endpoint of its own.  The
//! self-scrape target snapshots process-wide probes, so this check has a
//! test binary of its own.

// Lock-audit bookkeeping allocates by design; the counts only hold without
// `--cfg lock_audit`.
#![cfg(not(lock_audit))]

use teemon::{MonitorBuilder, MonitoringMode};
use teemon_exporters::{ContainerExporter, ContainerSpec, EbpfExporter, NodeExporter, SgxExporter};
use teemon_kernel_sim::process::ProcessKind;
use teemon_kernel_sim::{Kernel, Syscall};
use teemon_sim_core::SimDuration;
use teemon_testkit::alloc::{allocations_in, CountingAllocator};
use teemon_tsdb::{MetricsEndpoint, ObsEndpoint};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const NODE: &str = "worker-1";

#[test]
fn a_warm_full_tick_allocates_what_its_endpoints_build() {
    let kernel = Kernel::default();
    // The twins attach first, so the eBPF twin's maps see what the host's do.
    let containers = ContainerExporter::new(NODE);
    let endpoints: [(&str, Box<dyn MetricsEndpoint>); 5] = [
        ("sgx_exporter", Box::new(SgxExporter::new(kernel.sgx_driver().clone(), NODE))),
        ("node_exporter", Box::new(NodeExporter::new(&kernel, NODE))),
        ("cadvisor", Box::new(containers.clone())),
        ("ebpf_exporter", Box::new(EbpfExporter::attach(&kernel, NODE))),
        ("teemon_self", Box::new(ObsEndpoint::default())),
    ];
    let host = MonitorBuilder::new(NODE).mode(MonitoringMode::Full).kernel(kernel.clone()).build();
    let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 8);
    for syscall in [Syscall::Read, Syscall::Write, Syscall::Futex] {
        kernel.syscall(pid, syscall, true);
    }
    let spec = ContainerSpec {
        name: "redis-0".into(),
        image: "redis:5".into(),
        pid: pid.as_u32(),
        memory_limit_bytes: 1 << 30,
    };
    host.register_container(spec.clone());
    containers.register_container(spec);

    // The first tick evaluates PMAN's group; the next eleven have no group
    // due, and none a retention pass.
    let tick = || {
        kernel.clock().advance(SimDuration::from_secs(5));
        allocations_in(|| host.scrape_tick())
    };
    for _ in 0..3 {
        assert_eq!(tick().0, 5);
    }
    let (healthy, whole) = tick();
    assert_eq!(healthy, 5, "four exporters and the teemon_self target");

    let split: Vec<(&str, u64)> = endpoints
        .iter()
        .map(|(job, endpoint)| {
            let visit = || endpoint.scrape_visit(&mut |_| {}).expect("scrape");
            visit();
            (*job, allocations_in(visit).1)
        })
        .collect();
    // Each exporter builds its families afresh every scrape; the self
    // target refreshes its snapshot in place.  The same counts in debug and
    // release builds, ten runs of each.
    assert_eq!(
        split,
        [
            ("sgx_exporter", 49),
            ("node_exporter", 45),
            ("cadvisor", 30),
            ("ebpf_exporter", 26),
            ("teemon_self", 0),
        ]
    );
    assert_eq!(
        whole,
        split.iter().map(|(_, n)| n).sum::<u64>(),
        "the store's side allocates nothing"
    );
}
