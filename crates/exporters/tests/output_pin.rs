//! Every exporter's wire output, pinned byte for byte.
//!
//! One fixed host state — a process that makes syscalls, switches, faults
//! and touches caches, an enclave holding EPC pages, a container with recorded usage —
//! is scraped from each of the four exporters and encoded as OpenMetrics
//! text, under the job name a deployment registers it with; the result must
//! equal `tests/golden/exporter_output.txt`.  The state then changes (more
//! syscalls, the enclave destroyed, more usage, time passes) and the second
//! scrape must equal the second half of the file, so the pin covers values
//! read at scrape time, not at construction.
//!
//! Besides the bytes, the test states the two properties every exporter
//! shares: families come sorted by name, and every point carries the
//! exporter's `node` label.
//!
//! A change that is *meant* to alter an exporter's output regenerates the
//! golden file from `render()` (print it from a throwaway test and paste).

use teemon_exporters::container::ContainerUsage;
use teemon_exporters::node::NodeUsage;
use teemon_exporters::{ContainerExporter, ContainerSpec, EbpfExporter, NodeExporter, SgxExporter};
use teemon_kernel_sim::process::ProcessKind;
use teemon_kernel_sim::{FaultKind, Kernel, PageCacheOp, SwitchKind, Syscall};
use teemon_metrics::exposition::encode_text;
use teemon_metrics::MetricsEndpoint;
use teemon_sim_core::SimDuration;

const GOLDEN: &str = include_str!("golden/exporter_output.txt");
const NODE: &str = "worker-1";

/// Renders one scrape round of every `(job, exporter)`, checking the shared
/// properties on the way.
fn render(round: u32, exporters: &[(&str, &dyn MetricsEndpoint)]) -> String {
    let mut out = String::new();
    for &(job, exporter) in exporters {
        let families = exporter.scrape().expect("an in-process exporter always scrapes");
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "{job} families out of order");
        for family in &families {
            for point in &family.points {
                assert_eq!(point.labels.get("node"), Some(NODE), "{}", family.name);
            }
        }
        out.push_str(&format!("## {job} round {round}\n"));
        out.push_str(&encode_text(&families));
    }
    out
}

#[test]
fn every_exporter_output_is_pinned_byte_for_byte() {
    let kernel = Kernel::new();
    let ebpf = EbpfExporter::attach(&kernel, NODE);
    let sgx = SgxExporter::new(kernel.sgx_driver().clone(), NODE);
    let node = NodeExporter::new(&kernel, NODE);
    let containers = ContainerExporter::new(NODE);

    let pid = kernel.spawn_process("redis-server", ProcessKind::Enclave, 4);
    for syscall in [Syscall::Read, Syscall::Read, Syscall::Write, Syscall::Futex] {
        kernel.syscall(pid, syscall, true);
    }
    kernel.context_switch(pid, SwitchKind::Voluntary);
    kernel.page_fault(pid, FaultKind::User, true);
    kernel.cache_access(pid, 100, 7, true);
    kernel.page_cache_op(pid, PageCacheOp::MarkPageAccessed);
    let (enclave, _) =
        kernel.sgx_driver().create_enclave(pid.as_u32(), 2 * 1024 * 1024, 4).expect("enclave");
    containers.register_container(ContainerSpec {
        name: "redis-0".into(),
        image: "sconecuratedimages/redis:5".into(),
        pid: pid.as_u32(),
        memory_limit_bytes: 1 << 30,
    });
    containers.record_usage(
        "redis-0",
        ContainerUsage {
            cpu_seconds: 1.5,
            memory_bytes: 64 << 20,
            network_rx_bytes: 4_096,
            network_tx_bytes: 1_024,
        },
    );
    node.record_usage(NodeUsage {
        network_rx_bytes: 4_096,
        network_tx_bytes: 1_024,
        fs_read_bytes: 512,
        fs_written_bytes: 256,
        memory_used_bytes: 1 << 30,
    });
    kernel.clock().advance(SimDuration::from_secs(5));

    let exporters: [(&str, &dyn MetricsEndpoint); 4] = [
        ("sgx_exporter", &sgx),
        ("ebpf_exporter", &ebpf),
        ("node_exporter", &node),
        ("cadvisor", &containers),
    ];
    let mut rendered = render(1, &exporters);

    for _ in 0..3 {
        kernel.syscall(pid, Syscall::ClockGettime, true);
    }
    kernel.context_switch(pid, SwitchKind::Involuntary);
    kernel.sgx_driver().destroy_enclave(enclave).expect("destroy");
    containers.record_usage(
        "redis-0",
        ContainerUsage { cpu_seconds: 0.25, network_rx_bytes: 100, ..ContainerUsage::default() },
    );
    node.record_usage(NodeUsage { fs_written_bytes: 1_000, ..NodeUsage::default() });
    kernel.clock().advance(SimDuration::from_secs(5));
    rendered.push_str(&render(2, &exporters));

    assert_eq!(rendered, GOLDEN);
}
