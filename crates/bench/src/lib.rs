//! Shared code of the `figures` binary and the Criterion benches.
//!
//! The `figures` binary prints every table and figure of the paper's
//! evaluation (`cargo run -p teemon-bench --bin figures -- figN`); the
//! formatters below render them.  The benches (`cargo bench -p teemon-bench
//! --bench <target>`) time what the end-to-end benchmark under `benchmark/`
//! cannot see, and the vendored criterion shim writes each target's rows to
//! `BENCH_<target>.json` at the workspace root.  [`smoke`], [`samples`] and
//! [`ScratchDir`] are the benches' shared setup.

#![warn(missing_docs)]

use std::path::PathBuf;

use teemon::experiments::{self, Fig11Row, Fig5Row, Fig6Row, Fig7Row, FrameworkSweepRow};
use teemon::overhead::ComponentFootprint;

/// Sampled requests per configuration the `figures` binary runs unless given
/// `--samples` (moderate, so a full report takes about a minute).
pub const BENCH_SAMPLES: u64 = 1_200;

/// Whether the benches run as a smoke pass: `TEEMON_BENCH_SMOKE` is set (as
/// CI does), inputs shrink, and the criterion shim writes no result file.
pub fn smoke() -> bool {
    std::env::var_os("TEEMON_BENCH_SMOKE").is_some()
}

/// Samples a bench row collects: `full`, or 2 on a smoke pass.
pub fn samples(full: usize) -> usize {
    if smoke() {
        2
    } else {
        full
    }
}

/// A scratch directory on tmpfs (the temp dir when the machine has no
/// `/dev/shm`), emptied on creation and removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// A directory named after `tag` and this process.
    pub fn new(tag: &str) -> Self {
        let shm = PathBuf::from("/dev/shm");
        let base = if shm.is_dir() { shm } else { std::env::temp_dir() };
        let dir = base.join(format!("teemon-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Formats Figure 4 as an aligned table.
pub fn format_figure4(rows: &[ComponentFootprint]) -> String {
    let mut out = String::from("Figure 4: CPU and memory footprint of TEEMon components (24 h)\n");
    out.push_str(&format!("{:<16} {:>10} {:>12}\n", "component", "cpu [%]", "memory [MB]"));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>10.2} {:>12.1}\n",
            row.component, row.cpu_percent, row.memory_mb
        ));
    }
    let total_mem: f64 = rows.iter().map(|r| r.memory_mb).sum();
    out.push_str(&format!("{:<16} {:>10} {:>12.1}\n", "total", "", total_mem));
    out
}

/// Formats Figure 5 as an aligned table.
pub fn format_figure5(rows: &[Fig5Row]) -> String {
    let mut out =
        String::from("Figure 5: throughput under monitoring, normalised to native SGX (OFF)\n");
    out.push_str(&format!(
        "{:<10} {:<28} {:>14} {:>12}\n",
        "app", "configuration", "IOP/s", "normalized"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:<28} {:>14.0} {:>12.3}\n",
            row.app, row.configuration, row.throughput_iops, row.normalized
        ));
    }
    out
}

/// Formats Figure 6 as an aligned table.
pub fn format_figure6(rows: &[Fig6Row]) -> String {
    let mut out = String::from("Figure 6: syscall occurrences per second, Redis under SCONE\n");
    out.push_str(&format!("{:<12} {:<16} {:>16}\n", "commit", "syscall", "calls/s"));
    for row in rows {
        out.push_str(&format!("{:<12} {:<16} {:>16.1}\n", row.commit, row.syscall, row.per_second));
    }
    out
}

/// Formats Figure 7 as an aligned table.
pub fn format_figure7(rows: &[Fig7Row]) -> String {
    let mut out = String::from("Figure 7: Redis throughput across SCONE code evolution\n");
    out.push_str(&format!("{:<14} {:>16}\n", "configuration", "IOP/s"));
    for row in rows {
        out.push_str(&format!("{:<14} {:>16.0}\n", row.configuration, row.throughput_iops));
    }
    out
}

/// Formats the Figures 8/9/10 sweep as an aligned table.
pub fn format_sweep(title: &str, rows: &[FrameworkSweepRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<14} {:>8} {:>12} {:>12} {:>14}\n",
        "framework", "db [MB]", "connections", "KIOP/s", "latency [ms]"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>8} {:>12} {:>12.1} {:>14.2}\n",
            row.framework, row.database_mb, row.connections, row.kiops, row.latency_ms
        ));
    }
    out
}

/// Formats Figure 11 as an aligned table.
pub fn format_figure11(rows: &[Fig11Row]) -> String {
    let mut out = String::from(
        "Figure 11: metric rates per 100 GET requests (a: user PF, b: total PF, c: LLC misses,\n            d: evicted EPC pages, e: ctx switches PID, f: ctx switches host)\n",
    );
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}\n",
        "framework",
        "conns",
        "db MB",
        "user PF",
        "total PF",
        "LLC misses",
        "evicted",
        "cs PID",
        "cs host"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>6} {:>6} {:>10.3} {:>10.1} {:>12.1} {:>10.2} {:>10.2} {:>10.2}\n",
            row.framework,
            row.connections,
            row.database_mb,
            row.rates.user_page_faults,
            row.rates.total_page_faults,
            row.rates.llc_misses,
            row.rates.evicted_epc_pages,
            row.rates.context_switches_pid,
            row.rates.context_switches_host,
        ));
    }
    out
}

/// Regenerates every figure with `samples` sampled requests per configuration
/// and returns the full report text (used by the `figures` binary with no
/// argument and by `EXPERIMENTS.md`).
pub fn full_report(samples: u64) -> String {
    let mut out = String::new();
    out.push_str(&format_figure4(&experiments::figure4(24.0)));
    out.push('\n');
    out.push_str(&format_figure5(&experiments::figure5(samples)));
    out.push('\n');
    out.push_str(&format_figure6(&experiments::figure6(samples)));
    out.push('\n');
    out.push_str(&format_figure7(&experiments::figure7(samples)));
    out.push('\n');
    let sweep = experiments::figure8_9(samples, &experiments::PAPER_CONNECTIONS);
    out.push_str(&format_sweep("Figures 8 & 9: Redis under each SGX framework", &sweep));
    out.push('\n');
    let fig10: Vec<_> = sweep.iter().filter(|r| r.database_mb == 78).cloned().collect();
    out.push_str(&format_sweep("Figure 10: head-to-head at 78 MB", &fig10));
    out.push('\n');
    out.push_str(&format_figure11(&experiments::figure11(samples)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_table_renders() {
        let table = format_figure4(&experiments::figure4(24.0));
        assert!(table.contains("prometheus"));
        assert!(table.contains("total"));
    }

    #[test]
    fn sweep_table_renders() {
        let rows = experiments::figure8_9(150, &[8]);
        let table = format_sweep("test", &rows);
        assert!(table.contains("graphene-sgx"));
        assert!(table.lines().count() >= rows.len() + 2);
    }
}
