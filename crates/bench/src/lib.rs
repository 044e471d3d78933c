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

use teemon::experiments::{
    self, Fig11Row, Fig4, Fig5Row, Fig6Row, Fig7Row, FrameworkSweepRow, FIG4_REQUESTS_PER_ROUND,
};
use teemon::PAPER_STACK_REFERENCE;

/// Sampled requests per configuration the `figures` binary runs unless given
/// `--samples` (moderate, so a full report takes about a minute).
pub const BENCH_SAMPLES: u64 = 1_200;

/// The `figures` binary's usage line.
pub const FIGURES_USAGE: &str =
    "usage: figures [fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|all] [--samples N] [--json]";

/// What the `figures` binary was asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiguresArgs {
    /// The figure to print (`all` when none was named).
    pub figure: String,
    /// Sampled requests per configuration.
    pub samples: u64,
    /// Print JSON instead of a table.
    pub json: bool,
    /// Print the usage line and nothing else.
    pub help: bool,
}

/// Parses the `figures` binary's arguments (without the program name).
/// A `--samples` without a positive whole number after it, or a second
/// figure name, is an error.
pub fn parse_figures_args(args: impl IntoIterator<Item = String>) -> Result<FiguresArgs, String> {
    let (mut figure, mut samples, mut json, mut help) = (None, BENCH_SAMPLES, false, false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                let value = args.next().ok_or("--samples needs a value")?;
                samples = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--samples takes a positive whole number, not {value:?}"))?;
            }
            "--json" => json = true,
            "--help" | "-h" => help = true,
            name => {
                if let Some(first) = figure.replace(name.to_string()) {
                    return Err(format!("one figure at a time: got {first:?} and {name:?}"));
                }
            }
        }
    }
    Ok(FiguresArgs { figure: figure.unwrap_or_else(|| "all".into()), samples, json, help })
}

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

/// Formats Figure 4: the paper stack's reference rows, then teemon's rows
/// as measured by [`experiments::figure4`], with the run that measured them.
pub fn format_figure4(fig: &Fig4) -> String {
    let mut out = String::from("Figure 4: CPU and memory footprint of the monitoring stack\n");
    out.push_str("Paper stack reference (modelled Prometheus / Grafana / cAdvisor), not teemon:\n");
    out.push_str(&format!("{:<16} {:>10} {:>12}\n", "component", "cpu [%]", "memory [MB]"));
    for (component, cpu_percent, memory_mb) in PAPER_STACK_REFERENCE {
        out.push_str(&format!("{component:<16} {cpu_percent:>10.2} {memory_mb:>12.1}\n"));
    }
    let total_mem: f64 = PAPER_STACK_REFERENCE.iter().map(|r| r.2).sum();
    out.push_str(&format!("{:<16} {:>10} {:>12.1}\n", "total", "", total_mem));
    out.push_str(&format!(
        "teemon, measured ({:.2} virtual hours on one Full host, durable store):\n  \
         Redis paper_config(64) under SCONE, {FIG4_REQUESTS_PER_ROUND} requests between rounds;\n  \
         {} scrape rounds every 5 s (cAdvisor every 15 s): {:.1} samples a round, {} series, \
         containers: {};\n  every standard dashboard refreshed every 60 s over the last hour\n",
        fig.hours, fig.rounds, fig.samples_per_scrape, fig.stats.series, fig.containers,
    ));
    out.push_str(&format!(
        "{:<30} {:>10} {:>12} {:>8} {:>10}\n",
        "component", "cpu [%]", "memory [MB]", "runs", "cpu [s]"
    ));
    for (activity, runs, cpu_s) in &fig.activities {
        let percent = cpu_s / (fig.hours * 3_600.0) * 100.0;
        out.push_str(&format!(
            "{activity:<30} {percent:>10.4} {:>12} {runs:>8} {cpu_s:>10.3}\n",
            ""
        ));
    }
    for (name, bytes) in [
        ("store (total_bytes)", fig.stats.total_bytes()),
        ("series records (series_bytes)", fig.stats.series_bytes),
    ] {
        out.push_str(&format!("{:<30} {:>10} {:>12.2}\n", name, "", bytes as f64 / 1e6));
    }
    let rows_s: f64 = fig.activities.iter().map(|a| a.2).sum();
    out.push_str(&format!(
        "loop CPU {:.3} s = rows {:.3} + application {:.3} + {} clock reads x {:.2} us \
         + residual {:.3} s ({:.1} %)\n",
        fig.thread_cpu_s,
        rows_s,
        fig.app_cpu_s,
        fig.reads,
        fig.read_cost_s * 1e6,
        fig.residual_s(),
        fig.residual_s() / fig.thread_cpu_s * 100.0,
    ));
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
/// and returns the full report text (the `figures` binary with no argument;
/// `tests/golden/figures/` pins Figures 5–11 at 500 samples).
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
        // Fifteen virtual minutes: the 24 h run is the `figures` binary's.
        let table = format_figure4(&experiments::figure4(0.25));
        assert!(table.contains("Paper stack reference (modelled"));
        assert!(table.contains("prometheus"));
        assert!(table.contains("total"));
        assert!(table.contains("collection + ingest + WAL"));
        assert!(table.contains("series records (series_bytes)"));
    }

    fn parse(args: &[&str]) -> Result<FiguresArgs, String> {
        parse_figures_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn figures_args_reject_a_bad_samples_value() {
        assert_eq!(parse(&["fig5", "--samples", "500"]).unwrap().samples, 500);
        assert_eq!(parse(&[]).unwrap(), parse(&["all"]).unwrap());
        for bad in [&["fig5", "--samples", "5k"][..], &["fig5", "--samples"], &["--samples", "0"]] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn figures_args_reject_a_second_figure() {
        assert_eq!(parse(&["fig6", "--json"]).unwrap().figure, "fig6");
        assert!(parse(&["fig6", "fig7"]).is_err());
        assert!(parse(&["fig6", "--samples", "500", "fig6"]).is_err());
    }

    #[test]
    fn sweep_table_renders() {
        let rows = experiments::figure8_9(150, &[8]);
        let table = format_sweep("test", &rows);
        assert!(table.contains("graphene-sgx"));
        assert!(table.lines().count() >= rows.len() + 2);
    }
}
