//! Head-to-head comparison of SGX frameworks (§6.5 of the paper).
//!
//! Benchmarks the Redis-like workload under native execution, SCONE, SGX-LKL
//! and Graphene-SGX at several connection counts and database sizes, printing
//! the Figure 8/9-style table plus the per-100-request metric rates that
//! explain the differences (Figure 11).  Throughput and latency come from
//! unmonitored runs (`experiments::figure8_9`); the rates are what a fully
//! monitored host saw over the same configurations (`experiments::figure11`,
//! which covers the 78 and 105 MB databases).
//!
//! ```text
//! cargo run --release --example framework_comparison
//! ```

use teemon::experiments::{figure11, figure8_9};

fn main() {
    let samples = 2_000;
    let sweep = figure8_9(samples, &[8, 320, 580]);
    let fig11 = figure11(samples);

    println!(
        "{:<14} {:>7} {:>7} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "framework", "db MB", "conns", "KIOP/s", "latency ms", "user PF", "evicted", "cs host"
    );
    for (i, row) in sweep.iter().enumerate() {
        if i > 0 && sweep[i - 1].framework != row.framework {
            println!();
        }
        let rates = fig11
            .iter()
            .find(|r| {
                r.framework == row.framework
                    && r.connections == row.connections
                    && r.database_mb == row.database_mb
            })
            .map(|r| {
                let r = r.rates;
                format!(
                    " {:>10.3} {:>10.2} {:>10.2}",
                    r.user_page_faults, r.evicted_epc_pages, r.context_switches_host
                )
            })
            .unwrap_or_default();
        println!(
            "{:<14} {:>7} {:>7} {:>10.1} {:>12.2}{rates}",
            row.framework, row.database_mb, row.connections, row.kiops, row.latency_ms
        );
    }
    println!();

    println!("Reading the table the way §6.5 does:");
    println!(" * native peaks at the 1 GbE network limit; every framework is far below it;");
    println!(" * SCONE reaches roughly a quarter of native and suffers most from EPC evictions");
    println!("   once the database exceeds ~94 MiB;");
    println!(" * SGX-LKL sits around a tenth of native;");
    println!(" * Graphene-SGX is fastest at 8 connections and degrades with concurrency,");
    println!("   with by far the highest host context-switch rate.");
}
