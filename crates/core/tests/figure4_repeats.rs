//! Two runs of Figure 4's stack store the same thing.
//!
//! The self-scrape target snapshots process-wide probes, so a test running
//! beside this one in the same process (querying, contending a lock) adds
//! series to its store; this check therefore has a test binary of its own.

use teemon::experiments::{figure4, Fig4};
use teemon_tsdb::StorageStats;

/// Masks what a run measures with the thread's CPU clock, and the sample
/// bytes, which hold wall-clock scrape timings.
fn without_cpu(mut fig: Fig4) -> Fig4 {
    for activity in &mut fig.activities {
        activity.2 = 0.0;
    }
    Fig4 {
        stats: StorageStats { resident_bytes: 0, ..fig.stats },
        app_cpu_s: 0.0,
        thread_cpu_s: 0.0,
        read_cost_s: 0.0,
        ..fig
    }
}

#[test]
fn figure4_runs_agree_except_cpu_and_resident_bytes() {
    // Fifteen virtual minutes each.
    assert_eq!(without_cpu(figure4(0.25)), without_cpu(figure4(0.25)));
}
