//! The generated workloads of tsdb's oracles: the series pool
//! `tests/ingest_equivalence.rs` (the cached batch path against the
//! per-sample reference) and `tests/wal_crash_consistency.rs` (a durable
//! store against its acked prefix) draw from alike, the chunk size they and
//! `tests/symbol_gc.rs` run at, and the check the durability suites run a
//! log until.

use proptest::TestRng;

use crate::FaultFs;

/// One logical series of the generated workload.
#[derive(Clone)]
pub struct GenSeries {
    pub metric: usize,
    pub labels: Vec<(String, String)>,
}

pub const METRICS: [&str; 4] =
    ["sgx_epc_pages", "teemon_syscalls_total", "proc_cpu_seconds", "container_mem_bytes"];
const LABEL_KEYS: [&str; 3] = ["node", "syscall", "pod"];
const LABEL_VALUES: [&str; 4] = ["n1", "n2", "read", "web-0"];

pub fn gen_series(rng: &mut TestRng) -> GenSeries {
    let metric = rng.below(METRICS.len() as u64) as usize;
    let label_count = rng.below(3) as usize;
    let mut labels = Vec::new();
    for key in LABEL_KEYS.iter().take(label_count) {
        let value = LABEL_VALUES[rng.below(LABEL_VALUES.len() as u64) as usize];
        labels.push((key.to_string(), value.to_string()));
    }
    GenSeries { metric, labels }
}

/// Samples per chunk: low, so rounds seal chunks mid-stream — four, under
/// the eight-sample tail an open head encodes in bursts of, or on one case
/// in four nine: a burst at the eighth sample, the seal one later, partial
/// blocks in between.
pub fn chunk_size(case: u64) -> usize {
    if case % 4 == 1 {
        9
    } else {
        4
    }
}

/// The names of the files in `fs`.
pub fn file_names(fs: &FaultFs) -> Vec<String> {
    fs.file_paths()
        .iter()
        .filter_map(|path| Some(path.file_name()?.to_str()?.to_string()))
        .collect()
}

/// Whether the log behind `fs` has been through the whole checkpoint cycle:
/// the first segment sealed, covered and deleted, and both kinds of snapshot
/// installed.
pub fn went_full_cycle(fs: &FaultFs) -> bool {
    let names = file_names(fs);
    !names.contains(&"segment-00000001.log".to_string())
        && names.contains(&"symbols.snap".to_string())
        && names.iter().any(|name| name.starts_with("shard-"))
}
