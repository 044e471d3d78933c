//! A Redis-like in-memory key-value store workload.
//!
//! §6.5 configures Redis 5.0.5 with persistent snapshots disabled (no `fork()`
//! inside enclaves), at most 1 GB of memory, pre-populated with 720 000 keys,
//! and drives it with `memtier_benchmark` issuing GET requests over pipelines
//! of 8 with value sizes of 32/64/96 bytes, yielding database sizes of
//! 78/105/127 MB.

use serde::{Deserialize, Serialize};
use teemon_frameworks::RequestProfile;
use teemon_kernel_sim::Syscall;

use crate::spec::Application;

/// The Redis-like key-value store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedisApp {
    /// Number of keys pre-populated into the store.
    pub keys: u64,
    /// Size of each value in bytes.
    pub value_bytes: u64,
    /// Per-key overhead (key string, dict entry, robj header, SDS header).
    pub per_key_overhead_bytes: u64,
    /// Baseline memory of the process (code, jemalloc arenas, client buffers).
    pub base_memory_bytes: u64,
    /// Whether periodic RDB snapshots are enabled (disabled in the paper).
    pub snapshots_enabled: bool,
}

impl RedisApp {
    /// The paper's configuration: 720 000 keys of the given value size.
    pub fn paper_config(value_bytes: u64) -> Self {
        Self {
            keys: 720_000,
            value_bytes,
            per_key_overhead_bytes: 76,
            base_memory_bytes: 4 * 1024 * 1024,
            snapshots_enabled: false,
        }
    }

    /// The three database sizes evaluated in the paper, as
    /// `(label, configured value size)` pairs.
    pub fn paper_database_sizes() -> [(u64, RedisApp); 3] {
        [
            (78, RedisApp::paper_config(32)),
            (105, RedisApp::paper_config(64)),
            (127, RedisApp::paper_config(96)),
        ]
    }
}

impl Application for RedisApp {
    fn name(&self) -> &str {
        "redis-server"
    }

    fn memory_bytes(&self) -> u64 {
        self.base_memory_bytes + self.keys * (self.value_bytes + self.per_key_overhead_bytes)
    }

    fn threads(&self) -> u32 {
        // Redis processes commands on a single main thread; background threads
        // handle lazy frees and I/O but the command path is serial.
        1
    }

    fn request(&self, pipeline: u32, connections: u32) -> RequestProfile {
        let working_set_pages = self.working_set_pages();
        let mut req = RequestProfile {
            operation: "GET".into(),
            syscalls: vec![
                (Syscall::EpollWait, 1.0),
                (Syscall::Recvfrom, 1.0),
                (Syscall::Sendto, 1.0),
            ],
            // Redis calls clock_gettime/gettimeofday for command timing, LRU
            // clock updates and latency tracking on every command.
            time_queries: 2,
            // A GET touches the dict bucket, the key robj and the value.
            pages_touched: 3,
            working_set_pages,
            cache_references: 150,
            cache_miss_rate: 0.012,
            cpu_ns: 300,
            request_bytes: 34 + 16,
            response_bytes: self.value_bytes + 11,
            block_probability: 0.0,
            page_cache_ops: if self.snapshots_enabled { 0.05 } else { 0.0 },
        }
        .amortised_over_pipeline(pipeline);

        // With few connections the event loop drains quickly and the process
        // blocks in epoll_wait, causing voluntary context switches (the paper
        // observes this for native Redis at 8 connections, Figure 11e).
        req.block_probability = match connections {
            0..=8 => 0.18,
            9..=64 => 0.03,
            _ => 0.002,
        };
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Database size in megabytes (decimal, as the paper quotes).
    fn database_mb(app: &RedisApp) -> u64 {
        app.memory_bytes() / 1_000_000
    }

    #[test]
    fn paper_database_sizes_are_close_to_quoted() {
        // 32/64/96-byte values with 720 000 keys ≈ 78/105/127 MB databases.
        let [(s, small), (m, medium), (l, large)] = RedisApp::paper_database_sizes();
        assert_eq!((s, m, l), (78, 105, 127));
        assert!((database_mb(&small) as i64 - 78).abs() <= 5, "{}", database_mb(&small));
        assert!((database_mb(&medium) as i64 - 105).abs() <= 6, "{}", database_mb(&medium));
        assert!((database_mb(&large) as i64 - 127).abs() <= 7, "{}", database_mb(&large));
    }

    #[test]
    fn request_profile_reflects_pipeline_and_connections() {
        let app = RedisApp::paper_config(64);
        let req8 = app.request(8, 320);
        // Network syscalls amortised over the pipeline of 8.
        let syscalls: f64 = req8.syscalls.iter().map(|(_, n)| n).sum();
        assert!((syscalls - 3.0 / 8.0).abs() < 1e-9);
        assert_eq!(req8.time_queries, 2);
        assert_eq!(req8.response_bytes, 75);
        assert!(req8.block_probability < 0.01);

        let req_idle = app.request(8, 8);
        assert!(req_idle.block_probability > 0.1, "few connections → blocking waits");
    }

    #[test]
    fn redis_is_single_threaded() {
        assert_eq!(RedisApp::paper_config(32).threads(), 1);
        assert_eq!(RedisApp::paper_config(32).name(), "redis-server");
    }

    #[test]
    fn snapshots_add_page_cache_traffic() {
        let mut app = RedisApp::paper_config(32);
        assert_eq!(app.request(8, 320).page_cache_ops, 0.0);
        app.snapshots_enabled = true;
        assert!(app.request(8, 320).page_cache_ops > 0.0);
    }
}
