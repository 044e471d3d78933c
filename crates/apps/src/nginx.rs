//! An NGINX-like static web server workload.
//!
//! §6.3 measures the TEEMon monitoring overhead while serving requests with
//! NGINX 1.14.0 under SCONE; the paper reports the largest relative overhead
//! (throughput at ~87 % of the unmonitored baseline) for this workload because
//! it is the most syscall- and page-cache-intensive of the three applications.

use serde::{Deserialize, Serialize};
use teemon_frameworks::RequestProfile;
use teemon_kernel_sim::Syscall;

use crate::spec::Application;

/// The NGINX-like static web server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NginxApp {
    /// Number of distinct static files served.
    pub files: u64,
    /// Mean size of a served file in bytes.
    pub mean_file_bytes: u64,
    /// Number of worker processes.
    pub workers: u32,
    /// Baseline memory (code, buffers, connection state).
    pub base_memory_bytes: u64,
}

impl Default for NginxApp {
    fn default() -> Self {
        Self {
            files: 2_000,
            mean_file_bytes: 8 * 1024,
            workers: 4,
            base_memory_bytes: 16 * 1024 * 1024,
        }
    }
}

impl NginxApp {
    /// A small static site served from memory/page cache.
    pub fn small_site() -> Self {
        Self::default()
    }
}

impl Application for NginxApp {
    fn name(&self) -> &str {
        "nginx"
    }

    fn memory_bytes(&self) -> u64 {
        // The file set is served through the page cache; only a fraction is
        // resident in the worker's own memory at a time.
        self.base_memory_bytes + self.files * self.mean_file_bytes / 4
    }

    fn threads(&self) -> u32 {
        self.workers
    }

    fn request(&self, pipeline: u32, connections: u32) -> RequestProfile {
        let working_set_pages = self.working_set_pages();
        let mut req = RequestProfile {
            operation: "HTTP GET".into(),
            syscalls: vec![
                (Syscall::EpollWait, 1.0),
                (Syscall::Accept, 0.1),
                (Syscall::Recvfrom, 1.0),
                (Syscall::Open, 0.3),
                (Syscall::Fstat, 0.3),
                (Syscall::Writev, 1.0),
                (Syscall::Close, 0.3),
            ],
            time_queries: 1,
            pages_touched: (self.mean_file_bytes / 4096).max(1) as u32 + 1,
            working_set_pages,
            cache_references: 900,
            cache_miss_rate: 0.03,
            cpu_ns: 2_500,
            request_bytes: 180,
            response_bytes: self.mean_file_bytes + 240,
            block_probability: 0.0,
            page_cache_ops: 1.2,
        }
        .amortised_over_pipeline(pipeline);
        req.block_probability = if connections <= 16 { 0.1 } else { 0.01 };
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nginx_profile_is_syscall_heavy() {
        let app = NginxApp::small_site();
        let redis = crate::redis::RedisApp::paper_config(64);
        let nginx_req = app.request(1, 320);
        let redis_req = redis.request(1, 320);
        let syscalls = |req: &RequestProfile| req.syscalls.iter().map(|(_, n)| n).sum::<f64>();
        assert!(syscalls(&nginx_req) > syscalls(&redis_req));
        assert!(nginx_req.page_cache_ops > redis_req.page_cache_ops);
        assert!(nginx_req.response_bytes > redis_req.response_bytes);
    }

    #[test]
    fn nginx_uses_worker_processes() {
        assert_eq!(NginxApp::small_site().threads(), 4);
        assert_eq!(NginxApp::small_site().name(), "nginx");
    }

    #[test]
    fn memory_fits_comfortably_in_epc() {
        // The NGINX working set is small; monitoring overhead, not paging,
        // dominates its behaviour in the paper.
        assert!(NginxApp::small_site().memory_bytes() < 94 * 1024 * 1024);
    }
}
