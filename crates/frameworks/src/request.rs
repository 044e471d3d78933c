//! Per-request behaviour profiles.
//!
//! A [`RequestProfile`] describes what one application-level request does in
//! terms the kernel and SGX models understand: which system calls it issues,
//! how much memory it touches, its cache behaviour and its raw CPU work.  The
//! application models in `teemon-apps` build these profiles; the framework
//! [`crate::Deployment`] executes them.

use serde::{Deserialize, Serialize};
use teemon_kernel_sim::Syscall;

/// The work one request performs, independent of any framework.
///
/// Syscall counts are expressed as *expected counts per request* and may be
/// fractional: a client pipelining 8 requests per network round trip causes
/// only 1/8th of a `recvfrom` per request.  The executor samples fractional
/// counts so that the long-run rate matches the expectation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestProfile {
    /// Human-readable operation name (`GET`, `SET`, `HTTP GET /index.html`).
    pub operation: String,
    /// Expected kernel-visible system calls per request, with multiplicities.
    /// `clock_gettime`-style time queries are listed separately because their
    /// handling differs between SCONE releases.
    pub syscalls: Vec<(Syscall, f64)>,
    /// Number of `clock_gettime`-style time queries the application performs
    /// per request (Redis timestamps every command).
    pub time_queries: u32,
    /// Pages of the application's working set touched by this request.
    pub pages_touched: u32,
    /// Total working-set size in pages (the Redis database, the web server's
    /// file cache, …) from which touched pages are drawn.
    pub working_set_pages: u64,
    /// Memory accesses that reach the last-level cache per request.
    pub cache_references: u64,
    /// Baseline LLC miss rate (misses / references) for native execution.
    pub cache_miss_rate: f64,
    /// Raw application CPU time per request in nanoseconds (parsing, hashing,
    /// serialisation).
    pub cpu_ns: u64,
    /// Request payload bytes received from the network.
    pub request_bytes: u64,
    /// Response payload bytes sent to the network.
    pub response_bytes: u64,
    /// Probability that the request blocks waiting for more client data
    /// (causing a voluntary context switch); high when few connections keep
    /// the server busy, low under saturation.
    pub block_probability: f64,
    /// Expected file-system page-cache operations per request (0 for a pure
    /// in-memory store, higher for servers reading files from disk).
    pub page_cache_ops: f64,
}

impl RequestProfile {
    /// A minimal key-value GET-style request with sensible defaults; the
    /// application models override the fields they care about.
    pub fn keyvalue_get(value_bytes: u64, working_set_pages: u64) -> Self {
        Self {
            operation: "GET".into(),
            syscalls: vec![
                (Syscall::Recvfrom, 1.0),
                (Syscall::Sendto, 1.0),
                (Syscall::EpollWait, 1.0),
            ],
            time_queries: 2,
            pages_touched: 3,
            working_set_pages,
            cache_references: 220,
            cache_miss_rate: 0.02,
            cpu_ns: 450,
            request_bytes: 40,
            response_bytes: value_bytes + 60,
            block_probability: 0.0,
            page_cache_ops: 0.0,
        }
    }

    /// Total bytes moved over the network by this request.
    pub fn network_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }

    /// Returns a copy scaled for a pipeline of `depth` requests handled per
    /// network round trip: the per-request share of network syscalls
    /// (`epoll_wait`, `recvfrom`, `sendto`, `accept`) drops to `1/depth`.
    #[must_use]
    pub fn amortised_over_pipeline(mut self, depth: u32) -> Self {
        if depth <= 1 {
            return self;
        }
        let depth = depth as f64;
        for (syscall, count) in &mut self.syscalls {
            if matches!(
                syscall,
                Syscall::EpollWait | Syscall::Recvfrom | Syscall::Sendto | Syscall::Accept
            ) {
                *count /= depth;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected kernel-visible syscalls per request (time queries excluded).
    fn syscall_count(req: &RequestProfile) -> f64 {
        req.syscalls.iter().map(|(_, n)| n).sum()
    }

    #[test]
    fn keyvalue_get_defaults_are_plausible() {
        let req = RequestProfile::keyvalue_get(64, 25_000);
        assert_eq!(req.operation, "GET");
        assert!((syscall_count(&req) - 3.0).abs() < 1e-9);
        assert_eq!(req.network_bytes(), 40 + 64 + 60);
        assert!(req.cache_miss_rate < 0.5);
        assert_eq!(req.working_set_pages, 25_000);
    }

    #[test]
    fn pipeline_amortisation_reduces_network_syscalls() {
        let req = RequestProfile::keyvalue_get(64, 100);
        let single = req.clone().amortised_over_pipeline(1);
        assert!((syscall_count(&single) - syscall_count(&req)).abs() < 1e-9);

        let deep = req.clone().amortised_over_pipeline(8);
        assert!((syscall_count(&deep) - 3.0 / 8.0).abs() < 1e-9);

        // Non-network syscalls are untouched.
        let mut custom = req;
        custom.syscalls.push((Syscall::Futex, 4.0));
        let deep = custom.amortised_over_pipeline(8);
        let futex = deep.syscalls.iter().find(|(s, _)| *s == Syscall::Futex).unwrap().1;
        assert_eq!(futex, 4.0);
    }
}
