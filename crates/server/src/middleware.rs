//! The resilience middleware: per-client rate limiting and bounded
//! in-flight concurrency.
//!
//! Both layers are deliberately boring data structures behind **named**
//! locks (`server.limiter`, `server.inflight`) so the lock-order audit and
//! contention probes see them like any other engine lock.  Decisions are
//! pure functions of `(state, now_ms)` — time is always passed in, which is
//! what lets the unit tests drive them with a virtual clock.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{LockClass, Mutex};
use teemon_obs::probes;

/// Verdict of the rate limiter for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateDecision {
    /// Under the limit; a token was consumed.
    Allow,
    /// Over the limit → 429 with this `Retry-After` hint in seconds.
    Limited {
        /// Whole seconds until a token will be available (at least 1).
        retry_after_secs: u64,
    },
}

struct Bucket {
    tokens: f64,
    last_refill_ms: u64,
}

/// A per-client token bucket: `rate_per_sec` sustained, `burst` peak.
///
/// Clients are keyed by the ip part of the peer address, so a client
/// reconnecting from ephemeral ports keeps draining the same bucket.  The
/// table is bounded: past `RateLimiter::MAX_CLIENTS` buckets, entries idle
/// longer than `RateLimiter::IDLE_EVICT_MS` are evicted (full buckets
/// carry no history worth keeping).
pub struct RateLimiter {
    buckets: Mutex<HashMap<String, Bucket>>,
    rate_per_sec: f64,
    burst: f64,
}

impl RateLimiter {
    /// Bucket-table size beyond which idle entries are evicted.
    pub(crate) const MAX_CLIENTS: usize = 10_000;
    /// Idle time after which an entry is evictable (its bucket has long
    /// refilled to `burst`, so eviction loses nothing).
    pub(crate) const IDLE_EVICT_MS: u64 = 60_000;

    /// A limiter allowing `rate_per_sec` sustained requests per client with
    /// bursts up to `burst`.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        Self {
            buckets: Mutex::named(HashMap::new(), LockClass::new("server.limiter")),
            rate_per_sec: rate_per_sec.max(0.001),
            burst: burst.max(1.0),
        }
    }

    /// Charges one token to `peer` at `now_ms`.
    pub fn check(&self, peer: &str, now_ms: u64) -> RateDecision {
        let key = client_key(peer);
        let mut buckets = self.buckets.lock();
        if buckets.len() >= Self::MAX_CLIENTS && !buckets.contains_key(key) {
            buckets.retain(|_, b| now_ms.saturating_sub(b.last_refill_ms) < Self::IDLE_EVICT_MS);
        }
        let bucket = buckets
            .entry(key.to_string())
            .or_insert(Bucket { tokens: self.burst, last_refill_ms: now_ms });
        let elapsed_s = now_ms.saturating_sub(bucket.last_refill_ms) as f64 / 1e3;
        bucket.tokens = (bucket.tokens + elapsed_s * self.rate_per_sec).min(self.burst);
        bucket.last_refill_ms = now_ms;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            RateDecision::Allow
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / self.rate_per_sec).ceil().max(1.0);
            RateDecision::Limited { retry_after_secs: secs as u64 }
        }
    }
}

/// The ip part of an `ip:port` peer string (handles `[v6]:port` too).
fn client_key(peer: &str) -> &str {
    match peer.rfind(':') {
        Some(i) => peer.get(..i).unwrap_or(peer),
        None => peer,
    }
}

/// Bounded in-flight concurrency: at most `max` connections are being
/// served at once; the acceptor sheds the rest with an O(1) 503 **before**
/// any request byte is parsed.
pub(crate) struct InflightGate {
    inner: Arc<Mutex<usize>>,
    max: usize,
}

impl InflightGate {
    /// A gate admitting at most `max` concurrent connections.
    pub(crate) fn new(max: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::named(0, LockClass::new("server.inflight"))),
            max: max.max(1),
        }
    }

    /// Tries to enter the gate; `None` means shed.  The permit releases the
    /// slot (and updates the `teemon_http_inflight` gauge) on drop, so a
    /// panicking worker can never leak a slot.
    pub(crate) fn try_acquire(&self) -> Option<InflightPermit> {
        let mut count = self.inner.lock();
        if *count >= self.max {
            return None;
        }
        *count += 1;
        probes::HTTP_INFLIGHT.set(*count as f64);
        Some(InflightPermit { inner: Arc::clone(&self.inner) })
    }

    /// Connections currently admitted.
    pub(crate) fn in_flight(&self) -> usize {
        *self.inner.lock()
    }
}

/// An admitted connection's slot; dropping it releases the slot.
pub(crate) struct InflightPermit {
    inner: Arc<Mutex<usize>>,
}

impl Drop for InflightPermit {
    fn drop(&mut self) {
        let mut count = self.inner.lock();
        *count = count.saturating_sub(1);
        probes::HTTP_INFLIGHT.set(*count as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that drive gates: `teemon_http_inflight` is
    /// process-wide, and every gate sets it to its own count.
    fn gates() -> parking_lot::MutexGuard<'static, ()> {
        static GATES: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        GATES.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn burst_then_limit_then_refill() {
        let limiter = RateLimiter::new(10.0, 3.0);
        let peer = "10.0.0.1:5000";
        for _ in 0..3 {
            assert_eq!(limiter.check(peer, 0), RateDecision::Allow);
        }
        let RateDecision::Limited { retry_after_secs } = limiter.check(peer, 0) else {
            panic!("fourth request in the same instant must be limited");
        };
        assert!(retry_after_secs >= 1);
        // 100 ms refills one token at 10 rps.
        assert_eq!(limiter.check(peer, 100), RateDecision::Allow);
        assert!(matches!(limiter.check(peer, 100), RateDecision::Limited { .. }));
    }

    #[test]
    fn clients_are_keyed_by_ip_not_port() {
        let limiter = RateLimiter::new(1.0, 1.0);
        assert_eq!(limiter.check("10.0.0.1:1111", 0), RateDecision::Allow);
        assert!(
            matches!(limiter.check("10.0.0.1:2222", 0), RateDecision::Limited { .. }),
            "a reconnect from a fresh ephemeral port must not reset the budget"
        );
        assert_eq!(limiter.check("10.0.0.2:1111", 0), RateDecision::Allow);
        assert_eq!(limiter.buckets.lock().len(), 2);
    }

    #[test]
    fn idle_clients_are_evicted_at_the_cap() {
        let limiter = RateLimiter::new(1000.0, 1000.0);
        for i in 0..RateLimiter::MAX_CLIENTS {
            limiter.check(&format!("10.1.{}.{}:1", i / 256, i % 256), 0);
        }
        assert_eq!(limiter.buckets.lock().len(), RateLimiter::MAX_CLIENTS);
        // A new client far in the future evicts the idle ten thousand.
        limiter.check("203.0.113.9:1", RateLimiter::IDLE_EVICT_MS + 1);
        assert_eq!(limiter.buckets.lock().len(), 1);
    }

    #[test]
    fn gate_admits_up_to_capacity_and_releases_on_drop() {
        let _serial = gates();
        let gate = InflightGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let _b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "third connection is shed");
        assert_eq!(gate.in_flight(), 2);
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn gate_updates_the_inflight_gauge() {
        let _serial = gates();
        let gate = InflightGate::new(4);
        let permit = gate.try_acquire().expect("slot");
        assert!(probes::HTTP_INFLIGHT.get() >= 1.0);
        drop(permit);
    }
}
