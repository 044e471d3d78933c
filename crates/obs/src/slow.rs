//! The fixed-capacity slow-query ring buffer.
//!
//! Range queries whose measured wall time exceeds the (runtime-adjustable)
//! threshold are recorded here by `teemon_query`: the query text is copied
//! into a fixed byte slot (truncated, never allocated), together with the
//! wall time, the samples-decoded count and the irregular-series count.
//! The ring keeps the most recent
//! `CAPACITY` entries; the aggregate count is exported as the
//! `teemon_query_slow_total` probe, while [`slow_queries`] hands operators
//! the actual offenders (allocating — a cold diagnostic path, not a scrape
//! path).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{LockClass, Mutex};

use crate::probes;

/// Maximum number of retained slow queries.
pub(crate) const CAPACITY: usize = 32;

/// Bytes of query text kept per entry (longer queries are truncated).
pub(crate) const TEXT_CAPACITY: usize = 120;

/// Default threshold: queries slower than 10 ms are slow.
pub(crate) const DEFAULT_THRESHOLD_NS: u64 = 10_000_000;

static THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_NS);

/// One recorded slow query (the owned, public view).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The query text, truncated to `TEXT_CAPACITY` bytes.
    pub query: String,
    /// Measured wall time in seconds.
    pub wall_seconds: f64,
    /// Samples decoded while answering.
    pub samples_decoded: u64,
    /// Series under `rate`/`increase` that held a reset or a non-finite
    /// value, and so paid for a running pair sum.
    pub irregular_series: u64,
}

/// Fixed-size ring slot; copying into it never allocates.
#[derive(Clone, Copy)]
struct Entry {
    text: [u8; TEXT_CAPACITY],
    len: u8,
    wall_ns: u64,
    samples_decoded: u64,
    irregular_series: u64,
}

const EMPTY: Entry =
    Entry { text: [0; TEXT_CAPACITY], len: 0, wall_ns: 0, samples_decoded: 0, irregular_series: 0 };

struct Ring {
    entries: [Entry; CAPACITY],
    /// Total recorded ever; `next % CAPACITY` is the slot to overwrite.
    next: u64,
}

static RING: std::sync::OnceLock<Mutex<Ring>> = std::sync::OnceLock::new();

/// The ring singleton.  `Mutex::named` registers the lock class at runtime,
/// so the first caller initialises the cell; later calls are a plain load.
fn ring() -> &'static Mutex<Ring> {
    RING.get_or_init(|| {
        Mutex::named(
            Ring { entries: [EMPTY; CAPACITY], next: 0 },
            LockClass::new("obs.slow_queries"),
        )
    })
}

/// The current slow-query threshold in nanoseconds.
pub fn threshold_ns() -> u64 {
    THRESHOLD_NS.load(Ordering::Relaxed)
}

/// Sets the slow-query threshold (seconds).  Non-positive values disable
/// recording entirely.
pub fn set_threshold_seconds(seconds: f64) {
    let ns = if seconds <= 0.0 { u64::MAX } else { (seconds * 1e9) as u64 };
    THRESHOLD_NS.store(ns.max(1), Ordering::Relaxed);
}

/// Records `query` if `wall_ns` crosses the threshold; returns whether it
/// did.  Copies at most `TEXT_CAPACITY` bytes of the text — no allocation.
pub fn maybe_record(
    query: &str,
    wall_ns: u64,
    samples_decoded: u64,
    irregular_series: u64,
) -> bool {
    if wall_ns < threshold_ns() {
        return false;
    }
    probes::QUERY_SLOW.inc();
    let mut ring = ring().lock();
    let slot = (ring.next % CAPACITY as u64) as usize;
    ring.next += 1;
    if let Some(entry) = ring.entries.get_mut(slot) {
        // Truncate on a char boundary so the copy round-trips as UTF-8.
        let mut take = query.len().min(TEXT_CAPACITY);
        while take > 0 && !query.is_char_boundary(take) {
            take -= 1;
        }
        entry.text = [0; TEXT_CAPACITY];
        if let (Some(dst), Some(src)) = (entry.text.get_mut(..take), query.as_bytes().get(..take)) {
            dst.copy_from_slice(src);
        }
        entry.len = take as u8;
        entry.wall_ns = wall_ns;
        entry.samples_decoded = samples_decoded;
        entry.irregular_series = irregular_series;
    }
    true
}

/// The retained slow queries, most recent first (allocates; diagnostic
/// path).
pub fn slow_queries() -> Vec<SlowQuery> {
    let ring = ring().lock();
    let recorded = ring.next.min(CAPACITY as u64) as usize;
    let mut out = Vec::with_capacity(recorded);
    for back in 1..=recorded {
        let slot = ((ring.next - back as u64) % CAPACITY as u64) as usize;
        let Some(entry) = ring.entries.get(slot) else { continue };
        let text = entry.text.get(..entry.len as usize).unwrap_or(&[]);
        out.push(SlowQuery {
            query: String::from_utf8_lossy(text).into_owned(),
            wall_seconds: entry.wall_ns as f64 / 1e9,
            samples_decoded: entry.samples_decoded,
            irregular_series: entry.irregular_series,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring and the `QUERY_SLOW` counter are global; serialise the tests
    /// that assert on them.
    fn test_guard() -> parking_lot::MutexGuard<'static, ()> {
        static GUARD: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn threshold_gates_recording() {
        let _guard = test_guard();
        let before = probes::QUERY_SLOW.get();
        assert!(!maybe_record("fast", 1, 0, 0));
        assert_eq!(probes::QUERY_SLOW.get(), before);
        assert!(maybe_record("sum(rate(x[5m]))", u64::MAX / 2, 42, 3));
        assert_eq!(probes::QUERY_SLOW.get(), before + 1);
        let newest = slow_queries().into_iter().next().expect("just recorded");
        assert_eq!(newest.query, "sum(rate(x[5m]))");
        assert_eq!((newest.samples_decoded, newest.irregular_series), (42, 3));
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let _guard = test_guard();
        for i in 0..(CAPACITY + 3) {
            assert!(maybe_record(&format!("q{i}"), u64::MAX / 2, i as u64, 0));
        }
        let entries = slow_queries();
        assert_eq!(entries.len(), CAPACITY);
        assert_eq!(
            entries.first().map(|e| e.query.as_str()),
            Some(format!("q{}", CAPACITY + 2).as_str())
        );
    }

    #[test]
    fn long_queries_truncate_on_char_boundaries() {
        let _guard = test_guard();
        let long = "é".repeat(TEXT_CAPACITY); // 2 bytes per char
        assert!(maybe_record(&long, u64::MAX / 2, 0, 0));
        let newest = slow_queries().into_iter().next().expect("recorded");
        assert!(newest.query.len() <= TEXT_CAPACITY);
        assert!(newest.query.chars().all(|c| c == 'é'));
    }
}
