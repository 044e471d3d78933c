//! A shareable, monotonically advancing virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// A virtual clock shared between the simulated kernel, the SGX driver model,
/// the exporters and the scrape loop.
///
/// Cloning a [`SimClock`] yields a handle onto the same underlying instant, so
/// every component observes a single consistent notion of "now" — the same
/// role the host's wall clock plays in the paper's deployment.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_nanos.load(Ordering::Relaxed))
    }

    /// Advances the clock by `delta` and returns the new instant.
    pub fn advance(&self, delta: SimDuration) -> SimTime {
        let new = self.now_nanos.fetch_add(delta.as_nanos(), Ordering::Relaxed) + delta.as_nanos();
        SimTime::from_nanos(new)
    }

    /// Milliseconds since simulation start; convenient for metric timestamps.
    pub fn now_millis(&self) -> u64 {
        self.now().as_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance(SimDuration::from_secs(5));
        assert_eq!(clock.now(), SimTime::from_secs(5));
        assert_eq!(clock.now_millis(), 5_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(100));
        assert_eq!(b.now(), SimTime::from_nanos(100_000_000));
    }
}
