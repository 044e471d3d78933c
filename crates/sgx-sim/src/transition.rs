//! Enclave transition accounting (EENTER / EEXIT / AEX and OCALLs).
//!
//! The paper repeatedly identifies enclave transitions as one of the two
//! dominant SGX overheads (the other being EPC paging): "performing a context
//! switch from the inside to the outside of enclaves still introduces a
//! significant overhead" (§1).  The framework models use this tracker to
//! account every transition and charge its latency.

use serde::{Deserialize, Serialize};
use teemon_sim_core::SimDuration;

use crate::costs::CostModel;

/// The kind of an enclave transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransitionKind {
    /// Synchronous entry into the enclave (EENTER), e.g. an ECALL.
    Enter,
    /// Synchronous exit from the enclave (EEXIT), e.g. returning from an
    /// ECALL or issuing an OCALL.
    Exit,
    /// Asynchronous exit (AEX) caused by an interrupt, exception or page
    /// fault while executing inside the enclave.
    AsyncExit,
}

/// Aggregated transition counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionCounts {
    /// Number of EENTER transitions.
    pub enters: u64,
    /// Number of EEXIT transitions.
    pub exits: u64,
    /// Number of asynchronous exits.
    pub async_exits: u64,
}

/// Tracks enclave transitions and converts them into latency.
#[derive(Debug, Clone)]
pub struct TransitionTracker {
    costs: CostModel,
    counts: TransitionCounts,
}

impl TransitionTracker {
    /// Creates a tracker using `costs` for latency accounting.
    pub fn new(costs: CostModel) -> Self {
        Self { costs, counts: TransitionCounts::default() }
    }

    /// Records one transition and returns its latency.
    pub fn record(&mut self, kind: TransitionKind) -> SimDuration {
        match kind {
            TransitionKind::Enter => {
                self.counts.enters += 1;
                SimDuration::from_nanos(self.costs.eenter_ns)
            }
            TransitionKind::Exit => {
                self.counts.exits += 1;
                SimDuration::from_nanos(self.costs.eexit_ns)
            }
            TransitionKind::AsyncExit => {
                self.counts.async_exits += 1;
                SimDuration::from_nanos(self.costs.aex_ns)
            }
        }
    }

    /// Counter snapshot.
    pub fn counts(&self) -> TransitionCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_accumulate_latency() {
        let mut t = TransitionTracker::new(CostModel::default());
        let latency = t.record(TransitionKind::Enter)
            + t.record(TransitionKind::Exit)
            + t.record(TransitionKind::AsyncExit);
        assert_eq!(t.counts(), TransitionCounts { enters: 1, exits: 1, async_exits: 1 });
        assert!(latency >= SimDuration::from_micros(5));
    }
}
