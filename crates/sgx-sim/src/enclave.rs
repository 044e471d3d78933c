//! Enclave lifecycle and working-set bookkeeping.

use serde::{Deserialize, Serialize};
use teemon_sim_core::SimTime;

use crate::epc::PAGE_SIZE;

/// Identifier of an enclave within the simulated driver.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct EnclaveId(u64);

impl EnclaveId {
    /// Constructs an id from a raw integer (used by tests and the driver).
    pub(crate) const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw integer value.
    pub(crate) const fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave-{}", self.0)
    }
}

/// Lifecycle state of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum EnclaveState {
    /// Initialised and running.
    Active,
    /// Destroyed; kept only for accounting.
    Removed,
}

/// A simulated enclave: its committed size, owner process and lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Enclave {
    /// Identifier assigned by the driver.
    pub id: EnclaveId,
    /// PID of the owning (simulated) process.
    pub owner_pid: u32,
    /// Committed enclave size in bytes (heap + code + stacks).
    pub size_bytes: u64,
    /// Lifecycle state.
    pub state: EnclaveState,
    /// Virtual time at which the enclave was created.
    pub created_at: SimTime,
    /// Number of threads (TCS pages) configured inside the enclave.
    pub threads: u32,
}

impl Enclave {
    /// Number of 4 KiB pages the enclave commits.
    pub(crate) fn pages(&self) -> u64 {
        self.size_bytes.div_ceil(PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclave_page_count_rounds_up() {
        let enclave = Enclave {
            id: EnclaveId::from_raw(1),
            owner_pid: 100,
            size_bytes: PAGE_SIZE * 3 + 1,
            state: EnclaveState::Active,
            created_at: SimTime::ZERO,
            threads: 4,
        };
        assert_eq!(enclave.pages(), 4);
    }

    #[test]
    fn enclave_id_display_and_raw() {
        let id = EnclaveId::from_raw(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.to_string(), "enclave-42");
    }
}
