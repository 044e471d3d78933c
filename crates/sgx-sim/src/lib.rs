//! Intel SGX substrate simulation.
//!
//! TEEMon's TEE Metrics Exporter observes the Intel SGX kernel driver: how
//! many enclaves exist, how many EPC pages are free, how many pages were
//! marked old, evicted to main memory or reclaimed back (§4, "TEE Metrics
//! Exporter").  Reproducing the paper without SGX hardware therefore requires
//! a model of exactly that machinery, which this crate provides:
//!
//! * `Epc` — the Enclave Page Cache: a fixed pool of protected 4 KiB pages
//!   (~128 MiB raw, ~94 MiB usable) with LRU eviction (`EWB`) to main memory
//!   and reload (`ELDU`), including the two-phase "mark old, then evict"
//!   behaviour of `ksgxswapd`,
//! * `Enclave` — enclave lifecycle and working-set bookkeeping,
//! * [`SgxDriver`] — the driver façade exposing the same counters the paper
//!   instruments (`sgx_nr_free_pages`, `sgx_nr_enclaves`, `sgx_nr_evicted`, …)
//!   as one [`DriverStats`] snapshot,
//! * [`CostModel`] and [`TransitionTracker`] — latency costs of EENTER/EEXIT/AEX,
//!   paging and MEE-encrypted memory access, used by the framework models.
//!
//! The simulation is deliberately a *cost and counter* model, not a functional
//! enclave: TEEMon never looks inside an enclave, it only observes the events
//! the enclave causes in the driver and kernel.

#![warn(missing_docs)]

mod costs;
mod driver;
mod enclave;
mod epc;
mod transition;

pub use costs::CostModel;
pub use driver::{DriverStats, SgxDriver};
pub use enclave::EnclaveId;
pub use epc::{AccessOutcome, EpcConfig};
pub use transition::{TransitionCounts, TransitionKind, TransitionTracker};

/// Errors produced by the SGX simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// The referenced enclave does not exist (or was destroyed).
    NoSuchEnclave(u64),
    /// Enclave creation failed because the requested size is zero.
    EmptyEnclave,
    /// The EPC (plus swap) cannot back the requested enclave size.
    OutOfEpc {
        /// Pages requested by the enclave.
        requested_pages: u64,
    },
    /// The page index lies outside the enclave's committed size.
    PageOutOfRange {
        /// Offending page index.
        page: u64,
        /// Number of pages committed to the enclave.
        committed: u64,
    },
}

impl std::fmt::Display for SgxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxError::NoSuchEnclave(id) => write!(f, "no such enclave: {id}"),
            SgxError::EmptyEnclave => write!(f, "enclave size must be non-zero"),
            SgxError::OutOfEpc { requested_pages } => {
                write!(f, "cannot back enclave of {requested_pages} pages")
            }
            SgxError::PageOutOfRange { page, committed } => {
                write!(f, "page {page} outside enclave of {committed} pages")
            }
        }
    }
}

impl std::error::Error for SgxError {}
