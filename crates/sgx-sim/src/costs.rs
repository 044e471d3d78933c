//! Latency cost model for SGX operations.
//!
//! The absolute values are calibrated against published microbenchmarks of
//! SGX v1 hardware (SCONE [Arnautov et al. 2016], sgx-perf [Weichbrodt et al.
//! 2018], Hotcalls [Weisse et al. 2017]): an enclave transition costs on the
//! order of 8 000–12 000 cycles (~2–4 µs at 3 GHz), evicting or reloading an
//! EPC page costs ~10–40 µs, and the Memory Encryption Engine adds a
//! percentage overhead to last-level-cache misses that hit enclave memory.
//! The figure reproduction only relies on the *relative* magnitudes.

use serde::{Deserialize, Serialize};
use teemon_sim_core::SimDuration;

/// Tunable latency costs of the simulated SGX hardware and driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of a synchronous enclave entry (EENTER) in nanoseconds.
    pub eenter_ns: u64,
    /// Cost of a synchronous enclave exit (EEXIT) in nanoseconds.
    pub eexit_ns: u64,
    /// Cost of an asynchronous exit (AEX), e.g. due to an interrupt or page
    /// fault, in nanoseconds.
    pub aex_ns: u64,
    /// Cost of evicting one EPC page to main memory (EWB) in nanoseconds.
    pub ewb_ns: u64,
    /// Cost of reloading one evicted page into the EPC (ELDU) in nanoseconds.
    pub eldu_ns: u64,
    /// Cost of a page-table walk / page-fault handling in the kernel, in
    /// nanoseconds, charged on every enclave page fault in addition to paging.
    pub page_fault_ns: u64,
    /// Cost of a last-level cache miss served from ordinary DRAM.
    pub llc_miss_ns: u64,
    /// Multiplicative overhead the Memory Encryption Engine adds to cache
    /// misses that target EPC memory (e.g. 0.3 = 30 % slower).
    pub mee_overhead: f64,
    /// Cost of adding a fresh page to an enclave (EAUG/EADD + EACCEPT).
    pub eadd_ns: u64,
    /// Fixed cost of enclave creation (ECREATE + EINIT + attestation setup).
    pub ecreate_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            eenter_ns: 2_700,
            eexit_ns: 2_300,
            aex_ns: 3_000,
            ewb_ns: 15_000,
            eldu_ns: 12_000,
            page_fault_ns: 1_500,
            llc_miss_ns: 90,
            mee_overhead: 0.30,
            eadd_ns: 4_000,
            ecreate_ns: 20_000_000,
        }
    }
}

impl CostModel {
    /// Cost of handling an enclave page fault that requires reloading a page
    /// (AEX + kernel fault handling + ELDU, possibly preceded by an EWB of a
    /// victim page accounted separately).
    pub(crate) fn fault_reload(&self) -> SimDuration {
        SimDuration::from_nanos(self.aex_ns + self.page_fault_ns + self.eldu_ns)
    }

    /// Cost of evicting one page.
    pub(crate) fn evict(&self) -> SimDuration {
        SimDuration::from_nanos(self.ewb_ns)
    }

    /// Cost of an LLC miss, optionally inside the EPC (MEE-encrypted).
    pub fn llc_miss(&self, in_epc: bool) -> SimDuration {
        let base = self.llc_miss_ns as f64;
        let total = if in_epc { base * (1.0 + self.mee_overhead) } else { base };
        SimDuration::from_nanos(total.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_have_expected_magnitudes() {
        let c = CostModel::default();
        // Transitions are microseconds, paging is tens of microseconds.
        let round_trip = SimDuration::from_nanos(c.eenter_ns + c.eexit_ns);
        assert!(round_trip >= SimDuration::from_micros(3));
        assert!(round_trip <= SimDuration::from_micros(20));
        assert!(c.fault_reload() > round_trip);
        assert!(c.evict() >= SimDuration::from_micros(5));
    }

    #[test]
    fn mee_overhead_increases_epc_misses() {
        let c = CostModel::default();
        assert!(c.llc_miss(true) > c.llc_miss(false));
        let ratio = c.llc_miss(true).as_nanos() as f64 / c.llc_miss(false).as_nanos() as f64;
        assert!((ratio - (1.0 + c.mee_overhead)).abs() < 0.05);
    }

    #[test]
    fn cost_model_is_cloneable_and_comparable() {
        let c = CostModel::default();
        assert_eq!(c.clone(), c);
        assert_ne!(CostModel { mee_overhead: 0.0, ..CostModel::default() }, c);
    }
}
