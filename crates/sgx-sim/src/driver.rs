//! The simulated Intel SGX kernel driver.
//!
//! The paper instruments the official out-of-tree `isgx` driver with 42 lines
//! of code that export counters as module parameters under
//! `/sys/module/isgx/parameters/<name>` (§5.1).  [`SgxDriver`] is the
//! simulated equivalent: it owns the [`Epc`], tracks enclave lifecycles and
//! exposes the same counters as one [`DriverStats`] snapshot
//! ([`SgxDriver::stats`]), which is what the TEE Metrics Exporter reads on
//! every scrape.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use teemon_sim_core::{SimClock, SimDuration};

use crate::costs::CostModel;
use crate::enclave::{Enclave, EnclaveId, EnclaveState};
use crate::epc::{AccessOutcome, Epc, EpcConfig, EpcCounters, PAGE_SIZE};
use crate::SgxError;

/// Snapshot of every counter the driver exposes — the values the TME scrapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// Enclaves created since driver load (`sgx_nr_created`).
    pub enclaves_created: u64,
    /// Currently active enclaves (`sgx_nr_enclaves`).
    pub enclaves_active: u64,
    /// Enclaves removed since driver load (`sgx_nr_removed`).
    pub enclaves_removed: u64,
    /// Total usable EPC pages (`sgx_nr_total_pages`).
    pub epc_total_pages: u64,
    /// Currently free EPC pages (`sgx_nr_free_pages`).
    pub epc_free_pages: u64,
    /// Pages currently marked old (`sgx_nr_old_pages`).
    pub epc_old_pages: u64,
    /// Pages evicted to main memory since load (`sgx_nr_evicted`).
    pub epc_pages_evicted: u64,
    /// Pages added to enclaves since load (`sgx_nr_added`).
    pub epc_pages_added: u64,
    /// Pages reclaimed from main memory since load (`sgx_nr_reclaimed`).
    pub epc_pages_reclaimed: u64,
    /// Pages marked old since load (`sgx_nr_marked_old`).
    pub epc_pages_marked_old: u64,
    /// Enclave page faults since load (`sgx_nr_enclave_page_faults`).
    pub enclave_page_faults: u64,
    /// ksgxswapd wakeups since load (`sgx_nr_swapd_runs`).
    pub swapd_wakeups: u64,
}

struct DriverInner {
    epc: Epc,
    enclaves: BTreeMap<EnclaveId, Enclave>,
    next_id: u64,
    created: u64,
    removed: u64,
}

/// The simulated SGX driver.  Cheap to clone; all clones share state, the way
/// every process on a host shares the one real driver.
#[derive(Clone)]
pub struct SgxDriver {
    inner: Arc<Mutex<DriverInner>>,
    clock: SimClock,
    costs: CostModel,
}

impl SgxDriver {
    /// Creates a driver with the default EPC (~94 MiB usable) and cost model.
    pub fn new(clock: SimClock) -> Self {
        Self::with_config(clock, EpcConfig::default(), CostModel::default())
    }

    /// Creates a driver with explicit EPC configuration and cost model.
    pub fn with_config(clock: SimClock, epc_config: EpcConfig, costs: CostModel) -> Self {
        Self {
            inner: Arc::new(Mutex::new(DriverInner {
                epc: Epc::new(epc_config, costs.clone()),
                enclaves: BTreeMap::new(),
                next_id: 1,
                created: 0,
                removed: 0,
            })),
            clock,
            costs,
        }
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Creates and initialises an enclave of `size_bytes` owned by `pid`.
    /// All pages are committed eagerly (EADD at load time), which is how the
    /// SGX1-era frameworks in the paper build enclaves.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EmptyEnclave`] for a zero-sized enclave.
    pub fn create_enclave(
        &self,
        pid: u32,
        size_bytes: u64,
        threads: u32,
    ) -> Result<(EnclaveId, SimDuration), SgxError> {
        if size_bytes == 0 {
            return Err(SgxError::EmptyEnclave);
        }
        let mut inner = self.inner.lock();
        let id = EnclaveId::from_raw(inner.next_id);
        inner.next_id += 1;
        let enclave = Enclave {
            id,
            owner_pid: pid,
            size_bytes,
            state: EnclaveState::Active,
            created_at: self.clock.now(),
            threads: threads.max(1),
        };
        let pages = enclave.pages();
        let mut latency = SimDuration::from_nanos(self.costs.ecreate_ns);
        for page in 0..pages {
            let outcome = inner.epc.add_page(id, page)?;
            latency += outcome.latency;
        }
        inner.enclaves.insert(id, enclave);
        inner.created += 1;
        Ok((id, latency))
    }

    /// Destroys an enclave and releases its EPC pages.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NoSuchEnclave`] if the id is unknown or already
    /// removed.
    pub fn destroy_enclave(&self, id: EnclaveId) -> Result<(), SgxError> {
        let mut inner = self.inner.lock();
        match inner.enclaves.get_mut(&id) {
            Some(enclave) if enclave.state == EnclaveState::Active => {
                enclave.state = EnclaveState::Removed;
                inner.epc.remove_enclave(id);
                inner.removed += 1;
                Ok(())
            }
            _ => Err(SgxError::NoSuchEnclave(id.as_u64())),
        }
    }

    /// Touches one page of an enclave's memory (read or write) and returns the
    /// paging outcome.  This is the entry point the framework models call for
    /// every simulated memory access that reaches enclave memory.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NoSuchEnclave`] for unknown enclaves and
    /// [`SgxError::PageOutOfRange`] for accesses past the committed size.
    pub fn access_page(&self, id: EnclaveId, page: u64) -> Result<AccessOutcome, SgxError> {
        let mut inner = self.inner.lock();
        let enclave = inner.enclaves.get(&id).ok_or(SgxError::NoSuchEnclave(id.as_u64()))?;
        if enclave.state != EnclaveState::Active {
            return Err(SgxError::NoSuchEnclave(id.as_u64()));
        }
        let committed = enclave.pages();
        if page >= committed {
            return Err(SgxError::PageOutOfRange { page, committed });
        }
        Ok(inner.epc.touch(id, page))
    }

    /// Runs the swapping daemon once (normally triggered by the kernel when
    /// free EPC pages run low).  Returns `(pages evicted, time spent)`.
    pub fn run_swapd(&self) -> (u64, SimDuration) {
        self.inner.lock().epc.run_swapd()
    }

    /// Stats snapshot combining enclave lifecycle and EPC counters.
    pub fn stats(&self) -> DriverStats {
        let inner = self.inner.lock();
        let counters: EpcCounters = inner.epc.counters();
        DriverStats {
            enclaves_created: inner.created,
            enclaves_active: inner
                .enclaves
                .values()
                .filter(|e| e.state == EnclaveState::Active)
                .count() as u64,
            enclaves_removed: inner.removed,
            epc_total_pages: inner.epc.config().usable_pages(),
            epc_free_pages: inner.epc.free_pages(),
            epc_old_pages: inner.epc.old_pages(),
            epc_pages_evicted: counters.pages_evicted,
            epc_pages_added: counters.pages_added,
            epc_pages_reclaimed: counters.pages_reclaimed,
            epc_pages_marked_old: counters.pages_marked_old,
            enclave_page_faults: counters.enclave_page_faults,
            swapd_wakeups: counters.swapd_wakeups,
        }
    }

    /// Number of pages an enclave of `size_bytes` commits.
    pub fn pages_for(size_bytes: u64) -> u64 {
        size_bytes.div_ceil(PAGE_SIZE)
    }
}

impl std::fmt::Debug for SgxDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SgxDriver")
            .field("enclaves_active", &stats.enclaves_active)
            .field("epc_free_pages", &stats.epc_free_pages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver_with_usable_mib(mib: u64) -> SgxDriver {
        let epc = EpcConfig { total_bytes: mib << 20, reserved_bytes: 0, ..EpcConfig::default() };
        SgxDriver::with_config(SimClock::new(), epc, CostModel::default())
    }

    #[test]
    fn enclave_lifecycle_counters() {
        let driver = driver_with_usable_mib(16);
        let (id1, latency) = driver.create_enclave(100, 4 * 1024 * 1024, 4).unwrap();
        assert!(latency > SimDuration::ZERO);
        let (id2, _) = driver.create_enclave(200, 2 * 1024 * 1024, 2).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.enclaves_created, 2);
        assert_eq!(stats.enclaves_active, 2);
        assert_eq!(stats.enclaves_removed, 0);
        assert_eq!(
            stats.epc_pages_added,
            SgxDriver::pages_for(4 * 1024 * 1024) + SgxDriver::pages_for(2 * 1024 * 1024)
        );

        driver.destroy_enclave(id1).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.enclaves_active, 1);
        assert_eq!(stats.enclaves_removed, 1);
        assert!(driver.destroy_enclave(id1).is_err(), "double destroy fails");
        assert!(driver.access_page(id2, 0).is_ok(), "the other enclave stays usable");
    }

    #[test]
    fn create_rejects_empty_enclave() {
        let driver = driver_with_usable_mib(16);
        assert!(matches!(driver.create_enclave(1, 0, 1), Err(SgxError::EmptyEnclave)));
    }

    #[test]
    fn access_validates_enclave_and_range() {
        let driver = driver_with_usable_mib(16);
        let (id, _) = driver.create_enclave(1, 1024 * 1024, 1).unwrap();
        assert!(driver.access_page(id, 0).is_ok());
        let committed = SgxDriver::pages_for(1024 * 1024);
        assert!(matches!(driver.access_page(id, committed), Err(SgxError::PageOutOfRange { .. })));
        assert!(matches!(
            driver.access_page(EnclaveId::from_raw(999), 0),
            Err(SgxError::NoSuchEnclave(999))
        ));
        driver.destroy_enclave(id).unwrap();
        assert!(driver.access_page(id, 0).is_err());
    }

    #[test]
    fn oversubscription_triggers_paging_visible_in_stats() {
        // 8 MiB EPC, enclave of 12 MiB: accesses must page.
        let driver = driver_with_usable_mib(8);
        let (id, _) = driver.create_enclave(1, 12 * 1024 * 1024, 4).unwrap();
        let pages = SgxDriver::pages_for(12 * 1024 * 1024);
        let mut faults = 0;
        for round in 0..2 {
            for page in 0..pages {
                let outcome = driver.access_page(id, page).unwrap();
                if outcome.faulted {
                    faults += 1;
                }
                let _ = round;
            }
        }
        assert!(faults > 0);
        let stats = driver.stats();
        assert!(stats.epc_pages_evicted > 0);
        assert!(stats.enclave_page_faults >= faults);
        assert!(stats.epc_pages_reclaimed > 0);
        assert_eq!(stats.epc_free_pages + (pages.min(stats.epc_total_pages)), {
            // free + resident == total; resident is bounded by both the
            // enclave size and the EPC size.
            stats.epc_free_pages + (stats.epc_total_pages - stats.epc_free_pages)
        });
    }

    #[test]
    fn enclave_fitting_in_epc_never_pages() {
        let driver = driver_with_usable_mib(94);
        // 78 MB database fits into the ~94 MiB EPC (the paper's "small" size).
        let (id, _) = driver.create_enclave(1, 78 * 1000 * 1000, 8).unwrap();
        let pages = SgxDriver::pages_for(78 * 1000 * 1000);
        for page in (0..pages).step_by(7) {
            let outcome = driver.access_page(id, page).unwrap();
            assert!(!outcome.faulted);
        }
        assert_eq!(driver.stats().epc_pages_evicted, 0);
    }

    #[test]
    fn clones_share_driver_state() {
        let driver = driver_with_usable_mib(16);
        let clone = driver.clone();
        clone.create_enclave(1, 1024 * 1024, 1).unwrap();
        assert_eq!(driver.stats().enclaves_active, 1);
    }

    #[test]
    fn swapd_reduces_pressure() {
        let driver = driver_with_usable_mib(4);
        let (_id, _) = driver.create_enclave(1, 4 * 1024 * 1024 - 64 * 1024, 1).unwrap();
        let before = driver.stats().epc_free_pages;
        let (evicted, _) = driver.run_swapd();
        assert!(evicted > 0);
        assert!(driver.stats().epc_free_pages > before);
        assert_eq!(driver.stats().swapd_wakeups, 1);
    }
}
