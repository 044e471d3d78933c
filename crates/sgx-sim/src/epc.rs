//! The Enclave Page Cache (EPC) model.
//!
//! The EPC is a fixed pool of hardware-protected 4 KiB pages.  On the
//! evaluation hardware of the paper roughly 128 MiB are reserved of which
//! ~94 MiB are usable for enclave pages (§3.1).  When enclaves commit more
//! pages than fit, the driver's swapping daemon (`ksgxswapd`) first marks
//! resident pages "old" (not recently accessed) and then evicts old pages to
//! encrypted buffers in main memory (EWB); touching an evicted page later
//! triggers a page fault and a reload (ELDU).
//!
//! The model tracks exactly the counters the TEEMon TME exports:
//! total pages, free pages, pages marked old, pages evicted, pages added and
//! pages reclaimed.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::costs::CostModel;
use crate::enclave::EnclaveId;
use crate::SgxError;
use teemon_sim_core::SimDuration;

/// Size of one EPC page in bytes.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// Static configuration of the EPC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpcConfig {
    /// Total EPC size in bytes (including SGX metadata structures).
    pub total_bytes: u64,
    /// Bytes reserved for SGX internal metadata (version arrays, SECS, …) and
    /// therefore unavailable to applications.
    pub reserved_bytes: u64,
    /// Low watermark (in pages): when free pages drop below this, the
    /// swapping daemon starts marking pages old.
    pub low_watermark_pages: u64,
    /// High watermark (in pages): the swapping daemon evicts until at least
    /// this many pages are free again.
    pub high_watermark_pages: u64,
}

impl Default for EpcConfig {
    fn default() -> Self {
        // ~128 MiB total, ~94 MiB usable — the numbers the paper quotes (§3.1).
        let total = 128 * 1024 * 1024;
        let usable = 94 * 1024 * 1024;
        Self {
            total_bytes: total,
            reserved_bytes: total - usable,
            low_watermark_pages: 32,
            high_watermark_pages: 256,
        }
    }
}

impl EpcConfig {
    /// Number of pages usable by enclaves.
    pub(crate) fn usable_pages(&self) -> u64 {
        (self.total_bytes - self.reserved_bytes) / PAGE_SIZE
    }
}

/// Monotonic counters describing EPC activity since driver load — the exact
/// set of values the paper's TME reads from the instrumented driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct EpcCounters {
    /// Pages added to enclaves (EADD/EAUG).
    pub pages_added: u64,
    /// Pages evicted from the EPC to main memory (EWB).
    pub pages_evicted: u64,
    /// Evicted pages reloaded into the EPC (ELDU).
    pub pages_reclaimed: u64,
    /// Pages marked as "old" by the swapping daemon.
    pub pages_marked_old: u64,
    /// Enclave page faults caused by accesses to evicted pages.
    pub enclave_page_faults: u64,
    /// Number of times the swapping daemon woke up to make room.
    pub swapd_wakeups: u64,
}

/// State of a single resident page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResidentPage {
    old: bool,
    /// Monotonic access sequence number; smaller = less recently used.
    seq: u64,
}

/// Result of touching an enclave page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// `true` when the access faulted because the page was not resident.
    pub faulted: bool,
    /// Pages that had to be evicted to make room for this access.
    pub evicted: u64,
    /// Simulated latency of the access (excluding the application's own work).
    pub latency: SimDuration,
}

impl AccessOutcome {
    /// An access that hit a resident page and required no driver work.
    pub(crate) const HIT: AccessOutcome =
        AccessOutcome { faulted: false, evicted: 0, latency: SimDuration::ZERO };
}

type PageKey = (EnclaveId, u64);

/// The Enclave Page Cache.
#[derive(Debug)]
pub(crate) struct Epc {
    config: EpcConfig,
    costs: CostModel,
    /// Pages currently resident, with their age state.
    resident: HashMap<PageKey, ResidentPage>,
    /// LRU order of resident pages keyed by access sequence
    /// (first entry = least recently used).
    lru: BTreeMap<u64, PageKey>,
    next_seq: u64,
    /// Pages evicted to main memory (still committed to their enclave).
    swapped: HashMap<PageKey, ()>,
    counters: EpcCounters,
}

impl Epc {
    /// Creates an EPC with the given configuration and cost model.
    pub(crate) fn new(config: EpcConfig, costs: CostModel) -> Self {
        Self {
            config,
            costs,
            resident: HashMap::new(),
            lru: BTreeMap::new(),
            next_seq: 0,
            swapped: HashMap::new(),
            counters: EpcCounters::default(),
        }
    }

    /// The static configuration.
    pub(crate) fn config(&self) -> &EpcConfig {
        &self.config
    }

    /// Counter snapshot.
    pub(crate) fn counters(&self) -> EpcCounters {
        self.counters
    }

    /// Number of pages currently free.
    pub(crate) fn free_pages(&self) -> u64 {
        self.config.usable_pages() - self.resident.len() as u64
    }

    /// Number of resident pages currently marked old.
    pub(crate) fn old_pages(&self) -> u64 {
        self.resident.values().filter(|p| p.old).count() as u64
    }

    fn lru_touch(&mut self, key: PageKey) {
        if let Some(meta) = self.resident.get_mut(&key) {
            self.lru.remove(&meta.seq);
            meta.seq = self.next_seq;
            self.lru.insert(self.next_seq, key);
            self.next_seq += 1;
        }
    }

    fn insert_resident(&mut self, key: PageKey, old: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.resident.insert(key, ResidentPage { old, seq });
        self.lru.insert(seq, key);
    }

    /// Runs the swapping daemon: if free pages are below the low watermark,
    /// mark LRU pages old and evict old pages until the high watermark is
    /// reached.  Returns the number of pages evicted and the time spent.
    pub(crate) fn run_swapd(&mut self) -> (u64, SimDuration) {
        if self.free_pages() >= self.config.low_watermark_pages {
            return (0, SimDuration::ZERO);
        }
        self.counters.swapd_wakeups += 1;
        let mut evicted = 0;
        let mut latency = SimDuration::ZERO;
        let target = self.config.high_watermark_pages.min(self.config.usable_pages());
        // Phase 1: mark the least recently used part of the deficit as old.
        let deficit = target.saturating_sub(self.free_pages());
        let mut marked = 0;
        let victims: Vec<PageKey> = self.lru.values().take(deficit as usize).copied().collect();
        for key in victims {
            if let Some(page) = self.resident.get_mut(&key) {
                if !page.old {
                    page.old = true;
                    marked += 1;
                }
            }
        }
        self.counters.pages_marked_old += marked;
        // Phase 2: evict old pages in LRU order until the target is met.
        while self.free_pages() < target {
            let Some(victim) = self.pick_victim() else { break };
            self.evict_page(victim);
            evicted += 1;
            latency += self.costs.evict();
        }
        (evicted, latency)
    }

    /// The plain LRU victim (least recently used resident page).
    fn lru_victim(&self) -> Option<PageKey> {
        self.lru.values().next().copied()
    }

    /// The swapd victim: prefer the least recently used *old* page within a
    /// bounded scan window, falling back to the plain LRU victim.
    fn pick_victim(&self) -> Option<PageKey> {
        const SCAN_WINDOW: usize = 512;
        self.lru
            .values()
            .take(SCAN_WINDOW)
            .find(|k| self.resident.get(*k).map(|p| p.old).unwrap_or(false))
            .copied()
            .or_else(|| self.lru_victim())
    }

    fn evict_page(&mut self, key: PageKey) {
        if let Some(meta) = self.resident.remove(&key) {
            self.lru.remove(&meta.seq);
            self.swapped.insert(key, ());
            self.counters.pages_evicted += 1;
        }
    }

    fn make_room_for_one(&mut self) -> (u64, SimDuration) {
        let mut evicted = 0;
        let mut latency = SimDuration::ZERO;
        if self.free_pages() == 0 {
            if let Some(victim) = self.lru_victim() {
                self.evict_page(victim);
                evicted += 1;
                latency += self.costs.evict();
            }
        }
        (evicted, latency)
    }

    /// Commits (adds) a fresh page to an enclave, evicting if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::OutOfEpc`] when the EPC has zero usable pages.
    pub(crate) fn add_page(
        &mut self,
        enclave: EnclaveId,
        page: u64,
    ) -> Result<AccessOutcome, SgxError> {
        if self.config.usable_pages() == 0 {
            return Err(SgxError::OutOfEpc { requested_pages: 1 });
        }
        let key = (enclave, page);
        if self.resident.contains_key(&key) || self.swapped.contains_key(&key) {
            // Already committed — treat as a touch.
            return Ok(self.touch(enclave, page));
        }
        let (evicted, mut latency) = self.make_room_for_one();
        latency += SimDuration::from_nanos(self.costs.eadd_ns);
        self.insert_resident(key, false);
        self.counters.pages_added += 1;
        Ok(AccessOutcome { faulted: false, evicted, latency })
    }

    /// Touches a committed page: on a resident page this refreshes its LRU
    /// position; on an evicted page it triggers a fault, possibly an eviction
    /// of a victim, and a reload.
    ///
    /// Touching a page that was never committed behaves like [`Epc::add_page`]
    /// (demand paging via EAUG), which is how SGX2-style frameworks grow the
    /// heap lazily.
    pub(crate) fn touch(&mut self, enclave: EnclaveId, page: u64) -> AccessOutcome {
        let key = (enclave, page);
        if self.resident.contains_key(&key) {
            if let Some(p) = self.resident.get_mut(&key) {
                p.old = false;
            }
            self.lru_touch(key);
            return AccessOutcome::HIT;
        }
        if self.swapped.remove(&key).is_some() {
            // Fault on an evicted page: make room, then reload.
            self.counters.enclave_page_faults += 1;
            let (evicted, mut latency) = self.make_room_for_one();
            latency += self.costs.fault_reload();
            self.insert_resident(key, false);
            self.counters.pages_reclaimed += 1;
            return AccessOutcome { faulted: true, evicted, latency };
        }
        // Demand-commit a new page.
        match self.add_page(enclave, page) {
            Ok(outcome) => outcome,
            Err(_) => AccessOutcome::HIT,
        }
    }

    /// Removes every page (resident or swapped) belonging to `enclave` and
    /// returns how many pages were released.
    pub(crate) fn remove_enclave(&mut self, enclave: EnclaveId) -> u64 {
        let before = self.resident.len() + self.swapped.len();
        self.resident.retain(|(e, _), _| *e != enclave);
        self.swapped.retain(|(e, _), _| *e != enclave);
        let resident = &self.resident;
        self.lru.retain(|_, key| resident.contains_key(key));
        (before - self.resident.len() - self.swapped.len()) as u64
    }

    /// Conservation invariant: free + resident == usable, and no page is both
    /// resident and swapped.  The property-based tests' oracle.
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        let no_overlap = self.resident.keys().all(|k| !self.swapped.contains_key(k));
        let lru_matches = self.lru.len() == self.resident.len()
            && self
                .lru
                .iter()
                .all(|(seq, key)| self.resident.get(key).map(|p| p.seq == *seq).unwrap_or(false));
        let conserved =
            self.free_pages() + self.resident.len() as u64 == self.config.usable_pages();
        no_overlap && lru_matches && conserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveId;

    fn tiny_epc(pages: u64) -> Epc {
        let config = EpcConfig {
            total_bytes: pages * PAGE_SIZE + 1024 * 1024,
            reserved_bytes: 1024 * 1024,
            low_watermark_pages: 2,
            high_watermark_pages: 4.min(pages),
        };
        Epc::new(config, CostModel::default())
    }

    const E1: EnclaveId = EnclaveId::from_raw(1);
    const E2: EnclaveId = EnclaveId::from_raw(2);

    #[test]
    fn default_config_matches_paper_numbers() {
        let config = EpcConfig::default();
        assert_eq!(config.total_bytes, 128 * 1024 * 1024);
        // ~94 MiB usable → ~24 064 pages.
        assert_eq!(config.usable_pages(), 94 * 1024 * 1024 / PAGE_SIZE);
    }

    #[test]
    fn add_page_consumes_free_pages() {
        let mut epc = tiny_epc(8);
        assert_eq!(epc.free_pages(), 8);
        for i in 0..4 {
            epc.add_page(E1, i).unwrap();
        }
        assert_eq!(epc.free_pages(), 4);
        assert_eq!(epc.counters().pages_added, 4);
        assert!(epc.check_invariants());
    }

    #[test]
    fn exceeding_epc_evicts_lru_pages() {
        let mut epc = tiny_epc(4);
        for i in 0..4 {
            epc.add_page(E1, i).unwrap();
        }
        // Adding a 5th page evicts the least recently used (page 0).
        let outcome = epc.add_page(E1, 4).unwrap();
        assert_eq!(outcome.evicted, 1);
        assert_eq!(epc.counters().pages_evicted, 1);
        assert_eq!(epc.swapped.len(), 1);
        // Touching page 0 now faults and reclaims it.
        let outcome = epc.touch(E1, 0);
        assert!(outcome.faulted);
        assert_eq!(epc.counters().enclave_page_faults, 1);
        assert_eq!(epc.counters().pages_reclaimed, 1);
        assert!(epc.check_invariants());
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let mut epc = tiny_epc(3);
        epc.add_page(E1, 0).unwrap();
        epc.add_page(E1, 1).unwrap();
        epc.add_page(E1, 2).unwrap();
        // Touch page 0 so that page 1 becomes the LRU victim.
        epc.touch(E1, 0);
        epc.add_page(E1, 3).unwrap();
        assert!(epc.swapped.contains_key(&(E1, 1)));
        assert!(!epc.swapped.contains_key(&(E1, 0)));
    }

    #[test]
    fn working_set_within_epc_never_faults() {
        let mut epc = tiny_epc(64);
        for i in 0..32 {
            epc.add_page(E1, i).unwrap();
        }
        for round in 0..10 {
            for i in 0..32 {
                let outcome = epc.touch(E1, i);
                assert!(!outcome.faulted, "round {round} page {i} faulted");
            }
        }
        assert_eq!(epc.counters().enclave_page_faults, 0);
        assert_eq!(epc.counters().pages_evicted, 0);
    }

    #[test]
    fn working_set_larger_than_epc_thrashes() {
        let mut epc = tiny_epc(16);
        // Commit 32 pages, then scan them repeatedly: every access misses
        // under a pure LRU with a sequential scan larger than the cache.
        for i in 0..32 {
            epc.add_page(E1, i).unwrap();
        }
        let mut faults = 0;
        for _ in 0..3 {
            for i in 0..32 {
                if epc.touch(E1, i).faulted {
                    faults += 1;
                }
            }
        }
        assert!(faults > 80, "expected heavy thrashing, got {faults} faults");
        assert!(epc.counters().pages_evicted >= faults);
        assert!(epc.check_invariants());
    }

    #[test]
    fn swapd_marks_old_then_evicts() {
        let mut epc = tiny_epc(8);
        for i in 0..7 {
            epc.add_page(E1, i).unwrap();
        }
        // Free = 1 < low watermark (2) → swapd should run.
        let (evicted, latency) = epc.run_swapd();
        assert!(evicted > 0);
        assert!(latency > SimDuration::ZERO);
        assert!(epc.counters().pages_marked_old > 0);
        assert_eq!(epc.counters().swapd_wakeups, 1);
        assert!(epc.free_pages() >= 4);
        // With plenty free it does nothing.
        let (evicted, _) = epc.run_swapd();
        assert_eq!(evicted, 0);
        assert_eq!(epc.counters().swapd_wakeups, 1);
    }

    #[test]
    fn remove_enclave_releases_pages() {
        let mut epc = tiny_epc(8);
        for i in 0..4 {
            epc.add_page(E1, i).unwrap();
        }
        for i in 0..6 {
            epc.add_page(E2, i).unwrap();
        }
        assert!(!epc.swapped.is_empty());
        let released = epc.remove_enclave(E1);
        assert_eq!(released, 4);
        let committed = |e: EnclaveId| {
            epc.resident.keys().chain(epc.swapped.keys()).filter(|(owner, _)| *owner == e).count()
        };
        assert_eq!(committed(E1), 0);
        assert_eq!(committed(E2), 6);
        assert!(epc.check_invariants());
    }

    #[test]
    fn double_add_is_idempotent() {
        let mut epc = tiny_epc(8);
        epc.add_page(E1, 0).unwrap();
        epc.add_page(E1, 0).unwrap();
        assert_eq!(epc.counters().pages_added, 1);
        assert_eq!(epc.resident.len(), 1);
    }

    #[test]
    fn zero_page_epc_errors() {
        let config = EpcConfig {
            total_bytes: 1024 * 1024,
            reserved_bytes: 1024 * 1024,
            low_watermark_pages: 0,
            high_watermark_pages: 0,
        };
        let mut epc = Epc::new(config, CostModel::default());
        assert!(matches!(epc.add_page(E1, 0), Err(SgxError::OutOfEpc { .. })));
    }

    proptest::proptest! {
        #[test]
        fn prop_invariants_hold_under_random_access(
            ops in proptest::collection::vec((0u8..4, 0u64..2, 0u64..64), 1..400)
        ) {
            let mut epc = tiny_epc(16);
            for (op, enclave, page) in ops {
                let enclave = EnclaveId::from_raw(enclave + 1);
                match op {
                    0 => { let _ = epc.add_page(enclave, page); }
                    1 => { let _ = epc.touch(enclave, page); }
                    2 => { let _ = epc.run_swapd(); }
                    _ => { let _ = epc.remove_enclave(enclave); }
                }
                proptest::prop_assert!(epc.check_invariants());
                proptest::prop_assert!(epc.resident.len() as u64 <= epc.config().usable_pages());
            }
        }

        #[test]
        fn prop_counters_are_monotonic(pages in 1u64..128, accesses in 1usize..200) {
            let mut epc = tiny_epc(8);
            let mut last = EpcCounters::default();
            for i in 0..accesses {
                let _ = epc.touch(E1, (i as u64) % pages);
                let now = epc.counters();
                proptest::prop_assert!(now.pages_added >= last.pages_added);
                proptest::prop_assert!(now.pages_evicted >= last.pages_evicted);
                proptest::prop_assert!(now.pages_reclaimed >= last.pages_reclaimed);
                proptest::prop_assert!(now.enclave_page_faults >= last.enclave_page_faults);
                last = now;
            }
        }
    }
}
