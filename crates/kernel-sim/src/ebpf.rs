//! A small eBPF-like execution environment.
//!
//! The real SME loads restricted C programs into the kernel's eBPF virtual
//! machine; they run on each hook invocation and aggregate into `BPF_MAP`
//! key/value stores that user-space exporters read (§3.3, §5.1).  The
//! simulation keeps the same architecture — programs attached to hooks,
//! aggregating into maps, read by exporters — but expresses the programs as
//! Rust closures operating on [`BpfMap`]s.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hooks::{AttachmentId, HookEvent, HookPoint, PerfEventKind};
use crate::process::Pid;

pub use crate::hooks::HookRegistry;

/// A generic key/value aggregation map shared between "kernel-side" programs
/// and "user-space" exporters, mirroring `BPF_MAP_TYPE_HASH` with `u64`
/// values.
#[derive(Debug, Clone, Default)]
pub struct BpfMap {
    entries: Arc<RwLock<BTreeMap<String, u64>>>,
}

impl BpfMap {
    /// Adds `delta` to `key` (creating it at zero first).
    pub(crate) fn add(&self, key: impl Into<String>, delta: u64) {
        *self.entries.write().entry(key.into()).or_insert(0) += delta;
    }

    /// Reads the value at `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.read().get(key).copied()
    }

    /// Returns all entries (the user-space read of the whole map).
    pub fn dump(&self) -> BTreeMap<String, u64> {
        self.entries.read().clone()
    }
}

/// A BPF program's handler body: reacts to a hook event by updating a map.
pub(crate) type BpfHandler = Arc<dyn Fn(&HookEvent, &BpfMap) + Send + Sync>;

/// A program attached to one or more hooks, aggregating into maps.
pub(crate) struct BpfProgram {
    /// Program name (mirrors the object file name in the real eBPF exporter).
    pub name: String,
    /// The hooks the program attaches to.
    pub hooks: Vec<HookPoint>,
    /// The handler body.
    pub body: BpfHandler,
    /// The map the program aggregates into.
    pub map: BpfMap,
}

impl std::fmt::Debug for BpfProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BpfProgram")
            .field("name", &self.name)
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

/// Optional PID filter compiled into the programs.
///
/// §6.3 notes that the eBPF overhead "can be reduced by … filtering metrics
/// like system calls and context switches to only a specified PID.  To
/// facilitate filtering, we provide a macro for some of the programs which can
/// be set in the eBPF configuration file"; [`PidFilter`] is that macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PidFilter {
    /// Observe every process (the default).
    #[default]
    All,
    /// Observe only the given PID.
    Only(Pid),
}

impl PidFilter {
    /// `true` when `pid` passes the filter.
    pub(crate) fn accepts(&self, pid: Pid) -> bool {
        match self {
            PidFilter::All => true,
            PidFilter::Only(only) => *only == pid,
        }
    }
}

/// The collection of loaded eBPF programs plus their attachment handles.
pub struct EbpfVm {
    registry: HookRegistry,
    programs: Vec<BpfProgram>,
    attachments: Vec<AttachmentId>,
}

impl EbpfVm {
    /// Creates a VM that will attach programs to `registry`.
    pub fn new(registry: HookRegistry) -> Self {
        Self { registry, programs: Vec::new(), attachments: Vec::new() }
    }

    /// Loads a program and attaches it to its hooks.  Returns the program's
    /// map so callers can read the aggregation results.
    pub(crate) fn load(&mut self, program: BpfProgram) -> BpfMap {
        let map = program.map.clone();
        for hook in &program.hooks {
            let body = Arc::clone(&program.body);
            let map = program.map.clone();
            let id = self
                .registry
                .attach(hook.clone(), Arc::new(move |ev: &HookEvent| (body)(ev, &map)));
            self.attachments.push(id);
        }
        self.programs.push(program);
        map
    }

    /// Number of loaded programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Detaches every program (turning system-metric collection off).
    pub fn unload_all(&mut self) {
        for id in self.attachments.drain(..) {
            self.registry.detach(id);
        }
        self.programs.clear();
    }

    /// Loads the standard TEEMon program set (Table 2): syscall counts,
    /// context switches, page faults and cache statistics, optionally filtered
    /// to one PID.  Returns the maps in the order
    /// `[syscalls, context_switches, page_faults, cache]`.
    pub fn load_standard_programs(&mut self, filter: PidFilter) -> Vec<BpfMap> {
        let mut maps = Vec::new();

        // Program 1: per-syscall counters keyed by syscall name.
        maps.push(self.load(BpfProgram {
            name: "syscall_counts".into(),
            hooks: vec![HookPoint::sys_enter()],
            map: BpfMap::default(),
            body: Arc::new(move |ev, map| {
                if !filter.accepts(ev.pid) {
                    return;
                }
                if let Some(syscall) = ev.syscall {
                    map.add(syscall.name(), ev.value);
                }
            }),
        }));

        // Program 2: context switches keyed by pid and a host-wide total.
        //
        // The paper instruments both the `sched:sched_switch` tracepoint and
        // the software perf counter; to avoid double counting, the program
        // aggregates only the tracepoint (the perf counter remains available
        // for custom programs).
        maps.push(self.load(BpfProgram {
            name: "context_switches".into(),
            hooks: vec![HookPoint::sched_switch()],
            map: BpfMap::default(),
            body: Arc::new(move |ev, map| {
                // The host-wide total ignores the PID filter (Figure 11f is a
                // per-node metric); the per-PID keys respect it (Figure 11e).
                map.add("host_total", ev.value);
                if filter.accepts(ev.pid) {
                    map.add(format!("pid:{}", ev.pid), ev.value);
                }
            }),
        }));

        // Program 3: page faults split by user/kernel and enclave origin.
        maps.push(self.load(BpfProgram {
            name: "page_faults".into(),
            hooks: vec![HookPoint::page_fault_user(), HookPoint::page_fault_kernel()],
            map: BpfMap::default(),
            body: Arc::new(move |ev, map| {
                map.add("host_total", ev.value);
                if let Some(detail) = &ev.detail {
                    map.add(detail.clone(), ev.value);
                }
                if ev.from_enclave {
                    map.add("enclave", ev.value);
                }
                if filter.accepts(ev.pid) {
                    map.add(format!("pid:{}", ev.pid), ev.value);
                }
            }),
        }));

        // Program 4: LLC references/misses plus page-cache kprobes, keyed by
        // the event detail ("misses", "references", kprobed function name).
        maps.push(self.load(BpfProgram {
            name: "cache_stats".into(),
            hooks: vec![
                HookPoint::PerfEvent(PerfEventKind::HwCacheMisses),
                HookPoint::PerfEvent(PerfEventKind::HwCacheReferences),
                HookPoint::add_to_page_cache_lru(),
                HookPoint::mark_page_accessed(),
                HookPoint::account_page_dirtied(),
                HookPoint::mark_buffer_dirty(),
            ],
            map: BpfMap::default(),
            body: Arc::new(move |ev, map| {
                let key = ev.detail.clone().unwrap_or_else(|| "other".to_string());
                map.add(key, ev.value);
            }),
        }));

        maps
    }
}

impl std::fmt::Debug for EbpfVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbpfVm").field("programs", &self.program_count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::Syscall;

    fn ev(pid: u32) -> HookEvent {
        HookEvent::basic(Pid::from_raw(pid))
    }

    #[test]
    fn bpf_map_basic_operations() {
        let map = BpfMap::default();
        assert!(map.dump().is_empty());
        map.add("read", 2);
        map.add("read", 3);
        map.add("write", 7);
        assert_eq!(map.get("read"), Some(5));
        assert_eq!(map.get("write"), Some(7));
        assert_eq!(map.get("missing"), None);
        assert_eq!(
            map.dump().into_iter().collect::<Vec<_>>(),
            [("read".into(), 5), ("write".into(), 7)]
        );
    }

    #[test]
    fn map_clones_share_entries() {
        let map = BpfMap::default();
        let clone = map.clone();
        clone.add("k", 1);
        assert_eq!(map.get("k"), Some(1));
    }

    #[test]
    fn standard_syscall_program_counts_by_name() {
        let registry = HookRegistry::new();
        let mut vm = EbpfVm::new(registry.clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        let syscall_map = &maps[0];

        registry.fire(&HookPoint::sys_enter(), &ev(1).with_syscall(Syscall::ClockGettime));
        registry.fire(&HookPoint::sys_enter(), &ev(1).with_syscall(Syscall::ClockGettime));
        registry.fire(&HookPoint::sys_enter(), &ev(2).with_syscall(Syscall::Read));
        assert_eq!(syscall_map.get("clock_gettime"), Some(2));
        assert_eq!(syscall_map.get("read"), Some(1));
        assert_eq!(vm.program_count(), 4);
    }

    #[test]
    fn pid_filter_limits_per_pid_keys() {
        let registry = HookRegistry::new();
        let mut vm = EbpfVm::new(registry.clone());
        let maps = vm.load_standard_programs(PidFilter::Only(Pid::from_raw(1)));
        let switches = &maps[1];

        registry.fire(&HookPoint::sched_switch(), &ev(1));
        registry.fire(&HookPoint::sched_switch(), &ev(2));
        assert_eq!(switches.get("pid:1"), Some(1));
        assert_eq!(switches.get("pid:2"), None);
        // Host total sees both.
        assert_eq!(switches.get("host_total"), Some(2));
    }

    #[test]
    fn page_fault_program_tracks_enclave_share() {
        let registry = HookRegistry::new();
        let mut vm = EbpfVm::new(registry.clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        let faults = &maps[2];

        registry.fire(&HookPoint::page_fault_user(), &ev(1).in_enclave(true));
        registry.fire(&HookPoint::page_fault_user(), &ev(1));
        registry.fire(&HookPoint::page_fault_kernel(), &ev(0));
        assert_eq!(faults.get("host_total"), Some(3));
        assert_eq!(faults.get("enclave"), Some(1));
        assert_eq!(faults.get("pid:1"), Some(2));
    }

    #[test]
    fn unload_all_detaches_programs() {
        let registry = HookRegistry::new();
        let mut vm = EbpfVm::new(registry.clone());
        let maps = vm.load_standard_programs(PidFilter::All);
        assert!(registry.total_attached() > 0);
        vm.unload_all();
        assert_eq!(registry.total_attached(), 0);
        assert_eq!(vm.program_count(), 0);
        registry.fire(&HookPoint::sys_enter(), &ev(1).with_syscall(Syscall::Read));
        assert!(maps[0].dump().is_empty(), "detached program must not observe events");
    }

    #[test]
    fn custom_program_can_be_loaded() {
        let registry = HookRegistry::new();
        let mut vm = EbpfVm::new(registry.clone());
        let map = vm.load(BpfProgram {
            name: "futex_only".into(),
            hooks: vec![HookPoint::sys_enter()],
            map: BpfMap::default(),
            body: Arc::new(|ev, map| {
                if ev.syscall == Some(Syscall::Futex) {
                    map.add("futex", ev.value);
                }
            }),
        });
        registry.fire(&HookPoint::sys_enter(), &ev(3).with_syscall(Syscall::Futex));
        registry.fire(&HookPoint::sys_enter(), &ev(3).with_syscall(Syscall::Read));
        assert_eq!(map.dump().into_iter().collect::<Vec<_>>(), [("futex".into(), 1)]);
    }
}
