//! Kernel instrumentation points: tracepoints, kprobes and perf events.
//!
//! Table 2 of the paper lists the exact hooks the SME attaches to:
//!
//! | metric type      | method            | field                                  |
//! |-------------------|-------------------|----------------------------------------|
//! | system calls      | kernel tracepoint | `raw_syscalls:sys_enter` / `sys_exit`  |
//! | cache metrics     | kprobes           | `add_to_page_cache_lru`, `mark_page_accessed`, `account_page_dirtied`, `mark_buffer_dirty` |
//! | cache metrics     | perf events       | `PERF_COUNT_HW_CACHE_MISSES`, `PERF_COUNT_HW_CACHE_REFERENCES` |
//! | context switches  | perf events       | `PERF_COUNT_SW_CONTEXT_SWITCHES`       |
//! | context switches  | kernel tracepoint | `sched:sched_switch`                   |
//! | page faults       | perf events       | `PERF_COUNT_SW_PAGE_FAULTS`            |
//! | page faults       | kernel tracepoints| `exceptions:page_fault_user` / `page_fault_kernel` |
//!
//! [`HookRegistry`] lets eBPF-style programs attach to these hook points; the
//! simulated [`crate::Kernel`] fires the hooks as the corresponding activity
//! happens.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use teemon_sim_core::SimTime;

use crate::process::Pid;
use crate::syscall::Syscall;

/// Hardware / software perf event kinds used by the SME.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfEventKind {
    /// `PERF_COUNT_HW_CACHE_MISSES`
    HwCacheMisses,
    /// `PERF_COUNT_HW_CACHE_REFERENCES`
    HwCacheReferences,
    /// `PERF_COUNT_SW_CONTEXT_SWITCHES`
    SwContextSwitches,
    /// `PERF_COUNT_SW_PAGE_FAULTS`
    SwPageFaults,
}

impl PerfEventKind {
    /// The perf constant name (used in metric labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            PerfEventKind::HwCacheMisses => "PERF_COUNT_HW_CACHE_MISSES",
            PerfEventKind::HwCacheReferences => "PERF_COUNT_HW_CACHE_REFERENCES",
            PerfEventKind::SwContextSwitches => "PERF_COUNT_SW_CONTEXT_SWITCHES",
            PerfEventKind::SwPageFaults => "PERF_COUNT_SW_PAGE_FAULTS",
        }
    }
}

/// A kernel instrumentation point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HookPoint {
    /// A kernel tracepoint such as `raw_syscalls:sys_enter`.
    Tracepoint(String),
    /// A kprobe on a kernel function such as `add_to_page_cache_lru`.
    Kprobe(String),
    /// A perf hardware/software counter event.
    PerfEvent(PerfEventKind),
}

impl HookPoint {
    /// `raw_syscalls:sys_enter`
    pub fn sys_enter() -> Self {
        HookPoint::Tracepoint("raw_syscalls:sys_enter".into())
    }
    /// `raw_syscalls:sys_exit`
    pub fn sys_exit() -> Self {
        HookPoint::Tracepoint("raw_syscalls:sys_exit".into())
    }
    /// `sched:sched_switch`
    pub fn sched_switch() -> Self {
        HookPoint::Tracepoint("sched:sched_switch".into())
    }
    /// `exceptions:page_fault_user`
    pub fn page_fault_user() -> Self {
        HookPoint::Tracepoint("exceptions:page_fault_user".into())
    }
    /// `exceptions:page_fault_kernel`
    pub fn page_fault_kernel() -> Self {
        HookPoint::Tracepoint("exceptions:page_fault_kernel".into())
    }
    /// Kprobe on `add_to_page_cache_lru`.
    pub fn add_to_page_cache_lru() -> Self {
        HookPoint::Kprobe("add_to_page_cache_lru".into())
    }
    /// Kprobe on `mark_page_accessed`.
    pub fn mark_page_accessed() -> Self {
        HookPoint::Kprobe("mark_page_accessed".into())
    }
    /// Kprobe on `account_page_dirtied`.
    pub fn account_page_dirtied() -> Self {
        HookPoint::Kprobe("account_page_dirtied".into())
    }
    /// Kprobe on `mark_buffer_dirty`.
    pub fn mark_buffer_dirty() -> Self {
        HookPoint::Kprobe("mark_buffer_dirty".into())
    }

    /// Human readable name of the hook (`tracepoint:...`, `kprobe:...`, …).
    pub fn name(&self) -> String {
        match self {
            HookPoint::Tracepoint(n) => format!("tracepoint:{n}"),
            HookPoint::Kprobe(n) => format!("kprobe:{n}"),
            HookPoint::PerfEvent(k) => format!("perf_event:{}", k.as_str()),
        }
    }
}

/// The payload delivered to programs when a hook fires.
#[derive(Debug, Clone, PartialEq)]
pub struct HookEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Process the event is attributed to (0 for pure kernel context).
    pub pid: Pid,
    /// Command name of the process, when known.
    pub comm: String,
    /// Syscall involved, for syscall tracepoints.
    pub syscall: Option<Syscall>,
    /// Generic numeric payload: count of occurrences this event represents
    /// (perf counters may batch), bytes, etc.
    pub value: u64,
    /// `true` when the event originated from enclave-backed execution, which
    /// lets programs separate SGX-induced activity from native activity.
    pub from_enclave: bool,
    /// Hook-specific detail: the perf counter sub-kind (`"misses"`,
    /// `"references"`) or the kprobed function name.
    pub detail: Option<String>,
}

impl HookEvent {
    /// Creates a minimal event for `pid` at `at` with `value == 1`.
    pub fn basic(at: SimTime, pid: Pid, comm: impl Into<String>) -> Self {
        Self {
            at,
            pid,
            comm: comm.into(),
            syscall: None,
            value: 1,
            from_enclave: false,
            detail: None,
        }
    }

    /// Sets the syscall field.
    #[must_use]
    pub fn with_syscall(mut self, syscall: Syscall) -> Self {
        self.syscall = Some(syscall);
        self
    }

    /// Sets the value field.
    #[must_use]
    pub fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Marks the event as originating from enclave execution.
    #[must_use]
    pub fn from_enclave(mut self, yes: bool) -> Self {
        self.from_enclave = yes;
        self
    }

    /// Attaches a hook-specific detail string.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

/// A callback attached to a hook point.
pub type HookHandler = Arc<dyn Fn(&HookEvent) + Send + Sync>;

/// The table of hook attachments: which handlers run at which hook point.
///
/// Attaching is cheap and detaching is supported so the exporters can be
/// stopped (the "Monitoring OFF" configurations of §6.3 detach everything).
#[derive(Clone, Default)]
pub struct HookRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    next_id: u64,
    handlers: HashMap<HookPoint, Vec<(u64, HookHandler)>>,
    fired: HashMap<HookPoint, u64>,
}

/// Identifier of one attachment, used for detaching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttachmentId(u64);

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `handler` to `hook` and returns an id usable for detaching.
    pub fn attach(&self, hook: HookPoint, handler: HookHandler) -> AttachmentId {
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.handlers.entry(hook).or_default().push((id, handler));
        AttachmentId(id)
    }

    /// Detaches a previously attached handler.  Returns `true` when found.
    pub fn detach(&self, id: AttachmentId) -> bool {
        let mut inner = self.inner.write();
        let mut found = false;
        for handlers in inner.handlers.values_mut() {
            let before = handlers.len();
            handlers.retain(|(hid, _)| *hid != id.0);
            if handlers.len() != before {
                found = true;
            }
        }
        found
    }

    /// Detaches every handler (monitoring fully off).
    pub fn detach_all(&self) {
        self.inner.write().handlers.clear();
    }

    /// Number of handlers currently attached to `hook`.
    pub fn attached_count(&self, hook: &HookPoint) -> usize {
        self.inner.read().handlers.get(hook).map(|h| h.len()).unwrap_or(0)
    }

    /// Total number of attached handlers.
    pub fn total_attached(&self) -> usize {
        self.inner.read().handlers.values().map(Vec::len).sum()
    }

    /// Fires `hook` with `event`, invoking every attached handler.  Returns
    /// the number of handlers invoked (0 when nothing is attached — firing an
    /// unobserved hook is free, which is what keeps the "Monitoring OFF"
    /// baseline from paying instrumentation costs).
    pub fn fire(&self, hook: &HookPoint, event: &HookEvent) -> usize {
        let handlers: Vec<HookHandler> = {
            let mut inner = self.inner.write();
            *inner.fired.entry(hook.clone()).or_insert(0) += 1;
            match inner.handlers.get(hook) {
                Some(list) => list.iter().map(|(_, h)| Arc::clone(h)).collect(),
                None => Vec::new(),
            }
        };
        for handler in &handlers {
            handler(event);
        }
        handlers.len()
    }

    /// Number of times `hook` has fired since the registry was created.
    pub fn fire_count(&self, hook: &HookPoint) -> u64 {
        self.inner.read().fired.get(hook).copied().unwrap_or(0)
    }
}

impl std::fmt::Debug for HookRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookRegistry").field("attached", &self.total_attached()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hook_names_match_table2() {
        assert_eq!(HookPoint::sys_enter().name(), "tracepoint:raw_syscalls:sys_enter");
        assert_eq!(HookPoint::add_to_page_cache_lru().name(), "kprobe:add_to_page_cache_lru");
        assert_eq!(
            HookPoint::PerfEvent(PerfEventKind::HwCacheMisses).name(),
            "perf_event:PERF_COUNT_HW_CACHE_MISSES"
        );
        assert_eq!(
            HookPoint::PerfEvent(PerfEventKind::SwContextSwitches).name(),
            "perf_event:PERF_COUNT_SW_CONTEXT_SWITCHES"
        );
    }

    #[test]
    fn attach_fire_detach() {
        let registry = HookRegistry::new();
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let id = registry.attach(
            HookPoint::sys_enter(),
            Arc::new(move |ev| {
                c2.fetch_add(ev.value, Ordering::Relaxed);
            }),
        );
        let event = HookEvent::basic(SimTime::ZERO, Pid::from_raw(1), "redis-server")
            .with_syscall(Syscall::Read)
            .with_value(3);
        assert_eq!(registry.fire(&HookPoint::sys_enter(), &event), 1);
        assert_eq!(count.load(Ordering::Relaxed), 3);
        assert_eq!(registry.fire_count(&HookPoint::sys_enter()), 1);

        assert!(registry.detach(id));
        assert!(!registry.detach(id));
        assert_eq!(registry.fire(&HookPoint::sys_enter(), &event), 0);
        assert_eq!(count.load(Ordering::Relaxed), 3);
        // Fires are still counted even with nothing attached.
        assert_eq!(registry.fire_count(&HookPoint::sys_enter()), 2);
    }

    #[test]
    fn multiple_handlers_all_fire() {
        let registry = HookRegistry::new();
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let c = count.clone();
            registry.attach(
                HookPoint::sched_switch(),
                Arc::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert_eq!(registry.attached_count(&HookPoint::sched_switch()), 3);
        registry.fire(
            &HookPoint::sched_switch(),
            &HookEvent::basic(SimTime::ZERO, Pid::from_raw(7), "nginx"),
        );
        assert_eq!(count.load(Ordering::Relaxed), 3);
        registry.detach_all();
        assert_eq!(registry.total_attached(), 0);
    }

    #[test]
    fn firing_unattached_hook_is_free_and_counted() {
        let registry = HookRegistry::new();
        let ev = HookEvent::basic(SimTime::ZERO, Pid::from_raw(1), "x");
        assert_eq!(registry.fire(&HookPoint::page_fault_user(), &ev), 0);
        assert_eq!(registry.fire_count(&HookPoint::page_fault_user()), 1);
        assert_eq!(registry.fire_count(&HookPoint::page_fault_kernel()), 0);
    }

    #[test]
    fn event_builder_sets_fields() {
        let ev = HookEvent::basic(SimTime::from_secs(1), Pid::from_raw(9), "mongod")
            .with_syscall(Syscall::Futex)
            .with_value(11)
            .from_enclave(true);
        assert_eq!(ev.syscall, Some(Syscall::Futex));
        assert_eq!(ev.value, 11);
        assert!(ev.from_enclave);
        assert_eq!(ev.comm, "mongod");
    }
}
