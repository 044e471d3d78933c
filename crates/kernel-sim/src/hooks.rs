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

use crate::process::Pid;
use crate::syscall::Syscall;

/// Hardware / software perf event kinds used by the SME.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum PerfEventKind {
    /// `PERF_COUNT_HW_CACHE_MISSES`
    HwCacheMisses,
    /// `PERF_COUNT_HW_CACHE_REFERENCES`
    HwCacheReferences,
    /// `PERF_COUNT_SW_CONTEXT_SWITCHES`
    SwContextSwitches,
    /// `PERF_COUNT_SW_PAGE_FAULTS`
    SwPageFaults,
}

/// A kernel instrumentation point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum HookPoint {
    /// A kernel tracepoint such as `raw_syscalls:sys_enter`.
    Tracepoint(String),
    /// A kprobe on a kernel function such as `add_to_page_cache_lru`.
    Kprobe(String),
    /// A perf hardware/software counter event.
    PerfEvent(PerfEventKind),
}

impl HookPoint {
    /// `raw_syscalls:sys_enter`
    pub(crate) fn sys_enter() -> Self {
        HookPoint::Tracepoint("raw_syscalls:sys_enter".into())
    }
    /// `raw_syscalls:sys_exit`
    pub(crate) fn sys_exit() -> Self {
        HookPoint::Tracepoint("raw_syscalls:sys_exit".into())
    }
    /// `sched:sched_switch`
    pub(crate) fn sched_switch() -> Self {
        HookPoint::Tracepoint("sched:sched_switch".into())
    }
    /// `exceptions:page_fault_user`
    pub(crate) fn page_fault_user() -> Self {
        HookPoint::Tracepoint("exceptions:page_fault_user".into())
    }
    /// `exceptions:page_fault_kernel`
    pub(crate) fn page_fault_kernel() -> Self {
        HookPoint::Tracepoint("exceptions:page_fault_kernel".into())
    }
    /// Kprobe on `add_to_page_cache_lru`.
    pub(crate) fn add_to_page_cache_lru() -> Self {
        HookPoint::Kprobe("add_to_page_cache_lru".into())
    }
    /// Kprobe on `mark_page_accessed`.
    pub(crate) fn mark_page_accessed() -> Self {
        HookPoint::Kprobe("mark_page_accessed".into())
    }
    /// Kprobe on `account_page_dirtied`.
    pub(crate) fn account_page_dirtied() -> Self {
        HookPoint::Kprobe("account_page_dirtied".into())
    }
    /// Kprobe on `mark_buffer_dirty`.
    pub(crate) fn mark_buffer_dirty() -> Self {
        HookPoint::Kprobe("mark_buffer_dirty".into())
    }
}

/// The payload delivered to programs when a hook fires.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HookEvent {
    /// Process the event is attributed to (0 for pure kernel context).
    pub pid: Pid,
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
    /// Creates a minimal event for `pid` with `value == 1`.
    pub(crate) fn basic(pid: Pid) -> Self {
        Self { pid, syscall: None, value: 1, from_enclave: false, detail: None }
    }

    /// Sets the syscall field.
    #[must_use]
    pub(crate) fn with_syscall(mut self, syscall: Syscall) -> Self {
        self.syscall = Some(syscall);
        self
    }

    /// Sets the value field.
    #[must_use]
    pub(crate) fn with_value(mut self, value: u64) -> Self {
        self.value = value;
        self
    }

    /// Marks the event as originating from enclave execution.
    #[must_use]
    pub(crate) fn in_enclave(mut self, yes: bool) -> Self {
        self.from_enclave = yes;
        self
    }

    /// Attaches a hook-specific detail string.
    #[must_use]
    pub(crate) fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

/// A callback attached to a hook point.
pub(crate) type HookHandler = Arc<dyn Fn(&HookEvent) + Send + Sync>;

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
}

/// Identifier of one attachment, used for detaching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AttachmentId(u64);

impl HookRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Attaches `handler` to `hook` and returns an id usable for detaching.
    pub(crate) fn attach(&self, hook: HookPoint, handler: HookHandler) -> AttachmentId {
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.handlers.entry(hook).or_default().push((id, handler));
        AttachmentId(id)
    }

    /// Detaches a previously attached handler.  Returns `true` when found.
    pub(crate) fn detach(&self, id: AttachmentId) -> bool {
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

    /// Total number of attached handlers.
    pub fn total_attached(&self) -> usize {
        self.inner.read().handlers.values().map(Vec::len).sum()
    }

    /// Fires `hook` with `event`, invoking every attached handler.  Returns
    /// the number of handlers invoked (0 when nothing is attached — firing an
    /// unobserved hook is free, which is what keeps the "Monitoring OFF"
    /// baseline from paying instrumentation costs).
    pub(crate) fn fire(&self, hook: &HookPoint, event: &HookEvent) -> usize {
        let handlers: Vec<HookHandler> = match self.inner.read().handlers.get(hook) {
            Some(list) => list.iter().map(|(_, h)| Arc::clone(h)).collect(),
            None => Vec::new(),
        };
        for handler in &handlers {
            handler(event);
        }
        handlers.len()
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
        let tracepoint = |name: &str| HookPoint::Tracepoint(name.into());
        let kprobe = |name: &str| HookPoint::Kprobe(name.into());
        assert_eq!(HookPoint::sys_enter(), tracepoint("raw_syscalls:sys_enter"));
        assert_eq!(HookPoint::sys_exit(), tracepoint("raw_syscalls:sys_exit"));
        assert_eq!(HookPoint::sched_switch(), tracepoint("sched:sched_switch"));
        assert_eq!(HookPoint::page_fault_user(), tracepoint("exceptions:page_fault_user"));
        assert_eq!(HookPoint::page_fault_kernel(), tracepoint("exceptions:page_fault_kernel"));
        assert_eq!(HookPoint::add_to_page_cache_lru(), kprobe("add_to_page_cache_lru"));
        assert_eq!(HookPoint::mark_page_accessed(), kprobe("mark_page_accessed"));
        assert_eq!(HookPoint::account_page_dirtied(), kprobe("account_page_dirtied"));
        assert_eq!(HookPoint::mark_buffer_dirty(), kprobe("mark_buffer_dirty"));
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
        let event = HookEvent::basic(Pid::from_raw(1)).with_syscall(Syscall::Read).with_value(3);
        assert_eq!(registry.fire(&HookPoint::sys_enter(), &event), 1);
        assert_eq!(count.load(Ordering::Relaxed), 3);

        assert!(registry.detach(id));
        assert!(!registry.detach(id));
        assert_eq!(registry.fire(&HookPoint::sys_enter(), &event), 0);
        assert_eq!(count.load(Ordering::Relaxed), 3);
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
        assert_eq!(registry.total_attached(), 3);
        let invoked =
            registry.fire(&HookPoint::sched_switch(), &HookEvent::basic(Pid::from_raw(7)));
        assert_eq!(invoked, 3);
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn firing_unattached_hook_is_free_and_counted() {
        let registry = HookRegistry::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        registry.attach(
            HookPoint::page_fault_kernel(),
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let ev = HookEvent::basic(Pid::from_raw(1));
        // Nothing observes user faults: firing one invokes no handler.
        assert_eq!(registry.fire(&HookPoint::page_fault_user(), &ev), 0);
        assert_eq!(count.load(Ordering::Relaxed), 0);
        // The observed hook's handler counts every fire.
        assert_eq!(registry.fire(&HookPoint::page_fault_kernel(), &ev), 1);
        assert_eq!(registry.fire(&HookPoint::page_fault_kernel(), &ev), 1);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn event_builder_sets_fields() {
        let ev = HookEvent::basic(Pid::from_raw(9))
            .with_syscall(Syscall::Futex)
            .with_value(11)
            .in_enclave(true);
        assert_eq!(ev.syscall, Some(Syscall::Futex));
        assert_eq!(ev.value, 11);
        assert!(ev.from_enclave);
    }
}
