//! Process and thread bookkeeping for the simulated host.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use teemon_sim_core::SimTime;

/// A process identifier on the simulated host.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Pid(u32);

impl Pid {
    /// Constructs a PID from its raw value.
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// Raw numeric value.
    pub const fn as_u32(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Classification of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessKind {
    /// Ordinary user-space process.
    User,
    /// User-space process whose main work runs inside an SGX enclave.
    Enclave,
    /// Kernel thread (e.g. `ksgxswapd`, `kswapd0`).
    KernelThread,
}

/// Metadata about a simulated process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessInfo {
    /// The process id.
    pub pid: Pid,
    /// Command name (what `/proc/<pid>/comm` would show).
    pub name: String,
    /// Process classification.
    pub kind: ProcessKind,
    /// Number of threads.
    pub threads: u32,
    /// Creation time.
    pub started_at: SimTime,
    /// Whether the process is still alive.
    pub alive: bool,
}

/// The host's process table.  Clones share state.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    inner: Arc<RwLock<ProcessTableInner>>,
}

#[derive(Debug, Default)]
struct ProcessTableInner {
    next_pid: u32,
    processes: BTreeMap<Pid, ProcessInfo>,
}

impl ProcessTable {
    /// Creates an empty process table; PIDs start at 100 to leave room for
    /// "well known" kernel threads registered explicitly.
    pub(crate) fn new() -> Self {
        let table = Self::default();
        table.inner.write().next_pid = 100;
        table
    }

    /// Registers a new process and returns its PID.
    pub(crate) fn spawn(
        &self,
        name: impl Into<String>,
        kind: ProcessKind,
        threads: u32,
        now: SimTime,
    ) -> Pid {
        let mut inner = self.inner.write();
        let pid = Pid::from_raw(inner.next_pid);
        inner.next_pid += 1;
        inner.processes.insert(
            pid,
            ProcessInfo {
                pid,
                name: name.into(),
                kind,
                threads: threads.max(1),
                started_at: now,
                alive: true,
            },
        );
        pid
    }

    /// Marks a process as exited.  Returns `false` for unknown PIDs.
    pub fn exit(&self, pid: Pid) -> bool {
        match self.inner.write().processes.get_mut(&pid) {
            Some(p) => {
                p.alive = false;
                true
            }
            None => false,
        }
    }

    /// Looks up process metadata.
    pub fn get(&self, pid: Pid) -> Option<ProcessInfo> {
        self.inner.read().processes.get(&pid).cloned()
    }

    /// Total number of processes ever registered.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().processes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_increasing_pids() {
        let table = ProcessTable::new();
        let a = table.spawn("redis-server", ProcessKind::Enclave, 8, SimTime::ZERO);
        let b = table.spawn("nginx", ProcessKind::User, 4, SimTime::from_secs(1));
        assert!(b > a);
        assert_eq!(table.get(a).unwrap().name, "redis-server");
        assert_eq!(table.get(b).unwrap().threads, 4);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn exit_marks_dead_but_keeps_record() {
        let table = ProcessTable::new();
        let pid = table.spawn("memtier", ProcessKind::User, 8, SimTime::ZERO);
        assert!(table.exit(pid));
        assert!(!table.get(pid).unwrap().alive);
        assert!(!table.exit(Pid::from_raw(9999)));
    }

    #[test]
    fn threads_are_at_least_one() {
        let table = ProcessTable::new();
        let pid = table.spawn("ksgxswapd", ProcessKind::KernelThread, 0, SimTime::ZERO);
        assert_eq!(table.get(pid).unwrap().threads, 1);
    }

    #[test]
    fn clones_share_state() {
        let table = ProcessTable::new();
        let clone = table.clone();
        clone.spawn("p", ProcessKind::User, 1, SimTime::ZERO);
        assert_eq!(table.len(), 1);
    }
}
