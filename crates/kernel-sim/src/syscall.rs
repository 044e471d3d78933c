//! System call inventory and base costs.
//!
//! The paper's Figure 6 hinges on observing the *mix* of system calls a
//! SCONE-compiled Redis issues: `clock_gettime` and `futex` dominating
//! `read`/`write` indicated the bottleneck that a later SCONE commit fixed by
//! handling `clock_gettime` inside the enclave.  The simulation therefore
//! needs a realistic syscall inventory with stable numbers (used as labels)
//! and per-call base costs (used by the cost model for native execution).

use serde::{Deserialize, Serialize};
use teemon_sim_core::SimDuration;

/// System calls the simulated applications and frameworks issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Syscall {
    Read,
    Write,
    Open,
    Close,
    Mmap,
    Munmap,
    Brk,
    Futex,
    ClockGettime,
    EpollWait,
    EpollCtl,
    Accept,
    Recvfrom,
    Sendto,
    Socket,
    Bind,
    Listen,
    Fsync,
    Nanosleep,
    SchedYield,
    Getpid,
    Gettimeofday,
    Writev,
    Readv,
    Poll,
    Select,
    Fcntl,
    Stat,
    Fstat,
    Clone,
    Exit,
}

impl Syscall {
    /// Canonical lowercase name (label value in exported metrics).
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Open => "open",
            Syscall::Close => "close",
            Syscall::Mmap => "mmap",
            Syscall::Munmap => "munmap",
            Syscall::Brk => "brk",
            Syscall::Futex => "futex",
            Syscall::ClockGettime => "clock_gettime",
            Syscall::EpollWait => "epoll_wait",
            Syscall::EpollCtl => "epoll_ctl",
            Syscall::Accept => "accept",
            Syscall::Recvfrom => "recvfrom",
            Syscall::Sendto => "sendto",
            Syscall::Socket => "socket",
            Syscall::Bind => "bind",
            Syscall::Listen => "listen",
            Syscall::Fsync => "fsync",
            Syscall::Nanosleep => "nanosleep",
            Syscall::SchedYield => "sched_yield",
            Syscall::Getpid => "getpid",
            Syscall::Gettimeofday => "gettimeofday",
            Syscall::Writev => "writev",
            Syscall::Readv => "readv",
            Syscall::Poll => "poll",
            Syscall::Select => "select",
            Syscall::Fcntl => "fcntl",
            Syscall::Stat => "stat",
            Syscall::Fstat => "fstat",
            Syscall::Clone => "clone",
            Syscall::Exit => "exit",
        }
    }

    /// Base in-kernel service time of the call when issued natively (without
    /// SGX transition overhead).  Calibrated to rough Linux magnitudes: a
    /// `clock_gettime` through the vDSO is tens of nanoseconds, socket I/O is
    /// a couple of microseconds, `fsync` is dominated by the device.
    pub(crate) fn base_cost(&self) -> SimDuration {
        let nanos = match self {
            Syscall::ClockGettime | Syscall::Gettimeofday | Syscall::Getpid => 40,
            Syscall::SchedYield => 300,
            Syscall::Futex => 800,
            Syscall::Brk | Syscall::Fcntl | Syscall::Stat | Syscall::Fstat => 500,
            Syscall::Read | Syscall::Write | Syscall::Readv | Syscall::Writev => 1_200,
            Syscall::Recvfrom | Syscall::Sendto => 1_300,
            Syscall::EpollWait | Syscall::Poll | Syscall::Select => 1_000,
            Syscall::EpollCtl => 700,
            Syscall::Accept | Syscall::Socket | Syscall::Bind | Syscall::Listen => 2_500,
            Syscall::Open | Syscall::Close => 1_500,
            Syscall::Mmap | Syscall::Munmap => 2_000,
            Syscall::Fsync => 50_000,
            Syscall::Nanosleep => 1_000,
            Syscall::Clone => 30_000,
            Syscall::Exit => 5_000,
        };
        SimDuration::from_nanos(nanos)
    }
}

impl std::fmt::Display for Syscall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_gettime_is_cheap_fsync_is_expensive() {
        assert!(Syscall::ClockGettime.base_cost() < Syscall::Read.base_cost());
        assert!(Syscall::Fsync.base_cost() > Syscall::Write.base_cost().mul(10));
    }
}
