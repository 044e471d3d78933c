//! Deterministic simulation substrate shared by every TEEMon subsystem model.
//!
//! The original TEEMon evaluation runs on real SGX hardware, a real Linux
//! kernel and a real cluster.  None of those are available in this
//! reproduction, so the SGX driver, the kernel, the applications and the
//! cluster are all *simulated*.  This crate provides the shared substrate for
//! those simulations:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`SimClock`] — a shareable, monotonically advancing virtual clock,
//! * [`DetRng`] — a seedable deterministic random number generator with the
//!   distribution helpers used by workload generators and cost models.
//!
//! Everything is deterministic: two runs with the same seed produce the same
//! metric streams, which is what makes the reproduced figures stable.

#![warn(missing_docs)]

pub mod clock;
pub mod rng;
pub mod time;

pub use clock::SimClock;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
