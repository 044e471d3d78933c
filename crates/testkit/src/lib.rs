//! Test support for the workspace's suites, never a build dependency: every
//! crate that uses it lists it under `[dev-dependencies]`, and CI fails the
//! build if one lists it under `[dependencies]`.  The engine keeps the seam
//! ([`teemon_tsdb::WalFs`] / [`teemon_tsdb::WalFile`]); the doubles plugged
//! into it and the oracles that judge it live here.
//!
//! * [`FaultFs`], [`CrashModel`], [`FailpointWriter`] — the in-memory
//!   filesystem the durability suites crash, corrupt or make fail, and a
//!   wrapper that injects failures into any [`teemon_tsdb::WalFile`];
//! * [`scrape`] — the per-sample reference scraper, the scripted endpoint
//!   and the state fingerprint; [`workload`] — the oracles' generated
//!   workload; [`selection`] — the selector model (tsdb's unit tests include
//!   it by path); [`codec_inputs`] — the chunk codec's sample generator;
//! * [`alloc`] — the counting allocator; [`mangle`] — the byte mangler;
//!   [`ScratchDir`] — a real directory, removed on drop.

// `selection` names these through `super::`, as it does where the index's
// unit tests include it.
use teemon_tsdb::{LabelMatch, Selector};

pub mod alloc;
pub mod codec_inputs;
mod fault;
pub mod mangle;
pub mod scrape;
mod scratch;
pub mod selection;
pub mod workload;

pub use fault::{CrashModel, FailpointWriter, FaultFs};
pub use scratch::ScratchDir;
