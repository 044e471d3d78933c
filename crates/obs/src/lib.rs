//! `teemon_obs` — always-on, allocation-free engine self-telemetry.
//!
//! The monitor's pitch is that observability should be cheap enough to leave
//! on; this crate applies the same standard to the engine itself.  Every
//! internal probe is a fixed static slot written with relaxed atomics — no
//! registration, no locks, no allocation on the record path — so the engine
//! can observe its own ingest, storage, query and locking behaviour in every
//! build, not just instrumented ones:
//!
//! * [`probes`] — the probe table, the **one place a metric is declared**:
//!   each row of its `probes!` table gives a family's layer, name, help and
//!   statics (counters, gauges, per-shard slots, [`hist::LogLinearHist`]
//!   latency histograms) and expands to the `pub static`s that `teemon_tsdb`,
//!   `teemon_query` and `teemon_server` record into — directly or through
//!   RAII [`Span`] timers — plus the [`PROBES`] table the one walk below
//!   interprets.  Lock contention probes live in the `parking_lot` shim's
//!   `contention` table and are exported alongside.
//! * [`snapshot::SelfSnapshot`] — [`PROBES`] as metric families, histograms
//!   in their canonical bucketed form, for the engine's own scrape loop:
//!   built once, refreshed in place with zero allocations, so
//!   self-scraping costs the same as any other warm fast-lane target.
//!   [`snapshot::build`] builds the same families afresh by the same walk
//!   (over every layer or one) for text exposition.
//! * [`slow`] — a fixed-capacity slow-query ring fed by the query layer.
//! * [`clock`] — the monotonic clock and [`clock::Stopwatch`] behind every
//!   measured duration (the only place the engine reads the host clock for
//!   self-timing).
//!
//! A scraper holds no target until one is added: the self endpoint is
//! registered under [`SELF_JOB`] by `teemon_tsdb::Scraper::add_self_target`,
//! which `teemon_core`'s `MonitorBuilder` calls in Full mode or when it
//! attaches a server.  Only such a monitor's TSDB holds the
//! `job="teemon_self"` slice the built-in "teemon self" dashboard and alert
//! rules read.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod clock;
pub mod hist;
pub mod probes;
pub mod slow;
pub mod snapshot;

pub use clock::{now_ns, Stopwatch};
pub use hist::LogLinearHist;
pub use probes::{
    Counter, Gauge, Probe, ShardCounters, ShardGauges, Slot, Span, LOCK_FAMILIES, PROBES, SHARDS,
};
pub use slow::{set_threshold_seconds, slow_queries, SlowQuery};
pub use snapshot::SelfSnapshot;

/// The default job label under which the engine scrapes itself.
pub const SELF_JOB: &str = "teemon_self";
