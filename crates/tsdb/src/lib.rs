//! PMAG — the Performance Metrics Aggregation component.
//!
//! The paper implements PMAG with Prometheus (§5.2): a pull-based scraper that
//! collects OpenMetrics documents from every exporter endpoint, stores the
//! samples in a local time-series database grouped into chunks, and answers
//! label-matched range queries with aggregation functions.  This crate is the
//! Rust equivalent:
//!
//! * [`TimeSeriesDb`] — the storage engine: interned series keys, an
//!   inverted label index answering selectors as postings intersections
//!   over name and `=` matchers (`exists` / `!=` are checked per candidate),
//!   series spread over lock shards so scrapers append concurrently, and
//!   chunked append-only storage with retention,
//! * [`chunk_codec`] — Gorilla-style sealed-chunk compression (delta-of-delta
//!   timestamps, XOR-encoded floats): sealed chunks cost a few bytes per
//!   16-byte sample, and one bulk decoder front end (`decode_into`) reads
//!   the blocks a range covers, whole, into the caller's buffer
//!   (`StorageStats::bytes_per_sample` reports the realised ratio),
//! * [`SeriesSnapshot`] — zero-copy reads: selection returns `Arc`-shared
//!   sealed blocks instead of deep-cloned series; a range is decoded in bulk
//!   (`points_in`, `range`) and a point read (`at`) decodes the one chunk it
//!   lands in,
//! * [`Selector`] and the [`query`] module — label matching; selection is
//!   the store's only read (functions, aggregation and arithmetic over the
//!   selected snapshots are `teemon_query`'s TeeQL),
//! * [`wal`] — the optional durability tier: a write-ahead log that commits
//!   each scrape round as one checksummed group in one write, with crash
//!   recovery ([`TimeSeriesDb::open`]), per-shard checkpoints onto
//!   Gorilla-block snapshots and corruption salvage that truncates torn
//!   tails and isolates damaged shards instead of panicking,
//! * [`Scraper`] — the pull loop: scrapes typed [`MetricsEndpoint`]s (the
//!   one scrape contract, re-exported from `teemon_metrics` with
//!   [`ScrapeError`]) on an interval (per-target intervals supported) through one ingest path — a
//!   per-target scrape cache and one batched append a round — attaches
//!   `job`/`instance` labels, records
//!   `up`/`scrape_duration_seconds`/`scrape_samples_scraped` meta-metrics,
//!   and tolerates target failures (the health-checking role the paper
//!   assigns to the monitoring service).
//!
//! The scrape path is typed end to end: exporters hand over
//! [`teemon_metrics::FamilySnapshot`]s and no OpenMetrics text is produced or
//! parsed in process.  The wire format lives at the edges only:
//! [`teemon_metrics::exposition::encode_text`] for external consumers,
//! [`scrape::TextSource`] for external producers.

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

pub mod chunk_codec;
mod head;
mod index;
pub mod query;
pub mod scrape;
pub mod series;
pub mod snapshot;
pub mod storage;
mod symbols;
pub mod wal;

pub use query::{LabelMatch, Selector};
pub use scrape::{
    CardinalityBudgets, ObsEndpoint, PushLane, PushOutcome, RoundSummary, ScrapeOutcome,
    ScrapeTargetConfig, Scraper, TextSource,
};
pub use series::{Sample, SeriesId};
pub use snapshot::{SampleRange, SeriesSnapshot};
pub use storage::{
    BatchOutcome, SeriesHandle, StorageCensus, StorageStats, TimeSeriesDb, TsdbConfig, BATCH_BLOCK,
    SHARD_COUNT, STALE_HEAD_MS,
};
pub use teemon_metrics::{MetricsEndpoint, ScrapeError};
pub use wal::{DurabilityOptions, FsyncMode, WalFile, WalFs};

// The test support crate's scratch directory: a unit test cannot depend on a
// crate that depends on this one, so it includes the file.
#[cfg(test)]
#[path = "../../testkit/src/scratch.rs"]
mod scratch;
