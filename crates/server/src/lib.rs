//! The HTTP serving edge of the TEEMon reproduction.
//!
//! The paper's monitoring stack is consumed over HTTP: exporters expose
//! `/metrics`, Prometheus answers `/api/v1/query*`, Grafana renders on top
//! (§5).  This crate is that edge for the Rust engine — a dependency-free
//! HTTP/1.1 server over `std::net` exposing
//!
//! * **remote-write ingest** (`POST /api/v1/write`): exposition-text
//!   batches fed into the scraper fast lane through a per-connection
//!   [`teemon_tsdb::PushLane`],
//! * **TeeQL queries** (`GET /api/v1/query`, `GET /api/v1/query_range`):
//!   Prometheus-shaped JSON via [`teemon_query::json`],
//! * **text exposition** (`GET /metrics`): the local database federated
//!   outward, plus `GET /self/metrics` with the edge's own probes.
//!
//! The headline is the **resilience middleware stack** wrapped around every
//! connection (see [`server`] for the layer diagram): panic isolation,
//! per-client rate limiting, slow-loris deadlines, load shedding before
//! parsing, size limits, typed rejection of malformed bytes, and graceful
//! drain with a final WAL flush.  Every layer records into
//! [`teemon_obs::probes`] (`teemon_http_*`), so the edge is observable
//! through itself — exported on `/self/metrics`, stored by a monitor's
//! `teemon_self` target and alertable via
//! `teemon_query::self_observe_alerts`.

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

pub mod client;
pub mod conn;
pub mod handlers;
pub mod http;
pub mod middleware;
pub mod server;

pub use client::{http_get, http_post, HttpResponse};
pub use conn::{Conn, MockConn, MockStep};
pub use http::{percent_encode, HttpLimits, ReadError, Request, Response};
pub use middleware::{RateDecision, RateLimiter};
pub use server::{Server, ServerConfig, ServerCore};
