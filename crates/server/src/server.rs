//! The serving loop: accept → shed → limit → deadline-read → panic-shielded
//! handler → write, plus graceful drain.
//!
//! The layer order is the resilience contract:
//!
//! ```text
//! accept
//!   └─ in-flight gate ──── full → 503 before a single request byte is
//!   │                      parsed (overload costs O(1) per connection)
//!   └─ deadline reader ──── slow-loris → 408 · torn/garbage → 400 ·
//!   │                       oversized → 413 (all typed, never a panic)
//!   └─ per-client limiter ─ empty bucket → 429 + Retry-After, close
//!   └─ panic shield ─────── handler panic → 500, connection closed,
//!   │                       server keeps serving
//!   └─ response writer
//! ```
//!
//! Shutdown stops accepting, lets in-flight connections drain under a
//! deadline, then flushes the WAL so remote-written samples are durable.
//!
//! [`ServerCore`] is the transport-free heart of all of this: the tests
//! drive it directly with [`MockConn`](crate::conn::MockConn)s, and
//! [`Server`] is the thin TCP skin over it.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use teemon_obs::{probes, Stopwatch};
use teemon_tsdb::scrape::PushLane;
use teemon_tsdb::{CardinalityBudgets, ScrapeTargetConfig, TimeSeriesDb};

use crate::conn::{Conn, TcpConn};
use crate::handlers::{route, HandlerCtx};
use crate::http::{read_request, HttpLimits, ReadError, Response};
use crate::middleware::{InflightGate, RateDecision, RateLimiter};

/// Tuning knobs of the serving edge.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; beyond this the acceptor
    /// sheds with 503.
    pub max_inflight: usize,
    /// Sustained per-client request rate.
    pub rate_per_sec: f64,
    /// Per-client burst allowance.
    pub burst: f64,
    /// Request read limits and deadlines.
    pub limits: HttpLimits,
    /// How long [`Server::shutdown`] waits for in-flight connections.
    pub drain_timeout_ms: u64,
    /// Enables `GET /panic` for the resilience tests.
    pub panic_route: bool,
    /// Per-request series cap on `/api/v1/write` (`None` = unlimited): a
    /// body with more distinct series than this is refused whole with a
    /// typed 429 — the cardinality defense at the request boundary.
    pub write_series_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            rate_per_sec: 50.0,
            burst: 100.0,
            limits: HttpLimits::default(),
            drain_timeout_ms: 5_000,
            panic_route: false,
            write_series_budget: None,
        }
    }
}

/// The transport-independent serving core: middleware state plus the
/// per-connection loop.  [`Server`] drives it from TCP; tests drive it from
/// [`MockConn`](crate::conn::MockConn)s.
pub struct ServerCore {
    config: ServerConfig,
    db: TimeSeriesDb,
    limiter: RateLimiter,
    gate: InflightGate,
    shutdown: AtomicBool,
    epoch: Stopwatch,
    budgets: Option<Arc<CardinalityBudgets>>,
}

impl ServerCore {
    /// Builds the middleware state for `config` over `db`.
    pub fn new(config: ServerConfig, db: TimeSeriesDb) -> Self {
        let limiter = RateLimiter::new(config.rate_per_sec, config.burst);
        let gate = InflightGate::new(config.max_inflight);
        Self {
            config,
            db,
            limiter,
            gate,
            shutdown: AtomicBool::new(false),
            epoch: Stopwatch::start(),
            budgets: None,
        }
    }

    /// Draws every connection's push-lane admissions from `budgets`'s shared
    /// per-job pool (the same pool a [`teemon_tsdb::scrape::Scraper`] can
    /// share), so remote writers and scrape targets compete for one
    /// cardinality budget.
    #[must_use]
    pub fn with_budgets(mut self, budgets: Arc<CardinalityBudgets>) -> Self {
        self.budgets = Some(budgets);
        self
    }

    /// The database this edge feeds and queries.
    pub fn db(&self) -> &TimeSeriesDb {
        &self.db
    }

    /// The server's monotonic epoch (stamps connection clocks).
    pub(crate) fn epoch(&self) -> Stopwatch {
        self.epoch
    }

    /// Flips the shutdown flag: the accept loop stops admitting and serving
    /// loops close their connection after the current request.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves one connection to completion: the keep-alive loop with every
    /// middleware layer applied.  Never panics and never returns an error —
    /// all failure modes end in a best-effort response and a closed
    /// connection.
    pub fn serve_connection(&self, conn: &mut dyn Conn) {
        probes::HTTP_CONNECTIONS.inc();
        let mut lane = PushLane::new(
            self.db.clone(),
            &ScrapeTargetConfig::new("remote_write", conn.peer().to_string()),
        );
        if let Some(budgets) = &self.budgets {
            lane = lane.with_budgets(Arc::clone(budgets));
        }
        let mut carry: Vec<u8> = Vec::new();
        loop {
            if self.is_shutting_down() {
                break;
            }

            let request = match read_request(conn, &self.config.limits, &mut carry) {
                Ok(Some(request)) => request,
                Ok(None) => break, // clean keep-alive EOF
                Err(error) => {
                    let (probe, status, body) = match error {
                        ReadError::Timeout { phase } => (
                            &probes::HTTP_SLOW_CLIENTS,
                            408,
                            format!("timed out reading request {phase}\n"),
                        ),
                        ReadError::Malformed(reason) => {
                            (&probes::HTTP_MALFORMED, 400, format!("malformed request: {reason}\n"))
                        }
                        ReadError::Oversized { what, limit } => {
                            let body = format!("request {what} over the {limit}-byte limit\n");
                            (&probes::HTTP_OVERSIZED, 413, body)
                        }
                        ReadError::Io(_) => break, // transport gone; nothing to say
                    };
                    probe.inc();
                    let resp = Response::text(status, body);
                    count_status(resp.status);
                    let _ = resp.write_to(conn, true);
                    break;
                }
            };

            probes::HTTP_REQUESTS.inc();

            // One token per parsed request.  Charging *after* the read keeps
            // keep-alive EOF probes free; the parse cost an abusive client
            // can inflict first is already bounded by the size limits and
            // deadlines above.
            if let RateDecision::Limited { retry_after_secs } =
                self.limiter.check(conn.peer(), conn.now_ms())
            {
                probes::HTTP_RATE_LIMITED.inc();
                let resp = Response::text(429, "rate limit exceeded\n")
                    .with_header("Retry-After", retry_after_secs.to_string());
                count_status(resp.status);
                let _ = resp.write_to(conn, true);
                break;
            }

            let watch = Stopwatch::start();
            let now_ms = conn.now_ms();
            let shield = catch_unwind(AssertUnwindSafe(|| {
                route(
                    &request,
                    &mut HandlerCtx {
                        db: &self.db,
                        lane: &mut lane,
                        now_ms,
                        panic_route: self.config.panic_route,
                        write_series_budget: self.config.write_series_budget,
                    },
                )
            }));
            let (response, close) = match shield {
                Ok(response) => {
                    let close = request.wants_close || self.is_shutting_down();
                    (response, close)
                }
                Err(_) => {
                    // The handler panicked.  The shield converts it into a
                    // 500 and closes this connection; the server, the
                    // database and every other connection keep running.
                    probes::HTTP_PANICS.inc();
                    (Response::text(500, "internal error: handler panicked\n"), true)
                }
            };
            count_status(response.status);
            probes::HTTP_REQUEST_NS.record_ns(watch.elapsed_ns());
            if self.is_shutting_down() {
                probes::HTTP_DRAINED.inc();
            }
            if response.write_to(conn, close).is_err() || close {
                break;
            }
        }
    }
}

/// Bumps the per-class response counter.
fn count_status(status: u16) {
    match status {
        200..=299 => probes::HTTP_RESPONSES_2XX.inc(),
        400..=499 => probes::HTTP_RESPONSES_4XX.inc(),
        500..=599 => probes::HTTP_RESPONSES_5XX.inc(),
        _ => {}
    }
}

/// The TCP serving edge: a listener, an acceptor thread and one worker
/// thread per admitted connection, all over a shared [`ServerCore`].
pub struct Server {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(addr: &str, config: ServerConfig, db: TimeSeriesDb) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::new(ServerCore::new(config, db));
        let loop_core = Arc::clone(&core);
        let acceptor = thread::Builder::new()
            .name("teemon-http-accept".to_string())
            .spawn(move || accept_loop(&listener, &loop_core))?;
        Ok(Self { addr: local, core, acceptor: Some(acceptor) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving core.
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Graceful shutdown: stop accepting, drain in-flight connections under
    /// the configured deadline, then flush the WAL so remote-written
    /// samples are durable.  Returns `true` when the drain completed before
    /// the deadline (connections still running after it are abandoned — the
    /// process may exit under them).
    pub fn shutdown(mut self) -> bool {
        self.core.begin_shutdown();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let deadline = Stopwatch::start();
        let budget_ns = self.core.config.drain_timeout_ms.saturating_mul(1_000_000);
        while self.core.gate.in_flight() > 0 && deadline.elapsed_ns() < budget_ns {
            thread::sleep(Duration::from_millis(2));
        }
        let drained = self.core.gate.in_flight() == 0;
        self.core.db.wal_flush();
        drained
    }
}

/// The accept loop: shed at the gate, otherwise hand the stream to a worker
/// thread owning its permit.
fn accept_loop(listener: &TcpListener, core: &Arc<ServerCore>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if core.is_shutting_down() {
                    return;
                }
                continue;
            }
        };
        if core.is_shutting_down() {
            return;
        }
        match core.gate.try_acquire() {
            None => shed(stream),
            Some(permit) => {
                let worker_core = Arc::clone(core);
                let epoch = core.epoch();
                let spawned = thread::Builder::new().name("teemon-http-worker".to_string()).spawn(
                    move || {
                        let mut conn = TcpConn::new(stream, epoch);
                        worker_core.serve_connection(&mut conn);
                        drop(permit);
                    },
                );
                // Spawn failure (thread exhaustion) degrades to a shed; the
                // permit releases on drop.
                if spawned.is_err() {
                    probes::HTTP_SHED.inc();
                }
            }
        }
    }
}

/// Refuses a connection with an O(1) 503 — no parsing, no worker thread.
fn shed(mut stream: TcpStream) {
    use std::io::Read;
    probes::HTTP_SHED.inc();
    count_status(503);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    // One bounded read to swallow the in-flight request bytes: closing with
    // unread inbound data makes the kernel RST the connection, which would
    // destroy the 503 before the client reads it.  The bytes are discarded
    // unparsed — overload still costs O(1).
    let mut sink = [0u8; 1024];
    let _ = stream.read(&mut sink);
    let _ = stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::MockConn;

    #[test]
    fn core_serves_a_request_from_a_mock_connection() {
        let core = ServerCore::new(ServerConfig::default(), TimeSeriesDb::new());
        let mut conn = MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
        core.serve_connection(&mut conn);
        assert!(conn.written_text().starts_with("HTTP/1.1 200 OK"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let core = ServerCore::new(ServerConfig::default(), TimeSeriesDb::new());
        let mut conn = MockConn::with_bytes(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec(),
        );
        core.serve_connection(&mut conn);
        let text = conn.written_text();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    }

    #[test]
    fn shutdown_flag_closes_before_reading_another_request() {
        let core = ServerCore::new(ServerConfig::default(), TimeSeriesDb::new());
        core.begin_shutdown();
        let mut conn = MockConn::with_bytes(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
        core.serve_connection(&mut conn);
        assert!(conn.written().is_empty(), "no request is read once draining");
    }
}
