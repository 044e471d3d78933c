//! The `--trace 1` run: a short untraced window for the client-side numbers,
//! then the workload's pipeline driven **by hand**, single-threaded, with a
//! span around every call into a layer.
//!
//! Layers are measured from outside, by timing calls into public functions.
//! For every block of operations the whole stage that was decomposed also
//! runs — `ServerCore::serve_connection` over an in-memory connection (on a
//! twin store when the operations write), `QueryEngine::range_query`, and for
//! the pull path `Scraper::scrape_round` itself — and parts are reconciled
//! with wholes; the difference is printed as the `*.unattributed` lines.
//! Operations alternate between a recording and a disabled tracer, which
//! gives `bench.trace_overhead_pct`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use teemon_metrics::exposition::{parse_families_bounded, ParseLimits};
use teemon_obs::probes;
use teemon_query::{json, stream, QueryEngine};
use teemon_server::http::read_request;
use teemon_server::{Conn, HttpLimits, MockConn, RateLimiter, Response, ServerCore};
use teemon_tsdb::{PushLane, ScrapeTargetConfig, SeriesHandle, TimeSeriesDb};

use crate::gen::{DashboardData, PANEL_NAMES, TICK_MS};
use crate::report::{Outcome, LAYER_SCALARS, SPANS};
use crate::rig::{
    build_scraper, due, open_config, open_db, Kind, Rig, Spec, Stop, SERIES_PER_TARGET, TARGETS,
};
use crate::stats::{latencies, percentile};
use crate::trace::Tracer;
use crate::untraced::{account, reconcile_and_restart, set_up, Counters};

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}
use crate::util::{dir_bytes, median_f64, Rng, ScratchDir};

/// Parts may differ from the whole stage by this share of the whole.
const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

/// An in-memory keep-alive connection that hands `serve_connection` one
/// request at a time and times each from its first byte read to the moment
/// the server comes back for the next one.
struct ScriptConn<'a> {
    requests: &'a [Item],
    next: usize,
    pos: usize,
    started: Option<Instant>,
    served_ns: Vec<u64>,
    non_200: u64,
    expect_head: bool,
    /// Flushed between requests (outside the timing), as client 0 does, with
    /// a retention pass every `retention_every` requests served.
    flush: Option<&'a TimeSeriesDb>,
    retention_every: u64,
    served_before: u64,
    peer: String,
}

impl<'a> ScriptConn<'a> {
    fn new(requests: &'a [Item], flush: Option<&'a TimeSeriesDb>, peer: String) -> Self {
        Self {
            retention_every: 0,
            served_before: 0,
            requests,
            next: 0,
            pos: 0,
            started: None,
            served_ns: Vec::with_capacity(requests.len()),
            non_200: 0,
            expect_head: false,
            flush,
            peer,
        }
    }
}

impl Conn for ScriptConn<'_> {
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let consumed = self.next == 0 || self.pos == self.requests[self.next - 1].request.len();
        if consumed {
            if let Some(started) = self.started.take() {
                self.served_ns.push(started.elapsed().as_nanos() as u64);
                if let Some(db) = self.flush {
                    db.wal_flush();
                    let served = self.served_before + self.served_ns.len() as u64;
                    if due(served, self.retention_every) {
                        db.apply_retention();
                    }
                }
            }
            if self.next == self.requests.len() {
                return Ok(0);
            }
            self.next += 1;
            self.pos = 0;
            self.expect_head = true;
            self.started = Some(Instant::now());
        }
        let rest = &self.requests[self.next - 1].request[self.pos..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        if std::mem::take(&mut self.expect_head) && !buf.starts_with(b"HTTP/1.1 200") {
            self.non_200 += 1;
        }
        Ok(())
    }

    fn set_read_timeout_ms(&mut self, _timeout_ms: Option<u64>) -> io::Result<()> {
        Ok(())
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    fn now_ms(&self) -> u64 {
        0
    }
}

/// One request of a traced block.
struct Item {
    request: Vec<u8>,
    /// `Some` for a panel GET: (panel, expression, start, end, step).
    query: Option<(usize, String, u64, u64, u64)>,
    /// Samples a POST carries.
    samples: u64,
}

/// The serving edge's stages, called one by one.
struct Hand<'a> {
    db: &'a TimeSeriesDb,
    lane: PushLane,
    limiter: RateLimiter,
    limits: HttpLimits,
}

/// Totals the traced pass accumulates beside the spans.
#[derive(Default)]
struct Totals {
    ops: u64,
    /// By-hand time of each operation, by class (0: POST or round, 1–4:
    /// panel P1–P4) and by whether the tracer was recording (1) or not (0).
    hand_ns: [[Vec<u64>; 2]; 5],
    /// Whole-stage time over the recorded blocks (the parts are the spans).
    serve_ns: u64,
    engine_ns: u64,
    /// Per recorded block: (whole − parts) ÷ whole, in percent.
    serve_gap_pct: Vec<f64>,
    engine_gap_pct: Vec<f64>,
    round_gap_pct: Vec<f64>,
    served_ns: Vec<u64>,
    /// `serve_connection` time of the class `transport.residual` compares.
    served_class_ns: Vec<u64>,
    samples_decoded: u64,
    points: u64,
    volatile_round_ns: Vec<u64>,
}

/// The spans `serve_connection` runs as one stage, and `range_query` as one.
const ENGINE_PARTS: [&str; 3] = ["query.parser.parse", "query.stream.plan", "query.stream.run"];
const SERVE_PARTS: [&str; 10] = [
    "server.http.read_request",
    "server.middleware.limiter_check",
    "metrics.exposition.parse",
    "metrics.exposition.free",
    "tsdb.scrape.push",
    "query.parser.parse",
    "query.stream.plan",
    "query.stream.run",
    "query.json.render",
    "server.http.write_response",
];
/// The parts of one scrape round: three from the program's own stage
/// histograms, the flush from the durable twin.
const ROUND_PARTS: [&str; 4] =
    ["tsdb.scrape.collect", "tsdb.scrape.cache_walk", "tsdb.storage.append", "tsdb.wal.flush"];

fn gap_pct(whole_ns: u64, parts_ns: u64) -> f64 {
    pct(whole_ns as f64 - parts_ns as f64, whole_ns as f64)
}

/// The reported gap: consecutive blocks run their two passes in opposite
/// orders, so each pair's mean cancels the second pass's warm-cache
/// advantage; the median over pairs keeps a slowdown that hits one pass of
/// one block (they run one after the other) out of the reported value.
fn median_gap(gaps: &[f64]) -> f64 {
    let mut pairs: Vec<f64> = gaps.chunks_exact(2).map(|pair| (pair[0] + pair[1]) / 2.0).collect();
    if pairs.is_empty() {
        pairs = gaps.to_vec();
    }
    median_f64(&mut pairs)
}

/// The two ways a block of requests is run.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Stage by stage, with spans.
    ByHand,
    /// Through `serve_connection`.
    Whole,
}

fn lane_for(db: &TimeSeriesDb, peer: &str) -> PushLane {
    PushLane::new(db.clone(), &ScrapeTargetConfig::new("remote_write", peer))
}

impl Hand<'_> {
    /// `POST /api/v1/write`, stage by stage, then client 0's flush (and
    /// retention when due).
    fn write(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        item: &Item,
        retention_due: bool,
        rig_evicted: &AtomicU64,
    ) -> Result<(), String> {
        let mut conn = MockConn::with_bytes(item.request.clone());
        let mut carry = Vec::new();
        let root = tr.begin("bench.glue", op);

        let span = tr.begin("server.http.read_request", op);
        let request = read_request(&mut conn, &self.limits, &mut carry);
        tr.end(span);
        let request = request.map_err(|e| format!("{e:?}"))?.ok_or("no request read")?;

        let span = tr.begin("server.middleware.limiter_check", op);
        let decision = self.limiter.check(conn.peer(), conn.now_ms());
        tr.end(span);
        std::hint::black_box(decision);

        let span = tr.begin("metrics.exposition.parse", op);
        let families =
            std::str::from_utf8(&request.body).map_err(|e| e.to_string()).and_then(|text| {
                parse_families_bounded(text, ParseLimits::network()).map_err(|e| e.to_string())
            });
        tr.end(span);
        let families = families?;

        let walk_before = probes::SCRAPE_CACHE_WALK_NS.sum_ns();
        let append_before = probes::SCRAPE_APPEND_NS.sum_ns();
        let span = tr.begin("tsdb.scrape.push", op);
        let pushed = self.lane.push(&families, conn.now_ms());
        tr.end(span);
        tr.child(
            span,
            "tsdb.scrape.cache_walk",
            probes::SCRAPE_CACHE_WALK_NS.sum_ns() - walk_before,
        );
        tr.child(span, "tsdb.storage.append", probes::SCRAPE_APPEND_NS.sum_ns() - append_before);

        // The handler frees the parsed families (an owned `Labels` map per
        // point) and the request before it answers.
        let span = tr.begin("metrics.exposition.free", op);
        drop(families);
        drop(request);
        tr.end(span);

        let span = tr.begin("server.http.write_response", op);
        let ack = format!(
            r#"{{"status":"success","scraped":{},"ingested":{},"overflow":{}}}"#,
            pushed.scraped, pushed.ingested, pushed.overflow
        );
        let written = Response::json(200, ack).write_to(&mut conn, false);
        tr.end(span);
        written.map_err(|e| e.to_string())?;

        let span = tr.begin("tsdb.wal.flush", op);
        let clean = self.db.wal_flush();
        tr.end(span);
        if retention_due {
            let span = tr.begin("tsdb.storage.retention", op);
            let evicted = self.db.apply_retention() as u64;
            tr.end(span);
            rig_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        tr.end(root);
        if pushed.ingested != item.samples || !clean {
            return Err(format!(
                "ingested {} of {}, flush clean: {clean}",
                pushed.ingested, item.samples
            ));
        }
        Ok(())
    }

    /// `GET /api/v1/query_range`, stage by stage.
    fn query(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        item: &Item,
        totals: &mut Totals,
    ) -> Result<(), String> {
        let (_, expr_text, start_ms, end_ms, step_ms) = item.query.as_ref().ok_or("not a query")?;
        let mut conn = MockConn::with_bytes(item.request.clone());
        let mut carry = Vec::new();
        let root = tr.begin("bench.glue", op);

        let span = tr.begin("server.http.read_request", op);
        let request = read_request(&mut conn, &self.limits, &mut carry);
        tr.end(span);
        request.map_err(|e| format!("{e:?}"))?.ok_or("no request read")?;

        let span = tr.begin("server.middleware.limiter_check", op);
        let decision = self.limiter.check(conn.peer(), conn.now_ms());
        tr.end(span);
        std::hint::black_box(decision);

        let span = tr.begin("query.parser.parse", op);
        let expr = teemon_query::parse(expr_text);
        tr.end(span);
        let expr = expr.map_err(|e| e.to_string())?;

        let span = tr.begin("query.stream.plan", op);
        let plan = stream::plan_or_reason(
            self.db,
            QueryEngine::DEFAULT_LOOKBACK_MS,
            &expr,
            *start_ms,
            *end_ms,
        );
        tr.end(span);
        let plan = plan.map_err(|why| format!("expression does not stream: {why}"))?;

        let span = tr.begin("query.stream.run", op);
        let (series, run) = plan.run_with_stats(*start_ms, *end_ms, *step_ms);
        tr.end(span);
        totals.samples_decoded += run.samples_decoded;
        totals.points += series.iter().map(|s| s.points.len() as u64).sum::<u64>();

        let span = tr.begin("query.json.render", op);
        let body = json::range_response(&series);
        tr.end(span);

        let span = tr.begin("server.http.write_response", op);
        let written = Response::json(200, body).write_to(&mut conn, false);
        tr.end(span);
        tr.end(root);
        written.map_err(|e| e.to_string())?;
        if series.is_empty() {
            return Err(format!("`{expr_text}` answered no series"));
        }
        Ok(())
    }
}

/// The HTTP workloads: blocks of requests run by hand on the live store,
/// then whole through `serve_connection` (on a twin store when they write).
fn trace_http(
    rig: &mut Rig,
    tr: &mut Tracer,
    budget: Duration,
    out: &Path,
    outcome: &mut Outcome,
    totals: &mut Totals,
) -> io::Result<()> {
    let spec = rig.spec;
    let writes = spec.primary != Kind::Refresh;
    // One block is one connection's lifetime: by hand it gets a fresh
    // `PushLane`, whole it is one `serve_connection` call, so both sides
    // rebuild their lane cache equally often.  Within it requests follow the
    // workload's cycle (`posts` POSTs, then `refreshes` four-panel refreshes).
    let (posts, refreshes, block_requests) = match spec.primary {
        Kind::Write => (1, 0, 200),
        Kind::Mixed => (spec.posts_per_cycle, 1, spec.reconnect_every),
        _ => (0, 1, 40),
    };
    // Writes go to two fresh stores that receive identical request
    // sequences — `hand` stage by stage, `twin` through `serve_connection` —
    // so both sides do the same work on the same state.  Reads are decomposed
    // on the live store itself.
    let hand_dir = ScratchDir::new(out, &format!("hand-{}", spec.name))?;
    let twin_dir = ScratchDir::new(out, &format!("twin-{}", spec.name))?;
    let hand_db = if writes { open_db(spec, &hand_dir.0)? } else { rig.db.clone() };
    let (hand_acked, hand_evicted) = (AtomicU64::new(0), AtomicU64::new(0));
    let twin_core = match (writes, rig.core()) {
        (true, _) => {
            std::sync::Arc::new(ServerCore::new(open_config(), open_db(spec, &twin_dir.0)?))
        }
        (false, Some(core)) => std::sync::Arc::clone(core),
        (false, None) => return Err(io::Error::other("server already shut down")),
    };
    let twin_db = twin_core.db().clone();
    let engine = QueryEngine::new(hand_db.clone());
    let peer_of = |block: u32| format!("10.0.0.1:{}", 40_000 + block);
    let mut hand = Hand {
        db: &hand_db,
        lane: lane_for(&hand_db, &peer_of(0)),
        limiter: RateLimiter::new(1e12, 1e12),
        limits: HttpLimits::default(),
    };
    let writer = &mut rig.writers[0];
    let mut posts_done = 0u64;
    let mut twin_served = 0u64;
    let posts_in = |items: &[Item]| items.iter().filter(|i| i.query.is_none()).count() as u64;
    let started = Instant::now();
    // Block 0 warms both stores (series creation, staging buffers) untimed.
    for block in 0u32.. {
        if block > 0 && started.elapsed() >= budget {
            break;
        }
        let warm = block == 0;
        let peer = peer_of(block);
        hand.lane = lane_for(&hand_db, &peer);

        let mut items: Vec<Item> = Vec::with_capacity(block_requests);
        'cycles: loop {
            for _ in 0..posts {
                if items.len() >= block_requests {
                    break 'cycles;
                }
                let value = writer.next_batch(spec);
                writer.seq = value;
                items.push(Item {
                    request: writer.template.request.clone(),
                    query: None,
                    samples: writer.template.samples() as u64,
                });
            }
            for _ in 0..refreshes {
                if items.len() >= block_requests {
                    break 'cycles;
                }
                let now_ms = if writes { writer.now_ms } else { DashboardData::now_ms() };
                for panel in writer.panel_order() {
                    let q = writer.panels.query(panel, now_ms);
                    items.push(Item {
                        request: writer.panels.request(panel, now_ms),
                        query: Some((panel, q.expr.to_string(), q.start_ms, q.end_ms, q.step_ms)),
                        samples: 0,
                    });
                }
            }
        }

        // Operation ids and which of them record are fixed before either
        // pass runs: every other operation runs with the tracer disabled.
        let first_op = totals.ops as u32 + 1;
        totals.ops += items.len() as u64;
        let recorded: Vec<bool> =
            (0..items.len() as u32).map(|i| !warm && (first_op + i) % 2 == 1).collect();
        let mark = tr.mark();
        let mut block_engine_ns = 0u64;
        let mut served_ns: Vec<u64> = Vec::new();
        // Whichever pass runs second finds the request bytes in cache and the
        // allocator's free lists shaped by the first, which is worth several
        // percent; so the order alternates from block to block and gaps are
        // averaged over pairs of blocks.
        let passes =
            if block % 2 == 1 { [Pass::ByHand, Pass::Whole] } else { [Pass::Whole, Pass::ByHand] };
        for pass in passes {
            if pass == Pass::Whole {
                // The same requests, whole, through the serving core.
                let mut conn = ScriptConn::new(&items, writes.then_some(&twin_db), peer.clone());
                // Every request of a mixed block counts towards the twin's
                // retention schedule, at the by-hand pass's rate of one pass
                // per 100 POSTs.
                conn.retention_every =
                    spec.retention_every_posts * block_requests as u64 / posts_in(&items).max(1);
                conn.served_before = twin_served;
                twin_core.serve_connection(&mut conn);
                twin_served += conn.served_ns.len() as u64;
                if conn.non_200 > 0 || conn.served_ns.len() != items.len() {
                    outcome.problem(format!(
                        "serve_connection: {} of {} requests served, {} not 200",
                        conn.served_ns.len(),
                        items.len(),
                        conn.non_200
                    ));
                }
                served_ns = conn.served_ns;
                continue;
            }
            for (i, item) in items.iter().enumerate() {
                let op = first_op + i as u32;
                tr.enabled = recorded[i];
                // The same query, whole, against the same store state; before
                // or after the by-hand one, alternating.
                let mut engine_whole = |outcome: &mut Outcome| {
                    let Some((_, expr, start, end, step)) = &item.query else { return };
                    let timer = Instant::now();
                    let answer = engine.range_query(expr, *start, *end, *step);
                    if recorded[i] {
                        block_engine_ns += timer.elapsed().as_nanos() as u64;
                    }
                    if answer.map_or(true, |series| series.is_empty()) {
                        outcome.problem(format!("range_query `{expr}` failed or answered nothing"));
                    }
                };
                let whole_first = (op / 2).is_multiple_of(2);
                if whole_first {
                    engine_whole(outcome);
                }
                let timer = Instant::now();
                let result = if item.query.is_some() {
                    hand.query(tr, op, item, totals)
                } else {
                    posts_done += 1;
                    let retention_due = due(posts_done, spec.retention_every_posts);
                    hand_acked.fetch_add(item.samples, Ordering::Relaxed);
                    hand.write(tr, op, item, retention_due, &hand_evicted)
                };
                let hand_ns = timer.elapsed().as_nanos() as u64;
                outcome.attempted += 1;
                if let Err(why) = result {
                    outcome.problem(format!("by hand: {why}"));
                }
                if !whole_first {
                    engine_whole(outcome);
                }
                if !warm {
                    let class = item.query.as_ref().map_or(0, |(panel, ..)| panel + 1);
                    totals.hand_ns[class][usize::from(recorded[i])].push(hand_ns);
                }
            }
        }
        if warm {
            continue;
        }

        // Whole-stage time of exactly the requests whose parts were recorded.
        let serve_ns: u64 =
            served_ns.iter().zip(&recorded).filter(|(_, &r)| r).map(|(&ns, _)| ns).sum();
        totals.serve_ns += serve_ns;
        totals.engine_ns += block_engine_ns;
        totals.serve_gap_pct.push(gap_pct(serve_ns, tr.total_since(mark, &SERVE_PARTS)));
        if block_engine_ns > 0 {
            totals
                .engine_gap_pct
                .push(gap_pct(block_engine_ns, tr.total_since(mark, &ENGINE_PARTS)));
        }
        for (item, &ns) in items.iter().zip(&served_ns) {
            totals.served_ns.push(ns);
            // Residual class: writes where there are any, else panel P3.
            let in_class = match &item.query {
                None => true,
                Some((panel, ..)) => !writes && *panel == 2,
            };
            if in_class {
                totals.served_class_ns.push(ns);
            }
        }
    }
    tr.enabled = true;
    let stored = hand_db.stats().samples;
    let expected = hand_acked.into_inner() - hand_evicted.into_inner();
    if writes && stored != expected {
        outcome.problem(format!(
            "by-hand store holds {stored} samples, acked minus evicted is {expected}"
        ));
    }
    Ok(())
}

/// The pull path: `scrape_round` is the whole; its collect / cache walk /
/// append parts come from the program's stage histograms, and a direct
/// `append_batch` + `wal_flush` of the same shape runs on a durable twin.
fn trace_rounds(
    rig: &mut Rig,
    tr: &mut Tracer,
    budget: Duration,
    seed: u64,
    out: &Path,
    outcome: &mut Outcome,
    totals: &mut Totals,
) -> io::Result<()> {
    let spec = rig.spec;
    let twin_dir = ScratchDir::new(out, &format!("twin-{}", spec.name))?;
    let twin = open_db(spec, &twin_dir.0)?;
    let handles: Vec<SeriesHandle> = (0..TARGETS * SERIES_PER_TARGET)
        .map(|i| {
            let labels = teemon_metrics::Labels::from_pairs([
                ("node", format!("node-{}", (i / 8) % 64)),
                ("idx", format!("{i}")),
                ("instance", format!("node-{}:9100", i / SERIES_PER_TARGET)),
            ]);
            twin.resolve(&format!("pull_m{}", i % 8), &labels)
        })
        .collect();
    let mut batch: Vec<(SeriesHandle, u64, f64)> = Vec::with_capacity(handles.len());
    let volatile =
        build_scraper(TimeSeriesDb::with_config(rig.db.config().clone()), &Rng::new(seed));
    let expected = handles.len() as u64;
    let mut now_ms = rig.scrape_now_ms;
    let mut rounds = 0u64;
    let started = Instant::now();
    for block in 0u32.. {
        if block > 0 && started.elapsed() >= budget {
            break;
        }
        let warm = block == 0;
        let mark = tr.mark();
        for _ in 0..50 {
            totals.ops += 1;
            rounds += 1;
            now_ms += TICK_MS;
            let op = totals.ops as u32;
            // Every other round runs with the tracer disabled.
            tr.enabled = !warm && op % 2 == 1;
            let timer = Instant::now();

            let collect_before = probes::SCRAPE_COLLECT_NS.sum_ns();
            let walk_before = probes::SCRAPE_CACHE_WALK_NS.sum_ns();
            let append_before = probes::SCRAPE_APPEND_NS.sum_ns();
            let span = tr.begin("tsdb.scrape.round", op);
            let summary = rig.scraper.scrape_round(now_ms);
            tr.end(span);
            tr.child(
                span,
                "tsdb.scrape.collect",
                probes::SCRAPE_COLLECT_NS.sum_ns() - collect_before,
            );
            tr.child(
                span,
                "tsdb.scrape.cache_walk",
                probes::SCRAPE_CACHE_WALK_NS.sum_ns() - walk_before,
            );
            tr.child(
                span,
                "tsdb.storage.append",
                probes::SCRAPE_APPEND_NS.sum_ns() - append_before,
            );
            rig.ledger
                .acked
                .fetch_add(summary.samples_added + 4 * summary.healthy as u64, Ordering::Relaxed);
            outcome.attempted += 1;
            if summary.samples_added != expected {
                outcome.problem(format!("traced round: {summary:?}"));
            }

            batch.clear();
            batch.extend(handles.iter().map(|&h| (h, now_ms, rounds as f64)));
            let span = tr.begin("tsdb.storage.append_batch", op);
            let appended = twin.append_batch(&batch).appended;
            tr.end(span);
            let span = tr.begin("tsdb.wal.flush", op);
            let clean = twin.wal_flush();
            tr.end(span);
            if appended != expected || !clean {
                outcome.problem(format!("twin round: appended {appended}, flush clean: {clean}"));
            }

            let retention_due = due(rounds, spec.retention_every_rounds);
            if retention_due {
                let span = tr.begin("tsdb.storage.retention", op);
                let evicted = rig.db.apply_retention() as u64;
                tr.end(span);
                rig.ledger.evicted.fetch_add(evicted, Ordering::Relaxed);
                twin.apply_retention();
            }
            let hand_ns = timer.elapsed().as_nanos() as u64;

            // The same round without a WAL: the difference is the round tax.
            let timer = Instant::now();
            let plain = volatile.scrape_round(now_ms);
            let plain_ns = timer.elapsed().as_nanos() as u64;
            if retention_due {
                volatile.db().apply_retention();
            }
            if plain.samples_added != expected {
                outcome.problem(format!("volatile round: {plain:?}"));
            }
            if warm {
                continue;
            }
            totals.volatile_round_ns.push(plain_ns);
            totals.hand_ns[0][usize::from(tr.enabled)].push(hand_ns);
        }
        if !warm {
            let whole = tr.total_since(mark, &["tsdb.scrape.round"]);
            totals.round_gap_pct.push(gap_pct(whole, tr.total_since(mark, &ROUND_PARTS)));
        }
    }
    rig.scrape_now_ms = now_ms;
    tr.enabled = true;
    Ok(())
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

pub fn run(spec: &'static Spec, seed: u64, seconds: f64, out: &Path) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let run_start = Counters::read();
    let (mut rig, _) = set_up(spec, seed, out)?;

    // Client-side numbers and probe deltas come from a short untraced window
    // of the workload's primary phase.
    let before = Counters::read();
    let window = rig.run(spec.primary, Stop::After(Duration::from_secs_f64(seconds * 0.35)));
    let after = Counters::read();
    account(&window, &mut outcome);

    let mut tr = Tracer::new();
    let mut totals = Totals::default();
    let budget = Duration::from_secs_f64(seconds * 0.55);
    if spec.primary == Kind::Rounds {
        trace_rounds(&mut rig, &mut tr, budget, seed, out, &mut outcome, &mut totals)?;
    } else {
        trace_http(&mut rig, &mut tr, budget, out, &mut outcome, &mut totals)?;
    }

    let stats = rig.db.stats();
    let wal_dir_bytes = dir_bytes(&rig.wal_dir.0);
    let (open_s, replayed) = reconcile_and_restart(&rig, out, &mut outcome);
    if !rig.shutdown() {
        outcome.problem("server did not drain inside its deadline".to_string());
    }
    run_start.check_guards(&stats, &mut outcome);
    let run_end = Counters::read();
    tr.write_json(&out.join(format!("trace-{}.json", spec.name)), spec.name, seed)?;

    // Span lines: p50 and share of the traced wall (the decomposed stage).
    let spans = tr.stats();
    let stage = if spec.primary == Kind::Rounds { "tsdb.scrape.round" } else { "bench.glue" };
    let traced_wall_ns = spans.get(stage).map_or(0, |s| s.total_ns) as f64;
    for name in SPANS {
        let (p50_us, share) = spans.get(name).map_or((0.0, 0.0), |s| {
            let durations = sorted(s.durations_ns.clone());
            (percentile(&durations, 0.5) / 1e3, s.self_ns as f64 / traced_wall_ns.max(1.0))
        });
        outcome.metric(&format!("{name}.p50_us"), p50_us, "us");
        outcome.metric(&format!("{name}.share"), share, "ratio");
    }

    // Parts against wholes.
    let span_total = |names: &[&str]| -> f64 {
        names.iter().map(|name| spans.get(name).map_or(0, |s| s.total_ns) as f64).sum()
    };
    let (serve_parts, engine_parts) = (span_total(&SERVE_PARTS), span_total(&ENGINE_PARTS));
    let serve_unattributed = median_gap(&totals.serve_gap_pct);
    let engine_unattributed = median_gap(&totals.engine_gap_pct);
    let round_unattributed = median_gap(&totals.round_gap_pct);
    for (what, value, blocks) in [
        ("server.core.unattributed", serve_unattributed, totals.serve_gap_pct.len()),
        ("query.engine.unattributed", engine_unattributed, totals.engine_gap_pct.len()),
        ("tsdb.scrape.round.unattributed", round_unattributed, totals.round_gap_pct.len()),
    ] {
        // A window too short for one pair of blocks (`--smoke`) still prints
        // its gap, but a single block carries the pass-order bias.
        if blocks >= 2 && value.abs() > RECONCILE_TOLERANCE_PCT {
            outcome.problem(format!(
                "{what} is {value:.1} % of the whole stage, over the {RECONCILE_TOLERANCE_PCT} % tolerance"
            ));
        }
    }

    let write_ns = latencies(&window.clients.writes);
    let refresh_ns = latencies(&window.clients.refreshes);
    let panel_ns: Vec<Vec<u64>> = window.clients.panels.iter().map(|p| latencies(p)).collect();
    let served = sorted(totals.served_ns.clone());
    let served_class = sorted(totals.served_class_ns.clone());
    let client_class_p50 = match spec.primary {
        Kind::Write | Kind::Mixed => percentile(&write_ns, 0.5),
        Kind::Refresh => percentile(&panel_ns[2], 0.5),
        Kind::Rounds => 0.0,
    };
    let residual_us = if served_class.is_empty() {
        0.0
    } else {
        (client_class_p50 - percentile(&served_class, 0.5)) / 1e3
    };
    let durable_round_p50 = spans
        .get("tsdb.scrape.round")
        .map_or(0.0, |s| percentile(&sorted(s.durations_ns.clone()), 0.5));
    let round_tax_us = if totals.volatile_round_ns.is_empty() {
        0.0
    } else {
        (durable_round_p50 - percentile(&sorted(totals.volatile_round_ns.clone()), 0.5)) / 1e3
    };
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_rebuilds - before.cache_rebuilds);
    // Traced vs untraced cost per operation: medians per operation class
    // (the classes differ by orders of magnitude, and the program's periodic
    // heavy operations would otherwise land on one side), weighted by the
    // time each class takes.
    let overhead_pct = {
        let (mut extra_ns, mut base_ns) = (0.0, 0.0);
        for [off, on] in &totals.hand_ns {
            if off.len().min(on.len()) >= 10 {
                let off_p50 = percentile(&sorted(off.clone()), 0.5);
                extra_ns += (percentile(&sorted(on.clone()), 0.5) - off_p50) * off.len() as f64;
                base_ns += off_p50 * off.len() as f64;
            }
        }
        pct(extra_ns, base_ns)
    };
    let ops_recorded: usize = totals.hand_ns.iter().map(|[_, on]| on.len()).sum();
    let ops_unrecorded: usize = totals.hand_ns.iter().map(|[off, _]| off.len()).sum();
    let refreshes = refresh_ns.len() as f64;

    // The flush as a share of what the client waits for (a write on the HTTP
    // workloads, a round on the pull path).
    let flush_p50 = spans
        .get("tsdb.wal.flush")
        .map_or(0.0, |s| percentile(&sorted(s.durations_ns.clone()), 0.5));
    let client_p50 = match spec.primary {
        Kind::Write | Kind::Mixed => percentile(&write_ns, 0.5),
        Kind::Rounds => percentile(&latencies(&window.rounds.timed), 0.5),
        Kind::Refresh => 0.0,
    };
    let flush_of_client = if client_p50 > 0.0 { flush_p50 / client_p50 } else { 0.0 };

    let scalars: [f64; LAYER_SCALARS.len()] = [
        residual_us,
        flush_of_client,
        percentile(&served, 0.5) / 1e3,
        serve_unattributed,
        engine_unattributed,
        round_unattributed,
        if lookups > 0 {
            (after.cache_hits - before.cache_hits) as f64 / lookups as f64
        } else {
            0.0
        },
        (after.cache_rebuilds - before.cache_rebuilds) as f64,
        round_tax_us,
        (after.wal_bytes - before.wal_bytes) as f64,
        (after.fsyncs - before.fsyncs) as f64,
        wal_dir_bytes as f64,
        open_s,
        if open_s > 0.0 { replayed as f64 / open_s } else { 0.0 },
        stats.series as f64,
        stats.chunks as f64,
        stats.resident_bytes as f64,
        stats.index_bytes as f64,
        stats.symbols as f64,
        (run_end.swept - run_start.swept) as f64,
        stats.rejected_samples as f64,
        if totals.points > 0 { totals.samples_decoded as f64 / totals.points as f64 } else { 0.0 },
        if refreshes > 0.0 { window.clients.json_bytes as f64 / refreshes } else { 0.0 },
        (run_end.fallback - run_start.fallback) as f64,
        (after.shard_contended - before.shard_contended) as f64,
        (after.shard_wait_ns - before.shard_wait_ns) as f64 / 1e3,
        (after.connections - before.connections) as f64,
        (after.requests - before.requests) as f64,
        (after.responses_4xx - before.responses_4xx) as f64,
        (after.responses_5xx - before.responses_5xx) as f64,
        (after.shed - before.shed) as f64,
        (after.panics - before.panics) as f64,
        percentile(&latencies(&window.rounds.timed), 0.99) / 1e3,
        percentile(&write_ns, 0.99) / 1e6,
        percentile(&refresh_ns, 0.99) / 1e6,
        percentile(&panel_ns[0], 0.5) / 1e6,
        percentile(&panel_ns[1], 0.5) / 1e6,
        percentile(&panel_ns[2], 0.5) / 1e6,
        percentile(&panel_ns[3], 0.5) / 1e6,
        overhead_pct,
        ops_recorded as f64,
    ];
    for ((name, unit), value) in LAYER_SCALARS.iter().zip(scalars) {
        outcome.metric(name, value, unit);
    }

    outcome.note(format!(
        "untraced window: {:.2} s, n = {} writes / {} rounds / {} refreshes ({} requests per panel {:?})",
        window.wall_s,
        write_ns.len(),
        window.rounds.timed.len(),
        refresh_ns.len(),
        panel_ns[0].len(),
        PANEL_NAMES
    ));
    outcome.note(format!(
        "traced pass: {} operations recorded, {} with the tracer disabled; traced wall {:.3} s; \
         serve_connection whole {:.3} s vs parts {:.3} s; range_query whole {:.3} s vs parts {:.3} s",
        ops_recorded,
        ops_unrecorded,
        traced_wall_ns / 1e9,
        totals.serve_ns as f64 / 1e9,
        serve_parts / 1e9,
        totals.engine_ns as f64 / 1e9,
        engine_parts / 1e9
    ));
    outcome.note(format!(
        "trace written to {}",
        out.join(format!("trace-{}.json", spec.name)).display()
    ));
    Ok(outcome)
}
