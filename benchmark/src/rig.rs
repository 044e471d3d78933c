//! The deployment under test and the three load drivers.
//!
//! Every workload runs the same deployment shape — one durable
//! `TimeSeriesDb` behind an in-process `Server`, two keep-alive clients and
//! one `Scraper` — and differs in store configuration, preload and traffic.
//! A run is the workload's **primary phase** followed by short **coda
//! phases** of the operation kinds the primary does not perform, so that all
//! fourteen end-to-end metrics are measured (never zero) on all four
//! workloads.  Each metric is taken from the primary phase when the primary
//! performs that kind of operation, and from its coda otherwise.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use teemon_obs::probes;
use teemon_server::{Server, ServerConfig};
use teemon_tsdb::{DurabilityOptions, ScrapeTargetConfig, Scraper, TimeSeriesDb, TsdbConfig};

use crate::client::KeepAlive;
use crate::gen::{
    parse_matrix, DashboardData, PanelSet, SteadyEndpoint, WriteTemplate, ORIGIN_MS, TICK_MS,
};
use crate::stats::Timed;
use crate::util::{cpu_ns, fnv1a, Rng, ScratchDir};

pub const CLIENTS: usize = 2;
pub const TARGETS: usize = 4;
pub const SERIES_PER_TARGET: usize = 250;
/// `up`, `scrape_duration_seconds`, `scrape_samples_scraped`,
/// `scrape_samples_added`: stored per healthy target per round.
const META_SAMPLES_PER_TARGET: u64 = 4;

/// The kind of operation a phase drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Both clients POST `/api/v1/write` back to back.
    Write,
    /// One driver thread calls `scrape_round`.
    Rounds,
    /// Both clients loop four-panel refreshes.
    Refresh,
    /// Both clients cycle `posts_per_cycle` POSTs then one refresh.
    Mixed,
}

/// What distinguishes one workload from another.
pub struct Spec {
    pub name: &'static str,
    pub primary: Kind,
    /// Metric-name prefix of the series the clients write.
    pub prefix: &'static str,
    pub samples_per_post: usize,
    /// Series renamed (new `pod` value) in every POST.
    pub churn_per_post: usize,
    /// Requests after which a client reconnects (0 = never).
    pub reconnect_every: usize,
    pub posts_per_cycle: usize,
    /// Client 0 calls `apply_retention` every this many of its POSTs (0 = never).
    pub retention_every_posts: u64,
    /// The round driver calls `apply_retention` every this many rounds (0 = never).
    pub retention_every_rounds: u64,
    pub retention_ms: u64,
    pub segment_bytes: u64,
    /// Preload the `dashboard_read` store.
    pub preload: bool,
}

const HOUR_MS: u64 = 60 * 60 * 1000;
const DEFAULT_SEGMENT: u64 = 4 << 20;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "push_steady",
        primary: Kind::Write,
        prefix: "push",
        samples_per_post: 1000,
        churn_per_post: 0,
        reconnect_every: 0,
        posts_per_cycle: 0,
        retention_every_posts: 0,
        retention_every_rounds: 0,
        retention_ms: 24 * HOUR_MS,
        segment_bytes: DEFAULT_SEGMENT,
        preload: false,
    },
    Spec {
        name: "pull_rounds_1k",
        primary: Kind::Rounds,
        prefix: "coda",
        samples_per_post: 1000,
        churn_per_post: 0,
        reconnect_every: 0,
        posts_per_cycle: 0,
        retention_every_posts: 0,
        retention_every_rounds: 1000,
        retention_ms: 6 * HOUR_MS,
        segment_bytes: DEFAULT_SEGMENT,
        preload: false,
    },
    Spec {
        name: "dashboard_read",
        primary: Kind::Refresh,
        prefix: "coda",
        samples_per_post: 1000,
        churn_per_post: 0,
        reconnect_every: 0,
        posts_per_cycle: 0,
        retention_every_posts: 0,
        retention_every_rounds: 0,
        retention_ms: 24 * HOUR_MS,
        segment_bytes: DEFAULT_SEGMENT,
        preload: true,
    },
    Spec {
        name: "mixed_churn",
        primary: Kind::Mixed,
        prefix: "mix",
        samples_per_post: 500,
        churn_per_post: 25,
        reconnect_every: 250,
        posts_per_cycle: 36,
        retention_every_posts: 100,
        retention_every_rounds: 0,
        retention_ms: 10 * 60 * 1000,
        segment_bytes: 256 << 10,
        preload: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// When a driver stops: after a wall-clock window, or after a number of
/// requests per client / rounds (warm-ups are counted in operations).
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(usize),
}

/// Whether a periodic chore (retention pass) falls on this count; a period
/// of 0 means never.
pub fn due(count: u64, every: u64) -> bool {
    every > 0 && count.is_multiple_of(every)
}

impl Stop {
    fn reached(&self, started: Instant, ops: usize) -> bool {
        match *self {
            Stop::After(window) => started.elapsed() >= window,
            Stop::Ops(n) => ops >= n,
        }
    }
}

/// Samples the store must hold: everything acked minus everything evicted.
#[derive(Default)]
pub struct Ledger {
    pub acked: AtomicU64,
    pub evicted: AtomicU64,
}

/// One load client: its write template, logical clock and connection.
pub struct Writer {
    pub id: usize,
    pub template: WriteTemplate,
    pub now_ms: u64,
    /// Value carried by every sample of the newest acked batch.
    pub seq: u64,
    posts: u64,
    conn: Option<KeepAlive>,
    rng: Rng,
    pub panels: PanelSet,
    /// Hash of each static panel's first (closed-form-checked) answer.
    first_answer: [Option<u64>; 4],
}

/// What one client (or both, merged) did in a phase.  Latencies are
/// client-observed: request first byte out → full reply in.
#[derive(Default)]
pub struct ClientStats {
    pub writes: Timed,
    /// One refresh: the four panel latencies summed.
    pub refreshes: Timed,
    pub panels: [Timed; 4],
    pub samples_acked: u64,
    pub json_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl ClientStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: ClientStats) {
        self.writes.extend(other.writes);
        self.refreshes.extend(other.refreshes);
        for (mine, theirs) in self.panels.iter_mut().zip(other.panels) {
            mine.extend(theirs);
        }
        self.samples_acked += other.samples_acked;
        self.json_bytes += other.json_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

#[derive(Default)]
pub struct RoundStats {
    pub timed: Timed,
    pub samples_added: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// One measured phase: what ran, for how long, at what process cost.
pub struct Phase {
    pub kind: Kind,
    pub wall_s: f64,
    /// (time since the phase started, process CPU ns), read every 25 ms.
    pub cpu_ticks: Vec<(u64, u64)>,
    /// `StorageStats::total_bytes() / samples`, read every 100 ms.
    pub bytes_per_sample: Vec<f64>,
    pub wal_bytes: u64,
    pub clients: ClientStats,
    pub rounds: RoundStats,
}

impl Phase {
    /// Samples acked (and flushed) in this phase.
    pub fn samples(&self) -> u64 {
        self.clients.samples_acked + self.rounds.samples_added
    }

    /// Process CPU seconds over the whole phase.
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu_ticks.first(), self.cpu_ticks.last()) {
            (Some(&(_, first)), Some(&(_, last))) => (last - first) as f64 / 1e9,
            _ => 0.0,
        }
    }
}

pub struct Rig {
    pub spec: &'static Spec,
    pub db: TimeSeriesDb,
    server: Option<Server>,
    addr: SocketAddr,
    pub wal_dir: ScratchDir,
    pub writers: Vec<Writer>,
    pub scraper: Scraper,
    pub scrape_now_ms: u64,
    rounds: u64,
    dashboard: Option<DashboardData>,
    pub ledger: Ledger,
}

/// The limiter opened wide: all loopback clients share one IP.
pub fn open_config() -> ServerConfig {
    ServerConfig { rate_per_sec: 1e12, burst: 1e12, ..ServerConfig::default() }
}

pub fn open_db(spec: &Spec, dir: &Path) -> io::Result<TimeSeriesDb> {
    let config = TsdbConfig { retention_ms: spec.retention_ms, ..TsdbConfig::default() };
    let options =
        DurabilityOptions { segment_bytes: spec.segment_bytes, ..DurabilityOptions::default() };
    TimeSeriesDb::open_with(dir, config, options)
}

/// A scraper over `db` with the workload's 4 × 250 in-place gauge targets.
pub fn build_scraper(db: TimeSeriesDb, rng: &Rng) -> Scraper {
    let scraper = Scraper::new(db);
    for target in 0..TARGETS {
        let mut target_rng = rng.fork(100 + target as u64);
        scraper.add_target(
            ScrapeTargetConfig::new("bench_exporter", format!("node-{target}:9100"))
                .with_label("rack", format!("rack-{}", target % 2)),
            SteadyEndpoint::new(SERIES_PER_TARGET, &mut target_rng),
        );
    }
    scraper
}

impl Rig {
    /// Builds the deployment: opens the store under `out`, preloads it if
    /// the workload asks, starts the server and connects nobody yet.
    pub fn build(spec: &'static Spec, seed: u64, out: &Path) -> io::Result<Self> {
        let rng = Rng::new(seed);
        let wal_dir = ScratchDir::new(out, &format!("wal-{}", spec.name))?;
        let db = open_db(spec, &wal_dir.0)?;
        let ledger = Ledger::default();
        let dashboard = spec.preload.then(|| DashboardData::new(&mut rng.fork(1)));
        if let Some(data) = &dashboard {
            ledger.acked.fetch_add(data.preload(&db), Ordering::Relaxed);
        }
        let server = Server::start("127.0.0.1:0", open_config(), db.clone())?;
        let addr = server.addr();
        let writers = (0..CLIENTS)
            .map(|id| {
                let mut client_rng = rng.fork(10 + id as u64);
                let template = WriteTemplate::new(
                    spec.prefix,
                    id,
                    spec.samples_per_post,
                    spec.churn_per_post > 0,
                    &mut client_rng,
                );
                let panels = match spec.primary {
                    Kind::Refresh => PanelSet::new("m", "", ORIGIN_MS),
                    Kind::Rounds => PanelSet::new("pull_m", "", ORIGIN_MS),
                    Kind::Write | Kind::Mixed => PanelSet::new(
                        &format!("{}_m", spec.prefix),
                        &format!("client=\"{id}\""),
                        ORIGIN_MS,
                    ),
                };
                Writer {
                    id,
                    template,
                    now_ms: ORIGIN_MS,
                    seq: 0,
                    posts: 0,
                    conn: None,
                    rng: client_rng,
                    panels,
                    first_answer: [None; 4],
                }
            })
            .collect();
        let scraper = build_scraper(db.clone(), &rng);
        Ok(Self {
            spec,
            db,
            server: Some(server),
            addr,
            wal_dir,
            writers,
            scraper,
            scrape_now_ms: ORIGIN_MS,
            rounds: 0,
            dashboard,
            ledger,
        })
    }

    /// Logical time moves forward across phases: every actor of the next
    /// phase starts at the newest time any earlier actor reached.
    fn sync_clocks(&mut self) {
        let newest = self.writers.iter().map(|w| w.now_ms).fold(self.scrape_now_ms, u64::max);
        self.scrape_now_ms = newest;
        for writer in &mut self.writers {
            writer.now_ms = newest;
        }
    }

    /// Runs one phase of `kind` until `stop`, measuring wall time, process
    /// CPU and WAL bytes around it.
    pub fn run(&mut self, kind: Kind, stop: Stop) -> Phase {
        self.sync_clocks();
        let wal_before = probes::WAL_BYTES_WRITTEN.get();
        let started = Instant::now();
        let db = self.db.clone();
        let ((clients, rounds), (cpu_ticks, bytes_per_sample)) = with_sampler(started, &db, || {
            if kind == Kind::Rounds {
                return (ClientStats::default(), self.drive_rounds(started, stop));
            }
            let cycle = match kind {
                Kind::Write => (1, 0),
                Kind::Refresh => (0, 1),
                _ => (self.spec.posts_per_cycle, 1),
            };
            let shared = Shared {
                spec: self.spec,
                db: &self.db,
                addr: self.addr,
                ledger: &self.ledger,
                dashboard: self.dashboard.as_ref(),
                read_now_ms: match self.spec.primary {
                    Kind::Refresh => Some(DashboardData::now_ms()),
                    Kind::Rounds => Some(self.scrape_now_ms),
                    Kind::Write | Kind::Mixed => None,
                },
                started,
            };
            let shared = &shared;
            let mut clients = ClientStats::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .writers
                    .iter_mut()
                    .map(|writer| scope.spawn(move || drive_client(shared, writer, cycle, stop)))
                    .collect();
                for handle in handles {
                    clients.merge(handle.join().expect("client thread panicked"));
                }
            });
            (clients, RoundStats::default())
        });
        Phase {
            kind,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_ticks,
            bytes_per_sample,
            wal_bytes: probes::WAL_BYTES_WRITTEN.get() - wal_before,
            clients,
            rounds,
        }
    }

    fn drive_rounds(&mut self, started: Instant, stop: Stop) -> RoundStats {
        let mut stats = RoundStats::default();
        let expected = (TARGETS * SERIES_PER_TARGET) as u64;
        let mut ops = 0;
        while !stop.reached(started, ops) {
            ops += 1;
            self.scrape_now_ms += TICK_MS;
            self.rounds += 1;
            let timer = Instant::now();
            // The round flushes its own WAL round before it returns.
            let summary = self.scraper.scrape_round(self.scrape_now_ms);
            let retention_due = due(self.rounds, self.spec.retention_every_rounds);
            if retention_due {
                let evicted = self.db.apply_retention() as u64;
                self.ledger.evicted.fetch_add(evicted, Ordering::Relaxed);
            }
            stats
                .timed
                .push((started.elapsed().as_nanos() as u64, timer.elapsed().as_nanos() as u64));
            stats.attempted += 1;
            stats.samples_added += summary.samples_added;
            self.ledger.acked.fetch_add(
                summary.samples_added + summary.healthy as u64 * META_SAMPLES_PER_TARGET,
                Ordering::Relaxed,
            );
            if summary.healthy != TARGETS || summary.samples_added != expected {
                stats.failed += 1;
                if stats.failures.len() < 8 {
                    stats.failures.push(format!("round {}: {summary:?}", self.rounds));
                }
            }
        }
        stats
    }

    /// The live server's transport-free core (the traced run drives it over
    /// an in-memory connection).
    pub fn core(&self) -> Option<&std::sync::Arc<teemon_server::ServerCore>> {
        self.server.as_ref().map(Server::core)
    }

    /// Drops the client connections and shuts the server down.  Returns
    /// whether the drain finished inside its deadline.
    pub fn shutdown(&mut self) -> bool {
        for writer in &mut self.writers {
            writer.conn = None;
        }
        self.server.take().is_some_and(Server::shutdown)
    }
}

/// Footprint per stored sample, from the per-shard aggregates (no scan).
pub fn bytes_per_sample(db: &TimeSeriesDb) -> f64 {
    let stats = db.stats();
    stats.total_bytes() as f64 / stats.samples.max(1) as f64
}

/// CPU-clock readings (time since `started`, process CPU ns) and footprint
/// readings taken while a phase runs.
type Samples = (Vec<(u64, u64)>, Vec<f64>);

/// Runs `work` while a sampler thread reads the process CPU clock every 25 ms
/// and the store's footprint every 100 ms, so CPU cost can be taken per slice of the
/// window and the footprint at the floor of its chunk-seal / retention
/// sawtooth rather than wherever the window happens to end.
fn with_sampler<R>(started: Instant, db: &TimeSeriesDb, work: impl FnOnce() -> R) -> (R, Samples) {
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut ticks = Vec::new();
            let mut footprint = Vec::new();
            loop {
                ticks.push((started.elapsed().as_nanos() as u64, cpu_ns()));
                // `stats()` takes every shard's read lock: every fourth tick
                // is often enough for a sawtooth of tens of milliseconds.
                if ticks.len() % 4 == 1 {
                    footprint.push(bytes_per_sample(db));
                }
                // The flag publishes nothing but itself.
                if finished.load(Ordering::Relaxed) {
                    return (ticks, footprint);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let result = work();
        finished.store(true, Ordering::Relaxed);
        (result, sampler.join().expect("sampler thread panicked"))
    })
}

/// What both client threads read.
struct Shared<'a> {
    spec: &'static Spec,
    db: &'a TimeSeriesDb,
    addr: SocketAddr,
    ledger: &'a Ledger,
    dashboard: Option<&'a DashboardData>,
    /// Logical `now` of the panels, when they do not follow the client's own
    /// writes (static store, scraped series).
    read_now_ms: Option<u64>,
    /// Start of the phase: operations are stamped relative to it.
    started: Instant,
}

fn drive_client(
    shared: &Shared,
    writer: &mut Writer,
    cycle: (usize, usize),
    stop: Stop,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let started = shared.started;
    let mut requests = 0;
    loop {
        for _ in 0..cycle.0 {
            if stop.reached(started, requests) {
                return stats;
            }
            requests += 1;
            post(shared, writer, &mut stats);
        }
        for _ in 0..cycle.1 {
            if stop.reached(started, requests) {
                return stats;
            }
            requests += 4;
            refresh(shared, writer, &mut stats);
        }
    }
}

/// The writer's connection, reconnecting first when the schedule says so (a
/// writer restart: the server gives the new connection a new lane and a new
/// `instance` label).
fn connection<'a>(
    shared: &Shared,
    conn: &'a mut Option<KeepAlive>,
) -> io::Result<&'a mut KeepAlive> {
    let every = shared.spec.reconnect_every;
    if conn.as_ref().is_some_and(|c| every > 0 && c.requests >= every) {
        *conn = None;
    }
    match conn {
        Some(conn) => Ok(conn),
        None => Ok(conn.insert(KeepAlive::connect(shared.addr)?)),
    }
}

impl Writer {
    /// Renders the next batch into the template (clock +5 s, seeded churn,
    /// fields patched) and returns the value every sample of it carries.
    /// The caller records the ack with `writer.seq = value`.
    pub fn next_batch(&mut self, spec: &Spec) -> u64 {
        self.now_ms += TICK_MS;
        let value = self.seq + 1;
        self.template.churn(spec.churn_per_post, &mut self.rng);
        self.template.patch(self.now_ms, value);
        value
    }

    /// The seeded order in which the next refresh issues its four panels.
    pub fn panel_order(&mut self) -> [usize; 4] {
        let mut order = [0usize, 1, 2, 3];
        self.rng.shuffle(&mut order);
        order
    }
}

fn post(shared: &Shared, writer: &mut Writer, stats: &mut ClientStats) {
    stats.attempted += 1;
    let value = writer.next_batch(shared.spec);
    let sent = writer.template.samples() as u64;
    let outcome = connection(shared, &mut writer.conn).and_then(|conn| {
        let timer = Instant::now();
        let status = conn.roundtrip(&writer.template.request)?;
        Ok((status, timer.elapsed().as_nanos() as u64, ingested(conn.body())))
    });
    match outcome {
        Ok((200, ns, Some(count))) if count == sent => {
            writer.seq = value;
            stats.writes.push((shared.started.elapsed().as_nanos() as u64, ns));
            stats.samples_acked += sent;
            shared.ledger.acked.fetch_add(sent, Ordering::Relaxed);
        }
        Ok((status, _, count)) => {
            // Whatever part of the batch was stored still has to reconcile.
            shared.ledger.acked.fetch_add(count.unwrap_or(0), Ordering::Relaxed);
            stats.fail(format!("write: status {status}, ingested {count:?} of {sent}"));
        }
        Err(e) => {
            writer.conn = None;
            stats.fail(format!("write: {e}"));
        }
    }
    // Client 0 plays the single-flusher round driver `Scraper::drive` plays
    // in a deployment: outside write latency, inside throughput.
    if writer.id == 0 {
        writer.posts += 1;
        if !shared.db.wal_flush() {
            stats.fail("wal_flush reported a failed log".to_string());
        }
        if due(writer.posts, shared.spec.retention_every_posts) {
            let evicted = shared.db.apply_retention() as u64;
            shared.ledger.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// The `ingested` count of a write ack.
fn ingested(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"ingested\":")?.1;
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

fn refresh(shared: &Shared, writer: &mut Writer, stats: &mut ClientStats) {
    stats.attempted += 1;
    let now_ms = shared.read_now_ms.unwrap_or(writer.now_ms);
    let order = writer.panel_order();
    let requests: Vec<Vec<u8>> = order.iter().map(|&p| writer.panels.request(p, now_ms)).collect();
    let mut total_ns = 0;
    let mut failure: Option<String> = None;
    for (&panel, request) in order.iter().zip(&requests) {
        let outcome = connection(shared, &mut writer.conn).and_then(|conn| {
            let timer = Instant::now();
            let status = conn.roundtrip(request)?;
            Ok((status, timer.elapsed().as_nanos() as u64, conn))
        });
        match outcome {
            Ok((200, ns, conn)) => {
                total_ns += ns;
                stats.panels[panel].push((shared.started.elapsed().as_nanos() as u64, ns));
                stats.json_bytes += conn.body().len() as u64;
                let checked = check_answer(
                    shared,
                    &writer.panels,
                    panel,
                    conn.body(),
                    writer.seq,
                    &mut writer.first_answer,
                );
                if let Err(why) = checked {
                    failure.get_or_insert(format!("P{}: {why}", panel + 1));
                }
            }
            Ok((status, _, _)) => {
                failure.get_or_insert(format!("P{}: status {status}", panel + 1));
            }
            Err(e) => {
                writer.conn = None;
                failure.get_or_insert(format!("P{}: {e}", panel + 1));
            }
        }
    }
    match failure {
        None => stats.refreshes.push((shared.started.elapsed().as_nanos() as u64, total_ns)),
        Some(why) => stats.fail(format!("refresh: {why}")),
    }
}

/// Output check of one panel answer: the closed form (first answer) and an
/// identical hash (every later one) on the static store; a well-formed
/// non-empty matrix elsewhere, and on the client's own series P3's newest
/// point must be the newest acked value (read-after-write).
fn check_answer(
    shared: &Shared,
    panels: &PanelSet,
    panel: usize,
    body: &[u8],
    last_acked: u64,
    first_answer: &mut [Option<u64>; 4],
) -> Result<(), String> {
    if let Some(data) = shared.dashboard {
        let hash = fnv1a(body);
        return match first_answer[panel] {
            Some(first) if first == hash => Ok(()),
            Some(_) => Err("answer differs from the first one".to_string()),
            None => {
                data.check(panels, panel, body)?;
                first_answer[panel] = Some(hash);
                Ok(())
            }
        };
    }
    if panel != 2 || shared.read_now_ms.is_some() {
        let well_formed = body.starts_with(b"{\"status\":\"success\"")
            && body.windows(8).any(|w| w == b"\"values\"");
        return if well_formed { Ok(()) } else { Err("empty or malformed matrix".to_string()) };
    }
    let newest = parse_matrix(body)?
        .iter()
        .filter_map(|s| s.points.last().map(|&(_, v)| v))
        .fold(f64::NEG_INFINITY, f64::max);
    if newest == last_acked as f64 {
        Ok(())
    } else {
        Err(format!("newest point {newest}, newest acked value {last_acked}"))
    }
}
