//! The pull-based scrape loop.
//!
//! The paper argues for pull over push (§4, "Push vs. Pull in Monitoring"):
//! the aggregator scrapes each exporter's metrics endpoint on an interval,
//! which smooths bursts, centralises ingestion and doubles as a health check
//! ("the monitoring service also acts as a health checker and can alert in
//! case the monitoring target is unreachable").  [`Scraper`] implements that
//! loop against in-process endpoints.
//!
//! Unlike the paper's deployment — where exporters and Prometheus are
//! separate processes and every scrape round-trips through OpenMetrics text —
//! the default path here is **typed**: every exporter implements
//! [`MetricsEndpoint`], the one scrape contract (it lives in
//! `teemon_metrics` and is re-exported here), and [`Scraper::add_target`]
//! registers it under the job and instance the deployment names.  A round
//! hands over [`FamilySnapshot`]s and the scraper appends their samples
//! straight into the [`TimeSeriesDb`].  The text wire format only appears
//! at the edges: [`Scraper::add_text_source`] ingests raw exposition
//! documents from targets that only speak text — parsed and walked exactly
//! as a push is — and what the HTTP edge serves is
//! [`exposition::encode_text`] of a scrape.
//!
//! # The ingest fast lane
//!
//! A scrape target emits the *same* series set round after round, so paying
//! key hashing, label merging, symbol interning and an index lookup per
//! sample per round is almost pure waste.  Every target and every
//! [`PushLane`] therefore owns one private `Lane`: the job, the merged
//! target labels, the admission limits and a **scrape cache** holding one
//! entry per wire sample — the sample's structural identity
//! ([`teemon_metrics::SeriesKey`]), the target-label-merged key and a
//! resolved [`crate::SeriesHandle`].  `Lane::ingest` is the one copy of a
//! round: cache walk, [`TimeSeriesDb::append_batch`], stale-handle repair,
//! overflow accounting.  Pull or push, typed or text, only decides what the
//! walk reads and which meta samples the caller writes afterwards.
//!
//! A round is one cache walk, run in up to two modes.  The **warm** mode
//! walks the round positionally and verifies each sample against the entry
//! at its position: a typed sample — a snapshot's, or a histogram or
//! summary sample a text round's parse folded — by real equality of its
//! identity (a name compare and two slice compares over the packed
//! [`Labels`] — nothing is hashed or rendered), a text line
//! ([`Exposition`], from a push or a text target) by one byte compare of its
//! series bytes as sent against the bytes the entry last saw (equal bytes
//! parse to equal identities).  Each entry keeps the admission its last
//! repair gave it.  The whole round then goes to one batch append, which
//! takes each shard lock once.  No allocation (histogram and summary points
//! included: their `le`/`quantile` expansions are built in a per-thread
//! scratch the snapshot walk keeps), no interning, no index traffic.  Churn
//! (new, vanished or reordered series) stops the warm mode at its first
//! miss, before storage is touched, and the same walk runs again in
//! **repair** mode, whose cost follows what changed rather than what the
//! cache holds: each sample is tried against the previous round's entry
//! **at its own position first** (a rename in place re-matches every
//! unrenamed neighbour for what the warm mode pays; a text line that misses
//! by its bytes has its label set built and is tried once more by
//! identity), then against an index of the entries nobody has claimed yet —
//! keyed by structural hash ([`teemon_metrics::series_hash`], confirmed by
//! the same equality), built lazily at the first positional miss in a map
//! the cache keeps — and only a sample that matches nothing pays the label
//! merge, the key capture and [`TimeSeriesDb::resolve`].  Admission and the
//! batch fill happen in the same walk.  A sample whose handle went stale
//! (its series evicted by retention or dropped) is appended by key and the
//! key re-resolved — the lane's own meta series the same way — so the fast
//! lane can miss a beat but never writes to the wrong series.  A lane gives
//! its admissions back to the job pool when it is dropped — a removed
//! target's and a closed connection's alike.
//!
//! The fast lane is the only lane.  What it must equal — merge the target
//! labels and [`TimeSeriesDb::append`] every sample by key, every round —
//! is written once against the public API in `tests/support/mod.rs`, the
//! reference `tests/ingest_equivalence.rs` and `tests/repair_model.rs` hold
//! every generated round to.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{LockClass, Mutex, RwLock};
use serde::{Deserialize, Serialize};
use teemon_metrics::exposition::{self, Exposition, SampleLine};
use teemon_metrics::{identity, FamilySnapshot, Labels, MetricsEndpoint, ScrapeError, SeriesKey};
use teemon_obs::{probes, SelfSnapshot, Stopwatch};

use crate::storage::{SeriesHandle, TimeSeriesDb, STALE_HEAD_MS};

/// A source of raw exposition text (an external process's `/metrics` output).
/// The inbound text edge: use [`Scraper::add_text_source`] to scrape it.
pub trait TextSource: Send + Sync {
    /// Fetches the current exposition document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable transport error when the target is down.
    fn fetch(&self) -> Result<String, String>;
}

impl<F> TextSource for F
where
    F: Fn() -> Result<String, String> + Send + Sync,
{
    fn fetch(&self) -> Result<String, String> {
        (self)()
    }
}

/// The engine's own telemetry as an **in-place** scrape endpoint: a
/// [`teemon_obs::SelfSnapshot`] — the probe table's families, histograms in
/// their canonical bucketed form — refreshed under a private lock on every
/// scrape, handed to the scraper by reference.  Point positions never move
/// between rounds, so the fast lane's positional cache verifies every time,
/// and the walk expands the histograms as it expands any target's, so a
/// warm self-scrape round is allocation-free like any other in-place
/// endpoint — the engine monitors itself at the same cost it monitors
/// everyone else.
///
/// Register it with [`Scraper::add_self_target`] (or `add_target` under a
/// custom config); for text exposition use [`teemon_obs::snapshot::build`],
/// which builds the same families afresh.
pub struct ObsEndpoint {
    snapshot: Mutex<SelfSnapshot>,
}

impl ObsEndpoint {
    /// Creates the endpoint (builds the initial probe snapshot).
    pub(crate) fn new() -> Self {
        Self { snapshot: Mutex::named(SelfSnapshot::new(), LockClass::new("scrape.self_snapshot")) }
    }
}

impl Default for ObsEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsEndpoint for ObsEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        let mut snapshot = self.snapshot.lock();
        snapshot.refresh();
        Ok(snapshot.families().to_vec())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut snapshot = self.snapshot.lock();
        snapshot.refresh();
        visit(snapshot.families());
        Ok(())
    }
}

/// Configuration of one scrape target.
#[derive(Clone, Serialize, Deserialize)]
pub struct ScrapeTargetConfig {
    /// Job name (`sgx_exporter`, `ebpf_exporter`, `node_exporter`, `cadvisor`).
    pub job: String,
    /// Instance identifier, typically `<node>:<port>`.
    pub instance: String,
    /// Additional labels attached to every sample from this target (e.g. the
    /// Kubernetes node name).
    #[serde(default)]
    pub extra_labels: BTreeMap<String, String>,
    /// Per-target scrape interval in milliseconds; `None` follows the
    /// scraper's global interval.  Targets with a longer interval are skipped
    /// by [`Scraper::scrape_round_due`] until they are due again.
    #[serde(default)]
    pub interval_ms: Option<u64>,
    /// Cardinality budget: the most distinct series this target may hold in
    /// storage at once; `None` is unlimited.  Over-budget series are not
    /// created — their samples are counted into the
    /// `teemon_overflow_series_total` roll-up instead (see
    /// [`CardinalityBudgets`] for the per-job analogue and the admission
    /// rules).
    #[serde(default)]
    pub series_budget: Option<u64>,
}

impl ScrapeTargetConfig {
    /// Creates a target configuration.
    pub fn new(job: impl Into<String>, instance: impl Into<String>) -> Self {
        Self {
            job: job.into(),
            instance: instance.into(),
            extra_labels: BTreeMap::new(),
            interval_ms: None,
            series_budget: None,
        }
    }

    /// Caps how many distinct series this target may hold in storage (see
    /// [`ScrapeTargetConfig::series_budget`]).
    #[must_use]
    pub fn with_series_budget(mut self, budget: u64) -> Self {
        self.series_budget = Some(budget);
        self
    }

    /// Adds an extra label.
    #[must_use]
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_labels.insert(key.into(), value.into());
        self
    }

    /// Sets a per-target scrape interval.
    #[must_use]
    pub fn with_interval_ms(mut self, interval_ms: u64) -> Self {
        self.interval_ms = Some(interval_ms.max(1));
        self
    }

    /// Builds the merged target label set (`job`, `instance`, extras).  The
    /// scraper calls this **once at registration** and reuses the result
    /// every round — not per scrape.
    fn target_labels(&self) -> Labels {
        let mut labels =
            Labels::from_pairs([("job", self.job.clone()), ("instance", self.instance.clone())]);
        for (k, v) in &self.extra_labels {
            labels.insert(k.clone(), v.clone());
        }
        labels
    }
}

/// Result of scraping one target once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScrapeOutcome {
    /// Job of the target.
    pub job: String,
    /// Instance of the target.
    pub instance: String,
    /// `true` when the scrape succeeded.
    pub up: bool,
    /// Samples ingested.
    pub samples: u64,
    /// Scrape duration in seconds (also recorded as the
    /// `scrape_duration_seconds` meta-metric).  Measured from the monotonic
    /// clock by default; deterministic simulations opt into the sample-count
    /// model with [`Scraper::with_modelled_durations`].
    pub duration_seconds: f64,
    /// Collect, parse or transport error, when failed.
    pub error: Option<String>,
}

/// Shared per-**job** cardinality accounting, enforced at scrape-cache
/// repair time (the cold path — the warm positional round never touches it).
///
/// One instance is shared by every admission point that should draw from the
/// same pool: register it on a [`Scraper`] with [`Scraper::with_budgets`]
/// and on [`PushLane`]s with [`PushLane::with_budgets`].  A job with no
/// configured limit is unlimited.  The internal lock (`scrape.budgets`) is a
/// leaf: it is taken briefly at the start and end of a cache repair and is
/// never held across storage calls.
///
/// Admission is per *stored series*: when a target's cache repairs, its
/// series are admitted in snapshot order until either its own
/// [`ScrapeTargetConfig::series_budget`] or the job's remaining allowance is
/// exhausted; the rest become overflow entries — tracked by identity so the
/// warm round stays positional, but never created in storage.  Series that
/// vanish from the target release their admission at the next repair.
pub struct CardinalityBudgets {
    jobs: Mutex<HashMap<String, JobBudget>>,
}

#[derive(Default)]
struct JobBudget {
    limit: Option<u64>,
    used: u64,
}

impl CardinalityBudgets {
    /// Creates an empty budget table (every job unlimited until configured).
    pub fn new() -> Arc<Self> {
        Arc::new(Self { jobs: Mutex::named(HashMap::new(), LockClass::new("scrape.budgets")) })
    }

    /// Sets (or replaces) `job`'s series limit.
    pub fn set_job_limit(&self, job: impl Into<String>, limit: u64) {
        self.jobs.lock().entry(job.into()).or_default().limit = Some(limit);
    }

    /// Series currently admitted under `job` across every admission point.
    pub fn job_used(&self, job: &str) -> u64 {
        self.jobs.lock().get(job).map(|b| b.used).unwrap_or(0)
    }

    /// Allowance for one admission point that currently holds `prior`
    /// admitted series and is about to recompute its set: the job limit
    /// minus everyone *else's* usage (`u64::MAX` when unlimited).
    fn begin(&self, job: &str, prior: u64) -> u64 {
        let jobs = self.jobs.lock();
        match jobs.get(job).and_then(|b| b.limit.map(|l| (l, b.used))) {
            Some((limit, used)) => limit.saturating_sub(used.saturating_sub(prior)),
            None => u64::MAX,
        }
    }

    /// Replaces an admission point's contribution: `prior` series released,
    /// `now` admitted.
    fn commit(&self, job: &str, prior: u64, now: u64) {
        let mut jobs = self.jobs.lock();
        let budget = jobs.entry(job.to_string()).or_default();
        budget.used = budget.used.saturating_sub(prior).saturating_add(now);
    }

    /// Releases an admission point's whole contribution (target removed,
    /// lane dropped).
    fn release(&self, job: &str, prior: u64) {
        if prior == 0 {
            return;
        }
        let mut jobs = self.jobs.lock();
        if let Some(budget) = jobs.get_mut(job) {
            budget.used = budget.used.saturating_sub(prior);
        }
    }
}

/// What a target is scraped through.
enum Source {
    /// Typed snapshots, walked as the endpoint hands them over.
    Typed(Arc<dyn MetricsEndpoint>),
    /// An exposition document, parsed and walked as a push is.
    Text(Arc<dyn TextSource>),
}

struct Target {
    config: ScrapeTargetConfig,
    source: Source,
    /// The target's ingest lane.
    lane: Mutex<Lane>,
    /// Virtual time of the last scrape; `u64::MAX` = never scraped.
    last_scrape_ms: AtomicU64,
}

const NEVER: u64 = u64::MAX;

/// One cached wire sample of a target: the sample's structural identity as
/// the exporter emits it, the storage key (exporter labels merged with the
/// target labels) and the resolved series handle.
struct CacheEntry {
    key: SeriesKey,
    merged: Labels,
    handle: SeriesHandle,
    /// Whether this series fit its target/job cardinality budget at the last
    /// repair.  Unadmitted entries keep their wire identity (so the warm
    /// mode stays intact) but carry an unresolved handle, never reach the
    /// batch, and count as overflow instead.
    admitted: bool,
    /// The series bytes a text line last spelled this sample with
    /// (`name{…}` as sent); empty until a line claims the entry.
    raw: String,
}

/// One wire sample as a cache walk meets it: its identity in whichever form
/// the round holds it.
enum Wire<'w> {
    /// A typed sample — a snapshot's, or a histogram or summary sample a
    /// text round's parse folded: the identity itself.  Two samples render
    /// to equal bytes exactly when their identities are equal, so nothing is
    /// rendered to match one.
    Typed(&'w str, &'w Labels),
    /// A text line of a counter, gauge or untyped family: its series bytes
    /// as sent; the label set is built only on a miss.
    Line(&'w SampleLine<'w>),
}

impl Wire<'_> {
    /// Whether `entry` is this sample's series, by the cheapest test that
    /// decides it: the cached identity for a typed sample, one byte compare
    /// against the spelling the entry last saw for a line (equal bytes parse
    /// to equal identities).
    fn hits(&self, entry: &CacheEntry) -> bool {
        match self {
            Wire::Typed(name, labels) => entry.key.matches(name, labels),
            Wire::Line(line) => entry.raw == line.series(),
        }
    }

    /// Runs `f` over the sample's structural identity, building a line's
    /// label set for it.
    fn with_identity<R>(&self, f: impl FnOnce(&str, &Labels) -> R) -> R {
        match self {
            Wire::Typed(name, labels) => f(name, labels),
            Wire::Line(line) => f(line.name(), &line.labels()),
        }
    }
}

/// What a cache walk reads a round from: a scrape target's typed snapshots
/// or a parsed text document, pushed or fetched.
trait WireSource {
    /// Calls `visit` once per wire sample, in the order the round's samples
    /// are stored: families in order, each family's samples in order.
    fn each(&self, visit: impl FnMut(Wire<'_>, f64, Option<u64>));
}

impl WireSource for [FamilySnapshot] {
    fn each(&self, mut visit: impl FnMut(Wire<'_>, f64, Option<u64>)) {
        for family in self {
            family.for_each_sample(|name, labels, value, timestamp_ms| {
                visit(Wire::Typed(name, labels), value, timestamp_ms);
            });
        }
    }
}

impl WireSource for Exposition<'_> {
    /// Families by first appearance; a counter, gauge or untyped family's
    /// lines in document order, a folded family's samples as its snapshot
    /// visits them — the order of [`Exposition::to_snapshots`].
    fn each(&self, mut visit: impl FnMut(Wire<'_>, f64, Option<u64>)) {
        for family in self.families() {
            match family.folded() {
                Some(snapshot) => snapshot.for_each_sample(|name, labels, value, timestamp_ms| {
                    visit(Wire::Typed(name, labels), value, timestamp_ms);
                }),
                None => {
                    for line in family.lines() {
                        visit(Wire::Line(line), line.value(), line.timestamp_ms());
                    }
                }
            }
        }
    }
}

/// The per-lane scrape cache: one [`CacheEntry`] per wire sample in
/// snapshot order, plus the reusable batch buffer handed to
/// [`TimeSeriesDb::append_batch`].  Steady state, the cache turns a round
/// into: one equality check per sample against the entry at its position,
/// one batch append.  Any churn — a series appearing, vanishing or moving —
/// fails the positional check and [`Lane::walk`] runs again as the repair,
/// which reuses every surviving entry and resolves only what changed.
#[derive(Default)]
struct TargetCache {
    entries: Vec<CacheEntry>,
    batch: Vec<(SeriesHandle, u64, f64)>,
    /// Batch position → entry index.  Unadmitted entries are skipped when
    /// the batch fills, so batch position and entry index diverge as soon as
    /// a budget clips the lane; stale-handle repair maps through this.
    batch_entry: Vec<u32>,
    /// The repair's index of unclaimed entries.  Kept here so that a repair
    /// clears it instead of allocating a new one.
    index: Unclaimed,
    /// Handles of the series a round writes about the lane itself, kept
    /// beside the cache so that those samples skip key hashing and the key
    /// index the way data samples do.
    meta: MetaHandles,
}

/// The handles of a lane's [`META_NAMES`] series, each resolved the first
/// time the series is written.
type MetaHandles = [Option<SeriesHandle>; META_NAMES.len()];

/// What one [`Lane::ingest`] moved: wire samples seen, samples storage
/// accepted, budget-clipped samples this round and cumulatively, and the
/// time its batch append took.
#[derive(Default)]
struct IngestStats {
    scraped: u64,
    ingested: u64,
    overflow: u64,
    overflow_total: u64,
    append_ns: u64,
}

/// The one ingest lane: what a scrape target and a [`PushLane`] both hold
/// between rounds, and the one copy of the sequence a round runs through
/// them — cache walk, batch append, stale-handle repair, overflow
/// accounting.  Whether the round was pulled or pushed, typed or text, only
/// decides the [`WireSource`] it walks and the meta samples its caller
/// writes afterwards.
struct Lane {
    job: String,
    /// `job`/`instance`/extra labels, merged once at registration.
    base_labels: Labels,
    /// The lane's own cap on admitted series.
    target_limit: Option<u64>,
    /// The job pool the lane's admissions are committed to, if any; the
    /// lane gives them back to it when dropped.
    budgets: Option<Arc<CardinalityBudgets>>,
    cache: TargetCache,
    /// Series currently admitted — this lane's contribution to its job's
    /// shared budget.
    admitted: u64,
    /// Cumulative overflow samples (matched the cache, rejected by budget)
    /// across the lane's lifetime — the `teemon_overflow_series_total`
    /// roll-up value.
    overflow_total: u64,
}

impl Lane {
    fn new(config: &ScrapeTargetConfig, budgets: Option<Arc<CardinalityBudgets>>) -> Self {
        Self {
            job: config.job.clone(),
            base_labels: config.target_labels(),
            target_limit: config.series_budget,
            budgets,
            cache: TargetCache::default(),
            admitted: 0,
            overflow_total: 0,
        }
    }

    /// Ingests one round read from `source`, stamping unstamped samples with
    /// `now_ms`: the identity walk (timed as the cache-walk stage), then the
    /// batch append with its stale-handle repair, then the overflow count.
    fn ingest<S: WireSource + ?Sized>(
        &mut self,
        db: &TimeSeriesDb,
        source: &S,
        now_ms: u64,
    ) -> IngestStats {
        let walk_watch = Stopwatch::start();
        let (scraped, overflow) = match self.walk::<false, _>(db, source, now_ms) {
            Some(walked) => {
                probes::CACHE_HITS.inc();
                walked
            }
            None => {
                probes::CACHE_REBUILDS.inc();
                self.walk::<true, _>(db, source, now_ms).unwrap_or_default()
            }
        };
        probes::SCRAPE_CACHE_WALK_NS.record_ns(walk_watch.elapsed_ns());
        let append_watch = Stopwatch::start();
        let TargetCache { entries, batch, batch_entry, .. } = &mut self.cache;
        let ingested = append_batch_repairing(db, batch, batch_entry, entries.as_mut_slice());
        let append_ns = append_watch.elapsed_ns();
        if overflow > 0 {
            self.overflow_total += overflow;
            probes::SCRAPE_BUDGET_REJECTED.add(overflow);
        }
        IngestStats { scraped, ingested, overflow, overflow_total: self.overflow_total, append_ns }
    }

    /// Writes the lane's own series ([`META_NAMES`]; `None` writes nothing
    /// to one) at `now_ms`, labelled with the target labels, as one small
    /// batch through [`append_batch_repairing`], as the data batch is.
    fn append_meta(
        &mut self,
        db: &TimeSeriesDb,
        now_ms: u64,
        values: [Option<f64>; META_NAMES.len()],
    ) {
        let labels = &self.base_labels;
        let mut batch = [(SeriesHandle::unresolved(), now_ms, 0.0); META_NAMES.len()];
        let mut batch_entry = [0u32; META_NAMES.len()];
        let mut len = 0;
        let slots = values.iter().zip(&mut self.cache.meta).zip(META_NAMES).zip(0u32..);
        for (((value, handle), name), at) in slots {
            let Some(value) = *value else { continue };
            let handle = *handle.get_or_insert_with(|| db.resolve(name, labels));
            if let (Some(slot), Some(entry)) = (batch.get_mut(len), batch_entry.get_mut(len)) {
                (*slot, *entry) = ((handle, now_ms, value), at);
                len += 1;
            }
        }
        let batch = batch.get(..len).unwrap_or_default();
        let batch_entry = batch_entry.get(..len).unwrap_or_default();
        append_batch_repairing(db, batch, batch_entry, &mut (&mut self.cache.meta, labels));
    }

    /// The cache walk: one pass over the round that matches every wire
    /// sample to its entry and fills `batch` — what it pushes, its batch
    /// index's entry, the clipped count — in one of two modes.  Returns the
    /// wire samples seen and the matched-but-unadmitted ones the round's
    /// budget clipped.
    ///
    /// The **warm** mode (`REPAIR` false) verifies each sample against the
    /// entry at its position and keeps that entry's admission as its last
    /// repair decided it: no generation is checked, no budget read.  At the
    /// first miss, or when the round is shorter or longer than the cache, it
    /// returns `None` without having touched storage.  It allocates nothing
    /// once `batch` has grown.
    ///
    /// The **repair** mode (`REPAIR` true), run after the warm mode missed,
    /// re-matches every sample, re-admits in snapshot order and refills
    /// `batch`, at a cost proportional to what changed.  The entry list is
    /// repaired **in place**.  Below the cursor it holds this round's
    /// entries, from the cursor on the previous round's entries nobody has
    /// claimed yet.  Each sample is tried against the entry at its own
    /// position first — a rename in place, the Kubernetes pattern,
    /// re-matches every unrenamed neighbour with the warm mode's one
    /// equality check and nothing hashed.  A line that misses there by its
    /// bytes has its label set built and is tried once more by identity (the
    /// same series, spelled another way).  Only then is `index` consulted,
    /// the structural-hash index of the unclaimed entries, built on the
    /// first miss; a hit there is swapped into place (a reorder, or a shift
    /// after an insert or delete).  Only a sample that matches nothing pays
    /// the label merge ([`stored_labels`]), the key capture and
    /// [`TimeSeriesDb::resolve`].  Whatever an entry displaces moves further
    /// back, still unclaimed; what is left past the cursor at the end
    /// vanished from the source and is dropped.  Every entry is claimed at
    /// most once, so samples sharing one identity each get an entry of their
    /// own.  An entry a line claimed takes that line's spelling.
    ///
    /// The repair is also the admission point of the cardinality defense:
    /// series are admitted in snapshot order until the lane's own budget or
    /// the job's shared allowance runs out, and only admitted series ever
    /// touch [`TimeSeriesDb::resolve`] — an over-budget series is never
    /// created in storage.  Surviving handles are validated against one
    /// generation snapshot and re-resolved when their shard moved on.  The
    /// shared-budget lock is taken once before the walk (to read the
    /// allowance) and once after (to commit the new contribution), never
    /// across storage calls.
    fn walk<const REPAIR: bool, S: WireSource + ?Sized>(
        &mut self,
        db: &TimeSeriesDb,
        source: &S,
        now_ms: u64,
    ) -> Option<(u64, u64)> {
        let Self {
            job, base_labels, target_limit, budgets, cache, admitted: lane_admitted, ..
        } = self;
        let prior = *lane_admitted;
        let (cap, generations) = if REPAIR {
            let allowance = budgets.as_ref().map_or(u64::MAX, |shared| shared.begin(job, prior));
            (target_limit.unwrap_or(u64::MAX).min(allowance), db.shard_generations())
        } else {
            (u64::MAX, Default::default())
        };
        let TargetCache { entries, batch, batch_entry, index, .. } = cache;
        batch.clear();
        batch_entry.clear();
        if REPAIR {
            index.clear();
        }
        let (mut indexed, mut missed) = (false, false);
        let mut cursor = 0usize;
        let mut admitted = 0u64;
        let mut clipped = 0u64;
        source.each(|wire, value, timestamp_ms| {
            let position = cursor;
            cursor += 1;
            if missed {
                return;
            }
            if REPAIR {
                if !entries.get(position).is_some_and(|e| wire.hits(e)) {
                    wire.with_identity(|name, labels| {
                        if entries.get(position).is_some_and(|e| e.key.matches(name, labels)) {
                            return;
                        }
                        if !indexed {
                            // Back to front, so that of several entries sharing
                            // one identity the earliest is claimed first.
                            for (at, entry) in entries.iter().enumerate().skip(position).rev() {
                                index.insert(entry.key.hash(), at);
                            }
                            indexed = true;
                        }
                        let hash = identity::series_hash(name, labels);
                        let found = index.claim(hash, position, |at| {
                            entries.get(at).is_some_and(|e| e.key.matches(name, labels))
                        });
                        // The sample's entry is the one found further back, or a
                        // fresh one appended there; swapped into place, whatever
                        // it displaces takes its spot, still unclaimed, and is
                        // indexed where it now stands.
                        let from = found.unwrap_or_else(|| {
                            entries.push(CacheEntry {
                                key: SeriesKey::capture(name, labels),
                                merged: stored_labels(labels, base_labels),
                                handle: SeriesHandle::unresolved(),
                                admitted: false,
                                raw: String::new(),
                            });
                            entries.len() - 1
                        });
                        entries.swap(position, from);
                        if let Some(displaced) = entries.get(from).filter(|_| from != position) {
                            index.insert(displaced.key.hash(), from);
                        }
                    });
                    if let (Wire::Line(line), Some(entry)) = (&wire, entries.get_mut(position)) {
                        entry.raw.clear();
                        entry.raw.push_str(line.series());
                    }
                }
                if let Some(entry) = entries.get_mut(position) {
                    entry.admitted = admitted < cap;
                    admitted += u64::from(entry.admitted);
                    if !entry.admitted {
                        entry.handle = SeriesHandle::unresolved();
                    } else if !db.handle_live_under(entry.handle, &generations) {
                        entry.handle = db.resolve(entry.key.name(), &entry.merged);
                    }
                }
            }
            // The one hit path; the repair has just put this sample's entry
            // in place.
            match entries.get(position) {
                Some(entry) if REPAIR || wire.hits(entry) => {
                    if entry.admitted {
                        batch.push((entry.handle, timestamp_ms.unwrap_or(now_ms), value));
                        batch_entry.push(position as u32);
                    } else {
                        clipped += 1;
                    }
                }
                _ => missed = true,
            }
        });
        if !REPAIR {
            return (!missed && cursor == entries.len()).then_some((cursor as u64, clipped));
        }
        entries.truncate(cursor);
        if let Some(shared) = budgets {
            shared.commit(job, prior, admitted);
        }
        *lane_admitted = admitted;
        Some((cursor as u64, clipped))
    }
}

impl Drop for Lane {
    /// The one place admissions go back to the job pool: a removed target's
    /// lane and a closed push lane both end here.  The series themselves
    /// stay in storage for retention to age out.
    fn drop(&mut self) {
        if let Some(budgets) = &self.budgets {
            budgets.release(&self.job, self.admitted);
        }
    }
}

/// The label set a wire sample is stored under: its own labels with the
/// target labels merged over them.  A wire label whose name a target label
/// takes with a **different** value is kept as `exported_<name>` (prefixed
/// again while that name is taken), Prometheus' `honor_labels: false` rule,
/// so two wire series that differ only in such a label stay two stored
/// series.  A wire label whose value equals the target's is merged into it
/// unrenamed, where Prometheus would rename it too: the exporters label
/// their samples with the same `node` their target sets, and renaming it
/// would give every such series a redundant `exported_node` and change the
/// key of every series stored so far.
fn stored_labels(wire: &Labels, target: &Labels) -> Labels {
    let mut stored = wire.merged(target);
    for (name, value) in target.iter() {
        let Some(sent) = wire.get(name).filter(|sent| *sent != value) else { continue };
        let mut exported = format!("exported_{name}");
        while stored.get(&exported).is_some() {
            exported.insert_str(0, "exported_");
        }
        stored.insert(exported, sent);
    }
    stored
}

/// End of a chain in [`Unclaimed`].
const NIL: u32 = u32::MAX;

/// The repair pass's index of the previous round's entries nobody has claimed
/// yet: per structural hash, a singly linked chain of entry positions.
///
/// The repair claims positions in ascending order, so a node whose position
/// lies below the sample being matched is spent — its entry was claimed where
/// it stood, or displaced and indexed again at its new position — and
/// [`Unclaimed::claim`] unlinks every spent node it passes.  Each node is
/// therefore visited at most once while spent and every other node of a chain
/// is an unclaimed entry with that very hash, so a lookup costs one step
/// however many entries share an identity (true hash collisions aside), and a
/// whole repair walks no more nodes than it inserted plus one per lookup.
#[derive(Default)]
struct Unclaimed {
    /// Structural hash → first position of its chain (`NIL` once emptied).
    heads: HashMap<u64, u32>,
    /// Entry position → the next position in the same chain.
    next: Vec<u32>,
    /// Chain nodes visited since the last `clear`: the work meter the
    /// duplicate-identity tests bound.
    walked: u64,
}

impl Unclaimed {
    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
        self.walked = 0;
    }

    /// Puts the unclaimed entry at position `at` at the head of `hash`'s
    /// chain.
    fn insert(&mut self, hash: u64, at: usize) {
        if at >= self.next.len() {
            self.next.resize(at + 1, NIL);
        }
        let after = self.heads.insert(hash, at as u32).unwrap_or(NIL);
        if let Some(slot) = self.next.get_mut(at) {
            *slot = after;
        }
    }

    /// Unlinks and returns the first position of `hash`'s chain that is not
    /// spent (`>= position`, the sample being matched) and that `is_match`
    /// confirms.
    fn claim(
        &mut self,
        hash: u64,
        position: usize,
        mut is_match: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let Self { heads, next, walked } = self;
        let head = heads.get_mut(&hash)?;
        let mut before = None;
        let mut at = *head;
        while at != NIL {
            *walked += 1;
            let after = next.get(at as usize).copied().unwrap_or(NIL);
            let spent = (at as usize) < position;
            let found = !spent && is_match(at as usize);
            if spent || found {
                match before.and_then(|before: u32| next.get_mut(before as usize)) {
                    Some(link) => *link = after,
                    None => *head = after,
                }
            } else {
                before = Some(at);
            }
            if found {
                return Some(at as usize);
            }
            at = after;
        }
        None
    }
}

/// Where the series of a batch handed to [`append_batch_repairing`] live:
/// at each position a batch index maps to, the key the series is stored
/// under and the handle its sample was appended through.
trait BatchSeries {
    fn series(&mut self, at: usize) -> Option<(&str, &Labels, &mut SeriesHandle)>;
}

/// A data batch: positions are cache entries.
impl BatchSeries for [CacheEntry] {
    fn series(&mut self, at: usize) -> Option<(&str, &Labels, &mut SeriesHandle)> {
        let entry = self.get_mut(at)?;
        Some((entry.key.name(), &entry.merged, &mut entry.handle))
    }
}

/// A meta batch: positions index [`META_NAMES`], all under one label set.
impl BatchSeries for (&mut MetaHandles, &Labels) {
    fn series(&mut self, at: usize) -> Option<(&str, &Labels, &mut SeriesHandle)> {
        Some((META_NAMES.get(at)?, self.1, self.0.get_mut(at)?.as_mut()?))
    }
}

/// Appends `batch` through [`TimeSeriesDb::append_batch`] and repairs every
/// stale handle: a sample whose series was evicted or dropped after its
/// handle was resolved goes in by key — which re-creates the series if need
/// be and cannot be stale, so a stale handle may cost extra work but never
/// loses a sample — and the key is re-resolved into the handle for the next
/// round.  `batch_entry` maps a batch index to its position in `series`.
/// Returns the number of samples storage accepted.  The one append of every
/// batch a lane writes, its data and its meta series alike.
fn append_batch_repairing(
    db: &TimeSeriesDb,
    batch: &[(SeriesHandle, u64, f64)],
    batch_entry: &[u32],
    series: &mut (impl BatchSeries + ?Sized),
) -> u64 {
    let mut outcome = db.append_batch(batch);
    let mut ingested = outcome.appended;
    // Stale indices come back in no particular order; in batch order the
    // dropped series are re-created in the order a round first creates
    // them, as a per-sample ingest would.
    outcome.stale.sort_unstable();
    for &index in &outcome.stale {
        // The get-based destructuring keeps the round panic-free even if the
        // batch and its map ever disagreed.
        let at = batch_entry.get(index).map(|&at| at as usize);
        let (Some(&(_, timestamp_ms, value)), Some((name, labels, handle))) =
            (batch.get(index), at.and_then(|at| series.series(at)))
        else {
            continue;
        };
        ingested += u64::from(db.append(name, labels, timestamp_ms, value));
        *handle = db.resolve(name, labels);
    }
    ingested
}

/// The series a round writes about its target, in the order a target's
/// first rounds create them (the by-key reference in `tests/support`
/// creates them in this order too).
const META_NAMES: [&str; 5] = [
    "up",
    "scrape_duration_seconds",
    "scrape_samples_scraped",
    "scrape_samples_added",
    "teemon_overflow_series_total",
];

/// Outcome of one [`PushLane::push`] round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushOutcome {
    /// Wire samples the pushed families contained.
    pub scraped: u64,
    /// Samples storage accepted (out-of-order samples are rejected).
    pub ingested: u64,
    /// Samples clipped by a cardinality budget this round (their series were
    /// not admitted to storage).
    pub overflow: u64,
}

/// The push-ingest entry: remote-write batches flow into storage through the
/// **same lane** a scrape target uses.
///
/// A remote writer behaves exactly like a scrape target seen from storage's
/// side: it sends the same series set batch after batch, so the cache's
/// positional verify + one-shard-lock-per-round [`TimeSeriesDb::append_batch`]
/// apply unchanged.  A push arrives as text, so the lane matches each
/// counter, gauge or untyped line by its raw series bytes
/// ([`SampleLine::series`], `name{…}` exactly as sent) against the bytes the
/// entry at its position last saw — one compare, the way Prometheus' scrape
/// cache keys by the series text — and only a line that misses has its label
/// set built and goes through the structural repair.  A histogram or summary
/// family, which the parse folds, is matched sample by sample by identity,
/// as a typed target's samples are; nothing is rendered.  A warm push
/// therefore builds no label set and makes no allocation.  Create **one lane per connection** (the cache assumes
/// rounds from a single emitter; interleaving two writers through one lane
/// would thrash the positional check into repairs — correct, but slow).
/// The lane is deliberately not `Sync`: it is owned, mutable state.
///
/// Durability: pushes ride the database's normal WAL round — they become
/// durable at the next [`TimeSeriesDb::wal_flush`] (the scrape driver's
/// per-round flush, or the serving edge's graceful-drain flush).  Where
/// neither comes — a push-only server — staging is still bounded: the push
/// that takes a shard's staged records past 256 KiB commits the round
/// itself on its way out of [`TimeSeriesDb::append_batch`], so at most that
/// much per shard waits for the drain.
pub struct PushLane {
    db: TimeSeriesDb,
    lane: Lane,
}

impl PushLane {
    /// Creates a lane feeding `db`, attaching `config`'s
    /// `job`/`instance`/extra labels to every pushed sample (merged once
    /// here, like a registered scrape target).  The config's
    /// [`series_budget`](ScrapeTargetConfig::series_budget) caps the lane's
    /// own series set.
    pub fn new(db: TimeSeriesDb, config: &ScrapeTargetConfig) -> Self {
        Self { db, lane: Lane::new(config, None) }
    }

    /// Draws this lane's admissions from `budgets`'s shared per-job pool (on
    /// top of the lane's own per-config budget).  The lane releases its
    /// contribution when dropped.
    #[must_use]
    pub fn with_budgets(mut self, budgets: Arc<CardinalityBudgets>) -> Self {
        self.lane.budgets = Some(budgets);
        self
    }

    /// Ingests one pushed document, as [`exposition::parse_families_bounded`]
    /// read it, stamping unstamped samples with `now_ms`.  Samples are stored
    /// in the order of the document's [`Exposition::to_snapshots`].  Steady
    /// state (the same series lines as the previous push) this is the
    /// allocation-free fast path; churn triggers the same
    /// handle-reusing cache repair a scrape target pays — including budget
    /// admission: over-budget series are clipped into
    /// [`PushOutcome::overflow`] instead of entering storage.
    pub fn push(&mut self, doc: &Exposition<'_>, now_ms: u64) -> PushOutcome {
        let IngestStats { scraped, ingested, overflow, overflow_total, append_ns } =
            self.lane.ingest(&self.db, doc, now_ms);
        let meta_watch = Stopwatch::start();
        if overflow_total > 0 {
            // Cumulative roll-up series so the clipped tail stays observable
            // (and alertable) without creating one series per rejected key —
            // through a cached handle, like the scrape meta-metrics.
            let rollup = Some(overflow_total as f64);
            self.lane.append_meta(&self.db, now_ms, [None, None, None, None, rollup]);
        }
        probes::SCRAPE_APPEND_NS.record_ns(append_ns + meta_watch.elapsed_ns());
        PushOutcome { scraped, ingested, overflow }
    }

    /// The job this lane pushes under.
    pub fn job(&self) -> &str {
        &self.lane.job
    }
}

/// What one scrape round did, in aggregate — the allocation-free counterpart
/// of a `Vec<ScrapeOutcome>`, returned by [`Scraper::scrape_round`] /
/// [`Scraper::scrape_round_due`] for callers (like the monitor loops) that
/// don't need per-target details.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundSummary {
    /// Targets scraped this round.
    pub targets: usize,
    /// Targets that were up.
    pub healthy: usize,
    /// Wire samples the targets exposed.
    pub samples_scraped: u64,
    /// Samples storage accepted.
    pub samples_added: u64,
}

/// Per-target result of one round, before any strings are cloned for the
/// public [`ScrapeOutcome`].
struct TargetRound {
    up: bool,
    scraped: u64,
    ingested: u64,
    duration_seconds: f64,
    error: Option<String>,
}

/// The scrape manager: a set of targets feeding one [`TimeSeriesDb`].
#[derive(Clone)]
pub struct Scraper {
    db: TimeSeriesDb,
    targets: Arc<RwLock<Vec<Target>>>,
    scrape_interval_ms: u64,
    /// Charge `scrape_duration_seconds` from the sample-count model instead
    /// of the monotonic clock (see [`Scraper::with_modelled_durations`]).
    modelled_durations: bool,
    budgets: Option<Arc<CardinalityBudgets>>,
}

impl Scraper {
    /// Default scrape interval: the paper queries exporters every 5 seconds.
    pub const DEFAULT_INTERVAL_MS: u64 = 5_000;

    /// Creates a scraper feeding `db`.
    pub fn new(db: TimeSeriesDb) -> Self {
        Self {
            db,
            // Lock order during a round: targets (read) → target cache →
            // storage shard; registered with the audit under those names.
            targets: Arc::new(RwLock::named(Vec::new(), LockClass::new("scrape.targets"))),
            scrape_interval_ms: Self::DEFAULT_INTERVAL_MS,
            modelled_durations: false,
            budgets: None,
        }
    }

    /// Registers a shared [`CardinalityBudgets`] pool: every target's cache
    /// repair draws its admissions from its job's pool (on top of any
    /// per-target [`ScrapeTargetConfig::series_budget`]).
    #[must_use]
    pub fn with_budgets(mut self, budgets: Arc<CardinalityBudgets>) -> Self {
        self.budgets = Some(budgets);
        self
    }

    /// Sets the scrape interval in milliseconds.
    #[must_use]
    pub fn with_interval_ms(mut self, interval_ms: u64) -> Self {
        self.scrape_interval_ms = interval_ms.max(1);
        self
    }

    /// Charges `scrape_duration_seconds` from the deterministic sample-count
    /// model (a base cost plus a per-sample cost) instead of the monotonic
    /// clock's wall time.  Simulations run on virtual time and two identical
    /// runs must produce identical database contents, which host wall-clock
    /// readings would break; a live monitor keeps the measured default, the
    /// clock the span timers feeding `teemon_scrape_round_seconds` use.
    #[must_use]
    pub fn with_modelled_durations(mut self) -> Self {
        self.modelled_durations = true;
        self
    }

    /// The configured scrape interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.scrape_interval_ms
    }

    /// The database being fed.
    pub fn db(&self) -> &TimeSeriesDb {
        &self.db
    }

    /// Registers a typed scrape target.  The target's `job`/`instance`/extra
    /// labels are merged once here; scrape rounds reuse the merged set.
    pub fn add_target(&self, config: ScrapeTargetConfig, endpoint: Arc<dyn MetricsEndpoint>) {
        self.register(config, Source::Typed(endpoint));
    }

    fn register(&self, config: ScrapeTargetConfig, source: Source) {
        let lane = Lane::new(&config, self.budgets.clone());
        self.targets.write().push(Target {
            config,
            source,
            lane: Mutex::named(lane, LockClass::new("scrape.target_cache")),
            last_scrape_ms: AtomicU64::new(NEVER),
        });
    }

    /// Registers a raw-text target (the inbound wire-format edge).  Each
    /// round parses the fetched document and walks it as a push is walked:
    /// lines matched by their bytes, stored in the order of the document's
    /// [`Exposition::to_snapshots`].
    pub fn add_text_source(&self, config: ScrapeTargetConfig, source: Arc<dyn TextSource>) {
        self.register(config, Source::Text(source));
    }

    /// Registers the engine's own telemetry as a scrape target (job
    /// `teemon_self`): every round thereafter snapshots the probes —
    /// scrape-stage timings, shard heat, lock contention, query stats —
    /// into this database, where TeeQL, dashboards and alert rules see them
    /// like any other job.
    pub fn add_self_target(&self, instance: impl Into<String>) {
        self.add_target(
            ScrapeTargetConfig::new(teemon_obs::SELF_JOB, instance),
            Arc::new(ObsEndpoint::new()),
        );
    }

    /// Removes every target whose instance equals `instance` (e.g. a node that
    /// left the cluster).  Returns how many targets were removed.
    pub fn remove_instance(&self, instance: &str) -> usize {
        let mut targets = self.targets.write();
        let before = targets.len();
        // A dropped target's lane gives its admissions back to the job pool.
        targets.retain(|t| t.config.instance != instance);
        before - targets.len()
    }

    /// Number of registered targets.
    pub fn target_count(&self) -> usize {
        self.targets.read().len()
    }

    /// Scrapes every target once, regardless of per-target intervals,
    /// stamping samples with `now_ms`.
    pub fn scrape_once(&self, now_ms: u64) -> Vec<ScrapeOutcome> {
        let mut outcomes = Vec::new();
        self.drive(now_ms, false, |target, round| outcomes.push(Self::outcome(target, round)));
        outcomes
    }

    /// Like [`Scraper::scrape_once`], but folds the round into a
    /// [`RoundSummary`] instead of materialising per-target outcomes.  This
    /// is the monitoring loop's path: a steady-state round performs zero
    /// heap allocations end to end, whatever the family kind (proved by
    /// `tests/alloc_free_scrape.rs`).
    pub fn scrape_round(&self, now_ms: u64) -> RoundSummary {
        self.round(now_ms, false)
    }

    /// Scrapes every target that is due at `now_ms` — never-scraped targets
    /// are always due, others when their per-target interval (falling back to
    /// the scraper's global interval) has elapsed — and folds the round into
    /// a [`RoundSummary`] like [`Scraper::scrape_round`].  The interval-gated
    /// monitor loops run on this.
    pub fn scrape_round_due(&self, now_ms: u64) -> RoundSummary {
        self.round(now_ms, true)
    }

    fn due(&self, target: &Target, now_ms: u64) -> bool {
        let last = target.last_scrape_ms.load(Ordering::Relaxed);
        let interval = target.config.interval_ms.unwrap_or(self.scrape_interval_ms);
        last == NEVER || now_ms.saturating_sub(last) >= interval
    }

    fn round(&self, now_ms: u64, due_only: bool) -> RoundSummary {
        let mut summary = RoundSummary::default();
        self.drive(now_ms, due_only, |_, round| {
            summary.targets += 1;
            summary.healthy += usize::from(round.up);
            summary.samples_scraped += round.scraped;
            summary.samples_added += round.ingested;
        });
        summary
    }

    /// The one scrape-round driver behind `scrape_once` and the round
    /// summaries: iterates targets (optionally due-gated), scrapes
    /// each, hands the result to `sink`, and records the storage
    /// self-monitoring gauges when at least one target was touched.
    fn drive(&self, now_ms: u64, due_only: bool, mut sink: impl FnMut(&Target, TargetRound)) {
        let round_watch = Stopwatch::start();
        let targets = self.targets.read();
        let mut scraped_any = false;
        for target in targets.iter() {
            if due_only && !self.due(target, now_ms) {
                continue;
            }
            let round = self.scrape_target(target, now_ms);
            scraped_any = true;
            sink(target, round);
        }
        if scraped_any {
            self.publish_storage_stats();
            // Make the round durable before declaring it done: one WAL flush
            // per scrape round (no-op on volatile databases).  The scrape
            // driver is the single flusher the WAL's crash-exactness
            // contract is defined for.  An unclean flush means a write or
            // fsync error lost this round's durability — count it so
            // EveryCommit deployments see the loss when it happens (the
            // `teemon_wal_unclean` self-alert fires on the counter) instead
            // of the round being acked silently.
            if !self.db.wal_flush() {
                probes::WAL_UNCLEAN_ROUNDS.inc();
            }
            probes::SCRAPE_ROUNDS.inc();
            probes::SCRAPE_ROUND_NS.record_ns(round_watch.elapsed_ns());
        }
    }

    fn outcome(target: &Target, round: TargetRound) -> ScrapeOutcome {
        ScrapeOutcome {
            job: target.config.job.clone(),
            instance: target.config.instance.clone(),
            up: round.up,
            samples: round.ingested,
            duration_seconds: round.duration_seconds,
            error: round.error,
        }
    }

    /// Self-monitoring: publishes the storage engine's own footprint into
    /// the `teemon_obs` gauges after every scrape round that touched at
    /// least one target, so chunk-compression wins
    /// (`teemon_tsdb_bytes_per_sample` vs the 16-byte raw sample) and shard
    /// imbalance are observable from inside the system.  The gauges reach
    /// the database through the self-scrape target ([`ObsEndpoint`]) rather
    /// than ad-hoc appends, so they carry proper target labels and flow
    /// through the same ingest path as every other metric.  (`samples` and
    /// `series` are gauges, not `_total`s: retention makes them go down, so
    /// counter names would bait bogus `rate()` queries.)
    fn publish_storage_stats(&self) {
        let census = self.db.census();
        let stats = &census.stats;
        probes::STORAGE_RESIDENT_BYTES.set(stats.resident_bytes as f64);
        probes::STORAGE_HEAD_BYTES.set(census.head_bytes as f64);
        probes::STORAGE_SAMPLES.set(stats.samples as f64);
        probes::STORAGE_BYTES_PER_SAMPLE.set(stats.bytes_per_sample());
        probes::STORAGE_SERIES.set(stats.series as f64);
        probes::STORAGE_REJECTED_SAMPLES.set(stats.rejected_samples as f64);
        probes::STORAGE_SYMBOLS.set(stats.symbols as f64);
        probes::STORAGE_SYMBOL_BYTES.set(stats.symbol_bytes as f64);
        probes::STORAGE_INDEX_BYTES.set(stats.index_bytes as f64);
        probes::STORAGE_SERIES_BYTES.set(stats.series_bytes as f64);
        for (shard, count) in census.shard_series.iter().enumerate() {
            probes::SHARD_SERIES.set(shard, *count as f64);
        }
        for (shard, generation) in census.shard_generations.iter().enumerate() {
            probes::SHARD_GENERATIONS.set(shard, *generation as f64);
        }
    }

    /// Modelled base duration of one scrape in seconds (connection setup and
    /// metadata handling) plus a per-sample cost: what
    /// [`Scraper::with_modelled_durations`] charges.
    const SCRAPE_BASE_SECONDS: f64 = 500e-6;
    const SCRAPE_PER_SAMPLE_SECONDS: f64 = 2e-6;

    fn scrape_target(&self, target: &Target, now_ms: u64) -> TargetRound {
        let watch = Stopwatch::start();
        let result = self.ingest(target, now_ms);
        target.last_scrape_ms.store(now_ms, Ordering::Relaxed);
        let (up, stats, error) = match result {
            Ok(stats) => (true, stats, None),
            Err(error) => (false, IngestStats::default(), Some(error.to_string())),
        };
        let IngestStats { scraped, ingested, overflow_total, append_ns, .. } = stats;
        let duration_seconds = if self.modelled_durations {
            Self::SCRAPE_BASE_SECONDS + scraped as f64 * Self::SCRAPE_PER_SAMPLE_SECONDS
        } else {
            watch.elapsed_seconds()
        };
        // Prometheus semantics: `_scraped` counts the samples the target
        // exposed, `_added` the ones storage accepted (out-of-order samples
        // are rejected by the series).  The overflow roll-up is cumulative:
        // one series per target however many distinct keys the budget
        // rejected.  The meta batch is storage-append work for the target,
        // so it is timed into the same `append` stage observation.
        let meta_watch = Stopwatch::start();
        let values = [
            Some(if up { 1.0 } else { 0.0 }),
            Some(duration_seconds),
            up.then_some(scraped as f64),
            up.then_some(ingested as f64),
            (up && overflow_total > 0).then_some(overflow_total as f64),
        ];
        target.lane.lock().append_meta(&self.db, now_ms, values);
        probes::SCRAPE_APPEND_NS.record_ns(append_ns + meta_watch.elapsed_ns());
        TargetRound { up, scraped, ingested, duration_seconds, error }
    }

    /// One target's ingest pass: collect the round, then run it through the
    /// target's lane.  A text target's document crossed a process (and
    /// possibly a network) boundary, so its parse is bounded by
    /// [`exposition::ParseLimits::network`]: a document over a limit fails
    /// the scrape with a typed [`ScrapeError::Parse`] carrying
    /// [`teemon_metrics::MetricError::LimitExceeded`] — never a silent truncation that would
    /// report a broken target as healthy.
    fn ingest(&self, target: &Target, now_ms: u64) -> Result<IngestStats, ScrapeError> {
        // The collect stage ends when the round is in hand: snapshots handed
        // over, or the document fetched and parsed.
        let collect_watch = Stopwatch::start();
        match &target.source {
            Source::Typed(endpoint) => {
                let mut stats = IngestStats::default();
                // The lane lock is taken inside the visit, not around the
                // whole scrape, so an endpoint whose *collect* step
                // transitively scrapes this target again (a composing/gateway
                // endpoint) does not deadlock on its own lane.
                endpoint.scrape_visit(&mut |families| {
                    probes::SCRAPE_COLLECT_NS.record_ns(collect_watch.elapsed_ns());
                    stats = target.lane.lock().ingest(&self.db, families, now_ms);
                })?;
                Ok(stats)
            }
            Source::Text(source) => {
                let text = source.fetch().map_err(ScrapeError::Unreachable)?;
                let limits = exposition::ParseLimits::network();
                let doc = exposition::parse_families_bounded(&text, limits)?;
                probes::SCRAPE_COLLECT_NS.record_ns(collect_watch.elapsed_ns());
                Ok(target.lane.lock().ingest(&self.db, &doc, now_ms))
            }
        }
    }

    /// Instances whose most recent `up` sample is 0 at `now_ms` — the health
    /// checker view.  A sample more than [`STALE_HEAD_MS`] old (the query
    /// engine's lookback) no longer counts, so a removed target is forgotten.
    pub fn unhealthy_instances(&self, now_ms: u64) -> Vec<String> {
        use crate::query::Selector;
        self.db
            .select(&Selector::metric("up"))
            .into_iter()
            .filter(|series| {
                series
                    .at(now_ms)
                    .is_some_and(|s| s.value == 0.0 && now_ms - s.timestamp_ms <= STALE_HEAD_MS)
            })
            .filter_map(|series| series.label_value("instance").map(str::to_string))
            .collect()
    }
}

impl std::fmt::Debug for Scraper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scraper")
            .field("targets", &self.target_count())
            .field("interval_ms", &self.scrape_interval_ms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selector;
    use teemon_metrics::{HistogramSnapshot, MetricKind, MetricPoint, PointValue};

    fn sample(timestamp_ms: u64, value: f64) -> crate::Sample {
        crate::Sample { timestamp_ms, value }
    }

    /// Pushes `families` the way the serving edge does: as exposition text,
    /// read by the bounded parse.
    fn push_text(lane: &mut PushLane, families: &[FamilySnapshot], now_ms: u64) -> PushOutcome {
        let text = exposition::encode_text(families);
        let doc = exposition::parse_families_bounded(&text, exposition::ParseLimits::unbounded());
        lane.push(&doc.unwrap(), now_ms)
    }

    /// An endpoint serving the families a test last handed it.
    struct Fixture(Mutex<Vec<FamilySnapshot>>);

    impl Fixture {
        fn serving(families: Vec<FamilySnapshot>) -> Arc<Self> {
            Arc::new(Self(Mutex::new(families)))
        }

        fn set(&self, families: Vec<FamilySnapshot>) {
            *self.0.lock() = families;
        }
    }

    impl MetricsEndpoint for Fixture {
        fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
            Ok(self.0.lock().clone())
        }
    }

    /// A family of `kind` (counter or gauge) with one point per
    /// `(label pairs, value)`, in the order given.
    fn family(name: &str, kind: MetricKind, points: &[(&[(&str, &str)], f64)]) -> FamilySnapshot {
        let mut family = FamilySnapshot::new(name, "", kind);
        for &(pairs, value) in points {
            let value = match kind {
                MetricKind::Counter => PointValue::Counter(value),
                _ => PointValue::Gauge(value),
            };
            family.points.push(MetricPoint::new(Labels::from_pairs(pairs.iter().copied()), value));
        }
        family
    }

    /// One unlabelled gauge family.
    fn gauge(name: &str, value: f64) -> FamilySnapshot {
        family(name, MetricKind::Gauge, &[(&[], value)])
    }

    #[test]
    fn typed_scrape_ingests_samples_with_target_labels() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("sgx_exporter", "node-1:9090").with_label("node", "node-1"),
            Fixture::serving(vec![gauge("sgx_nr_free_pages", 24_000.0)]),
        );

        let outcomes = scraper.scrape_once(5_000);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].up);
        assert_eq!(outcomes[0].samples, 1);
        assert!(outcomes[0].duration_seconds > 0.0);

        let results = db.select(&Selector::metric("sgx_nr_free_pages"));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].label_value("job"), Some("sgx_exporter"));
        assert_eq!(results[0].label_value("node"), Some("node-1"));
        assert_eq!(results[0].at(10_000).unwrap().value, 24_000.0);

        // The meta-metrics are recorded too.
        let up = db.select(&Selector::metric("up"));
        assert_eq!(up[0].at(10_000).unwrap().value, 1.0);
        assert_eq!(db.select(&Selector::metric("scrape_duration_seconds")).len(), 1);
        assert!(scraper.unhealthy_instances(10_000).is_empty());
    }

    #[test]
    fn repeated_scrapes_build_series() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone()).with_interval_ms(5_000);
        let events = Fixture::serving(Vec::new());
        scraper.add_target(ScrapeTargetConfig::new("ebpf_exporter", "node-1:9435"), events.clone());
        for round in 0..5u64 {
            events.set(vec![family(
                "events_total",
                MetricKind::Counter,
                &[(&[], 10.0 * (round + 1) as f64)],
            )]);
            scraper.scrape_once(round * scraper.interval_ms());
        }
        let results = db.select(&Selector::metric("events_total"));
        assert_eq!(results.len(), 1);
        let points = results[0].points_in(0, u64::MAX);
        assert_eq!(points.len(), 5);
        let (first, last) = (points.first().unwrap(), points.last().unwrap());
        let r =
            (last.value - first.value) / ((last.timestamp_ms - first.timestamp_ms) as f64 / 1000.0);
        assert!((r - 2.0).abs() < 1e-9, "10 events per 5s = 2/s, got {r}");
    }

    #[test]
    fn storage_self_metrics_are_recorded() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("job", "n1:1"),
            Fixture::serving(vec![gauge("g", 1.0)]),
        );
        scraper.add_self_target("self:0");
        // Storage stats publish into the obs gauges at the *end* of a round,
        // after the self target was already scraped — so the db sees them
        // with a one-round lag.  Scrape twice.
        scraper.scrape_once(5_000);
        scraper.scrape_once(10_000);
        let resident = db.select(&Selector::metric("teemon_tsdb_resident_bytes"));
        assert_eq!(resident.len(), 1);
        assert!(resident[0].at(10_000).unwrap().value > 0.0);
        let per_sample = db.select(&Selector::metric("teemon_tsdb_bytes_per_sample"));
        assert!(per_sample[0].at(10_000).unwrap().value > 0.0);
        // The self slice carries the standard target labels like any job.
        assert_eq!(resident[0].label_value("job"), Some(teemon_obs::SELF_JOB));
        assert_eq!(resident[0].label_value("instance"), Some("self:0"));
        // Shard diagnostics flow through the same path.
        let shard_series = db.select(&Selector::metric("teemon_tsdb_shard_series"));
        assert_eq!(shard_series.len(), probes::SHARDS);
        // No targets, no self metrics: an idle scraper must not grow the db.
        let idle = TimeSeriesDb::new();
        Scraper::new(idle.clone()).scrape_once(1_000);
        assert_eq!(idle.series_count(), 0);
    }

    #[test]
    fn measured_durations_are_positive_and_modelled_ones_deterministic() {
        let fixture = Fixture::serving(vec![gauge("g", 1.0)]);
        let db = TimeSeriesDb::new();
        let measured = Scraper::new(db.clone());
        measured.add_target(ScrapeTargetConfig::new("job", "n1:1"), fixture.clone());
        let outcome = &measured.scrape_once(1_000)[0];
        assert!(outcome.duration_seconds > 0.0, "a real scrape takes real time");

        let modelled = Scraper::new(TimeSeriesDb::new()).with_modelled_durations();
        modelled.add_target(ScrapeTargetConfig::new("job", "n1:1"), fixture);
        let expected = Scraper::SCRAPE_BASE_SECONDS + 1.0 * Scraper::SCRAPE_PER_SAMPLE_SECONDS;
        for round in 1..=3u64 {
            let outcome = &modelled.scrape_once(round * 1_000)[0];
            assert_eq!(outcome.duration_seconds, expected, "model is deterministic");
        }
    }

    #[test]
    fn failing_target_marks_up_zero() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("sgx_exporter", "node-2:9090"),
            Arc::new(|| Err(ScrapeError::Unreachable("connection refused".to_string()))),
        );
        let outcomes = scraper.scrape_once(1_000);
        assert!(!outcomes[0].up);
        assert!(outcomes[0].error.as_deref().unwrap().contains("refused"));
        assert_eq!(scraper.unhealthy_instances(1_000), vec!["node-2:9090".to_string()]);
    }

    #[test]
    fn a_histogram_with_fewer_counts_than_bounds_does_not_panic_the_round() {
        // The snapshot's fields are public, so an endpoint can hand over a
        // point whose counts stop short of its bounds: the round expands
        // the bounds that have a count and stays healthy.
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        let short = HistogramSnapshot {
            bounds: vec![0.1, 1.0, 10.0],
            cumulative_counts: vec![2],
            sum: 0.5,
            count: 2,
        };
        let family = FamilySnapshot::new("lat_seconds", "", MetricKind::Histogram)
            .with_point(MetricPoint::new(Labels::new(), PointValue::Histogram(short)));
        scraper.add_target(ScrapeTargetConfig::new("short", "s:1"), Fixture::serving(vec![family]));
        let summary = scraper.scrape_round(1_000);
        assert_eq!((summary.healthy, summary.samples_scraped), (1, 4), "le=0.1, +Inf, sum, count");
        let buckets = db.select(&Selector::metric("lat_seconds_bucket"));
        let les: Vec<_> = buckets.iter().filter_map(|s| s.label_value("le")).collect();
        assert_eq!(les, ["0.1", "+Inf"]);
    }

    #[test]
    fn meta_series_dropped_between_rounds_are_written_again() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("live", "up:1"),
            Fixture::serving(vec![gauge("g", 1.0)]),
        );
        scraper.add_target(
            ScrapeTargetConfig::new("dead", "down:1"),
            Arc::new(|| Err(ScrapeError::Unreachable("connection refused".to_string()))),
        );
        let points = |name: &str, instance: &str| match &db
            .select(&Selector::metric(name).with_label("instance", instance))[..]
        {
            [series] => series.points_in(0, u64::MAX),
            none_or_more => panic!("{} series {name}{{instance={instance}}}", none_or_more.len()),
        };
        scraper.scrape_once(5_000);
        assert_eq!(scraper.unhealthy_instances(5_000), ["down:1"]);
        // The cached meta handles go stale: the next round re-resolves them
        // and writes every meta sample, into fresh series.
        assert_eq!(db.drop_series(&Selector::metric("up")), 2);
        assert_eq!(db.drop_series(&Selector::metric("scrape_samples_added")), 1);
        scraper.scrape_once(10_000);
        assert_eq!(points("up", "up:1"), [sample(10_000, 1.0)]);
        assert_eq!(points("up", "down:1"), [sample(10_000, 0.0)]);
        assert_eq!(points("scrape_samples_added", "up:1"), [sample(10_000, 1.0)]);
        let scraped = [sample(5_000, 1.0), sample(10_000, 1.0)];
        assert_eq!(points("scrape_samples_scraped", "up:1"), scraped);
        assert_eq!(points("scrape_duration_seconds", "up:1").len(), 2);
        // A target whose collect fails writes `up 0` and its duration only.
        assert_eq!(points("scrape_duration_seconds", "down:1").len(), 2);
        assert!(db
            .select(&Selector::metric("scrape_samples_scraped").with_label("instance", "down:1"))
            .is_empty());
        assert_eq!(scraper.unhealthy_instances(10_000), ["down:1"]);
    }

    #[test]
    fn a_removed_target_leaves_the_unhealthy_list_after_the_lookback() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("live", "up:1"),
            Fixture::serving(vec![gauge("g", 1.0)]),
        );
        scraper.add_target(
            ScrapeTargetConfig::new("dead", "down:1"),
            Arc::new(|| Err(ScrapeError::Unreachable("connection refused".to_string()))),
        );
        scraper.scrape_once(0);
        assert_eq!(scraper.remove_instance("down:1"), 1);
        assert_eq!(scraper.unhealthy_instances(0), vec!["down:1".to_string()]);
        for minute in 1..=20u64 {
            scraper.scrape_once(minute * 60_000);
        }
        // Its last `up = 0` is 20 minutes old: past the lookback, it is gone.
        assert!(scraper.unhealthy_instances(20 * 60_000).is_empty());
        assert_eq!(db.select(&Selector::metric("up")).len(), 2, "its history is kept");
    }

    #[test]
    fn malformed_text_source_counts_as_failure() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_text_source(
            ScrapeTargetConfig::new("broken", "node-3:1"),
            Arc::new(|| Ok("this is { not valid".to_string())),
        );
        let outcomes = scraper.scrape_once(1_000);
        assert!(!outcomes[0].up);
        assert!(outcomes[0].error.is_some());
    }

    #[test]
    fn text_endpoint_round_trips_through_the_wire_format() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        let latency = HistogramSnapshot {
            bounds: vec![0.01, 0.1],
            cumulative_counts: vec![0, 1, 1],
            sum: 0.05,
            count: 1,
        };
        let endpoint = Fixture::serving(vec![
            FamilySnapshot::new("lat_seconds", "latency", MetricKind::Histogram)
                .with_point(MetricPoint::new(Labels::new(), PointValue::Histogram(latency))),
            family("teemon_syscalls_total", MetricKind::Counter, &[(&[("syscall", "read")], 7.0)]),
        ]);

        // The document an external process would serve on `/metrics`…
        let render = move || -> Result<String, String> {
            let families = endpoint.scrape().map_err(|err| err.to_string())?;
            Ok(exposition::encode_text(&families))
        };
        let text = render().unwrap();
        assert!(text.contains("teemon_syscalls_total{syscall=\"read\"} 7"));

        // …scraped through the inbound text edge.
        scraper
            .add_text_source(ScrapeTargetConfig::new("text_job", "node-1:9090"), Arc::new(render));
        let outcomes = scraper.scrape_once(1_000);
        assert!(outcomes[0].up);
        assert_eq!(db.select(&Selector::metric("lat_seconds_bucket")).len(), 3);
    }

    #[test]
    fn per_target_intervals_gate_scrape_due() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone()).with_interval_ms(5_000);
        scraper.add_target(
            ScrapeTargetConfig::new("fast", "n1:1"),
            Fixture::serving(vec![gauge("fast_gauge", 1.0)]),
        );
        scraper.add_target(
            ScrapeTargetConfig::new("slow", "n1:2").with_interval_ms(15_000),
            Fixture::serving(vec![gauge("slow_gauge", 1.0)]),
        );

        let rounds_of = |job: &str| {
            let up = db.select(&Selector::metric("up").with_label("job", job));
            up.first().map_or(0, |series| series.len())
        };
        // First pass: both never scraped, both due.
        assert_eq!(scraper.scrape_round_due(0).targets, 2);
        // 5 s later only the fast target is due.
        assert_eq!(scraper.scrape_round_due(5_000).targets, 1);
        assert_eq!((rounds_of("fast"), rounds_of("slow")), (2, 1));
        assert_eq!(scraper.scrape_round_due(10_000).targets, 1);
        // At 15 s the slow target is due again too.
        assert_eq!(scraper.scrape_round_due(15_000).targets, 2);
        assert_eq!((rounds_of("fast"), rounds_of("slow")), (4, 2));
        // scrape_once ignores the gating entirely.
        assert_eq!(scraper.scrape_once(15_500).len(), 2);
    }

    #[test]
    fn fast_lane_round_equals_per_sample_round() {
        // The same families through the scraper and through one `db.append`
        // per sample: identical contents, and the cache keeps working across
        // rounds.
        let syscalls = |read: f64| {
            let points: [(&[(&str, &str)], f64); 3] = [
                (&[("syscall", "futex")], 5.0),
                (&[("syscall", "read")], read),
                (&[("syscall", "write")], 5.0),
            ];
            vec![family("teemon_syscalls_total", MetricKind::Counter, &points)]
        };
        let endpoint = Fixture::serving(syscalls(5.0));
        let config = ScrapeTargetConfig::new("sgx_exporter", "n1:9090").with_label("node", "n1");
        let base = config.target_labels();
        let fast_db = TimeSeriesDb::new();
        // Modelled durations: the per-sample side below charges the same
        // model, which wall time would never reproduce.
        let fast = Scraper::new(fast_db.clone()).with_modelled_durations();
        fast.add_target(config, endpoint.clone());
        let slow_db = TimeSeriesDb::new();
        for round in 1..=5u64 {
            endpoint.set(syscalls(5.0 + round as f64));
            let now_ms = round * 5_000;
            let outcome = &fast.scrape_once(now_ms)[0];
            let (mut scraped, mut added) = (0u64, 0u64);
            for snapshot in endpoint.scrape().unwrap() {
                snapshot.for_each_sample(|name, labels, value, timestamp_ms| {
                    scraped += 1;
                    let ts = timestamp_ms.unwrap_or(now_ms);
                    added += u64::from(slow_db.append(name, &labels.merged(&base), ts, value));
                });
            }
            let duration =
                Scraper::SCRAPE_BASE_SECONDS + scraped as f64 * Scraper::SCRAPE_PER_SAMPLE_SECONDS;
            slow_db.append("up", &base, now_ms, 1.0);
            slow_db.append("scrape_duration_seconds", &base, now_ms, duration);
            slow_db.append("scrape_samples_scraped", &base, now_ms, scraped as f64);
            slow_db.append("scrape_samples_added", &base, now_ms, added as f64);
            assert_eq!(
                (outcome.up, outcome.samples, outcome.duration_seconds),
                (true, 3, duration)
            );
            assert_eq!((scraped, added), (3, 3));
        }
        assert_eq!(fast_db.stats(), slow_db.stats());
        let series = |db: &TimeSeriesDb| {
            db.select(&Selector::all())
                .iter()
                .map(|s| (s.name().to_string(), s.to_labels(), s.points_in(0, u64::MAX)))
                .collect::<Vec<_>>()
        };
        assert_eq!(series(&fast_db), series(&slow_db));
    }

    #[test]
    fn fast_lane_repairs_cache_on_series_churn() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        let processes = Fixture::serving(vec![family(
            "proc_cpu",
            MetricKind::Gauge,
            &[(&[("process", "redis")], 1.0)],
        )]);
        scraper.add_target(ScrapeTargetConfig::new("cadvisor", "n1:8080"), processes.clone());
        scraper.scrape_once(5_000);
        // A process appears: the cached round shape changes mid-stream.
        processes.set(vec![family(
            "proc_cpu",
            MetricKind::Gauge,
            &[(&[("process", "nginx")], 2.0), (&[("process", "redis")], 1.0)],
        )]);
        scraper.scrape_once(10_000);
        scraper.scrape_once(15_000);
        let results = db.select(&Selector::metric("proc_cpu"));
        assert_eq!(results.len(), 2);
        let points_of = |process: &str| {
            results.iter().find(|r| r.label_value("process") == Some(process)).unwrap().len()
        };
        assert_eq!(points_of("redis"), 3, "cached series kept appending through the churn");
        assert_eq!(points_of("nginx"), 2, "new series picked up from its first round");
    }

    #[test]
    fn fast_lane_re_resolves_dropped_series_mid_stream() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        let cases = [(&[("case", "dropped")][..], 2.0), (&[("case", "kept")][..], 1.0)];
        scraper.add_target(
            ScrapeTargetConfig::new("job", "n1:1"),
            Fixture::serving(vec![family("g", MetricKind::Gauge, &cases)]),
        );
        scraper.scrape_once(5_000);
        // An operator drops the series between rounds; the target's cache
        // still holds a handle resolved under the old shard generation.
        assert_eq!(db.drop_series(&Selector::metric("g").with_label("case", "dropped")), 1);
        let outcomes = scraper.scrape_once(10_000);
        assert!(outcomes[0].up);
        let results = db.select(&Selector::metric("g"));
        assert_eq!(results.len(), 2, "the dropped series was transparently re-created");
        for r in &results {
            let points = r.points_in(0, u64::MAX);
            match r.label_value("case") {
                Some("kept") => {
                    let kept = [sample(5_000, 1.0), sample(10_000, 1.0)];
                    assert_eq!(points, kept, "no misrouted values");
                }
                Some("dropped") => {
                    assert_eq!(points, [sample(10_000, 2.0)], "fresh series, fresh history");
                }
                other => panic!("unexpected series {other:?}"),
            }
        }
    }

    #[test]
    fn push_lane_ingests_like_a_scrape_target() {
        // The same families pushed through a PushLane and scraped through a
        // registered target must store identical series.
        let pushed = |a: f64| {
            let points: [(&[(&str, &str)], f64); 2] =
                [(&[("case", "a")], a), (&[("case", "b")], 3.0)];
            vec![family("pushed_total", MetricKind::Counter, &points)]
        };
        let endpoint = Fixture::serving(pushed(3.0));

        let scraped_db = TimeSeriesDb::new();
        let scraper = Scraper::new(scraped_db.clone());
        scraper.add_target(ScrapeTargetConfig::new("remote", "w1:443"), endpoint.clone());

        let pushed_db = TimeSeriesDb::new();
        let mut lane =
            PushLane::new(pushed_db.clone(), &ScrapeTargetConfig::new("remote", "w1:443"));
        assert_eq!(pushed_db.series_count(), 0);

        for round in 1..=3u64 {
            endpoint.set(pushed(3.0 + round as f64));
            let families = endpoint.scrape().unwrap();
            let outcome = push_text(&mut lane, &families, round * 5_000);
            assert_eq!(outcome.scraped, 2);
            assert_eq!(outcome.ingested, 2);
            scraper.scrape_once(round * 5_000);
        }
        let series = |db: &TimeSeriesDb| {
            let mut all = db
                .select(&Selector::metric("pushed_total"))
                .iter()
                .map(|s| (s.name().to_string(), s.to_labels(), s.points_in(0, u64::MAX)))
                .collect::<Vec<_>>();
            all.sort_by(|a, b| format!("{:?}", (&a.0, &a.1)).cmp(&format!("{:?}", (&b.0, &b.1))));
            all
        };
        assert_eq!(series(&pushed_db), series(&scraped_db));
        // The pushed samples carry the lane's target labels.
        let results = pushed_db.select(&Selector::metric("pushed_total"));
        assert!(results.iter().all(|r| r.label_value("job") == Some("remote")));
        assert!(results.iter().all(|r| r.label_value("instance") == Some("w1:443")));
    }

    #[test]
    fn push_lane_survives_series_drop_between_pushes() {
        let db = TimeSeriesDb::new();
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("remote", "w1:443"));
        let cases = [(&[("case", "dropped")][..], 2.0), (&[("case", "kept")][..], 1.0)];
        let families = vec![family("g", MetricKind::Gauge, &cases)];
        push_text(&mut lane, &families, 5_000);
        assert_eq!(db.drop_series(&Selector::metric("g").with_label("case", "dropped")), 1);
        let outcome = push_text(&mut lane, &families, 10_000);
        assert_eq!(outcome.ingested, 2, "dropped series transparently re-created");
        assert_eq!(db.select(&Selector::metric("g")).len(), 2);
    }

    #[test]
    fn a_text_push_is_matched_by_the_bytes_it_was_sent_as() {
        let db = TimeSeriesDb::new();
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("j", "w:1"));
        let parse =
            |text| exposition::parse_families_bounded(text, exposition::ParseLimits::network());
        let first = "m{b=\"2\",a=\"1\"} 1\nm{a=\"2\"} 1\n# TYPE h histogram\nh_bucket{le=\"0.50\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        assert_eq!(lane.push(&parse(first).unwrap(), 1_000).ingested, 6);
        let raw: Vec<_> = lane.lane.cache.entries.iter().map(|e| e.raw.as_str()).collect();
        // Lines keep their spelling; a folded histogram's samples are
        // matched by identity and have none.
        assert_eq!(raw, ["m{b=\"2\",a=\"1\"}", "m{a=\"2\"}", "", "", "", ""]);
        let bucket = &lane.lane.cache.entries[2].key;
        assert!(bucket.matches("h_bucket", &Labels::from_pairs([("le", "0.5")])));
        let handles: Vec<_> = lane.lane.cache.entries.iter().map(|e| e.handle).collect();
        // The same bytes again: the warm pass takes the whole round.
        let warm =
            |lane: &mut PushLane, doc: &Exposition<'_>| lane.lane.walk::<false, _>(&db, doc, 0);
        assert_eq!(warm(&mut lane, &parse(first).unwrap()), Some((6, 0)));
        // The first series spelled another way: a miss by bytes, found again
        // by identity in place — same entry, same handle, the new spelling.
        let respelled = first.replace("m{b=\"2\",a=\"1\"}", "m{a = \"1\", b=\"2\"}");
        let doc = parse(&respelled).unwrap();
        assert_eq!(warm(&mut lane, &doc), None);
        assert_eq!(lane.push(&doc, 2_000).ingested, 6);
        assert_eq!(lane.lane.cache.entries.iter().map(|e| e.handle).collect::<Vec<_>>(), handles);
        assert_eq!(lane.lane.cache.entries[0].raw, "m{a = \"1\", b=\"2\"}");
        assert_eq!(warm(&mut lane, &doc), Some((6, 0)));
        assert_eq!(db.series_count(), 6);
        let stored = db.select(&Selector::metric("m").with_label("a", "1"));
        let want = [sample(1_000, 1.0), sample(2_000, 1.0)];
        assert_eq!(stored[0].points_in(0, u64::MAX), want);
    }

    #[test]
    fn a_histogram_that_gains_and_loses_its_type_line_stores_what_its_snapshots_store() {
        // Without its `# TYPE` line a histogram's series arrive as plain
        // lines, matched by their bytes; with it, as folded samples, matched
        // by identity.  One entry has to carry the same series either way.
        let lines =
            "m{a=\"1\"} 1\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\n";
        let typed = format!("# TYPE h histogram\n{lines}");
        let config = ScrapeTargetConfig::new("j", "w:1");
        let (lane_db, reference_db) = (TimeSeriesDb::new(), TimeSeriesDb::new());
        let mut lane = PushLane::new(lane_db.clone(), &config);
        let stored = |db: &TimeSeriesDb| -> Vec<_> {
            let all = db.select(&Selector::all());
            all.iter()
                .map(|s| (s.name().to_string(), s.to_labels(), s.points_in(0, u64::MAX)))
                .collect()
        };
        let mut first_handles = None;
        for (round, text) in (1..).zip([lines, &typed, lines, &typed, &typed, lines]) {
            let now = round * 1_000;
            let doc = exposition::parse_families_bounded(text, exposition::ParseLimits::network());
            let doc = doc.unwrap();
            // Every round after the first is the warm pass's, whichever
            // form the previous one came in.
            let warm = lane.lane.walk::<false, _>(&lane_db, &doc, now);
            assert_eq!(warm.is_some(), round > 1, "round {round}");
            assert_eq!(lane.push(&doc, now), PushOutcome { scraped: 5, ingested: 5, overflow: 0 });
            // The by-key reference: every sample of the snapshots the
            // document stands for, target labels merged, appended by key.
            for family in doc.to_snapshots() {
                family.for_each_sample(|name, labels, value, timestamp_ms| {
                    let labels = labels.merged(&config.target_labels());
                    reference_db.append(name, &labels, timestamp_ms.unwrap_or(now), value);
                });
            }
            assert_eq!(stored(&lane_db), stored(&reference_db), "round {round}: {text:?}");
            let handles: Vec<_> = lane.lane.cache.entries.iter().map(|e| e.handle).collect();
            assert_eq!(*first_handles.get_or_insert_with(|| handles.clone()), handles);
        }
        assert_eq!(lane_db.series_count(), 5);
    }

    #[test]
    fn text_source_rejects_documents_over_the_network_limits() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        // One line longer than the 16 KiB network line limit.
        let long_line = format!("m{{v=\"{}\"}} 1\n", "x".repeat(20 * 1024));
        scraper.add_text_source(
            ScrapeTargetConfig::new("hostile", "evil:1"),
            Arc::new(move || Ok(long_line.clone())),
        );
        let outcomes = scraper.scrape_once(1_000);
        assert!(!outcomes[0].up, "oversized document must fail the scrape, not truncate");
        assert!(outcomes[0].error.as_deref().unwrap().contains("line bytes"));
        assert_eq!(db.series_count(), 2, "only up/scrape_duration meta-series, no samples");
    }

    #[test]
    fn round_summaries_match_outcome_totals() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db).with_interval_ms(5_000);
        let fixture = Fixture::serving(vec![gauge("g", 1.0)]);
        scraper.add_target(ScrapeTargetConfig::new("fast", "n1:1"), fixture.clone());
        scraper
            .add_target(ScrapeTargetConfig::new("slow", "n1:2").with_interval_ms(15_000), fixture);
        scraper.add_target(
            ScrapeTargetConfig::new("down", "n1:3"),
            Arc::new(|| Err(ScrapeError::Unreachable("nope".to_string()))),
        );
        let summary = scraper.scrape_round(0);
        assert_eq!(summary.targets, 3);
        assert_eq!(summary.healthy, 2);
        assert_eq!(summary.samples_scraped, 2);
        assert_eq!(summary.samples_added, 2);
        // 5 s later only the fast and the failing target are due.
        let due = scraper.scrape_round_due(5_000);
        assert_eq!((due.targets, due.healthy, due.samples_added), (2, 1, 1));
        // The due-gated summary sees the same world.
        assert_eq!(scraper.scrape_round_due(5_000).targets, 0, "nothing due right after");
    }

    #[test]
    fn targets_can_be_removed() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db);
        let fixture = Fixture::serving(Vec::new());
        scraper
            .add_target(ScrapeTargetConfig::new("node_exporter", "node-1:9100"), fixture.clone());
        scraper.add_target(ScrapeTargetConfig::new("sgx_exporter", "node-1:9090"), fixture);
        assert_eq!(scraper.target_count(), 2);
        assert_eq!(scraper.remove_instance("node-1:9100"), 1);
        assert_eq!(scraper.target_count(), 1);
        assert_eq!(scraper.remove_instance("unknown"), 0);
    }

    /// `n` gauge series `m{i="<k>"}`.
    fn wide(n: usize) -> Vec<FamilySnapshot> {
        let mut family = FamilySnapshot::new("m", "wide", MetricKind::Gauge);
        for k in 0..n {
            family.points.push(MetricPoint::new(
                Labels::from_pairs([("i", format!("{k:03}"))]),
                PointValue::Gauge(k as f64),
            ));
        }
        vec![family]
    }

    #[test]
    fn per_target_budget_clips_series_and_counts_overflow() {
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        scraper.add_target(
            ScrapeTargetConfig::new("wide", "n1:1").with_series_budget(3),
            Fixture::serving(wide(8)),
        );
        let outcomes = scraper.scrape_once(1_000);
        assert!(outcomes[0].up);
        // All 8 wire samples were seen, only 3 series were admitted.
        assert_eq!(db.select(&Selector::metric("m")).len(), 3);
        let scraped = db.select(&Selector::metric("scrape_samples_scraped"));
        assert_eq!(scraped[0].at(2_000).unwrap().value, 8.0);
        // The clipped tail is observable as the cumulative roll-up series.
        let rolled = db.select(&Selector::metric("teemon_overflow_series_total"));
        assert_eq!(rolled.len(), 1);
        assert_eq!(rolled[0].at(2_000).unwrap().value, 5.0);
        assert_eq!(rolled[0].label_value("job"), Some("wide"));
        // Steady state: the next round clips the same 5, cumulatively 10.
        scraper.scrape_once(2_000);
        let rolled = db.select(&Selector::metric("teemon_overflow_series_total"));
        assert_eq!(rolled[0].at(3_000).unwrap().value, 10.0);
    }

    #[test]
    fn job_budget_is_shared_across_targets_and_released_on_removal() {
        let db = TimeSeriesDb::new();
        let budgets = CardinalityBudgets::new();
        budgets.set_job_limit("pool", 5);
        let scraper = Scraper::new(db.clone()).with_budgets(Arc::clone(&budgets));
        scraper.add_target(ScrapeTargetConfig::new("pool", "a:1"), Fixture::serving(wide(4)));
        scraper.add_target(ScrapeTargetConfig::new("pool", "b:1"), Fixture::serving(wide(4)));
        scraper.scrape_once(1_000);
        // First target took 4 of the pool, the second got the remaining 1.
        assert_eq!(budgets.job_used("pool"), 5);
        assert_eq!(db.select(&Selector::metric("m")).len(), 5);
        // Removing the first target gives its 4 back …
        assert_eq!(scraper.remove_instance("a:1"), 1);
        assert_eq!(budgets.job_used("pool"), 1);
        // … and the survivor's next repair (forced by a shape change) can
        // now admit its full set.
        let mut grown = wide(4);
        grown.insert(0, gauge("extra", 1.0));
        assert_eq!(scraper.remove_instance("b:1"), 1);
        scraper.add_target(ScrapeTargetConfig::new("pool", "b:1"), Fixture::serving(grown));
        scraper.scrape_once(2_000);
        assert_eq!(budgets.job_used("pool"), 5);
        let m = db.select(&Selector::metric("m"));
        let recent = m.iter().filter(|series| !series.points_in(1_500, 3_000).is_empty());
        assert_eq!(recent.count(), 4, "survivor's own series all admitted after release");
    }

    #[test]
    fn unlimited_jobs_are_untouched_by_the_budget_pool() {
        let db = TimeSeriesDb::new();
        let budgets = CardinalityBudgets::new();
        budgets.set_job_limit("other", 1);
        let scraper = Scraper::new(db.clone()).with_budgets(budgets);
        scraper.add_target(ScrapeTargetConfig::new("free", "n1:1"), Fixture::serving(wide(6)));
        scraper.scrape_once(1_000);
        assert_eq!(db.select(&Selector::metric("m")).len(), 6);
        assert!(db.select(&Selector::metric("teemon_overflow_series_total")).is_empty());
    }

    #[test]
    fn push_lane_budget_clips_and_reports_overflow() {
        let db = TimeSeriesDb::new();
        let budgets = CardinalityBudgets::new();
        budgets.set_job_limit("push", 2);
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("push", "w:1"))
            .with_budgets(Arc::clone(&budgets));
        let outcome = push_text(&mut lane, &wide(5), 1_000);
        assert_eq!(outcome.scraped, 5);
        assert_eq!(outcome.ingested, 2);
        assert_eq!(outcome.overflow, 3);
        assert_eq!(budgets.job_used("push"), 2);
        assert_eq!(db.select(&Selector::metric("m")).len(), 2);
        let rolled = db.select(&Selector::metric("teemon_overflow_series_total"));
        assert_eq!(rolled[0].at(2_000).unwrap().value, 3.0);
        // Dropping the lane releases its admissions back to the pool.
        drop(lane);
        assert_eq!(budgets.job_used("push"), 0);
    }

    #[test]
    fn repair_handles_moves_duplicates_and_growth_with_a_bounded_index() {
        let db = TimeSeriesDb::new();
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("j", "w:1"));
        let family = |ids: &[u32]| {
            let mut family = FamilySnapshot::new("m", "", teemon_metrics::MetricKind::Gauge);
            for id in ids {
                family.points.push(teemon_metrics::MetricPoint::new(
                    Labels::from_pairs([("i", id.to_string())]),
                    teemon_metrics::PointValue::Gauge(f64::from(*id)),
                ));
            }
            vec![family]
        };
        let mut now = 0;
        let mut push = |lane: &mut PushLane, ids: &[u32]| {
            now += 1_000;
            let outcome = push_text(lane, &family(ids), now);
            assert_eq!(outcome.scraped as usize, ids.len());
            // Every wire sample's entry sits at its position, and the index
            // covers at most the entries the round started with.
            for (entry, id) in lane.lane.cache.entries.iter().zip(ids) {
                assert!(entry.key.matches("m", &Labels::from_pairs([("i", id.to_string())])));
            }
            assert_eq!(lane.lane.cache.entries.len(), ids.len());
            outcome
        };
        push(&mut lane, &[1, 2, 3, 4]);
        let handles: Vec<_> = lane.lane.cache.entries.iter().map(|e| e.handle).collect();
        // A rotation: every sample misses its position and is found by hash.
        push(&mut lane, &[2, 3, 4, 1]);
        let rotated: Vec<_> = lane.lane.cache.entries.iter().map(|e| e.handle).collect();
        assert_eq!(rotated, [handles[1], handles[2], handles[3], handles[0]], "handles reused");
        assert_eq!(db.series_count(), 4);
        // One identity twice: each occurrence claims an entry of its own.
        push(&mut lane, &[2, 2, 3]);
        let entries = &lane.lane.cache.entries;
        assert_eq!(entries[0].handle, entries[1].handle, "both resolve to the one series");
        push(&mut lane, &[2, 2, 3]);
        // A small set growing large in one round: the few old entries are
        // displaced again and again, and the index must not grow with it.
        let many: Vec<u32> = (100..5_100).collect();
        push(&mut lane, &many);
        let index = &lane.lane.cache.index;
        assert!(index.heads.len() <= 2, "one chain per old identity, got {}", index.heads.len());
        assert!(index.walked <= 5_000, "index walked {} nodes", index.walked);
        assert_eq!(db.series_count(), 4 + 5_000);
    }

    #[test]
    fn repair_stays_linear_when_one_identity_fills_the_snapshot() {
        // A snapshot may repeat one identity as often as the parse limits
        // allow.  Whatever the repair then has to do — index the run, shift
        // it, swap it with another run, look past entries claimed in place —
        // must cost a bounded number of index steps per sample.
        const RUN: usize = 50_000;
        let db = TimeSeriesDb::new();
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("j", "w:1"));
        let snapshot = |runs: &[(u32, usize)]| {
            let mut family = FamilySnapshot::new("m", "", teemon_metrics::MetricKind::Gauge);
            for &(id, times) in runs {
                let point = teemon_metrics::MetricPoint::new(
                    Labels::from_pairs([("i", id.to_string())]),
                    teemon_metrics::PointValue::Gauge(f64::from(id)),
                );
                family.points.extend(std::iter::repeat_n(point, times));
            }
            vec![family]
        };
        let rounds: [&[(u32, usize)]; 6] = [
            &[(1, RUN)],
            // Shifted by one in front, then the newcomer moves to the back.
            &[(2, 1), (1, RUN)],
            &[(1, RUN), (2, 1)],
            // Two runs trade places.
            &[(1, RUN), (2, RUN)],
            &[(2, RUN), (1, RUN)],
            // Every old entry is claimed where it stands and the lookups
            // come after them.
            &[(3, 1), (2, RUN - 1), (1, RUN), (2, RUN)],
        ];
        for (round, runs) in rounds.into_iter().enumerate() {
            let samples: usize = runs.iter().map(|(_, times)| times).sum();
            let before = lane.lane.cache.entries.len();
            let outcome = push_text(&mut lane, &snapshot(runs), (round as u64 + 1) * 1_000);
            assert_eq!(outcome.scraped as usize, samples);
            assert_eq!(lane.lane.cache.entries.len(), samples);
            let walked = lane.lane.cache.index.walked as usize;
            assert!(
                walked <= 2 * (before + samples),
                "round {round}: {walked} index steps for {before} entries and {samples} samples"
            );
        }
        assert_eq!(db.series_count(), 3);
    }

    #[test]
    fn budget_raise_readmits_on_next_repair() {
        let db = TimeSeriesDb::new();
        let budgets = CardinalityBudgets::new();
        budgets.set_job_limit("j", 1);
        let mut families = wide(3);
        let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("j", "w:1"))
            .with_budgets(Arc::clone(&budgets));
        let first = push_text(&mut lane, &families, 1_000);
        assert_eq!((first.ingested, first.overflow), (1, 2));
        // Raising the limit alone does not disturb the warm path …
        budgets.set_job_limit("j", 10);
        let warm = push_text(&mut lane, &families, 2_000);
        assert_eq!((warm.ingested, warm.overflow), (1, 2));
        // … but the next shape change repairs under the new allowance.
        families.insert(0, gauge("extra", 1.0));
        let repaired = push_text(&mut lane, &families, 3_000);
        assert_eq!(repaired.overflow, 0);
        assert_eq!(db.select(&Selector::metric("m")).len(), 3);
    }

    #[test]
    fn wire_series_differing_only_in_a_target_label_stay_apart() {
        let stored = |db: &TimeSeriesDb, name: &str| {
            let mut series: Vec<_> = db
                .select(&Selector::metric(name))
                .iter()
                .map(|s| (s.to_labels().to_string(), s.points_in(0, u64::MAX)))
                .collect();
            series.sort_by(|a, b| a.0.cmp(&b.0));
            series
        };
        let expected = |instance: &str, job: &str| {
            let key = |sent: &str| {
                format!("{{exported_instance=\"{sent}\",instance=\"{instance}\",job=\"{job}\"}}")
            };
            vec![(key("n1"), vec![sample(1_000, 1.0)]), (key("n2"), vec![sample(1_000, 0.0)])]
        };
        // Two writers' `up` relayed through one push lane.
        let db = TimeSeriesDb::new();
        let config = ScrapeTargetConfig::new("remote_write", "10.0.0.1:5555");
        let mut lane = PushLane::new(db.clone(), &config);
        let text = "up{instance=\"n1\"} 1\nup{instance=\"n2\"} 0\n";
        let doc = exposition::parse_families_bounded(text, exposition::ParseLimits::network());
        assert_eq!(lane.push(&doc.unwrap(), 1_000).ingested, 2);
        assert_eq!(stored(&db, "up"), expected("10.0.0.1:5555", "remote_write"));
        // The same two series from a scrape target.
        let db = TimeSeriesDb::new();
        let scraper = Scraper::new(db.clone());
        let points = [(&[("instance", "n1")][..], 1.0), (&[("instance", "n2")][..], 0.0)];
        let relayed = family("relayed_up", MetricKind::Gauge, &points);
        scraper
            .add_target(ScrapeTargetConfig::new("relay", "r:1"), Fixture::serving(vec![relayed]));
        assert_eq!(scraper.scrape_once(1_000)[0].samples, 2);
        assert_eq!(stored(&db, "relayed_up"), expected("r:1", "relay"));
        // A wire label equal to the target's is merged, not renamed.
        let db = TimeSeriesDb::new();
        let mut lane = PushLane::new(db.clone(), &config.clone().with_label("node", "n1"));
        let doc = exposition::parse_families_bounded("g{node=\"n1\"} 1\n", Default::default());
        lane.push(&doc.unwrap(), 1_000);
        let g = stored(&db, "g");
        assert_eq!(g[0].0, "{instance=\"10.0.0.1:5555\",job=\"remote_write\",node=\"n1\"}");
    }
}
