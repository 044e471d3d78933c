//! Code-level proof that a warm steady-state scrape round is
//! **allocation-free end to end**: collect (an endpoint refreshing its
//! snapshots in place) → scrape-cache hit (structural hash + equality over
//! borrowed data) → shard-batched append → meta-metrics + storage
//! self-monitoring gauges.  A counting global allocator wraps the system
//! allocator, and after warm-up whole rounds must perform zero heap
//! allocations.
//!
//! Companion to `alloc_free_append.rs`, which proves the same property for
//! the raw `TimeSeriesDb::append` hot path in isolation.

// Audit bookkeeping (held-lock stacks, the order graph) allocates by
// design, so the zero-allocation proofs only hold without `lock_audit`;
// `tests/lock_audit.rs` covers the allocation rule in that mode.
#![cfg(not(lock_audit))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;
use teemon_metrics::exposition::{encode_text, parse_families_bounded, ParseLimits};
use teemon_metrics::{
    FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint, PointValue, SummarySnapshot,
};
use teemon_tsdb::{
    CardinalityBudgets, MetricsEndpoint, ScrapeError, ScrapeTargetConfig, Scraper, TimeSeriesDb,
};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A collector-style endpoint that owns its snapshots and refreshes them
/// **in place** each round (gauges move, counters accumulate — no point is
/// added or removed, no string rebuilt).  This is the collect step of a
/// steady-state round: the exporter's series set is fixed, only values
/// change, so nothing needs to allocate.
struct InPlaceEndpoint(Mutex<Vec<FamilySnapshot>>);

impl InPlaceEndpoint {
    fn new(series_per_family: usize) -> Self {
        let mut families = Vec::new();
        let mut gauges = FamilySnapshot::new("sgx_nr_free_pages", "free pages", MetricKind::Gauge);
        let mut counters =
            FamilySnapshot::new("teemon_syscalls_total", "syscalls", MetricKind::Counter);
        for i in 0..series_per_family {
            let labels = Labels::from_pairs([("idx", format!("{i}")), ("node", "n1".to_string())]);
            gauges.points.push(MetricPoint::new(labels.clone(), PointValue::Gauge(24_000.0)));
            counters.points.push(MetricPoint::new(labels, PointValue::Counter(0.0)));
        }
        families.push(gauges);
        families.push(counters);
        Self(Mutex::new(families))
    }
}

impl MetricsEndpoint for InPlaceEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut families = self.0.lock();
        for family in families.iter_mut() {
            for point in &mut family.points {
                match &mut point.value {
                    PointValue::Gauge(v) => *v -= 1.0,
                    PointValue::Counter(v) => *v += 17.0,
                    _ => {}
                }
            }
        }
        visit(&families);
        Ok(())
    }
}

/// Rounds that take a series created in round 1 through its first chunk at
/// the default `chunk_size`.  The buffer a head's bursts encode into grows
/// with its block there (32 → 64 → … bytes; `heap_ledger.rs` counts the
/// doublings); the seal that ends it keeps the buffer, so the rounds after
/// it show the steady state.
const FIRST_CHUNK_ROUNDS: u64 = 120;

#[test]
fn steady_state_scrape_round_is_allocation_free() {
    let db = TimeSeriesDb::new(); // chunk_size 120
    let scraper = Scraper::new(db.clone());
    scraper.add_target(
        ScrapeTargetConfig::new("sgx_exporter", "node-1:9090").with_label("node", "node-1"),
        Arc::new(InPlaceEndpoint::new(24)),
    );

    // Warm-up: round 1 builds the scrape cache (captures identities,
    // resolves handles, sizes the batch buffer) and creates every series
    // including the meta-metrics; round 2 proves the cache holds; the rest
    // take every head through its first chunk, where its block's buffer
    // grows (the seal in round 120 keeps it).
    let summary = scraper.scrape_round(5_000);
    assert_eq!((summary.targets, summary.healthy), (1, 1));
    assert_eq!(summary.samples_scraped, 48);
    for round in 2..=FIRST_CHUNK_ROUNDS {
        scraper.scrape_round(round * 5_000);
    }

    let before = allocations();
    for round in FIRST_CHUNK_ROUNDS + 1..FIRST_CHUNK_ROUNDS + 38 {
        let summary = scraper.scrape_round(round * 5_000);
        assert_eq!(summary.samples_added, 48);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warm steady-state scrape round (collect -> cache hit -> batch append -> \
         meta metrics) must not allocate"
    );

    // The rounds really happened: 37 measured + 120 warm-up rounds of samples.
    // (Storage self-gauges no longer arrive as ad-hoc appends — they flow
    // through the `ObsEndpoint` self-target, exercised separately below.)
    assert_eq!(db.stats().samples, 157 * 48 + 157 * 4, "samples + per-target meta metrics");
}

/// An in-place endpoint of one histogram and one summary family: every
/// round each point observes one more value, its counts, sum and count
/// overwritten where they lie.
struct DistributionEndpoint(Mutex<Vec<FamilySnapshot>>);

impl DistributionEndpoint {
    fn new(points: usize) -> Self {
        let mut histograms =
            FamilySnapshot::new("request_seconds", "latency", MetricKind::Histogram);
        let mut summaries = FamilySnapshot::new("payload_bytes", "sizes", MetricKind::Summary);
        for i in 0..points {
            let labels = Labels::from_pairs([("idx", format!("{i}")), ("node", "n1".to_string())]);
            let histogram = HistogramSnapshot {
                bounds: vec![0.005, 0.05, 0.5, 5.0],
                cumulative_counts: vec![0; 5],
                sum: 0.5,
                count: 0,
            };
            histograms
                .points
                .push(MetricPoint::new(labels.clone(), PointValue::Histogram(histogram)));
            let summary = SummarySnapshot {
                quantiles: vec![(0.5, 0.25), (0.9, 0.75), (0.99, 1.5)],
                sum: 0.5,
                count: 0,
            };
            summaries.points.push(MetricPoint::new(labels, PointValue::Summary(summary)));
        }
        Self(Mutex::new(vec![histograms, summaries]))
    }
}

impl MetricsEndpoint for DistributionEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut families = self.0.lock();
        for point in families.iter_mut().flat_map(|family| family.points.iter_mut()) {
            match &mut point.value {
                PointValue::Histogram(h) => {
                    // One observation in the third bucket.
                    for count in h.cumulative_counts.iter_mut().skip(2) {
                        *count += 1;
                    }
                    h.sum += 0.25;
                    h.count += 1;
                }
                PointValue::Summary(s) => {
                    s.sum += 0.25;
                    s.count += 1;
                }
                _ => {}
            }
        }
        visit(&families);
        Ok(())
    }
}

#[test]
fn warm_histogram_and_summary_round_is_allocation_free() {
    // Expanding a histogram into its `_bucket` / `_sum` / `_count` samples
    // and a summary into its quantiles builds names and `le` / `quantile`
    // label sets; once they are warm, a round of them allocates no more
    // than a round of gauges.
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone());
    scraper.add_target(
        ScrapeTargetConfig::new("app", "node-1:9100"),
        Arc::new(DistributionEndpoint::new(6)),
    );
    // Per point: 4 bounds + `+Inf` + `_sum` + `_count`, 3 quantiles + 2.
    let samples = 6 * (7 + 5);
    for round in 1..=FIRST_CHUNK_ROUNDS {
        let summary = scraper.scrape_round(round * 5_000);
        assert_eq!((summary.healthy, summary.samples_added), (1, samples));
    }

    let before = allocations();
    for round in FIRST_CHUNK_ROUNDS + 1..FIRST_CHUNK_ROUNDS + 38 {
        assert_eq!(scraper.scrape_round(round * 5_000).samples_added, samples);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm round of histogram and summary families must not allocate"
    );
    assert_eq!(db.stats().series, samples + 4, "the samples and the target's meta series");
}

#[test]
fn warm_self_scrape_round_is_allocation_free() {
    // Dogfooding must meet the same bar as any other target: once the
    // engine's own telemetry snapshot is built and the scrape cache is warm,
    // a full self-scrape round — probe refresh, positional cache verify,
    // batch append, storage-stats publication — must not allocate.
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone());
    scraper.add_self_target("self:0");

    // Warm up: build the self snapshot, register every lock class on this
    // path, create the series, size the scrape cache, and take the heads —
    // the last of them created in round 3 — through their first chunk.
    for round in 1..=FIRST_CHUNK_ROUNDS + 3 {
        let summary = scraper.scrape_round(round * 5_000);
        assert_eq!((summary.targets, summary.healthy), (1, 1));
    }

    let before = allocations();
    for round in FIRST_CHUNK_ROUNDS + 4..FIRST_CHUNK_ROUNDS + 20 {
        let summary = scraper.scrape_round(round * 5_000);
        assert!(summary.samples_added > 0);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "a warm self-scrape round (snapshot refresh -> cache hit -> batch append ->          stats publication) must not allocate"
    );
}

#[test]
fn budget_clipped_steady_state_round_is_allocation_free() {
    // The cardinality defense must not tax the warm path: with a per-target
    // budget *and* a shared job pool active — and actively clipping samples
    // every round — a steady-state round (cache hit, overflow counting,
    // batch append, the overflow roll-up meta-metric) still performs zero
    // heap allocations.  Budget checks live entirely in the cold repair
    // path; the warm path only reads the `admitted` flag per entry.
    let db = TimeSeriesDb::new();
    let budgets = CardinalityBudgets::new();
    budgets.set_job_limit("sgx_exporter", 40);
    let scraper = Scraper::new(db.clone()).with_budgets(budgets);
    scraper.add_target(
        ScrapeTargetConfig::new("sgx_exporter", "node-1:9090").with_series_budget(30),
        Arc::new(InPlaceEndpoint::new(24)), // 48 wire samples, 30 admitted
    );

    // Warm-up: round 1 repairs under the budget (admits 30, clips 18) and
    // creates the roll-up series; round 2 proves the clipped cache holds;
    // the rest take the admitted heads through their first chunk.
    let summary = scraper.scrape_round(5_000);
    assert_eq!(summary.samples_scraped, 48);
    assert_eq!(summary.samples_added, 30, "18 of 48 samples budget-clipped");
    for round in 2..=FIRST_CHUNK_ROUNDS {
        scraper.scrape_round(round * 5_000);
    }

    let before = allocations();
    for round in FIRST_CHUNK_ROUNDS + 1..FIRST_CHUNK_ROUNDS + 38 {
        let summary = scraper.scrape_round(round * 5_000);
        assert_eq!(summary.samples_scraped, 48);
        assert_eq!(summary.samples_added, 30);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm budget-clipped round (cache hit -> overflow count -> batch append -> \
         overflow roll-up) must not allocate"
    );
}

#[test]
fn churn_repairs_then_returns_to_allocation_free() {
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone());
    let endpoint = Arc::new(InPlaceEndpoint::new(8));
    scraper.add_target(ScrapeTargetConfig::new("job", "n1:1"), endpoint.clone());
    let mut round = 0u64;
    let mut rounds = |count: u64| {
        let before = allocations();
        for _ in 0..count {
            round += 1;
            scraper.scrape_round(round * 5_000);
        }
        allocations() - before
    };
    rounds(FIRST_CHUNK_ROUNDS);

    // A series appears: this round must repair (and may allocate)…
    endpoint
        .0
        .lock()
        .first_mut()
        .unwrap()
        .points
        .push(MetricPoint::new(Labels::from_pairs([("idx", "extra")]), PointValue::Gauge(1.0)));
    rounds(2);

    // …after which the enlarged round allocates for nothing but the new
    // series' head, whose first burst — its eighth sample — opens a block
    // buffer at 32 bytes, which eight whole numbers fit —
    assert_eq!(rounds(7), 1, "post-churn rounds may only grow the new series' head");
    // — and once that series is through its first chunk too (the older
    // ones seal their second alongside it), for nothing at all.
    rounds(FIRST_CHUNK_ROUNDS - 9);
    assert_eq!(rounds(7), 0, "post-churn rounds must be allocation-free again");
}

/// `samples` gauges over 8 families, labelled like a remote writer's batch;
/// `pod` is the label a Kubernetes rollout renames.
fn pod_families(pods: &[u32]) -> Vec<FamilySnapshot> {
    const FAMILIES: usize = 8;
    let mut families: Vec<FamilySnapshot> = (0..FAMILIES)
        .map(|f| FamilySnapshot::new(format!("bench_metric_{f}"), "", MetricKind::Gauge))
        .collect();
    for (i, pod) in pods.iter().enumerate() {
        let labels = Labels::from_pairs([
            ("client", "0".to_string()),
            ("idx", format!("{i}")),
            ("node", format!("node-{}", i % 64)),
            ("pod", format!("p-{pod:08x}")),
        ]);
        families[i % FAMILIES].points.push(MetricPoint::new(labels, PointValue::Gauge(1.0)));
    }
    families
}

#[test]
fn churned_push_allocates_for_what_changed_not_for_what_it_holds() {
    // 5 % of a 500-series batch renamed in place must cost what 25 new
    // series cost — their cache entries and whatever storage allocates to
    // create them — plus a constant (the repair's index, a regrown vector),
    // not an allocation per series held.  The old rebuild moved every entry
    // through a throw-away map of one-element vectors: 500+ allocations
    // before the first new series was looked at.
    use teemon_tsdb::PushLane;
    const SERIES: usize = 500;
    const RENAMED: usize = 25;
    let db = TimeSeriesDb::new();
    let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("remote_write", "c:1"));
    let mut pods: Vec<u32> = (0..SERIES as u32).collect();
    let mut next_pod = SERIES as u32;
    let mut now = 0u64;
    let mut push = |lane: &mut PushLane, pods: &[u32]| {
        let text = encode_text(&pod_families(pods));
        let doc = parse_families_bounded(&text, ParseLimits::network()).unwrap();
        now += 1_000;
        let before = allocations();
        let outcome = lane.push(&doc, now);
        let spent = allocations() - before;
        assert_eq!((outcome.scraped, outcome.ingested), (SERIES as u64, SERIES as u64));
        spent
    };
    // The standing series go through their first chunk before anything is
    // measured: their blocks' buffers grow there, in lock-step, which would
    // land 500 doublings on one of the "warm" pushes below.  (A renamed
    // series never reaches its first burst here: the whole set is replaced
    // at most six pushes after it appears.)
    for _ in 0..120 {
        push(&mut lane, &pods);
    }
    // One churned round to size the repair's own scratch, then the measure.
    let mut churned = 0;
    for round in 0..3 {
        for k in 0..RENAMED {
            pods[(round * 131 + k * 17) % SERIES] = next_pod;
            next_pod += 1;
        }
        churned = push(&mut lane, &pods);
        assert_eq!(push(&mut lane, &pods), 0, "the round after a repair is warm again");
    }
    // What creating one never-seen series costs end to end, measured on a
    // whole-set replacement (which must still work: nothing matches, every
    // old entry is displaced and dropped).
    let replaced: Vec<u32> = (0..SERIES as u32).map(|i| 1_000_000 + i).collect();
    let per_new_series = push(&mut lane, &replaced).div_ceil(SERIES as u64);
    assert_eq!(db.stats().series as usize, SERIES + 3 * RENAMED + SERIES);
    assert_eq!(push(&mut lane, &replaced), 0);
    let budget = (per_new_series + 2) * RENAMED as u64 + 16;
    assert!(
        churned <= budget,
        "a push of {SERIES} with {RENAMED} renamed allocated {churned} times \
         (budget {budget}: {per_new_series} per new series)"
    );
    assert!(budget < SERIES as u64, "the bound has to be below one allocation per series held");
}

/// The body of one remote-write POST: `FAMILIES` gauge families of
/// `PER_FAMILY` series each, labelled like the benchmark's writers (in their
/// order, not sorted), every line stamped.
fn write_body(round: u64) -> String {
    use std::fmt::Write;
    let mut doc = String::new();
    for f in 0..FAMILIES {
        writeln!(doc, "# TYPE bench_metric_{f} gauge").unwrap();
        for i in 0..PER_FAMILY {
            writeln!(
                doc,
                "bench_metric_{f}{{node=\"node-{}\",idx=\"{i}\",client=\"0\",pod=\"pod-{i:05}\"}} {}.5 {}",
                i % 64,
                round + i as u64,
                1_700_000_000_000 + round * 1_000
            )
            .unwrap();
        }
    }
    doc
}

const FAMILIES: usize = 8;
const PER_FAMILY: usize = 125;

#[test]
fn text_edge_parse_allocates_per_family_not_per_sample() {
    // The inbound text edge builds no label set while it reads: a line is
    // kept as its series bytes, value and timestamp, borrowed from the
    // document, in one list sized once.  What is left is bounded per family
    // (the family list, the `# TYPE` map, the family-name set), not per
    // sample.
    let doc = write_body(1);
    let limits = ParseLimits::network();
    let parse = || parse_families_bounded(&doc, limits).unwrap();
    let samples = FAMILIES * PER_FAMILY;
    assert_eq!(parse().sample_count(), samples);

    let before = allocations();
    let parsed = parse();
    let spent = allocations() - before;
    assert_eq!(parsed.families().count(), FAMILIES);
    let budget = 16 * FAMILIES as u64 + 32;
    assert!(
        spent <= budget,
        "parsing {samples} samples in {FAMILIES} families allocated {spent} times (budget {budget})"
    );
}

#[test]
fn warm_text_push_allocates_nothing_past_its_parse() {
    // The remote-write edge end to end, as the handler runs it: parse the
    // body, push it through the connection's lane.  Once the lane and the
    // heads are warm, the parse allocates only per family and the push —
    // one byte compare per line against the cache, one batch append —
    // nothing at all.
    use teemon_tsdb::PushLane;
    let db = TimeSeriesDb::new();
    let mut lane = PushLane::new(db.clone(), &ScrapeTargetConfig::new("remote_write", "c:1"));
    let limits = ParseLimits::network();
    let samples = (FAMILIES * PER_FAMILY) as u64;
    // Round 1 creates the series and fills the cache; the rest take every
    // head through its first chunk.
    for round in 1..=FIRST_CHUNK_ROUNDS {
        let body = write_body(round);
        let outcome = lane.push(&parse_families_bounded(&body, limits).unwrap(), round * 1_000);
        assert_eq!(outcome.ingested, samples);
    }
    for round in FIRST_CHUNK_ROUNDS + 1..FIRST_CHUNK_ROUNDS + 8 {
        let body = write_body(round);
        let before = allocations();
        let doc = parse_families_bounded(&body, limits).unwrap();
        let parsed = allocations() - before;
        let outcome = lane.push(&doc, round * 1_000);
        let pushed = allocations() - before - parsed;
        assert_eq!(outcome.ingested, samples);
        let budget = 16 * FAMILIES as u64 + 32;
        assert!(parsed <= budget, "the parse allocated {parsed} times (budget {budget})");
        assert_eq!(pushed, 0, "a warm text push must not allocate");
    }
    assert_eq!(db.stats().series, samples);
}

#[test]
fn warm_text_target_round_allocates_only_its_document_and_parse() {
    // A text scrape target takes the push lane's road: fetch the document,
    // parse it under the network limits, walk it by its lines' bytes.  Once
    // the lane and the heads are warm, a round allocates the fetched
    // document and what its parse allocates per family — the walk, the
    // batch append and the meta samples nothing.
    let db = TimeSeriesDb::new();
    let scraper = Scraper::new(db.clone()).with_modelled_durations();
    let body = Arc::new(Mutex::new(String::new()));
    let served = Arc::clone(&body);
    let fetch = move || -> Result<String, String> { Ok(served.lock().clone()) };
    scraper.add_text_source(ScrapeTargetConfig::new("text_exporter", "c:1"), Arc::new(fetch));
    let limits = ParseLimits::network();
    let samples = (FAMILIES * PER_FAMILY) as u64;
    for round in 1..=FIRST_CHUNK_ROUNDS {
        *body.lock() = write_body(round);
        let summary = scraper.scrape_round(round * 1_000);
        assert_eq!((summary.healthy, summary.samples_added), (1, samples));
    }
    for round in FIRST_CHUNK_ROUNDS + 1..FIRST_CHUNK_ROUNDS + 8 {
        let text = write_body(round);
        let before = allocations();
        drop(parse_families_bounded(&text, limits).unwrap());
        let parsed = allocations() - before;
        *body.lock() = text;
        let before = allocations();
        let summary = scraper.scrape_round(round * 1_000);
        let spent = allocations() - before;
        assert_eq!(summary.samples_added, samples);
        let budget = 16 * FAMILIES as u64 + 32;
        assert!(parsed <= budget, "the parse allocated {parsed} times (budget {budget})");
        assert_eq!(spent, 1 + parsed, "a warm text round allocates its document and its parse");
    }
    assert_eq!(db.stats().series, samples + 4, "the samples and the target's meta series");
}
