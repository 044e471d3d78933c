//! Code-level proof of the read path's allocation bounds, in the
//! counting-allocator idiom of `crates/tsdb/tests/alloc_free_scrape.rs`:
//!
//! * rendering a matrix allocates a constant handful of times — one pre-sized
//!   body, not a tree node per point;
//! * running a streaming plan allocates `O(series + groups)` — the reused
//!   decode buffer and columns, the group accumulators and the result — and
//!   the count does not move when every series holds twice the samples;
//! * planning materialises each selected series' label set in one allocation,
//!   however many labels it carries, and an aggregation builds each series'
//!   group key in one more;
//! * selecting a series costs two allocations — its label strings and the
//!   copy of its open head — however many sealed chunks it holds, and the
//!   selection beside them at most one a shard: its postings are walked
//!   where they lie;
//! * a warm point read (`SeriesSnapshot::at`) allocates nothing, whether it
//!   lands in a compressed sealed chunk, a raw one or the head's copy.

use teemon_metrics::Labels;
use teemon_query::stream::plan_or_reason;
use teemon_query::{json, parse, QueryEngine, RangeSeries};
use teemon_testkit::alloc::{allocations_in, CountingAllocator};
use teemon_tsdb::{Sample, Selector, TimeSeriesDb, TsdbConfig, SHARD_COUNT};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn rendering_a_matrix_allocates_a_constant_handful() {
    let series: Vec<RangeSeries> = (0..50)
        .map(|i| RangeSeries {
            name: Some("teemon_syscalls_total".to_string()),
            labels: Labels::from_pairs([
                ("node", format!("node-{i}")),
                ("pod", format!("pod-{i}-a1b2c3")),
            ]),
            points: (0..240u64)
                .map(|t| Sample {
                    timestamp_ms: 1_700_000_000_000 + t * 15_000,
                    value: 12.480833333333324 * (t + i) as f64,
                })
                .collect(),
        })
        .collect();
    let (body, allocations) = allocations_in(|| json::range_response(&series));
    assert!(body.len() > 50 * 240 * 20, "{} bytes", body.len());
    assert!(allocations <= 4, "{allocations} allocations for {} bytes", body.len());
}

const NODES: usize = 50;
const PODS: usize = 10;

/// 500 counters (50 nodes × 10 pods), `ticks` samples each at 15 s.
fn store(ticks: u64) -> TimeSeriesDb {
    let db = TimeSeriesDb::new();
    for node in 0..NODES {
        for pod in 0..PODS {
            let labels = Labels::from_pairs([
                ("node", format!("node-{node}")),
                ("pod", format!("pod-{pod}")),
            ]);
            let slope = (25 + (node * PODS + pod) % 100) as f64;
            for tick in 0..ticks {
                db.append("m", &labels, tick * 15_000, slope * tick as f64);
            }
        }
    }
    db
}

/// Allocations of one warm `sum by (node) (rate(m[5m]))` run over the whole
/// store at 61 steps, with the samples it decoded.
fn run_allocations(ticks: u64) -> (u64, u64) {
    let db = store(ticks);
    let expr = parse("sum by (node) (rate(m[5m]))").unwrap();
    let (start, end) = (300_000, (ticks - 1) * 15_000);
    let step = (end - start) / 60;
    let mut counted = (0, 0);
    // The first run is the warm-up; the second is counted.
    for _ in 0..2 {
        let plan =
            plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, start, end).unwrap();
        let ((series, stats), allocations) =
            allocations_in(|| plan.run_with_stats(start, end, step));
        assert_eq!(series.len(), NODES);
        assert!(series.iter().all(|s| s.points.len() == 61));
        counted = (allocations, stats.samples_decoded);
    }
    counted
}

#[test]
fn a_streaming_run_allocates_per_series_and_group_not_per_sample() {
    let (allocations, decoded) = run_allocations(240);
    let (allocations_doubled, decoded_doubled) = run_allocations(480);
    assert!(decoded_doubled > decoded * 2 - 1_000, "{decoded} → {decoded_doubled} samples");
    assert_eq!(
        allocations, allocations_doubled,
        "decoding {decoded} vs {decoded_doubled} samples must allocate alike"
    );
    // One result series per group plus the shared buffers — far below one
    // per input series, let alone one per sample.  (Ten of those buffers:
    // deciding whether a series' `rate` windows can be read off their end
    // points is a pass over the decode buffer, not a list of its own.)
    assert!(allocations <= (NODES + 10) as u64, "{allocations} allocations");
}

/// `series` one-sample counters carrying `extra` labels besides `idx`.
fn labelled_store(series: usize, extra: usize) -> TimeSeriesDb {
    const NAMES: [&str; 5] = ["cluster", "job", "node", "pod", "zone"];
    let db = TimeSeriesDb::new();
    for i in 0..series {
        let mut labels = Labels::from_pairs([("idx", format!("{i}"))]);
        for name in NAMES.iter().take(extra) {
            labels.insert(*name, format!("{name}-{}", i % 7));
        }
        db.append("m", &labels, 1_000, i as f64);
    }
    db
}

#[test]
fn a_plan_materialises_each_label_set_in_one_allocation() {
    const SERIES: usize = 300;
    let expr = parse("rate(m[5m])").unwrap();
    let planned = |extra: usize| {
        let db = labelled_store(SERIES, extra);
        let snapshots = db.select(&Selector::metric("m"));
        let (labels, per_set) =
            allocations_in(|| snapshots.iter().map(|s| s.to_labels()).collect::<Vec<_>>());
        assert!(labels.iter().all(|l| l.len() == 1 + extra));
        // One per label set, and the `Vec` holding them.
        assert!(per_set <= SERIES as u64 + 1, "{per_set} allocations for {SERIES} label sets");
        let (plan, allocations) = allocations_in(|| {
            plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, 0, 60_000)
        });
        assert!(plan.is_ok());
        allocations
    };
    // Borrowed pairs go straight into the packed set: five more labels a
    // series are more bytes in the same allocations, not ten more `String`s
    // each (a handful of buffers sized by the label count aside).
    let (bare, labelled) = (planned(0), planned(5));
    assert!(labelled <= bare + 8, "{bare} allocations bare, {labelled} with five labels more");
}

/// `series` one-sample counters, each on its own `node`, carrying `extra`
/// labels besides it.
fn grouped_store(series: usize, extra: usize) -> TimeSeriesDb {
    const NAMES: [&str; 5] = ["cluster", "job", "pod", "region", "zone"];
    let db = TimeSeriesDb::new();
    for i in 0..series {
        let mut labels = Labels::from_pairs([("node", format!("node-{i}"))]);
        for name in NAMES.iter().take(extra) {
            labels.insert(*name, format!("{name}-{}", i % 7));
        }
        db.append("m", &labels, 1_000, i as f64);
    }
    db
}

#[test]
fn a_grouped_plan_allocates_a_constant_per_series_however_many_labels() {
    const SERIES: usize = 300;
    let planned = |query: &str, extra: usize| {
        let db = grouped_store(SERIES, extra);
        let expr = parse(query).unwrap();
        let (plan, allocations) = allocations_in(|| {
            plan_or_reason(&db, QueryEngine::DEFAULT_LOOKBACK_MS, &expr, 0, 60_000)
        });
        assert!(plan.is_ok());
        allocations
    };
    let (bare, labelled) =
        (planned("sum by (node) (rate(m[5m]))", 0), planned("sum by (node) (rate(m[5m]))", 5));
    assert!(bare <= 8 * SERIES as u64, "{bare} allocations for {SERIES} series");
    assert_eq!(labelled, bare, "five labels more a series must allocate alike");
    // What the grouping adds to the selection below it: each series' group
    // key, built straight from borrowed pairs in one allocation, and a
    // handful of tables.  A `String` per label, or a clone of every key to
    // sort them, would be another allocation or more a series.
    let grouping = bare - planned("rate(m[5m])", 0);
    assert!(grouping <= SERIES as u64 + 16, "{grouping} allocations to group {SERIES} series");
}

/// `series` counters of 12 sealed chunks and an open head of 40 samples (five
/// encoded bursts) each, all in the shapes `dashboard_read` preloads.
fn chunked_store(series: usize) -> TimeSeriesDb {
    const CHUNK_SIZE: u64 = 120;
    let db = TimeSeriesDb::with_config(TsdbConfig {
        chunk_size: CHUNK_SIZE as usize,
        retention_ms: u64::MAX,
    });
    let handles: Vec<_> = (0..series)
        .map(|i| db.resolve("m", &Labels::from_pairs([("node", format!("node-{i}"))])))
        .collect();
    let mut batch = Vec::with_capacity(series);
    for tick in 0..12 * CHUNK_SIZE + 40 {
        batch.clear();
        batch.extend(handles.iter().map(|&h| (h, tick * 15_000, (tick * 3) as f64)));
        assert_eq!(db.append_batch(&batch).appended, series as u64);
    }
    db
}

#[test]
fn a_select_allocates_its_labels_and_its_head_copy_per_series() {
    let allocations = |series: usize| {
        let db = chunked_store(series);
        let selector = Selector::metric("m");
        // Warm: the head copy completes its block in a buffer it keeps.
        db.select(&selector);
        let (snapshots, allocations) = allocations_in(|| db.select(&selector));
        assert_eq!(snapshots.len(), series);
        assert!(snapshots.iter().all(|s| s.chunk_count() == 13 && s.len() == 12 * 120 + 40));
        allocations
    };
    let (some, twice) = (allocations(160), allocations(320));
    // Each series more: its label strings and its head's copy, exactly —
    // the sealed chunks are one shared list, the result one vector sized
    // before it is filled.
    assert_eq!(twice - some, 2 * 160, "{some} allocations for 160 series, {twice} for 320");
    // Beside them, a constant: the result, and at most one a shard for its
    // candidates (a selector of one postings list walks it in place and
    // makes none).  Under `--cfg lock_audit` the audit names each lock it
    // records in one allocation more: the symbol table's for the plan, each
    // shard's once (held from counting through snapshotting) and the symbol
    // table's once more in each shard that holds a match.
    let shards = SHARD_COUNT as u64;
    let audit = if cfg!(lock_audit) { 1 + 2 * shards } else { 0 };
    assert!(some <= 2 * 160 + 1 + shards + audit, "{some} allocations for 160 series");
}

#[test]
fn a_warm_point_read_allocates_nothing() {
    // On 16-sample chunks: `steady`, a counter of two compressed sealed
    // chunks and an open head of twelve (a burst encoded, so its copy is a
    // block); `jumpy`, whose first chunk's block would outgrow its samples —
    // every delta the raw escape, every value a new window — so it is sealed
    // raw, and a head of three, copied raw.
    let db = TimeSeriesDb::with_config(TsdbConfig { chunk_size: 16, retention_ms: u64::MAX });
    for tick in 0..44u64 {
        assert!(db.append("steady", &Labels::new(), tick * 15_000, (tick * 3) as f64));
    }
    let jumpy_value = |i: u64| f64::from_bits((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in 0..19u64 {
        assert!(db.append("jumpy", &Labels::new(), (i * i) << 40, jumpy_value(i)));
    }
    let [steady] = &db.select(&Selector::metric("steady"))[..] else { panic!("one series") };
    let [jumpy] = &db.select(&Selector::metric("jumpy"))[..] else { panic!("one series") };
    assert_eq!((steady.chunk_count(), jumpy.chunk_count()), (3, 2));
    assert!(steady.resident_bytes() < 16 * steady.len(), "compressed");
    assert_eq!(jumpy.resident_bytes(), 16 * jumpy.len(), "raw");

    let sample = |timestamp_ms, value| Some(Sample { timestamp_ms, value });
    let reads = [
        (steady, 100_000, sample(90_000, 18.0)),
        (steady, 300_000, sample(300_000, 60.0)),
        (steady, u64::MAX, sample(645_000, 129.0)),
        (jumpy, 50 << 40, sample(49 << 40, jumpy_value(7))),
        (jumpy, u64::MAX, sample(324 << 40, jumpy_value(18))),
    ];
    let answered = || reads.iter().all(|(series, at, want)| series.at(*at) == *want);
    // The first read on a thread sizes the buffer it decodes a block into.
    assert!(answered());
    let (warm, allocations) = allocations_in(answered);
    assert!(warm);
    assert_eq!(allocations, 0, "a warm `at` allocated");
}
