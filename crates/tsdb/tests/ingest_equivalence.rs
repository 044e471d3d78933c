//! The fast lane's correctness oracle: generated scrape workloads — series
//! churn, label-insertion reorderings, explicit/out-of-order timestamps,
//! retention (including whole-series eviction) and explicit series drops
//! kicking in mid-stream — ingested through the [`Scraper`]'s cached batch
//! path and through the per-sample reference of `teemon_testkit::scrape`
//! (merge the target labels, append every sample by key) must produce
//! **identical**
//! databases: same series in the same creation order with the same ids,
//! same samples, same aggregate stats (including rejection counts and
//! resident bytes).  The scrape clock jumps past the stale-head window every
//! few rounds, so the retention passes also seal idle heads — on both sides
//! alike, or the resident bytes and chunk counts part ways.

use std::path::Path;
use std::sync::Arc;

use proptest::{proptest, TestRng};
use teemon_metrics::{
    FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint, PointValue,
};
use teemon_obs::probes;
use teemon_testkit::scrape::{fingerprint, PerSampleScraper, ScriptedEndpoint};
use teemon_testkit::workload::{chunk_size, gen_series, GenSeries, METRICS};
use teemon_testkit::FaultFs;
use teemon_tsdb::{
    DurabilityOptions, ScrapeError, ScrapeTargetConfig, Scraper, Selector, SeriesHandle,
    TimeSeriesDb, TsdbConfig, BATCH_BLOCK, STALE_HEAD_MS,
};

/// Builds the round's snapshot: one family per metric in metric order,
/// points in pool order, label pairs inserted in a per-round shuffled order
/// (`Labels` normalises, so identity is unaffected — which is the point).
fn build_families(
    pool: &[GenSeries],
    active: &[bool],
    rng: &mut TestRng,
    now: u64,
) -> Vec<FamilySnapshot> {
    let mut families: Vec<FamilySnapshot> = Vec::new();
    for (metric_idx, metric) in METRICS.iter().enumerate() {
        let mut family = FamilySnapshot::new(*metric, "generated", MetricKind::Gauge);
        for (series, &on) in pool.iter().zip(active) {
            if !on || series.metric != metric_idx {
                continue;
            }
            let mut pairs = series.labels.clone();
            if pairs.len() > 1 && rng.below(2) == 0 {
                pairs.reverse();
            }
            let labels = Labels::from_pairs(pairs);
            let value = (now as f64 / 1000.0) + series.metric as f64;
            let mut point = MetricPoint::new(labels, PointValue::Gauge(value));
            match rng.below(10) {
                // Explicit timestamp behind the scraper clock — sometimes far
                // enough back to be rejected as out of order.
                0 => point = point.at(now.saturating_sub(rng.below(20_000))),
                1 => point = point.at(now + rng.below(2_000)),
                _ => {}
            }
            family.points.push(point);
        }
        if !family.points.is_empty() {
            families.push(family);
        }
    }
    families
}

/// [`run_case`] reports whether a retention pass sealed a stale head by the
/// process-wide `teemon_tsdb_stale_heads_sealed_total`; its callers take
/// turns.
static ONE_CASE_AT_A_TIME: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();

/// Runs one generated workload through both sides; returns whether a stale
/// head was sealed along the way.
fn run_case(initial_series: usize, rounds: u64, case: u64) -> bool {
    let _turn = ONE_CASE_AT_A_TIME.get_or_init(Default::default).lock();
    let sealed_before = probes::STALE_HEADS_SEALED.get();
    let mut rng = TestRng::deterministic(&format!("ingest-equivalence-{case}"));
    let config = TsdbConfig {
        chunk_size: chunk_size(case),
        // Four rounds — retention bites and evicts before anything goes
        // stale — or long enough for idle heads to be sealed, revived
        // and evicted a few clock jumps later.
        retention_ms: if case.is_multiple_of(3) { 20_000 } else { 3 * STALE_HEAD_MS },
    };
    let fast_db = TimeSeriesDb::with_config(config.clone());
    let slow_db = TimeSeriesDb::with_config(config);
    let endpoint = Arc::new(ScriptedEndpoint::default());
    let target =
        || ScrapeTargetConfig::new("gen_exporter", "node-1:9999").with_label("node", "node-1");
    // Modelled durations: outcome equality includes `duration_seconds`,
    // which measured wall time would never reproduce across two runs.
    let fast = Scraper::new(fast_db.clone()).with_modelled_durations();
    fast.add_target(target(), endpoint.clone());
    let mut slow = PerSampleScraper::new(slow_db.clone());
    slow.add_target(target(), endpoint.clone());

    let mut pool: Vec<GenSeries> = (0..initial_series).map(|_| gen_series(&mut rng)).collect();
    let mut now = 0;
    for round in 1..=rounds {
        // One round in four the clock jumps past the stale-head window
        // and half the series sit the round out.
        let jumped = rng.below(4) == 0;
        now += if jumped { STALE_HEAD_MS + 5_000 } else { 5_000 };
        // Churn: occasionally a new series joins the pool…
        if rng.below(3) == 0 {
            pool.push(gen_series(&mut rng));
        }
        // …and every series skips some rounds (vanish + reappear).
        let turnout = if jumped { 5 } else { 8 };
        let active: Vec<bool> = pool.iter().map(|_| rng.below(10) < turnout).collect();
        endpoint.set(build_families(&pool, &active, &mut rng, now));

        fast.scrape_once(now);
        slow.scrape_once(now);

        // Mid-stream maintenance, applied to both sides identically —
        // always after a jump: whatever sat it out is stale by now.
        if jumped || rng.below(4) == 0 {
            assert_eq!(fast_db.apply_retention(), slow_db.apply_retention());
        }
        if rng.below(5) == 0 {
            let metric = METRICS[rng.below(METRICS.len() as u64) as usize];
            let selector = Selector::metric(metric);
            assert_eq!(fast_db.drop_series(&selector), slow_db.drop_series(&selector));
        }

        assert_eq!(
            fingerprint(&fast_db),
            fingerprint(&slow_db),
            "databases diverged at round {round} (case {case})"
        );
    }
    // The property is only interesting if the workload exercised the db.
    assert!(fast_db.stats().samples > 0 || rounds == 0);
    probes::STALE_HEADS_SEALED.get() > sealed_before
}

proptest! {
    #[test]
    fn fast_lane_and_per_sample_build_identical_databases(
        initial_series in 4usize..16,
        rounds in 5u64..12,
        case in 0u64..1_000_000,
    ) {
        run_case(initial_series, rounds, case);
    }
}

#[test]
fn the_stale_head_rule_fires_inside_the_sweep() {
    // The property above only covers the rule if the generator reaches it.
    let fired = (0..16).filter(|&case| run_case(12, 11, case)).count();
    assert!(fired >= 4, "only {fired} of 16 cases sealed a stale head");
}

/// The last value of `metric` for `instance`, if the series exists.
fn last_value(db: &TimeSeriesDb, metric: &str, instance: &str) -> Option<f64> {
    let selector = Selector::metric(metric).with_label("instance", instance);
    db.select(&selector).iter().find_map(|series| series.at(u64::MAX)).map(|s| s.value)
}

/// Holds the scraper and the reference to each other on the three rounds a
/// generated gauge workload reaches rarely or never: a target that is down,
/// samples stamped behind what is stored, and a histogram family.  The
/// expectations are stated, not only compared, so neither side can change
/// alone — nor both together.
#[test]
fn down_targets_stale_stamps_and_histograms_match_the_reference() {
    let fast_db = TimeSeriesDb::new();
    let slow_db = TimeSeriesDb::new();
    let fast = Scraper::new(fast_db.clone()).with_modelled_durations();
    let mut slow = PerSampleScraper::new(slow_db.clone());
    let stamped = Arc::new(ScriptedEndpoint::default());
    let histogram = Arc::new(ScriptedEndpoint::default());
    let down = || Err::<Vec<FamilySnapshot>, _>(ScrapeError::Unreachable("refused".to_string()));
    let target = |instance: &str| ScrapeTargetConfig::new("gen", instance).with_label("zone", "z1");
    fast.add_target(target("down:1"), Arc::new(down));
    slow.add_target(target("down:1"), Arc::new(down));
    fast.add_target(target("stamped:1"), stamped.clone());
    slow.add_target(target("stamped:1"), stamped.clone());
    fast.add_target(target("histogram:1"), histogram.clone());
    slow.add_target(target("histogram:1"), histogram.clone());

    for round in 1..=4u64 {
        let now = round * 5_000;
        // Three gauges: unstamped, stamped ahead of the clock on odd rounds
        // and behind what that stored on even ones, and stamped a millisecond
        // *earlier* every round (an equal stamp would be taken).
        let mut family = FamilySnapshot::new("queue_depth", "generated", MetricKind::Gauge);
        let point = |queue: &str| {
            MetricPoint::new(Labels::from_pairs([("queue", queue)]), PointValue::Gauge(now as f64))
        };
        let swinging = if round % 2 == 1 { now + 1_000 } else { now - 6_000 };
        family.points =
            vec![point("plain"), point("swinging").at(swinging), point("receding").at(100 - round)];
        stamped.set(vec![family]);

        let mut family = FamilySnapshot::new("rpc_seconds", "generated", MetricKind::Histogram);
        let snapshot = HistogramSnapshot {
            bounds: vec![0.1, 1.0],
            cumulative_counts: vec![round, 2 * round, 3 * round],
            sum: round as f64,
            count: 3 * round,
        };
        family.points.push(MetricPoint::new(Labels::new(), PointValue::Histogram(snapshot)));
        histogram.set(vec![family]);

        assert_eq!(fast.scrape_once(now), slow.scrape_once(now), "outcomes at round {round}");
        assert_eq!(fingerprint(&fast_db), fingerprint(&slow_db), "stores at round {round}");
    }

    // Down: `up` is 0 and the sample counters never appear.
    assert_eq!(last_value(&fast_db, "up", "down:1"), Some(0.0));
    assert_eq!(last_value(&fast_db, "scrape_duration_seconds", "down:1"), Some(500e-6));
    assert_eq!(last_value(&fast_db, "scrape_samples_scraped", "down:1"), None);
    assert_eq!(last_value(&fast_db, "scrape_samples_added", "down:1"), None);
    // Stale stamps: the last round exposed three samples and storage took
    // one; `swinging` lost rounds 2 and 4, `receding` rounds 2, 3 and 4.
    assert_eq!(last_value(&fast_db, "up", "stamped:1"), Some(1.0));
    assert_eq!(last_value(&fast_db, "scrape_samples_scraped", "stamped:1"), Some(3.0));
    assert_eq!(last_value(&fast_db, "scrape_samples_added", "stamped:1"), Some(1.0));
    assert_eq!(fast_db.stats().rejected_samples, 5);
    let swinging = Selector::metric("queue_depth").with_label("queue", "swinging");
    assert_eq!(
        fast_db.select(&swinging)[0]
            .points_in(0, u64::MAX)
            .iter()
            .map(|s| (s.timestamp_ms, s.value))
            .collect::<Vec<_>>(),
        [(6_000, 5_000.0), (16_000, 15_000.0)]
    );
    // Histogram: three buckets, `_sum` and `_count`, every round.
    assert_eq!(last_value(&fast_db, "scrape_samples_added", "histogram:1"), Some(5.0));
    let buckets = fast_db.select(&Selector::metric("rpc_seconds_bucket"));
    let mut bounds: Vec<&str> = buckets.iter().filter_map(|s| s.label_value("le")).collect();
    bounds.sort_unstable();
    assert_eq!(bounds, ["+Inf", "0.1", "1"]);
    assert!(buckets.iter().all(|s| s.len() == 4 && s.label_value("zone") == Some("z1")));
}

/// The storage half of the fast lane: [`TimeSeriesDb::append_batch`] over a
/// shuffled batch of more than one [`BATCH_BLOCK`], some of whose handles a
/// drop staled, does exactly what batches of one entry do in input order —
/// the same store, the same counts, the same stale entries — and its log
/// replays to that store.  A batch of one takes no sort, no run and no block
/// boundary, so it is the per-sample reference.
#[test]
fn a_multi_block_batch_equals_its_appends_one_by_one() {
    const SERIES: usize = 600;
    const ENTRIES: usize = 10_000;
    const { assert!(ENTRIES > 2 * BATCH_BLOCK) };
    let fs = FaultFs::new();
    let open = |fs: &FaultFs| {
        let options =
            DurabilityOptions { fs: Arc::new(fs.clone()), ..DurabilityOptions::default() };
        TimeSeriesDb::open_with(Path::new("/wal"), TsdbConfig::default(), options)
            .expect("FaultFs open cannot fail")
    };
    let batched = open(&fs);
    let one_by_one = TimeSeriesDb::new();
    let handles: Vec<(SeriesHandle, SeriesHandle)> = (0..SERIES)
        .map(|i| {
            let labels =
                Labels::from_pairs([("idx", format!("{i}")), ("node", format!("n{}", i % 7))]);
            (batched.resolve("m", &labels), one_by_one.resolve("m", &labels))
        })
        .collect();
    for idx in ["5", "123", "404"] {
        let selector = Selector::metric("m").with_label("idx", idx);
        assert_eq!((batched.drop_series(&selector), one_by_one.drop_series(&selector)), (1, 1));
    }

    // Series picked at random, timestamps rising with jitter (so some land
    // out of order), values whole and fractional (both block kinds).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let entries: Vec<(usize, u64, f64)> = (0..ENTRIES as u64)
        .map(|k| {
            let series = (next() % SERIES as u64) as usize;
            let timestamp_ms = 1_000 * (k / 4) + next() % 20_000;
            let value = (next() % 1_000) as f64 + if k % 3 == 0 { 0.5 } else { 0.0 };
            (series, timestamp_ms, value)
        })
        .collect();

    let batch: Vec<_> = entries.iter().map(|&(s, t, v)| (handles[s].0, t, v)).collect();
    let outcome = batched.append_batch(&batch);
    let (mut appended, mut rejected, mut stale) = (0u64, 0u64, Vec::new());
    for (index, &(s, t, v)) in entries.iter().enumerate() {
        let one = one_by_one.append_batch(&[(handles[s].1, t, v)]);
        appended += one.appended;
        rejected += one.rejected;
        if !one.stale.is_empty() {
            stale.push(index);
        }
    }
    assert!(appended > 0 && rejected > 0 && !stale.is_empty(), "{appended} {rejected}");
    let mut reported = outcome.stale.clone();
    reported.sort_unstable();
    assert_eq!((outcome.appended, outcome.rejected, reported), (appended, rejected, stale));
    assert_eq!(fingerprint(&batched), fingerprint(&one_by_one));

    assert!(batched.wal_flush());
    let live = fingerprint(&batched);
    drop(batched);
    assert_eq!(fingerprint(&open(&fs)), live, "the log replays to the store it was written by");
}
