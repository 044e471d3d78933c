//! The durability tier's correctness oracle, mirroring
//! `ingest_equivalence.rs`: generated scrape workloads — series churn,
//! label-insertion reorderings, out-of-order timestamps, retention and
//! explicit series drops kicking in mid-stream — run against a **durable**
//! database on the deterministic [`FaultFs`].  After every acked round the
//! observable state is snapshotted; then the log is killed at random byte
//! offsets (plus the exact ack boundaries) and reopened.  The recovered
//! database must equal the acked prefix exactly: same series with the same
//! ids in the same creation order, same samples, same aggregate stats.
//!
//! Values are whole numbers of either sign and every integer width the log
//! writes, and fractions, so the crash points land inside entries of both
//! forms.
//!
//! The scrape clock jumps past the stale-head window every few rounds and
//! most cases retain longer than it, so retention passes seal idle heads
//! mid-stream — a rule with no WAL record of its own, which replay must
//! reproduce from the retention record and the state it rebuilt.

mod support;

use std::path::Path;
use std::sync::Arc;

use proptest::{proptest, TestRng};
use support::{fingerprint, ScriptedEndpoint};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_obs::probes;
use teemon_tsdb::{
    CrashModel, DurabilityOptions, FaultFs, FsyncMode, ScrapeTargetConfig, Scraper, Selector,
    TimeSeriesDb, TsdbConfig, STALE_HEAD_MS,
};

/// One logical series of the generated workload.
#[derive(Clone)]
struct GenSeries {
    metric: usize,
    labels: Vec<(String, String)>,
}

const METRICS: [&str; 4] =
    ["sgx_epc_pages", "teemon_syscalls_total", "proc_cpu_seconds", "container_mem_bytes"];
const LABEL_KEYS: [&str; 3] = ["node", "syscall", "pod"];
const LABEL_VALUES: [&str; 4] = ["n1", "n2", "read", "web-0"];

fn gen_series(rng: &mut TestRng) -> GenSeries {
    let metric = rng.below(METRICS.len() as u64) as usize;
    let label_count = rng.below(3) as usize;
    let mut labels = Vec::new();
    for key in LABEL_KEYS.iter().take(label_count) {
        let value = LABEL_VALUES[rng.below(LABEL_VALUES.len() as u64) as usize];
        labels.push((key.to_string(), value.to_string()));
    }
    GenSeries { metric, labels }
}

/// A sample's value: half the time what the scrape clock and the metric
/// make — a positive whole number — and otherwise its negative, a whole
/// number of either sign at each integer width a log entry can take (one
/// below, at and above `2^8`, `2^16`, `2^24`, `2^32`), or a fraction, so the
/// crash sweep cuts through entries of both forms.
fn gen_value(rng: &mut TestRng, now: u64, metric: usize) -> f64 {
    let whole = (now / 1000) as f64 + metric as f64;
    match rng.below(8) {
        0..=3 => whole,
        4 => -whole,
        5 => {
            let edge = (1u64 << (8 * (1 + rng.below(4)))) as f64 - 1.0 + rng.below(3) as f64;
            if rng.below(2) == 0 {
                edge
            } else {
                -edge
            }
        }
        6 => whole + 0.5,
        _ => whole + rng.below(1_000) as f64 / 1_000.0,
    }
}

/// Builds the round's snapshot: one family per metric, label pairs inserted
/// in a per-round shuffled order, occasional explicit (sometimes
/// out-of-order) timestamps so replay must reproduce rejections too.
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
            let value = gen_value(rng, now, series.metric);
            let mut point = MetricPoint::new(labels, PointValue::Gauge(value));
            match rng.below(10) {
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

/// Whether the log behind `fs` has been through the whole checkpoint cycle:
/// the first segment sealed, covered and deleted, and both kinds of snapshot
/// installed.
fn went_full_cycle(fs: &FaultFs) -> bool {
    let names: Vec<String> = fs
        .file_paths()
        .iter()
        .filter_map(|path| Some(path.file_name()?.to_str()?.to_string()))
        .collect();
    !names.contains(&"segment-00000001.log".to_string())
        && names.contains(&"symbols.snap".to_string())
        && names.iter().any(|name| name.starts_with("shard-"))
}

/// Samples per chunk: low, so rounds seal chunks mid-stream — four, under
/// the eight-sample tail an open head encodes in bursts of, or on one case
/// in four nine: a burst at the eighth sample, the seal one later, partial
/// blocks in between.
fn chunk_size(case: u64) -> usize {
    if case % 4 == 1 {
        9
    } else {
        4
    }
}

/// [`run_case`] reports whether a retention pass sealed a stale head by the
/// process-wide `teemon_tsdb_stale_heads_sealed_total`; its callers take
/// turns.
static ONE_CASE_AT_A_TIME: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();

/// Runs one generated workload and its crash sweep; returns whether a stale
/// head was sealed along the way.
fn run_case(initial_series: usize, rounds: u64, case: u64) -> bool {
    let _turn = ONE_CASE_AT_A_TIME.get_or_init(Default::default).lock();
    let sealed_before = probes::STALE_HEADS_SEALED.get();
    let mut rng = TestRng::deterministic(&format!("wal-crash-consistency-{case}"));
    let config = TsdbConfig {
        chunk_size: chunk_size(case),
        // Four rounds — retention bites and evicts before anything goes
        // stale — or long enough for idle heads to be sealed, revived
        // and evicted a few clock jumps later.
        retention_ms: if case.is_multiple_of(3) { 20_000 } else { 3 * STALE_HEAD_MS },
    };
    // Tiny segments on half the cases, so rotation interleaves the
    // workload.
    let rotating = case.is_multiple_of(2);
    let segment_bytes = if rotating { 128 } else { u64::MAX };
    let fs = FaultFs::new();
    let options = DurabilityOptions {
        segment_bytes,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(fs.clone()),
    };
    let db = TimeSeriesDb::open_with(Path::new("/wal"), config.clone(), options)
        .expect("FaultFs open cannot fail");
    assert!(db.durable());
    let endpoint = Arc::new(ScriptedEndpoint::default());
    let scraper = Scraper::new(db.clone()).with_modelled_durations();
    scraper.add_target(
        ScrapeTargetConfig::new("gen_exporter", "node-1:9999").with_label("node", "node-1"),
        endpoint.clone(),
    );

    // (bytes on disk at the ack, fingerprint of the acked state).
    let mut acked = vec![(0u64, fingerprint(&db))];
    let mut pool: Vec<GenSeries> = (0..initial_series).map(|_| gen_series(&mut rng)).collect();
    // Sized by events, not bytes: the drawn number of rounds, and for a
    // rotating case on until segments were sealed and deleted and both
    // kinds of snapshot installed — the sweep below must cross them.
    let mut round = 0;
    let mut now = 0;
    let mut jumped = false;
    while round < rounds || rotating && !went_full_cycle(&fs) {
        round += 1;
        assert!(round <= 100, "case {case}: no full checkpoint cycle in 100 rounds");
        // Maintenance first: its WAL records ride along with this
        // round's appends and are covered by the same commit.  The
        // round after a clock jump always starts with a retention pass:
        // whatever sat the jump out is stale by then.
        if jumped || rng.below(4) == 0 {
            db.apply_retention();
        }
        // One round in four the clock jumps past the stale-head window
        // and half the series sit the round out.
        jumped = rng.below(4) == 0;
        now += if jumped { STALE_HEAD_MS + 5_000 } else { 5_000 };
        if rng.below(5) == 0 {
            let metric = METRICS[rng.below(METRICS.len() as u64) as usize];
            db.drop_series(&Selector::metric(metric));
        }
        // Churn: occasionally a new series joins the pool, and every
        // series skips some rounds (vanish + reappear).
        if rng.below(3) == 0 {
            pool.push(gen_series(&mut rng));
        }
        let turnout = if jumped { 5 } else { 8 };
        let active: Vec<bool> = pool.iter().map(|_| rng.below(10) < turnout).collect();
        endpoint.set(build_families(&pool, &active, &mut rng, now));

        // The scrape round ends with the WAL flush — the ack point.
        scraper.scrape_once(now);
        acked.push((fs.total_write_bytes(), fingerprint(&db)));
    }
    assert!(db.stats().samples > 0, "workload must exercise the db");
    assert_eq!(db.stats().wal_failed_shards, 0, "fault-free run must stay clean");

    // Kill the log at random offsets plus every exact ack boundary.
    let total = fs.total_write_bytes();
    let mut offsets: Vec<u64> = acked.iter().map(|(bytes, _)| *bytes).collect();
    for _ in 0..24 {
        offsets.push(rng.below(total + 1));
    }
    for k in offsets {
        for model in [CrashModel::Torn, CrashModel::SyncedOnly] {
            let image = fs.crashed(k, model);
            let recovered = TimeSeriesDb::open_with(
                Path::new("/wal"),
                config.clone(),
                DurabilityOptions {
                    segment_bytes,
                    fsync: FsyncMode::EveryCommit,
                    fs: Arc::new(image),
                },
            )
            .expect("FaultFs open cannot fail");
            let expected = acked
                .iter()
                .rev()
                .find(|(bytes, _)| *bytes <= k)
                .expect("acked[0] covers budget 0");
            assert_eq!(
                fingerprint(&recovered),
                expected.1,
                "crash at byte {k}/{total} ({model:?}, case {case}) diverged from the acked prefix"
            );
        }
    }
    probes::STALE_HEADS_SEALED.get() > sealed_before
}

proptest! {
    #[test]
    fn recovery_equals_the_acked_prefix(
        initial_series in 4usize..16,
        rounds in 5u64..12,
        case in 0u64..1_000_000,
    ) {
        run_case(initial_series, rounds, case);
    }
}

#[test]
fn the_stale_head_rule_fires_inside_the_sweep() {
    // The property above only covers the rule if the generator reaches it:
    // a fixed set of cases must seal stale heads before their crash sweeps.
    let fired = (0..16).filter(|&case| run_case(12, 11, case)).count();
    assert!(fired >= 4, "only {fired} of 16 cases sealed a stale head");
}
