//! The fast lane's correctness oracle: generated scrape workloads — series
//! churn, label-insertion reorderings, explicit/out-of-order timestamps,
//! retention (including whole-series eviction) and explicit series drops
//! kicking in mid-stream — ingested through the cached batch path
//! ([`IngestMode::FastLane`]) and through the pre-cache per-sample path
//! ([`IngestMode::PerSample`]) must produce **identical** databases: same
//! series in the same creation order with the same ids, same samples, same
//! aggregate stats (including rejection counts and resident bytes).  The
//! scrape clock jumps past the stale-head window every few rounds, so the
//! retention passes also seal idle heads — on both sides alike, or the
//! resident bytes and chunk counts part ways.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::{proptest, TestRng};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_obs::probes;
use teemon_tsdb::{
    IngestMode, MetricsEndpoint, ScrapeError, ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb,
    TsdbConfig, STALE_HEAD_MS,
};

/// An endpoint whose snapshot set the test rewrites every round.  Shared by
/// both scrapers so they observe byte-identical rounds.
#[derive(Default)]
struct ScriptedEndpoint(Mutex<Vec<FamilySnapshot>>);

impl ScriptedEndpoint {
    fn set(&self, families: Vec<FamilySnapshot>) {
        *self.0.lock() = families;
    }
}

impl MetricsEndpoint for ScriptedEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().clone())
    }
}

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

/// One series as compared across databases: id, name, rendered labels, data.
type SeriesDump = (u64, String, String, Vec<(u64, f64)>);

/// Everything observable about a database, in creation order.
fn fingerprint(db: &TimeSeriesDb) -> (String, Vec<SeriesDump>) {
    let series = db
        .select(&Selector::all())
        .iter()
        .map(|s| {
            (
                s.series_id().as_u64(),
                s.name().to_string(),
                s.to_labels().to_string(),
                s.points_in(0, u64::MAX),
            )
        })
        .collect();
    (format!("{:?}", db.stats()), series)
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

/// Runs one generated workload through both lanes; returns whether a stale
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
    let fast = Scraper::new(fast_db.clone()).with_modelled_durations(); // FastLane default
    fast.add_target(target(), endpoint.clone());
    let slow = Scraper::new(slow_db.clone())
        .with_ingest_mode(IngestMode::PerSample)
        .with_modelled_durations();
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
