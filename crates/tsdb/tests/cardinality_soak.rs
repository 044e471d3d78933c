//! The cardinality defense tier's endurance proof: a sustained churn soak
//! in which **every round invents label strings never seen before** and
//! pushes them through *both* ingest edges — the scrape fast lane and a
//! remote-write [`PushLane`] — with retention running, admission budgets
//! attached, and the WAL on (deterministic [`FaultFs`]).  Half-way through,
//! the process "crashes" (the disk image is cut at the last journalled
//! operation and reopened) and the soak continues on the recovered
//! database.
//!
//! The claims under test:
//!
//! * **Bounded memory.** Despite unbounded-unique label traffic, resident +
//!   symbol + index + series-record bytes plateau: retention evicts drained
//!   series, series eviction releases symbols, cooling matures, and the
//!   symbol-table checkpoint's sweep frees the slots for reuse.  Without the
//!   symbol GC the table would grow by every churn string ever interned.
//! * **A spike is given back.** One round mints two thousand series on top;
//!   once they have aged out the footprint is back where it was — the series
//!   arrays and key indexes are counted at their capacity, so a store that
//!   kept its high-water mark would show it.
//! * **Exact resolution across restart.** The recovered database is
//!   byte-identical to the pre-crash state — every surviving series
//!   resolves to exactly its original name and label strings.
//! * **Warm edges stay clean.** No budget clips, no WAL failures, no
//!   rejected rounds anywhere in the soak.
//!
//! Sized for CI by default; set `TEEMON_SOAK_ROUNDS` to lengthen the soak
//! (the bounds are cadence-relative, so they hold at any length).

use std::path::Path;
use std::sync::Arc;

use teemon_metrics::exposition::{encode_text, parse_families_bounded, ParseLimits};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_testkit::scrape::{fingerprint, ScriptedEndpoint};
use teemon_testkit::{CrashModel, FaultFs};
use teemon_tsdb::{
    CardinalityBudgets, DurabilityOptions, FsyncMode, PushLane, ScrapeTargetConfig, Scraper,
    StorageStats, TimeSeriesDb, TsdbConfig,
};

/// Scrape interval the soak advances by each round.
const STEP_MS: u64 = 5_000;
/// Retention window: churn series age out after this many rounds.
const WINDOW_ROUNDS: u64 = 8;
/// Unique-labelled series minted per round on the scrape edge.
const SCRAPE_CHURN: usize = 4;
/// Unique-labelled series minted per round on the push edge.
const PUSH_CHURN: usize = 3;
/// Series the spike round mints on top, straight into the store.
const SPIKE_SERIES: usize = 2_000;
/// Rounds after the spike until nothing of it is left: its retention window,
/// then the cooling of its symbols and the next symbol checkpoint to sweep
/// them (the churn logs a segment's worth of bindings every eight rounds or
/// so).
const SPIKE_QUIET_ROUNDS: u64 = WINDOW_ROUNDS + 12;

/// What the soak holds to a plateau: the modelled total and the series
/// records the model leaves out.
fn footprint(stats: &StorageStats) -> u64 {
    stats.total_bytes() + stats.series_bytes
}

fn config() -> TsdbConfig {
    TsdbConfig { chunk_size: 4, retention_ms: WINDOW_ROUNDS * STEP_MS }
}

fn open(fs: &FaultFs) -> TimeSeriesDb {
    let options = DurabilityOptions {
        // Small segments: shards and the symbol table are checkpointed (and
        // the symbol sweep runs) many times over the soak.
        segment_bytes: 1024,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(fs.clone()),
    };
    TimeSeriesDb::open_with(Path::new("/wal"), config(), options).expect("FaultFs open cannot fail")
}

/// The scrape edge's families for one round: a fixed stable set plus
/// all-new churny series tagged with the round number.
fn scrape_families(round: u64) -> Vec<FamilySnapshot> {
    let mut stable = FamilySnapshot::new("sgx_nr_free_pages", "free pages", MetricKind::Gauge);
    for node in 0..6 {
        let labels = Labels::from_pairs([("node", format!("n{node}").as_str())]);
        stable.points.push(MetricPoint::new(labels, PointValue::Gauge(round as f64)));
    }
    let mut churn = FamilySnapshot::new("teemon_enclave_calls", "per enclave", MetricKind::Gauge);
    for i in 0..SCRAPE_CHURN {
        let labels = Labels::from_pairs([("enclave", format!("s{round}-{i}").as_str())]);
        churn.points.push(MetricPoint::new(labels, PointValue::Gauge(round as f64)));
    }
    vec![stable, churn]
}

/// The push edge's families for one round, minted churny the same way.
fn push_families(round: u64) -> Vec<FamilySnapshot> {
    let mut stable = FamilySnapshot::new("container_mem_bytes", "per pod", MetricKind::Gauge);
    for pod in 0..4 {
        let labels = Labels::from_pairs([("pod", format!("web-{pod}").as_str())]);
        stable.points.push(MetricPoint::new(labels, PointValue::Gauge(round as f64)));
    }
    let mut churn = FamilySnapshot::new("proc_short_lived", "per process", MetricKind::Gauge);
    for i in 0..PUSH_CHURN {
        let labels = Labels::from_pairs([("pid", format!("p{round}-{i}").as_str())]);
        churn.points.push(MetricPoint::new(labels, PointValue::Gauge(round as f64)));
    }
    vec![stable, churn]
}

/// Builds the soak's moving parts around `db`: budget pool, scrape target,
/// push lane.  Re-invoked after the mid-soak crash on the recovered handle.
fn rig(db: &TimeSeriesDb, endpoint: &Arc<ScriptedEndpoint>) -> (Scraper, PushLane) {
    let budgets = CardinalityBudgets::new();
    // Generous pools: admission is exercised every repair, but the soak is
    // sized to never clip — overflow anywhere fails the run.
    budgets.set_job_limit("sgx_exporter", 4_096);
    budgets.set_job_limit("remote_write", 4_096);
    let scraper = Scraper::new(db.clone()).with_budgets(budgets.clone());
    scraper.add_target(
        ScrapeTargetConfig::new("sgx_exporter", "node-1:9090").with_series_budget(2_048),
        endpoint.clone(),
    );
    let lane = PushLane::new(
        db.clone(),
        &ScrapeTargetConfig::new("remote_write", "agent-7").with_series_budget(2_048),
    )
    .with_budgets(budgets);
    (scraper, lane)
}

#[test]
fn churn_soak_survives_a_crash_with_bounded_memory() {
    let rounds: u64 = std::env::var("TEEMON_SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 40)
        .unwrap_or(48);
    let warmup = 2 * WINDOW_ROUNDS; // first window fills + cooling matures
    let crash_at = rounds / 2;
    let spike_at = warmup + 1;
    let quiet_again = spike_at + SPIKE_QUIET_ROUNDS;
    let mut before_spike = 0;

    let fs = FaultFs::new();
    let endpoint = Arc::new(ScriptedEndpoint::default());
    let mut db = open(&fs);
    let (mut scraper, mut lane) = rig(&db, &endpoint);

    let mut totals: Vec<(u64, u64)> = Vec::new(); // (round, footprint)
    let mut peak_symbols = 0u64;
    for round in 1..=rounds {
        let now = round * STEP_MS;
        endpoint.set(scrape_families(round));

        // Retention first: its WAL records ride this round's commit.
        db.apply_retention();
        if round == spike_at {
            before_spike = footprint(&db.stats());
            for i in 0..SPIKE_SERIES {
                let labels = Labels::from_pairs([("burst", format!("b{i}").as_str())]);
                assert!(db.append("teemon_spike", &labels, now, i as f64));
            }
            assert!(
                footprint(&db.stats()) > 4 * before_spike,
                "the spike must tower over the soak"
            );
        }
        // The push edge reads its round as the serving edge does, as text.
        let text = encode_text(&push_families(round));
        let pushed =
            lane.push(&parse_families_bounded(&text, ParseLimits::network()).unwrap(), now);
        assert_eq!(pushed.overflow, 0, "round {round}: the push edge must not clip");
        assert_eq!(
            pushed.ingested,
            (4 + PUSH_CHURN) as u64,
            "round {round}: every pushed sample lands"
        );
        // The scrape drive ends with the WAL flush — the round's ack point.
        let outcomes = scraper.scrape_once(now);
        assert!(outcomes.iter().all(|o| o.up), "round {round}: the scrape edge must stay healthy");

        let stats = db.stats();
        assert_eq!(stats.wal_failed_shards, 0, "round {round}: the log must stay clean");
        if round > warmup && !(spike_at..quiet_again).contains(&round) {
            totals.push((round, footprint(&stats)));
            peak_symbols = peak_symbols.max(stats.symbols);
        }
        if round == quiet_again {
            // (A quarter of slack: chunks seal and maps double on their own
            // cadence; a kept high-water mark would read several times over.)
            let after = footprint(&stats);
            assert!(
                after * 4 <= before_spike * 5,
                "the spike was not given back: {before_spike}B before it, {after}B \
                 {SPIKE_QUIET_ROUNDS} rounds after ({stats:?})"
            );
        }

        if round == crash_at {
            // Crash: cut the disk at the last journalled operation and
            // recover.  Everything acked must come back byte-identical —
            // ids, creation order, strings, samples, aggregates.
            let before = fingerprint(&db);
            drop((scraper, lane));
            drop(db);
            let image = fs.crashed_at_op(u64::MAX, CrashModel::Torn);
            db = open(&image);
            assert_eq!(
                fingerprint(&db),
                before,
                "mid-soak crash recovery diverged from the acked state"
            );
            (scraper, lane) = rig(&db, &endpoint);
            // The soak continues on the *image*'s filesystem from here on;
            // the original `fs` keeps only the pre-crash ops, which is
            // exactly what a real crash leaves behind.
        }
    }

    // Bounded symbols: the table never holds more than the stable strings
    // plus the churn strings still inside the retention window, the cooling
    // queue and the sweep cadence.  Without GC the count would instead grow
    // by (SCRAPE_CHURN + PUSH_CHURN) every round, unbounded.
    let per_round = (SCRAPE_CHURN + PUSH_CHURN) as u64;
    let stable_strings = 64; // names, keys, stable values, meta metrics — generous
    let live_budget = (WINDOW_ROUNDS + 6) * per_round + stable_strings;
    assert!(
        peak_symbols <= live_budget,
        "symbol table failed to plateau: peak {peak_symbols} symbols, budget {live_budget} \
         (churn leak — sweeps are not reclaiming)"
    );

    // Plateau: the peak footprint of the soak's second half must not
    // meaningfully exceed the first half's — memory is flat under sustained
    // churn, not growing.  (10% slack absorbs chunk-seal granularity.)
    let half = totals.len() / 2;
    let early_peak = totals.iter().take(half).map(|&(_, b)| b).max().unwrap_or(0);
    let late_peak = totals.iter().skip(half).map(|&(_, b)| b).max().unwrap_or(0);
    assert!(
        early_peak > 0 && (late_peak as f64) <= (early_peak as f64) * 1.10,
        "footprint grew across the soak: first-half peak {early_peak}B, \
         second-half peak {late_peak}B"
    );
}
