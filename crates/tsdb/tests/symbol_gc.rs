//! Property-based oracle for the symbol lifecycle: generated workloads of
//! series creation, explicit drops, retention and WAL flushes run against a
//! **durable** database (on the deterministic [`FaultFs`], with clean
//! restarts interleaved) and, op-for-op, against a volatile twin.  The
//! volatile twin never garbage-collects its symbol table — sweeps run only
//! at symbol-table checkpoints, which only a durable log performs — so it is
//! the leak-free *upper bound*: the durable database must expose exactly the
//! same series with byte-identical name and label strings at every check
//! point (no live `SymbolId` may ever resolve to the wrong string, however
//! many sweeps, rebinds and restarts happened in between), while its symbol
//! accounting never exceeds the twin's.  The clock jumps past the stale-head
//! window every few rounds, so retention passes also seal idle heads — in
//! the restarted store and the twin alike, or their chunk and byte counts
//! part ways.
//!
//! A deterministic churn coda then proves the reclaim side: rounds of
//! all-new label strings whose series are dropped the next round must leave
//! the durable table's symbol count *flat* while the never-swept twin grows
//! without bound.

use std::path::Path;
use std::sync::Arc;

use proptest::{proptest, TestRng};
use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::{
    DurabilityOptions, FaultFs, FsyncMode, Selector, TimeSeriesDb, TsdbConfig, STALE_HEAD_MS,
};

const METRICS: [&str; 3] = ["sgx_epc_pages", "teemon_syscalls_total", "proc_cpu_seconds"];
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

/// Six rounds of retention — series age out before anything goes stale — or
/// long enough for idle heads to be sealed, revived and evicted a few clock
/// jumps later.
fn config(case: u64) -> TsdbConfig {
    let retention_ms = if case.is_multiple_of(3) { 30_000 } else { 3 * STALE_HEAD_MS };
    TsdbConfig { chunk_size: chunk_size(case), retention_ms }
}

fn open(fs: &FaultFs, segment_bytes: u64, case: u64) -> TimeSeriesDb {
    let options = DurabilityOptions {
        segment_bytes,
        fsync: FsyncMode::EveryCommit,
        fs: Arc::new(fs.clone()),
    };
    TimeSeriesDb::open_with(Path::new("/wal"), config(case), options)
        .expect("FaultFs open cannot fail")
}

/// [`run_case`] reports whether a retention pass sealed a stale head by the
/// process-wide `teemon_tsdb_stale_heads_sealed_total`; its callers take
/// turns.
static ONE_CASE_AT_A_TIME: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();

/// One series as compared across databases: name, rendered labels, data.
/// Ids are deliberately left out: a restart rewinds the id counter to the
/// highest *surviving* id, so a durable database legitimately reuses the
/// ids of dropped series where the never-restarted twin keeps counting.
type SeriesDump = (String, String, Vec<teemon_tsdb::Sample>);

/// Every observable series string and sample, in creation order.
fn dump(db: &TimeSeriesDb) -> Vec<SeriesDump> {
    db.select(&Selector::all())
        .iter()
        .map(|s| (s.name().to_string(), s.to_labels().to_string(), s.points_in(0, u64::MAX)))
        .collect()
}

/// One generated mutation, applied identically to both databases.
enum Op {
    /// Append to a (possibly new) series with fully churny label strings.
    Churn { metric: usize, tag: String },
    /// Append to one of a small stable set.
    Stable { metric: usize, node: usize },
    /// Drop every series carrying this churn tag.
    Drop { tag: String },
    /// Drop one stable node's series across all metrics.
    DropStable { node: usize },
    /// Run a retention pass.
    Retention,
}

fn apply(db: &TimeSeriesDb, op: &Op, now: u64) {
    match op {
        Op::Churn { metric, tag } => {
            let labels = Labels::from_pairs([("churn", tag.as_str())]);
            db.append(METRICS[*metric], &labels, now, now as f64);
        }
        Op::Stable { metric, node } => {
            let labels = Labels::from_pairs([("node", format!("n{node}").as_str())]);
            db.append(METRICS[*metric], &labels, now, now as f64);
        }
        Op::Drop { tag } => {
            for metric in METRICS {
                db.drop_series(&Selector::metric(metric).with_label("churn", tag));
            }
        }
        Op::DropStable { node } => {
            let value = format!("n{node}");
            for metric in METRICS {
                db.drop_series(&Selector::metric(metric).with_label("node", &value));
            }
        }
        Op::Retention => {
            db.apply_retention();
        }
    }
}

/// Runs one generated workload against the durable store and its twin;
/// returns whether a stale head was sealed along the way.
fn run_case(rounds: u64, churn_per_round: usize, case: u64) -> bool {
    let _turn = ONE_CASE_AT_A_TIME.get_or_init(Default::default).lock();
    let sealed_before = probes::STALE_HEADS_SEALED.get();
    let mut rng = TestRng::deterministic(&format!("symbol-gc-{case}"));
    // Tiny segments checkpoint (and sweep) nearly every round; the huge
    // alternative exercises the no-checkpoint path, where cooling entries
    // simply accumulate until a sweep finally runs.
    let segment_bytes = if case.is_multiple_of(2) { 96 } else { 1 << 20 };
    let fs = FaultFs::new();
    let mut durable = open(&fs, segment_bytes, case);
    let volatile = TimeSeriesDb::with_config(config(case));

    let mut live_tags: Vec<String> = Vec::new();
    let mut now = 0;
    for round in 1..=rounds {
        // One round in four the clock jumps past the stale-head window;
        // the retention pass that ends such a round finds whatever was
        // not appended to in it stale.
        let jumped = rng.below(4) == 0;
        now += if jumped { STALE_HEAD_MS + 5_000 } else { 5_000 };
        let mut ops: Vec<Op> = Vec::new();
        for i in 0..churn_per_round {
            let tag = format!("r{round}-{i}");
            ops.push(Op::Churn {
                metric: rng.below(METRICS.len() as u64) as usize,
                tag: tag.clone(),
            });
            live_tags.push(tag);
        }
        for _ in 0..rng.below(3) {
            ops.push(Op::Stable {
                metric: rng.below(METRICS.len() as u64) as usize,
                node: rng.below(3) as usize,
            });
        }
        // Drop a random live churn tag (usually an old one), sometimes a
        // stable node, sometimes run retention.
        if !live_tags.is_empty() && rng.below(3) > 0 {
            let at = rng.below(live_tags.len() as u64) as usize;
            ops.push(Op::Drop { tag: live_tags.swap_remove(at) });
        }
        if rng.below(6) == 0 {
            ops.push(Op::DropStable { node: rng.below(3) as usize });
        }
        if jumped || rng.below(4) == 0 {
            ops.push(Op::Retention);
        }
        for op in &ops {
            apply(&durable, op, now);
            apply(&volatile, op, now);
        }
        assert!(durable.wal_flush(), "fault-free flush must stay clean");

        // A clean restart mid-workload: sweeps, frees and rebinds done
        // so far must round-trip the log.
        if rng.below(3) == 0 {
            drop(durable);
            durable = open(&fs, segment_bytes, case);
        }

        // The oracle: byte-identical series strings and samples.  The
        // twin never sweeps, so its interned set only grows; the
        // durable table must never exceed it while resolving the same.
        assert_eq!(
            dump(&durable),
            dump(&volatile),
            "case {case} round {round}: durable series diverged from the volatile twin"
        );
        let (d, v) = (durable.stats(), volatile.stats());
        assert_eq!(
            (d.series, d.samples, d.chunks, d.rejected_samples, d.resident_bytes),
            (v.series, v.samples, v.chunks, v.rejected_samples, v.resident_bytes),
            "case {case} round {round}: aggregate stats diverged"
        );
        assert!(
            d.symbols <= v.symbols && d.symbol_bytes <= v.symbol_bytes,
            "case {case} round {round}: the GC'd table ({} syms, {} bytes) must never \
                 exceed the never-swept twin ({} syms, {} bytes)",
            d.symbols,
            d.symbol_bytes,
            v.symbols,
            v.symbol_bytes
        );
    }

    // Churn coda: every round interns brand-new strings and drops the
    // previous round's.  With tiny segments the symbol table is
    // checkpointed (and swept) every few rounds, so the durable symbol
    // count must plateau while the never-swept twin keeps absorbing
    // every tag it ever saw.
    if segment_bytes == 96 {
        for round in 0..12u64 {
            now += 5_000;
            let tag = format!("coda-{round}");
            let op = Op::Churn { metric: 0, tag: tag.clone() };
            apply(&durable, &op, now);
            apply(&volatile, &op, now);
            if round > 0 {
                let gone = Op::Drop { tag: format!("coda-{}", round - 1) };
                apply(&durable, &gone, now);
                apply(&volatile, &gone, now);
            }
            assert!(durable.wal_flush(), "coda flush must stay clean");
        }
        let (d, v) = (durable.stats(), volatile.stats());
        assert_eq!(dump(&durable), dump(&volatile), "case {case}: coda dumps diverged");
        assert!(
            d.symbols + 8 <= v.symbols,
            "case {case}: 12 churn rounds must leave the swept table ({}) well below \
                 the leak baseline ({})",
            d.symbols,
            v.symbols
        );
    }
    probes::STALE_HEADS_SEALED.get() > sealed_before
}

proptest! {
    #[test]
    fn live_symbols_resolve_exactly_across_sweeps_and_restarts(
        rounds in 6u64..14,
        churn_per_round in 1usize..4,
        case in 0u64..1_000_000,
    ) {
        run_case(rounds, churn_per_round, case);
    }
}

#[test]
fn the_stale_head_rule_fires_inside_the_sweep() {
    // The property above only covers the rule if the generator reaches it.
    let fired = (0..16).filter(|&case| run_case(13, 3, case)).count();
    assert!(fired >= 4, "only {fired} of 16 cases sealed a stale head");
}
