//! Crash-recovery microbenchmark (`micro/wal`): `replay_*` times
//! `TimeSeriesDb::open` over a durable directory holding flushed rounds of
//! 1 k and 10 k series on tmpfs — the replay rate a restarted monitor pays
//! before its first scrape.  (The rounds that wrote the log are the
//! end-to-end benchmark's `pull_rounds_1k`, which runs them on a durable
//! store.)
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the series counts and
//! sample counts for a fast correctness pass.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use teemon_bench::{samples, smoke, ScratchDir};
use teemon_metrics::Labels;
use teemon_tsdb::{TimeSeriesDb, TsdbConfig};

/// Crash-recovery replay: `TimeSeriesDb::open` over a directory holding
/// `rounds` flushed rounds of `count` series, each series one whole-number
/// sample a round.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/wal");
    group.sample_size(samples(20));
    let rounds = if smoke() { 4 } else { 50 };
    let counts: &[usize] = if smoke() { &[256] } else { &[1_000, 10_000] };
    for &count in counts {
        let tag = if count >= 1_000 { format!("{}k", count / 1_000) } else { format!("{count}") };
        let scratch = ScratchDir::new(&format!("wal-replay-{tag}"));
        let expected = {
            let db = TimeSeriesDb::open(&scratch.0, TsdbConfig::default()).expect("open");
            // Series spread over 64 node labels, resolved once.
            let handles: Vec<_> = (0..count)
                .map(|i| {
                    let labels = Labels::from_pairs([
                        ("node", format!("node-{}", i % 64).as_str()),
                        ("idx", format!("{i}").as_str()),
                    ]);
                    db.resolve("teemon_wal_bench", &labels)
                })
                .collect();
            let mut batch = Vec::with_capacity(count);
            for r in 1..=rounds {
                batch.clear();
                batch.extend(handles.iter().enumerate().map(|(i, &h)| (h, r * 5_000, i as f64)));
                assert_eq!(db.append_batch(&batch).appended as usize, count);
                assert!(db.wal_flush());
            }
            db.stats().samples
        };
        group.bench_function(format!("replay_{tag}_x{rounds}_rounds"), |b| {
            b.iter(|| {
                let recovered =
                    TimeSeriesDb::open(&scratch.0, TsdbConfig::default()).expect("reopen");
                assert_eq!(recovered.stats().samples, expected);
                black_box(recovered.stats().samples)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
