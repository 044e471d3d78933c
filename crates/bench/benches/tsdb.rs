//! Storage-engine microbenchmarks (`micro/tsdb`): append throughput,
//! selector queries at 10 k series, multi-threaded append scaling, and the
//! two rounds a lock-step set of 1 000 open heads pays the Gorilla encoder
//! in, for three value shapes: `append_burst_1k/*`, the one round in eight that encodes
//! every head's full tail, and `seal_1k/*`, the one in 120 that encodes the
//! last tail and copies each block out — and `codec_bytes/*`, what a chunk of
//! 120 samples weighs and costs to encode and decode for eleven value
//! shapes, ten of whole numbers (integer blocks) and one of true floats (an
//! XOR block).
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the data set and sample
//! counts for a fast correctness pass.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use teemon_metrics::Labels;
use teemon_tsdb::chunk_codec::{self, BlockEncoder};
use teemon_tsdb::{Sample, Selector, TimeSeriesDb};

fn smoke() -> bool {
    std::env::var_os("TEEMON_BENCH_SMOKE").is_some()
}

fn sample_count() -> usize {
    if smoke() {
        2
    } else {
        20
    }
}

/// Series cardinality for the selector benchmarks.
fn series_total() -> usize {
    if smoke() {
        512
    } else {
        10_000
    }
}

/// `count` series shaped like a monitored cluster: `metric-m{node, job, idx}`
/// over 8 metric names and 64 nodes, each with `samples` points at 5 s
/// resolution.  Returns the key set so benches can append to existing series.
fn populate<F: Fn(&str, &Labels, u64, f64) -> bool>(
    count: usize,
    samples: u64,
    append: F,
) -> Vec<(String, Labels)> {
    let keys: Vec<(String, Labels)> = (0..count)
        .map(|i| {
            (
                format!("teemon_metric_{}_total", i % 8),
                Labels::from_pairs([
                    ("node", format!("node-{}", i % 64)),
                    ("job", "sgx_exporter".to_string()),
                    ("idx", format!("{i}")),
                ]),
            )
        })
        .collect();
    for t in 0..samples {
        for (name, labels) in &keys {
            assert!(append(name, labels, t * 5_000, t as f64));
        }
    }
    keys
}

/// Append throughput to existing series: the scrape-tick hot path.
fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/tsdb");
    group.sample_size(sample_count());

    let count = series_total().min(1_024);
    let db = TimeSeriesDb::new();
    let keys = populate(count, 4, |n, l, t, v| db.append(n, l, t, v));
    let tick = AtomicU64::new(1_000_000);
    let mut next = 0usize;
    group.bench_function("append_existing/indexed", |b| {
        b.iter(|| {
            let (name, labels) = &keys[next % keys.len()];
            next += 1;
            let t = tick.fetch_add(1, Ordering::Relaxed);
            black_box(db.append(name, labels, t, 1.0))
        })
    });
    group.finish();
}

/// Selector queries at 10 k series: the index answers from postings lists
/// sized by the match.
fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/tsdb");
    group.sample_size(sample_count());
    let count = series_total();
    // Two sealed chunks per series (chunk_size 120), which selection shares
    // by `Arc`.
    let samples: u64 = if smoke() { 8 } else { 240 };

    // One node's share is count/64 series.  `node-8` aligns with
    // `metric_0` (8 ≡ 0 mod 8), so the narrow selector matches exactly that
    // node's share rather than an empty set.
    let narrow = Selector::metric("teemon_metric_0_total").with_label("node", "node-8");
    let node_wide = Selector::all().with_label("node", "node-7");

    let db = TimeSeriesDb::new();
    populate(count, samples, |n, l, t, v| db.append(n, l, t, v));
    group.bench_function("select_at_10k/indexed", |b| {
        b.iter(|| black_box(db.select(black_box(&narrow))))
    });
    group.bench_function("select_node_at_10k/indexed", |b| {
        b.iter(|| black_box(db.select(black_box(&node_wide))))
    });
    group.finish();
}

/// Multi-threaded append scaling: the same total sample volume pushed by one
/// thread vs spread over four threads.  Sharded locks let the four-thread
/// run overlap.
fn bench_append_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/tsdb");
    group.sample_size(sample_count());
    const THREADS: u64 = 4;
    let per_thread: u64 = if smoke() { 512 } else { 8_192 };

    let db = TimeSeriesDb::new();
    let keys: Vec<Vec<Labels>> = (0..THREADS)
        .map(|thread| {
            (0..16)
                .map(|i| {
                    Labels::from_pairs([
                        ("node", format!("node-{thread}")),
                        ("idx", format!("{i}")),
                    ])
                })
                .collect()
        })
        .collect();
    let tick = AtomicU64::new(0);
    group.bench_function("append_mt/1_thread", |b| {
        b.iter(|| {
            let base = tick.fetch_add(per_thread * THREADS, Ordering::Relaxed);
            for i in 0..per_thread * THREADS {
                // (i / 16) decorrelates the thread index from i % 16, so the
                // single thread covers all 64 series the 4-thread run writes.
                let labels = &keys[((i / 16) % THREADS) as usize][(i % 16) as usize];
                black_box(db.append("mt_total", labels, base + i, 1.0));
            }
        })
    });

    let db = TimeSeriesDb::new();
    let tick = AtomicU64::new(0);
    group.bench_function("append_mt/4_threads", |b| {
        b.iter(|| {
            let base = tick.fetch_add(per_thread, Ordering::Relaxed);
            std::thread::scope(|scope| {
                for thread_keys in &keys {
                    scope.spawn(|| {
                        for i in 0..per_thread {
                            let labels = &thread_keys[(i % 16) as usize];
                            black_box(db.append("mt_total", labels, base + i, 1.0));
                        }
                    });
                }
            });
        })
    });
    group.finish();
}

/// What the two encoder rounds of 1 000 series created together cost: heads
/// of 120 samples at a 5 s cadence, built the way the storage engine builds
/// them — bursts of eight through a resumable [`BlockEncoder`] into the
/// head's own buffer.  `append_burst_1k` is a mid-chunk round whose appends
/// fill every tail (the eighth burst, onto 56 encoded samples);  `seal_1k`
/// is the round that fills every head: the last burst and the exact-sized
/// copy of the finished block (the `Arc<Chunk>` around it is the engine's).
/// One iteration encodes 8 000 samples, so µs per iteration / 8 is ns per
/// sample.  A push first cuts its buffer back to where its encoder stands,
/// so every iteration re-runs the same burst from a saved encoder.  The
/// shapes are the end-to-end benchmark's gauge (`pull_rounds_1k`: +1 per
/// round) and counter (`dashboard_read`: a per-series slope), and a noisy
/// float no window survives.
fn bench_seal(c: &mut Criterion) {
    const BURST: usize = 8;
    let series = if smoke() { 16 } else { 1_000 };
    type Shape = fn(usize, u64) -> f64;
    let shapes: [(&str, Shape); 3] = [
        ("gauge", |_, tick| 500.0 + tick as f64),
        ("counter", |i, tick| (1000 * i) as f64 + (25 + i % 100) as f64 * tick as f64),
        ("noisy", |i, tick| (i as f64 + tick as f64 * 0.37).sin() * 1e3),
    ];
    let mut group = c.benchmark_group("micro/tsdb");
    group.sample_size(if smoke() { 2 } else { 30 });
    for (name, value) in shapes {
        let samples: Vec<Vec<Sample>> = (0..series)
            .map(|i| {
                (0..120u64)
                    .map(|tick| Sample {
                        timestamp_ms: 1_700_000_000_000 + tick * 5_000,
                        value: value(i, tick),
                    })
                    .collect()
            })
            .collect();
        // Each head as it stands before its burst number `bursts_before + 1`.
        let heads_before = |bursts_before: usize| -> Vec<(BlockEncoder, Vec<u8>)> {
            samples
                .iter()
                .map(|samples| {
                    let mut encoder = BlockEncoder::new();
                    let mut block = Vec::with_capacity(2_048);
                    for burst in samples.chunks(BURST).take(bursts_before) {
                        assert!(encoder.push(burst, &mut block));
                        encoder.finish(&mut block);
                    }
                    (encoder, block)
                })
                .collect()
        };
        for (row, bursts_before, copy_out) in
            [("append_burst_1k", 7, false), ("seal_1k", 120 / BURST - 1, true)]
        {
            let mut heads = heads_before(bursts_before);
            group.bench_function(format!("{row}/{name}"), |b| {
                b.iter(|| {
                    let mut bytes = 0;
                    for ((saved, block), samples) in heads.iter_mut().zip(&samples) {
                        let mut encoder = *saved;
                        let at = bursts_before * BURST;
                        assert!(encoder.push(&samples[at..at + BURST], block));
                        encoder.finish(block);
                        if copy_out {
                            let payload: Box<[u8]> = block.as_slice().into();
                            bytes += black_box(payload).len();
                        } else {
                            bytes += block.len();
                        }
                    }
                    black_box(bytes)
                })
            });
        }
        let (kind, whole) = chunk_codec::encode(&samples[0]).expect("ordered samples");
        let mut heads = heads_before(120 / BURST);
        let (encoder, block) = heads.remove(0);
        assert_eq!((encoder.kind(), block), (kind, whole), "bursts build the block `encode` does");
    }
    group.finish();
}

/// What a chunk of 120 samples at a 5 s cadence weighs, and what encoding and
/// decoding it costs, by value shape: a constant gauge, the end-to-end
/// benchmark's gauge (+1 a round) and counter (+77 a tick), counters whose
/// increments are 1000 plus uniform noise of 8 / 300 / 20 000 / 5 000 000,
/// random walks of ±8 / ±300 / ±20 000 a step — whole numbers all, so
/// integer blocks — and a float no XOR window survives.  The sizes print as
/// a table (`codec_bytes <shape>: …`); `codec_bytes/<shape>/encode` and
/// `/decode` run 1 000 differently seeded chunks through one reused buffer
/// each, so µs per iteration / 120 is ns per sample.
fn bench_codec_bytes(c: &mut Criterion) {
    const SAMPLES: u64 = 120;
    let series = if smoke() { 16 } else { 1_000 };
    // A value from the tick, the previous value and a uniform draw below `n`.
    type Shape = fn(u64, f64, &mut dyn FnMut(u64) -> i64) -> f64;
    let shapes: [(&str, Shape); 11] = [
        ("constant", |_, _, _| 1_000.0),
        ("gauge_plus_1", |tick, _, _| (500 + tick) as f64),
        ("counter_plus_77", |tick, _, _| (77 * tick) as f64),
        ("counter_noise_8", |_, prev, below| prev + (1_000 + below(9)) as f64),
        ("counter_noise_300", |_, prev, below| prev + (1_000 + below(301)) as f64),
        ("counter_noise_20k", |_, prev, below| prev + (1_000 + below(20_001)) as f64),
        ("counter_noise_5m", |_, prev, below| prev + (1_000 + below(5_000_001)) as f64),
        ("walk_8", |_, prev, below| prev + (below(17) - 8) as f64),
        ("walk_300", |_, prev, below| prev + (below(601) - 300) as f64),
        ("walk_20k", |_, prev, below| prev + (below(40_001) - 20_000) as f64),
        ("float_noisy", |tick, _, below| (below(1_000) as f64 + tick as f64 * 0.37).sin() * 1e3),
    ];
    let mut group = c.benchmark_group("micro/tsdb");
    group.sample_size(if smoke() { 2 } else { 30 });
    for (name, shape) in shapes {
        let chunks: Vec<Vec<Sample>> = (0..series as u64)
            .map(|seed| {
                // A fixed xorshift stream per chunk.
                let mut state =
                    0x9e37_79b9_7f4a_7c15u64 ^ (seed + 1).wrapping_mul(0xff51_afd7_ed55_8ccd);
                let mut below = |n: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % n) as i64
                };
                let mut value = 1_000.0;
                (0..SAMPLES)
                    .map(|tick| {
                        value = shape(tick, value, &mut below);
                        Sample { timestamp_ms: 1_700_000_000_000 + tick * 5_000, value }
                    })
                    .collect()
            })
            .collect();
        let blocks: Vec<(chunk_codec::BlockKind, Vec<u8>)> =
            chunks.iter().map(|chunk| chunk_codec::encode(chunk).expect("ordered")).collect();
        let bytes: usize = blocks.iter().map(|(_, block)| block.len()).sum();
        println!(
            "codec_bytes {name}: {:?}, {:.1} B/chunk, {:.3} B/sample",
            blocks[0].0,
            bytes as f64 / series as f64,
            bytes as f64 / (series as u64 * SAMPLES) as f64
        );
        let mut scratch = Vec::with_capacity(2_048);
        group.bench_function(format!("codec_bytes/{name}/encode"), |b| {
            b.iter(|| {
                let mut bytes = 0;
                for chunk in &chunks {
                    black_box(chunk_codec::encode_into(chunk, &mut scratch));
                    bytes += scratch.len();
                }
                black_box(bytes)
            })
        });
        let mut decoded = Vec::with_capacity(SAMPLES as usize);
        group.bench_function(format!("codec_bytes/{name}/decode"), |b| {
            b.iter(|| {
                let mut newest = 0;
                for (kind, block) in &blocks {
                    decoded.clear();
                    chunk_codec::decode_into(block, *kind, SAMPLES as usize, &mut decoded);
                    newest ^= decoded.last().map_or(0, |s| s.value.to_bits());
                }
                black_box(newest)
            })
        });
        assert_eq!(decoded, *chunks.last().expect("at least one chunk"), "{name} round-trips");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_append, bench_select, bench_append_scaling, bench_seal, bench_codec_bytes
}
criterion_main!(benches);
