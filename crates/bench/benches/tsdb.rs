//! Chunk-codec microbenchmark (`micro/tsdb/codec_bytes/*`): what a chunk of
//! 120 samples weighs and costs to encode and decode for eleven value
//! shapes, ten of whole numbers (integer blocks) and one of true floats (an
//! XOR block).  The end-to-end benchmark stores two of these shapes (the
//! gauge of `pull_rounds_1k`, the counter of `dashboard_read`); the other
//! nine are the sizing table no workload produces.
//!
//! Set `TEEMON_BENCH_SMOKE=1` (as CI does) to shrink the data set and sample
//! counts for a fast correctness pass.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use teemon_bench::{samples, smoke};
use teemon_tsdb::chunk_codec;
use teemon_tsdb::Sample;

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
    group.sample_size(samples(30));
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

criterion_group!(benches, bench_codec_bytes);
criterion_main!(benches);
