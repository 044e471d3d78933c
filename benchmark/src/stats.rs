//! Estimators that hold still on a noisy machine.
//!
//! The sandbox this runs in slows a CPU-bound loop by up to 2× for seconds at
//! a time (no steal time is reported; see README "Noise").  A whole-window
//! median then measures how much of the window was disturbed, not the
//! program.  So medians, rates and CPU cost are computed per time slice and
//! the **quietest slice** is reported; tail percentiles, which the program's
//! own periodic work dominates, are taken over the whole window.

/// One operation: (completion time since the phase started, latency), ns.
pub type Timed = Vec<(u64, u64)>;

/// Slices with fewer operations than this are ignored; when no slice
/// qualifies the whole-window value is reported instead.
const MIN_OPS: usize = 5;

pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = sorted[pos.floor() as usize] as f64;
    let upper = sorted.get(pos.ceil() as usize).copied().unwrap_or(last) as f64;
    lower + (upper - lower) * (pos - pos.floor())
}

pub fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

/// The latencies of `ops`, ascending.
pub fn latencies(ops: &[(u64, u64)]) -> Vec<u64> {
    sorted(ops.iter().map(|&(_, ns)| ns).collect())
}

/// Percentile `q` of the latencies over the whole window.
pub fn whole(ops: &[(u64, u64)], q: f64) -> f64 {
    percentile(&latencies(ops), q)
}

fn by_slice(ops: &[(u64, u64)], slice_ns: u64) -> Vec<Vec<u64>> {
    let mut slices: Vec<Vec<u64>> = Vec::new();
    for &(done, ns) in ops {
        let index = (done / slice_ns.max(1)) as usize;
        if slices.len() <= index {
            slices.resize_with(index + 1, Vec::new);
        }
        slices[index].push(ns);
    }
    slices
}

/// Median latency in the quietest slice.
pub fn quiet_p50(ops: &[(u64, u64)], slice_ns: u64) -> f64 {
    by_slice(ops, slice_ns)
        .into_iter()
        .filter(|slice| slice.len() >= MIN_OPS)
        .map(|mut slice| {
            slice.sort_unstable();
            percentile(&slice, 0.5)
        })
        .min_by(f64::total_cmp)
        .unwrap_or_else(|| whole(ops, 0.5))
}

/// Operations per second in the busiest complete slice of a `window_ns`
/// window (the whole-window rate when slices are too thin).
pub fn quiet_rate(ops: &[(u64, u64)], slice_ns: u64, window_ns: u64) -> f64 {
    let complete = (window_ns / slice_ns.max(1)) as usize;
    by_slice(ops, slice_ns)
        .into_iter()
        .take(complete)
        .filter(|slice| slice.len() >= MIN_OPS)
        .map(|slice| slice.len() as f64 / (slice_ns as f64 / 1e9))
        .max_by(f64::total_cmp)
        .unwrap_or_else(|| ops.len() as f64 / (window_ns as f64 / 1e9).max(1e-9))
}

/// A CPU stretch divides by its operation count, so it needs more of them
/// than a latency slice does: with fewer than this, which operations happen
/// to complete inside the stretch decides the ratio.
const MIN_OPS_PER_CPU_SPAN: usize = 20;

/// Process CPU nanoseconds per operation in the cheapest `span_ns` stretch
/// between CPU-clock readings (`ticks`: (time since phase start, process CPU
/// ns)); the whole-window ratio when stretches are too thin.
pub fn quiet_cpu_per_op(ticks: &[(u64, u64)], ops: &[(u64, u64)], span_ns: u64) -> f64 {
    let (Some(&(t0, cpu0)), Some(&(t1, cpu1))) = (ticks.first(), ticks.last()) else { return 0.0 };
    let count_between =
        |from: u64, to: u64| ops.iter().filter(|&&(done, _)| done >= from && done < to).count();
    let mut best: Option<f64> = None;
    let mut start = 0;
    while start < ticks.len() {
        let (from, cpu_from) = ticks[start];
        let Some(end) = (start + 1..ticks.len()).find(|&i| ticks[i].0 - from >= span_ns) else {
            break;
        };
        let (to, cpu_to) = ticks[end];
        let n = count_between(from, to);
        if n >= MIN_OPS_PER_CPU_SPAN {
            let cost = (cpu_to - cpu_from) as f64 / n as f64;
            best = Some(best.map_or(cost, |b: f64| b.min(cost)));
        }
        start = end;
    }
    best.unwrap_or_else(|| (cpu1 - cpu0) as f64 / count_between(t0, t1 + 1).max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_estimators_pick_the_undisturbed_slice() {
        // 100 ops of 10 ns in [0, 1000), then 100 ops of 30 ns in [1000, 4000).
        let mut ops: Timed = (0..100).map(|i| (i * 10, 10)).collect();
        ops.extend((0..100).map(|i| (1000 + i * 30, 30)));
        assert_eq!(whole(&ops, 0.5), 20.0);
        assert_eq!(quiet_p50(&ops, 1000), 10.0);
        assert_eq!(quiet_rate(&ops, 1000, 4000), 100.0 / 1e-6);
        // CPU clock: 1 ns of CPU per ns of wall.
        let ticks: Vec<(u64, u64)> = (0..=8).map(|i| (i * 500, i * 500)).collect();
        assert_eq!(quiet_cpu_per_op(&ticks, &ops, 1000), 10.0);
        // Stretches of 500 ns hold 50 fast operations but only 16 slow ones.
        assert_eq!(quiet_cpu_per_op(&ticks, &ops, 500), 10.0);
    }

    #[test]
    fn thin_slices_fall_back_to_the_whole_window() {
        let ops: Timed = vec![(100, 7), (5_000, 9), (9_000, 11)];
        assert_eq!(quiet_p50(&ops, 1000), 9.0);
        assert_eq!(quiet_rate(&ops, 1000, 10_000), 3.0 / 1e-5);
        let ticks = vec![(0, 0), (10_000, 300)];
        assert_eq!(quiet_cpu_per_op(&ticks, &ops, 1000), 100.0);
    }
}
