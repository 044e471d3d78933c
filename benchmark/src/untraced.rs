//! The `--trace 0` run: set-up (three times, median reported), the primary
//! phase, the coda phases, then the output checks and the restart check.

use std::io;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use parking_lot::contention;
use teemon_obs::probes;
use teemon_tsdb::StorageStats;

use crate::report::Outcome;
use crate::rig::{bytes_per_sample, open_db, spec as spec_named, Kind, Phase, Rig, Spec, Stop};
use crate::stats::{quiet_cpu_per_op, quiet_p50, quiet_rate, whole, Timed};
use crate::util::{copy_dir, median_f64, rss_peak_mb, ScratchDir};

/// Warm-up of a primary phase, counted in operations.
const WARMUP_REQUESTS: usize = 20;
const WARMUP_ROUNDS: usize = 500;
/// Warm-up of a coda: enough to connect, create its series and fill caches.
const CODA_WARMUP_REQUESTS: usize = 8;
const CODA_WARMUP_ROUNDS: usize = 50;
const SETUPS: usize = 3;

fn warmup(kind: Kind, coda: bool) -> Stop {
    match (kind, coda) {
        (Kind::Rounds, false) => Stop::Ops(WARMUP_ROUNDS),
        (Kind::Rounds, true) => Stop::Ops(CODA_WARMUP_ROUNDS),
        // A mixed cycle is 40 requests; warm one whole cycle.
        (Kind::Mixed, _) => Stop::Ops(40),
        (_, false) => Stop::Ops(WARMUP_REQUESTS),
        (_, true) => Stop::Ops(CODA_WARMUP_REQUESTS),
    }
}

/// How `--seconds` is split: the primary phase first, then the codas with
/// their shares.  The refresh coda comes first (it reads what the primary
/// just stored, at the logical time the primary reached).  A rounds coda
/// gets the largest coda share: scrape rounds are the one operation whose
/// timings this sandbox moves by tens of percent from run to run, while the
/// HTTP codas wait out the same 40 ms stall every time and need few samples.
fn phase_plan(primary: Kind) -> Vec<(Kind, f64)> {
    match primary {
        Kind::Write => vec![(Kind::Write, 0.45), (Kind::Refresh, 0.15), (Kind::Rounds, 0.40)],
        Kind::Rounds => vec![(Kind::Rounds, 0.70), (Kind::Refresh, 0.15), (Kind::Write, 0.15)],
        Kind::Refresh => vec![(Kind::Refresh, 0.50), (Kind::Write, 0.10), (Kind::Rounds, 0.40)],
        Kind::Mixed => vec![(Kind::Mixed, 0.60), (Kind::Rounds, 0.40)],
    }
}

/// Operation kinds a phase of `kind` performs.
fn covers(kind: Kind, wanted: Kind) -> bool {
    kind == wanted || (kind == Kind::Mixed && matches!(wanted, Kind::Write | Kind::Refresh))
}

/// The program's own counters, read before and after a window (the probe
/// statics and the `parking_lot` contention table never reset).
pub struct Counters {
    pub cache_hits: u64,
    pub cache_rebuilds: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub swept: u64,
    pub fallback: u64,
    pub connections: u64,
    pub requests: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub shed: u64,
    pub panics: u64,
    pub shard_contended: u64,
    pub shard_wait_ns: u64,
}

impl Counters {
    pub fn read() -> Self {
        let (mut shard_contended, mut shard_wait_ns) = (0, 0);
        contention::for_each(&mut |class| {
            if class.name == "tsdb.shard" {
                shard_contended += class.contended;
                shard_wait_ns += class.wait_ns_sum;
            }
        });
        Self {
            cache_hits: probes::CACHE_HITS.get(),
            cache_rebuilds: probes::CACHE_REBUILDS.get(),
            wal_bytes: probes::WAL_BYTES_WRITTEN.get(),
            fsyncs: probes::WAL_FSYNC_NS.count(),
            swept: probes::SYMBOLS_SWEPT.get(),
            fallback: probes::QUERY_FALLBACK.get(),
            connections: probes::HTTP_CONNECTIONS.get(),
            requests: probes::HTTP_REQUESTS.get(),
            responses_4xx: probes::HTTP_RESPONSES_4XX.get(),
            responses_5xx: probes::HTTP_RESPONSES_5XX.get(),
            shed: probes::HTTP_SHED.get(),
            panics: probes::HTTP_PANICS.get(),
            shard_contended,
            shard_wait_ns,
        }
    }

    /// The counters that must not have moved since `self` was read, plus the
    /// store's rejected samples.
    pub fn check_guards(&self, stats: &StorageStats, outcome: &mut Outcome) {
        let now = Self::read();
        let moved = [
            ("5xx responses", now.responses_5xx - self.responses_5xx),
            ("shed connections", now.shed - self.shed),
            ("handler panics", now.panics - self.panics),
            ("per-step query fallbacks", now.fallback - self.fallback),
            ("rejected samples", stats.rejected_samples),
        ];
        for (what, delta) in moved {
            if delta != 0 {
                outcome.problem(format!("{delta} {what}, expected none"));
            }
        }
    }
}

/// Builds the deployment and warms its primary path; returns it with the
/// seconds that took.
pub fn set_up(spec: &'static Spec, seed: u64, out: &Path) -> io::Result<(Rig, f64)> {
    let timer = Instant::now();
    let mut rig = Rig::build(spec, seed, out)?;
    let warm = rig.run(spec.primary, warmup(spec.primary, false));
    let seconds = timer.elapsed().as_secs_f64();
    if warm.clients.failed + warm.rounds.failed > 0 {
        return Err(io::Error::other(format!(
            "warm-up failed: {:?} {:?}",
            warm.clients.failures, warm.rounds.failures
        )));
    }
    Ok((rig, seconds))
}

/// Sets the deployment up [`SETUPS`] times and returns the last one with the
/// median set-up time.  All but the last run in child processes of their own
/// (`--setup-only`), one after the other: set-ups repeated inside this
/// process doubled its peak RSS and made it vary by a third from run to run
/// (freed stores stay in the allocator's per-thread arenas), and `VmHWM` is
/// one of the metrics.
pub fn set_up_repeatedly(spec: &'static Spec, seed: u64, out: &Path) -> io::Result<(Rig, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let child = Command::new(std::env::current_exe()?)
            .args(["--setup-only", "--workload", spec.name, "--seed", &seed.to_string(), "--out"])
            .arg(out)
            .output()?;
        let printed = String::from_utf8_lossy(&child.stdout);
        let seconds = printed.trim().parse::<f64>().map_err(|_| {
            io::Error::other(format!(
                "set-up child failed ({}): {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
            ))
        })?;
        times.push(seconds);
    }
    let (rig, seconds) = set_up(spec, seed, out)?;
    times.push(seconds);
    Ok((rig, median_f64(&mut times)))
}

/// The `--setup-only` child: one set-up, torn down again; prints its seconds.
pub fn set_up_only(spec: &'static Spec, seed: u64, out: &Path) -> io::Result<()> {
    let (mut rig, seconds) = set_up(spec, seed, out)?;
    rig.shutdown();
    println!("{seconds}");
    Ok(())
}

/// After the final flush: the store must hold exactly what was acked minus
/// what retention evicted, and a copy of the WAL directory taken **before**
/// the server shuts down must reopen to the same store.  Returns the reopen
/// time and the samples replayed.
pub fn reconcile_and_restart(rig: &Rig, out: &Path, outcome: &mut Outcome) -> (f64, u64) {
    if !rig.db.wal_flush() {
        outcome.problem("final wal_flush reported a failed log".to_string());
    }
    let live = rig.db.stats();
    let acked = rig.ledger.acked.load(Ordering::Relaxed);
    let evicted = rig.ledger.evicted.load(Ordering::Relaxed);
    if live.samples != acked - evicted {
        outcome.problem(format!(
            "store holds {} samples, acked {acked} minus evicted {evicted} is {}",
            live.samples,
            acked - evicted
        ));
    }
    let reopened = ScratchDir::new(out, &format!("restart-{}", rig.spec.name))
        .and_then(|copy| copy_dir(&rig.wal_dir.0, &copy.0).map(|()| copy))
        .and_then(|copy| {
            let timer = Instant::now();
            let db = open_db(rig.spec, &copy.0)?;
            Ok((timer.elapsed().as_secs_f64(), db.stats(), copy))
        });
    match reopened {
        Ok((seconds, stats, _copy)) => {
            if stats.wal_failed_shards != 0 {
                outcome.problem(format!("restart: {} failed WAL shards", stats.wal_failed_shards));
            }
            if (stats.samples, stats.series) != (live.samples, live.series) {
                outcome.problem(format!(
                    "restart: reopened {} samples / {} series, live store has {} / {}",
                    stats.samples, stats.series, live.samples, live.series
                ));
            }
            (seconds, stats.samples)
        }
        Err(e) => {
            outcome.problem(format!("restart: {e}"));
            (0.0, 0)
        }
    }
}

/// Slice lengths of the quiet-slice estimators (see `stats`): long enough to
/// hold tens of operations of that kind, and no longer — over eight runs in
/// a noisy stretch the quietest 25 ms of rounds repeated within 7 %, the
/// quietest 250 ms within 16 %, the whole-window median within 19 %.
const ROUND_SLICE_NS: u64 = 25_000_000;
const WRITE_SLICE_NS: u64 = 500_000_000;
const REFRESH_SLICE_NS: u64 = 1_000_000_000;
const ROUND_CPU_SPAN_NS: u64 = 50_000_000;
const HTTP_CPU_SPAN_NS: u64 = 1_000_000_000;

/// Folds a phase's operation counts and failures into the outcome.
pub fn account(phase: &Phase, outcome: &mut Outcome) {
    outcome.attempted += phase.clients.attempted + phase.rounds.attempted;
    outcome.failed += phase.clients.failed + phase.rounds.failed;
    outcome.problems.extend(phase.clients.failures.iter().cloned());
    outcome.problems.extend(phase.rounds.failures.iter().cloned());
}

pub fn run(spec: &'static Spec, seed: u64, seconds: f64, out: &Path) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let run_start = Counters::read();
    let (mut rig, setup_s) = set_up_repeatedly(spec, seed, out)?;

    let plan = phase_plan(spec.primary);
    let window = |share: f64| Stop::After(Duration::from_secs_f64(seconds * share));
    let primary = rig.run(spec.primary, window(plan[0].1));
    account(&primary, &mut outcome);

    // Footprint over the primary window, before any coda adds series of its
    // own: the floor of the store's sawtooth (head chunks fill and seal every
    // 120 samples, retention passes evict), which a reading at the window's
    // end would hit at a random height.  Stores kept on a plateau by
    // retention get one more pass and reading.
    if spec.retention_every_posts + spec.retention_every_rounds > 0 {
        let evicted = rig.db.apply_retention() as u64;
        rig.ledger.evicted.fetch_add(evicted, Ordering::Relaxed);
    }
    let mem_bytes_per_sample =
        primary.bytes_per_sample.iter().copied().fold(bytes_per_sample(&rig.db), f64::min);
    let rss_mb = rss_peak_mb();

    let pull_spec =
        spec_named("pull_rounds_1k").ok_or_else(|| io::Error::other("no pull workload"))?;
    let mut phases = vec![primary];
    for &(kind, share) in &plan[1..] {
        // A rounds coda runs on a fresh store of its own, the deployment of
        // `pull_rounds_1k`.  On the workload's store it measured where that
        // store's shard logs stood relative to their rotation threshold
        // (all sixteen rotating inside or outside the window), not rounds.
        let mut fresh = match kind {
            Kind::Rounds => Some(Rig::build(pull_spec, seed, out)?),
            _ => None,
        };
        let on = fresh.as_mut().unwrap_or(&mut rig);
        let warm = on.run(kind, warmup(kind, true));
        account(&warm, &mut outcome);
        let coda = on.run(kind, window(share));
        account(&coda, &mut outcome);
        phases.push(coda);
        if let Some(mut fresh) = fresh {
            fresh.shutdown();
        }
    }
    let stats = rig.db.stats();
    let (open_s, replayed) = reconcile_and_restart(&rig, out, &mut outcome);
    if !rig.shutdown() {
        outcome.problem("server did not drain inside its deadline".to_string());
    }
    run_start.check_guards(&stats, &mut outcome);

    // Each metric comes from the primary phase when the primary performs
    // that kind of operation, and from that kind's coda otherwise.
    let phase_for = |kind: Kind| -> &Phase {
        phases.iter().find(|p| covers(p.kind, kind)).expect("every kind has a phase")
    };
    let writes = phase_for(Kind::Write);
    let rounds = phase_for(Kind::Rounds);
    let reads = phase_for(Kind::Refresh);
    for (phase, role) in [(writes, "writes"), (rounds, "rounds"), (reads, "refreshes")] {
        outcome.note(format!(
            "{role}: {:?} phase, {:.2} s wall, {:.2} s cpu, n = {} writes / {} rounds / {} refreshes",
            phase.kind,
            phase.wall_s,
            phase.cpu_s(),
            phase.clients.writes.len(),
            phase.rounds.timed.len(),
            phase.clients.refreshes.len()
        ));
    }
    outcome.note(format!(
        "restart check: reopened {replayed} samples in {open_s:.3} s; store: {} series, {} samples",
        stats.series, stats.samples
    ));

    // Ingest: rounds on the pull workload (1000 samples each, thousands per
    // second, so the quietest slice is well defined); POSTs elsewhere, whose
    // rate the whole window gives (tens per second).
    let pull = spec.primary == Kind::Rounds;
    let (ingest, ingest_ops) =
        if pull { (rounds, &rounds.rounds.timed) } else { (writes, &writes.clients.writes) };
    let samples_per_op = ingest.samples() as f64 / ingest_ops.len().max(1) as f64;
    let ingest_rate = if pull {
        quiet_rate(ingest_ops, ROUND_SLICE_NS, (ingest.wall_s * 1e9) as u64) * samples_per_op
    } else {
        ingest.samples() as f64 / ingest.wall_s
    };
    let cpu_span = if pull { ROUND_CPU_SPAN_NS } else { HTTP_CPU_SPAN_NS };
    // CPU per refresh counts panel requests (four to a refresh): four times
    // as many operations per slice.
    let panel_requests: Timed = reads.clients.panels.iter().flatten().copied().collect();
    let cpu_ns_per_sample =
        quiet_cpu_per_op(&ingest.cpu_ticks, ingest_ops, cpu_span) / samples_per_op;
    let cpu_ns_per_refresh =
        quiet_cpu_per_op(&reads.cpu_ticks, &panel_requests, HTTP_CPU_SPAN_NS) * 4.0;

    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("ingest_samples_per_s", ingest_rate, "1/s");
    outcome.metric("write_p50_ms", quiet_p50(&writes.clients.writes, WRITE_SLICE_NS) / 1e6, "ms");
    outcome.metric("write_p90_ms", whole(&writes.clients.writes, 0.90) / 1e6, "ms");
    outcome.metric("round_p50_us", quiet_p50(&rounds.rounds.timed, ROUND_SLICE_NS) / 1e3, "us");
    outcome.metric("refreshes_per_s", reads.clients.refreshes.len() as f64 / reads.wall_s, "1/s");
    outcome.metric(
        "refresh_p50_ms",
        quiet_p50(&reads.clients.refreshes, REFRESH_SLICE_NS) / 1e6,
        "ms",
    );
    outcome.metric("refresh_p90_ms", whole(&reads.clients.refreshes, 0.90) / 1e6, "ms");
    outcome.metric("cpu_us_per_sample", cpu_ns_per_sample / 1e3, "us");
    outcome.metric("cpu_ms_per_refresh", cpu_ns_per_refresh / 1e6, "ms");
    outcome.metric("rss_peak_mb", rss_mb, "MB");
    outcome.metric("mem_bytes_per_sample", mem_bytes_per_sample, "B");
    outcome.metric("wal_bytes_per_sample", ingest.wal_bytes as f64 / ingest.samples() as f64, "B");
    Ok(outcome)
}
