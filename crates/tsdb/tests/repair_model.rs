//! The scrape cache's repair pass against models simple enough to be
//! obviously right.
//!
//! Generated snapshot sequences — series renamed in place, inserted, deleted,
//! reordered, duplicated within one snapshot, the whole set replaced — drive
//! one [`PushLane`] and one scraper target, with retention and
//! [`TimeSeriesDb::drop_series`] moving shard generations between rounds and
//! the per-lane and shared cardinality budgets raised and lowered mid-stream.
//!
//! * The lane is checked against [`ModelLane`]: no handles and nothing
//!   reused — every admitted sample is appended by key — and admission
//!   computed from nothing (the first `cap` samples in snapshot order, `cap`
//!   being the lane's own limit capped by what the job pool has left)
//!   whenever the wire series list differs from the previous round's, which
//!   is the documented rule: budgets are enforced when the cache repairs,
//!   a round that repeats the previous one keeps its admissions.  Stores
//!   must be identical (ids, creation order, samples, stats), and so must
//!   every [`PushOutcome`] and the pool's `job_used`.
//!   The lane receives each round as the serving edge does, as text
//!   (`encode_text`, then `parse_families_bounded`), and the model the
//!   snapshots that text stands for (`Exposition::to_snapshots`).
//! * The scraper target is checked against the same snapshots ingested by
//!   the per-sample reference of `support/mod.rs`.
//! * A text lane fed hand-spelled documents — labels permuted, blanks
//!   around `=` and `,`, escapes, lines repeated or respelled — is checked
//!   against the model the same way, and the same documents are scraped
//!   from a text target, from a typed target serving the snapshots they
//!   stand for, and by the per-sample reference: outcomes and stores must
//!   be the reference's.
//!
//! Whatever the repair reuses, swaps into place or re-resolves, the stored
//! result has to be what matching nothing and resolving everything gives.

mod support;

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::{proptest, TestRng};
use support::{fingerprint, stored_labels, PerSampleScraper, ScriptedEndpoint};
use teemon_metrics::exposition::{encode_text, parse_families_bounded, Exposition, ParseLimits};
use teemon_metrics::{
    FamilySnapshot, HistogramSnapshot, Labels, MetricKind, MetricPoint, PointValue,
};
use teemon_tsdb::{
    CardinalityBudgets, PushLane, PushOutcome, ScrapeTargetConfig, Scraper, Selector, TimeSeriesDb,
    TsdbConfig,
};

const JOB: &str = "remote_write";
const METRICS: [&str; 3] = ["pod_cpu_seconds", "pod_mem_bytes", "pod_restarts_total"];

/// One wire series of the generated snapshot: position in the list is
/// position on the wire.
#[derive(Clone, PartialEq)]
struct GenSeries {
    metric: usize,
    pod: u64,
    node: u64,
}

impl GenSeries {
    fn labels(&self) -> Labels {
        Labels::from_pairs([
            ("pod".to_string(), format!("p-{}", self.pod)),
            ("node".to_string(), format!("n{}", self.node)),
        ])
    }
}

/// The generator's state: the current series list and the next never-used
/// `pod` value (a rename is a pod nobody has seen).
struct Workload {
    series: Vec<GenSeries>,
    next_pod: u64,
    /// Whether the snapshot ends with a two-point histogram family (samples
    /// whose label sets exist only during the walk).
    histogram: bool,
}

impl Workload {
    fn fresh(&mut self, rng: &mut TestRng) -> GenSeries {
        self.next_pod += 1;
        GenSeries {
            metric: rng.below(METRICS.len() as u64) as usize,
            pod: self.next_pod,
            node: rng.below(3),
        }
    }

    /// Applies one round's churn.
    fn churn(&mut self, rng: &mut TestRng) {
        let at = |rng: &mut TestRng, len: usize| rng.below(len.max(1) as u64) as usize;
        for _ in 0..rng.below(4) {
            let len = self.series.len();
            match rng.below(8) {
                // Rename in place: the Kubernetes pattern.
                0 | 1 if len > 0 => {
                    let i = at(rng, len);
                    self.next_pod += 1;
                    self.series[i].pod = self.next_pod;
                }
                2 => {
                    let fresh = self.fresh(rng);
                    self.series.insert(at(rng, len + 1), fresh);
                }
                3 if len > 0 => {
                    self.series.remove(at(rng, len));
                }
                // Reorder: one swap, or a rotation that shifts everything.
                4 if len > 1 => {
                    let (i, j) = (at(rng, len), at(rng, len));
                    self.series.swap(i, j);
                }
                5 if len > 1 => self.series.rotate_left(at(rng, len)),
                // The same identity twice in one snapshot.
                6 if len > 0 => {
                    let copy = self.series[at(rng, len)].clone();
                    self.series.insert(at(rng, len + 1), copy);
                }
                // Whole-set replacement (sometimes by nothing at all).
                7 if rng.below(3) == 0 => {
                    let size = rng.below(10) as usize;
                    self.series = (0..size).map(|_| self.fresh(rng)).collect();
                }
                _ => {}
            }
        }
        if rng.below(6) == 0 {
            self.histogram = !self.histogram;
        }
    }

    /// The round's families: consecutive series of one metric share a
    /// family, so a metric may well come up as several families.
    fn families(&self, round: u64, rng: &mut TestRng) -> Vec<FamilySnapshot> {
        let mut families: Vec<FamilySnapshot> = Vec::new();
        for series in &self.series {
            let name = METRICS[series.metric];
            if families.last().is_none_or(|f| f.name != name) {
                families.push(FamilySnapshot::new(name, "generated", MetricKind::Gauge));
            }
            let value = round as f64 + series.pod as f64 / 1000.0;
            let mut point = MetricPoint::new(series.labels(), PointValue::Gauge(value));
            if rng.below(12) == 0 {
                // An explicit timestamp, now and then stale enough to be
                // rejected as out of order.
                point = point.at((round * 5_000).saturating_sub(rng.below(12_000)));
            }
            if let Some(family) = families.last_mut() {
                family.points.push(point);
            }
        }
        if self.histogram {
            let mut family = FamilySnapshot::new("rpc_seconds", "generated", MetricKind::Histogram);
            for node in 0..2u64 {
                let snapshot = HistogramSnapshot {
                    bounds: vec![0.1, 1.0],
                    cumulative_counts: vec![round, 2 * round, 3 * round],
                    sum: round as f64,
                    count: 3 * round,
                };
                family.points.push(MetricPoint::new(
                    Labels::from_pairs([("node", format!("n{node}"))]),
                    PointValue::Histogram(snapshot),
                ));
            }
            families.push(family);
        }
        families
    }
}

/// The shared job pool, as arithmetic.
#[derive(Default)]
struct ModelPool {
    limit: Option<u64>,
    used: u64,
}

/// A push lane with no cache: see the module docs.
struct ModelLane {
    db: TimeSeriesDb,
    base: Labels,
    target_limit: Option<u64>,
    admitted: u64,
    overflow_total: u64,
    /// The previous round's wire series, in order; `None` before the first.
    previous: Option<Vec<(String, Labels)>>,
}

impl ModelLane {
    fn new(db: TimeSeriesDb, instance: &str, target_limit: Option<u64>) -> Self {
        let base = Labels::from_pairs([("job", JOB), ("instance", instance)]);
        Self { db, base, target_limit, admitted: 0, overflow_total: 0, previous: None }
    }

    fn push(&mut self, pool: &mut ModelPool, families: &[FamilySnapshot], now: u64) -> PushOutcome {
        let mut wire = Vec::new();
        for family in families {
            family.for_each_sample(|name, labels, _, _| {
                wire.push((name.to_string(), labels.clone()))
            });
        }
        let others = pool.used - self.admitted;
        let cap = if self.previous.as_ref() == Some(&wire) {
            self.admitted
        } else {
            let allowance = pool.limit.map_or(u64::MAX, |limit| limit.saturating_sub(others));
            self.target_limit.unwrap_or(u64::MAX).min(allowance)
        };
        self.previous = Some(wire);
        let mut outcome = PushOutcome::default();
        let mut admitted = 0;
        for family in families {
            family.for_each_sample(|name, labels, value, timestamp_ms| {
                outcome.scraped += 1;
                if admitted < cap {
                    admitted += 1;
                    // Bugfix hook: a wire label a target label overrides is
                    // kept as `exported_<name>` (`support::stored_labels`).
                    let stored = stored_labels(labels, &self.base);
                    if self.db.append(name, &stored, timestamp_ms.unwrap_or(now), value) {
                        outcome.ingested += 1;
                    }
                } else {
                    outcome.overflow += 1;
                }
            });
        }
        pool.used = others + admitted;
        self.admitted = admitted;
        self.overflow_total += outcome.overflow;
        if self.overflow_total > 0 {
            let total = self.overflow_total as f64;
            self.db.append("teemon_overflow_series_total", &self.base, now, total);
        }
        outcome
    }

    /// The lane goes away: its admissions return to the pool.
    fn release(&mut self, pool: &mut ModelPool) {
        pool.used -= self.admitted;
        self.admitted = 0;
    }
}

fn lane_config(instance: &str, limit: Option<u64>) -> ScrapeTargetConfig {
    let config = ScrapeTargetConfig::new(JOB, instance);
    match limit {
        Some(limit) => config.with_series_budget(limit),
        None => config,
    }
}

fn pick_limit(rng: &mut TestRng) -> Option<u64> {
    match rng.below(3) {
        0 => None,
        _ => Some(rng.below(14)),
    }
}

proptest! {
    #[test]
    fn repaired_caches_store_what_no_cache_would(
        initial in 0usize..14,
        rounds in 6u64..16,
        case in 0u64..1_000_000,
    ) {
        let mut rng = TestRng::deterministic(&format!("repair-model-{case}"));
        let config = TsdbConfig {
            chunk_size: 4,          // low, so rounds seal chunks mid-stream
            retention_ms: 20_000,   // four rounds: retention bites and evicts
        };
        let dbs: Vec<TimeSeriesDb> =
            (0..4).map(|_| TimeSeriesDb::with_config(config.clone())).collect();
        let [lane_db, model_db, fast_db, slow_db] = [&dbs[0], &dbs[1], &dbs[2], &dbs[3]];

        // The lane under test, and a neighbour drawing on the same job pool.
        let budgets = CardinalityBudgets::new();
        let mut pool = ModelPool::default();
        let mut limit = pick_limit(&mut rng);
        let new_lane = |limit| {
            PushLane::new(lane_db.clone(), &lane_config("main:1", limit))
                .with_budgets(Arc::clone(&budgets))
        };
        let mut lane = new_lane(limit);
        let mut model = ModelLane::new(model_db.clone(), "main:1", limit);
        let mut neighbour = PushLane::new(lane_db.clone(), &lane_config("other:1", None))
            .with_budgets(Arc::clone(&budgets));
        let mut model_neighbour = ModelLane::new(model_db.clone(), "other:1", None);
        let mut neighbour_load = Workload { series: Vec::new(), next_pod: 1_000_000, histogram: false };

        // The scraper target and its per-sample oracle.
        let endpoint = Arc::new(ScriptedEndpoint::default());
        let target = || ScrapeTargetConfig::new("gen_exporter", "node-1:9999").with_label("zone", "z1");
        let fast = Scraper::new(fast_db.clone()).with_modelled_durations();
        fast.add_target(target(), endpoint.clone());
        let mut slow = PerSampleScraper::new(slow_db.clone());
        slow.add_target(target(), endpoint.clone());

        let mut load = Workload { series: Vec::new(), next_pod: 0, histogram: false };
        load.series = (0..initial).map(|_| load.fresh(&mut rng)).collect();

        for round in 1..=rounds {
            let now = round * 5_000;
            load.churn(&mut rng);
            let families = load.families(round, &mut rng);

            // Budgets move mid-stream: the pool's limit, and — by the lane
            // reconnecting, which is how a lane's own limit changes — the
            // per-lane one.
            if rng.below(4) == 0 {
                let job_limit = rng.below(20);
                budgets.set_job_limit(JOB, job_limit);
                pool.limit = Some(job_limit);
            }
            if rng.below(6) == 0 {
                limit = pick_limit(&mut rng);
                model.release(&mut pool);
                drop(lane);
                lane = new_lane(limit);
                model = ModelLane::new(model_db.clone(), "main:1", limit);
            }
            if rng.below(3) == 0 {
                neighbour_load.churn(&mut rng);
                let families = neighbour_load.families(round, &mut rng);
                let text = encode_text(&families);
                let doc = parse_families_bounded(&text, ParseLimits::network()).unwrap();
                assert_eq!(
                    neighbour.push(&doc, now),
                    model_neighbour.push(&mut pool, &doc.to_snapshots(), now),
                    "neighbour outcome at round {round} (case {case})"
                );
            }

            // The lane reads the round as the serving edge does, as text;
            // the model reads the families that text stands for.
            let text = encode_text(&families);
            let doc = parse_families_bounded(&text, ParseLimits::network()).unwrap();
            assert_eq!(
                lane.push(&doc, now),
                model.push(&mut pool, &doc.to_snapshots(), now),
                "push outcome at round {round} (case {case})"
            );
            assert_eq!(budgets.job_used(JOB), pool.used, "job_used at round {round} (case {case})");
            assert_eq!(
                fingerprint(lane_db),
                fingerprint(model_db),
                "lane and model stores diverged at round {round} (case {case})"
            );

            endpoint.set(families);
            assert_eq!(fast.scrape_once(now), slow.scrape_once(now));
            assert_eq!(
                fingerprint(fast_db),
                fingerprint(slow_db),
                "fast-lane and per-sample stores diverged at round {round} (case {case})"
            );

            // Maintenance between rounds moves shard generations under the
            // cached handles; applied to all four stores alike.
            if rng.below(4) == 0 {
                let evicted: Vec<_> = dbs.iter().map(TimeSeriesDb::apply_retention).collect();
                assert_eq!(evicted[0], evicted[1]);
                assert_eq!(evicted[2], evicted[3]);
            }
            if rng.below(4) == 0 {
                let selector = Selector::metric(METRICS[rng.below(METRICS.len() as u64) as usize]);
                let dropped: Vec<_> = dbs.iter().map(|db| db.drop_series(&selector)).collect();
                assert_eq!(dropped[0], dropped[1]);
                assert_eq!(dropped[2], dropped[3]);
            }
        }
        drop(lane);
        drop(neighbour);
        assert_eq!(budgets.job_used(JOB), 0, "dropped lanes return their admissions");
    }
}

/// One label value a text writer may send, as it spells it between the
/// quotes: plain, or with each of the three escapes.
const SPELLED_VALUES: [&str; 4] = ["web", "say \\\"hi\\\"", "C:\\\\dir", "two\\nlines"];

/// Writes one sample line for `name` with `labels` (name, value as spelled
/// between the quotes), in a random label order and with random blanks
/// around `=` and `,` — every spelling the parser reads as the same series.
fn spell_line(
    rng: &mut TestRng,
    name: &str,
    labels: &[(&str, &str)],
    value: f64,
    doc: &mut String,
) {
    let mut order: Vec<usize> = (0..labels.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let blank = |rng: &mut TestRng| if rng.below(4) == 0 { " " } else { "" };
    doc.push_str(name);
    if !labels.is_empty() {
        doc.push('{');
        for (n, &i) in order.iter().enumerate() {
            let (key, val) = labels[i];
            if n > 0 {
                let (before, after) = (blank(rng), blank(rng));
                doc.push_str(&format!("{before},{after}"));
            }
            let (before, after) = (blank(rng), blank(rng));
            doc.push_str(&format!("{key}{before}={after}\"{val}\""));
        }
        doc.push('}');
    }
    doc.push_str(&format!(" {value}\n"));
}

/// One round of a text writer: gauge and counter lines of interleaved
/// families, some series sent twice (once possibly spelled another way),
/// `# TYPE` lines before or after their samples, and a histogram whose
/// buckets spell their bound `0.50`.
fn text_round(rng: &mut TestRng, round: u64) -> String {
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..rng.below(12) {
        let metric = ["pod_cpu_seconds", "pod_restarts_total"][rng.below(2) as usize];
        let pod = format!("p-{}", rng.below(6));
        let zone = SPELLED_VALUES[rng.below(SPELLED_VALUES.len() as u64) as usize];
        let labels = [("pod", pod.as_str()), ("zone", zone), ("node", "n1")];
        let labels = &labels[..1 + rng.below(3) as usize];
        let value = round as f64 + rng.below(1_000) as f64 / 8.0;
        let mut line = String::new();
        spell_line(rng, metric, labels, value, &mut line);
        if rng.below(5) == 0 {
            spell_line(rng, metric, labels, value + 1.0, &mut line);
        }
        lines.push(line);
    }
    if rng.below(2) == 0 {
        let mut histogram = String::new();
        for node in 0..2u64 {
            let node = format!("n{node}");
            for (le, count) in [("0.50", round), ("1", 2 * round), ("+Inf", 3 * round)] {
                let labels = [("node", node.as_str()), ("le", le)];
                spell_line(rng, "rpc_seconds_bucket", &labels, count as f64, &mut histogram);
            }
            spell_line(rng, "rpc_seconds_sum", &[("node", &node)], round as f64, &mut histogram);
            spell_line(
                rng,
                "rpc_seconds_count",
                &[("node", &node)],
                3.0 * round as f64,
                &mut histogram,
            );
        }
        lines.insert(rng.below(lines.len() as u64 + 1) as usize, histogram);
    }
    for (family, kind) in [
        ("pod_cpu_seconds", "gauge"),
        ("pod_restarts_total", "counter"),
        ("rpc_seconds", "histogram"),
    ] {
        if rng.below(4) != 0 {
            let at = rng.below(lines.len() as u64 + 1) as usize;
            lines.insert(at, format!("# TYPE {family} {kind}\n"));
        }
    }
    lines.concat()
}

proptest! {
    #[test]
    fn a_text_push_stores_what_its_snapshots_store(
        rounds in 2u64..12,
        case in 0u64..1_000_000,
    ) {
        // Whatever spelling a line arrives in, matching by its bytes must
        // store what the document's snapshots store when every sample is
        // appended by key.
        let mut rng = TestRng::deterministic(&format!("text-lane-{case}"));
        let (lane_db, model_db) = (TimeSeriesDb::new(), TimeSeriesDb::new());
        let mut lane = PushLane::new(lane_db.clone(), &lane_config("main:1", None));
        let mut model = ModelLane::new(model_db.clone(), "main:1", None);
        let mut pool = ModelPool::default();
        let targets = DocTargets::new();
        let mut previous = String::new();
        for round in 1..=rounds {
            // Now and then the previous round again, byte for byte: the
            // warm pass.
            let text = if rng.below(4) == 0 && !previous.is_empty() {
                previous.clone()
            } else {
                text_round(&mut rng, round)
            };
            let now = round * 5_000;
            let doc = parse_families_bounded(&text, ParseLimits::network()).unwrap();
            assert_eq!(
                lane.push(&doc, now),
                model.push(&mut pool, &doc.to_snapshots(), now),
                "push outcome at round {round} (case {case}) of {text:?}"
            );
            assert_eq!(
                fingerprint(&lane_db),
                fingerprint(&model_db),
                "lane and model stores diverged at round {round} (case {case}) on {text:?}"
            );
            targets.scrape(&text, &doc, now, &format!("at round {round} (case {case}) of {text:?}"));
            previous = text;
        }
    }
}

#[test]
fn respelled_and_repeated_lines_store_what_their_snapshots_store() {
    // Each case of the generated test above, written out once.
    let rounds = [
        // Label order, blanks around `=` and `,`, an escaped value.
        "m{b=\"2\",a=\"x\\\"y\"} 1\nm{a=\"z\"} 1\n",
        "m{a = \"x\\\"y\" , b=\"2\"} 2\nm{a=\"z\"} 2\n",
        // A `# TYPE` line after its samples, interleaved families, the same
        // line twice, one series spelled two ways.
        "c{a=\"1\"} 3\nm{a=\"z\"} 3\nc{a=\"1\"} 4\nc{ a=\"1\" } 5\n# TYPE c counter\n",
        // `le="0.50"` on a histogram.
        "# TYPE h histogram\nh_bucket{le=\"0.50\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\nm{a=\"z\"} 4\n",
        "# TYPE h histogram\nh_bucket{le=\"0.50\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 2\nh_count 3\nm{a=\"z\"} 5\n",
        // Labels the target labels override: `instance` sent with two other
        // values, `job` while `exported_job` is taken too, `zone` with the
        // targets' own value.
        "up{instance=\"n1\"} 1\nup{instance=\"n2\"} 0\nm{job=\"x\",exported_job=\"y\"} 6\nm{zone=\"z1\"} 6\n",
    ];
    let (lane_db, model_db) = (TimeSeriesDb::new(), TimeSeriesDb::new());
    let mut lane = PushLane::new(lane_db.clone(), &lane_config("main:1", None));
    let mut model = ModelLane::new(model_db.clone(), "main:1", None);
    let mut pool = ModelPool::default();
    let targets = DocTargets::new();
    for (round, text) in (1u64..).zip(rounds) {
        let doc = parse_families_bounded(text, ParseLimits::network()).unwrap();
        let now = round * 5_000;
        assert_eq!(
            lane.push(&doc, now),
            model.push(&mut pool, &doc.to_snapshots(), now),
            "{text:?}"
        );
        assert_eq!(fingerprint(&lane_db), fingerprint(&model_db), "{text:?}");
        targets.scrape(text, &doc, now, &format!("{text:?}"));
    }
    let stored = lane_db.select(&Selector::metric("h_bucket").with_label("le", "0.5"));
    let stored: Vec<_> =
        stored[0].points_in(0, u64::MAX).iter().map(|s| (s.timestamp_ms, s.value)).collect();
    assert_eq!(stored, [(20_000, 1.0), (25_000, 2.0)]);
    let relayed = lane_db.select(&Selector::metric("up").with_label("instance", "main:1"));
    let mut exported: Vec<_> =
        relayed.iter().filter_map(|s| s.label_value("exported_instance")).collect();
    exported.sort_unstable();
    assert_eq!(exported, ["n1", "n2"], "two wire series, two stored series");
    let job = lane_db.select(&Selector::metric("m").with_label("exported_exported_job", "x"));
    assert_eq!(job[0].label_value("exported_job"), Some("y"));
}

/// The same documents scraped three ways — from a text target, from a typed
/// target serving the snapshots they stand for, and by the per-sample
/// reference over those snapshots — each into a store of its own.
struct DocTargets {
    document: Arc<Mutex<String>>,
    snapshots: Arc<ScriptedEndpoint>,
    text: (Scraper, TimeSeriesDb),
    typed: (Scraper, TimeSeriesDb),
    reference: (PerSampleScraper, TimeSeriesDb),
}

impl DocTargets {
    fn new() -> Self {
        let config = || ScrapeTargetConfig::new("doc_exporter", "main:1").with_label("zone", "z1");
        let document = Arc::new(Mutex::new(String::new()));
        let snapshots = Arc::new(ScriptedEndpoint::default());
        let served = Arc::clone(&document);
        let fetch = move || -> Result<String, String> { Ok(served.lock().clone()) };
        let text_db = TimeSeriesDb::new();
        let text = (Scraper::new(text_db.clone()).with_modelled_durations(), text_db);
        text.0.add_text_source(config(), Arc::new(fetch));
        let typed_db = TimeSeriesDb::new();
        let typed = (Scraper::new(typed_db.clone()).with_modelled_durations(), typed_db);
        typed.0.add_target(config(), snapshots.clone());
        let reference_db = TimeSeriesDb::new();
        let mut reference = (PerSampleScraper::new(reference_db.clone()), reference_db);
        reference.0.add_target(config(), snapshots.clone());
        Self { document, snapshots, text, typed, reference }
    }

    /// Scrapes `text`, parsed as `doc`, all three ways at `now`: the
    /// outcomes and the stores must be the reference's.
    fn scrape(&self, text: &str, doc: &Exposition<'_>, now: u64, context: &str) {
        text.clone_into(&mut self.document.lock());
        self.snapshots.set(doc.to_snapshots());
        let outcomes = self.reference.0.scrape_once(now);
        assert_eq!(self.text.0.scrape_once(now), outcomes, "text target {context}");
        assert_eq!(self.typed.0.scrape_once(now), outcomes, "typed target {context}");
        let stored = fingerprint(&self.reference.1);
        assert_eq!(fingerprint(&self.text.1), stored, "text target store {context}");
        assert_eq!(fingerprint(&self.typed.1), stored, "typed target store {context}");
    }
}
