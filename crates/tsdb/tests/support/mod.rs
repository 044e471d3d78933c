//! What the ingest suites hold the [`Scraper`](teemon_tsdb::Scraper) to,
//! written against the crate's public API only.
//!
//! [`PerSampleScraper`] is a scrape round with no cache, no handles and no
//! batch: every wire sample gets its target labels merged and is appended by
//! key, then the target's meta-series follow.  It is what every round did
//! before the scrape cache existed and it is simple enough to be obviously
//! right, which is all a reference has to be — it is test code, so nothing
//! ships it.  Cardinality budgets are not modelled here (`repair_model.rs`
//! has `ModelLane` for those).
//!
//! [`ScriptedEndpoint`] and [`fingerprint`] are the scripted target and the
//! state oracle every scrape suite shares; a suite that includes this
//! module uses a part of it, so unused items are allowed.

#![allow(dead_code)]

use std::sync::Arc;

use parking_lot::Mutex;
use teemon_metrics::{FamilySnapshot, Labels};
use teemon_tsdb::{
    MetricsEndpoint, ScrapeError, ScrapeOutcome, ScrapeTargetConfig, Selector, StorageStats,
    TimeSeriesDb,
};

/// The duration model of `Scraper::with_modelled_durations`, stated a second
/// time: a base cost per scrape plus a cost per wire sample.
const SCRAPE_BASE_SECONDS: f64 = 500e-6;
const SCRAPE_PER_SAMPLE_SECONDS: f64 = 2e-6;

/// The per-sample reference scraper: same targets, same rounds, same
/// outcomes as a `Scraper` with modelled durations.
pub struct PerSampleScraper {
    db: TimeSeriesDb,
    targets: Vec<(ScrapeTargetConfig, Labels, Arc<dyn MetricsEndpoint>)>,
}

impl PerSampleScraper {
    pub fn new(db: TimeSeriesDb) -> Self {
        Self { db, targets: Vec::new() }
    }

    pub fn add_target(&mut self, config: ScrapeTargetConfig, endpoint: Arc<dyn MetricsEndpoint>) {
        let mut base = Labels::from_pairs([
            ("job", config.job.clone()),
            ("instance", config.instance.clone()),
        ]);
        for (key, value) in &config.extra_labels {
            base.insert(key.clone(), value.clone());
        }
        self.targets.push((config, base, endpoint));
    }

    /// Scrapes every target once, stamping unstamped samples with `now_ms`.
    pub fn scrape_once(&self, now_ms: u64) -> Vec<ScrapeOutcome> {
        let db = &self.db;
        let outcomes = self
            .targets
            .iter()
            .map(|(config, base, endpoint)| {
                let (mut scraped, mut added) = (0u64, 0u64);
                let result = endpoint.scrape_visit(&mut |families| {
                    for family in families {
                        family.for_each_sample(|name, labels, value, timestamp_ms| {
                            scraped += 1;
                            let ts = timestamp_ms.unwrap_or(now_ms);
                            let stored = stored_labels(labels, base);
                            added += u64::from(db.append(name, &stored, ts, value));
                        });
                    }
                });
                let up = result.is_ok();
                let duration_seconds =
                    SCRAPE_BASE_SECONDS + scraped as f64 * SCRAPE_PER_SAMPLE_SECONDS;
                db.append("up", base, now_ms, if up { 1.0 } else { 0.0 });
                db.append("scrape_duration_seconds", base, now_ms, duration_seconds);
                if up {
                    db.append("scrape_samples_scraped", base, now_ms, scraped as f64);
                    db.append("scrape_samples_added", base, now_ms, added as f64);
                }
                ScrapeOutcome {
                    job: config.job.clone(),
                    instance: config.instance.clone(),
                    up,
                    samples: added,
                    duration_seconds,
                    error: result.err().map(|error| error.to_string()),
                }
            })
            .collect();
        // A round is durable before it is done, as the scraper's is (a no-op
        // on the volatile stores the suites use).
        db.wal_flush();
        outcomes
    }
}

/// Bugfix hook: the label set a wire sample is stored under, the rule stated
/// a second time.  The target labels are merged over the sample's own; a
/// sample label whose name a target label takes with a different value is
/// kept as `exported_<name>` (prefixed again while that name is taken), so
/// two wire series differing only there stay two series.  An equal value is
/// simply merged.
pub fn stored_labels(wire: &Labels, target: &Labels) -> Labels {
    let mut stored = wire.merged(target);
    for (name, value) in target.iter() {
        if let Some(sent) = wire.get(name).filter(|sent| *sent != value) {
            let mut exported = format!("exported_{name}");
            while stored.get(&exported).is_some() {
                exported = format!("exported_{exported}");
            }
            stored.insert(exported, sent);
        }
    }
    stored
}

/// An endpoint whose snapshot set the test rewrites every round, shared by
/// the scraper and its reference so they observe identical rounds.
#[derive(Default)]
pub struct ScriptedEndpoint(Mutex<Vec<FamilySnapshot>>);

impl ScriptedEndpoint {
    pub fn set(&self, families: Vec<FamilySnapshot>) {
        *self.0.lock() = families;
    }
}

impl MetricsEndpoint for ScriptedEndpoint {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().clone())
    }
}

/// One series as compared across databases: id, name, rendered labels, data.
pub type SeriesDump = (u64, String, String, Vec<teemon_tsdb::Sample>);

/// Everything observable about a database, in creation order.
pub fn fingerprint(db: &TimeSeriesDb) -> (String, Vec<SeriesDump>) {
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
    // `series_bytes` counts capacities — history, not state: a recovered
    // store's is its own.
    let stats = StorageStats { series_bytes: 0, ..db.stats() };
    (format!("{stats:?}"), series)
}
