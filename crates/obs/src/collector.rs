//! [`ObsCollector`]: the probe table exposed through the standard
//! [`Collector`] trait.
//!
//! `collect` builds the same families [`crate::SelfSnapshot`] holds — the
//! one walk of the probe table, into an empty list — over every layer or
//! one, so the collector plugs into everything that consumes collectors:
//! the text exposition renderer and the scraper's collector endpoints.  It
//! allocates a fresh set per call, which is fine for `/metrics`-style
//! exposition; the engine's own per-round self-scrape refreshes a
//! [`crate::SelfSnapshot`] in place instead.

use teemon_metrics::{CollectError, Collector, FamilySnapshot};

/// The default job label under which the engine scrapes itself.
pub const SELF_JOB: &str = "teemon_self";

/// A [`Collector`] over the engine's own probe table — all of it, or the
/// families of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsCollector {
    layer: Option<&'static str>,
}

impl ObsCollector {
    /// Creates the collector over every layer (stateless; the probes are
    /// static).
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector over one layer's families only (`ingest`, `storage`,
    /// `query`, `http` or `locks`), so a caller that exports a slice of the
    /// surface does not pay for snapshotting the rest.
    pub fn layer(layer: &'static str) -> Self {
        Self { layer: Some(layer) }
    }
}

impl Collector for ObsCollector {
    fn job_name(&self) -> &str {
        SELF_JOB
    }

    fn collect(&self) -> Result<Vec<FamilySnapshot>, CollectError> {
        Ok(crate::snapshot::build(self.layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::{LOCK_FAMILIES, PROBES};

    #[test]
    fn job_name_is_the_self_job() {
        assert_eq!(ObsCollector::new().job_name(), SELF_JOB);
    }

    #[test]
    fn a_layer_collector_exports_only_that_layer() {
        let http = ObsCollector::layer("http").collect().expect("collect is infallible");
        assert_eq!(http.len(), PROBES.iter().filter(|p| p.layer == "http").count());
        assert!(http.iter().all(|f| f.name.starts_with("teemon_http_")));
        let locks = ObsCollector::layer("locks").collect().expect("collect is infallible");
        let names: Vec<&str> = locks.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, LOCK_FAMILIES.map(|(name, _)| name));
    }
}
