//! The metric tables (names and units, mirrored by `BENCHMARK.json`) and the
//! result a run prints.

use serde_json::Value as Json;

/// The end-to-end metrics, printed by a `--trace 0` run: the issue's fourteen
/// less `round_p99_us`, demoted to the per-layer list (`client.round.p99_us`).
#[cfg(test)]
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("ingest_samples_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("round_p50_us", "us"),
    ("refreshes_per_s", "1/s"),
    ("refresh_p50_ms", "ms"),
    ("refresh_p90_ms", "ms"),
    ("cpu_us_per_sample", "us"),
    ("cpu_ms_per_refresh", "ms"),
    ("rss_peak_mb", "MB"),
    ("mem_bytes_per_sample", "B"),
    ("wal_bytes_per_sample", "B"),
];

/// Spans recorded by the traced run; each yields `<name>.p50_us` and
/// `<name>.share`.
pub const SPANS: [&str; 18] = [
    "server.http.read_request",
    "server.middleware.limiter_check",
    "metrics.exposition.parse",
    "metrics.exposition.free",
    "tsdb.scrape.push",
    "tsdb.scrape.cache_walk",
    "tsdb.storage.append",
    "tsdb.scrape.round",
    "tsdb.scrape.collect",
    "tsdb.storage.append_batch",
    "tsdb.wal.flush",
    "tsdb.storage.retention",
    "query.parser.parse",
    "query.stream.plan",
    "query.stream.run",
    "query.json.render",
    "server.http.write_response",
    "bench.glue",
];

/// Per-layer metrics that are not span statistics, printed by a `--trace 1`
/// run after the span lines.
pub const LAYER_SCALARS: [(&str, &str); 41] = [
    ("transport.residual", "us"),
    ("tsdb.wal.flush.of_client_p50", "ratio"),
    ("server.core.serve_connection.p50_us", "us"),
    ("server.core.unattributed", "%"),
    ("query.engine.unattributed", "%"),
    ("tsdb.scrape.round.unattributed", "%"),
    ("tsdb.scrape.hit_ratio", "ratio"),
    ("tsdb.scrape.cache_rebuilds", "count"),
    ("tsdb.wal.round_tax", "us"),
    ("tsdb.wal.bytes_written", "B"),
    ("tsdb.wal.fsync_count", "count"),
    ("tsdb.wal.dir_bytes_end", "B"),
    ("tsdb.storage.open.seconds", "s"),
    ("tsdb.storage.open.samples_per_s", "1/s"),
    ("tsdb.storage.series_end", "count"),
    ("tsdb.storage.chunks_end", "count"),
    ("tsdb.storage.resident_bytes_end", "B"),
    ("tsdb.index.bytes_end", "B"),
    ("tsdb.symbols.live_end", "count"),
    ("tsdb.symbols.swept", "count"),
    ("tsdb.storage.rejected_samples", "count"),
    ("query.stream.samples_decoded_per_point", "ratio"),
    ("query.json.bytes_per_refresh", "B"),
    ("query.fallback_total", "count"),
    ("lock.tsdb_shard.contended", "count"),
    ("lock.tsdb_shard.wait_us", "us"),
    ("server.http.connections", "count"),
    ("server.http.requests", "count"),
    ("server.http.responses_4xx", "count"),
    ("server.http.responses_5xx", "count"),
    ("server.http.shed", "count"),
    ("server.http.panics", "count"),
    ("client.round.p99_us", "us"),
    ("client.write.p99_ms", "ms"),
    ("client.refresh.p99_ms", "ms"),
    ("client.query.P1.p50_ms", "ms"),
    ("client.query.P2.p50_ms", "ms"),
    ("client.query.P3.p50_ms", "ms"),
    ("client.query.P4.p50_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_ops", "count"),
];

/// Every per-layer metric name with its unit, in print order.
#[cfg(test)]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for span in SPANS {
        names.push((format!("{span}.p50_us"), "us"));
        names.push((format!("{span}.share"), "ratio"));
    }
    names.extend(LAYER_SCALARS.iter().map(|&(name, unit)| (name.to_string(), unit)));
    names
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (each also counts as one failed operation).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context printed above the metrics (sample counts, environment).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(format!("{name} is not a finite number (nothing was measured for it)"));
        }
        self.metrics.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check.
    pub fn problem(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the contract asks for as the last stdout line.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Object(vec![
                    ("value".to_string(), Json::Number(*value)),
                    ("unit".to_string(), Json::String((*unit).to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Number(self.attempted.max(1) as f64)),
            ("failed".to_string(), Json::Number(self.failed as f64)),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
    }

    /// Prints notes, problems, every metric by name and unit, then the
    /// result object as the last line.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.problems {
            println!("! {workload}: {problem}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{workload:<16} {name:<44} {value:>16.4} {unit}");
        }
        println!("{}", serde_json::to_string(&self.to_json()).unwrap_or_default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root and the tables above name the
    /// same metrics with the same units, in the same order.
    #[test]
    fn contract_file_matches_the_tables() {
        let contract: Json = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            contract
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<&str> = contract
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = crate::rig::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
    }
}
