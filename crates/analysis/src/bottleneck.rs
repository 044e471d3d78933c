//! The periodic analyzer and bottleneck heuristics.
//!
//! Beyond raw anomalies, PMAN "has the ability to aid the identification of
//! bottlenecks in applications running inside TEE enclaves" (§4).  The
//! heuristics here encode the two diagnoses the paper's evaluation actually
//! makes:
//!
//! * §6.4: `clock_gettime`/`futex` dominating `read`/`write` indicates that
//!   timer handling forces unnecessary enclave exits,
//! * §6.5: a high EPC eviction rate indicates the working set exceeds the EPC,
//!   and an excessive host context-switch rate indicates framework threading
//!   problems (Graphene-SGX).
//!
//! Each diagnosis is a TeeQL instant query through [`QueryEngine`] — the
//! engine that serves dashboards and alerts — at the end of the requested
//! range clamped to the data, over a window spanning that whole range.  The
//! engine's windows are closed (`[t − w, t]`), so the window holds exactly
//! the samples of the clamped range.  Anomaly detection evaluates nothing:
//! the rule engine already ran PMAN's thresholds ([`crate::pman_alerts`]) in
//! the monitoring loop, so an anomaly is a stored `ALERTS` sample.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_query::{format_duration_ms, QueryEngine, Severity, Value, VectorSample};
use teemon_tsdb::{Selector, TimeSeriesDb};

use crate::anomaly::Anomaly;

/// Share of all system calls above which one call is dominant.
const SYSCALL_DOMINANCE_RATIO: f64 = 0.5;
/// Evicted EPC pages per 100 requests (or in total, when request counts are
/// unavailable) above which EPC thrashing is reported.
const EPC_EVICTION_THRESHOLD: f64 = 50.0;
/// Host context switches per request above which a storm is reported.
const CONTEXT_SWITCH_RATIO: f64 = 2.0;

/// The kinds of bottleneck the analyzer can diagnose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BottleneckKind {
    /// A cheap syscall (e.g. `clock_gettime`) dominates I/O syscalls, forcing
    /// needless enclave exits.
    SyscallDominance,
    /// The EPC is oversubscribed: evictions and reclaims dominate.
    EpcThrashing,
    /// Host context switches are excessive relative to work done.
    ContextSwitchStorm,
}

/// One diagnosed bottleneck.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BottleneckFinding {
    /// The kind of bottleneck.
    pub kind: BottleneckKind,
    /// Human-readable explanation with the supporting numbers.
    pub explanation: String,
    /// The metric values supporting the finding.
    pub evidence: Vec<(String, f64)>,
}

/// The periodic analysis loop over the aggregated data.
#[derive(Debug, Clone)]
pub struct Analyzer {
    engine: QueryEngine,
}

impl Analyzer {
    /// Creates an analyzer over `db`.
    pub fn new(db: TimeSeriesDb) -> Self {
        Self { engine: QueryEngine::new(db) }
    }

    /// The instant and the window that cover `[start_ms, end_ms]` clamped to
    /// the data: evaluating `f(m[window])` at the instant reads exactly the
    /// clamped range.  `None` when no data falls in the range.
    fn window(&self, start_ms: u64, end_ms: u64) -> Option<(u64, String)> {
        let start = start_ms.max(self.engine.db().oldest_timestamp()?);
        let end = end_ms.min(self.engine.db().newest_timestamp()?);
        (start <= end).then(|| (end, format_duration_ms((end - start).max(1))))
    }

    /// The vector `query` evaluates to at `at_ms`; empty when the engine
    /// refuses the query.
    fn instant(&self, query: &str, at_ms: u64) -> Vec<VectorSample> {
        match self.engine.instant_query(query, at_ms) {
            Ok(Value::Vector(samples)) => samples,
            _ => Vec::new(),
        }
    }

    /// `sum(increase(selector[…]))` over `[start_ms, end_ms]`; `0` when no
    /// series has two samples there.
    fn total_increase(&self, selector: &Selector, start_ms: u64, end_ms: u64) -> f64 {
        let Some((at, window)) = self.window(start_ms, end_ms) else { return 0.0 };
        let total = self.instant(&format!("sum(increase({selector}[{window}]))"), at);
        total.first().map_or(0.0, |sample| sample.value)
    }

    /// The anomalies within `[start_ms, end_ms]`: every firing evaluation
    /// of an alert rule — PMAN's thresholds ([`crate::pman_alerts`]) and any
    /// other — that the rule engine recorded as an
    /// `ALERTS{alertstate="firing"}` sample, per alert instance in time
    /// order.  Each stored sample is one evaluation, so no lookback applies:
    /// an alert that resolved stays resolved.
    pub fn detect_anomalies(&self, start_ms: u64, end_ms: u64) -> Vec<Anomaly> {
        let firing = Selector::metric("ALERTS").with_label("alertstate", "firing");
        let mut anomalies = Vec::new();
        for series in self.engine.db().select(&firing) {
            let rule = series.label_value("alertname").unwrap_or_default().to_string();
            let severity = [Severity::Info, Severity::Warning, Severity::Critical]
                .into_iter()
                .find(|severity| series.label_value("severity") == Some(severity.label()))
                .unwrap_or(Severity::Info);
            let labels = Labels::from_pairs(
                series
                    .labels()
                    .filter(|(name, _)| !matches!(*name, "alertname" | "alertstate" | "severity")),
            );
            anomalies.extend(series.points_in(start_ms, end_ms).into_iter().map(|sample| {
                Anomaly {
                    rule: rule.clone(),
                    severity,
                    labels: labels.clone(),
                    at_ms: sample.timestamp_ms,
                }
            }));
        }
        anomalies
    }

    /// Diagnoses syscall dominance from the per-syscall counter series
    /// (`metric{syscall=...}` counters) over a time range.
    ///
    /// A series counts its `increase` over the range, or — with a single
    /// sample there, as when a run is scraped once — its value.
    pub fn diagnose_syscall_mix(
        &self,
        metric: &str,
        start_ms: u64,
        end_ms: u64,
    ) -> Option<BottleneckFinding> {
        let (at, window) = self.window(start_ms, end_ms)?;
        let increases: HashMap<Labels, f64> = self
            .instant(&format!("increase({metric}[{window}])"), at)
            .into_iter()
            .map(|sample| (sample.labels, sample.value))
            .collect();
        let mut per_syscall: Vec<(String, f64)> = self
            .instant(&format!("last_over_time({metric}[{window}])"), at)
            .into_iter()
            .filter_map(|last| {
                let total = increases.get(&last.labels).copied().unwrap_or(last.value);
                Some((last.labels.get("syscall")?.to_string(), total))
            })
            .collect();
        if per_syscall.is_empty() {
            return None;
        }
        // Merge duplicate syscall labels across nodes/instances.
        per_syscall.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(String, f64)> = Vec::new();
        for (name, value) in per_syscall {
            match merged.last_mut() {
                Some((last, total)) if *last == name => *total += value,
                _ => merged.push((name, value)),
            }
        }
        let total: f64 = merged.iter().map(|(_, v)| v).sum();
        if total <= 0.0 {
            return None;
        }
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (dominant, count) = merged[0].clone();
        let io: f64 = merged
            .iter()
            .filter(|(name, _)| matches!(name.as_str(), "read" | "write" | "recvfrom" | "sendto"))
            .map(|(_, v)| v)
            .sum();
        let share = count / total;
        let io_bound = matches!(dominant.as_str(), "read" | "write" | "recvfrom" | "sendto");
        if share >= SYSCALL_DOMINANCE_RATIO && !io_bound {
            Some(BottleneckFinding {
                kind: BottleneckKind::SyscallDominance,
                explanation: format!(
                    "{dominant} accounts for {:.0}% of system calls ({count:.0} calls vs {io:.0} I/O calls); \
                     every call triggers an expensive enclave exit — consider handling it inside the enclave",
                    share * 100.0
                ),
                evidence: merged,
            })
        } else {
            None
        }
    }

    /// Diagnoses EPC thrashing from the eviction counter series.
    pub(crate) fn diagnose_epc(
        &self,
        evicted_metric: &str,
        requests: f64,
        start_ms: u64,
        end_ms: u64,
    ) -> Option<BottleneckFinding> {
        let evicted = self.total_increase(&Selector::metric(evicted_metric), start_ms, end_ms);
        if evicted <= 0.0 {
            return None;
        }
        let per_100 = if requests > 0.0 { evicted * 100.0 / requests } else { evicted };
        if per_100 >= EPC_EVICTION_THRESHOLD {
            Some(BottleneckFinding {
                kind: BottleneckKind::EpcThrashing,
                explanation: format!(
                    "{per_100:.1} EPC pages evicted per 100 requests — the working set does not fit \
                     the ~94 MiB EPC; expect paging-dominated latency"
                ),
                evidence: vec![("evicted_pages".into(), evicted), ("per_100_requests".into(), per_100)],
            })
        } else {
            None
        }
    }

    /// Diagnoses a context-switch storm from host-wide switch counters.
    pub(crate) fn diagnose_context_switches(
        &self,
        switch_metric: &str,
        requests: f64,
        start_ms: u64,
        end_ms: u64,
    ) -> Option<BottleneckFinding> {
        let selector = Selector::metric(switch_metric).with_label("scope", "host_total");
        let switches = self.total_increase(&selector, start_ms, end_ms);
        if switches <= 0.0 || requests <= 0.0 {
            return None;
        }
        let per_request = switches / requests;
        if per_request >= CONTEXT_SWITCH_RATIO {
            Some(BottleneckFinding {
                kind: BottleneckKind::ContextSwitchStorm,
                explanation: format!(
                    "{per_request:.1} host context switches per request — the framework's host \
                     interaction (synchronous exits, helper threads) dominates"
                ),
                evidence: vec![
                    ("context_switches".into(), switches),
                    ("per_request".into(), per_request),
                ],
            })
        } else {
            None
        }
    }

    /// Runs all bottleneck heuristics and returns every finding.
    pub fn diagnose_all(
        &self,
        requests: f64,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<BottleneckFinding> {
        let mut findings = Vec::new();
        if let Some(f) = self.diagnose_syscall_mix("teemon_syscalls_total", start_ms, end_ms) {
            findings.push(f);
        }
        if let Some(f) = self.diagnose_epc("sgx_pages_evicted_total", requests, start_ms, end_ms) {
            findings.push(f);
        }
        if let Some(f) = self.diagnose_context_switches(
            "teemon_context_switches_total",
            requests,
            start_ms,
            end_ms,
        ) {
            findings.push(f);
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teemon_query::{parse, AlertRule, RuleEngine, RuleGroup};

    fn db_with_syscall_mix(clock: f64, read: f64, write: f64) -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for (t, fraction) in [(0u64, 0.0), (60_000u64, 1.0)] {
            db.append(
                "teemon_syscalls_total",
                &Labels::from_pairs([("syscall", "clock_gettime"), ("node", "n1")]),
                t,
                clock * fraction,
            );
            db.append(
                "teemon_syscalls_total",
                &Labels::from_pairs([("syscall", "read"), ("node", "n1")]),
                t,
                read * fraction,
            );
            db.append(
                "teemon_syscalls_total",
                &Labels::from_pairs([("syscall", "write"), ("node", "n1")]),
                t,
                write * fraction,
            );
        }
        db
    }

    #[test]
    fn clock_gettime_dominance_is_detected() {
        // The paper's Figure 6a situation: 370 000 clock_gettime vs tens of
        // reads/writes per second.
        let db = db_with_syscall_mix(370_000.0, 23.0, 23.0);
        let analyzer = Analyzer::new(db);
        let finding = analyzer
            .diagnose_syscall_mix("teemon_syscalls_total", 0, 120_000)
            .expect("dominance should be detected");
        assert_eq!(finding.kind, BottleneckKind::SyscallDominance);
        assert!(finding.explanation.contains("clock_gettime"));
        assert!(finding.explanation.contains("enclave exit"));
    }

    #[test]
    fn balanced_io_mix_is_not_flagged() {
        // Figure 6b: after the fix, reads/writes dominate.
        let db = db_with_syscall_mix(100.0, 3_200.0, 3_200.0);
        let analyzer = Analyzer::new(db);
        assert!(analyzer.diagnose_syscall_mix("teemon_syscalls_total", 0, 120_000).is_none());
    }

    #[test]
    fn epc_thrashing_is_detected_above_threshold() {
        let db = TimeSeriesDb::new();
        db.append("sgx_pages_evicted_total", &Labels::new(), 0, 0.0);
        db.append("sgx_pages_evicted_total", &Labels::new(), 60_000, 13_700.0);
        let analyzer = Analyzer::new(db);
        // 10 000 requests → 137 evicted per 100 requests (the paper's SCONE
        // value at 105 MB / 580 connections).
        let finding =
            analyzer.diagnose_epc("sgx_pages_evicted_total", 10_000.0, 0, 120_000).unwrap();
        assert_eq!(finding.kind, BottleneckKind::EpcThrashing);
        assert!(finding.explanation.contains("94 MiB"));
        // Small databases with no evictions produce no finding.
        let quiet = TimeSeriesDb::new();
        quiet.append("sgx_pages_evicted_total", &Labels::new(), 0, 0.0);
        quiet.append("sgx_pages_evicted_total", &Labels::new(), 60_000, 0.0);
        assert!(Analyzer::new(quiet)
            .diagnose_epc("sgx_pages_evicted_total", 10_000.0, 0, 120_000)
            .is_none());
    }

    #[test]
    fn context_switch_storm_detection() {
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("scope", "host_total")]);
        db.append("teemon_context_switches_total", &labels, 0, 0.0);
        db.append("teemon_context_switches_total", &labels, 60_000, 30_000.0);
        let analyzer = Analyzer::new(db);
        // 10 000 requests → 3 switches per request → storm (Graphene-like).
        let finding = analyzer
            .diagnose_context_switches("teemon_context_switches_total", 10_000.0, 0, 120_000)
            .unwrap();
        assert_eq!(finding.kind, BottleneckKind::ContextSwitchStorm);
        // 100 000 requests → 0.3 per request → fine (SCONE-like).
        assert!(analyzer
            .diagnose_context_switches("teemon_context_switches_total", 100_000.0, 0, 120_000)
            .is_none());
    }

    #[test]
    fn diagnose_all_combines_findings_and_summarizes() {
        let db = db_with_syscall_mix(500_000.0, 50.0, 50.0);
        db.append("sgx_pages_evicted_total", &Labels::new(), 0, 0.0);
        db.append("sgx_pages_evicted_total", &Labels::new(), 60_000, 20_000.0);
        let analyzer = Analyzer::new(db);
        let findings = analyzer.diagnose_all(10_000.0, 0, 120_000);
        assert!(findings.len() >= 2);
        let kinds: Vec<_> = findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&BottleneckKind::SyscallDominance));
        assert!(kinds.contains(&BottleneckKind::EpcThrashing));
        assert!(findings.iter().all(|f| !f.explanation.is_empty()));
    }

    #[test]
    fn a_single_scrape_counts_each_series_value() {
        // The code-evolution shape: one scrape per run, so no series has an
        // increase and each counts its value; clock_gettime is reported by
        // two nodes and merges into one row.
        let db = TimeSeriesDb::new();
        for (syscall, node, count) in [
            ("clock_gettime", "n1", 8_000.0),
            ("clock_gettime", "n2", 800.0),
            ("read", "n1", 500.0),
            ("write", "n1", 545.0),
        ] {
            let labels = Labels::from_pairs([("syscall", syscall), ("node", node)]);
            db.append("teemon_syscalls_total", &labels, 5_000, count);
        }
        let finding = Analyzer::new(db)
            .diagnose_syscall_mix("teemon_syscalls_total", 0, u64::MAX)
            .expect("dominance should be detected");
        assert_eq!(finding.kind, BottleneckKind::SyscallDominance);
        let expected = [("clock_gettime", 8_800.0), ("write", 545.0), ("read", 500.0)];
        let expected: Vec<(String, f64)> =
            expected.iter().map(|(name, count)| (name.to_string(), *count)).collect();
        assert_eq!(finding.evidence, expected);
        assert!(
            finding.explanation.starts_with(
                "clock_gettime accounts for 89% of system calls (8800 calls vs 1045 I/O calls)"
            ),
            "{}",
            finding.explanation
        );
    }

    #[test]
    fn epc_evidence_is_the_engines_sum_of_increases() {
        let db = TimeSeriesDb::new();
        for (node, samples) in [
            ("n1", [(10_000u64, 0.5), (20_000, 1_000.25), (30_000, 4_000.75)]),
            // A reset between the second and the third scrape.
            ("n2", [(15_000, 300.1), (25_000, 2_000.3), (35_000, 700.7)]),
        ] {
            for (t, v) in samples {
                db.append("sgx_pages_evicted_total", &Labels::from_pairs([("node", node)]), t, v);
            }
        }
        let analyzer = Analyzer::new(db.clone());
        let finding = analyzer.diagnose_epc("sgx_pages_evicted_total", 1_000.0, 0, u64::MAX);
        let evicted = finding.expect("evictions above the threshold").evidence[0].1;
        // [0, ∞) clamps to [10 s, 35 s]: a 25 s window ending at 35 s.
        let engine = QueryEngine::new(db);
        let expected =
            engine.instant_query("sum(increase(sgx_pages_evicted_total[25s]))", 35_000).unwrap();
        assert_eq!(evicted.to_bits(), expected.as_vector().unwrap()[0].value.to_bits());
        // A range that starts inside the data clamps only its end.
        let partial = analyzer.diagnose_epc("sgx_pages_evicted_total", 1_000.0, 20_000, u64::MAX);
        let expected =
            engine.instant_query("sum(increase(sgx_pages_evicted_total[15s]))", 35_000).unwrap();
        assert_eq!(
            partial.unwrap().evidence[0].1.to_bits(),
            expected.as_vector().unwrap()[0].value.to_bits()
        );
    }

    #[test]
    fn anomaly_detection_over_db_ranges() {
        // Twelve one-minute samples; free pages collapse at minute 5.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        let rules = RuleEngine::new(db.clone());
        rules.add_group(crate::pman_alerts());
        let mut ticks = Vec::new();
        for minute in 0..12u64 {
            let t = minute * 60_000;
            let free = if minute < 5 { 20_000.0 } else { 100.0 };
            db.append("sgx_nr_free_pages", &labels, t, free);
            let summary = rules.evaluate_due(t);
            assert!(summary.errors.is_empty(), "{:?}", summary.errors);
            let firing = rules.firing_alerts();
            if let Some(alert) = firing.iter().find(|a| a.rule == "epc_free_pages_low") {
                assert!(alert.hint.contains("EPC"), "the live alert carries the hint");
                ticks.push(t);
            }
        }
        // The 5-minute mean falls below 512 once the closed window has left
        // minute 4 behind: from minute 10 on.
        assert_eq!(ticks, [600_000, 660_000]);

        let analyzer = Analyzer::new(db);
        let anomalies = analyzer.detect_anomalies(0, 700_000);
        let at: Vec<u64> = anomalies.iter().map(|a| a.at_ms).collect();
        assert_eq!(at, ticks);
        for anomaly in &anomalies {
            assert_eq!(anomaly.rule, "epc_free_pages_low");
            assert_eq!(anomaly.severity, Severity::Warning);
            assert_eq!(anomaly.labels, labels);
        }
        // The range picks evaluations, nothing is smeared across a window.
        let first: Vec<u64> =
            analyzer.detect_anomalies(0, 630_000).iter().map(|a| a.at_ms).collect();
        assert_eq!(first, [600_000]);
        // A range outside the data has no anomalies.
        assert!(analyzer.detect_anomalies(800_000, 900_000).is_empty());
    }

    #[test]
    fn an_anomaly_fires_exactly_where_its_alert_fires() {
        // Twelve one-minute samples of `m`, one spike of 1000 at minute 5,
        // watched by a user rule evaluated every minute as they arrive.
        let db = TimeSeriesDb::new();
        let expr = parse("max_over_time(m[5m]) > 500").unwrap();
        let rules = RuleEngine::new(db.clone());
        rules.add_group(RuleGroup::new("spikes", 60_000).with_rule(AlertRule::new(
            "spike",
            expr.clone(),
            Severity::Warning,
        )));
        for minute in 0..12u64 {
            let value = if minute == 5 { 1_000.0 } else { 1.0 };
            db.append("m", &Labels::new(), minute * 60_000, value);
            let summary = rules.evaluate_due(minute * 60_000);
            assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        }
        let anomalies = Analyzer::new(db.clone()).detect_anomalies(0, u64::MAX);
        let pman: Vec<u64> = anomalies.iter().map(|a| a.at_ms).collect();

        // The alert's expression on the same grid: [0, 660 s] every minute.
        let engine = QueryEngine::new(db);
        let firing = engine.range(&expr, 0, 660_000, 60_000).unwrap();
        let alerted: Vec<u64> = firing[0].points.iter().map(|p| p.timestamp_ms).collect();
        assert_eq!(pman, alerted);
        assert_eq!(pman, (5..=10).map(|m| m * 60_000).collect::<Vec<_>>());
        assert!(anomalies.iter().all(|a| a.rule == "spike" && a.severity == Severity::Warning));
    }
}
