//! Recording and alert rules evaluated on a cadence over the database.
//!
//! A recording rule evaluates a TeeQL expression and writes the result back
//! into the database as a new series (queryable like any scraped metric),
//! and an alert rule fires when an expression returns a non-empty vector
//! continuously for its `for` duration.  PMAN's thresholds are one such
//! group, `teemon_pman` (`teemon_analysis::pman_alerts`), and its anomalies
//! are the `ALERTS{alertstate="firing"}` samples the engine appends.

use std::collections::{HashMap, HashSet};

use parking_lot::{LockClass, Mutex};
use serde::{Deserialize, Serialize};
use teemon_metrics::Labels;
use teemon_obs::probes;
use teemon_tsdb::TimeSeriesDb;

use crate::ast::{format_duration_ms, Expr};
use crate::eval::{QueryEngine, Value};
use crate::parser::parse;

/// A rule deriving a new series from an expression (`record = expr`).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingRule {
    /// Name of the derived series (by convention `level:metric:operation`,
    /// e.g. `node:syscalls:rate5m`).
    pub record: String,
    /// The evaluated expression.
    pub expr: Expr,
    /// Extra labels attached to every derived sample.
    pub labels: Labels,
}

impl RecordingRule {
    /// Creates a recording rule.
    pub fn new(record: impl Into<String>, expr: Expr) -> Self {
        Self { record: record.into(), expr, labels: Labels::new() }
    }

    /// Attaches an extra label to every derived sample.
    #[must_use]
    pub fn with_label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(name, value);
        self
    }
}

/// How urgent a raised alert (or a PMAN anomaly) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational — worth plotting, not worth waking anyone.
    Info,
    /// Warning — a dashboard highlight.
    Warning,
    /// Critical — alert/logging channels fire.
    Critical,
}

impl Severity {
    /// The `severity` label value of the `ALERTS` series (`"info"`,
    /// `"warning"`, `"critical"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// A rule raising an alert while an expression keeps returning samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Alert name (appears in [`Alert::rule`] and the `ALERTS` series).
    pub name: String,
    /// The alert condition; every sample the expression returns is an active
    /// alert instance, keyed by its label set.
    pub expr: Expr,
    /// How long the condition must hold before the alert transitions from
    /// [`AlertState::Pending`] to [`AlertState::Firing`].
    pub for_ms: u64,
    /// Severity attached to raised alerts.
    pub severity: Severity,
    /// Human-oriented root-cause hint copied into raised alerts.
    pub hint: String,
}

impl AlertRule {
    /// Creates an alert rule that fires immediately (no `for` hold).
    pub fn new(name: impl Into<String>, expr: Expr, severity: Severity) -> Self {
        Self { name: name.into(), expr, for_ms: 0, severity, hint: String::new() }
    }

    /// Requires the condition to hold this long before firing.
    #[must_use]
    pub fn with_for_ms(mut self, for_ms: u64) -> Self {
        self.for_ms = for_ms;
        self
    }

    /// Sets the root-cause hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = hint.into();
        self
    }
}

/// The built-in alert rules over the engine's own telemetry (the
/// `job="teemon_self"` slice a self-scraping monitor maintains), evaluated
/// by the standard rule engine like any user group:
///
/// * `teemon_shard_imbalance` — the hottest storage shard holds more than
///   4× the mean series count, so one shard lock absorbs a disproportionate
///   share of the ingest contention.
/// * `teemon_slow_queries` — queries crossed the slow-query threshold; the
///   offenders are in `teemon_obs::slow_queries()`.
/// * `teemon_wal_salvage` — crash recovery truncated a corrupt WAL tail;
///   the acked data survived but the disk or filesystem is damaging writes.
/// * `teemon_wal_unclean` — a scrape round's WAL flush hit a write or fsync
///   error: the round was served from memory but its durability is gone,
///   and the failed log is sticky until restart.
/// * `teemon_http_shed` — the serving edge is refusing connections at the
///   in-flight gate (503s): sustained overload, raise capacity or slow the
///   writers.
/// * `teemon_http_panics` — a request handler panicked; the shield caught
///   it (the server keeps serving) but the bug is real.
/// * `teemon_http_slow_clients` — clients are being cut off by the
///   slow-loris read deadlines (408s): a stuck writer or an attack.
///
/// `interval_ms` is the evaluation cadence; the rate windows span two
/// cadences so a single scrape round cannot alias to zero.
pub fn self_observe_alerts(interval_ms: u64) -> RuleGroup {
    let interval_ms = interval_ms.max(1);
    let window = format_duration_ms(interval_ms.saturating_mul(2).max(1_000));
    #[expect(
        clippy::expect_used,
        reason = "the expressions are built from compile-time templates; a unit test reparses every one of them"
    )]
    let rule = |name: &str, query: String, severity, hint: &str| {
        AlertRule::new(name, parse(&query).expect("built-in rule parses"), severity).with_hint(hint)
    };
    RuleGroup::new("teemon_self", interval_ms)
        .with_rule(rule(
            "teemon_shard_imbalance",
            "max(teemon_tsdb_shard_series) > avg(teemon_tsdb_shard_series) * 4".to_string(),
            Severity::Warning,
            "one storage shard holds >4x the mean series count; label cardinality is \
             hashing unevenly",
        ))
        .with_rule(rule(
            "teemon_slow_queries",
            format!("rate(teemon_query_slow_total[{window}]) > 0"),
            Severity::Info,
            "queries crossed the slow-query threshold; see teemon_obs::slow_queries() \
             for the offenders",
        ))
        .with_rule(rule(
            "teemon_wal_salvage",
            "teemon_wal_salvage_total > 0".to_string(),
            Severity::Warning,
            "crash recovery truncated a corrupt WAL tail; acked data survived, but \
             the disk or filesystem is damaging writes",
        ))
        .with_rule(rule(
            "teemon_wal_unclean",
            "teemon_wal_unclean_rounds_total > 0".to_string(),
            Severity::Critical,
            "a scrape round's WAL flush hit a write/fsync error; the round is served \
             from memory but its durability is lost and the failed log is sticky \
             (see teemon_wal_failed_shards) — restart onto healthy storage",
        ))
        .with_rule(rule(
            "teemon_http_shed",
            format!("rate(teemon_http_shed_total[{window}]) > 0"),
            Severity::Warning,
            "the serving edge is shedding load at the in-flight gate (503); \
             sustained overload — raise worker capacity or slow the writers",
        ))
        .with_rule(rule(
            "teemon_http_panics",
            format!("rate(teemon_http_panics_total[{window}]) > 0"),
            Severity::Critical,
            "a request handler panicked; the panic shield kept the server up \
             but the handler bug is real — check the offending endpoint",
        ))
        .with_rule(rule(
            "teemon_http_slow_clients",
            format!("rate(teemon_http_slow_clients_total[{window}]) > 0"),
            Severity::Info,
            "clients are tripping the slow-loris read deadlines (408); a stuck \
             writer, a saturated network path, or a deliberate attack",
        ))
}

/// The built-in `teemon_cardinality` alert pack: the cardinality defense
/// watching itself.  Budget rejections at either ingest edge and sustained
/// interned-symbol memory growth (the signature of label churn outrunning
/// symbol GC) all fire here, over the same self-scraped series every other
/// self alert uses.
#[must_use]
pub fn cardinality_alerts(interval_ms: u64) -> RuleGroup {
    let interval_ms = interval_ms.max(1);
    let window = format_duration_ms(interval_ms.saturating_mul(2).max(1_000));
    // Memory-growth trends need more than two rounds of history to mean
    // anything; give them a longer window.
    let growth = format_duration_ms(interval_ms.saturating_mul(8).max(10_000));
    #[expect(
        clippy::expect_used,
        reason = "the expressions are built from compile-time templates; a unit test reparses every one of them"
    )]
    let rule = |name: &str, query: String, severity, hint: &str| {
        AlertRule::new(name, parse(&query).expect("built-in rule parses"), severity).with_hint(hint)
    };
    RuleGroup::new("teemon_cardinality", interval_ms)
        .with_rule(rule(
            "teemon_budget_rejections",
            format!("rate(teemon_scrape_budget_rejected_total[{window}]) > 0"),
            Severity::Warning,
            "scrape/push cardinality budgets are clipping series; a target is \
             emitting more distinct label sets than its budget admits — fix the \
             exporter's labels or raise the budget \
             (teemon_overflow_series_total{{job=...}} names the offender)",
        ))
        .with_rule(rule(
            "teemon_http_cardinality_rejections",
            format!("rate(teemon_http_cardinality_rejected_total[{window}]) > 0"),
            Severity::Warning,
            "the remote-write edge is refusing over-budget requests with 429 \
             too_many_series; a writer is pushing more distinct series per \
             request than the configured write_series_budget",
        ))
        .with_rule(rule(
            "teemon_overflow_series",
            format!("increase(teemon_overflow_series_total[{window}]) > 0"),
            Severity::Info,
            "budget-clipped samples accumulated this window; the job label of \
             the series names which target is over budget",
        ))
        .with_rule(rule(
            "teemon_symbol_memory_growth",
            format!(
                "max(max_over_time(teemon_tsdb_symbol_bytes[{growth}])) > \
                 max(min_over_time(teemon_tsdb_symbol_bytes[{growth}])) * 1.5"
            ),
            Severity::Warning,
            "interned-symbol memory grew >50% within the window; label churn is \
             outrunning symbol GC — check teemon_tsdb_symbols_swept_total is \
             advancing (GC runs at the symbol table's WAL checkpoint) and that retention \
             is actually dropping the churned series",
        ))
}

/// A recording or alert rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Derives a new series.
    Recording(RecordingRule),
    /// Raises alerts.
    Alert(AlertRule),
}

impl From<RecordingRule> for Rule {
    fn from(rule: RecordingRule) -> Self {
        Rule::Recording(rule)
    }
}

impl From<AlertRule> for Rule {
    fn from(rule: AlertRule) -> Self {
        Rule::Alert(rule)
    }
}

/// A named set of rules evaluated together on one cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleGroup {
    /// Group name (for diagnostics).
    pub name: String,
    /// Evaluation cadence in milliseconds.
    pub interval_ms: u64,
    /// The rules, evaluated in order (recording rules therefore feed later
    /// rules of the same group on the *next* evaluation at the earliest).
    pub rules: Vec<Rule>,
}

impl RuleGroup {
    /// Creates an empty group evaluating every `interval_ms`.
    pub fn new(name: impl Into<String>, interval_ms: u64) -> Self {
        Self { name: name.into(), interval_ms: interval_ms.max(1), rules: Vec::new() }
    }

    /// Adds a rule.
    #[must_use]
    pub fn with_rule(mut self, rule: impl Into<Rule>) -> Self {
        self.rules.push(rule.into());
        self
    }
}

/// Lifecycle state of an alert instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The condition holds but has not yet held for the rule's `for`
    /// duration.
    Pending,
    /// The condition has held long enough; the alert is active.
    Firing,
}

impl AlertState {
    /// The `alertstate` label value of the `ALERTS` series.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One active alert instance (one label set of one alert rule).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that raised the alert.
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// Label set identifying the instance.
    pub labels: Labels,
    /// The condition expression's most recent value for this instance.
    pub value: f64,
    /// When the condition first started holding (ms).
    pub since_ms: u64,
    /// Pending or firing.
    pub state: AlertState,
    /// The rule's root-cause hint.
    pub hint: String,
}

/// Summary of one [`RuleEngine::evaluate_due`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleEvalSummary {
    /// Groups whose cadence was due and which were therefore evaluated.
    pub groups_evaluated: usize,
    /// Samples written back by recording rules.
    pub samples_recorded: usize,
    /// Alerts currently firing (after this pass).
    pub alerts_firing: usize,
    /// Human-readable evaluation errors (`group/rule: error`), if any.
    pub errors: Vec<String>,
}

struct GroupState {
    group: RuleGroup,
    last_eval_ms: Option<u64>,
    /// Active alert instances keyed by (rule index in group, label set).
    active: HashMap<(usize, Labels), Alert>,
}

/// Evaluates rule groups against a database on their cadences.
///
/// The engine shares the database with the monitoring stack: recording rules
/// append derived series, and every evaluation of an active alert instance
/// appends `ALERTS{<instance labels>, alertname, alertstate, severity} = 1`,
/// as Prometheus does — `alertstate="pending"` while the `for` hold runs,
/// `"firing"` after it — so dashboards can plot alerts and PMAN reads its
/// anomalies back from the store.
pub struct RuleEngine {
    engine: QueryEngine,
    db: TimeSeriesDb,
    inner: Mutex<Vec<GroupState>>,
}

impl RuleEngine {
    /// Creates an engine over `db` with no groups.
    pub fn new(db: TimeSeriesDb) -> Self {
        Self {
            engine: QueryEngine::new(db.clone()),
            db,
            inner: Mutex::named(Vec::new(), LockClass::new("query.rules")),
        }
    }

    /// Adds a rule group.
    pub fn add_group(&self, group: RuleGroup) {
        self.inner.lock().push(GroupState { group, last_eval_ms: None, active: HashMap::new() });
    }

    /// Number of configured groups.
    pub fn group_count(&self) -> usize {
        self.inner.lock().len()
    }

    /// Total number of configured rules across all groups.
    pub fn rule_count(&self) -> usize {
        self.inner.lock().iter().map(|g| g.group.rules.len()).sum()
    }

    /// Evaluates every group whose cadence has elapsed at `now_ms`.
    pub fn evaluate_due(&self, now_ms: u64) -> RuleEvalSummary {
        let mut summary = RuleEvalSummary::default();
        let mut inner = self.inner.lock();
        for state in inner.iter_mut() {
            let due = state
                .last_eval_ms
                .map(|last| now_ms.saturating_sub(last) >= state.group.interval_ms)
                .unwrap_or(true);
            if !due {
                continue;
            }
            state.last_eval_ms = Some(now_ms);
            summary.groups_evaluated += 1;
            self.evaluate_group(state, now_ms, &mut summary);
        }
        summary.alerts_firing = inner
            .iter()
            .flat_map(|g| g.active.values())
            .filter(|a| a.state == AlertState::Firing)
            .count();
        summary
    }

    fn evaluate_group(&self, state: &mut GroupState, now_ms: u64, summary: &mut RuleEvalSummary) {
        let GroupState { group, active, .. } = state;
        for (index, rule) in group.rules.iter().enumerate() {
            match rule {
                Rule::Recording(recording) => match self.engine.instant(&recording.expr, now_ms) {
                    Ok(value) => {
                        summary.samples_recorded += self.record(recording, value, now_ms);
                    }
                    Err(err) => {
                        probes::RULE_EVALUATION_FAILURES.inc();
                        summary.errors.push(format!("{}/{}: {err}", group.name, recording.record))
                    }
                },
                Rule::Alert(alert) => match self.engine.instant(&alert.expr, now_ms) {
                    Ok(value) => self.transition_alerts(active, index, alert, &value, now_ms),
                    Err(err) => {
                        probes::RULE_EVALUATION_FAILURES.inc();
                        summary.errors.push(format!("{}/{}: {err}", group.name, alert.name))
                    }
                },
            }
        }
    }

    fn record(&self, rule: &RecordingRule, value: Value, now_ms: u64) -> usize {
        let samples = match value {
            Value::Scalar(v) => {
                vec![(rule.labels.clone(), v)]
            }
            Value::Vector(samples) => {
                samples.into_iter().map(|s| (s.labels.merged(&rule.labels), s.value)).collect()
            }
            Value::Matrix(_) => return 0,
        };
        let mut recorded = 0;
        for (labels, v) in samples {
            if self.db.append(&rule.record, &labels, now_ms, v) {
                recorded += 1;
            }
        }
        recorded
    }

    fn transition_alerts(
        &self,
        active: &mut HashMap<(usize, Labels), Alert>,
        rule_index: usize,
        rule: &AlertRule,
        value: &Value,
        now_ms: u64,
    ) {
        let samples: Vec<(Labels, f64)> = match value {
            Value::Scalar(v) if *v != 0.0 => vec![(Labels::new(), *v)],
            Value::Scalar(_) => Vec::new(),
            Value::Vector(samples) => samples.iter().map(|s| (s.labels.clone(), s.value)).collect(),
            Value::Matrix(_) => Vec::new(),
        };
        // Instances no longer returned by the expression resolve.
        let present: HashSet<&Labels> = samples.iter().map(|(l, _)| l).collect();
        active.retain(|(index, labels), _| *index != rule_index || present.contains(labels));
        for (labels, sample_value) in samples {
            let key = (rule_index, labels.clone());
            let since_ms = active.get(&key).map(|a| a.since_ms).unwrap_or(now_ms);
            let alert_state = if now_ms.saturating_sub(since_ms) >= rule.for_ms {
                AlertState::Firing
            } else {
                AlertState::Pending
            };
            let export = labels
                .with("alertname", rule.name.clone())
                .with("alertstate", alert_state.label())
                .with("severity", rule.severity.label());
            self.db.append("ALERTS", &export, now_ms, 1.0);
            active.insert(
                key,
                Alert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    labels,
                    value: sample_value,
                    since_ms,
                    state: alert_state,
                    hint: rule.hint.clone(),
                },
            );
        }
    }

    /// Every pending or firing alert instance, most severe first.
    pub fn active_alerts(&self) -> Vec<Alert> {
        let mut alerts: Vec<Alert> =
            self.inner.lock().iter().flat_map(|g| g.active.values().cloned()).collect();
        alerts.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.rule.cmp(&b.rule)));
        alerts
    }

    /// Only the firing alert instances, most severe first.
    pub fn firing_alerts(&self) -> Vec<Alert> {
        self.active_alerts().into_iter().filter(|a| a.state == AlertState::Firing).collect()
    }
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine")
            .field("groups", &self.group_count())
            .field("rules", &self.rule_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use teemon_tsdb::Selector;

    fn counter_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::new();
        for t in 0..25u64 {
            for (node, scale) in [("n1", 1.0), ("n2", 5.0)] {
                db.append(
                    "requests_total",
                    &Labels::from_pairs([("node", node)]),
                    t * 5_000,
                    t as f64 * 50.0 * scale,
                );
            }
        }
        db
    }

    #[test]
    fn recording_rules_write_derived_series() {
        let db = counter_db();
        let engine = RuleEngine::new(db.clone());
        engine.add_group(
            RuleGroup::new("derived", 5_000).with_rule(
                RecordingRule::new(
                    "node:requests:rate30s",
                    parse("sum by (node) (rate(requests_total[30s]))").unwrap(),
                )
                .with_label("source", "teeql"),
            ),
        );
        let summary = engine.evaluate_due(120_000);
        assert_eq!(summary.groups_evaluated, 1);
        assert_eq!(summary.samples_recorded, 2);
        assert!(summary.errors.is_empty());
        let results = db.select(&Selector::metric("node:requests:rate30s"));
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.label_value("source") == Some("teeql")));
        // The derived series is itself queryable through TeeQL.
        let q = QueryEngine::new(db);
        let value = q.instant_query(r#"node:requests:rate30s{node="n2"}"#, 120_000).unwrap();
        assert_eq!(value.as_vector().unwrap().len(), 1);
        assert!((value.as_vector().unwrap()[0].value - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cadence_gates_evaluation() {
        let engine = RuleEngine::new(counter_db());
        engine.add_group(
            RuleGroup::new("g", 60_000)
                .with_rule(RecordingRule::new("x:y:z", parse("sum(requests_total)").unwrap())),
        );
        assert_eq!(engine.evaluate_due(0).groups_evaluated, 1);
        assert_eq!(engine.evaluate_due(30_000).groups_evaluated, 0, "not due yet");
        assert_eq!(engine.evaluate_due(60_000).groups_evaluated, 1);
    }

    #[test]
    fn alerts_hold_for_duration_then_fire_and_resolve() {
        let db = TimeSeriesDb::new();
        let engine = RuleEngine::new(db.clone());
        engine.add_group(
            RuleGroup::new("alerts", 5_000).with_rule(
                AlertRule::new(
                    "free_pages_low",
                    parse("free_pages < 1000").unwrap(),
                    Severity::Critical,
                )
                .with_for_ms(10_000)
                .with_hint("EPC nearly exhausted"),
            ),
        );
        let labels = Labels::from_pairs([("node", "n1")]);
        // Healthy: no alert.
        db.append("free_pages", &labels, 0, 20_000.0);
        engine.evaluate_due(0);
        assert!(engine.active_alerts().is_empty());
        // Condition starts holding: pending.
        db.append("free_pages", &labels, 5_000, 100.0);
        engine.evaluate_due(5_000);
        let active = engine.active_alerts();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].state, AlertState::Pending);
        assert_eq!(active[0].since_ms, 5_000);
        assert!(engine.firing_alerts().is_empty());
        // Still holding at +5 s: still pending (for = 10 s).
        db.append("free_pages", &labels, 10_000, 90.0);
        engine.evaluate_due(10_000);
        assert_eq!(engine.active_alerts()[0].state, AlertState::Pending);
        // Held for 10 s: firing, and exported as the ALERTS series.
        db.append("free_pages", &labels, 15_000, 80.0);
        let summary = engine.evaluate_due(15_000);
        assert_eq!(summary.alerts_firing, 1);
        let firing = engine.firing_alerts();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].rule, "free_pages_low");
        assert_eq!(firing[0].value, 80.0);
        assert_eq!(firing[0].hint, "EPC nearly exhausted");
        let exported = db.select(
            &Selector::metric("ALERTS")
                .with_label("alertname", "free_pages_low")
                .with_label("alertstate", "firing"),
        );
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].label_value("severity"), Some("critical"));
        // Condition clears: the alert resolves.
        db.append("free_pages", &labels, 20_000, 20_000.0);
        engine.evaluate_due(20_000);
        assert!(engine.active_alerts().is_empty());
    }

    #[test]
    fn an_alert_under_for_exports_pending_then_firing() {
        let db = TimeSeriesDb::new();
        let engine = RuleEngine::new(db.clone());
        engine.add_group(
            RuleGroup::new("alerts", 5_000).with_rule(
                AlertRule::new("low", parse("free_pages < 1000").unwrap(), Severity::Warning)
                    .with_for_ms(10_000),
            ),
        );
        let labels = Labels::from_pairs([("node", "n1")]);
        for t in (0..=25_000).step_by(5_000) {
            db.append("free_pages", &labels, t, 100.0);
            engine.evaluate_due(t);
        }
        let state_at = |state: &str| {
            let series = db.select(&Selector::metric("ALERTS").with_label("alertstate", state));
            assert_eq!(series.len(), 1, "one {state} instance");
            let instance = series[0].to_labels();
            assert_eq!(instance.get("node"), Some("n1"));
            assert_eq!(instance.get("alertname"), Some("low"));
            assert_eq!(instance.get("severity"), Some("warning"));
            series[0].points_in(0, u64::MAX).iter().map(|s| s.timestamp_ms).collect::<Vec<_>>()
        };
        // Pending while the 10 s hold runs, firing from then on: each
        // evaluation is one sample of exactly one of the two series.
        assert_eq!(state_at("pending"), [0, 5_000]);
        assert_eq!(state_at("firing"), [10_000, 15_000, 20_000, 25_000]);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn self_observe_alerts_parse_and_fire_on_self_metrics() {
        let group = self_observe_alerts(15_000);
        assert_eq!(group.name, "teemon_self");
        assert_eq!(group.rules.len(), 7);
        // Every built-in expression round-trips through the parser (the
        // group builder unwraps on this invariant).
        for rule in &group.rules {
            let Rule::Alert(alert) = rule else { panic!("self group is alerts only") };
            assert_eq!(parse(&alert.expr.to_string()).unwrap(), alert.expr);
        }
        // Feed a database the shapes the self-scrape target would write and
        // check the rules actually trip.
        let db = TimeSeriesDb::new();
        for t in 0..10u64 {
            // Shard 0 hoards series while the others sit near empty (8
            // shards: with n shards max/avg can approach n, so 4 shards
            // could never trip the 4x rule).
            for shard in 0..8u64 {
                let series = if shard == 0 { 900.0 } else { 10.0 };
                let labels = Labels::from_pairs([("shard", shard.to_string())]);
                db.append("teemon_tsdb_shard_series", &labels, t * 5_000, series);
            }
            // A recovery salvaged a corrupt tail => the durability alert.
            db.append("teemon_wal_salvage_total", &Labels::new(), t * 5_000, 1.0);
            // Every flush stayed clean => the unclean-round alert is quiet.
            db.append("teemon_wal_unclean_rounds_total", &Labels::new(), t * 5_000, 0.0);
            // The serving edge shed load under overload => the shed alert.
            db.append("teemon_http_shed_total", &Labels::new(), t * 5_000, (t * 2) as f64);
            // No handler panics => the panic alert stays quiet.
            db.append("teemon_http_panics_total", &Labels::new(), t * 5_000, 0.0);
        }
        let engine = RuleEngine::new(db);
        engine.add_group(group);
        let summary = engine.evaluate_due(45_000);
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        let firing: Vec<String> = engine.firing_alerts().into_iter().map(|a| a.rule).collect();
        assert!(firing.contains(&"teemon_shard_imbalance".to_string()), "{firing:?}");
        assert!(firing.contains(&"teemon_wal_salvage".to_string()), "{firing:?}");
        // No slow queries recorded => that rule stays quiet.
        assert!(!firing.contains(&"teemon_slow_queries".to_string()), "{firing:?}");
        // Clean flushes => no durability-loss alert.
        assert!(!firing.contains(&"teemon_wal_unclean".to_string()), "{firing:?}");
        // The serving edge shed load => the HTTP shed alert fires.
        assert!(firing.contains(&"teemon_http_shed".to_string()), "{firing:?}");
        // No panics, no slow clients recorded => those stay quiet.
        assert!(!firing.contains(&"teemon_http_panics".to_string()), "{firing:?}");
        assert!(!firing.contains(&"teemon_http_slow_clients".to_string()), "{firing:?}");
    }

    #[test]
    fn cardinality_alerts_parse_and_fire_on_budget_and_symbol_signals() {
        let group = cardinality_alerts(15_000);
        assert_eq!(group.name, "teemon_cardinality");
        assert_eq!(group.rules.len(), 4);
        for rule in &group.rules {
            let Rule::Alert(alert) = rule else { panic!("cardinality group is alerts only") };
            assert_eq!(parse(&alert.expr.to_string()).unwrap(), alert.expr);
        }
        let db = TimeSeriesDb::new();
        for t in 0..20u64 {
            // Budgets started clipping half-way through => rejection spike.
            let rejected = if t >= 10 { (t - 10) as f64 * 5.0 } else { 0.0 };
            db.append("teemon_scrape_budget_rejected_total", &Labels::new(), t * 15_000, rejected);
            // The HTTP edge saw no over-budget requests => that rule is quiet.
            db.append("teemon_http_cardinality_rejected_total", &Labels::new(), t * 15_000, 0.0);
            // The per-job roll-up mirrors the clip.
            let job = Labels::from_pairs([("job", "churny")]);
            db.append("teemon_overflow_series_total", &job, t * 15_000, rejected);
            // Symbol memory compounding leak-style => the growth alert (the
            // 8-interval window must see >50% growth within itself).
            db.append(
                "teemon_tsdb_symbol_bytes",
                &Labels::new(),
                t * 15_000,
                100_000.0 * (1.0 + t as f64),
            );
        }
        let engine = RuleEngine::new(db);
        engine.add_group(group);
        let summary = engine.evaluate_due(19 * 15_000);
        assert!(summary.errors.is_empty(), "{:?}", summary.errors);
        let firing: Vec<String> = engine.firing_alerts().into_iter().map(|a| a.rule).collect();
        assert!(firing.contains(&"teemon_budget_rejections".to_string()), "{firing:?}");
        assert!(firing.contains(&"teemon_overflow_series".to_string()), "{firing:?}");
        assert!(firing.contains(&"teemon_symbol_memory_growth".to_string()), "{firing:?}");
        assert!(
            !firing.contains(&"teemon_http_cardinality_rejections".to_string()),
            "no 429s were recorded: {firing:?}"
        );
    }

    #[test]
    fn rule_errors_are_reported_not_fatal() {
        let engine = RuleEngine::new(TimeSeriesDb::new());
        engine.add_group(
            RuleGroup::new("broken", 1_000)
                .with_rule(RecordingRule::new("bad", parse("rate(up)").unwrap()))
                .with_rule(AlertRule::new("ok", parse("up == 1").unwrap(), Severity::Info)),
        );
        let summary = engine.evaluate_due(0);
        assert_eq!(summary.errors.len(), 1);
        assert!(summary.errors[0].contains("broken/bad"), "{:?}", summary.errors);
    }

    #[test]
    fn a_refused_rule_is_counted() {
        // A name-less right-hand selector that matches two metrics with one
        // label set: the planner refuses the match as many-to-one, so the
        // alert can never fire, and the failure counter says so.
        let db = TimeSeriesDb::new();
        let labels = Labels::from_pairs([("node", "n1")]);
        db.append("metric_a", &labels, 0, 7.0);
        db.append("metric_b", &labels, 0, 100.0);
        let engine = RuleEngine::new(db);
        engine.add_group(RuleGroup::new("refused", 1_000).with_rule(AlertRule::new(
            "never",
            parse(r#"metric_a + {node="n1"} > 0"#).unwrap(),
            Severity::Warning,
        )));
        // The counter is process-wide and other tests may bump it too.
        let before = probes::RULE_EVALUATION_FAILURES.get();
        let summary = engine.evaluate_due(0);
        assert!(summary.errors[0].contains("many-to-one"), "{:?}", summary.errors);
        assert!(probes::RULE_EVALUATION_FAILURES.get() > before);
        assert!(engine.active_alerts().is_empty());
    }
}
