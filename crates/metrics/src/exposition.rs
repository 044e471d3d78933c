//! OpenMetrics-style text exposition: the codec of the wire format's edges.
//!
//! [`encode_text`] turns [`FamilySnapshot`]s into the text format the paper's
//! exporters publish (`/metrics`, `/self/metrics`); [`parse_families_bounded`]
//! reads a document into an [`Exposition`] borrowed from it, for remote-write
//! pushes, and [`parse_families`] / [`Exposition::to_snapshots`] turn one back
//! into the same snapshots, for text sources scraped by the aggregation
//! component (PMAG).  In-process scrapes hand snapshots over typed and never
//! pass through here.
//!
//! The format is line oriented:
//!
//! ```text
//! # HELP teemon_syscalls_total System calls observed
//! # TYPE teemon_syscalls_total counter
//! teemon_syscalls_total{syscall="read"} 42 1607731200000
//! ```
//!
//! # The inbound tokenizer
//!
//! Both parse entry points share one pass, `tokenize`, and one fold,
//! `fold_families` (which runs after the pass so that a `# TYPE` line
//! below a family's samples still applies to them).  The pass builds no
//! label set: a sample line becomes a [`SampleLine`] — its series bytes
//! (`name` or `name{…}`, exactly as sent), value, timestamp and line number,
//! all borrowed from the document or plain numbers — in one vector sized
//! once for the document.
//!
//! The common line shape — an ASCII name, tight `name="value"` labels with
//! no escapes, one space, a plain decimal value of at most 15 digits, one
//! space and a digit timestamp — is read by `scan_plain` in one forward pass
//! that turns the value into an exact `f64` with a digit loop.  Every other
//! line (escapes, other blanks, non-ASCII bytes outside a value, exponents,
//! special values, a duplicate or reserved label name, anything malformed)
//! goes to `scan_sample`, which validates as it goes — name alphabets,
//! reserved `__` names, duplicates, quoting, escapes, value and timestamp
//! syntax, trailing garbage, the [`ParseLimits`] — and produces every error
//! message.  Neither path allocates per line.
//!
//! The fold assigns each line its family under the complete `# TYPE` map:
//! a counter, gauge or untyped family keeps its lines where they are, chained
//! in document order, and only a histogram or summary family is folded into
//! an owned [`FamilySnapshot`] (its bucket and quantile lines have to be
//! grouped).  A label set is built only when something asks for one:
//! [`SampleLine::labels`], [`Exposition::to_snapshots`], or the fold of a
//! histogram or summary line.  The fold refuses a declared histogram's
//! `_bucket` line whose `le` is missing, NaN or not a number; `-Inf` is an
//! ordinary bound and only `+Inf` sets the `+Inf` count.  What the pass and
//! the fold accept, what they reject, with which message and which of
//! several defects first, is pinned against the parser they replaced by
//! `tests/parse_differential.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::MetricError;
use crate::label::{is_valid_label_name, is_valid_metric_name, Labels};
use crate::snapshot::{FamilySnapshot, MetricKind, MetricPoint, PointValue};
use crate::value::{HistogramSnapshot, SummarySnapshot};

/// Encodes family snapshots into the text exposition format.
pub fn encode_text(families: &[FamilySnapshot]) -> String {
    let mut out = String::new();
    for family in families {
        if !family.help.is_empty() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            escape_into(&mut out, &family.help, false);
            out.push('\n');
        }
        out.push_str("# TYPE ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(family.kind.as_str());
        out.push('\n');
        family.for_each_sample(|name, labels, value, timestamp_ms| {
            encode_sample(&mut out, name, labels, value, timestamp_ms);
        });
    }
    out
}

fn encode_sample(
    out: &mut String,
    name: &str,
    labels: &Labels,
    value: f64,
    timestamp_ms: Option<u64>,
) {
    use std::fmt::Write as _;
    write_series(out, name, labels);
    out.push(' ');
    write_value(out, value);
    if let Some(ts) = timestamp_ms {
        let _ = write!(out, " {ts}");
    }
    out.push('\n');
}

/// Appends a series' text to `out`: `name`, or `name{k="v",…}` with the
/// labels in their sorted order and the values escaped — what
/// [`encode_text`] writes before a sample's value, and so the bytes a
/// document produced by it carries as that sample's [`SampleLine::series`].
fn write_series(out: &mut String, name: &str, labels: &Labels) {
    out.push_str(name);
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_into(out, v, true);
        out.push('"');
    }
    out.push('}');
}

/// Appends a sample value's text to `out` without a temporary: integral
/// values print without a decimal point, specials print as `NaN`, `+Inf`,
/// `-Inf` (`fmt::Write` into a `String` cannot fail).
pub fn write_value(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    let _ = if v.is_nan() {
        out.write_str("NaN")
    } else if v == f64::INFINITY {
        out.write_str("+Inf")
    } else if v == f64::NEG_INFINITY {
        out.write_str("-Inf")
    } else {
        write!(out, "{v}")
    };
}

/// Appends `s` to `out` with backslashes and newlines escaped, and double
/// quotes too when `quotes` is set: help text escapes the first two, label
/// values all three.
fn escape_into(out: &mut String, s: &str, quotes: bool) {
    let mut rest = s;
    while let Some(at) = rest.find(|c| c == '\\' || c == '\n' || (quotes && c == '"')) {
        let Some((plain, special)) = rest.split_at_checked(at) else { break };
        out.push_str(plain);
        let mut chars = special.chars();
        out.push_str(match chars.next() {
            Some('\n') => "\\n",
            Some('"') => "\\\"",
            _ => "\\\\",
        });
        rest = chars.as_str();
    }
    out.push_str(rest);
}

/// Reverses the help text's escapes; found by the round-trip property tests,
/// which caught the parser storing help text with its escapes still applied.
fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Appends `s` to `out` with its escapes (`\n`, `\"`, `\\`) resolved; found
/// by the same round-trip property tests as [`unescape_help`].
fn unescape_label_value(s: &str, out: &mut String) {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
}

/// The end of a family's chain of lines.
const END: u32 = u32::MAX;

/// One sample line of a parsed document, borrowed from it: the series bytes
/// as sent, the value, the timestamp and where the line was.  Its label set
/// is built only when [`SampleLine::labels`] asks for it.
#[derive(Debug, Clone, Copy)]
pub struct SampleLine<'a> {
    /// `name` or `name{…}`, exactly as sent.
    series: &'a str,
    /// Length of the name at the start of `series`.
    name_len: usize,
    value: f64,
    timestamp_ms: Option<u64>,
    line_no: usize,
    /// Index of the line's family in [`Exposition`]'s family list.
    family: u32,
    /// The next line of the same counter, gauge or untyped family
    /// (`END` for the last).
    next: u32,
}

impl<'a> SampleLine<'a> {
    /// The series as the line spelled it: `name` or `name{…}`, byte for
    /// byte.  Two lines with the same bytes here name the same series.
    pub fn series(&self) -> &'a str {
        self.series
    }

    /// The metric name as written on the line (`lat_bucket` for a bucket of
    /// the histogram `lat`).
    pub fn name(&self) -> &'a str {
        self.series.get(..self.name_len).unwrap_or(self.series)
    }

    /// The sample value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The explicit timestamp, when the line carried one.
    pub fn timestamp_ms(&self) -> Option<u64> {
        self.timestamp_ms
    }

    /// The line's label set, built now: sorted, escapes resolved.
    pub fn labels(&self) -> Labels {
        self.labels_with(&mut Vec::new())
    }

    /// [`SampleLine::labels`] with a span list the caller reuses.
    fn labels_with(&self, spans: &mut Vec<LabelSpan<'a>>) -> Labels {
        spans.clear();
        let block = self
            .series
            .len()
            .checked_sub(1)
            .and_then(|end| self.series.get(self.name_len + 1..end));
        if let Some(block) = block {
            // The block passed this very scan when the line was read.
            let _ = scan_labels(block, self.line_no, spans);
        }
        build_labels(spans)
    }
}

/// Writes spans, in name order, into a label set sized for exactly them.
fn build_labels(spans: &[LabelSpan<'_>]) -> Labels {
    let bytes = spans.iter().map(|s| s.name.len() + s.raw_value.len()).sum();
    let mut labels = Labels::with_exact_capacity(spans.len(), bytes);
    let mut unescaped = String::new();
    for span in spans {
        if span.has_escape {
            unescaped.clear();
            unescape_label_value(span.raw_value, &mut unescaped);
            labels.push_last(span.name, &unescaped);
        } else {
            labels.push_last(span.name, span.raw_value);
        }
    }
    labels
}

/// One family of a parsed document.
struct Family<'a> {
    name: &'a str,
    kind: MetricKind,
    /// The last `# HELP` text for the name, escapes unresolved.
    help: Option<&'a str>,
    body: Body,
}

enum Body {
    /// A counter, gauge or untyped family: its lines, chained in document
    /// order.
    Lines { first: u32, last: u32, len: usize },
    /// A histogram or summary family, folded.
    Folded(FamilySnapshot),
}

/// A parsed exposition document, borrowed from the text it was read from:
/// what [`parse_families_bounded`] returns.  Families come in order of first
/// appearance, each with its kind from the document's complete `# TYPE`
/// map; a counter, gauge or untyped family is its [`SampleLine`]s, a
/// histogram or summary family an owned [`FamilySnapshot`].
/// [`Exposition::to_snapshots`] gives the typed snapshots the document
/// stands for, and `Debug` and `==` compare documents by them.
pub struct Exposition<'a> {
    families: Vec<Family<'a>>,
    lines: Vec<SampleLine<'a>>,
}

impl<'a> Exposition<'a> {
    /// The document's families, in order of first appearance.
    pub fn families(&self) -> impl Iterator<Item = ExpositionFamily<'_, 'a>> {
        self.families.iter().map(|family| ExpositionFamily { lines: &self.lines, family })
    }

    /// How many samples the document's snapshots visit through
    /// [`FamilySnapshot::for_each_sample`] — the series it is in storage:
    /// one per counter, gauge or untyped line, and a folded histogram's or
    /// summary's `FamilySnapshot::sample_count`.
    pub fn sample_count(&self) -> usize {
        let count = |family: &Family<'_>| match &family.body {
            Body::Lines { len, .. } => *len,
            Body::Folded(snapshot) => snapshot.sample_count(),
        };
        self.families.iter().map(count).sum()
    }

    /// The typed family snapshots the document stands for: each line's
    /// label set built and moved into its point, help text unescaped.
    pub fn to_snapshots(&self) -> Vec<FamilySnapshot> {
        let mut spans = Vec::new();
        let mut snapshots = Vec::with_capacity(self.families.len());
        for family in self.families() {
            let (kind, len) = match &family.family.body {
                Body::Folded(folded) => {
                    snapshots.push(folded.clone());
                    continue;
                }
                Body::Lines { len, .. } => (family.kind(), *len),
            };
            let mut snapshot = FamilySnapshot::new(family.name(), family.help(), kind);
            snapshot.points.reserve_exact(len);
            for line in family.lines() {
                let value = match kind {
                    MetricKind::Counter => PointValue::Counter(line.value),
                    MetricKind::Gauge => PointValue::Gauge(line.value),
                    _ => PointValue::Untyped(line.value),
                };
                snapshot.points.push(MetricPoint {
                    labels: line.labels_with(&mut spans),
                    value,
                    timestamp_ms: line.timestamp_ms,
                });
            }
            snapshots.push(snapshot);
        }
        snapshots
    }
}

impl fmt::Debug for Exposition<'_> {
    /// The document's snapshots, as `Vec<FamilySnapshot>` prints them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_snapshots().fmt(f)
    }
}

impl PartialEq for Exposition<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.to_snapshots() == other.to_snapshots()
    }
}

/// One family of an [`Exposition`].
#[derive(Clone, Copy)]
pub struct ExpositionFamily<'d, 'a> {
    lines: &'d [SampleLine<'a>],
    family: &'d Family<'a>,
}

impl<'d, 'a> ExpositionFamily<'d, 'a> {
    /// The family name.
    pub(crate) fn name(&self) -> &'a str {
        self.family.name
    }

    /// The kind the document's `# TYPE` lines declared (untyped without one).
    pub(crate) fn kind(&self) -> MetricKind {
        self.family.kind
    }

    /// The help text, unescaped now (empty without a `# HELP` line).
    pub(crate) fn help(&self) -> String {
        self.family.help.map(unescape_help).unwrap_or_default()
    }

    /// A counter, gauge or untyped family's lines, in document order; none
    /// for a histogram or summary.
    pub fn lines(&self) -> Lines<'d, 'a> {
        let next = match self.family.body {
            Body::Lines { first, .. } => first,
            Body::Folded(_) => END,
        };
        Lines { lines: self.lines, next }
    }

    /// A histogram or summary family, folded into its snapshot.
    pub fn folded(&self) -> Option<&'d FamilySnapshot> {
        match &self.family.body {
            Body::Folded(snapshot) => Some(snapshot),
            Body::Lines { .. } => None,
        }
    }
}

/// The lines of one family: see [`ExpositionFamily::lines`].
pub struct Lines<'d, 'a> {
    lines: &'d [SampleLine<'a>],
    next: u32,
}

impl<'d, 'a> Iterator for Lines<'d, 'a> {
    type Item = &'d SampleLine<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let line = self.lines.get(self.next as usize)?;
        self.next = line.next;
        Some(line)
    }
}

/// A tokenised document: every sample line in document order, and the
/// `# TYPE` / `# HELP` declarations keyed by names borrowed from it.
struct Tokens<'a> {
    lines: Vec<SampleLine<'a>>,
    types: BTreeMap<&'a str, MetricKind>,
    help: BTreeMap<&'a str, &'a str>,
}

/// Folds the tokenised lines into families under the document's complete
/// `# TYPE`/`# HELP` declarations (complete, so that a declaration after a
/// family's first sample still applies to it), in document order: a
/// counter, gauge or untyped line is chained onto its family, a histogram or
/// summary line has its label set built and folded into its point.
///
/// A `_bucket` line of a declared histogram whose `le` is missing, NaN or
/// not a number is refused: it names no bucket, and folding it anywhere
/// would misstate the distribution.
fn fold_families<'a>(tokens: &mut Tokens<'a>) -> Result<Vec<Family<'a>>, MetricError> {
    let Tokens { lines, types, help } = tokens;
    let mut families: Vec<Family<'a>> = Vec::new();
    // Distribution accumulators keyed by (family index, grouping labels).
    let mut accs: Vec<(usize, Labels, DistAcc)> = Vec::new();
    let mut spans = Vec::new();
    // Index of the family the previous line went to: exporters emit a
    // family's samples together, so this is nearly always the answer.
    let mut last = 0;

    for at in 0..lines.len() {
        let Some(&line) = lines.get(at) else { continue };
        let (family_name, part) = split_sample_name(types, line.name());
        let index = match families.get(last) {
            Some(family) if family.name == family_name => last,
            _ => families.iter().position(|f| f.name == family_name).unwrap_or_else(|| {
                let kind = types.get(family_name).copied().unwrap_or(MetricKind::Untyped);
                let help = help.get(family_name).copied();
                let body = match kind {
                    MetricKind::Histogram | MetricKind::Summary => {
                        Body::Folded(FamilySnapshot::new(
                            family_name,
                            help.map(unescape_help).unwrap_or_default(),
                            kind,
                        ))
                    }
                    _ => Body::Lines { first: END, last: END, len: 0 },
                };
                families.push(Family { name: family_name, kind, help, body });
                families.len() - 1
            }),
        };
        last = index;
        if let Some(line) = lines.get_mut(at) {
            line.family = index as u32;
        }
        let Some(family) = families.get_mut(index) else { continue };
        let kind = family.kind;
        let snapshot = match &mut family.body {
            Body::Lines { first, last: tail, len } => {
                match lines.get_mut(*tail as usize) {
                    Some(before) => before.next = at as u32,
                    None => *first = at as u32,
                }
                *tail = at as u32;
                *len += 1;
                continue;
            }
            Body::Folded(snapshot) => snapshot,
        };
        let mut group_labels = line.labels_with(&mut spans);
        let detail = match part {
            SamplePart::Value if kind == MetricKind::Summary => group_labels.remove("quantile"),
            SamplePart::Bucket => group_labels.remove("le"),
            _ => None,
        };
        let found = accs.iter().position(|(i, labels, _)| *i == index && *labels == group_labels);
        let pos = found.unwrap_or_else(|| {
            snapshot.points.push(MetricPoint::new(
                group_labels.clone(),
                PointValue::Untyped(0.0), // patched below
            ));
            let acc = DistAcc { point_slot: snapshot.points.len() - 1, ..DistAcc::default() };
            accs.push((index, group_labels, acc));
            accs.len() - 1
        });
        let Some((_, _, acc)) = accs.get_mut(pos) else { continue };
        acc.timestamp_ms = acc.timestamp_ms.or(line.timestamp_ms);
        match part {
            SamplePart::Bucket => {
                let bound = detail.as_deref().and_then(parse_value).filter(|b| !b.is_nan());
                let Some(bound) = bound else {
                    let message = match detail {
                        Some(le) => format!("bad bucket bound {le:?}"),
                        None => "bucket without an \"le\" label".to_string(),
                    };
                    return Err(MetricError::Parse { line: line.line_no, message });
                };
                if bound == f64::INFINITY {
                    acc.inf_count = line.value as u64;
                } else {
                    acc.buckets.push((bound, line.value as u64));
                }
            }
            SamplePart::Sum => acc.sum = line.value,
            SamplePart::Count => acc.count = line.value as u64,
            SamplePart::Value => {
                if let Some(q) = detail.as_deref().and_then(parse_value) {
                    acc.quantiles.push((q, line.value));
                }
            }
        }
    }

    // Patch the accumulated distribution points in place.
    for (index, _, acc) in accs {
        let Some(Family { kind, body: Body::Folded(snapshot), .. }) = families.get_mut(index)
        else {
            continue;
        };
        let Some(point) = snapshot.points.get_mut(acc.point_slot) else { continue };
        point.timestamp_ms = acc.timestamp_ms;
        point.value = if *kind == MetricKind::Histogram {
            let mut buckets = acc.buckets;
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let bounds: Vec<f64> = buckets.iter().map(|(b, _)| *b).collect();
            let mut cumulative_counts: Vec<u64> = buckets.iter().map(|(_, c)| *c).collect();
            cumulative_counts.push(acc.inf_count);
            PointValue::Histogram(HistogramSnapshot {
                bounds,
                cumulative_counts,
                sum: acc.sum,
                count: acc.count,
            })
        } else {
            PointValue::Summary(SummarySnapshot {
                quantiles: acc.quantiles,
                sum: acc.sum,
                count: acc.count,
            })
        };
    }
    Ok(families)
}

/// Splits a wire sample name into its family name and role, honouring the
/// `# TYPE` declarations (`lat_bucket` only folds into `lat` when `lat`
/// is a declared histogram).
fn split_sample_name<'a>(
    types: &BTreeMap<&str, MetricKind>,
    name: &'a str,
) -> (&'a str, SamplePart) {
    for (suffix, part) in
        [("_bucket", SamplePart::Bucket), ("_sum", SamplePart::Sum), ("_count", SamplePart::Count)]
    {
        if let Some(base) = name.strip_suffix(suffix) {
            match types.get(base) {
                Some(MetricKind::Histogram) => return (base, part),
                Some(MetricKind::Summary) if part != SamplePart::Bucket => return (base, part),
                _ => {}
            }
        }
    }
    (name, SamplePart::Value)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SamplePart {
    Value,
    Bucket,
    Sum,
    Count,
}

/// Accumulates one histogram/summary point while its wire samples stream in.
#[derive(Debug, Default)]
struct DistAcc {
    point_slot: usize,
    buckets: Vec<(f64, u64)>,
    inf_count: u64,
    quantiles: Vec<(f64, f64)>,
    sum: f64,
    count: u64,
    timestamp_ms: Option<u64>,
}

/// Resource limits applied to an inbound exposition document while it is
/// parsed.  Documents arriving over the network (a scraped target, a
/// remote-write push) are attacker-shaped input: without bounds, one
/// hostile peer can make the parser materialise an unbounded number of
/// samples or one pathologically long line.  Exceeding a limit fails the
/// whole parse with [`MetricError::LimitExceeded`] — never a silent
/// truncation, which would mis-report a broken target as healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum length of a single line, in bytes.
    pub max_line_bytes: usize,
    /// Maximum number of samples in the document.
    pub max_samples: usize,
    /// Maximum number of distinct family names (across `# TYPE`, `# HELP`
    /// and sample lines).
    pub max_families: usize,
}

impl ParseLimits {
    /// The defaults applied to documents fetched from the network: 16 KiB
    /// lines, 100 000 samples, 4096 families — far above anything a healthy
    /// exporter emits, far below what exhausts the scraper.
    pub const fn network() -> Self {
        Self { max_line_bytes: 16 * 1024, max_samples: 100_000, max_families: 4096 }
    }

    /// No limits (trusted in-process input).
    pub const fn unbounded() -> Self {
        Self { max_line_bytes: usize::MAX, max_samples: usize::MAX, max_families: usize::MAX }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self::network()
    }
}

/// Parses a text exposition document into typed family snapshots, folding
/// `_bucket`/`_sum`/`_count` samples back into histogram and summary points
/// under the document's `# TYPE` declarations: the inbound half of the text
/// edge.  Families appear in document order; samples without a `# TYPE`
/// declaration become untyped families.
///
/// # Errors
///
/// Returns [`MetricError::Parse`] describing the first malformed line.
pub fn parse_families(input: &str) -> Result<Vec<FamilySnapshot>, MetricError> {
    Ok(parse_families_bounded(input, ParseLimits::unbounded())?.to_snapshots())
}

/// Reads a document with [`ParseLimits`] enforced — the entry point for
/// documents received from the network — into an [`Exposition`] borrowed
/// from it.  Each line is read once and no label set is built for a
/// counter, gauge or untyped line; [`Exposition::to_snapshots`] gives what
/// [`parse_families`] gives.
///
/// # Errors
///
/// Returns [`MetricError::Parse`] for the first malformed line or
/// [`MetricError::LimitExceeded`] when the document overruns a limit.
pub fn parse_families_bounded(
    input: &str,
    limits: ParseLimits,
) -> Result<Exposition<'_>, MetricError> {
    let mut tokens = tokenize(input, limits)?;
    let families = fold_families(&mut tokens)?;
    Ok(Exposition { families, lines: tokens.lines })
}

/// The one pass over the document's lines.
fn tokenize(input: &str, limits: ParseLimits) -> Result<Tokens<'_>, MetricError> {
    // Every sample is a line of its own, so counting the lines that could
    // hold one sizes the line list once.  The sample limit trips before the
    // vector could outgrow it, and a sample line is at least `a 1\n`, so
    // the reservation also stays within a fixed multiple of the body.
    let most = limits.max_samples.min(input.len() / MIN_SAMPLE_LINE_BYTES + 1);
    let mut tokens = Tokens {
        lines: Vec::with_capacity(count_sample_lines(input.as_bytes()).min(most)),
        types: BTreeMap::new(),
        help: BTreeMap::new(),
    };
    let mut family_names: BTreeSet<&str> = BTreeSet::new();
    let mut note_family = |name| -> Result<(), MetricError> {
        if !family_names.contains(name) {
            if family_names.len() >= limits.max_families {
                return Err(MetricError::LimitExceeded {
                    what: "families",
                    limit: limits.max_families,
                    actual: family_names.len() + 1,
                });
            }
            family_names.insert(name);
        }
        Ok(())
    };
    // Name of the previous sample line: a run of one family's samples
    // consults the family set once.
    let mut noted = "";
    let mut spans = Vec::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        if raw_line.len() > limits.max_line_bytes {
            return Err(MetricError::LimitExceeded {
                what: "line bytes",
                limit: limits.max_line_bytes,
                actual: raw_line.len(),
            });
        }
        let line = trim_end(trim_start(raw_line));
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind_token) = rest.split_once(' ').unwrap_or((rest, ""));
                let kind_token = kind_token.trim();
                let kind = MetricKind::from_str_token(kind_token).ok_or(MetricError::Parse {
                    line: line_no,
                    message: format!("unknown metric type {kind_token:?}"),
                })?;
                note_family(name)?;
                tokens.types.insert(name, kind);
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                note_family(name)?;
                tokens.help.insert(name, help);
            }
            // Other comments are ignored.
            continue;
        }
        if tokens.lines.len() >= limits.max_samples {
            return Err(MetricError::LimitExceeded {
                what: "samples",
                limit: limits.max_samples,
                actual: tokens.lines.len() + 1,
            });
        }
        let sample = match scan_plain(line, line_no) {
            Some(sample) => sample,
            None => scan_sample(line, line_no, &mut spans)?,
        };
        let name = sample.name();
        if name != noted {
            note_family(name)?;
            noted = name;
        }
        tokens.lines.push(sample);
    }
    Ok(tokens)
}

/// The shortest sample line, `a 1` and its newline.
const MIN_SAMPLE_LINE_BYTES: usize = 4;

/// Counts the lines of a document that open with neither `#` nor a newline:
/// every sample line is one, comments and blank lines are not.  Tallied per
/// 64-byte chunk in a `u8`, which keeps the comparisons in byte lanes — a
/// pass the compiler vectorises, where a plain `filter().count()`, or `&&`
/// between the three comparisons, walks byte by byte.
fn count_sample_lines(bytes: &[u8]) -> usize {
    let opens_sample =
        |before: u8, first: u8| (before == b'\n') & (first != b'\n') & (first != b'#');
    // Each byte paired with the one before it; the document's first byte
    // follows an imaginary newline.
    let first = bytes.first().is_some_and(|&b| opens_sample(b'\n', b));
    let firsts = bytes.get(1..).unwrap_or_default();
    let befores = bytes.get(..firsts.len()).unwrap_or_default();
    let tally = |befores: &[u8], firsts: &[u8]| {
        befores.iter().zip(firsts).map(|(&b, &f)| u8::from(opens_sample(b, f))).sum::<u8>()
    };
    let (before_chunks, first_chunks) = (befores.chunks_exact(64), firsts.chunks_exact(64));
    let tail = usize::from(tally(before_chunks.remainder(), first_chunks.remainder()));
    let body = before_chunks.zip(first_chunks).map(|(b, f)| usize::from(tally(b, f)));
    usize::from(first) + body.sum::<usize>() + tail
}

/// One `name="value"` of a label block, still borrowed from the document.
struct LabelSpan<'a> {
    name: &'a str,
    /// The text between the quotes, escapes unresolved.
    raw_value: &'a str,
    has_escape: bool,
}

fn is_label_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_metric_name_byte(b: u8) -> bool {
    is_label_name_byte(b) || b == b':'
}

/// The blanks `char::is_whitespace` knows within ASCII (`u8::is_ascii_whitespace`
/// leaves out the vertical tab).
fn is_ascii_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// `str::trim_start`, skipping the scan when the first byte is plain ASCII.
fn trim_start(s: &str) -> &str {
    match s.as_bytes().first() {
        Some(&b) if b.is_ascii() && !is_ascii_blank(b) => s,
        _ => s.trim_start(),
    }
}

/// `str::trim_end`, skipping the scan when the last byte is plain ASCII.
fn trim_end(s: &str) -> &str {
    match s.as_bytes().last() {
        Some(&b) if b.is_ascii() && !is_ascii_blank(b) => s,
        _ => s.trim_end(),
    }
}

/// Splits off the first whitespace-delimited field of `s`, as
/// `str::split_whitespace` would yield it, and returns it with what follows.
fn next_field(s: &str) -> Option<(&str, &str)> {
    let s = trim_start(s);
    if s.is_empty() {
        return None;
    }
    let stop = s.bytes().position(|b| is_ascii_blank(b) || !b.is_ascii());
    let end = match stop {
        Some(at) if s.as_bytes().get(at).is_some_and(u8::is_ascii) => at,
        // A multi-byte character: only `char::is_whitespace` can tell
        // whether it ends the field.
        Some(_) => s.find(char::is_whitespace).unwrap_or(s.len()),
        None => s.len(),
    };
    Some((s.get(..end)?, s.get(end..)?))
}

/// Most labels [`scan_plain`] takes on one line; a longer block goes the
/// long way.
const PLAIN_LABELS: usize = 8;

/// Powers of ten a plain decimal's fraction divides by, each exact.
const POW10: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// Reads a line of the common shape in one forward pass — an ASCII name,
/// at most [`PLAIN_LABELS`] tight `name="value"` labels with distinct,
/// unreserved names and no escapes, one space, a plain decimal value, and
/// optionally one space and a digit timestamp — or returns `None` for
/// [`scan_sample`] to read it.  Whatever this accepts, `scan_sample` accepts
/// with the same series bytes, value and timestamp.
fn scan_plain(line: &str, line_no: usize) -> Option<SampleLine<'_>> {
    let bytes = line.as_bytes();
    if bytes.first()?.is_ascii_digit() {
        return None;
    }
    let mut at = bytes.iter().position(|&b| !is_metric_name_byte(b)).filter(|&at| at > 0)?;
    let name_len = at;
    if bytes.get(at) == Some(&b'{') {
        // The names seen so far on this line, as (start, end) offsets.
        let mut names = [(0usize, 0usize); PLAIN_LABELS];
        let mut count = 0;
        loop {
            let start = at + 1;
            let rest = bytes.get(start..)?;
            let end = start + rest.iter().position(|&b| !is_label_name_byte(b))?;
            let name = bytes.get(start..end)?;
            if name.first()?.is_ascii_digit() || name.starts_with(b"__") {
                return None;
            }
            for &(s, e) in names.get(..count)? {
                if bytes.get(s..e)? == name {
                    return None;
                }
            }
            *names.get_mut(count)? = (start, end);
            count += 1;
            if bytes.get(end..end + 2)? != b"=\"" {
                return None;
            }
            let value_start = end + 2;
            let value_len =
                bytes.get(value_start..)?.iter().position(|&b| b == b'"' || b == b'\\')?;
            at = value_start + value_len;
            if bytes.get(at) != Some(&b'"') {
                return None;
            }
            at += 1;
            match bytes.get(at)? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
        at += 1;
    }
    let series = line.get(..at)?;
    if bytes.get(at) != Some(&b' ') {
        return None;
    }
    let (value, used) = plain_decimal(bytes.get(at + 1..)?)?;
    at += 1 + used;
    let timestamp_ms = match bytes.get(at) {
        None => None,
        Some(b' ') => {
            let digits = line.get(at + 1..)?;
            if !digits.as_bytes().first()?.is_ascii_digit() {
                return None;
            }
            Some(parse_timestamp(digits)?)
        }
        Some(_) => return None,
    };
    Some(SampleLine { series, name_len, value, timestamp_ms, line_no, family: 0, next: END })
}

/// Reads `-?digits(.digits)?` of at most 15 digits off the front of `bytes`,
/// up to a space or the end, into the `f64` `str::parse` gives: the digits
/// form an integer below 2⁵³ and the fraction divides it by an exact power
/// of ten, so the one rounding is the division's, to nearest — the correctly
/// rounded value.  Returns the value and the bytes read.
fn plain_decimal(bytes: &[u8]) -> Option<(f64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let mut at = usize::from(negative);
    let mut mantissa = 0u64;
    let mut digits = 0usize;
    let mut point = None;
    loop {
        match bytes.get(at) {
            Some(&b) if b.is_ascii_digit() => {
                mantissa = mantissa * 10 + u64::from(b - b'0');
                digits += 1;
                if digits > 15 {
                    return None;
                }
            }
            Some(b'.') if point.is_none() && digits > 0 => point = Some(digits),
            None | Some(b' ') => break,
            Some(_) => return None,
        }
        at += 1;
    }
    let fraction = match point {
        Some(before) if before == digits => return None,
        Some(before) => digits - before,
        None if digits == 0 => return None,
        None => 0,
    };
    let value = mantissa as f64 / POW10.get(fraction)?;
    Some((if negative { -value } else { value }, at))
}

/// Tokenises one sample line — `name`, an optional `{…}` label block, the
/// value, an optional timestamp — in one forward scan over its bytes,
/// validating as it goes; the label block is checked through `spans`, a
/// scratch list reused from line to line.  Multi-byte characters only ever
/// matter as whitespace; wherever one could, the scan hands that decision
/// to `str`.
fn scan_sample<'a>(
    line: &'a str,
    line_no: usize,
    spans: &mut Vec<LabelSpan<'a>>,
) -> Result<SampleLine<'a>, MetricError> {
    let err = |message: String| MetricError::Parse { line: line_no, message };
    let bytes = line.as_bytes();
    // Every byte before `name_end` is a name byte, so a name that ends there
    // is valid unless it is empty or opens with a digit.
    let name_end = bytes.iter().position(|&b| !is_metric_name_byte(b)).unwrap_or(bytes.len());
    let scanned_name_is_valid = bytes.first().is_some_and(|b| !b.is_ascii_digit());
    let after_name = bytes.get(name_end).copied();

    // The label block runs from the first '{' to the last '}' of the line.
    let open = match after_name {
        Some(b'{') => Some(name_end),
        Some(_) => line.get(name_end..).and_then(|rest| rest.find('{')).map(|at| name_end + at),
        None => None,
    };
    spans.clear();
    let (name, series, name_is_valid, value_part) = match open {
        Some(open) => {
            let close = match bytes.iter().rposition(|&b| b == b'}') {
                Some(close) if close > open => close,
                Some(_) => return Err(err("'}' before '{'".into())),
                None => return Err(err("missing closing '}'".into())),
            };
            let block = line.get(open + 1..close).unwrap_or_default();
            scan_labels(block, line_no, spans)?;
            let name = line.get(..open).unwrap_or_default();
            let series = line.get(..=close).unwrap_or_default();
            let value_part = line.get(close + 1..).unwrap_or_default();
            (name, series, open == name_end && scanned_name_is_valid, value_part)
        }
        None if after_name.is_none_or(is_ascii_blank) => {
            let (name, rest) = line.split_at_checked(name_end).unwrap_or((line, ""));
            (name, name, scanned_name_is_valid, rest)
        }
        // The name runs into a byte outside its alphabet: invalid, unless
        // that byte opens a multi-byte blank.
        None => {
            let (name, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            (name, name, is_valid_metric_name(name), rest)
        }
    };
    if name.is_empty() {
        return Err(err("empty metric name".into()));
    }
    if !name_is_valid {
        return Err(err(format!("invalid metric name {name:?}")));
    }

    let (value_str, rest) =
        next_field(value_part).ok_or_else(|| err("missing sample value".into()))?;
    let value = parse_value(value_str).ok_or_else(|| err(format!("bad value {value_str:?}")))?;
    let (timestamp_ms, rest) = match next_field(rest) {
        Some((ts, rest)) => {
            (Some(parse_timestamp(ts).ok_or_else(|| err(format!("bad timestamp {ts:?}")))?), rest)
        }
        None => (None, rest),
    };
    if next_field(rest).is_some() {
        return Err(err("trailing garbage after timestamp".into()));
    }
    Ok(SampleLine {
        series,
        name_len: name.len(),
        value,
        timestamp_ms,
        line_no,
        family: 0,
        next: END,
    })
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        other => other.parse().ok(),
    }
}

/// `str::parse::<u64>` as a checked digit loop: an optional `+`, at least
/// one digit, nothing else, no overflow.
fn parse_timestamp(s: &str) -> Option<u64> {
    let digits = s.strip_prefix('+').unwrap_or(s);
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0u64, |value, b| {
        let digit = b.checked_sub(b'0').filter(|digit| *digit <= 9)?;
        value.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Scans the inside of a `{…}` label block into `spans`, sorted by name.
/// Names must be valid, unreserved and distinct: the rest of the system
/// cannot represent anything else (a `__name__` label would render as a
/// second metric name, `a b` would be re-emitted verbatim by federation).
/// Each span is slotted into place as it is found — the lists are tiny and
/// encoders emit them sorted — which is also where a duplicate shows, so a
/// defect in an earlier label is reported before one in a later label.
fn scan_labels<'a>(
    block: &'a str,
    line_no: usize,
    spans: &mut Vec<LabelSpan<'a>>,
) -> Result<(), MetricError> {
    let err = |message: String| MetricError::Parse { line: line_no, message };
    let mut rest = trim_end(trim_start(block));
    while !rest.is_empty() {
        // A name written tight against its '=' is checked as it is scanned;
        // any other spelling goes the long way round.
        let name_end = rest.bytes().position(|b| !is_label_name_byte(b)).unwrap_or(rest.len());
        let tight = rest.as_bytes().get(name_end) == Some(&b'=');
        let eq = if tight { Some(name_end) } else { rest.find('=') };
        let (key, after_eq) = eq
            .and_then(|eq| Some((rest.get(..eq)?, rest.get(eq + 1..)?)))
            .ok_or_else(|| err(format!("missing '=' in labels near {rest:?}")))?;
        let name = trim_end(key);
        let name_is_valid = if tight {
            !name.starts_with("__") && name.bytes().next().is_some_and(|b| !b.is_ascii_digit())
        } else {
            is_valid_label_name(name)
        };
        let Some(quoted) = trim_start(after_eq).strip_prefix('"') else {
            return Err(err(format!("label value for {name:?} not quoted")));
        };
        // Find the closing quote; a backslash takes the next byte with it.
        let mut has_escape = false;
        let mut at = 0;
        let end = loop {
            let special = quoted
                .as_bytes()
                .get(at..)
                .and_then(|tail| tail.iter().position(|&b| b == b'"' || b == b'\\'))
                .ok_or_else(|| err(format!("unterminated label value for {name:?}")))?;
            at += special;
            if quoted.as_bytes().get(at) == Some(&b'"') {
                break at;
            }
            has_escape = true;
            at += 2;
        };
        let (raw_value, after_value) =
            (quoted.get(..end).unwrap_or_default(), quoted.get(end + 1..).unwrap_or_default());
        if !name_is_valid {
            return Err(err(format!("invalid label name {name:?}")));
        }
        let mut slot = spans.len();
        while let Some(before) = slot.checked_sub(1).and_then(|at| spans.get(at)) {
            match before.name.cmp(name) {
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Equal => {
                    return Err(err(format!("duplicate label name {name:?}")))
                }
                std::cmp::Ordering::Greater => slot -= 1,
            }
        }
        spans.insert(slot, LabelSpan { name, raw_value, has_escape });
        rest = trim_start(after_value);
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = trim_start(stripped);
        } else if !rest.is_empty() {
            return Err(err(format!("expected ',' between labels near {rest:?}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{MetricPoint, PointValue};

    fn sample_families() -> Vec<FamilySnapshot> {
        let syscalls = |syscall: &str, value: f64| {
            MetricPoint::new(Labels::from_pairs([("syscall", syscall)]), PointValue::Counter(value))
        };
        let latency = HistogramSnapshot {
            bounds: vec![0.01, 0.1, 1.0],
            cumulative_counts: vec![0, 1, 1, 1],
            sum: 0.05,
            count: 1,
        };
        vec![
            FamilySnapshot::new("scrape_duration_seconds", "Scrape time", MetricKind::Histogram)
                .with_point(MetricPoint::new(Labels::new(), PointValue::Histogram(latency))),
            FamilySnapshot::new("sgx_nr_free_pages", "Free EPC pages", MetricKind::Gauge)
                .with_point(MetricPoint::new(Labels::new(), PointValue::Gauge(23014.0))),
            FamilySnapshot::new(
                "teemon_syscalls_total",
                "System calls observed",
                MetricKind::Counter,
            )
            .with_point(syscalls("clock_gettime", 370_000.0))
            .with_point(syscalls("read", 42.0)),
        ]
    }

    #[test]
    fn encode_contains_metadata_and_samples() {
        let text = encode_text(&sample_families());
        assert!(text.contains("# HELP teemon_syscalls_total System calls observed"));
        assert!(text.contains("# TYPE teemon_syscalls_total counter"));
        assert!(text.contains("teemon_syscalls_total{syscall=\"read\"} 42"));
        assert!(text.contains("sgx_nr_free_pages 23014"));
        assert!(text.contains("scrape_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("scrape_duration_seconds_count 1"));
    }

    #[test]
    fn encode_text_output_is_pinned_byte_for_byte() {
        let histogram = HistogramSnapshot {
            bounds: vec![0.1, 1.0],
            cumulative_counts: vec![2, 5, 7],
            sum: 4.25,
            count: 7,
        };
        let summary =
            SummarySnapshot { quantiles: vec![(0.5, 0.125), (0.99, 3.0)], sum: 9.5, count: 4 };
        let families = [
            FamilySnapshot::new("req_total", "Requests served", MetricKind::Counter).with_point(
                MetricPoint::new(Labels::from_pairs([("code", "200")]), PointValue::Counter(17.0))
                    .at(1_607_731_200_000),
            ),
            FamilySnapshot::new("temp", "Line one\nback\\slash", MetricKind::Gauge).with_point(
                MetricPoint::new(
                    Labels::from_pairs([("path", "C:\\dir\"q\"\nx"), ("zone", "a")]),
                    PointValue::Gauge(-1.5),
                ),
            ),
            FamilySnapshot::new("lat_seconds", "Latency", MetricKind::Histogram).with_point(
                MetricPoint::new(
                    Labels::from_pairs([("op", "get")]),
                    PointValue::Histogram(histogram),
                ),
            ),
            FamilySnapshot::new("rpc_seconds", "", MetricKind::Summary)
                .with_point(MetricPoint::new(Labels::new(), PointValue::Summary(summary))),
        ];
        let expected = "\
# HELP req_total Requests served
# TYPE req_total counter
req_total{code=\"200\"} 17 1607731200000
# HELP temp Line one\\nback\\\\slash
# TYPE temp gauge
temp{path=\"C:\\\\dir\\\"q\\\"\\nx\",zone=\"a\"} -1.5
# HELP lat_seconds Latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le=\"0.1\",op=\"get\"} 2
lat_seconds_bucket{le=\"1\",op=\"get\"} 5
lat_seconds_bucket{le=\"+Inf\",op=\"get\"} 7
lat_seconds_sum{op=\"get\"} 4.25
lat_seconds_count{op=\"get\"} 7
# TYPE rpc_seconds summary
rpc_seconds{quantile=\"0.5\"} 0.125
rpc_seconds{quantile=\"0.99\"} 3
rpc_seconds_sum 9.5
rpc_seconds_count 4
";
        assert_eq!(encode_text(&families), expected);
    }

    #[test]
    fn encode_parse_round_trip_preserves_samples() {
        let families = sample_families();
        let parsed = parse_families(&encode_text(&families)).unwrap();
        assert_eq!(parsed, families);
        let syscalls = parsed.iter().find(|f| f.name == "teemon_syscalls_total").unwrap();
        assert_eq!(
            syscalls.point(&Labels::from_pairs([("syscall", "clock_gettime")])).unwrap().value,
            PointValue::Counter(370_000.0)
        );
        assert_eq!(syscalls.help, "System calls observed");
        assert_eq!(syscalls.total(), 370_042.0);
        let free = parsed.iter().find(|f| f.name == "sgx_nr_free_pages").unwrap();
        assert_eq!(free.kind, MetricKind::Gauge);
    }

    #[test]
    fn parse_handles_timestamps_and_specials() {
        let doc = "\
# TYPE up gauge
up{job=\"sgx_exporter\"} 1 1607731200000
temp NaN
pressure +Inf
vacuum -Inf
";
        let parsed = parse_families(doc).unwrap();
        let point = |i: usize| &parsed[i].points[0];
        assert_eq!(point(0).timestamp_ms, Some(1_607_731_200_000));
        assert_eq!(point(0).value, PointValue::Gauge(1.0));
        assert!(point(1).value.scalar().is_nan());
        assert_eq!(point(2).value, PointValue::Untyped(f64::INFINITY));
        assert_eq!(point(3).value, PointValue::Untyped(f64::NEG_INFINITY));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_families("metric_without_value").is_err());
        assert!(parse_families("name{unclosed=\"x} 1").is_err());
        assert!(parse_families("name{a=\"1\"} not_a_number").is_err());
        assert!(parse_families("name 1 2 3").is_err());
        assert!(parse_families("# TYPE foo wat").is_err());
        assert!(parse_families("name{a=1} 5").is_err());
    }

    #[test]
    fn parse_ignores_blank_lines_and_comments() {
        let parsed = parse_families("\n# just a comment\n\nfoo 1\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].points.len(), 1);
    }

    #[test]
    fn the_token_list_is_sized_from_sample_lines_not_from_newlines() {
        let naive =
            |text: &str| text.split('\n').filter(|l| !l.is_empty() && !l.starts_with('#')).count();
        let long = format!("{}\n#c\n\n{} 1\nb 2", "# HELP a b".repeat(20), "m".repeat(200));
        for text in ["", "\n", "a 1", "a 1\n", "\n\n#x\n\na 1\n# y\nb 2", "#\n#\n#", long.as_str()]
        {
            assert_eq!(count_sample_lines(text.as_bytes()), naive(text), "{text:?}");
        }
        // A body of blank lines and comments reserves nothing.
        let blank = "\n".repeat(100_000) + &"# c\n".repeat(50_000);
        assert_eq!(tokenize(&blank, ParseLimits::network()).unwrap().lines.capacity(), 0);
    }

    #[test]
    fn label_values_with_escapes_round_trip() {
        let mut labels = Labels::new();
        labels.insert("path", "C:\\weird\"dir\nname");
        let fam = FamilySnapshot::new("files_total", "", MetricKind::Counter)
            .with_point(MetricPoint::new(labels.clone(), PointValue::Counter(1.0)));
        let parsed = parse_families(&encode_text(&[fam])).unwrap();
        assert_eq!(parsed[0].points[0].labels, labels);
    }

    #[test]
    fn bounded_parse_rejects_oversized_documents_instead_of_truncating() {
        let limits = ParseLimits { max_line_bytes: 64, max_samples: 4, max_families: 3 };
        // A line over the byte limit.
        let long_line = format!("m{{v=\"{}\"}} 1\n", "x".repeat(128));
        assert_eq!(
            parse_families_bounded(&long_line, limits),
            Err(MetricError::LimitExceeded { what: "line bytes", limit: 64, actual: 137 })
        );
        // One sample over the sample limit: the parse fails, nothing is kept.
        let many = "a 1\na 2\na 3\na 4\na 5\n";
        assert_eq!(
            parse_families_bounded(many, limits),
            Err(MetricError::LimitExceeded { what: "samples", limit: 4, actual: 5 })
        );
        // Distinct family names over the family limit (TYPE lines count too).
        let families = "# TYPE a counter\n# TYPE b counter\n# TYPE c counter\nd 1\n";
        assert_eq!(
            parse_families_bounded(families, limits),
            Err(MetricError::LimitExceeded { what: "families", limit: 3, actual: 4 })
        );
        // Within limits the bounded parse equals the unbounded one.
        let ok = "# TYPE a counter\na 1\na 2\nb 3\n";
        assert_eq!(
            parse_families_bounded(ok, limits).map(|doc| doc.to_snapshots()),
            parse_families(ok)
        );
    }

    #[test]
    fn network_limits_pass_healthy_exporter_documents() {
        let text = encode_text(&sample_families());
        let bounded = parse_families_bounded(&text, ParseLimits::network()).unwrap();
        assert_eq!(bounded.to_snapshots(), parse_families(&text).unwrap());
    }

    #[test]
    fn empty_labels_parse_as_bare_name() {
        let parsed = parse_families("plain_metric 3.25\n").unwrap();
        assert_eq!(parsed[0].name, "plain_metric");
        assert!(parsed[0].points[0].labels.is_empty());
        assert_eq!(parsed[0].points[0].value, PointValue::Untyped(3.25));
    }

    /// Whatever the one-pass scanner accepts, the general scanner accepts
    /// as the same series bytes, value (bit for bit) and timestamp.
    fn assert_scanners_agree(line: &str) -> bool {
        let Some(plain) = scan_plain(line, 7) else { return false };
        let general = scan_sample(line, 7, &mut Vec::new());
        let general =
            general.unwrap_or_else(|e| panic!("{line:?}: fast path took a bad line: {e}"));
        assert_eq!(plain.series, general.series, "{line:?}");
        assert_eq!(plain.name_len, general.name_len, "{line:?}");
        assert_eq!(plain.value.to_bits(), general.value.to_bits(), "{line:?}");
        assert_eq!(plain.timestamp_ms, general.timestamp_ms, "{line:?}");
        true
    }

    #[test]
    fn the_one_pass_scanner_reads_what_the_general_scanner_reads() {
        let taken = [
            "m 1",
            "m 0000000042 1700000000000",
            "push_m0{node=\"node-3\",idx=\"123456\",client=\"0\"} 0000000042 1700000000000",
            "a:b_c{x=\"\"} -0 0",
            "m{a=\"}\",b=\"{\"} 12.5",
            "m{a=\"日本\"} -3.25 18446744073709551615",
            "m 999999999999999",
            "m 0.00000000000001",
        ];
        for line in taken {
            assert!(assert_scanners_agree(line), "{line:?} should take the one-pass scanner");
        }
        // Each goes the long way: the general scanner reads it or reports it.
        let declined = [
            "",
            "{a=\"1\"} 1",
            "9m 1",
            "m",
            "m  1",
            "m\t1",
            "m 1e3",
            "m +1",
            "m .5",
            "m 1.",
            "m NaN",
            "m +Inf",
            "m 1000000000000000",
            "m 1 +5",
            "m 1 18446744073709551616",
            "m 1 2 3",
            "m 1 }",
            "m{a=\"1\"} 1 }",
            "m{} 1",
            "m{a=\"1\",} 1",
            "m{a = \"1\"} 1",
            "m{a=\"\\\"\"} 1",
            "m{a=\"1\",a=\"2\"} 1",
            "m{__name__=\"x\"} 1",
            "m{1a=\"x\"} 1",
            "m{a=\"1\"}1",
            "m{a=\"1\" } 1",
            "m{a=1} 1",
            "m{a=\"1\",b=\"2\",c=\"3\",d=\"4\",e=\"5\",f=\"6\",g=\"7\",h=\"8\",i=\"9\"} 1",
        ];
        for line in declined {
            assert!(!assert_scanners_agree(line), "{line:?} should go the long way");
        }
        // Random lines over the plain shape's alphabet, most of them near it.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let pieces =
            ["m", "{", "}", "a", "b", "_", "=", "\"", ",", " ", "1", "0", ".", "-", "9", "\\", ":"];
        let mut taken = 0;
        for _ in 0..20_000 {
            let mut line = String::from("m{a=\"1\",b=\"2\"} 12.5 17");
            for _ in 0..below(4) {
                let piece = pieces[below(pieces.len() as u64) as usize];
                let at = below(line.len() as u64 + 1) as usize;
                line.insert_str(at, piece);
            }
            if below(3) == 0 {
                let at = below(line.len() as u64) as usize;
                line.remove(at);
            }
            taken += usize::from(assert_scanners_agree(&line));
        }
        assert!(taken > 1_000, "only {taken} generated lines took the one-pass scanner");
    }

    #[test]
    fn a_document_keeps_each_line_as_sent_and_builds_labels_on_request() {
        let doc = "\
# TYPE lat histogram
m{b=\"2\",a=\"1\"} 1 5
lat_bucket{le=\"1\"} 2
lat_bucket{le=\"+Inf\"} 3
lat_count 3
n 4
m{a = \"1\", b=\"x\\\"y\"} 5
# HELP m first\\nline
";
        let parsed = parse_families_bounded(doc, ParseLimits::network()).unwrap();
        let families: Vec<_> = parsed.families().collect();
        assert_eq!(families.iter().map(|f| f.name()).collect::<Vec<_>>(), ["m", "lat", "n"]);
        assert_eq!(families[0].help(), "first\nline");
        let lines: Vec<_> = families[0].lines().collect();
        assert_eq!(lines[0].series(), "m{b=\"2\",a=\"1\"}");
        assert_eq!(lines[1].series(), "m{a = \"1\", b=\"x\\\"y\"}");
        assert_eq!((lines[1].line_no, lines[1].value(), lines[1].timestamp_ms()), (7, 5.0, None));
        assert_eq!(lines[0].labels(), Labels::from_pairs([("a", "1"), ("b", "2")]));
        assert_eq!(lines[1].labels(), Labels::from_pairs([("a", "1"), ("b", "x\"y")]));
        assert_eq!(lines.iter().map(|l| l.family as usize).collect::<Vec<_>>(), [0, 0]);
        assert!(families[1].lines().next().is_none());
        assert_eq!(families[1].folded().unwrap().sample_count(), 4);
        // A histogram point is as many series as it visits, `_sum` included.
        assert_eq!(parsed.sample_count(), 2 + 4 + 1);
        let snapshots = parsed.to_snapshots();
        let visited: usize = snapshots.iter().map(FamilySnapshot::sample_count).sum();
        assert_eq!(parsed.sample_count(), visited);
        assert_eq!(format!("{parsed:?}"), format!("{snapshots:?}"));
    }

    #[test]
    fn a_bucket_counts_under_the_bound_it_names() {
        let parse = |buckets: &str| {
            parse_families(&format!("# TYPE lat histogram\n{buckets}lat_sum 1\nlat_count 6\n"))
        };
        let histogram = |buckets: &str| match parse(buckets).unwrap()[0].points[0].value.clone() {
            PointValue::Histogram(h) => (h.bounds, h.cumulative_counts),
            other => panic!("{other:?}"),
        };
        // A non-finite bound other than `+Inf` no longer lands in `+Inf`.
        assert_eq!(
            histogram(
                "lat_bucket{le=\"0.5\"} 3\nlat_bucket{le=\"+Inf\"} 6\nlat_bucket{le=\"-Inf\"} 0\n"
            ),
            (vec![f64::NEG_INFINITY, 0.5], vec![0, 3, 6])
        );
        let refused = [
            (
                "lat_bucket{le=\"0.5\"} 3\nlat_bucket{le=\"+Inf\"} 6\nlat_bucket{le=\"NaN\"} 99\n",
                4,
                "bad bucket bound \"NaN\"",
            ),
            ("lat_bucket{le=\"+Inf\"} 6\nlat_bucket 5\n", 3, "bucket without an \"le\" label"),
            ("lat_bucket{le=\"abc\"} 4\n", 2, "bad bucket bound \"abc\""),
        ];
        for (buckets, line, message) in refused {
            assert_eq!(
                parse(buckets),
                Err(MetricError::Parse { line, message: message.to_string() }),
                "{buckets:?}"
            );
        }
        // The same lines under no `# TYPE` are plain series, `le` and all.
        assert_eq!(parse_families("lat_bucket{le=\"abc\"} 4\n").unwrap()[0].points.len(), 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_counter_round_trip(value in 0.0f64..1e12, syscall in "[a-z_]{1,12}") {
            let labels = Labels::from_pairs([("syscall", syscall.clone())]);
            let fam = FamilySnapshot::new("prop_total", "prop", MetricKind::Counter)
                .with_point(MetricPoint::new(labels, PointValue::Counter(value)));
            let parsed = parse_families(&encode_text(&[fam])).unwrap();
            let got = parsed[0]
                .point(&Labels::from_pairs([("syscall", syscall)]))
                .unwrap()
                .value
                .scalar();
            let round_trip_error = (got - value).abs();
            proptest::prop_assert!(round_trip_error <= value.abs() * 1e-12 + 1e-12);
        }

        #[test]
        fn prop_label_values_round_trip(value in "[ -~]{0,24}") {
            let mut labels = Labels::new();
            labels.insert("v", value.clone());
            let fam = FamilySnapshot::new("m", "", MetricKind::Gauge)
                .with_point(MetricPoint::new(labels.clone(), PointValue::Gauge(1.0)));
            let parsed = parse_families(&encode_text(&[fam])).unwrap();
            proptest::prop_assert_eq!(parsed[0].points[0].labels.get("v"), Some(value.as_str()));
        }
    }
}
