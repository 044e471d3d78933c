//! OpenMetrics-style text exposition: the codec of the wire format's edges.
//!
//! [`encode_text`] turns [`FamilySnapshot`]s into the text format the paper's
//! exporters publish (`/metrics`, `/self/metrics`); [`parse_families`] and
//! [`parse_families_bounded`] turn a document back into the same snapshots,
//! for remote-write pushes and text sources scraped by the aggregation
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
//! below a family's samples still applies to them).  A sample line is read
//! by `scan_sample` in one forward scan over its bytes: the name, the
//! label block as `(name, value, escaped?)` spans of the document held in a
//! scratch vector reused from line to line, the value, the optional
//! timestamp — validating as it goes (name alphabets, reserved `__` names,
//! duplicates, quoting, escapes, value and timestamp syntax, trailing
//! garbage, the [`ParseLimits`]).  The spans are kept sorted by name as they
//! are found, and only a line that passed every check allocates: its pairs
//! are written once, in order, into a [`Labels`] sized for exactly them — one
//! heap block per sample, none for a line without labels.  What the scan
//! accepts, what it rejects, with which message and which of several defects
//! first, is pinned against the parser it replaced by
//! `tests/parse_differential.rs`.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::MetricError;
use crate::label::{LabelName, Labels, MetricName};
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
            out.push_str(&escape_help(&family.help));
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
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    write_value(out, value);
    if let Some(ts) = timestamp_ms {
        out.push(' ');
        out.push_str(&ts.to_string());
    }
    out.push('\n');
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

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Reverses [`escape_help`]; found by the round-trip property tests, which
/// caught the parser storing help text with its escapes still applied.
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

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
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

/// One tokenised sample line: the name still borrowed from the document, the
/// label set already in the owned form its [`MetricPoint`] will hold.
struct RawSample<'a> {
    name: &'a str,
    labels: Labels,
    value: f64,
    timestamp_ms: Option<u64>,
}

/// A tokenised document, keyed by names borrowed from it: what
/// [`parse_families_bounded`] folds into typed families.
struct Tokens<'a> {
    samples: Vec<RawSample<'a>>,
    types: BTreeMap<&'a str, MetricKind>,
    help: BTreeMap<&'a str, String>,
}

/// Folds wire samples into typed families under the document's complete
/// `# TYPE`/`# HELP` declarations (complete, so that a declaration after a
/// family's first sample still applies to it).  Each sample's label set is
/// moved into its point.
fn fold_families(
    types: &BTreeMap<&str, MetricKind>,
    help: &BTreeMap<&str, String>,
    samples: Vec<RawSample<'_>>,
) -> Vec<FamilySnapshot> {
    let mut families: Vec<FamilySnapshot> = Vec::new();
    // Distribution accumulators keyed by (family index, grouping labels).
    let mut accs: Vec<(usize, Labels, DistAcc)> = Vec::new();
    // Index of the family the previous sample went to: exporters emit a
    // family's samples together, so this is nearly always the answer.
    let mut last = 0;

    let mut samples = samples.into_iter();
    while let Some(sample) = samples.next() {
        let (family_name, part) = split_sample_name(types, sample.name);
        let index = match families.get(last) {
            Some(family) if family.name == family_name => last,
            _ => families.iter().position(|f| f.name == family_name).unwrap_or_else(|| {
                let kind = types.get(family_name).copied().unwrap_or(MetricKind::Untyped);
                let help = help.get(family_name).cloned().unwrap_or_default();
                let mut family = FamilySnapshot::new(family_name, help, kind);
                if !matches!(kind, MetricKind::Histogram | MetricKind::Summary) {
                    // One point per sample, and the run of samples that
                    // starts here sizes the point list once.
                    let run = samples.as_slice().iter().take_while(|s| s.name == sample.name);
                    family.points.reserve(1 + run.count());
                }
                families.push(family);
                families.len() - 1
            }),
        };
        last = index;
        let Some(family) = families.get_mut(index) else { continue };
        let kind = family.kind;
        match kind {
            MetricKind::Counter | MetricKind::Gauge | MetricKind::Untyped => {
                let value = match kind {
                    MetricKind::Counter => PointValue::Counter(sample.value),
                    MetricKind::Gauge => PointValue::Gauge(sample.value),
                    _ => PointValue::Untyped(sample.value),
                };
                family.points.push(MetricPoint {
                    labels: sample.labels,
                    value,
                    timestamp_ms: sample.timestamp_ms,
                });
            }
            MetricKind::Histogram | MetricKind::Summary => {
                let mut group_labels = sample.labels;
                let detail = match part {
                    SamplePart::Value if kind == MetricKind::Summary => {
                        group_labels.remove("quantile")
                    }
                    SamplePart::Bucket => group_labels.remove("le"),
                    _ => None,
                };
                let found =
                    accs.iter().position(|(i, labels, _)| *i == index && *labels == group_labels);
                let pos = found.unwrap_or_else(|| {
                    family.points.push(MetricPoint::new(
                        group_labels.clone(),
                        PointValue::Untyped(0.0), // patched below
                    ));
                    let acc = DistAcc { point_slot: family.points.len() - 1, ..DistAcc::default() };
                    accs.push((index, group_labels, acc));
                    accs.len() - 1
                });
                let Some((_, _, acc)) = accs.get_mut(pos) else { continue };
                acc.timestamp_ms = acc.timestamp_ms.or(sample.timestamp_ms);
                match part {
                    SamplePart::Bucket => {
                        if let Some(bound) = detail.as_deref().and_then(parse_value) {
                            if bound.is_finite() {
                                acc.buckets.push((bound, sample.value as u64));
                            } else {
                                acc.inf_count = sample.value as u64;
                            }
                        }
                    }
                    SamplePart::Sum => acc.sum = sample.value,
                    SamplePart::Count => acc.count = sample.value as u64,
                    SamplePart::Value => {
                        if let Some(q) = detail.as_deref().and_then(parse_value) {
                            acc.quantiles.push((q, sample.value));
                        }
                    }
                }
            }
        }
    }

    // Patch the accumulated distribution points in place.
    for (index, _, acc) in accs {
        let Some(family) = families.get_mut(index) else { continue };
        let kind = family.kind;
        let Some(point) = family.points.get_mut(acc.point_slot) else { continue };
        point.timestamp_ms = acc.timestamp_ms;
        point.value = if kind == MetricKind::Histogram {
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
    families
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
    parse_families_bounded(input, ParseLimits::unbounded())
}

/// [`parse_families`] with [`ParseLimits`] enforced — the entry point for
/// documents received from the network.  Each line is tokenised once and
/// its label set moved into the point that keeps it.
///
/// # Errors
///
/// Returns [`MetricError::Parse`] for the first malformed line or
/// [`MetricError::LimitExceeded`] when the document overruns a limit.
pub fn parse_families_bounded(
    input: &str,
    limits: ParseLimits,
) -> Result<Vec<FamilySnapshot>, MetricError> {
    let tokens = tokenize(input, limits)?;
    Ok(fold_families(&tokens.types, &tokens.help, tokens.samples))
}

/// The one pass over the document's lines.
fn tokenize(input: &str, limits: ParseLimits) -> Result<Tokens<'_>, MetricError> {
    // Every sample is a line of its own, so counting the lines that could
    // hold one sizes the token list once.  The sample limit trips before the
    // vector could outgrow it, and a sample line is at least `a 1\n`, so
    // the reservation also stays within a fixed multiple of the body.
    let most = limits.max_samples.min(input.len() / MIN_SAMPLE_LINE_BYTES + 1);
    let mut tokens = Tokens {
        samples: Vec::with_capacity(count_sample_lines(input.as_bytes()).min(most)),
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
    let mut scratch = LineScratch::default();
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
                tokens.help.insert(name, unescape_help(help));
            }
            // Other comments are ignored.
            continue;
        }
        if tokens.samples.len() >= limits.max_samples {
            return Err(MetricError::LimitExceeded {
                what: "samples",
                limit: limits.max_samples,
                actual: tokens.samples.len() + 1,
            });
        }
        let sample = scan_sample(line, line_no, &mut scratch)?;
        if sample.name != noted {
            note_family(sample.name)?;
            noted = sample.name;
        }
        tokens.samples.push(sample);
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

/// What [`scan_sample`] reuses from line to line, so that a line's only
/// allocation is the one block of the [`Labels`] it yields.
#[derive(Default)]
struct LineScratch<'a> {
    /// The label block of the current line as spans of the document, kept
    /// sorted by name as they are found.
    spans: Vec<LabelSpan<'a>>,
    /// The current escaped value with its escapes resolved.
    unescaped: String,
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

/// Tokenises one sample line — `name`, an optional `{…}` label block, the
/// value, an optional timestamp — in one forward scan over its bytes,
/// validating as it goes.  Multi-byte characters only ever matter as
/// whitespace; wherever one could, the scan hands that decision to `str`.
fn scan_sample<'a>(
    line: &'a str,
    line_no: usize,
    scratch: &mut LineScratch<'a>,
) -> Result<RawSample<'a>, MetricError> {
    let err = |message: String| MetricError::Parse { line: line_no, message };
    let bytes = line.as_bytes();
    let is_name_byte = |b: u8| is_label_name_byte(b) || b == b':';
    // Every byte before `name_end` is a name byte, so a name that ends there
    // is valid unless it is empty or opens with a digit.
    let name_end = bytes.iter().position(|&b| !is_name_byte(b)).unwrap_or(bytes.len());
    let scanned_name_is_valid = bytes.first().is_some_and(|b| !b.is_ascii_digit());
    let after_name = bytes.get(name_end).copied();

    // The label block runs from the first '{' to the last '}' of the line.
    let open = match after_name {
        Some(b'{') => Some(name_end),
        Some(_) => line.get(name_end..).and_then(|rest| rest.find('{')).map(|at| name_end + at),
        None => None,
    };
    scratch.spans.clear();
    let (name, name_is_valid, value_part) = match open {
        Some(open) => {
            let close = match bytes.iter().rposition(|&b| b == b'}') {
                Some(close) if close > open => close,
                Some(_) => return Err(err("'}' before '{'".into())),
                None => return Err(err("missing closing '}'".into())),
            };
            let block = line.get(open + 1..close).unwrap_or_default();
            scan_labels(block, line_no, &mut scratch.spans)?;
            let name = line.get(..open).unwrap_or_default();
            let value_part = line.get(close + 1..).unwrap_or_default();
            (name, open == name_end && scanned_name_is_valid, value_part)
        }
        None if after_name.is_none_or(is_ascii_blank) => {
            let (name, rest) = line.split_at_checked(name_end).unwrap_or((line, ""));
            (name, scanned_name_is_valid, rest)
        }
        // The name runs into a byte outside its alphabet: invalid, unless
        // that byte opens a multi-byte blank.
        None => {
            let (name, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            (name, MetricName::is_valid(name), rest)
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

    // Everything checked out: write each piece once, in name order, into a
    // label set sized for exactly these pieces.
    let spans = &scratch.spans;
    let bytes = spans.iter().map(|s| s.name.len() + s.raw_value.len()).sum();
    let mut labels = Labels::with_exact_capacity(spans.len(), bytes);
    for span in spans {
        if span.has_escape {
            scratch.unescaped.clear();
            unescape_label_value(span.raw_value, &mut scratch.unescaped);
            labels.push_last(span.name, &scratch.unescaped);
        } else {
            labels.push_last(span.name, span.raw_value);
        }
    }
    Ok(RawSample { name, labels, value, timestamp_ms })
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
            LabelName::is_valid(name)
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
        assert_eq!(tokenize(&blank, ParseLimits::network()).unwrap().samples.capacity(), 0);
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
        assert_eq!(parse_families_bounded(ok, limits), Ok(parse_families(ok).unwrap()));
    }

    #[test]
    fn network_limits_pass_healthy_exporter_documents() {
        let text = encode_text(&sample_families());
        let bounded = parse_families_bounded(&text, ParseLimits::network()).unwrap();
        assert_eq!(bounded, parse_families(&text).unwrap());
    }

    #[test]
    fn empty_labels_parse_as_bare_name() {
        let parsed = parse_families("plain_metric 3.25\n").unwrap();
        assert_eq!(parsed[0].name, "plain_metric");
        assert!(parsed[0].points[0].labels.is_empty());
        assert_eq!(parsed[0].points[0].value, PointValue::Untyped(3.25));
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
