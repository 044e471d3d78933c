//! Differential test of the one-pass text edge: for generated documents and
//! for a byte-mangled corpus, `parse_families_bounded` must return exactly
//! what the pre-change two-phase parser returned — same families, same
//! points in the same order, and on a bad document the same
//! `Err` (text, line number and which of several defects is reported first).
//!
//! The generator covers what the fold has to get right: scalar, histogram
//! and summary families, families whose samples interleave, `# TYPE` lines
//! after (or without) their samples, escaped label values and help text, and
//! the whitespace variants the tokenizer tolerates.  It also covers what a
//! forward byte scanner can get wrong: labels in any order and more of them
//! than the inline offset table holds, structural characters inside values,
//! multi-byte blanks, braces after the label block, every spelling of the
//! special values and timestamps at the edge of `u64`.  The mangler applies the
//! four operations of `crates/server/tests/resilience.rs` (truncate, flip
//! bits, insert bytes, swap bytes) to whole documents, which is how invalid
//! names, torn quotes and stray braces get in.

use teemon_metrics::exposition::{parse_families_bounded, ParseLimits};

/// The parser as it stood before the one-pass rewrite, kept verbatim as the
/// reference: phase one materialises every line as an owned [`Sample`] plus
/// `String`-keyed `# TYPE`/`# HELP` maps, phase two folds clones of those
/// samples into families.  The only edits are the three marked "bugfix hook"
/// checks — the name validation that landed with the rewrite, placed where
/// the rewritten tokenizer performs them, and the histogram bucket bound
/// check, placed where the fold performs it — so error order can be
/// compared.
mod oracle {
    use std::collections::BTreeMap;

    use teemon_metrics::exposition::ParseLimits;
    use teemon_metrics::{
        is_valid_label_name, is_valid_metric_name, FamilySnapshot, HistogramSnapshot, Labels,
        MetricError, MetricKind, MetricPoint, PointValue, SummarySnapshot,
    };

    /// A single flattened sample as it appears on the exposition wire.
    #[derive(Debug)]
    pub struct Sample {
        pub name: String,
        pub labels: Labels,
        pub value: f64,
        pub timestamp_ms: Option<u64>,
        /// Bugfix hook: the line the sample came from, for the bucket check.
        pub line_no: usize,
    }

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

    fn unescape_label_value(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
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
        out
    }

    #[derive(Debug, Default)]
    pub struct ParsedExposition {
        /// All samples in document order.
        pub samples: Vec<Sample>,
        /// `# TYPE` declarations by family name.
        pub types: BTreeMap<String, MetricKind>,
        /// `# HELP` declarations by family name.
        pub help: BTreeMap<String, String>,
    }

    impl ParsedExposition {
        pub fn to_families(&self) -> Result<Vec<FamilySnapshot>, MetricError> {
            let mut families: Vec<FamilySnapshot> = Vec::new();
            // Distribution accumulators keyed by (family index, grouping labels).
            let mut accs: Vec<(usize, Labels, DistAcc)> = Vec::new();

            let family_index = |families: &mut Vec<FamilySnapshot>, name: &str| -> usize {
                if let Some(i) = families.iter().position(|f| f.name == name) {
                    return i;
                }
                let kind = self.types.get(name).copied().unwrap_or(MetricKind::Untyped);
                let help = self.help.get(name).cloned().unwrap_or_default();
                families.push(FamilySnapshot::new(name, help, kind));
                families.len() - 1
            };

            for sample in &self.samples {
                let (family_name, part) = self.split_sample_name(&sample.name);
                let index = family_index(&mut families, family_name);
                let kind = families[index].kind;
                match kind {
                    MetricKind::Counter | MetricKind::Gauge | MetricKind::Untyped => {
                        let value = match kind {
                            MetricKind::Counter => PointValue::Counter(sample.value),
                            MetricKind::Gauge => PointValue::Gauge(sample.value),
                            _ => PointValue::Untyped(sample.value),
                        };
                        let mut point = MetricPoint::new(sample.labels.clone(), value);
                        point.timestamp_ms = sample.timestamp_ms;
                        families[index].points.push(point);
                    }
                    MetricKind::Histogram | MetricKind::Summary => {
                        let mut group_labels = sample.labels.clone();
                        let detail = match part {
                            SamplePart::Value if kind == MetricKind::Summary => {
                                group_labels.remove("quantile")
                            }
                            SamplePart::Bucket => group_labels.remove("le"),
                            _ => None,
                        };
                        let found = accs
                            .iter()
                            .position(|(i, labels, _)| *i == index && *labels == group_labels);
                        let pos = match found {
                            Some(pos) => pos,
                            None => {
                                families[index].points.push(MetricPoint::new(
                                    group_labels.clone(),
                                    PointValue::Untyped(0.0), // patched below
                                ));
                                let acc = DistAcc {
                                    point_slot: families[index].points.len() - 1,
                                    ..DistAcc::default()
                                };
                                accs.push((index, group_labels, acc));
                                accs.len() - 1
                            }
                        };
                        let acc = &mut accs[pos].2;
                        acc.timestamp_ms = acc.timestamp_ms.or(sample.timestamp_ms);
                        match part {
                            SamplePart::Bucket => {
                                // Bugfix hook: only `+Inf` is the `+Inf`
                                // count, `-Inf` is an ordinary bound, and a
                                // NaN, missing or unparseable `le` is refused.
                                let bound = detail
                                    .as_deref()
                                    .and_then(parse_bound)
                                    .filter(|bound| !bound.is_nan());
                                let Some(bound) = bound else {
                                    let message = match &detail {
                                        Some(le) => format!("bad bucket bound {le:?}"),
                                        None => "bucket without an \"le\" label".to_string(),
                                    };
                                    return Err(MetricError::Parse {
                                        line: sample.line_no,
                                        message,
                                    });
                                };
                                if bound == f64::INFINITY {
                                    acc.inf_count = sample.value as u64;
                                } else {
                                    acc.buckets.push((bound, sample.value as u64));
                                }
                            }
                            SamplePart::Sum => acc.sum = sample.value,
                            SamplePart::Count => acc.count = sample.value as u64,
                            SamplePart::Value => {
                                if let Some(q) = detail.as_deref().and_then(parse_bound) {
                                    acc.quantiles.push((q, sample.value));
                                }
                            }
                        }
                    }
                }
            }

            // Patch the accumulated distribution points in place.
            for (index, _, acc) in accs {
                let kind = families[index].kind;
                let point = &mut families[index].points[acc.point_slot];
                point.timestamp_ms = acc.timestamp_ms;
                point.value = if kind == MetricKind::Histogram {
                    let mut buckets = acc.buckets;
                    buckets
                        .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
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
        fn split_sample_name<'a>(&self, name: &'a str) -> (&'a str, SamplePart) {
            for (suffix, part) in [
                ("_bucket", SamplePart::Bucket),
                ("_sum", SamplePart::Sum),
                ("_count", SamplePart::Count),
            ] {
                if let Some(base) = name.strip_suffix(suffix) {
                    match self.types.get(base) {
                        Some(MetricKind::Histogram) => return (base, part),
                        Some(MetricKind::Summary) if part != SamplePart::Bucket => {
                            return (base, part)
                        }
                        _ => {}
                    }
                }
            }
            (name, SamplePart::Value)
        }
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

    fn parse_bound(s: &str) -> Option<f64> {
        parse_value(s)
    }

    pub fn parse_families_bounded(
        input: &str,
        limits: ParseLimits,
    ) -> Result<Vec<FamilySnapshot>, MetricError> {
        parse_exposition(input, limits)?.to_families()
    }

    pub fn parse_exposition(
        input: &str,
        limits: ParseLimits,
    ) -> Result<ParsedExposition, MetricError> {
        let mut parsed = ParsedExposition::default();
        let mut family_names: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        let note_family = |family_names: &mut std::collections::BTreeSet<String>,
                           name: &str|
         -> Result<(), MetricError> {
            if !family_names.contains(name) {
                if family_names.len() >= limits.max_families {
                    return Err(MetricError::LimitExceeded {
                        what: "families",
                        limit: limits.max_families,
                        actual: family_names.len() + 1,
                    });
                }
                family_names.insert(name.to_string());
            }
            Ok(())
        };
        for (idx, raw_line) in input.lines().enumerate() {
            let line_no = idx + 1;
            if raw_line.len() > limits.max_line_bytes {
                return Err(MetricError::LimitExceeded {
                    what: "line bytes",
                    limit: limits.max_line_bytes,
                    actual: raw_line.len(),
                });
            }
            let line = raw_line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or_default().to_string();
                let kind_token = parts.next().unwrap_or_default().trim();
                let kind = MetricKind::from_str_token(kind_token).ok_or(MetricError::Parse {
                    line: line_no,
                    message: format!("unknown metric type {kind_token:?}"),
                })?;
                note_family(&mut family_names, &name)?;
                parsed.types.insert(name, kind);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or_default().to_string();
                let help = unescape_help(parts.next().unwrap_or_default());
                note_family(&mut family_names, &name)?;
                parsed.help.insert(name, help);
                continue;
            }
            if line.starts_with('#') {
                // Other comments are ignored.
                continue;
            }
            if parsed.samples.len() >= limits.max_samples {
                return Err(MetricError::LimitExceeded {
                    what: "samples",
                    limit: limits.max_samples,
                    actual: parsed.samples.len() + 1,
                });
            }
            let sample = parse_sample_line(line, line_no)?;
            note_family(&mut family_names, &sample.name)?;
            parsed.samples.push(sample);
        }
        Ok(parsed)
    }

    fn parse_sample_line(line: &str, line_no: usize) -> Result<Sample, MetricError> {
        let err = |message: String| MetricError::Parse { line: line_no, message };

        let (name_and_labels, value_part) = match line.find('{') {
            Some(open) => {
                let close = line.rfind('}').ok_or_else(|| err("missing closing '}'".into()))?;
                if close < open {
                    return Err(err("'}' before '{'".into()));
                }
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let mut split = line.splitn(2, char::is_whitespace);
                let name = split.next().unwrap_or_default();
                let rest = split.next().unwrap_or_default().trim();
                (&line[..name.len()], rest)
            }
        };

        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                let name = &name_and_labels[..open];
                let labels_str = &name_and_labels[open + 1..name_and_labels.len() - 1];
                (name, parse_labels(labels_str, line_no)?)
            }
            None => (name_and_labels, Labels::new()),
        };

        if name.is_empty() {
            return Err(err("empty metric name".into()));
        }
        // Bugfix hook: names the rest of the system cannot represent.
        if !is_valid_metric_name(name) {
            return Err(err(format!("invalid metric name {name:?}")));
        }

        let mut value_fields = value_part.split_whitespace();
        let value_str = value_fields.next().ok_or_else(|| err("missing sample value".into()))?;
        let value =
            parse_value(value_str).ok_or_else(|| err(format!("bad value {value_str:?}")))?;
        let timestamp_ms = match value_fields.next() {
            Some(ts) => Some(ts.parse::<u64>().map_err(|_| err(format!("bad timestamp {ts:?}")))?),
            None => None,
        };
        if value_fields.next().is_some() {
            return Err(err("trailing garbage after timestamp".into()));
        }

        Ok(Sample { name: name.to_string(), labels, value, timestamp_ms, line_no })
    }

    fn parse_value(s: &str) -> Option<f64> {
        match s {
            "NaN" => Some(f64::NAN),
            "+Inf" | "Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            other => other.parse().ok(),
        }
    }

    fn parse_labels(s: &str, line_no: usize) -> Result<Labels, MetricError> {
        let err = |message: String| MetricError::Parse { line: line_no, message };
        let mut labels = Labels::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            let eq = rest
                .find('=')
                .ok_or_else(|| err(format!("missing '=' in labels near {rest:?}")))?;
            let key = rest[..eq].trim();
            let after_eq = rest[eq + 1..].trim_start();
            if !after_eq.starts_with('"') {
                return Err(err(format!("label value for {key:?} not quoted")));
            }
            // Find the closing quote, skipping escaped quotes.
            let bytes = after_eq.as_bytes();
            let mut i = 1;
            let mut escaped = false;
            let mut end = None;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
                i += 1;
            }
            let end = end.ok_or_else(|| err(format!("unterminated label value for {key:?}")))?;
            let raw_value = &after_eq[1..end];
            // Bugfix hook: invalid, reserved and duplicate label names.
            if !is_valid_label_name(key) {
                return Err(err(format!("invalid label name {key:?}")));
            }
            if labels.get(key).is_some() {
                return Err(err(format!("duplicate label name {key:?}")));
            }
            labels.insert(key, unescape_label_value(raw_value));
            rest = after_eq[end + 1..].trim_start();
            if let Some(stripped) = rest.strip_prefix(',') {
                rest = stripped.trim_start();
            } else if !rest.is_empty() {
                return Err(err(format!("expected ',' between labels near {rest:?}")));
            }
        }
        Ok(labels)
    }
}

/// xorshift64, as in the resilience suite's mangler.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Compares through `Debug`: results hold `f64`s and `NaN != NaN` would fail
/// a structural comparison of two identical parses.
fn assert_same(doc: &str, limits: ParseLimits) {
    let expected = oracle::parse_families_bounded(doc, limits);
    let actual = parse_families_bounded(doc, limits);
    match (&expected, &actual) {
        (Ok(expected), Ok(actual)) => assert_eq!(
            format!("{actual:?}"),
            format!("{expected:?}"),
            "parse_families over {doc:?}"
        ),
        (Err(expected), Err(actual)) => {
            assert_eq!(actual, expected, "parse_families over {doc:?}")
        }
        _ => panic!("parse_families over {doc:?}: expected {expected:?}, got {actual:?}"),
    }
}

const LABEL_VALUES: &[&str] = &[
    "",
    "read",
    "node-1:9100",
    "a\\\\b",
    "say \\\"hi\\\"",
    "two\\nlines",
    "odd\\q",
    "{x=},y",
    "日本",
    "}",
    "{",
    ",",
    "=",
    "k=\\\"v\\\",",
    "ends\\\\",
    "\\\"}",
    " padded ",
    "\u{a0}",
];
const VALUES: &[&str] = &[
    "0", "1", "42.5", "-3", "1e9", "NaN", "+Inf", "-Inf", "Inf", "inf", "-inf", "+inf", "nan",
    "Infinity", "INF", "1e400", ".5", "5.", "+5",
];
/// What may stand between a name (or a closing brace) and the value: the
/// last four are blanks only `char::is_whitespace` knows.
const BLANKS: &[&str] =
    &[" ", " ", " ", "  ", "\t", " \t ", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}"];
/// Timestamps at the edge of what `u64` parsing accepts (the ones past it
/// are among the defects).
const TIMESTAMPS: &[&str] = &["18446744073709551615", "00000000000000000000017", "+17", "0"];

/// One sample line for `name` with the given labels, in a randomly chosen
/// spelling of the separators the tokenizer accepts.
fn sample_line(rng: &mut Rng, name: &str, labels: &[(String, String)]) -> String {
    let mut line = String::new();
    if rng.chance(8) {
        line.push_str(rng.pick(BLANKS));
    }
    line.push_str(name);
    let braces = !labels.is_empty() || rng.chance(6);
    if braces {
        line.push('{');
        if rng.chance(5) {
            line.push(' ');
        }
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                line.push_str(rng.pick(&[",", ", ", " ,", " , "]));
            }
            line.push_str(k);
            line.push_str(rng.pick(&["=", "=", " =", "= ", " = "]));
            line.push('"');
            line.push_str(v);
            line.push('"');
        }
        if !labels.is_empty() && rng.chance(5) {
            line.push_str(rng.pick(&[",", " , "]));
        }
        line.push('}');
    }
    if !(braces && rng.chance(10)) {
        // (The value may sit tight against a closing brace.)
        line.push_str(rng.pick(BLANKS));
    }
    line.push_str(rng.pick(VALUES));
    if rng.chance(3) {
        line.push_str(rng.pick(BLANKS));
        if rng.chance(6) {
            line.push_str(rng.pick(TIMESTAMPS));
        } else {
            line.push_str(&(1_700_000_000_000u64 + rng.below(100_000) as u64).to_string());
        }
    }
    if rng.chance(8) {
        line.push_str(rng.pick(BLANKS));
    }
    line
}

fn base_labels(rng: &mut Rng) -> Vec<(String, String)> {
    // Sorted more often than not, as encoders emit them; otherwise in any
    // order.  Mostly a handful, sometimes more than the six whose offsets a
    // label set keeps inline.
    let mut names = vec!["app", "env", "idx", "job", "node", "pod", "rack", "tier", "zone"];
    let keep = if rng.chance(4) { rng.below(names.len() + 1) } else { rng.below(5) };
    while names.len() > keep {
        names.remove(rng.below(names.len()));
    }
    if rng.chance(3) {
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i + 1));
        }
    }
    names.iter().map(|n| (n.to_string(), rng.pick(LABEL_VALUES).to_string())).collect()
}

/// The lines of one generated family, declarations kept apart from samples
/// so the caller can place the `# TYPE` line early, late or nowhere.
struct Family {
    declarations: Vec<String>,
    samples: Vec<String>,
}

fn family(rng: &mut Rng, index: usize) -> Family {
    let kind = rng.pick(&["counter", "gauge", "untyped", "histogram", "summary"]);
    // Suffixes that collide with the histogram/summary sample roles are the
    // interesting family names.
    let name =
        format!("m{index}{}", rng.pick(&["", "_total", "_sum", "_count", "_bucket", ":rate"]));
    let mut declarations = vec![format!("# TYPE {name} {kind}")];
    if rng.chance(2) {
        declarations.push(format!(
            "# HELP {name} {}",
            rng.pick(&["plain", "a\\\\b", "two\\nlines", "", "odd\\q "])
        ));
    }
    let mut samples = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let labels = base_labels(rng);
        match kind {
            "histogram" => {
                for bound in ["0.5", "2", "+Inf"] {
                    let mut with_le = labels.clone();
                    with_le.push(("le".to_string(), bound.to_string()));
                    samples.push(sample_line(rng, &format!("{name}_bucket"), &with_le));
                }
                samples.push(sample_line(rng, &format!("{name}_sum"), &labels));
                samples.push(sample_line(rng, &format!("{name}_count"), &labels));
            }
            "summary" => {
                for q in ["0.5", "0.99"] {
                    let mut with_q = labels.clone();
                    with_q.push(("quantile".to_string(), q.to_string()));
                    samples.push(sample_line(rng, &name, &with_q));
                }
                samples.push(sample_line(rng, &format!("{name}_sum"), &labels));
                samples.push(sample_line(rng, &format!("{name}_count"), &labels));
            }
            _ => samples.push(sample_line(rng, &name, &labels)),
        }
    }
    Family { declarations, samples }
}

fn document(rng: &mut Rng) -> String {
    let families: Vec<Family> = (0..1 + rng.below(5)).map(|i| family(rng, i)).collect();
    let interleave = rng.chance(3);
    let mut head = Vec::new();
    let mut body: Vec<Vec<String>> = Vec::new();
    let mut tail = Vec::new();
    for family in families {
        match rng.below(4) {
            0 => tail.extend(family.declarations), // `# TYPE` after the samples
            1 => {}                                // undeclared: untyped families
            _ => head.push(family.declarations),
        }
        body.push(family.samples);
    }
    let mut lines: Vec<String> = Vec::new();
    if interleave {
        lines.extend(head.into_iter().flatten());
        while body.iter().any(|samples| !samples.is_empty()) {
            let at = rng.below(body.len());
            if !body[at].is_empty() {
                lines.push(body[at].remove(0));
            }
        }
    } else {
        // Each family's declarations directly above its samples, when it
        // has any left in `head`.
        let mut head = head.into_iter();
        for samples in body {
            if rng.chance(2) {
                lines.extend(head.next().into_iter().flatten());
            }
            lines.extend(samples);
        }
        lines.extend(head.flatten());
    }
    lines.extend(tail);
    if rng.chance(4) {
        lines.insert(
            rng.below(lines.len() + 1),
            rng.pick(&["", "# a comment", "   ", "#"]).to_string(),
        );
    }
    if rng.chance(6) {
        // One outright defect, somewhere: whichever parser sees it must
        // report it the same way.
        let defect = rng.pick(&[
            "m{=\"x\"} 1",
            "m{a b=\"x\"} 1",
            "m{__name__=\"evil\"} 1",
            "9bad-name{a=\"1\"} 1",
            "m{a=\"1\",a=\"2\"} 1",
            "m{a=\"1\" b=\"2\"} 1",
            "m{a=1} 1",
            "m{a=\"1} 1",
            "m}{ 1",
            "m{a=\"1\"}",
            "m 1 2 3",
            "m one",
            "m 1 -5",
            "{a=\"1\"} 1",
            "# TYPE m wat",
            // Braces where the label block does not end.
            "m{a=\"1\"} 1 }",
            "m{a=\"1\"} 1 {",
            "m{a=\"1\",} x=\"2\"} 1",
            "m{a=\"1\"}} 1",
            "m{{a=\"1\"} 1",
            "m 1 {",
            "m 1 }",
            "m 1 1700000000000 {}",
            // Spacing and punctuation the two-phase parser accepted or not.
            "m {a=\"1\"} 1",
            "m{a=\"1\"}1",
            "m{} 1",
            "m{ } 1",
            "m{,} 1",
            "m{a=\"1\",,b=\"2\"} 1",
            "m{a=\"x\\",
            "m{a=\"x\\\"} 1",
            "m{a =\"1\"} 1",
            "m{a\u{a0}=\u{2003}\"1\"\u{a0}}\u{2003}1",
            "m\u{a0}1",
            "m\u{2003}1\u{a0}17",
            "m\u{e9} 1",
            "m1",
            "m{a=\"1\"} 1 18446744073709551616",
            "m 1 99999999999999999999",
            "m 1 +",
            "m 1 -5",
            "m 1 1.5",
            "m 0x10",
            "m 1_000",
        ]);
        lines.insert(rng.below(lines.len() + 1), defect.to_string());
    }
    let mut doc = lines.join(rng.pick(&["\n", "\n", "\r\n"]));
    doc.push('\n');
    doc
}

#[test]
fn generated_documents_parse_as_the_two_phase_parser_did() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..3000 {
        let doc = document(&mut rng);
        assert_same(&doc, ParseLimits::unbounded());
        assert_same(&doc, ParseLimits::network());
        // Limits tight enough to trip on some documents and not others:
        // which limit is reported, and against which earlier defect, must
        // not change either.
        let tight = ParseLimits {
            max_line_bytes: 40 + rng.below(80),
            max_samples: 1 + rng.below(20),
            max_families: 1 + rng.below(8),
        };
        assert_same(&doc, tight);
    }
}

/// A label set's offset table is inline up to six labels and offsets that fit
/// `u16`: both edges, each with a value that needs unescaping, sorted and
/// not.  Under the network limits the same lines are over the line limit.
#[test]
fn label_sets_past_the_inline_offset_table_parse_as_the_two_phase_parser_did() {
    let long = "v".repeat(70_000);
    for count in [5usize, 6, 7, 12] {
        for reversed in [false, true] {
            let mut labels: Vec<String> = (0..count)
                .map(|i| match i {
                    2 => format!("l{i:02}=\"{long}\""),
                    3 => format!("l{i:02}=\"a\\\\b\\n\""),
                    _ => format!("l{i:02}=\"{i}\""),
                })
                .collect();
            if reversed {
                labels.reverse();
            }
            let long_line = format!("big{{{}}} 1 17\n", labels.join(","));
            let short_line = long_line.replace(&long, "short");
            for doc in [long_line, short_line] {
                assert_same(&doc, ParseLimits::unbounded());
                assert_same(&doc, ParseLimits::network());
            }
        }
    }
}

/// The resilience suite's four corruptions, applied to a document.
fn mangle(rng: &mut Rng, bytes: &mut Vec<u8>, round: usize) {
    match round % 4 {
        0 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                let bit = 1u8 << rng.below(8);
                if let Some(b) = bytes.get_mut(i) {
                    *b ^= bit;
                }
            }
        }
        2 => {
            let i = rng.below(bytes.len() + 1);
            let inserted = [(rng.next() & 0xff) as u8, (rng.next() & 0xff) as u8];
            bytes.splice(i..i, inserted);
        }
        _ => {
            if !bytes.is_empty() {
                let (i, j) = (rng.below(bytes.len()), rng.below(bytes.len()));
                bytes.swap(i, j);
            }
        }
    }
}

#[test]
fn mangled_documents_parse_as_the_two_phase_parser_did() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // The resilience suite's request body, then generated documents.
    let mut corpus = vec!["demo_metric{a=\"b\"} 42\n x".to_string()];
    corpus.extend((0..40).map(|_| document(&mut rng)));
    for doc in &corpus {
        for round in 0..500 {
            let mut bytes = doc.clone().into_bytes();
            mangle(&mut rng, &mut bytes, round);
            if round % 7 == 0 {
                mangle(&mut rng, &mut bytes, round + 1);
            }
            // The serving edge refuses non-UTF-8 bodies before the parser;
            // lossy conversion keeps those rounds in play here.
            let mangled = String::from_utf8_lossy(&bytes);
            assert_same(&mangled, ParseLimits::network());
        }
    }
}

/// The five documents of the bug report: each used to parse, was stored by
/// `/api/v1/write`, and came back out of federation or the query API as
/// something no consumer could represent.
#[test]
fn unrepresentable_names_are_parse_errors() {
    use teemon_metrics::MetricError;
    for (doc, message) in [
        ("m{=\"x\"} 1\n", "invalid label name \"\""),
        ("m{a b=\"x\"} 1\n", "invalid label name \"a b\""),
        ("m{__name__=\"evil\"} 1\n", "invalid label name \"__name__\""),
        ("9bad-name{a=\"1\"} 1\n", "invalid metric name \"9bad-name\""),
        ("m{a=\"1\",a=\"2\"} 1\n", "duplicate label name \"a\""),
    ] {
        let doc = format!("ok 1\n{doc}");
        let expected = Err(MetricError::Parse { line: 2, message: message.to_string() });
        assert_eq!(parse_families_bounded(&doc, ParseLimits::network()), expected, "{doc:?}");
    }
}
