//! `verify.toml` reader.
//!
//! The container has no crates.io, so this is a hand-rolled reader for the
//! small TOML subset the config actually uses: `[section]` headers, string
//! and string-array values (arrays may span lines), and booleans.  A
//! `[path_sets]` section names lists of paths; a rule's `paths` refers to
//! one as `"@name"`.  Unknown
//! rule names and malformed lines are hard errors — a typo in the config
//! must fail the gate, not silently disable a rule.

use std::collections::BTreeMap;
use std::fmt;

/// The rules the engine implements; a config naming anything else errors.
pub const KNOWN_RULES: &[&str] =
    &["no-unwrap", "no-panic", "no-index", "no-std-sync", "no-wallclock", "shard-lock-nesting"];

/// Rule name for the meta-check on escape hatches themselves (an allow
/// directive with no justification, or naming an unknown rule).  Always on;
/// not configurable and not suppressible.
pub const ALLOW_DIRECTIVE_RULE: &str = "allow-directive";

#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories (repo-relative) to walk for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes (repo-relative, component-aligned) to skip entirely.
    pub exclude: Vec<String>,
    pub rules: Vec<RuleConfig>,
}

#[derive(Debug, Clone)]
pub struct RuleConfig {
    pub name: String,
    /// Path prefixes this rule applies to; `""` means every walked file.
    pub paths: Vec<String>,
    /// When false (the default), tokens under `#[cfg(test)]` are skipped.
    pub include_tests: bool,
    /// `shard-lock-nesting` only: receiver identifiers that denote a shard
    /// lock (`shard`, `shards`).
    pub receivers: Vec<String>,
    /// `shard-lock-nesting` only: functions allowed to hold more than one
    /// raw shard-lock acquisition (the ordered helpers).
    pub allow_fns: Vec<String>,
}

#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify.toml:{}: {}", self.line, self.message)
    }
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    List(Vec<String>),
    Bool(bool),
}

/// Parses the config text.  `sections` keys are full header names
/// (`workspace`, `rules.no-unwrap`).
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut sections: BTreeMap<String, Vec<(String, Value, usize)>> = BTreeMap::new();
    let mut current = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(line_no, "unterminated section header"))?
                .trim();
            if header.is_empty() {
                return Err(err(line_no, "empty section header"));
            }
            current = header.to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim().to_string();
        let mut value_text = rest.trim().to_string();
        // Arrays may span lines: keep consuming until the bracket closes.
        while value_text.starts_with('[') && !balanced(&value_text) {
            let Some((_, next)) = lines.next() else {
                return Err(err(line_no, format!("unterminated array for `{key}`")));
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&value_text, line_no)?;
        if current.is_empty() {
            return Err(err(line_no, format!("`{key}` appears before any [section]")));
        }
        sections.entry(current.clone()).or_default().push((key, value, line_no));
    }
    build(sections)
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    for c in text.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(text: &str, line_no: usize) -> Result<Value, ConfigError> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(s) = unquote(text) {
        return Ok(Value::Str(s));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for piece in inner.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue; // trailing comma
            }
            let item = unquote(piece)
                .ok_or_else(|| err(line_no, format!("array item `{piece}` is not a string")))?;
            items.push(item);
        }
        return Ok(Value::List(items));
    }
    Err(err(line_no, format!("unsupported value `{text}`")))
}

fn unquote(text: &str) -> Option<String> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    // The config never needs escapes; reject rather than mis-parse.
    if inner.contains('"') || inner.contains('\\') {
        return None;
    }
    Some(inner.to_string())
}

/// Expands `@name` entries of a rule's `paths` into the named set's paths,
/// so a file that joins a set is listed once however many rules cover it.
fn expand_paths(
    list: Vec<String>,
    path_sets: &BTreeMap<String, Vec<String>>,
    line_no: usize,
) -> Result<Vec<String>, ConfigError> {
    let mut paths = Vec::new();
    for item in list {
        match item.strip_prefix('@') {
            Some(name) => paths.extend(
                path_sets
                    .get(name)
                    .ok_or_else(|| err(line_no, format!("unknown path set `@{name}`")))?
                    .iter()
                    .cloned(),
            ),
            None => paths.push(item),
        }
    }
    Ok(paths)
}

fn build(
    mut sections: BTreeMap<String, Vec<(String, Value, usize)>>,
) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut saw_workspace = false;
    let mut path_sets: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, value, line_no) in sections.remove("path_sets").unwrap_or_default() {
        match value {
            Value::List(list) if !list.is_empty() => path_sets.insert(name, list),
            _ => return Err(err(line_no, format!("path set `{name}` must be a non-empty array"))),
        };
    }
    for (header, entries) in sections {
        if header == "workspace" {
            saw_workspace = true;
            for (key, value, line_no) in entries {
                match (key.as_str(), value) {
                    ("roots", Value::List(list)) => config.roots = list,
                    ("exclude", Value::List(list)) => config.exclude = list,
                    (other, _) => {
                        return Err(err(line_no, format!("unknown workspace key `{other}`")))
                    }
                }
            }
        } else if let Some(rule_name) = header.strip_prefix("rules.") {
            if !KNOWN_RULES.contains(&rule_name) {
                return Err(err(0, format!("unknown rule `{rule_name}` in [rules.*]")));
            }
            let mut rule = RuleConfig {
                name: rule_name.to_string(),
                paths: Vec::new(),
                include_tests: false,
                receivers: Vec::new(),
                allow_fns: Vec::new(),
            };
            for (key, value, line_no) in entries {
                match (key.as_str(), value) {
                    ("paths", Value::List(list)) => {
                        rule.paths = expand_paths(list, &path_sets, line_no)?;
                    }
                    ("include_tests", Value::Bool(b)) => rule.include_tests = b,
                    ("receivers", Value::List(list)) => rule.receivers = list,
                    ("allow_fns", Value::List(list)) => rule.allow_fns = list,
                    (other, _) => {
                        return Err(err(
                            line_no,
                            format!("unknown key `{other}` for rule `{rule_name}`"),
                        ))
                    }
                }
            }
            if rule.paths.is_empty() {
                return Err(err(0, format!("rule `{rule_name}` declares no paths")));
            }
            config.rules.push(rule);
        } else {
            return Err(err(0, format!("unknown section `[{header}]`")));
        }
    }
    if !saw_workspace || config.roots.is_empty() {
        return Err(err(0, "config must declare [workspace] roots"));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # gate configuration
        [workspace]
        roots = ["crates", "src"]
        exclude = ["vendor"]

        [path_sets]
        hot_path = [
            "crates/tsdb/src/storage.rs",
            "crates/query/src/stream.rs", # hot path
        ]

        [rules.no-unwrap]
        paths = ["@hot_path"]

        [rules.no-index]
        paths = ["@hot_path", "crates/obs/src/hist.rs"]

        [rules.no-std-sync]
        paths = [""]
        include_tests = true

        [rules.shard-lock-nesting]
        paths = ["crates/tsdb/src/storage.rs"]
        receivers = ["shard", "shards"]
        allow_fns = ["resolve"]
    "#;

    #[test]
    fn parses_sections_arrays_and_flags() {
        let config = parse(SAMPLE).expect("sample config must parse");
        assert_eq!(config.roots, ["crates", "src"]);
        assert_eq!(config.exclude, ["vendor"]);
        assert_eq!(config.rules.len(), 4);
        let rule = |name: &str| config.rules.iter().find(|r| r.name == name).expect(name);
        assert_eq!(
            rule("no-unwrap").paths,
            ["crates/tsdb/src/storage.rs", "crates/query/src/stream.rs"]
        );
        assert_eq!(
            rule("no-index").paths,
            ["crates/tsdb/src/storage.rs", "crates/query/src/stream.rs", "crates/obs/src/hist.rs"]
        );
        let std_sync =
            config.rules.iter().find(|r| r.name == "no-std-sync").expect("no-std-sync present");
        assert!(std_sync.include_tests);
        assert_eq!(std_sync.paths, [""]);
        let nesting =
            config.rules.iter().find(|r| r.name == "shard-lock-nesting").expect("nesting present");
        assert_eq!(nesting.allow_fns, ["resolve"]);
    }

    #[test]
    fn unknown_rules_and_keys_are_errors() {
        let bad_rule = "[workspace]\nroots = [\"crates\"]\n[rules.no-such]\npaths = [\"x\"]";
        assert!(parse(bad_rule).is_err());
        let bad_key = "[workspace]\nroots = [\"crates\"]\n[rules.no-unwrap]\npathz = [\"x\"]";
        assert!(parse(bad_key).is_err());
        let no_roots = "[rules.no-unwrap]\npaths = [\"x\"]";
        assert!(parse(no_roots).is_err());
        let bad_set = "[workspace]\nroots = [\"crates\"]\n[rules.no-unwrap]\npaths = [\"@nope\"]";
        assert!(parse(bad_set).is_err());
        let empty_set = "[workspace]\nroots = [\"crates\"]\n[path_sets]\nhot = []";
        assert!(parse(empty_set).is_err());
    }
}
