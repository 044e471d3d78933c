//! The typed TeeQL abstract syntax tree.
//!
//! Every node's [`Display`](std::fmt::Display) rendering is valid TeeQL that
//! parses back to an equal tree (`parse(expr.to_string()) == expr`), which is
//! property-tested in `tests/roundtrip.rs`.  The only values that cannot make
//! the round trip are non-finite scalar literals (there is no literal syntax
//! for `inf`/`NaN`) and `LabelMatch::NotEquals(_, "")`, which canonicalises to
//! the `Exists` matcher.

use std::fmt;

use teemon_tsdb::Selector;

/// A binary operator: arithmetic or (filtering) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl BinOp {
    /// `true` for the comparison operators (which filter vectors).
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Lt | BinOp::Ge | BinOp::Le)
    }

    /// Binding strength: comparisons bind loosest, `*`/`/` tightest.
    pub(crate) fn precedence(&self) -> u8 {
        match self {
            BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Lt | BinOp::Ge | BinOp::Le => 1,
            BinOp::Add | BinOp::Sub => 2,
            BinOp::Mul | BinOp::Div => 3,
        }
    }

    /// Applies the operator to two scalars.  Comparisons return `1.0`/`0.0`.
    pub fn apply(&self, lhs: f64, rhs: f64) -> f64 {
        match self {
            BinOp::Add => lhs + rhs,
            BinOp::Sub => lhs - rhs,
            BinOp::Mul => lhs * rhs,
            BinOp::Div => lhs / rhs,
            _ => {
                if self.compare(lhs, rhs) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Evaluates a comparison operator as a predicate.
    pub fn compare(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            BinOp::Eq => lhs == rhs,
            BinOp::Ne => lhs != rhs,
            BinOp::Gt => lhs > rhs,
            BinOp::Lt => lhs < rhs,
            BinOp::Ge => lhs >= rhs,
            BinOp::Le => lhs <= rhs,
            #[expect(clippy::unreachable, reason = "every caller checks `is_comparison` first")]
            _ => unreachable!("compare called on arithmetic operator"),
        }
    }

    /// The operator's TeeQL spelling.
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Ge => ">=",
            BinOp::Le => "<=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A function applied to a range vector (`rate(m[5m])` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeFunc {
    /// Per-second rate of a counter, reset-aware.
    Rate,
    /// Total increase of a counter over the window, reset-aware.
    Increase,
    /// Arithmetic mean of the window's samples.
    AvgOverTime,
    /// Minimum sample in the window.
    MinOverTime,
    /// Maximum sample in the window.
    MaxOverTime,
    /// Sum of the window's samples.
    SumOverTime,
    /// Number of samples in the window.
    CountOverTime,
    /// Exact interpolated quantile of the window's samples; takes the
    /// quantile as a leading scalar literal argument.
    QuantileOverTime,
    /// The newest sample in the window.
    LastOverTime,
}

impl RangeFunc {
    /// All functions, paired with their TeeQL names (used by the parser).
    pub(crate) const ALL: [(RangeFunc, &'static str); 9] = [
        (RangeFunc::Rate, "rate"),
        (RangeFunc::Increase, "increase"),
        (RangeFunc::AvgOverTime, "avg_over_time"),
        (RangeFunc::MinOverTime, "min_over_time"),
        (RangeFunc::MaxOverTime, "max_over_time"),
        (RangeFunc::SumOverTime, "sum_over_time"),
        (RangeFunc::CountOverTime, "count_over_time"),
        (RangeFunc::QuantileOverTime, "quantile_over_time"),
        (RangeFunc::LastOverTime, "last_over_time"),
    ];

    /// Looks a function up by its TeeQL name.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(f, _)| *f)
    }

    /// The function's TeeQL name.
    #[expect(clippy::expect_used, reason = "every variant is listed in ALL")]
    pub(crate) fn name(&self) -> &'static str {
        Self::ALL.iter().find(|(f, _)| f == self).map(|(_, n)| *n).expect("listed in ALL")
    }

    /// `true` when the function takes a leading scalar parameter.
    pub fn takes_parameter(&self) -> bool {
        matches!(self, RangeFunc::QuantileOverTime)
    }
}

impl fmt::Display for RangeFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cross-series aggregation operator (`sum by (node) (...)` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of values.
    Count,
}

impl AggregateOp {
    /// Looks an operator up by its TeeQL name.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "sum" => Some(AggregateOp::Sum),
            "avg" => Some(AggregateOp::Avg),
            "min" => Some(AggregateOp::Min),
            "max" => Some(AggregateOp::Max),
            "count" => Some(AggregateOp::Count),
            _ => None,
        }
    }
}

impl fmt::Display for AggregateOp {
    /// The operator's TeeQL name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggregateOp::Sum => "sum",
            AggregateOp::Avg => "avg",
            AggregateOp::Min => "min",
            AggregateOp::Max => "max",
            AggregateOp::Count => "count",
        })
    }
}

/// Label grouping of a cross-series aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// Collapse everything into one group (no `by`/`without` clause).
    None,
    /// Keep only the listed labels (`sum by (node) (...)`).
    By(Vec<String>),
    /// Drop the listed labels, keep the rest (`sum without (cpu) (...)`).
    Without(Vec<String>),
}

impl Grouping {
    /// The aggregation-group key for a series carrying `labels`: empty for
    /// [`Grouping::None`], the kept labels for `by`, the complement for
    /// `without`.  The single definition shared by the per-step aggregator
    /// and the streaming planner — their group identities must never drift
    /// apart (the streaming path is cross-checked against the per-step
    /// oracle).
    pub fn key_for(&self, labels: &teemon_metrics::Labels) -> teemon_metrics::Labels {
        use teemon_metrics::Labels;
        match self {
            Grouping::None => Labels::new(),
            Grouping::By(keep) => Labels::from_str_pairs(
                labels.iter().filter(|(k, _)| keep.iter().any(|want| want == k)),
            ),
            Grouping::Without(drop) => Labels::from_str_pairs(
                labels.iter().filter(|(k, _)| !drop.iter().any(|want| want == k)),
            ),
        }
    }
}

impl fmt::Display for Grouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (keyword, labels) = match self {
            Grouping::None => return Ok(()),
            Grouping::By(labels) => ("by", labels),
            Grouping::Without(labels) => ("without", labels),
        };
        write!(f, "{keyword} (")?;
        for (i, label) in labels.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            f.write_str(label)?;
        }
        write!(f, ")")
    }
}

/// A TeeQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A scalar literal.
    Number(f64),
    /// An instant-vector selector (`sgx_nr_free_pages{node="n1"}`).
    Selector(Selector),
    /// A range-vector selector (`m[5m]`); only valid as a range-function
    /// argument or as a whole query.
    Range {
        /// The series selector.
        selector: Selector,
        /// Window length in milliseconds.
        window_ms: u64,
    },
    /// A range-vector function call.
    Call {
        /// The function.
        func: RangeFunc,
        /// Leading scalar parameter (the quantile of `quantile_over_time`).
        param: Option<f64>,
        /// The range-vector argument.
        arg: Box<Expr>,
    },
    /// A cross-series aggregation (`sum by (node) (...)`).
    Aggregate {
        /// The aggregation operator.
        op: AggregateOp,
        /// Label grouping.
        grouping: Grouping,
        /// The aggregated expression.
        expr: Box<Expr>,
    },
    /// `scalar(v)`: the value of a one-element instant vector as a scalar,
    /// `NaN` when the vector is empty or has several elements.
    Scalar(Box<Expr>),
    /// A binary arithmetic or comparison expression.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Renders a millisecond duration in the largest unit that divides it evenly
/// (`300000` → `"5m"`, `90000` → `"90s"`, `1500` → `"1500ms"`).
#[expect(clippy::unreachable, reason = "the 1ms unit divides every duration")]
pub fn format_duration_ms(ms: u64) -> String {
    const UNITS: [(u64, &str); 5] =
        [(86_400_000, "d"), (3_600_000, "h"), (60_000, "m"), (1_000, "s"), (1, "ms")];
    if ms == 0 {
        return "0s".to_string();
    }
    for (scale, unit) in UNITS {
        if ms.is_multiple_of(scale) {
            return format!("{}{unit}", ms / scale);
        }
    }
    unreachable!("the 1ms unit divides everything")
}

impl Expr {
    /// Binding strength used to decide parenthesisation when printing.
    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => op.precedence(),
            _ => u8::MAX,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Number(n) => write!(f, "{n}"),
            Expr::Selector(sel) => write!(f, "{sel}"),
            Expr::Range { selector, window_ms } => {
                write!(f, "{selector}[{}]", format_duration_ms(*window_ms))
            }
            Expr::Call { func, param, arg } => match param {
                Some(p) => write!(f, "{func}({p}, {arg})"),
                None => write!(f, "{func}({arg})"),
            },
            Expr::Aggregate { op, grouping, expr } => match grouping {
                Grouping::None => write!(f, "{op}({expr})"),
                _ => write!(f, "{op} {grouping} ({expr})"),
            },
            Expr::Scalar(expr) => write!(f, "scalar({expr})"),
            Expr::Binary { op, lhs, rhs } => {
                // Left-associative grammar: the left child may print bare at
                // equal precedence, the right child needs parentheses there.
                if lhs.precedence() < op.precedence() {
                    write!(f, "({lhs})")?;
                } else {
                    write!(f, "{lhs}")?;
                }
                write!(f, " {op} ")?;
                if rhs.precedence() <= op.precedence() {
                    write!(f, "({rhs})")
                } else {
                    write!(f, "{rhs}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_pick_the_largest_even_unit() {
        assert_eq!(format_duration_ms(0), "0s");
        assert_eq!(format_duration_ms(500), "500ms");
        assert_eq!(format_duration_ms(1_000), "1s");
        assert_eq!(format_duration_ms(90_000), "90s");
        assert_eq!(format_duration_ms(300_000), "5m");
        assert_eq!(format_duration_ms(7_200_000), "2h");
        assert_eq!(format_duration_ms(86_400_000), "1d");
        assert_eq!(format_duration_ms(1_500), "1500ms");
    }

    #[test]
    fn display_parenthesises_by_precedence() {
        let a = || Box::new(Expr::Selector(Selector::metric("a")));
        let b = || Box::new(Expr::Number(2.0));
        // (a + 2) * 2 keeps its parentheses; a + 2 * 2 prints bare.
        let sum = Expr::Binary { op: BinOp::Add, lhs: a(), rhs: b() };
        let scaled = Expr::Binary { op: BinOp::Mul, lhs: Box::new(sum.clone()), rhs: b() };
        assert_eq!(scaled.to_string(), "(a + 2) * 2");
        let bare = Expr::Binary {
            op: BinOp::Add,
            lhs: a(),
            rhs: Box::new(Expr::Binary { op: BinOp::Mul, lhs: b(), rhs: b() }),
        };
        assert_eq!(bare.to_string(), "a + 2 * 2");
        // Right-nested same-precedence operands keep their parentheses.
        let right = Expr::Binary { op: BinOp::Sub, lhs: a(), rhs: Box::new(sum) };
        assert_eq!(right.to_string(), "a - (a + 2)");
    }

    #[test]
    fn display_of_calls_and_aggregations() {
        let range = Expr::Range {
            selector: Selector::metric("m").with_label("node", "n1"),
            window_ms: 300_000,
        };
        let rate = Expr::Call { func: RangeFunc::Rate, param: None, arg: Box::new(range) };
        assert_eq!(rate.to_string(), "rate(m{node=\"n1\"}[5m])");
        let summed = Expr::Aggregate {
            op: AggregateOp::Sum,
            grouping: Grouping::By(vec!["node".into()]),
            expr: Box::new(rate),
        };
        assert_eq!(summed.to_string(), "sum by (node) (rate(m{node=\"n1\"}[5m]))");
        let quantile = Expr::Call {
            func: RangeFunc::QuantileOverTime,
            param: Some(0.9),
            arg: Box::new(Expr::Range { selector: Selector::metric("m"), window_ms: 60_000 }),
        };
        assert_eq!(quantile.to_string(), "quantile_over_time(0.9, m[1m])");
    }
}
