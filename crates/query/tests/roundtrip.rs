//! Property test: for generated ASTs, `parse(expr.to_string()) == expr`.
//!
//! The generator covers every expression form (selectors with all matcher
//! kinds, range windows, all range functions including the quantile
//! parameter, aggregations with `by`/`without` grouping, `scalar()`, nested
//! binary arithmetic and comparisons) while avoiding the two documented
//! non-round-trippable values: non-finite scalar literals and
//! `NotEquals(_, "")` matchers (which canonicalise to `Exists`).

use proptest::TestRng;
use teemon_query::{parse, AggregateOp, BinOp, Expr, Grouping, RangeFunc};
use teemon_tsdb::{LabelMatch, Selector};

const METRIC_NAMES: [&str; 6] =
    ["sgx_nr_free_pages", "teemon_syscalls_total", "up", "node:syscalls:rate5m", "_hidden", "m0"];
const LABEL_NAMES: [&str; 5] = ["node", "syscall", "job", "instance", "pod_name"];
const LABEL_VALUES: [&str; 6] =
    ["n1", "redis-server", "", "with \"quotes\"", "back\\slash", "multi\nline"];
const AGG_OPS: [AggregateOp; 5] =
    [AggregateOp::Sum, AggregateOp::Avg, AggregateOp::Min, AggregateOp::Max, AggregateOp::Count];
const BIN_OPS: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Gt,
    BinOp::Lt,
    BinOp::Ge,
    BinOp::Le,
];
const WINDOWS_MS: [u64; 6] = [250, 1_000, 30_000, 90_000, 300_000, 5_400_000];

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn gen_number(rng: &mut TestRng) -> f64 {
    // Finite, mixed-sign, mixed-precision scalars (Rust's `Display` for f64
    // round-trips any finite value through `parse`).
    let raw = rng.below(2_000_000) as i64 - 1_000_000;
    raw as f64 / 128.0
}

fn gen_selector(rng: &mut TestRng) -> Selector {
    let name = if rng.below(5) == 0 { None } else { Some(pick(rng, &METRIC_NAMES).to_string()) };
    let matcher_count =
        if name.is_none() { 1 + rng.below(3) as usize } else { rng.below(3) as usize };
    let matchers = (0..matcher_count)
        .map(|_| {
            let label = pick(rng, &LABEL_NAMES).to_string();
            match rng.below(3) {
                0 => LabelMatch::Equals(label, pick(rng, &LABEL_VALUES).to_string()),
                1 => {
                    // Avoid NotEquals(_, "") — it canonicalises to Exists.
                    let value = loop {
                        let v = pick(rng, &LABEL_VALUES);
                        if !v.is_empty() {
                            break v;
                        }
                    };
                    LabelMatch::NotEquals(label, value.to_string())
                }
                _ => LabelMatch::Exists(label),
            }
        })
        .collect();
    Selector { name, matchers }
}

fn gen_range(rng: &mut TestRng) -> Expr {
    Expr::Range { selector: gen_selector(rng), window_ms: pick(rng, &WINDOWS_MS) }
}

fn gen_call(rng: &mut TestRng) -> Expr {
    let func = pick(
        rng,
        &[
            RangeFunc::Rate,
            RangeFunc::Increase,
            RangeFunc::AvgOverTime,
            RangeFunc::MinOverTime,
            RangeFunc::MaxOverTime,
            RangeFunc::SumOverTime,
            RangeFunc::CountOverTime,
            RangeFunc::QuantileOverTime,
            RangeFunc::LastOverTime,
        ],
    );
    let param = func.takes_parameter().then(|| rng.below(101) as f64 / 100.0);
    Expr::Call { func, param, arg: Box::new(gen_range(rng)) }
}

fn gen_grouping(rng: &mut TestRng) -> Grouping {
    let count = rng.below(3) as usize;
    let mut labels: Vec<String> = (0..count).map(|_| pick(rng, &LABEL_NAMES).to_string()).collect();
    labels.dedup();
    match rng.below(3) {
        0 => Grouping::None,
        1 => Grouping::By(labels),
        _ => Grouping::Without(labels),
    }
}

/// Generates an expression with bounded nesting depth.
fn gen_expr(rng: &mut TestRng, depth: u32) -> Expr {
    let choice = if depth == 0 { rng.below(3) } else { rng.below(7) };
    match choice {
        0 => Expr::Number(gen_number(rng)),
        1 => Expr::Selector(gen_selector(rng)),
        2 => gen_call(rng),
        3 => Expr::Aggregate {
            op: pick(rng, &AGG_OPS),
            grouping: gen_grouping(rng),
            expr: Box::new(gen_expr(rng, depth - 1)),
        },
        4 => gen_range(rng),
        5 => Expr::Scalar(Box::new(gen_expr(rng, depth - 1))),
        _ => Expr::Binary {
            op: pick(rng, &BIN_OPS),
            lhs: Box::new(gen_expr(rng, depth - 1)),
            rhs: Box::new(gen_expr(rng, depth - 1)),
        },
    }
}

#[test]
fn generated_asts_round_trip_through_display() {
    let mut rng = TestRng::deterministic("teeql-ast-roundtrip");
    for case in 0..512 {
        let expr = gen_expr(&mut rng, 4);
        let printed = expr.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("case {case}: `{printed}` failed to parse: {err}"));
        assert_eq!(reparsed, expr, "case {case}: `{printed}` reparsed to a different tree");
        // Printing is a fixpoint: the reparsed tree prints identically.
        assert_eq!(reparsed.to_string(), printed, "case {case}");
    }
}

#[test]
fn generated_selectors_round_trip_through_display() {
    let mut rng = TestRng::deterministic("teeql-selector-roundtrip");
    for case in 0..512 {
        let selector = gen_selector(&mut rng);
        let printed = selector.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("case {case}: `{printed}` failed to parse: {err}"));
        assert_eq!(reparsed, Expr::Selector(selector), "case {case}: `{printed}`");
    }
}

proptest::proptest! {
    #[test]
    fn arbitrary_durations_round_trip(ms in 0u64..10_000_000) {
        let printed = teemon_query::format_duration_ms(ms);
        let query = format!("m[{printed}]");
        match parse(&query) {
            Ok(Expr::Range { window_ms, .. }) => proptest::prop_assert_eq!(window_ms, ms),
            other => panic!("`{query}` did not parse as a range: {other:?}"),
        }
    }
}
