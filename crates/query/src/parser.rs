//! Recursive-descent parser from TeeQL text to [`Expr`].

use teemon_tsdb::{LabelMatch, Selector};

use crate::ast::{AggregateOp, BinOp, Expr, Grouping, RangeFunc};
use crate::lexer::{lex, ParseError, Spanned, Token};

/// Parses a TeeQL expression.
///
/// # Errors
///
/// Returns a [`ParseError`] with the character position and a description of
/// what was expected.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    let end = input.chars().count();
    let mut parser = Parser { tokens, index: 0, end };
    let expr = parser.expression()?;
    if let Some(extra) = parser.peek() {
        return Err(ParseError::new(
            extra.pos,
            format!("unexpected {} after complete expression", extra.token.describe()),
        ));
    }
    Ok(expr)
}

impl std::str::FromStr for Expr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    index: usize,
    /// Character length of the input, reported as the position of
    /// unexpected-end errors.
    end: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.index)
    }

    fn next(&mut self) -> Option<Spanned> {
        let token = self.tokens.get(self.index).cloned();
        if token.is_some() {
            self.index += 1;
        }
        token
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(s) if &s.token == token => Ok(()),
            Some(s) => Err(ParseError::new(
                s.pos,
                format!("expected {what}, found {}", s.token.describe()),
            )),
            None => Err(ParseError::new(self.end, format!("expected {what}, found end of input"))),
        }
    }

    fn unexpected_end(&self, what: &str) -> ParseError {
        ParseError::new(self.end, format!("expected {what}, found end of input"))
    }

    /// `expr := additive ((==|!=|>|<|>=|<=) additive)*`
    fn expression(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        while let Some(op) = self.peek_binop(&[
            (Token::EqEq, BinOp::Eq),
            (Token::Ne, BinOp::Ne),
            (Token::Ge, BinOp::Ge),
            (Token::Le, BinOp::Le),
            (Token::Gt, BinOp::Gt),
            (Token::Lt, BinOp::Lt),
        ]) {
            let rhs = self.additive()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        while let Some(op) =
            self.peek_binop(&[(Token::Plus, BinOp::Add), (Token::Minus, BinOp::Sub)])
        {
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some(op) =
            self.peek_binop(&[(Token::Star, BinOp::Mul), (Token::Slash, BinOp::Div)])
        {
            let rhs = self.unary()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn peek_binop(&mut self, table: &[(Token, BinOp)]) -> Option<BinOp> {
        let next = self.peek()?;
        let op = table.iter().find(|(t, _)| *t == next.token).map(|(_, op)| *op)?;
        self.index += 1;
        Some(op)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if let Some(Spanned { token: Token::Minus, pos }) = self.peek().cloned() {
            self.index += 1;
            match self.next() {
                Some(Spanned { token: Token::Number(n), .. }) => return Ok(Expr::Number(-n)),
                _ => {
                    return Err(ParseError::new(
                        pos,
                        "unary `-` is only supported on number literals",
                    ));
                }
            }
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let Some(next) = self.peek().cloned() else {
            return Err(self.unexpected_end("an expression"));
        };
        match next.token {
            Token::Number(n) => {
                self.index += 1;
                Ok(Expr::Number(n))
            }
            Token::LParen => {
                self.index += 1;
                let inner = self.expression()?;
                self.expect(&Token::RParen, "`)` closing the parenthesised expression")?;
                Ok(inner)
            }
            Token::LBrace => {
                let selector = self.selector(None)?;
                self.maybe_range(selector)
            }
            Token::Ident(name) => {
                self.index += 1;
                // Aggregation keyword followed by `(`/`by`/`without`?
                if let Some(op) = AggregateOp::from_name(&name) {
                    if self.at_aggregation_start() {
                        return self.aggregation(op);
                    }
                }
                if let Some(func) = RangeFunc::from_name(&name) {
                    if matches!(self.peek(), Some(s) if s.token == Token::LParen) {
                        return self.call(func, next.pos);
                    }
                }
                if name == "scalar" && matches!(self.peek(), Some(s) if s.token == Token::LParen) {
                    self.index += 1;
                    let arg = self.expression()?;
                    self.expect(&Token::RParen, "`)` closing the function call")?;
                    return Ok(Expr::Scalar(Box::new(arg)));
                }
                let selector = self.selector(Some(name))?;
                self.maybe_range(selector)
            }
            other => Err(ParseError::new(
                next.pos,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    fn at_aggregation_start(&self) -> bool {
        match self.peek() {
            Some(Spanned { token: Token::LParen, .. }) => true,
            Some(Spanned { token: Token::Ident(word), .. }) => word == "by" || word == "without",
            _ => false,
        }
    }

    /// `aggregation := op ('by'|'without' '(' label-list ')')? '(' expr ')'`,
    /// with the grouping clause also accepted after the body (Prometheus
    /// allows both positions; `Display` prints it before).
    fn aggregation(&mut self, op: AggregateOp) -> Result<Expr, ParseError> {
        let mut grouping = self.grouping_clause()?;
        self.expect(&Token::LParen, "`(` opening the aggregation body")?;
        let expr = self.expression()?;
        self.expect(&Token::RParen, "`)` closing the aggregation body")?;
        if matches!(grouping, Grouping::None) {
            grouping = self.grouping_clause()?;
        }
        Ok(Expr::Aggregate { op, grouping, expr: Box::new(expr) })
    }

    fn grouping_clause(&mut self) -> Result<Grouping, ParseError> {
        let keyword = match self.peek() {
            Some(Spanned { token: Token::Ident(word), .. })
                if word == "by" || word == "without" =>
            {
                word.clone()
            }
            _ => return Ok(Grouping::None),
        };
        self.index += 1;
        self.expect(&Token::LParen, &format!("`(` after `{keyword}`"))?;
        let mut labels = Vec::new();
        loop {
            match self.next() {
                Some(Spanned { token: Token::RParen, .. }) => break,
                Some(Spanned { token: Token::Ident(label), .. }) => {
                    labels.push(label);
                    match self.next() {
                        Some(Spanned { token: Token::Comma, .. }) => {}
                        Some(Spanned { token: Token::RParen, .. }) => break,
                        Some(s) => {
                            return Err(ParseError::new(
                                s.pos,
                                format!(
                                    "expected `,` or `)` in grouping labels, found {}",
                                    s.token.describe()
                                ),
                            ));
                        }
                        None => return Err(self.unexpected_end("`)` closing the grouping labels")),
                    }
                }
                Some(s) => {
                    return Err(ParseError::new(
                        s.pos,
                        format!("expected a label name, found {}", s.token.describe()),
                    ));
                }
                None => return Err(self.unexpected_end("`)` closing the grouping labels")),
            }
        }
        Ok(if keyword == "by" { Grouping::By(labels) } else { Grouping::Without(labels) })
    }

    /// `call := func '(' (number ',')? expr ')'`
    fn call(&mut self, func: RangeFunc, func_pos: usize) -> Result<Expr, ParseError> {
        self.expect(&Token::LParen, "`(` opening the function call")?;
        let param = if func.takes_parameter() {
            let value = match self.next() {
                Some(Spanned { token: Token::Number(n), .. }) => n,
                Some(Spanned { token: Token::Minus, .. }) => match self.next() {
                    Some(Spanned { token: Token::Number(n), .. }) => -n,
                    _ => {
                        return Err(ParseError::new(
                            func_pos,
                            format!("{func} expects a scalar literal as its first argument"),
                        ));
                    }
                },
                _ => {
                    return Err(ParseError::new(
                        func_pos,
                        format!("{func} expects a scalar literal as its first argument"),
                    ));
                }
            };
            self.expect(&Token::Comma, &format!("`,` after the {func} parameter"))?;
            Some(value)
        } else {
            None
        };
        let arg = self.expression()?;
        self.expect(&Token::RParen, "`)` closing the function call")?;
        Ok(Expr::Call { func, param, arg: Box::new(arg) })
    }

    fn maybe_range(&mut self, selector: Selector) -> Result<Expr, ParseError> {
        if !matches!(self.peek(), Some(s) if s.token == Token::LBracket) {
            return Ok(Expr::Selector(selector));
        }
        self.index += 1;
        let window_ms = match self.next() {
            Some(Spanned { token: Token::Duration(ms), .. }) => ms,
            Some(s) => {
                return Err(ParseError::new(
                    s.pos,
                    format!("expected a duration like `5m`, found {}", s.token.describe()),
                ));
            }
            None => return Err(self.unexpected_end("a duration like `5m`")),
        };
        self.expect(&Token::RBracket, "`]` closing the range window")?;
        Ok(Expr::Range { selector, window_ms })
    }

    /// `selector := name? '{' matcher (',' matcher)* '}'` — `name` has already
    /// been consumed when `Some`.
    fn selector(&mut self, name: Option<String>) -> Result<Selector, ParseError> {
        let mut selector = Selector { name, matchers: Vec::new() };
        if !matches!(self.peek(), Some(s) if s.token == Token::LBrace) {
            return Ok(selector);
        }
        self.index += 1;
        loop {
            match self.next() {
                Some(Spanned { token: Token::RBrace, .. }) => break,
                Some(Spanned { token: Token::Ident(label), .. }) => {
                    let negated = match self.next() {
                        Some(Spanned { token: Token::Eq, .. }) => false,
                        Some(Spanned { token: Token::Ne, .. }) => true,
                        Some(s) => {
                            return Err(ParseError::new(
                                s.pos,
                                format!(
                                    "expected `=` or `!=` after label `{label}`, found {}",
                                    s.token.describe()
                                ),
                            ));
                        }
                        None => return Err(self.unexpected_end("`=` or `!=`")),
                    };
                    let value = match self.next() {
                        Some(Spanned { token: Token::Str(value), .. }) => value,
                        Some(s) => {
                            return Err(ParseError::new(
                                s.pos,
                                format!(
                                    "expected a quoted string value for label `{label}`, found {}",
                                    s.token.describe()
                                ),
                            ));
                        }
                        None => return Err(self.unexpected_end("a quoted string value")),
                    };
                    selector.matchers.push(match (negated, value.is_empty()) {
                        (false, _) => LabelMatch::Equals(label, value),
                        // `label!=""` canonicalises to the existence matcher.
                        (true, true) => LabelMatch::Exists(label),
                        (true, false) => LabelMatch::NotEquals(label, value),
                    });
                    match self.peek() {
                        Some(Spanned { token: Token::Comma, .. }) => {
                            self.index += 1;
                        }
                        Some(Spanned { token: Token::RBrace, .. }) => {}
                        Some(s) => {
                            return Err(ParseError::new(
                                s.pos,
                                format!(
                                    "expected `,` or `}}` in label matchers, found {}",
                                    s.token.describe()
                                ),
                            ));
                        }
                        None => return Err(self.unexpected_end("`}` closing the label matchers")),
                    }
                }
                Some(s) => {
                    return Err(ParseError::new(
                        s.pos,
                        format!("expected a label name, found {}", s.token.describe()),
                    ));
                }
                None => return Err(self.unexpected_end("`}` closing the label matchers")),
            }
        }
        Ok(selector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &str) -> Expr {
        let expr = parse(input).unwrap();
        let printed = expr.to_string();
        assert_eq!(parse(&printed).unwrap(), expr, "`{input}` → `{printed}` must reparse equal");
        expr
    }

    #[test]
    fn parses_the_documented_subset() {
        roundtrip("sgx_nr_free_pages");
        roundtrip(r#"sgx_nr_free_pages{node="n1"}"#);
        roundtrip(r#"{node="n1", job!="x", pod!=""}"#);
        roundtrip("{}");
        roundtrip("rate(teemon_syscalls_total[5m])");
        roundtrip("increase(sgx_pages_evicted_total[1h30m])");
        roundtrip("avg_over_time(sgx_nr_free_pages[30s])");
        roundtrip("quantile_over_time(0.99, node_load1[10m])");
        roundtrip("sum by (node) (rate(teemon_syscalls_total[1m]))");
        roundtrip("max without (syscall, node) (teemon_syscalls_total)");
        roundtrip("count({job=\"sgx_exporter\"})");
        roundtrip("sgx_nr_free_pages / 24064 * 100");
        roundtrip("avg_over_time(sgx_nr_free_pages[5m]) < 512");
        roundtrip("sum(a) - sum(b) - sum(c)");
        roundtrip("node:syscalls:rate5m > 100");
        roundtrip("m / scalar(sum(m)) >= 0.5");
    }

    #[test]
    fn parse_structures_match_expectations() {
        let expr = parse("sum by (node) (rate(m[1m]))").unwrap();
        let Expr::Aggregate { op, grouping, expr } = expr else { panic!("not an aggregate") };
        assert_eq!(op, AggregateOp::Sum);
        assert_eq!(grouping, Grouping::By(vec!["node".into()]));
        let Expr::Call { func, param, arg } = *expr else { panic!("not a call") };
        assert_eq!(func, RangeFunc::Rate);
        assert_eq!(param, None);
        assert_eq!(*arg, Expr::Range { selector: Selector::metric("m"), window_ms: 60_000 });
    }

    #[test]
    fn trailing_grouping_clause_is_accepted() {
        assert_eq!(
            parse("sum(rate(m[1m])) by (node)").unwrap(),
            parse("sum by (node) (rate(m[1m]))").unwrap()
        );
    }

    #[test]
    fn precedence_matches_arithmetic_convention() {
        assert_eq!(parse("1 + 2 * 3").unwrap(), parse("1 + (2 * 3)").unwrap());
        assert_eq!(parse("m > 1 + 2").unwrap(), parse("m > (1 + 2)").unwrap());
        assert_ne!(parse("(1 + 2) * 3").unwrap(), parse("1 + 2 * 3").unwrap());
        assert_eq!(parse("-5 + 2").unwrap().to_string(), "-5 + 2");
    }

    #[test]
    fn exists_matcher_canonicalises() {
        let expr = parse(r#"{pod!=""}"#).unwrap();
        assert_eq!(expr, Expr::Selector(Selector::all().with_label_present("pod")));
    }

    #[test]
    fn aggregation_names_still_work_as_metric_names() {
        // `count` not followed by `(`/`by`/`without` is an ordinary selector.
        assert_eq!(parse(r#"count{job="x"} + 1"#).unwrap().to_string(), r#"count{job="x"} + 1"#);
        // So is `scalar` without its call parentheses.
        assert_eq!(parse("scalar + 1").unwrap().to_string(), "scalar + 1");
    }

    #[test]
    fn error_messages_name_the_problem_and_position() {
        let cases: [(&str, &str); 10] = [
            ("rate(", "expected an expression, found end of input"),
            ("rate(m[5m]", "expected `)` closing the function call"),
            ("foo{bar=}", "expected a quoted string value for label `bar`"),
            ("foo{bar}", "expected `=` or `!=` after label `bar`"),
            ("sum by (node", "expected `)` closing the grouping labels"),
            ("foo[5]", "expected a duration like `5m`"),
            ("quantile_over_time(m[5m])", "expects a scalar literal"),
            ("1 +", "expected an expression, found end of input"),
            ("foo bar", "unexpected identifier `bar` after complete expression"),
            ("-(m)", "unary `-` is only supported on number literals"),
        ];
        for (input, expected) in cases {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains(expected),
                "for `{input}` expected message containing {expected:?}, got {:?}",
                err.message
            );
            assert!(err.pos <= input.chars().count(), "position in range for `{input}`");
        }
        // Positions point at the offending token.
        assert_eq!(parse("foo bar").unwrap_err().pos, 4);
        let display = parse("rate(").unwrap_err().to_string();
        assert!(display.starts_with("parse error at position 5:"), "{display}");
    }
}
