//! The TeeQL lexer: turns query text into a token stream with positions.

use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// An identifier: metric name, label name, keyword or function name.
    /// Metric names may contain `:` (recording-rule convention).
    Ident(String),
    /// A scalar literal.
    Number(f64),
    /// A quoted string with escapes resolved.
    Str(String),
    /// A duration literal, resolved to milliseconds (`5m`, `1h30m`, `250ms`).
    Duration(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `==`
    EqEq,
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

impl Token {
    /// Human-readable description used in error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Token::Ident(name) => format!("identifier `{name}`"),
            Token::Number(n) => format!("number `{n}`"),
            Token::Str(s) => format!("string {s:?}"),
            Token::Duration(ms) => format!("duration `{ms}ms`"),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBrace => "{",
            Token::RBrace => "}",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::Comma => ",",
            Token::Eq => "=",
            Token::EqEq => "==",
            Token::Ne => "!=",
            Token::Gt => ">",
            Token::Lt => "<",
            Token::Ge => ">=",
            Token::Le => "<=",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            _ => "?",
        }
    }
}

/// A token plus the character offset where it starts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub token: Token,
    /// Character (not byte) offset into the query string.
    pub pos: usize,
}

/// A lexing or parsing failure, pointing at a position in the query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Character offset the error refers to.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(pos: usize, message: impl Into<String>) -> Self {
        Self { pos, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at position {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

fn duration_unit_ms(unit: &str) -> Option<u64> {
    match unit {
        "ms" => Some(1),
        "s" => Some(1_000),
        "m" => Some(60_000),
        "h" => Some(3_600_000),
        "d" => Some(86_400_000),
        _ => None,
    }
}

/// Lexes `input` into tokens.
///
/// # Errors
///
/// Returns a [`ParseError`] on an unexpected character, an unterminated
/// string, an invalid escape, a malformed number or an unknown duration unit.
pub(crate) fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let chars: Vec<char> = input.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => push(&mut tokens, Token::LParen, start, &mut i),
            ')' => push(&mut tokens, Token::RParen, start, &mut i),
            '{' => push(&mut tokens, Token::LBrace, start, &mut i),
            '}' => push(&mut tokens, Token::RBrace, start, &mut i),
            '[' => push(&mut tokens, Token::LBracket, start, &mut i),
            ']' => push(&mut tokens, Token::RBracket, start, &mut i),
            ',' => push(&mut tokens, Token::Comma, start, &mut i),
            '+' => push(&mut tokens, Token::Plus, start, &mut i),
            '-' => push(&mut tokens, Token::Minus, start, &mut i),
            '*' => push(&mut tokens, Token::Star, start, &mut i),
            '/' => push(&mut tokens, Token::Slash, start, &mut i),
            '=' => {
                if chars.get(i + 1) == Some(&'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::EqEq, pos: start });
                } else {
                    push(&mut tokens, Token::Eq, start, &mut i);
                }
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Ne, pos: start });
                } else {
                    return Err(ParseError::new(start, "expected `!=`, found lone `!`"));
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Ge, pos: start });
                } else {
                    push(&mut tokens, Token::Gt, start, &mut i);
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Le, pos: start });
                } else {
                    push(&mut tokens, Token::Lt, start, &mut i);
                }
            }
            '"' => {
                let (value, next) = lex_string(&chars, i)?;
                tokens.push(Spanned { token: Token::Str(value), pos: start });
                i = next;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let (token, next) = lex_number_or_duration(&chars, i)?;
                tokens.push(Spanned { token, pos: start });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == ':' => {
                let mut end = i;
                while chars
                    .get(end)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                {
                    end += 1;
                }
                tokens.push(Spanned { token: Token::Ident(string_of(&chars, i, end)), pos: start });
                i = end;
            }
            other => {
                return Err(ParseError::new(start, format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(tokens)
}

fn push(tokens: &mut Vec<Spanned>, token: Token, start: usize, i: &mut usize) {
    tokens.push(Spanned { token, pos: start });
    *i += 1;
}

/// The characters `from..to` as a string; every caller's range was scanned,
/// so it is in bounds.
fn string_of(chars: &[char], from: usize, to: usize) -> String {
    chars.get(from..to).unwrap_or_default().iter().collect()
}

fn lex_string(chars: &[char], start: usize) -> Result<(String, usize), ParseError> {
    let mut out = String::new();
    let mut i = start + 1; // skip opening quote
    while let Some(&c) = chars.get(i) {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let escape = chars.get(i + 1).copied();
                match escape {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(other) => {
                        return Err(ParseError::new(i, format!("invalid escape `\\{other}`")));
                    }
                    None => return Err(ParseError::new(i, "unterminated escape")),
                }
                i += 2;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    Err(ParseError::new(start, "unterminated string literal"))
}

fn lex_number_or_duration(chars: &[char], start: usize) -> Result<(Token, usize), ParseError> {
    let digit_at = |k: usize| chars.get(k).is_some_and(char::is_ascii_digit);
    let alpha_at = |k: usize| chars.get(k).is_some_and(char::is_ascii_alphabetic);
    let mut i = start;
    let mut seen_dot = false;
    while let Some(&c) = chars.get(i).filter(|&&c| c.is_ascii_digit() || (c == '.' && !seen_dot)) {
        seen_dot |= c == '.';
        i += 1;
    }
    // Exponent part (`1e9`, `2.5e-3`).
    if matches!(chars.get(i), Some('e' | 'E')) {
        let mut j = i + 1;
        if matches!(chars.get(j), Some('+' | '-')) {
            j += 1;
        }
        if digit_at(j) {
            i = j;
            while digit_at(i) {
                i += 1;
            }
            let text = string_of(chars, start, i);
            let value = text
                .parse::<f64>()
                .map_err(|_| ParseError::new(start, format!("malformed number `{text}`")))?;
            return Ok((Token::Number(value), i));
        }
    }
    // Duration: one or more `<integer><unit>` segments (`1h30m`, `250ms`).
    if alpha_at(i) {
        if seen_dot {
            return Err(ParseError::new(start, "durations must use integer segments"));
        }
        let mut total_ms = 0u64;
        let mut j = start;
        while digit_at(j) {
            let digits_start = j;
            while digit_at(j) {
                j += 1;
            }
            let digits = string_of(chars, digits_start, j);
            let amount = digits
                .parse::<u64>()
                .map_err(|_| ParseError::new(digits_start, "duration segment too large"))?;
            let unit_start = j;
            while alpha_at(j) {
                j += 1;
            }
            let unit = string_of(chars, unit_start, j);
            let scale = duration_unit_ms(&unit).ok_or_else(|| {
                ParseError::new(
                    unit_start,
                    format!("unknown duration unit `{unit}` (expected ms, s, m, h or d)"),
                )
            })?;
            total_ms = total_ms.saturating_add(amount.saturating_mul(scale));
        }
        if digit_at(j) || chars.get(j) == Some(&'.') {
            return Err(ParseError::new(j, "trailing digits after duration"));
        }
        return Ok((Token::Duration(total_ms), j));
    }
    let text = string_of(chars, start, i);
    let value = text
        .parse::<f64>()
        .map_err(|_| ParseError::new(start, format!("malformed number `{text}`")))?;
    Ok((Token::Number(value), i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Token> {
        lex(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_selectors_and_operators() {
        assert_eq!(
            kinds(r#"up{node="n1"} >= 1"#),
            vec![
                Token::Ident("up".into()),
                Token::LBrace,
                Token::Ident("node".into()),
                Token::Eq,
                Token::Str("n1".into()),
                Token::RBrace,
                Token::Ge,
                Token::Number(1.0),
            ]
        );
    }

    #[test]
    fn lexes_durations_and_numbers() {
        assert_eq!(kinds("[5m]"), vec![Token::LBracket, Token::Duration(300_000), Token::RBracket]);
        assert_eq!(kinds("1h30m"), vec![Token::Duration(5_400_000)]);
        assert_eq!(kinds("250ms"), vec![Token::Duration(250)]);
        assert_eq!(kinds("2.5"), vec![Token::Number(2.5)]);
        assert_eq!(kinds("1e3"), vec![Token::Number(1_000.0)]);
        assert_eq!(kinds("2.5e-1"), vec![Token::Number(0.25)]);
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(kinds(r#""a\"b\\c\nd""#), vec![Token::Str("a\"b\\c\nd".into())]);
    }

    #[test]
    fn colons_stay_in_identifiers() {
        assert_eq!(
            kinds("node:syscalls:rate5m"),
            vec![Token::Ident("node:syscalls:rate5m".into())]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("up @ 1").unwrap_err();
        assert_eq!(err.pos, 3);
        assert!(err.message.contains('@'));
        assert!(lex(r#""never closed"#).unwrap_err().message.contains("unterminated"));
        let err = lex("m[5y]").unwrap_err();
        assert!(err.message.contains("unknown duration unit"), "{err}");
        assert!(lex("foo{a!b}").unwrap_err().message.contains("!="));
    }
}
