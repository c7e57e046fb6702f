//! A strict, position-tracking JSON parser for the telemetry artifacts.
//!
//! Hand-rolled for the same reason `obs` hand-rolls its emitter: the
//! workspace is offline and std-only, and the artifacts are small enough
//! that a recursive-descent parser with exact line/column error reporting
//! beats a vendored dependency. Strictness choices that go beyond RFC
//! 8259: duplicate object keys are rejected (the deterministic emitters
//! never produce them, so one appearing means corruption), and trailing
//! content after the top-level value is an error.

use std::collections::BTreeSet;
use std::fmt;

/// A parse failure with its 1-based line and byte column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based byte column within that line.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// A JSON number, kept as its raw source text so integer precision is
/// never laundered through `f64` and errors can quote the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number {
    raw: String,
}

impl Number {
    /// The numeric value as `f64` (every JSON number grammar string
    /// parses as an `f64`; huge magnitudes saturate to ±∞).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.raw.parse().unwrap_or(f64::NAN)
    }

    /// The value as `u64`, if the source text is a plain non-negative
    /// integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.raw.parse().ok()
    }

    /// The raw source text.
    #[must_use]
    pub fn raw(&self) -> &str {
        &self.raw
    }
}

/// One `"key": value` member of an object, with the key's position for
/// error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// The member key.
    pub key: String,
    /// The member value.
    pub value: Value,
    /// 1-based line of the key's opening quote.
    pub line: usize,
    /// 1-based byte column of the key's opening quote.
    pub column: usize,
}

/// A parsed JSON value. Objects preserve member order and each key's
/// position, so typed decoders report errors where they occur.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in source order.
    Object(Vec<Member>),
}

impl Value {
    /// Parses `src` as exactly one JSON value (plus surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns the first lexical/syntactic problem with its position.
    pub fn parse(src: &str) -> Result<Value, JsonError> {
        let mut p = Parser::new(src);
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos < p.src.len() {
            return Err(p.error("trailing content after top-level value"));
        }
        Ok(value)
    }

    /// Object member lookup (first match; duplicates are rejected at
    /// parse time, so "first" is "only").
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|m| m.key == key).map(|m| &m.value),
            _ => None,
        }
    }

    /// The members, when this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[Member]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == want => {
                self.bump();
                Ok(())
            }
            Some(b) => Err(self.error(format!(
                "expected {:?}, found {:?}",
                want as char, b as char
            ))),
            None => Err(self.error(format!("expected {:?}, found end of input", want as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.error(format!("unexpected character {:?}", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        for want in word.bytes() {
            match self.peek() {
                Some(b) if b == want => {
                    self.bump();
                }
                _ => return Err(self.error(format!("invalid literal (expected `{word}`)"))),
            }
        }
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found {:?}",
                        b as char
                    )))
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<Member> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let (line, column) = (self.line, self.column);
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string object key"));
            }
            let key = self.parse_string()?;
            if !seen.insert(key.clone()) {
                return Err(JsonError {
                    line,
                    column,
                    message: format!("duplicate object key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push(Member {
                key,
                value,
                line,
                column,
            });
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Object(members));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        b as char
                    )))
                }
                None => return Err(self.error("unterminated object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let c = self.parse_unicode_escape()?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    Some(b) => return Err(self.error(format!("invalid escape '\\{}'", b as char))),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.error(format!(
                        "raw control character U+{b:04X} in string (must be escaped)"
                    )))
                }
                Some(b) => out.push(b),
            }
        }
        // The source is `&str`, we split only at ASCII boundaries, and
        // unicode escapes encode valid chars — still, fail loudly rather
        // than trusting that chain.
        String::from_utf8(out).map_err(|_| self.error("string is not valid UTF-8"))
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u16::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u16::from(b - b'a' + 10),
                Some(b @ b'A'..=b'F') => u16::from(b - b'A' + 10),
                _ => return Err(self.error("invalid \\u escape (need 4 hex digits)")),
            };
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.parse_hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("high surrogate not followed by \\u low surrogate"));
            }
            let second = self.parse_hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            let c = 0x10000 + (u32::from(first - 0xD800) << 10) + u32::from(second - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.error("unpaired low surrogate"));
        }
        char::from_u32(u32::from(first)).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        match self.peek() {
            Some(b'0') => {
                self.bump();
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => return Err(self.error("invalid number (expected digit)")),
        }
        if self.peek() == Some(b'.') {
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number (digit required after '.')"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number (digit required in exponent)"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let raw = std::str::from_utf8(&self.src[start..self.pos])
            .expect("number grammar is ASCII")
            .to_owned();
        Ok(Value::Number(Number { raw }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_recorder_trace_line_shape() {
        let v =
            Value::parse(r#"{"at":12.5,"kind":"retry","route":null,"value":1,"detail":"a\"b\n"}"#)
                .expect("parses");
        assert_eq!(
            v.get("at").and_then(Value::as_number).map(Number::as_f64),
            Some(12.5)
        );
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("retry"));
        assert_eq!(v.get("route"), Some(&Value::Null));
        assert_eq!(v.get("detail").and_then(Value::as_str), Some("a\"b\n"));
    }

    #[test]
    fn reports_line_and_column() {
        let err = Value::parse("{\"a\":1,\n\"b\":}").unwrap_err();
        assert_eq!((err.line, err.column), (2, 5));
        let err = Value::parse("").unwrap_err();
        assert_eq!((err.line, err.column), (1, 1));
    }

    #[test]
    fn rejects_duplicate_keys_trailing_content_and_raw_controls() {
        assert!(Value::parse(r#"{"a":1,"a":2}"#)
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(Value::parse("1 2")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(Value::parse("\"a\u{1}b\"")
            .unwrap_err()
            .message
            .contains("control"));
    }

    #[test]
    fn numbers_round_trip_raw_text() {
        for raw in ["0", "-3", "12.5", "1.9536033923958532e-15", "0e0", "1e12"] {
            let v = Value::parse(raw).expect(raw);
            assert_eq!(
                v.as_number().map(Number::raw),
                Some(raw),
                "raw number text must survive"
            );
        }
        assert_eq!(
            Value::parse("42").unwrap().as_number().unwrap().as_u64(),
            Some(42)
        );
        assert_eq!(
            Value::parse("-1").unwrap().as_number().unwrap().as_u64(),
            None
        );
        assert_eq!(
            Value::parse("1.5").unwrap().as_number().unwrap().as_u64(),
            None
        );
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        let v = Value::parse("\"\\u0041\\u00e9\\ud83d\\ude00 é😀\"").expect("parses");
        assert_eq!(v.as_str(), Some("A\u{e9}\u{1F600} é😀"));
        assert!(Value::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Value::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }
}
