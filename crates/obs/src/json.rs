//! A minimal JSON value, serializer and parser.
//!
//! The observability layer exports traces as JSONL (one JSON object per
//! line) and the workspace has a zero-external-dependency policy, so
//! this module implements the small JSON subset the exporters need:
//! objects, arrays, strings, booleans, null, and numbers split into
//! integer ([`Value::Int`]) and floating ([`Value::Float`]) variants so
//! that `u64` counters and nanosecond timestamps round-trip exactly.
//!
//! Serialization of floats uses Rust's shortest-round-trip `{:?}`
//! formatting, so `parse(render(v)) == v` for every finite `f64`.
//! Non-finite floats are not representable in JSON and are rejected at
//! serialization time by debug assertion (the recorder never produces
//! them).
//!
//! Parsing has one engine, the [`Scanner`]: a single pass over the
//! input's bytes that yields [`Token`]s, borrows every string without
//! an escape, and keeps no tree. [`Value::parse`] builds its tree from
//! those tokens; a hot reader such as the server's request decoder walks
//! them directly, keeps the members it wants and [`Scanner::skip`]s the
//! rest, and still accepts and rejects exactly what `Value::parse`
//! does, with the same [`JsonError`]. Each input byte is examined a
//! bounded number of times, so parsing is linear in the input length.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent part.
    Int(i64),
    /// A number carrying a fraction or exponent part.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as an `f64`, accepting both numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64` (an [`Value::Int`] that is non-negative).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                debug_assert!(f.is_finite(), "non-finite float {f} is not JSON");
                // {:?} is the shortest representation that round-trips; it
                // always includes a '.' or 'e' so the parser keeps the
                // Float variant.
                let _ = write!(out, "{f:?}");
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document. Trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut scanner = Scanner::new(text);
        let token = scanner.value()?;
        let value = scanner.tree(token)?;
        scanner.finish()?;
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line number in the original input, or 0 when the error
    /// is not tied to a line (single-document parses; synthetic
    /// errors). Line-oriented parsers such as
    /// [`parse_jsonl`](crate::export::parse_jsonl) fill this in so a
    /// bad line in a multi-megabyte trace is findable.
    pub line: usize,
    /// Byte offset in the input. For line-oriented parsers this is the
    /// absolute offset into the whole input, not into the line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            line: 0,
            offset,
            message: message.into(),
        }
    }

    /// Rebases this error into a larger input: attributes it to the
    /// 1-based `line` whose content starts at absolute byte offset
    /// `line_start`.
    pub fn on_line(self, line: usize, line_start: usize) -> Self {
        Self {
            line,
            offset: line_start + self.offset,
            message: self.message,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "json error at line {}, byte {}: {}",
                self.line, self.offset, self.message
            )
        } else {
            write!(f, "json error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// The first token of a JSON value, as read by [`Scanner::value`].
///
/// Scalars arrive whole. A string borrows its bytes from the input
/// unless it contains an escape, and a number is parsed as it is read,
/// because reading a number is what validates it. A container arrives
/// as its opening bracket only: its members follow from
/// [`Scanner::key`] or [`Scanner::element`], or [`Scanner::skip`]
/// consumes the rest of it.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent part.
    Int(i64),
    /// A number carrying a fraction or exponent part.
    Float(f64),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// `{` was read; the members follow.
    ObjStart,
    /// `[` was read; the elements follow.
    ArrStart,
}

/// A borrowed, linear-time JSON reader: one pass over the input, no
/// tree. [`Value::parse`] builds its tree from this reader, so both
/// accept the same documents and fail with the same [`JsonError`].
///
/// Reading an object:
///
/// ```
/// use billcap_obs::json::{Scanner, Token};
///
/// let mut s = Scanner::new(r#"{"a": 1, "b": [true, null]}"#);
/// assert_eq!(s.value().unwrap(), Token::ObjStart);
/// let mut first = true;
/// let mut a = None;
/// while let Some(key) = s.key(first).unwrap() {
///     first = false;
///     let token = s.value().unwrap();
///     if key == "a" {
///         a = Some(token);
///     } else {
///         s.skip(token).unwrap(); // validates what it skips
///     }
/// }
/// s.finish().unwrap();
/// assert_eq!(a, Some(Token::Int(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", c as char)))
        }
    }

    /// Reads the next value's first token, after any whitespace.
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::ObjStart)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::ArrStart)
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(_) => self.number(),
        }
    }

    /// Reads the next member's key of the object whose `{` was read
    /// last, and the `:` after it. `first` is true for the first call
    /// after the `{`. `None` means the closing `}` was read.
    pub fn key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if first {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(None);
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
            self.skip_ws();
        }
        let key = self.string()?;
        self.skip_ws();
        self.consume(b':')?;
        Ok(Some(key))
    }

    /// Steps to the next element of the array whose `[` was read last.
    /// `first` is true for the first call after the `[`. `true` means
    /// an element follows (read it with [`value`](Self::value));
    /// `false` means the closing `]` was read.
    pub fn element(&mut self, first: bool) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(JsonError::at(self.pos, "expected ',' or ']'")),
        }
    }

    /// Consumes the rest of the value `token` started: nothing for a
    /// scalar, every member through the closing bracket for a
    /// container. What it skips is validated exactly as
    /// [`Value::parse`] would, without building anything. Nesting costs
    /// one heap byte per level, not a stack frame.
    pub fn skip(&mut self, token: Token<'a>) -> Result<(), JsonError> {
        // One entry per open container, innermost last: true for an
        // object.
        let mut open: Vec<bool> = Vec::new();
        let mut token = token;
        loop {
            let mut first = match token {
                Token::ObjStart => {
                    open.push(true);
                    true
                }
                Token::ArrStart => {
                    open.push(false);
                    true
                }
                _ => false,
            };
            loop {
                let Some(&in_obj) = open.last() else {
                    return Ok(());
                };
                let more = if in_obj {
                    self.key(first)?.is_some()
                } else {
                    self.element(first)?
                };
                if more {
                    break;
                }
                open.pop();
                first = false;
            }
            token = self.value()?;
        }
    }

    /// Ends the document: only whitespace may follow.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(JsonError::at(self.pos, "trailing characters"))
        }
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(JsonError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Every byte taken is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| JsonError::at(start, format!("invalid number {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .map_err(|_| JsonError::at(start, format!("invalid number {text:?}")))
        }
    }

    /// Reads a string. Its bytes are looked at once: `"` and `\` are
    /// ASCII and never occur inside a multi-byte UTF-8 scalar, so runs
    /// between them are copied (or borrowed) whole.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.consume(b'"')?;
        let start = self.pos;
        let run_end = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..run_end]));
        }
        let mut out = String::from(&self.text[start..run_end]);
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    let from = self.pos;
                    let to = self.plain_run();
                    out.push_str(&self.text[from..to]);
                }
            }
        }
    }

    /// Advances past bytes that are neither `"` nor `\` and returns the
    /// offset where the run ends.
    fn plain_run(&mut self) -> usize {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
        self.pos
    }

    /// Decodes the escape after a `\` (already read) into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let bytes = self.text.as_bytes();
        match bytes.get(self.pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let at = self.pos;
                let hex = bytes
                    .get(at + 1..at + 5)
                    .ok_or_else(|| JsonError::at(at, "truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| JsonError::at(at, "invalid \\u escape"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| JsonError::at(at, "invalid \\u escape"))?;
                // The exporters only emit BMP control escapes; surrogate
                // pairs are out of scope.
                out.push(
                    char::from_u32(code).ok_or_else(|| JsonError::at(at, "invalid codepoint"))?,
                );
                self.pos += 4;
            }
            _ => return Err(JsonError::at(self.pos, "invalid escape")),
        }
        self.pos += 1;
        Ok(())
    }

    /// Builds the tree of the value `token` started.
    fn tree(&mut self, token: Token<'a>) -> Result<Value, JsonError> {
        Ok(match token {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Int(i) => Value::Int(i),
            Token::Float(f) => Value::Float(f),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::ObjStart => {
                let mut pairs = Vec::new();
                while let Some(key) = self.key(pairs.is_empty())? {
                    let token = self.value()?;
                    pairs.push((key.into_owned(), self.tree(token)?));
                }
                Value::Obj(pairs)
            }
            Token::ArrStart => {
                let mut items = Vec::new();
                while self.element(items.is_empty())? {
                    let token = self.value()?;
                    items.push(self.tree(token)?);
                }
                Value::Arr(items)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(1.5),
            Value::Float(-0.001),
            Value::Float(1e300),
            Value::Str("hello".into()),
            Value::Str("with \"quotes\" and \\ and \n".into()),
        ] {
            assert_eq!(Value::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 2.0_f64.powi(-40), 123456.789012345] {
            let v = Value::Float(f);
            match Value::parse(&v.render()).unwrap() {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("sim.hour".into())),
            (
                "fields".into(),
                Value::Obj(vec![
                    ("hour".into(), Value::Int(12)),
                    ("cost".into(), Value::Float(1234.5)),
                ]),
            ),
            (
                "arr".into(),
                Value::Arr(vec![Value::Int(1), Value::Int(2), Value::Null]),
            ),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("name").unwrap().as_str(), Some("sim.hour"));
        assert_eq!(
            back.get("fields").unwrap().get("cost").unwrap().as_f64(),
            Some(1234.5)
        );
    }

    #[test]
    fn accepts_whitespace() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("{\"a\":1} trailing").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn integer_vs_float_distinction() {
        assert_eq!(Value::parse("7").unwrap(), Value::Int(7));
        assert_eq!(Value::parse("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(Value::parse("7e0").unwrap(), Value::Float(7.0));
    }
}
