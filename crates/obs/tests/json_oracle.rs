//! The JSON reader is one linear scanner ([`Scanner`]) under
//! [`Value::parse`]. This suite pins it to the tree parser it replaced,
//! kept below verbatim as the oracle: on every input, the same value
//! (floats compared bitwise) or the same `JsonError` — offset and
//! message. The cases cover 2-, 3- and 4-byte UTF-8 scalars, every
//! escape, malformed escapes, unterminated strings, numbers of every
//! shape, every truncation of valid documents, and seeded random byte
//! mutations. A [`Scanner`] that skips a document must fail exactly
//! where the tree parse fails.

use billcap_obs::json::{JsonError, Scanner, Token, Value};
use billcap_rt::{Rng, Xoshiro256pp};
use std::borrow::Cow;

/// The tree parser the scanner replaced: one recursive descent that
/// re-validated the rest of the input for every unescaped character.
mod oracle {
    use super::{JsonError, Value};

    fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError {
            line: 0,
            offset,
            message: message.into(),
        }
    }

    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(at(pos, "trailing characters"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(at(*pos, format!("expected {:?}", c as char)))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(at(*pos, "unexpected end of input")),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, JsonError> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(at(*pos, format!("expected {word:?}")))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        let start = *pos;
        let mut is_float = false;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => *pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| at(start, "invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| at(start, format!("invalid number {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| at(start, format!("invalid number {text:?}")))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(at(*pos, "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| at(*pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| at(*pos, "invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| at(*pos, "invalid \\u escape"))?;
                            // The exporters only emit BMP control escapes;
                            // surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| at(*pos, "invalid codepoint"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(at(*pos, "invalid escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| at(*pos, "invalid utf-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| at(*pos, "unexpected end of input"))?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(at(*pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
        expect(bytes, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            pairs.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(at(*pos, "expected ',' or '}'")),
            }
        }
    }
}

/// Value equality with floats compared by their bits, so `-0.0` and
/// `0.0` differ.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kp, p), (kq, q))| kp == kq && same(p, q))
        }
        _ => a == b,
    }
}

/// Skips the whole document with the scanner alone, building nothing.
fn scan_only(text: &str) -> Result<(), JsonError> {
    let mut s = Scanner::new(text);
    let token = s.value()?;
    s.skip(token)?;
    s.finish()
}

/// Asserts that `Value::parse` and the scanner's skip agree with the
/// oracle on `text`.
fn check(text: &str) {
    let want = oracle::parse(text);
    let got = Value::parse(text);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(same(w, g), "{text:?}: parsed {g:?}, oracle {w:?}"),
        (Err(w), Err(g)) => assert_eq!(g, w, "{text:?}: error differs"),
        _ => panic!("{text:?}: parsed {got:?}, oracle {want:?}"),
    }
    assert_eq!(
        scan_only(text),
        want.map(|_| ()),
        "{text:?}: scanner skip differs"
    );
}

/// Every prefix of `text` that ends on a char boundary.
fn check_truncations(text: &str) {
    for cut in 0..=text.len() {
        if text.is_char_boundary(cut) {
            check(&text[..cut]);
        }
    }
}

#[test]
fn strings_with_multibyte_scalars_match_the_oracle() {
    let cases = [
        r#""""#,
        r#""plain ascii""#,
        "\"caf\u{e9} \u{3b1}\u{3b2}\u{3b3}\"",    // 2-byte
        "\"\u{20ac} \u{4e2d}\u{6587} \u{feff}\"", // 3-byte
        "\"\u{1f600} \u{10348} \u{10ffff}\"",     // 4-byte
        "\"mixed \u{e9}\u{20ac}\u{1f600} and \\n escapes \u{e9}\"",
        "\"raw control \u{1} \t inside\"",
        "{\"\u{e9}t\u{e9}\":\"\u{1f600}\"}",
    ];
    for text in cases {
        check(text);
        check_truncations(text);
    }
    assert_eq!(
        Value::parse("\"a\u{e9}\u{20ac}\u{1f600}\"").unwrap(),
        Value::Str("a\u{e9}\u{20ac}\u{1f600}".into())
    );
}

#[test]
fn every_escape_matches_the_oracle() {
    let cases = [
        r#""\"""#,
        r#""\\""#,
        r#""\/""#,
        r#""\n\r\t""#,
        r#""\u00e9""#,
        r#""\u00E9\u0041\u0000\u001f""#,
        r#""\u20ac and \u4e2d""#,
        r#""before \"quoted\" after""#,
        r#""\u+041""#,
        r#""a\/b\\c\"d\ne""#,
    ];
    for text in cases {
        check(text);
        check_truncations(text);
    }
    assert_eq!(Value::parse(r#""\/""#).unwrap(), Value::Str("/".into()));
    assert_eq!(
        Value::parse(r#""\u00e9""#).unwrap(),
        Value::Str("\u{e9}".into())
    );
}

#[test]
fn malformed_strings_fail_at_the_oracles_offset() {
    let cases = [
        // Invalid escapes, including a multi-byte scalar after `\`.
        r#""\x""#,
        r#""ab\q""#,
        "\"\\\u{e9}\"",
        // Truncated and malformed \u escapes.
        r#""\u"#,
        r#""\u00"#,
        r#""\u00e"#,
        r#""\u00""#,
        r#""\u12G4""#,
        r#""\u-041""#,
        "\"\\u0\u{e9}\"",
        "\"\\u\u{e9}\u{e9}\"",
        // Lone surrogates are not scalars.
        r#""\ud800""#,
        r#""\udfff""#,
        // Unterminated strings.
        r#"""#,
        r#""abc"#,
        r#""abc\""#,
        r#""abc\"#,
        "\"\u{e9}\u{1f600}",
        r#"{"key"#,
        r#"{"k":"v"#,
    ];
    for text in cases {
        check(text);
    }
    let err = Value::parse(r#""ab\q""#).unwrap_err();
    assert_eq!((err.offset, err.message.as_str()), (4, "invalid escape"));
    let err = Value::parse(r#""\u00"#).unwrap_err();
    assert_eq!(
        (err.offset, err.message.as_str()),
        (2, "truncated \\u escape")
    );
    let err = Value::parse(r#""abc"#).unwrap_err();
    assert_eq!(
        (err.offset, err.message.as_str()),
        (4, "unterminated string")
    );
}

#[test]
fn numbers_keywords_and_structure_match_the_oracle() {
    let cases = [
        "0",
        "-0",
        "-0.0",
        "7",
        "7.0",
        "7e0",
        "1E+2",
        "1e-7",
        "1e400",
        "-1e400",
        "5e-324",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "18446744073709551616",
        "1.",
        ".5",
        "+1",
        "--1",
        "1-2",
        "1e",
        "e5",
        "-",
        "x",
        "true",
        "false",
        "null",
        "tru",
        "nul",
        "truex",
        "[]",
        "{}",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{1:2}",
        "{\"a\":1}}",
        " { \"a\" : [ 1 , 2 ] , \"b\" : null } ",
        "[[[[]]]]",
        "{\"a\":{\"b\":{\"c\":[{}]}}}",
        "",
        "   ",
        "{\"a\":1} trailing",
        "\t[1]\r\n",
        "[1,{\"a\":\"\\u00e9\"},[true,false,null],-2.5e-3]",
    ];
    for text in cases {
        check(text);
        check_truncations(text);
    }
}

/// Random documents from a small grammar, with keys and strings that
/// carry escapes and multi-byte scalars.
fn random_doc(rng: &mut Xoshiro256pp, depth: usize, out: &mut String) {
    const STRINGS: [&str; 8] = [
        "id",
        "\\u0069d",
        "caf\u{e9}",
        "\u{1f600}\\n",
        "a\\\"b",
        "\\/\u{20ac}",
        "",
        "\\u00e9x",
    ];
    const NUMBERS: [&str; 8] = [
        "0",
        "-0.0",
        "1e400",
        "42",
        "-7",
        "2.5e-3",
        "1E+2",
        "123456789012",
    ];
    let pick = rng.random_usize_in(0, if depth == 0 { 4 } else { 6 });
    match pick {
        0 => out.push_str(["null", "true", "false"][rng.random_usize_in(0, 2)]),
        1 | 2 => out.push_str(NUMBERS[rng.random_usize_in(0, NUMBERS.len() - 1)]),
        3 | 4 => {
            out.push('"');
            out.push_str(STRINGS[rng.random_usize_in(0, STRINGS.len() - 1)]);
            out.push('"');
        }
        5 => {
            out.push('[');
            for i in 0..rng.random_usize_in(0, 3) {
                if i > 0 {
                    out.push_str(if rng.random_usize_in(0, 1) == 0 {
                        ","
                    } else {
                        " , "
                    });
                }
                random_doc(rng, depth - 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.random_usize_in(0, 3) {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(STRINGS[rng.random_usize_in(0, STRINGS.len() - 1)]);
                out.push_str("\" : ");
                random_doc(rng, depth - 1, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn random_documents_and_mutations_match_the_oracle() {
    // Bytes a mutation may write: structure, escapes, digits and the
    // lead byte of a multi-byte scalar (kept only when the result is
    // still UTF-8, since both parsers take `&str`).
    const MUTATIONS: &[u8] = b"{}[],:\"\\/u0e9+-.E tfn\xc3";
    let mut rng = Xoshiro256pp::seed_from_u64(0x15_0a_5c_a7);
    for _ in 0..400 {
        let mut doc = String::new();
        random_doc(&mut rng, 3, &mut doc);
        check(&doc);
        check_truncations(&doc);
        for _ in 0..8 {
            let mut bytes = doc.clone().into_bytes();
            if bytes.is_empty() {
                break;
            }
            for _ in 0..rng.random_usize_in(1, 3) {
                let at = rng.random_usize_in(0, bytes.len() - 1);
                let b = MUTATIONS[rng.random_usize_in(0, MUTATIONS.len() - 1)];
                match rng.random_usize_in(0, 2) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
                if bytes.is_empty() {
                    break;
                }
            }
            if let Ok(text) = String::from_utf8(bytes) {
                check(&text);
            }
        }
    }
}

#[test]
fn scanner_borrows_strings_without_escapes() {
    let mut s = Scanner::new("{\"plain\": \"caf\\u00e9\", \"esc\\n\": \"\u{e9}t\u{e9}\"}");
    assert_eq!(s.value().unwrap(), Token::ObjStart);
    let key = s.key(true).unwrap().unwrap();
    assert!(matches!(key, Cow::Borrowed("plain")));
    let Token::Str(value) = s.value().unwrap() else {
        panic!("expected a string");
    };
    assert!(matches!(value, Cow::Owned(ref v) if v == "caf\u{e9}"));
    let key = s.key(false).unwrap().unwrap();
    assert!(matches!(key, Cow::Owned(ref k) if k == "esc\n"));
    let Token::Str(value) = s.value().unwrap() else {
        panic!("expected a string");
    };
    assert!(matches!(value, Cow::Borrowed("\u{e9}t\u{e9}")));
    assert_eq!(s.key(false).unwrap(), None);
    s.finish().unwrap();
}
