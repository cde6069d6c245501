//! A minimal JSON value model: deterministic rendering plus a strict
//! parser for round-trip checks.
//!
//! The environment is offline, so `serde_json` is not available; this is
//! the small slice the batch reports and the `regpipe serve` wire protocol
//! need. Objects keep their insertion order (a `Vec` of pairs, not a map),
//! which makes rendering byte-stable — the property the determinism tests,
//! the `BENCH_suite.json` trajectory, and the daemon's cache-on/off
//! byte-identity gate rely on.
//!
//! Strictness guarantees (pinned by tests):
//!
//! * Numbers follow the JSON grammar exactly — `.5`, `5.`, `01`, `1e`, and
//!   a bare `-` are rejected rather than handed to `f64::parse`.
//! * `\uXXXX` escapes decode UTF-16 surrogate pairs into one code point;
//!   a lone surrogate is a parse error, never a silent U+FFFD.
//! * A raw control character (U+0000–U+001F) inside a string is a parse
//!   error naming its byte offset, as RFC 8259 requires it escaped;
//!   U+007F passes. Rendering escapes every one of them.
//! * Parsing is linear in the input: a string's unescaped runs are
//!   copied whole, so a 1 MiB request string parses in milliseconds.
//! * Non-finite floats have no JSON representation; rendering one panics
//!   ([`Value::render`]), never a silent `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (all the report's numbers are integral).
    Int(i64),
    /// A float; rendered with `{}` (shortest round-trip form). Must be
    /// finite to render — JSON has no NaN/infinity.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Convenience: an integer value from a `u64` (saturating; the report's
    /// counters are far below `i64::MAX`).
    pub fn uint(v: u64) -> Value {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array value, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as a float (integers widen losslessly for the
    /// magnitudes the reports use).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    ///
    /// # Panics
    ///
    /// Panics if the value contains a non-finite float: JSON has no
    /// representation for NaN/infinity, and rendering `null` instead would
    /// be a silent type change.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => {
                assert!(x.is_finite(), "non-finite float {x} has no JSON representation");
                // `{}` omits the point for whole floats; keep it JSON-
                // unambiguous as a number either way (it already is).
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders a `BENCH_*.json` report: one object whose first key is
/// `schema`, then `fields` in order, and a trailing newline. Every report
/// writer goes through here, so the envelope lives in one place.
pub fn report(schema: &str, fields: Vec<(String, Value)>) -> String {
    let mut pairs = vec![("schema".to_string(), Value::Str(schema.to_string()))];
    pairs.extend(fields);
    let mut text = Value::Object(pairs).render();
    text.push('\n');
    text
}

/// Writes `s` as a JSON string literal, copying each run of bytes that
/// needs no escape in one step (escaped bytes are all ASCII, so every run
/// ends on a character boundary).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document. Strict: exactly one value, nothing but
/// whitespace after it.
///
/// # Errors
///
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

// The recursive parsers take the `&str` so that `parse_string` can copy
// runs of it without re-validating UTF-8; the leaf parsers read bytes.
fn parse_value(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(text, pos),
        Some(b'[') => parse_array(text, pos),
        Some(b'"') => parse_string(text, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// Parses a number following the JSON grammar exactly:
/// `-? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?`.
///
/// The grammar is validated structurally before the text is handed to the
/// standard parsers, so non-JSON spellings `f64::from_str` would happily
/// accept (`.5`, `5.`, `+5`, `1e`, `inf`, `NaN`) are rejected here.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: a lone `0`, or a nonzero digit followed by digits
    // (leading zeros like `01` never consume past the `0`).
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(format!("bad number at byte {start}: missing integer part")),
    }
    let mut float = false;
    if bytes.get(*pos) == Some(&b'.') {
        float = true;
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("bad number at byte {start}: no digits after '.'"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(format!("bad number at byte {start}: empty exponent"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    // Only ASCII was consumed, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number text is ASCII");
    if !float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    let num = text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))?;
    // A grammatically valid literal like `1e999` overflows to infinity;
    // admitting it would let `parse` build values `render` refuses.
    if !num.is_finite() {
        return Err(format!("number at byte {start} overflows f64"));
    }
    Ok(Value::Num(num))
}

/// Parses exactly four hex digits (one UTF-16 code unit of a `\u` escape).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, String> {
    let mut unit: u16 = 0;
    for _ in 0..4 {
        let digit = match bytes.get(*pos) {
            Some(b @ b'0'..=b'9') => b - b'0',
            Some(b @ b'a'..=b'f') => b - b'a' + 10,
            Some(b @ b'A'..=b'F') => b - b'A' + 10,
            _ => return Err(format!("bad \\u escape at byte {}: need 4 hex digits", *pos)),
        };
        unit = unit * 16 + u16::from(digit);
        *pos += 1;
    }
    Ok(unit)
}

/// Parses a string literal in time linear in its length: each run of
/// bytes up to the next `"`, `\` or control byte is copied in one step.
/// A run ends at an ASCII byte (or the end of input), so it is a whole
/// slice of `text` and needs no UTF-8 check. A raw U+0000–U+001F is an
/// error, as RFC 8259 requires it escaped.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = *pos;
        *pos = bytes[run..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
            .map_or(bytes.len(), |n| run + n);
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape_at = *pos;
                match bytes.get(*pos) {
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        match unit {
                            // A high surrogate is only meaningful as the
                            // first half of a `\uD8xx\uDCxx` pair encoding
                            // one supplementary-plane code point.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos) != Some(&b'\\')
                                    || bytes.get(*pos + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "lone high surrogate \\u{unit:04x} at byte {escape_at}"
                                    ));
                                }
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{unit:04x} at byte {escape_at} \
                                         not followed by a low surrogate"
                                    ));
                                }
                                let code = 0x10000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low) - 0xDC00);
                                out.push(
                                    char::from_u32(code).expect("surrogate pair is a scalar"),
                                );
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{unit:04x} at byte {escape_at}"
                                ));
                            }
                            _ => out.push(
                                char::from_u32(u32::from(unit))
                                    .expect("BMP non-surrogate is a scalar"),
                            ),
                        }
                    }
                    Some(other) => {
                        let c = match other {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            _ => return Err(format!("bad escape at byte {escape_at}")),
                        };
                        out.push(c);
                        *pos += 1;
                    }
                    None => return Err(format!("bad escape at byte {escape_at}")),
                }
            }
            Some(&b) => return Err(format!("raw control character U+{b:04X} at byte {pos}")),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        pairs.push((key, parse_value(text, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("regpipe-bench-suite/v1".into())),
            ("n".into(), Value::Int(40)),
            ("share".into(), Value::Num(12.5)),
            (
                "cells".into(),
                Value::Array(vec![Value::Object(vec![
                    ("loop".into(), Value::Str("stream_0000".into())),
                    ("ok".into(), Value::Bool(true)),
                    ("err".into(), Value::Null),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn escapes_are_rendered_and_parsed() {
        let v = Value::Str("a\"b\\c\nd\te".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn get_and_as_array_navigate() {
        let doc = parse("{\"a\": [1, 2, 3]}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn accessors_narrow_by_type() {
        let doc = parse("{\"s\":\"x\",\"i\":7,\"f\":2.5,\"b\":true}").unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("i").unwrap().as_i64(), Some(7));
        assert_eq!(doc.get("i").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("s").unwrap().as_i64(), None);
        assert_eq!(doc.get("i").unwrap().as_str(), None);
    }

    /// Regression: a surrogate pair used to decode one code unit at a time
    /// into two U+FFFD replacement characters instead of the real
    /// supplementary-plane character.
    #[test]
    fn surrogate_pairs_combine_into_one_character() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), Value::Str("😀".into()));
        // U+10000, the first supplementary code point (boundary case).
        assert_eq!(parse("\"\\ud800\\udc00\"").unwrap(), Value::Str("\u{10000}".into()));
        // U+10FFFF, the last one.
        assert_eq!(parse("\"\\udbff\\udfff\"").unwrap(), Value::Str("\u{10ffff}".into()));
        // Adjacent pairs and BMP escapes mix freely.
        assert_eq!(parse("\"a\\ud83d\\ude00\\u0041\"").unwrap(), Value::Str("a😀A".into()));
    }

    /// Regression: a lone surrogate used to become U+FFFD silently; it is
    /// not a Unicode scalar value and must be rejected.
    #[test]
    fn lone_surrogates_are_rejected() {
        for doc in [
            "\"\\ud800\"",        // lone high at end of string
            "\"\\ud83dx\"",       // high followed by a plain char
            "\"\\ud83d\\n\"",     // high followed by a non-\u escape
            "\"\\ud83d\\ud83d\"", // high followed by another high
            "\"\\ude00\"",        // lone low
            "\"x\\udfffy\"",      // lone low mid-string
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("surrogate"), "{doc}: {err}");
        }
    }

    /// Regression: each character of a string used to re-validate the
    /// whole rest of the input, so a 1 MiB string took ~22 s even in a
    /// release build. The bound holds for an unoptimised test build.
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let piece = "edge a -> b reg 0 # \u{e9}\u{4e2d}";
        let spelled = format!("{piece}\\n\\t\\u00e9\\\"");
        let decoded = format!("{piece}\n\t\u{e9}\"");
        let repeats = (1 << 20) / spelled.len();
        let doc = format!("{{\"ddg\":\"{}\"}}", spelled.repeat(repeats));
        assert!(doc.len() > 1_000_000, "{}", doc.len());
        let started = std::time::Instant::now();
        let value = parse(&doc).unwrap();
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "1 MiB string took {took:?}");
        assert_eq!(value.get("ddg").unwrap().as_str(), Some(decoded.repeat(repeats).as_str()));
    }

    /// Regression: raw control characters inside a string used to be
    /// accepted; RFC 8259 requires them escaped.
    #[test]
    fn raw_control_characters_are_rejected_with_their_offset() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            let err = parse(&format!("[\"ab{c}c\"]")).unwrap_err();
            assert!(
                err.contains("raw control character") && err.contains("at byte 4"),
                "{err}"
            );
            let escaped = Value::Str(format!("ab{c}c"));
            assert_eq!(parse(&escaped.render()).unwrap(), escaped);
        }
        assert!(parse("{\"a\tb\":1}").unwrap_err().contains("at byte 3"));
        // DEL is not a JSON control character, and whitespace between
        // tokens is outside any string.
        assert_eq!(parse("\"a\u{7f}b\"").unwrap(), Value::Str("a\u{7f}b".into()));
        assert!(parse("{\t\"a\" :\n\"b\"\r}").is_ok());
    }

    #[test]
    fn malformed_u_escapes_are_rejected() {
        assert!(parse("\"\\u12\"").is_err()); // too short
        assert!(parse("\"\\u12g4\"").is_err()); // non-hex digit
        assert!(parse("\"\\u+123\"").is_err()); // from_str_radix would take this
        assert!(parse("\"\\u\"").is_err()); // nothing at all
    }

    /// The accepted side of the JSON number grammar.
    #[test]
    fn json_numbers_parse() {
        for (doc, want) in [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("12", Value::Int(12)),
            ("-37", Value::Int(-37)),
            ("12.5", Value::Num(12.5)),
            ("0.5", Value::Num(0.5)),
            ("-0.25", Value::Num(-0.25)),
            ("1e3", Value::Num(1000.0)),
            ("1E+3", Value::Num(1000.0)),
            ("25e-2", Value::Num(0.25)),
            ("12.5e1", Value::Num(125.0)),
        ] {
            assert_eq!(parse(doc).unwrap(), want, "{doc}");
        }
        // Integers beyond i64 degrade to floats rather than failing.
        assert_eq!(
            parse("123456789012345678901234567890").unwrap(),
            Value::Num(1.2345678901234568e29)
        );
    }

    /// Regression: the "strict" parser accepted every one of these
    /// non-JSON spellings by deferring validation to `f64::parse`.
    #[test]
    fn non_json_numbers_are_rejected() {
        for doc in [
            ".5",   // missing integer part
            "5.",   // missing fraction digits
            "01",   // leading zero
            "-01",  // leading zero, negative
            "-",    // bare sign
            "1e",   // empty exponent
            "1e+",  // signed empty exponent
            "+5",   // leading plus
            "--1",  // double sign
            "1.e5", // dot with no fraction digits
            "NaN", "inf",
        ] {
            assert!(parse(doc).is_err(), "{doc} must be rejected");
        }
        // In nested positions too, not just at top level.
        assert!(parse("[.5]").is_err());
        assert!(parse("{\"a\": 01}").is_err());
        // Grammatically valid but overflows f64 — would become infinity.
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
    }

    /// Regression: non-finite floats used to render as `null` — a silent
    /// type change. Rendering one now panics, nested occurrences too.
    #[test]
    fn non_finite_floats_refuse_to_render() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let nested = Value::Array(vec![Value::Int(1), Value::Num(bad)]);
            for value in [Value::Num(bad), nested] {
                assert!(std::panic::catch_unwind(|| value.render()).is_err());
            }
        }
        assert_eq!(Value::Num(2.5).render(), "2.5");
    }

    #[test]
    #[should_panic(expected = "non-finite float")]
    fn render_panics_on_non_finite() {
        let _ = Value::Num(f64::NAN).render();
    }
}
