//! The workspace's one JSON module: the value type, parser and canonical
//! serializer of the daemon's wire protocol, plus the string escaper
//! ([`escape`]) and number predicate ([`is_number`]) the format-string
//! emitters (`Table::to_json`, the obs exporter) share.
//!
//! Zero-dependency by construction (the repo is offline-vendored) and,
//! for [`Value`], deliberately narrower than full JSON: **numbers are
//! unsigned 64-bit integers only**. Every value the daemon ships — job specs, `SimStats`
//! counters, queue/store telemetry — is an integer, a string, a bool, or a
//! composite of those, so refusing floats and negative numbers makes the
//! round trip *exact*: `parse(serialize(v)) == v` bit for bit, with none of
//! the decimal-float ambiguity that would break the byte-identity contract
//! at the network boundary (DESIGN.md §15).
//!
//! Serialization is canonical: object keys are emitted in sorted order
//! (they live in a `BTreeMap`) with no insignificant whitespace, so equal
//! values serialize to equal byte strings. The grammar accepted by
//! [`parse`] is standard RFC 8259 JSON minus the number restriction;
//! `tests/json.rs` cross-validates the output against an independently
//! written syntax checker.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (integer-only numbers; see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer. Floats and negative numbers are rejected at
    /// parse time — the wire format is all-integer by design.
    Num(u64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` gives canonical (sorted) key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object; `None` on other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes canonically: sorted keys, no whitespace.
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            use fmt::Write;
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// `s` escaped for the inside of a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, control characters become
/// `\n`/`\r`/`\t` or `\u00XX`, everything else passes through.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

fn escape_into(s: &str, out: &mut String) {
    use fmt::Write;
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
}

/// Whether `s` is exactly one number of the RFC 8259 grammar
/// (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`). Unlike
/// [`Value`] this admits fractions, exponents and negatives: it decides
/// whether an emitter may write a preformatted cell bare.
#[must_use]
pub fn is_number(s: &str) -> bool {
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    let (mantissa, exp) = match unsigned.split_once(['e', 'E']) {
        Some((mantissa, exp)) => (mantissa, Some(exp)),
        None => (unsigned, None),
    };
    let (int, frac) = match mantissa.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (mantissa, None),
    };
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(digits)
        && exp.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
}

/// A parse failure: byte offset plus what the parser expected there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Nesting deeper than this is rejected (stack-overflow hardening for a
/// network-facing parser).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are not part of the wire format")),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not part of the wire format"));
        }
        let text = &self.bytes[start..self.pos];
        if text.len() > 1 && text[0] == b'0' {
            return Err(self.err("leading zero"));
        }
        std::str::from_utf8(text)
            .ok()
            .and_then(|t| t.parse::<u64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("integer out of u64 range"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("lone surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) => {
                    // Consume one UTF-8 scalar; width from the leading byte
                    // so validation stays O(1) per character.
                    let width = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = chunk
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if map.insert(key, val).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_composites() {
        let v = Value::obj([
            ("b", Value::Bool(true)),
            ("a", Value::Num(18_446_744_073_709_551_615)),
            (
                "list",
                Value::Array(vec![Value::Null, Value::Str("x\"y\n".into())]),
            ),
        ]);
        let s = v.serialize();
        assert_eq!(parse(&s).expect("round trip"), v);
        // Canonical: keys sorted, no whitespace.
        assert_eq!(
            s,
            "{\"a\":18446744073709551615,\"b\":true,\"list\":[null,\"x\\\"y\\n\"]}"
        );
    }

    #[test]
    fn accepts_whitespace_and_unicode_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u00e9\\ud83d\\ude00\" ] } ").expect("parses");
        let arr = v.get("k").and_then(Value::as_array).expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_floats_negatives_and_malformed_docs() {
        for bad in [
            "1.5",
            "-3",
            "1e9",
            "01",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"\\q\"",
            "nul",
            "{\"a\":1,\"a\":2}",
            "\"\\ud800\"",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn number_predicate_follows_rfc_8259() {
        for ok in [
            "0", "-0", "12", "-1.5e3", "0.5", "1E+9", "1e-9", "10.25", "2.000",
        ] {
            assert!(is_number(ok), "{ok:?} is a JSON number");
        }
        for bad in [
            "", "-", "+3", ".5", "5.", "007", "-01", "1e", "1e+", "1.e3", "0x10", "NaN", "inf",
            "1 ", " 1", "3DS", "1.5.2", "--1", "1e5e5", "1e+-5",
        ] {
            assert!(!is_number(bad), "{bad:?} is not a JSON number");
        }
    }

    #[test]
    fn escape_covers_every_control_character() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t\u{1}\u{1f}é"), "\\n\\r\\t\\u0001\\u001fé");
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let doc = format!("\"{}\"", escape(&c.to_string()));
            assert_eq!(parse(&doc), Ok(Value::Str(c.to_string())), "{doc}");
        }
    }
}
