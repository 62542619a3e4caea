//! Property test for `mask_common::json`, cross-validated against the
//! workspace's one independently written JSON syntax checker (kept apart
//! from the module under test on purpose: it shares no code with it).
#![expect(
    clippy::panic,
    reason = "the reference checker reports a syntax error by panicking"
)]

use mask_common::json::{parse, Value};
use mask_common::rng::Pcg32;
use proptest::prelude::*;

fn build_value(g: &mut Pcg32, depth: usize) -> Value {
    let pick = if depth == 0 { g.below(4) } else { g.below(6) };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(g.next_u64() & 1 == 1),
        2 => Value::Num(g.next_u64()),
        3 => {
            let len = g.below(8) as usize;
            let s: String = (0..len)
                .map(|_| {
                    // Bias toward characters that exercise escaping.
                    match g.below(8) {
                        0 => '"',
                        1 => '\\',
                        2 => '\n',
                        3 => '\u{1}',
                        4 => 'é',
                        5 => '😀',
                        _ => char::from(b'a' + (g.below(26) as u8)),
                    }
                })
                .collect();
            Value::Str(s)
        }
        4 => {
            let len = g.below(4) as usize;
            Value::Array((0..len).map(|_| build_value(g, depth - 1)).collect())
        }
        _ => {
            let len = g.below(4) as usize;
            Value::Object(
                (0..len)
                    .map(|i| (format!("k{}{}", i, g.below(100)), build_value(g, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    /// serialize → parse → serialize is the identity on arbitrary values,
    /// and the serialized form passes the independent syntax checker.
    #[test]
    fn value_round_trip_is_exact(seed in any::<u64>()) {
        let v = build_value(&mut Pcg32::new(seed, 0), 3);
        let doc = v.serialize();
        check_json(&doc);
        let back = parse(&doc).expect("own output must parse");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.serialize(), doc, "canonical form is a fixed point");
    }
}

/// Consumes one JSON value, panicking on any malformed construct.
fn check_json(s: &str) {
    let b = s.as_bytes();
    let end = value(b, skip_ws(b, 0));
    assert_eq!(
        skip_ws(b, end),
        b.len(),
        "trailing garbage after JSON value"
    );
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn value(b: &[u8], i: usize) -> usize {
    match b.get(i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => lit(b, i, "true"),
        Some(b'f') => lit(b, i, "false"),
        Some(b'n') => lit(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        other => panic!("unexpected token {other:?} at byte {i}"),
    }
}

fn lit(b: &[u8], i: usize, word: &str) -> usize {
    assert_eq!(&b[i..i + word.len()], word.as_bytes());
    i + word.len()
}

fn number(b: &[u8], mut i: usize) -> usize {
    if b[i] == b'-' {
        i += 1;
    }
    let start = i;
    while i < b.len() && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        i += 1;
    }
    assert!(i > start, "empty number at byte {i}");
    i
}

fn string(b: &[u8], mut i: usize) -> usize {
    assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'"' => return i + 1,
            b'\\' => i += 2,
            c => {
                assert!(c >= 0x20, "unescaped control char in string");
                i += 1;
            }
        }
    }
    panic!("unterminated string");
}

fn object(b: &[u8], mut i: usize) -> usize {
    assert_eq!(b[i], b'{');
    i = skip_ws(b, i + 1);
    if b[i] == b'}' {
        return i + 1;
    }
    loop {
        i = string(b, skip_ws(b, i));
        i = skip_ws(b, i);
        assert_eq!(b[i], b':');
        i = skip_ws(b, value(b, skip_ws(b, i + 1)));
        match b[i] {
            b',' => i = skip_ws(b, i + 1),
            b'}' => return i + 1,
            c => panic!("unexpected {:?} in object", c as char),
        }
    }
}

fn array(b: &[u8], mut i: usize) -> usize {
    assert_eq!(b[i], b'[');
    i = skip_ws(b, i + 1);
    if b[i] == b']' {
        return i + 1;
    }
    loop {
        i = skip_ws(b, value(b, i));
        match b[i] {
            b',' => i = skip_ws(b, i + 1),
            b']' => return i + 1,
            c => panic!("unexpected {:?} in array", c as char),
        }
    }
}
