//! Minimal JSON reader/writer, the workspace's only one.
//!
//! The vendored serde stand-in has no serializer, so every report is
//! built as a [`Value`] tree, printed with sorted keys and `f64`s in
//! Rust's shortest round-trip `Display` (files parse back
//! bit-identical), and compared after [`parse`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// An integer that `f64` cannot hold exactly (a 64-bit checksum,
    /// say). Integers an `f64` holds exactly are always `Num`, so every
    /// number has one representation and parsing printed output gives
    /// back an equal tree.
    U64(u64),
    /// A string (no escape sequences beyond the JSON basics).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted for deterministic output.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // staticcheck: allow(float-cmp) — exact integrality test: fract() of an integral f64 is exactly 0.0.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(64) => {
                Some(*n as u64)
            }
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A member of the value, if it is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The member at a dotted `path` (`"telemetry.phases_ms"`).
    pub fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// `x` rounded through its `{:.places$}` text, so a report keeps
    /// the precision it prints a figure with. No figure (`None`) and a
    /// non-finite one (which JSON cannot represent) are `null`.
    pub fn fixed(x: impl Into<Option<f64>>, places: usize) -> Value {
        match x.into() {
            Some(x) if x.is_finite() => {
                format!("{x:.places$}").parse().map_or(Value::Null, Value::Num)
            }
            _ => Value::Null,
        }
    }

    /// Serialize with 2-space indentation and sorted object keys.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        let x = n as f64;
        if x < 2f64.powi(64) && x as u64 == n {
            Value::Num(x)
        } else {
            Value::U64(n)
        }
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// An object from `(key, value)` pairs.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Numbers print via Rust's shortest-round-trip `Display`, so parsing
/// the output recovers the exact bit pattern. From 2^53 on every f64 is
/// an integer and `Display` pads its shortest digits with zeros (2^60 as
/// 1152921504606847000, another integer), so those print exact digits.
fn write_number(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "JSON has no NaN/inf: build them as null");
    let _ = if n.abs() >= 2f64.powi(53) { write!(out, "{n:.0}") } else { write!(out, "{n}") };
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::from(n));
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
        }
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_f64_bits() {
        let tricky = [
            0.1,
            1.0 / 3.0,
            std::f64::consts::TAU,
            1e-300,
            123_456_789.123_456_78,
            0.1f64 + 0.2 - 0.27, // a value needing 17 significant digits
        ];
        for &x in &tricky {
            let text = Value::Num(x).to_pretty();
            let back = parse(text.trim()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn object_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("name".into(), Value::Str("cheetah \"36ES\"".into()));
        m.insert("lbn".into(), Value::Num(123456.0));
        m.insert(
            "records".into(),
            Value::Arr(vec![Value::Num(1.5), Value::Bool(true), Value::Null]),
        );
        let v = Value::Obj(m);
        let text = v.to_pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn printed_strings_always_parse_back() {
        let nasty = [
            "a\"b\nc",
            "back\\slash \"quoted\"",
            "tab\tcr\rnul\u{0}bell\u{7}esc\u{1b}del\u{7f}",
            "non-ASCII: \u{e9}t\u{e9} \u{3bb} \u{1f980} \u{2028}",
            "",
        ];
        // Every character below U+0100, and each string as a key too.
        let all_low: String = (0u32..0x100).filter_map(char::from_u32).collect();
        for s in nasty.iter().copied().chain([all_low.as_str()]) {
            let v = obj([("name", s.into()), ("tenants", Value::Arr(vec![obj([(s, true.into())])]))]);
            let text = v.to_pretty();
            assert_eq!(parse(&text), Ok(v), "{s:?} printed as {text}");
        }
    }

    #[test]
    fn wide_integers_stay_exact() {
        for n in [0, 7, 1 << 53, (1 << 53) + 1, 1 << 60, 8_976_405_457_991_974_104, u64::MAX] {
            let v = Value::from(n);
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.to_pretty().trim(), n.to_string());
            assert_eq!(parse(&v.to_pretty()), Ok(v));
        }
        // Integers an f64 holds exactly have the one `Num` form.
        assert_eq!(Value::from(1u64 << 60), Value::Num(2f64.powi(60)));
        assert_eq!(parse("1152921504606846976"), Ok(Value::Num(2f64.powi(60))));
    }

    #[test]
    fn fixed_rounds_through_the_printed_text() {
        assert_eq!(Value::fixed(0.75004, 4), Value::Num(0.75));
        assert_eq!(Value::fixed(2.0 / 3.0, 3), Value::Num(0.667));
        assert_eq!(Value::fixed(12.5, 0), parse("12").unwrap());
        assert_eq!(Value::fixed(f64::INFINITY, 2), Value::Null);
        assert_eq!(Value::fixed(f64::NAN, 2), Value::Null);
        assert_eq!(Value::fixed(None, 2), Value::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("123 45").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\": [1, \"x\"], \"b\": 2.5}").unwrap();
        assert_eq!(v.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("x"));
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
    }
}
