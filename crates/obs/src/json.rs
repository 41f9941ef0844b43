//! The one JSON codec of the workspace: a deliberately small reader
//! (std-only recursive descent, no error detail) and the [`Writer`]
//! every artifact is written with — canonical records, metrics rollups,
//! traces and run-dir files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is an exact non-negative integer
    /// below 2^53 (beyond that an `f64` no longer holds every integer).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse `text` as one JSON value (trailing whitespace allowed).
/// Returns `None` on any syntax error.
pub fn parse(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos).map(Value::String),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Value::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Option<Value> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b'}' {
        *pos += 1;
        return Some(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if *b.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Object(map));
            }
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b']' {
        *pos += 1;
        return Some(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume the run up to the next quote or backslash in
                // one piece: both are ASCII, so the run ends on a char
                // boundary of the input `&str`. Decoding the rest of
                // the input per char made parsing quadratic.
                let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
                let end = run.map_or(b.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&b[*pos..end]).ok()?);
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if start == *pos {
        return None;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Number)
}

/// Appends JSON to a `String`, formatting numbers in place. Callers
/// open, fill and close containers; the writer adds the `,` separators.
pub struct Writer<'a>(&'a mut String);

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Self(out)
    }

    /// Writes `token`, after a `,` unless it opens the buffer, a line or
    /// a container, or follows a key.
    fn token(&mut self, token: std::fmt::Arguments) -> &mut Self {
        let open = matches!(
            self.0.as_bytes().last(),
            None | Some(b'{' | b'[' | b':' | b'\n')
        );
        if !open {
            self.0.push(',');
        }
        let _ = self.0.write_fmt(token);
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.token(format_args!("{{"))
    }

    /// Closes an object.
    pub fn end_object(&mut self) -> &mut Self {
        self.0.push('}');
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.token(format_args!("["))
    }

    /// Closes an array.
    pub fn end_array(&mut self) -> &mut Self {
        self.0.push(']');
        self
    }

    /// An object key; its value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).0.push(':');
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.token(format_args!("\""));
        if s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
            for c in s.chars() {
                let _ = match c {
                    '"' => self.0.write_str("\\\""),
                    '\\' => self.0.write_str("\\\\"),
                    '\n' => self.0.write_str("\\n"),
                    '\r' => self.0.write_str("\\r"),
                    '\t' => self.0.write_str("\\t"),
                    c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32),
                    c => self.0.write_char(c),
                };
            }
        } else {
            self.0.push_str(s);
        }
        self.0.push('"');
        self
    }

    /// A `u64` as a `"%016x"` string (seeds and digests).
    pub fn hex64(&mut self, v: u64) -> &mut Self {
        self.token(format_args!("\"{v:016x}\""))
    }

    /// An unsigned integer; `None` is `null`.
    pub fn uint(&mut self, n: impl Into<Option<u64>>) -> &mut Self {
        match n.into() {
            Some(n) => self.token(format_args!("{n}")),
            None => self.token(format_args!("null")),
        }
    }

    /// A boolean; `None` is `null`.
    pub fn bool(&mut self, b: impl Into<Option<bool>>) -> &mut Self {
        match b.into() {
            Some(b) => self.token(format_args!("{b}")),
            None => self.token(format_args!("null")),
        }
    }

    /// A number with four decimals (`{:.4}`), the form of canonical
    /// records; `None` and non-finite values are `null`.
    pub fn fixed4(&mut self, v: impl Into<Option<f64>>) -> &mut Self {
        match v.into().filter(|v| v.is_finite()) {
            Some(v) => self.token(format_args!("{v:.4}")),
            None => self.token(format_args!("null")),
        }
    }

    /// A number in its shortest round-trip form, integral values with a
    /// `.0` so they read back as written; non-finite values are `null`.
    pub fn float(&mut self, v: f64) -> &mut Self {
        match v {
            v if !v.is_finite() => self.token(format_args!("null")),
            v if v.fract() == 0.0 => self.token(format_args!("{v}.0")),
            v => self.token(format_args!("{v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_frames_nested_containers_and_formats_numbers() {
        let mut out = String::from("{\"header\":1}\n");
        let mut w = Writer::new(&mut out);
        w.begin_object().key("a").begin_array().uint(0).float(3.0);
        w.float(-0.5).float(f64::NAN).fixed4(2.0 / 3.0).fixed4(None);
        w.fixed4(f64::INFINITY).end_array();
        w.key("b").begin_object().end_object();
        w.key("c").begin_array().end_array();
        w.key("d").hex64(0xBEEF).key("e").uint(None);
        w.key("f").bool(false);
        w.key("g\u{1}").str("q\"\\\n\r\tµ\u{7f}").end_object();
        assert_eq!(
            out,
            "{\"header\":1}\n{\"a\":[0,3.0,-0.5,null,0.6667,null,null],\"b\":{},\"c\":[],\
             \"d\":\"000000000000beef\",\"e\":null,\"f\":false,\
             \"g\\u0001\":\"q\\\"\\\\\\n\\r\\tµ\u{7f}\"}"
        );
        let doc = parse(out.lines().nth(1).unwrap()).expect("parses");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["g\u{1}"].as_str(), Some("q\"\\\n\r\tµ\u{7f}"));
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers_below_2_pow_53() {
        for (text, want) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("1e3", Some(1000)),
            ("9007199254740991", Some((1 << 53) - 1)),
            ("9007199254740992", None),
            ("-1", None),
            ("-0.5", None),
            ("1.5", None),
            ("\"2\"", None),
            ("null", None),
        ] {
            assert_eq!(parse(text).expect(text).as_u64(), want, "{text}");
        }
    }
}
