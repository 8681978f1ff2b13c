//! One JSON value type for every document the workspace writes and reads:
//! bench records, event-journal JSONL and Chrome trace exports are built as
//! [`Json`] values and rendered by one writer; the baseline gate, the bench
//! schema check and the trace validator read them back through one strict
//! parser.
//!
//! Integers are a variant of their own, so `u64` counters render exactly;
//! objects keep insertion order, so rendered documents are stable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite float renders as).
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent; wide enough for every `i64`
    /// and `u64`.
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep their insertion order.
    Object(Vec<(String, Json)>),
}

macro_rules! from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
from!(Int: u8, u32, u64, i64);
from!(Float: f64);
from!(Bool: bool);
from!(Str: &str, String);
from!(Array: Vec<Json>);

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dot-separated path: object keys, or decimal indices
    /// into arrays (`"telemetry.stages.0.queue"`).
    pub fn path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, seg| match v {
            Json::Array(items) => items.get(seg.parse::<usize>().ok()?),
            _ => v.get(seg),
        })
    }

    /// The number as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The integer as `u64`, if it is one and fits.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render on one line with no whitespace (one JSONL line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 0);
        out
    }

    /// Render with the members of the outer two containers one per line,
    /// indented two spaces per level, everything deeper compact, and a
    /// trailing newline: one record per line, so documents diff well.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 2);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, levels: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `Debug` is the shortest text that parses back to the same f64
            // and always carries a '.' or an exponent, so it stays a float.
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_seq(
                out,
                ['[', ']'],
                items.iter().map(|v| (None, v)),
                depth,
                levels,
            ),
            Json::Object(fields) => write_seq(
                out,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
                depth,
                levels,
            ),
        }
    }

    /// Parse one JSON document strictly (RFC 8259: no trailing commas, no
    /// raw control characters in strings, no `NaN`, nothing after the
    /// value, no duplicate keys). Errors name the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.pos < p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_seq<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    levels: usize,
) {
    let newline = |out: &mut String, indent: usize| {
        if depth < levels {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
    };
    out.push(open);
    let mut empty = true;
    for (key, v) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, depth + 1);
        if let Some(k) = key {
            write_str(out, k);
            out.push(':');
        }
        v.write(out, depth + 1, levels);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
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

/// Containers nested deeper than this are rejected rather than recursed
/// into without bound.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.s.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// After a container element: `,` continues (false), `close` ends (true).
    fn seq_end(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.s.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(&b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(&format!("expected ',' or '{}'", close as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.s.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                let mut items = Vec::new();
                if !self.eat("]") {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.seq_end(b']')? {
                            break;
                        }
                    }
                }
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                self.pos += 1;
                self.ws();
                let mut fields: Vec<(String, Json)> = Vec::new();
                if !self.eat("}") {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        if fields.iter().any(|(k, _)| *k == key) {
                            return Err(self.err(&format!("duplicate key {key:?}")));
                        }
                        self.ws();
                        if !self.eat(":") {
                            return Err(self.err("expected ':'"));
                        }
                        fields.push((key, self.value(depth + 1)?));
                        if self.seq_end(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Json::Object(fields))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("null") => Ok(Json::Null),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat("-");
        let int_start = self.pos;
        let n = self.digits();
        let mut float = false;
        let mut ok = n == 1 || (n > 1 && self.s[int_start] != b'0');
        if self.eat(".") {
            float = true;
            ok &= self.digits() > 0;
        }
        if matches!(self.s.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if !self.eat("+") {
                self.eat("-");
            }
            ok &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).unwrap_or_default();
        match text.parse::<i128>() {
            Ok(i) if ok && !float => Ok(Json::Int(i)),
            _ => text
                .parse::<f64>()
                .ok()
                .filter(|f| ok && f.is_finite())
                .map(Json::Float)
                .ok_or_else(|| self.err("invalid number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .s
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // The run stops only at ASCII bytes, so it is whole UTF-8.
            out.push_str(std::str::from_utf8(&self.s[start..self.pos]).unwrap_or_default());
            match self.s.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.s.get(self.pos).copied();
                    self.pos += 1;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The char of a `\u` escape whose `XXXX` starts at `pos`, joining a
    /// UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .s
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_rejects() {
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "\"abc",
            "\"a\u{1}b\"",
            "NaN",
            "[1] x",
            "{\"a\":1,\"a\":2}",
            "01",
            "1.",
            ".5",
            "+1",
            "-",
            "1e",
            "1e999",
            "\"\\x\"",
            "\"\\ud800\"",
            "{a:1}",
            "[1 2]",
            "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }

    #[test]
    fn reads_numbers_strings_and_paths() {
        let v = Json::parse(
            " {\"a\":[1,-2.5e3,{\"b\":\"x\\u00e9\\ud83d\\ude00\\n\"}],\"n\":null,\"t\":true,\
             \"big\":18446744073709551615} ",
        )
        .unwrap();
        assert_eq!(v.path("a.0"), Some(&Json::Int(1)));
        assert_eq!(v.path("a.1").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(v.path("a.2.b").and_then(Json::as_str), Some("xé😀\n"));
        assert_eq!(v.path("a.3"), None);
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn writer_layouts() {
        let v = Json::object([
            ("rows", Json::from(vec![Json::from(1u64), Json::object([])])),
            ("x", Json::from(2.0)),
            ("nan", Json::from(f64::NAN)),
        ]);
        assert_eq!(v.render(), "{\"rows\":[1,{}],\"x\":2.0,\"nan\":null}");
        assert_eq!(
            v.render_lines(),
            "{\n  \"rows\":[\n    1,\n    {}\n  ],\n  \"x\":2.0,\n  \"nan\":null\n}\n"
        );
    }
}
