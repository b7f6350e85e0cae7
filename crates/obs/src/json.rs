//! A minimal, deterministic JSON model: strict recursive-descent
//! parser plus a canonical writer that byte-for-byte reproduces the
//! encoding `fedwcm_trace::JsonlSink` emits (fixed key order preserved,
//! and the trace encoder's own float and string writers).
//!
//! Numbers are kept typed: an unsigned integer literal parses to
//! [`Json::U64`], a negative integer to [`Json::I64`], and anything
//! with a fraction or exponent to [`Json::F64`] — exactly the split the
//! trace encoder makes, so `parse` ∘ `write` is the identity on any
//! sink-written line (property-tested in `tests/roundtrip.rs`).

use crate::error::ObsError;

/// The trace encoder's own float and string writers: one encoding on
/// both sides of the wire, not two copies kept in step.
pub use fedwcm_trace::event::{write_f64, write_str};

/// Maximum nesting depth the parser accepts; trace lines are flat and
/// profile documents are three levels deep, so this only guards
/// against adversarial input exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys keep their source order, which is
/// what makes re-serialization canonical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize canonically (no whitespace, source key order,
    /// trace-encoder float and string formatting).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(x) => out.push_str(&x.to_string()),
            Json::I64(x) => out.push_str(&x.to_string()),
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh string (see [`Json::write`]).
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    /// Serialize with two-space indentation. Purely a function of the
    /// value — no timestamps, no locale — so pretty output is as
    /// byte-stable as the compact form and safe to diff or commit.
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_pretty(0, &mut out);
        out.push('\n');
        out
    }

    fn write_pretty(&self, indent: usize, out: &mut String) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    push_indent(indent + 1, out);
                    item.write_pretty(indent + 1, out);
                }
                out.push('\n');
                push_indent(indent, out);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    push_indent(indent + 1, out);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(indent + 1, out);
                }
                out.push('\n');
                push_indent(indent, out);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// The object's entry for `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an `f64` when it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(x) => Some(*x as f64),
            Json::I64(x) => Some(*x as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one complete JSON document; trailing non-whitespace is an
/// error. `line` seeds error positions so callers can report the JSONL
/// line the failure occurred on (use 1 for standalone documents).
pub fn parse(text: &str, line: usize) -> Result<Json, ObsError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        line,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ObsError {
        ObsError::Json {
            line: self.line,
            offset: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), ObsError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ObsError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ObsError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ObsError> {
        self.consume(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            entries.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(entries)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ObsError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ObsError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences: the input
                    // &str is valid UTF-8, so continuation bytes follow.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start + width;
                        match self
                            .bytes
                            .get(start..end)
                            .and_then(|s| std::str::from_utf8(s).ok())
                        {
                            Some(s) => {
                                out.push_str(s);
                                self.pos = end;
                            }
                            None => return Err(self.err("invalid UTF-8 in string")),
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ObsError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ObsError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("malformed number"));
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if leading_zero && self.pos - int_start > 1 {
            return Err(self.err("leading zero in number"));
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number fraction"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return Err(self.err("malformed number")),
        };
        if !fractional {
            if negative {
                if let Ok(x) = text.parse::<i64>() {
                    return Ok(Json::I64(x));
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(Json::U64(x));
            }
        }
        // Fractions, exponents, and integers beyond 64-bit range all
        // take the float path (f64::from_str is correctly rounded, so
        // shortest-roundtrip output re-parses to the identical value).
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::F64(x)),
            Err(_) => Err(self.err("malformed number")),
        }
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Byte width of a UTF-8 sequence starting with `lead`.
fn utf8_width(lead: u8) -> usize {
    if lead >= 0xF0 {
        4
    } else if lead >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(s: &str) -> Json {
        parse(s, 1).expect("parses")
    }

    #[test]
    fn scalars_round_trip() {
        for s in [
            "null",
            "true",
            "false",
            "0",
            "42",
            "-7",
            "2.5",
            "-0.0",
            "\"hi\"",
            "18446744073709551615",
        ] {
            assert_eq!(parse_ok(s).to_json_string(), s, "round-trip of {s}");
        }
        // Exponent notation is accepted but normalizes to Display form
        // (the trace encoder never emits exponents); the value is
        // preserved exactly.
        let normalized = parse_ok("1e300").to_json_string();
        assert_eq!(parse_ok(&normalized), Json::F64(1e300));
        assert_eq!(parse_ok(&normalized).to_json_string(), normalized);
    }

    #[test]
    fn number_typing_matches_the_encoder_split() {
        assert_eq!(parse_ok("3"), Json::U64(3));
        assert_eq!(parse_ok("-3"), Json::I64(-3));
        assert_eq!(parse_ok("3.0"), Json::F64(3.0));
        assert_eq!(parse_ok("1e2"), Json::F64(100.0));
    }

    #[test]
    fn objects_preserve_key_order() {
        let line = "{\"t\":7,\"ev\":\"start\",\"name\":\"round\",\"round\":3,\"loss\":0.5}";
        assert_eq!(parse_ok(line).to_json_string(), line);
    }

    #[test]
    fn nested_arrays_and_objects() {
        let s = "{\"a\":[1,2,{\"b\":[]}],\"c\":{}}";
        assert_eq!(parse_ok(s).to_json_string(), s);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "\"a\\\"b\\\\c\\nd\\u0001\"";
        assert_eq!(parse_ok(s).to_json_string(), s);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse_ok("\"\\ud83d\\ude00\""), Json::Str("😀".into()));
    }

    #[test]
    fn unicode_passthrough() {
        let s = "\"héllo — ツ\"";
        assert_eq!(parse_ok(s).to_json_string(), s);
    }

    #[test]
    fn rejects_malformed_input() {
        for s in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "01",  // leading zero
            "1.",  // missing fraction digits
            "1e",  // missing exponent digits
            "\"x", // unterminated
            "\"\\q\"",
            "{\"a\":1}x",
        ] {
            assert!(parse(s, 1).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let s = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&s, 1).is_err());
    }

    #[test]
    fn error_carries_line_and_offset() {
        match parse("{\"a\":", 17) {
            Err(ObsError::Json { line, .. }) => assert_eq!(line, 17),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pretty_output_is_stable_and_reparses() {
        let v = parse_ok("{\"a\":[1,2],\"b\":{\"c\":true},\"d\":[],\"e\":{}}");
        let pretty = v.to_json_string_pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": true\n  },\n  \"d\": [],\n  \"e\": {}\n}\n"
        );
        assert_eq!(parse(pretty.trim_end(), 1).expect("reparses"), v);
    }

    #[test]
    fn accessors() {
        let v = parse_ok("{\"n\":3,\"f\":1.5,\"s\":\"x\"}");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }
}
