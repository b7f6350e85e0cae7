//! Typed trace records and the strict JSONL parser.
//!
//! [`parse_trace`] turns `JsonlSink` output back into the records the
//! sink encoded — and nothing else. Every line must be a flat JSON
//! object opening with the fixed `t`, `ev`, `name` header keys, every
//! field value must be a scalar, and [`TraceRecord::to_json_line`]
//! re-encodes to the *identical bytes* (property-tested against the
//! real encoder in `tests/roundtrip.rs`). Non-finite floats encode as
//! `null` on the wire, so they come back as [`TraceValue::Null`] — the
//! one deliberate (and documented) lossy spot in the encoding.

use crate::error::ObsError;
use crate::json::{self, Json};
use fedwcm_trace::EventKind;

/// A typed field value as reconstructed from the wire.
///
/// Integers keep the encoder's sign split (`U64` for non-negative,
/// `I64` for negative); a number with a fraction or exponent is `F64`.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceValue {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Finite float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// JSON `null` — the wire encoding of a non-finite float.
    Null,
}

impl TraceValue {
    fn write(&self, out: &mut String) {
        match self {
            TraceValue::U64(x) => out.push_str(&x.to_string()),
            TraceValue::I64(x) => out.push_str(&x.to_string()),
            TraceValue::F64(x) => json::write_f64(*x, out),
            TraceValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            TraceValue::Str(s) => json::write_str(s, out),
            TraceValue::Null => out.push_str("null"),
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TraceValue::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One reconstructed trace record: the typed mirror of
/// `fedwcm_trace::Event` on the consumer side.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Timestamp in the recording clock's ticks.
    pub t: u64,
    /// Start / end / point.
    pub kind: EventKind,
    /// Span or event name.
    pub name: String,
    /// Ordered key/value fields, exactly as recorded.
    pub fields: Vec<(String, TraceValue)>,
}

impl TraceRecord {
    /// Re-encode as one JSON line (no trailing newline) — byte-for-byte
    /// what `JsonlSink` wrote for this record.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t\":");
        out.push_str(&self.t.to_string());
        out.push_str(",\"ev\":\"");
        out.push_str(self.kind.tag());
        out.push_str("\",\"name\":");
        json::write_str(&self.name, &mut out);
        for (k, v) in &self.fields {
            out.push(',');
            json::write_str(k, &mut out);
            out.push(':');
            v.write(&mut out);
        }
        out.push('}');
        out
    }

    /// The record's value for field `key`, if present (first match).
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Parse a whole JSONL trace (one record per line; a trailing newline
/// is allowed, interior blank lines are not). Strict: any deviation
/// from the sink's encoding is a typed error naming the line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ObsError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            return Err(ObsError::Record {
                line: lineno,
                msg: "blank line inside trace".to_string(),
            });
        }
        records.push(parse_line(line, lineno)?);
    }
    Ok(records)
}

/// Parse one JSONL line into a [`TraceRecord`].
pub fn parse_line(line: &str, lineno: usize) -> Result<TraceRecord, ObsError> {
    let v = json::parse(line, lineno)?;
    let Json::Obj(entries) = v else {
        return Err(bad(lineno, "record is not a JSON object"));
    };
    let mut it = entries.into_iter();
    let t = match it.next() {
        Some((k, Json::U64(t))) if k == "t" => t,
        _ => return Err(bad(lineno, "first key must be \"t\" with an unsigned tick")),
    };
    let kind = match it.next() {
        Some((k, Json::Str(tag))) if k == "ev" => match EventKind::from_tag(&tag) {
            Some(kind) => kind,
            None => return Err(bad(lineno, "\"ev\" must be start, end, or point")),
        },
        _ => return Err(bad(lineno, "second key must be \"ev\" with a kind tag")),
    };
    let name = match it.next() {
        Some((k, Json::Str(name))) if k == "name" => name,
        _ => return Err(bad(lineno, "third key must be \"name\" with a string")),
    };
    let mut fields = Vec::new();
    for (k, v) in it {
        if k == "t" || k == "ev" || k == "name" {
            return Err(bad(lineno, "duplicate header key in fields"));
        }
        let value = match v {
            Json::U64(x) => TraceValue::U64(x),
            Json::I64(x) => TraceValue::I64(x),
            Json::F64(x) => TraceValue::F64(x),
            Json::Bool(b) => TraceValue::Bool(b),
            Json::Str(s) => TraceValue::Str(s),
            Json::Null => TraceValue::Null,
            Json::Arr(_) | Json::Obj(_) => {
                return Err(bad(lineno, "field values must be scalars"));
            }
        };
        fields.push((k, value));
    }
    Ok(TraceRecord {
        t,
        kind,
        name,
        fields,
    })
}

fn bad(line: usize, msg: &str) -> ObsError {
    ObsError::Record {
        line,
        msg: msg.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_span_line() {
        let line = "{\"t\":3,\"ev\":\"start\",\"name\":\"client_update\",\"round\":0,\
                    \"client\":1,\"batches\":6,\"loss\":2.008634328842163}";
        let r = parse_line(line, 1).expect("parses");
        assert_eq!(r.t, 3);
        assert_eq!(r.kind, EventKind::Start);
        assert_eq!(r.name, "client_update");
        assert_eq!(r.field("client"), Some(&TraceValue::U64(1)));
        assert_eq!(r.field("loss"), Some(&TraceValue::F64(2.008634328842163)));
        assert_eq!(r.to_json_line(), line);
    }

    #[test]
    fn parses_end_and_point_records() {
        let end = parse_line("{\"t\":8,\"ev\":\"end\",\"name\":\"round\"}", 1).expect("end");
        assert_eq!(end.kind, EventKind::End);
        assert!(end.fields.is_empty());
        let point = parse_line(
            "{\"t\":9,\"ev\":\"point\",\"name\":\"fault\",\"kind\":\"dropout\",\"ok\":true}",
            1,
        )
        .expect("point");
        assert_eq!(point.kind, EventKind::Point);
        assert_eq!(
            point.field("kind").and_then(TraceValue::as_str),
            Some("dropout")
        );
        assert_eq!(point.field("ok"), Some(&TraceValue::Bool(true)));
    }

    #[test]
    fn null_fields_come_back_as_null() {
        // Non-finite floats encode as null on the wire.
        let r =
            parse_line("{\"t\":0,\"ev\":\"point\",\"name\":\"x\",\"v\":null}", 1).expect("parses");
        assert_eq!(r.field("v"), Some(&TraceValue::Null));
        assert_eq!(
            r.to_json_line(),
            "{\"t\":0,\"ev\":\"point\",\"name\":\"x\",\"v\":null}"
        );
    }

    #[test]
    fn negative_integers_are_i64() {
        let r =
            parse_line("{\"t\":0,\"ev\":\"point\",\"name\":\"x\",\"v\":-3}", 1).expect("parses");
        assert_eq!(r.field("v"), Some(&TraceValue::I64(-3)));
    }

    #[test]
    fn rejects_header_violations() {
        for line in [
            "{\"ev\":\"point\",\"t\":0,\"name\":\"x\"}", // wrong key order
            "{\"t\":0,\"ev\":\"point\"}",                // missing name
            "{\"t\":-1,\"ev\":\"point\",\"name\":\"x\"}", // negative tick
            "{\"t\":0,\"ev\":\"begin\",\"name\":\"x\"}", // unknown tag
            "{\"t\":0,\"ev\":\"point\",\"name\":\"x\",\"t\":1}", // duplicate header
            "{\"t\":0,\"ev\":\"point\",\"name\":\"x\",\"v\":[1]}", // non-scalar field
            "[1,2]",                                     // not an object
        ] {
            assert!(parse_line(line, 1).is_err(), "should reject {line}");
        }
    }

    #[test]
    fn parse_trace_reports_the_failing_line() {
        let text = "{\"t\":0,\"ev\":\"point\",\"name\":\"a\"}\nnot json\n";
        match parse_trace(text) {
            Err(ObsError::Json { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_trace_rejects_blank_interior_lines() {
        let text = "{\"t\":0,\"ev\":\"point\",\"name\":\"a\"}\n\n";
        match parse_trace(text) {
            Err(ObsError::Record { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_trace_accepts_trailing_newline_and_counts_records() {
        let text = "{\"t\":0,\"ev\":\"start\",\"name\":\"round\"}\n\
                    {\"t\":1,\"ev\":\"end\",\"name\":\"round\"}\n";
        let rs = parse_trace(text).expect("parses");
        assert_eq!(rs.len(), 2);
    }
}
