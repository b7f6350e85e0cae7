//! Trace events and their deterministic JSONL encoding.

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (ids, counts, ticks).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (losses, norms, α). Non-finite values encode as JSON `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free text (messages, kinds).
    Str(String),
}

/// What an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Start,
    /// A span closed.
    End,
    /// An instantaneous event.
    Point,
}

impl EventKind {
    /// Stable wire tag (`"start"` / `"end"` / `"point"`).
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::End => "end",
            EventKind::Point => "point",
        }
    }

    /// The kind a wire tag names, if any (the inverse of [`Self::tag`]).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "start" => Some(EventKind::Start),
            "end" => Some(EventKind::End),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One trace event: a timestamp in clock ticks, a kind, a span/event
/// name, and ordered key/value fields.
///
/// Field order is preserved exactly as recorded, and every encoding
/// choice below is deterministic, so two identical runs produce
/// byte-identical JSONL streams under a [`crate::LogicalClock`].
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Timestamp in the recording clock's ticks.
    pub t: u64,
    /// Start / end / point.
    pub kind: EventKind,
    /// Span or event name (from the fixed taxonomy; see crate docs).
    pub name: &'static str,
    /// Ordered key/value fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Encode as one JSON object on one line (no trailing newline).
    ///
    /// Keys appear in a fixed order — `t`, `ev`, `name`, then the
    /// fields in recording order — and floats use Rust's shortest
    /// round-trip `Display`, which is deterministic across platforms.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t\":");
        out.push_str(&self.t.to_string());
        out.push_str(",\"ev\":\"");
        out.push_str(self.kind.tag());
        out.push_str("\",\"name\":\"");
        out.push_str(self.name);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            push_value(&mut out, v);
        }
        out.push('}');
        out
    }
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(*x, out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => write_str(s, out),
    }
}

/// Write a float as the trace encodes it: shortest round-trip
/// `Display`, integral values forced to keep a `.0` so they re-parse as
/// floats, and non-finite values as `null`.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let s = x.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Write a quoted string as the trace encodes it: `"`, `\`, `\n`, `\r`,
/// `\t` named, every other control character as `\u00XX`.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_fixed_key_order() {
        let e = Event {
            t: 7,
            kind: EventKind::Start,
            name: "round",
            fields: vec![("round", Value::U64(3)), ("loss", Value::F64(0.5))],
        };
        assert_eq!(
            e.to_json_line(),
            "{\"t\":7,\"ev\":\"start\",\"name\":\"round\",\"round\":3,\"loss\":0.5}"
        );
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let e = Event {
            t: 0,
            kind: EventKind::Point,
            name: "x",
            fields: vec![("v", Value::F64(2.0))],
        };
        assert!(e.to_json_line().contains("\"v\":2.0"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            t: 0,
            kind: EventKind::Point,
            name: "x",
            fields: vec![
                ("v", Value::F64(f64::NAN)),
                ("w", Value::F64(f64::INFINITY)),
            ],
        };
        assert!(e.to_json_line().contains("\"v\":null,\"w\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event {
            t: 0,
            kind: EventKind::Point,
            name: "info",
            fields: vec![("msg", Value::Str("a\"b\\c\nd\u{1}".into()))],
        };
        assert!(e
            .to_json_line()
            .contains("\"msg\":\"a\\\"b\\\\c\\nd\\u0001\""));
    }
}
