//! Property test: the obs parser round-trips anything the real
//! `fedwcm-trace` encoder can write.
//!
//! Events with arbitrary kinds, taxonomy names, and field values —
//! including negative integers, non-finite floats (encoded as `null`),
//! bit-pattern floats exercising shortest-roundtrip `Display`, and
//! strings full of escapes — are pushed through a real `JsonlSink`
//! into a shared buffer; the obs parser must accept the bytes, and
//! re-encoding every record must reproduce the sink's output exactly.

use fedwcm_obs::{parse_trace, TraceValue};
use fedwcm_trace::{Event, EventKind, JsonlSink, SharedBuf, Sink, Value};
use proptest::prelude::*;

/// Names the sink can write: `Event::name` is `&'static str` drawn
/// from the fixed taxonomy, never arbitrary text.
const NAMES: &[&str] = &[
    "round",
    "client_update",
    "local_epoch",
    "aggregate",
    "buffer_flush",
    "async_apply",
    "evaluate",
    "checkpoint",
    "fault_inject",
    "send_frame",
    "fault",
    "info",
    "retry",
    "ack",
];

/// Field keys seen in real traces (also `&'static str` at the encoder).
const KEYS: &[&str] = &[
    "round", "client", "batches", "loss", "kind", "msg", "ok", "lt", "attempt", "bytes",
];

/// Strings that exercise every escape path in the encoder: named
/// escapes, `\u00XX` control characters, multi-byte UTF-8, and an
/// astral-plane character (surrogate pair territory in `\u` terms).
const STRINGS: &[&str] = &[
    "",
    "plain",
    "with \"quotes\" and \\backslash\\",
    "line\nbreak\ttab\rret",
    "ctrl\u{1}\u{1f}chars",
    "héllo — ツ",
    "😀 astral",
    "dropout",
];

fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..6, any::<u64>(), 0usize..STRINGS.len()).prop_map(|(tag, raw, si)| match tag {
        0 => Value::U64(raw),
        // Cast is exact: same 64 bits reinterpreted.
        1 => Value::I64(raw as i64),
        // Bit-pattern floats cover subnormals, NaN, and infinities.
        2 => Value::F64(f64::from_bits(raw)),
        // Small "ordinary" floats exercise the `.0` suffix rule.
        3 => Value::F64((raw % 2048) as f64 / 16.0),
        4 => Value::Bool(raw & 1 == 1),
        _ => Value::Str(STRINGS[si].to_string()),
    })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        0u8..3,
        0usize..NAMES.len(),
        prop::collection::vec((0usize..KEYS.len(), value_strategy()), 0..5),
    )
        .prop_map(|(t, kind, ni, fields)| Event {
            t,
            kind: match kind {
                0 => EventKind::Start,
                1 => EventKind::End,
                _ => EventKind::Point,
            },
            name: NAMES[ni],
            fields: fields.into_iter().map(|(ki, v)| (KEYS[ki], v)).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parser_round_trips_any_sink_written_trace(
        events in prop::collection::vec(event_strategy(), 0..40),
    ) {
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        for e in &events {
            sink.record(e);
        }
        sink.flush();
        let bytes = buf.contents();
        let text = std::str::from_utf8(&bytes).expect("sink output is UTF-8");

        let records = parse_trace(text).expect("parser accepts sink output");
        prop_assert_eq!(records.len(), events.len());

        // Byte-level identity: re-encoding each record reproduces the
        // sink's line exactly.
        let reencoded: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_json_line()))
            .collect();
        prop_assert_eq!(reencoded.as_str(), text);

        // Structural fidelity: header fields survive, and field values
        // match up to the encoder's documented normalizations
        // (non-finite floats -> null, non-negative i64 -> u64).
        for (e, r) in events.iter().zip(&records) {
            prop_assert_eq!(r.t, e.t);
            prop_assert_eq!(r.kind, e.kind);
            prop_assert_eq!(r.name.as_str(), e.name);
            prop_assert_eq!(r.fields.len(), e.fields.len());
            for ((ek, ev), (rk, rv)) in e.fields.iter().zip(&r.fields) {
                prop_assert_eq!(rk.as_str(), *ek);
                match ev {
                    Value::U64(x) => prop_assert_eq!(rv, &TraceValue::U64(*x)),
                    Value::I64(x) if *x < 0 => prop_assert_eq!(rv, &TraceValue::I64(*x)),
                    Value::I64(x) => prop_assert_eq!(rv, &TraceValue::U64(*x as u64)),
                    Value::F64(x) if x.is_finite() => {
                        prop_assert_eq!(rv, &TraceValue::F64(*x));
                    }
                    Value::F64(_) => prop_assert_eq!(rv, &TraceValue::Null),
                    Value::Bool(b) => prop_assert_eq!(rv, &TraceValue::Bool(*b)),
                    Value::Str(s) => prop_assert_eq!(rv, &TraceValue::Str(s.clone())),
                }
            }
        }
    }
}

/// The tracer's own probe output — a realistic nested trace — parses,
/// builds a forest, and profiles without error. (Kept here rather than
/// in the lib tests so it exercises the public API surface only.)
#[test]
fn sink_output_with_spans_profiles_end_to_end() {
    let buf = SharedBuf::new();
    let sink = JsonlSink::new(buf.clone());
    let lines = [
        Event {
            t: 1,
            kind: EventKind::Start,
            name: "round",
            fields: vec![("round", Value::U64(0)), ("sampled", Value::U64(2))],
        },
        Event {
            t: 2,
            kind: EventKind::Start,
            name: "client_update",
            fields: vec![("client", Value::U64(0)), ("loss", Value::F64(2.5))],
        },
        Event {
            t: 5,
            kind: EventKind::End,
            name: "client_update",
            fields: vec![],
        },
        Event {
            t: 6,
            kind: EventKind::Point,
            name: "fault",
            fields: vec![("kind", Value::Str("dropout".into()))],
        },
        Event {
            t: 7,
            kind: EventKind::End,
            name: "round",
            fields: vec![],
        },
    ];
    for e in &lines {
        sink.record(e);
    }
    let bytes = buf.contents();
    let text = std::str::from_utf8(&bytes).expect("utf8");
    let records = parse_trace(text).expect("parses");
    let forest = fedwcm_obs::build_forest(&records).expect("well-formed");
    let profile = fedwcm_obs::analyze(&forest);
    assert_eq!(profile.rounds.len(), 1);
    assert_eq!(profile.rounds[0].fault_points, 1);
    assert_eq!(profile.rounds[0].critical_path, "round;client_update");
}
