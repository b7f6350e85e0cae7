//! Span-tree reconstruction from a flat record stream.
//!
//! The tracer's logical clock ticks once per read, so a well-formed
//! trace is a properly nested sequence of `start`/`end` records with
//! strictly increasing timestamps; `point` records attach to whichever
//! span is open when they fire. [`build_forest`] rebuilds that nesting
//! with an explicit stack and treats every violation — an `end` whose
//! name does not match the open span, an `end` with nothing open, a
//! span still open at end of stream, a clock that runs backwards — as a
//! typed [`ObsError::Structure`] naming the offending line. Lexical
//! strictness lives in [`crate::record`]; this module owns structural
//! strictness, so the two layers are independently testable.

use crate::error::ObsError;
use crate::record::{TraceRecord, TraceValue};
use fedwcm_trace::EventKind;

/// An instantaneous event attached to a span (or, when none was open,
/// collected in [`SpanForest::orphan_points`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PointNode {
    /// Tick the point fired at.
    pub t: u64,
    /// Point name (one of the `fedwcm_trace::names` point constants in
    /// real traces).
    pub name: String,
    /// Ordered key/value fields, exactly as recorded.
    pub fields: Vec<(String, TraceValue)>,
}

/// One reconstructed span: a named interval with its nested children
/// and attached points.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Tick the span opened at.
    pub start_t: u64,
    /// Tick the span closed at.
    pub end_t: u64,
    /// Fields recorded on the `start` record.
    pub fields: Vec<(String, TraceValue)>,
    /// Fields recorded on the `end` record, if any.
    pub end_fields: Vec<(String, TraceValue)>,
    /// Child spans, in stream order.
    pub children: Vec<SpanNode>,
    /// Points that fired while this span was the innermost open one.
    pub points: Vec<PointNode>,
}

impl SpanNode {
    /// Total ticks from open to close.
    pub fn duration(&self) -> u64 {
        self.end_t - self.start_t
    }

    /// Ticks covered by direct children.
    pub fn child_ticks(&self) -> u64 {
        self.children.iter().map(SpanNode::duration).sum()
    }

    /// Ticks spent in this span itself, outside any child.
    pub fn self_ticks(&self) -> u64 {
        self.duration().saturating_sub(self.child_ticks())
    }

    /// The value of a start-record field, if present.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// The reconstructed trace: top-level spans plus any points that fired
/// outside every span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanForest {
    /// Top-level spans, in stream order.
    pub roots: Vec<SpanNode>,
    /// Points recorded with no span open.
    pub orphan_points: Vec<PointNode>,
    /// Number of records the forest was built from.
    pub records: usize,
}

impl SpanForest {
    /// Visit every span in the forest depth-first, parents before
    /// children, with the ancestor name path (excluding the visited
    /// span itself).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&[&'a str], &'a SpanNode)) {
        let mut path: Vec<&str> = Vec::new();
        for root in &self.roots {
            visit_node(root, &mut path, f);
        }
    }
}

fn visit_node<'a>(
    node: &'a SpanNode,
    path: &mut Vec<&'a str>,
    f: &mut impl FnMut(&[&'a str], &'a SpanNode),
) {
    f(path, node);
    path.push(&node.name);
    for child in &node.children {
        visit_node(child, path, f);
    }
    path.pop();
}

/// A span that has started but not yet ended.
struct OpenSpan {
    name: String,
    start_t: u64,
    start_line: usize,
    fields: Vec<(String, TraceValue)>,
    children: Vec<SpanNode>,
    points: Vec<PointNode>,
}

/// Rebuild the span forest from a parsed record stream. Records are
/// assumed to be one per JSONL line, so errors report `index + 1` as
/// the line number.
pub fn build_forest(records: &[TraceRecord]) -> Result<SpanForest, ObsError> {
    let mut forest = SpanForest {
        records: records.len(),
        ..SpanForest::default()
    };
    let mut stack: Vec<OpenSpan> = Vec::new();
    let mut last_t: Option<u64> = None;
    for (i, rec) in records.iter().enumerate() {
        let line = i + 1;
        if let Some(prev) = last_t {
            if rec.t <= prev {
                return Err(structure(
                    line,
                    format!("clock not strictly increasing: t={} after t={prev}", rec.t),
                ));
            }
        }
        last_t = Some(rec.t);
        match rec.kind {
            EventKind::Start => stack.push(OpenSpan {
                name: rec.name.clone(),
                start_t: rec.t,
                start_line: line,
                fields: rec.fields.clone(),
                children: Vec::new(),
                points: Vec::new(),
            }),
            EventKind::End => {
                let Some(open) = stack.pop() else {
                    return Err(structure(
                        line,
                        format!("end of \"{}\" with no span open", rec.name),
                    ));
                };
                if open.name != rec.name {
                    return Err(structure(
                        line,
                        format!(
                            "end of \"{}\" while \"{}\" (line {}) is open",
                            rec.name, open.name, open.start_line
                        ),
                    ));
                }
                let node = SpanNode {
                    name: open.name,
                    start_t: open.start_t,
                    end_t: rec.t,
                    fields: open.fields,
                    end_fields: rec.fields.clone(),
                    children: open.children,
                    points: open.points,
                };
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => forest.roots.push(node),
                }
            }
            EventKind::Point => {
                let point = PointNode {
                    t: rec.t,
                    name: rec.name.clone(),
                    fields: rec.fields.clone(),
                };
                match stack.last_mut() {
                    Some(open) => open.points.push(point),
                    None => forest.orphan_points.push(point),
                }
            }
        }
    }
    if let Some(open) = stack.last() {
        return Err(structure(
            records.len(),
            format!(
                "span \"{}\" (line {}) still open at end of trace",
                open.name, open.start_line
            ),
        ));
    }
    Ok(forest)
}

fn structure(line: usize, msg: String) -> ObsError {
    ObsError::Structure { line, msg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::parse_trace;

    fn forest_of(lines: &[&str]) -> Result<SpanForest, ObsError> {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        build_forest(&parse_trace(&text).expect("lexically valid"))
    }

    #[test]
    fn rebuilds_nesting_and_attaches_points() {
        let f = forest_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0,\"sampled\":4}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"client_update\",\"client\":0}",
            "{\"t\":3,\"ev\":\"point\",\"name\":\"info\",\"msg\":\"hi\"}",
            "{\"t\":4,\"ev\":\"end\",\"name\":\"client_update\"}",
            "{\"t\":5,\"ev\":\"start\",\"name\":\"aggregate\"}",
            "{\"t\":7,\"ev\":\"end\",\"name\":\"aggregate\"}",
            "{\"t\":9,\"ev\":\"end\",\"name\":\"round\"}",
            "{\"t\":10,\"ev\":\"point\",\"name\":\"fault\"}",
        ])
        .expect("well-formed");
        assert_eq!(f.records, 8);
        assert_eq!(f.roots.len(), 1);
        assert_eq!(f.orphan_points.len(), 1);
        let round = &f.roots[0];
        assert_eq!(round.name, "round");
        assert_eq!(round.duration(), 8);
        assert_eq!(round.children.len(), 2);
        assert_eq!(round.children[0].points[0].name, "info");
        // children cover (4-2) + (7-5) = 4 ticks; self is the rest.
        assert_eq!(round.child_ticks(), 4);
        assert_eq!(round.self_ticks(), 4);
        assert_eq!(round.field("sampled"), Some(&TraceValue::U64(4)));
    }

    #[test]
    fn visit_walks_depth_first_with_paths() {
        let f = forest_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\"}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"client_update\"}",
            "{\"t\":3,\"ev\":\"start\",\"name\":\"local_epoch\"}",
            "{\"t\":4,\"ev\":\"end\",\"name\":\"local_epoch\"}",
            "{\"t\":5,\"ev\":\"end\",\"name\":\"client_update\"}",
            "{\"t\":6,\"ev\":\"end\",\"name\":\"round\"}",
        ])
        .expect("well-formed");
        let mut seen = Vec::new();
        f.visit(&mut |path, node| seen.push(format!("{}/{}", path.join(";"), node.name)));
        assert_eq!(
            seen,
            vec![
                "/round",
                "round/client_update",
                "round;client_update/local_epoch"
            ]
        );
    }

    #[test]
    fn rejects_mismatched_end() {
        let err = forest_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\"}",
            "{\"t\":2,\"ev\":\"end\",\"name\":\"aggregate\"}",
        ])
        .expect_err("mismatch");
        match err {
            ObsError::Structure { line: 2, msg } => assert!(msg.contains("aggregate")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_end_with_nothing_open() {
        let err =
            forest_of(&["{\"t\":1,\"ev\":\"end\",\"name\":\"round\"}"]).expect_err("empty stack");
        assert!(matches!(err, ObsError::Structure { line: 1, .. }));
    }

    #[test]
    fn rejects_unclosed_span_at_eof() {
        let err =
            forest_of(&["{\"t\":1,\"ev\":\"start\",\"name\":\"round\"}"]).expect_err("unclosed");
        match err {
            ObsError::Structure { msg, .. } => assert!(msg.contains("still open")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_non_monotone_clock() {
        let err = forest_of(&[
            "{\"t\":5,\"ev\":\"start\",\"name\":\"round\"}",
            "{\"t\":5,\"ev\":\"end\",\"name\":\"round\"}",
        ])
        .expect_err("stuck clock");
        assert!(matches!(err, ObsError::Structure { line: 2, .. }));
    }

    #[test]
    fn empty_trace_builds_an_empty_forest() {
        let f = build_forest(&[]).expect("empty ok");
        assert!(f.roots.is_empty() && f.orphan_points.is_empty());
        assert_eq!(f.records, 0);
    }
}
