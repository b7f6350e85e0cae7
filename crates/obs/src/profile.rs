//! Phase attribution, per-round critical paths, and the profile
//! document.
//!
//! A [`Profile`] condenses a reconstructed [`SpanForest`] into per-phase
//! totals with exact nearest-rank percentiles, a four-way attribution
//! of every tick (compute, fault injection, wire, orchestration
//! overhead), and a per-round breakdown that labels each round
//! compute-, straggler-, or wire-bound and names its critical path. All
//! tick accounting uses *self time* — a span's duration minus its
//! direct children's — so nested spans never double-count, and the
//! totals partition exactly.
//!
//! Profiles serialize to the `fedwcm-prof/v1` JSON schema: fixed key
//! order, phases sorted by name, rounds sorted by round number, and no
//! timestamps — two runs of the same experiment produce byte-identical
//! documents regardless of thread count or wall time, which is what
//! lets `tests/profile_determinism.rs` pin one by its CRC32.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::tree::{SpanForest, SpanNode};
// The span and point names the attributor keys on.
use fedwcm_trace::names::{FAULT, FAULT_INJECT, RETRY, ROUND, SEND_FRAME};

/// Schema tag emitted by [`Profile::to_json`].
pub const PROFILE_SCHEMA: &str = "fedwcm-prof/v1";

/// Aggregate statistics for one span name across the whole trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ticks: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ticks: u64,
    /// Sum of direct-child durations.
    pub child_ticks: u64,
    /// Shortest single span.
    pub min_ticks: u64,
    /// Longest single span.
    pub max_ticks: u64,
    /// Median duration (nearest rank).
    pub p50_ticks: u64,
    /// 95th-percentile duration (nearest rank).
    pub p95_ticks: u64,
    /// 99th-percentile duration (nearest rank).
    pub p99_ticks: u64,
}

/// Occurrence count for one point name across the whole trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointStat {
    /// Point name.
    pub name: String,
    /// Number of occurrences (span-attached and orphan).
    pub count: u64,
}

/// Where the trace's ticks went, partitioned by span self-time:
/// `fault_inject` spans are fault time, `send_frame` spans are wire
/// time, `round` self-time is orchestration overhead, and everything
/// else is compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Self-ticks of compute spans (training, aggregation, evaluation).
    pub compute_ticks: u64,
    /// Self-ticks of `fault_inject` spans.
    pub fault_ticks: u64,
    /// Self-ticks of `send_frame` spans.
    pub wire_ticks: u64,
    /// Self-ticks of `round` spans (orchestration between phases).
    pub overhead_ticks: u64,
}

impl Attribution {
    fn add(&mut self, name: &str, self_ticks: u64) {
        match name {
            FAULT_INJECT => self.fault_ticks += self_ticks,
            SEND_FRAME => self.wire_ticks += self_ticks,
            ROUND => self.overhead_ticks += self_ticks,
            _ => self.compute_ticks += self_ticks,
        }
    }
}

/// What dominated a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundLabel {
    /// Training and aggregation dominated.
    ComputeBound,
    /// Fault injection (dropouts, stragglers, corruption) dominated.
    StragglerBound,
    /// Transport (framing, retries) dominated.
    WireBound,
}

impl RoundLabel {
    /// The schema string for this label.
    pub fn as_str(self) -> &'static str {
        match self {
            RoundLabel::ComputeBound => "compute-bound",
            RoundLabel::StragglerBound => "straggler-bound",
            RoundLabel::WireBound => "wire-bound",
        }
    }
}

/// One federated round's tick breakdown and critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundProfile {
    /// Round number (from the `round` span's `round` field; rounds
    /// without the field are numbered by order of appearance).
    pub round: u64,
    /// Total ticks of the round span.
    pub ticks: u64,
    /// Compute self-ticks inside the round.
    pub compute_ticks: u64,
    /// Fault-injection self-ticks inside the round.
    pub fault_ticks: u64,
    /// Wire self-ticks inside the round.
    pub wire_ticks: u64,
    /// The round span's own self-ticks.
    pub overhead_ticks: u64,
    /// `fault` points fired inside the round.
    pub fault_points: u64,
    /// `retry` points fired inside the round.
    pub retry_points: u64,
    /// What dominated: wire-bound when wire ticks beat compute and at
    /// least match fault ticks; straggler-bound when fault ticks beat
    /// both; compute-bound otherwise.
    pub label: RoundLabel,
    /// Span names from the round to its deepest dominant descendant,
    /// joined with `;` (ties break toward the earlier start).
    pub critical_path: String,
}

/// The complete analysis of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Records in the source trace.
    pub records: u64,
    /// Spans reconstructed.
    pub spans: u64,
    /// Points recorded (span-attached plus orphan).
    pub points: u64,
    /// Sum of top-level span durations.
    pub total_ticks: u64,
    /// Four-way tick attribution over the whole trace.
    pub attribution: Attribution,
    /// Per-span-name statistics, sorted by name.
    pub phases: Vec<PhaseStat>,
    /// Per-point-name counts, sorted by name.
    pub point_totals: Vec<PointStat>,
    /// Per-round breakdowns, sorted by round number.
    pub rounds: Vec<RoundProfile>,
}

/// Exact nearest-rank percentile of a sorted sample: the smallest
/// element whose rank is at least `q * n`. `sorted` must be non-empty.
#[expect(
    clippy::cast_possible_truncation,
    reason = "rank is clamped to n = sorted.len(), which came from a usize"
)]
fn nearest_rank(sorted: &[u64], q_num: u64, q_den: u64) -> u64 {
    let n = sorted.len() as u64;
    // rank = ceil(n * q_num / q_den), clamped to [1, n].
    let rank = (n * q_num).div_ceil(q_den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

struct PhaseAcc {
    durations: Vec<u64>,
    self_ticks: u64,
}

/// Analyze a reconstructed forest into a [`Profile`].
pub fn analyze(forest: &SpanForest) -> Profile {
    let mut phases: BTreeMap<String, PhaseAcc> = BTreeMap::new();
    let mut points: BTreeMap<String, u64> = BTreeMap::new();
    let mut attribution = Attribution::default();
    let mut spans = 0u64;
    let mut point_count = 0u64;
    forest.visit(&mut |_, node| {
        spans += 1;
        let self_ticks = node.self_ticks();
        attribution.add(&node.name, self_ticks);
        let acc = phases.entry(node.name.clone()).or_insert(PhaseAcc {
            durations: Vec::new(),
            self_ticks: 0,
        });
        acc.durations.push(node.duration());
        acc.self_ticks += self_ticks;
        for p in &node.points {
            point_count += 1;
            *points.entry(p.name.clone()).or_insert(0) += 1;
        }
    });
    for p in &forest.orphan_points {
        point_count += 1;
        *points.entry(p.name.clone()).or_insert(0) += 1;
    }
    let phases = phases
        .into_iter()
        .map(|(name, mut acc)| {
            acc.durations.sort_unstable();
            let total: u64 = acc.durations.iter().sum();
            PhaseStat {
                name,
                count: acc.durations.len() as u64,
                total_ticks: total,
                self_ticks: acc.self_ticks,
                child_ticks: total - acc.self_ticks,
                min_ticks: acc.durations[0],
                max_ticks: acc.durations[acc.durations.len() - 1],
                p50_ticks: nearest_rank(&acc.durations, 50, 100),
                p95_ticks: nearest_rank(&acc.durations, 95, 100),
                p99_ticks: nearest_rank(&acc.durations, 99, 100),
            }
        })
        .collect();
    let point_totals = points
        .into_iter()
        .map(|(name, count)| PointStat { name, count })
        .collect();
    let mut rounds = rounds_of(forest);
    rounds.sort_by_key(|r| r.round);
    Profile {
        records: forest.records as u64,
        spans,
        points: point_count,
        total_ticks: forest.roots.iter().map(SpanNode::duration).sum(),
        attribution,
        phases,
        point_totals,
        rounds,
    }
}

fn rounds_of(forest: &SpanForest) -> Vec<RoundProfile> {
    let mut rounds = Vec::new();
    let mut fallback_number = 0u64;
    forest.visit(&mut |_, node| {
        if node.name != ROUND {
            return;
        }
        let round = match node.field("round").and_then(|v| v.as_u64()) {
            Some(r) => r,
            None => fallback_number,
        };
        fallback_number += 1;
        rounds.push(round_profile(node, round));
    });
    rounds
}

fn round_profile(node: &SpanNode, round: u64) -> RoundProfile {
    let mut attribution = Attribution::default();
    let mut fault_points = 0u64;
    let mut retry_points = 0u64;
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        attribution.add(&n.name, n.self_ticks());
        for p in &n.points {
            match p.name.as_str() {
                FAULT => fault_points += 1,
                RETRY => retry_points += 1,
                _ => {}
            }
        }
        stack.extend(n.children.iter());
    }
    let Attribution {
        compute_ticks,
        fault_ticks,
        wire_ticks,
        overhead_ticks,
    } = attribution;
    let label = if wire_ticks > compute_ticks && wire_ticks >= fault_ticks {
        RoundLabel::WireBound
    } else if fault_ticks > compute_ticks && fault_ticks > wire_ticks {
        RoundLabel::StragglerBound
    } else {
        RoundLabel::ComputeBound
    };
    RoundProfile {
        round,
        ticks: node.duration(),
        compute_ticks,
        fault_ticks,
        wire_ticks,
        overhead_ticks,
        fault_points,
        retry_points,
        label,
        critical_path: critical_path(node),
    }
}

/// The chain of dominant descendants: starting at `node`, repeatedly
/// descend into the longest child (ties break toward the earliest
/// start) and join the names with `;`.
pub fn critical_path(node: &SpanNode) -> String {
    let mut path = node.name.clone();
    let mut cur = node;
    while let Some(next) = cur
        .children
        .iter()
        // max_by_key takes the last maximum; compare (duration, Reverse
        // of position via start tick) so earlier starts win ties.
        .max_by(|a, b| {
            a.duration()
                .cmp(&b.duration())
                .then(b.start_t.cmp(&a.start_t))
        })
    {
        path.push(';');
        path.push_str(&next.name);
        cur = next;
    }
    path
}

impl Profile {
    /// Serialize to the `fedwcm-prof/v1` document.
    pub fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name.clone())),
                    ("count".into(), Json::U64(p.count)),
                    ("total_ticks".into(), Json::U64(p.total_ticks)),
                    ("self_ticks".into(), Json::U64(p.self_ticks)),
                    ("child_ticks".into(), Json::U64(p.child_ticks)),
                    ("min_ticks".into(), Json::U64(p.min_ticks)),
                    ("max_ticks".into(), Json::U64(p.max_ticks)),
                    ("p50_ticks".into(), Json::U64(p.p50_ticks)),
                    ("p95_ticks".into(), Json::U64(p.p95_ticks)),
                    ("p99_ticks".into(), Json::U64(p.p99_ticks)),
                ])
            })
            .collect();
        let points = self
            .point_totals
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name.clone())),
                    ("count".into(), Json::U64(p.count)),
                ])
            })
            .collect();
        let rounds = self
            .rounds
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("round".into(), Json::U64(r.round)),
                    ("ticks".into(), Json::U64(r.ticks)),
                    ("compute_ticks".into(), Json::U64(r.compute_ticks)),
                    ("fault_ticks".into(), Json::U64(r.fault_ticks)),
                    ("wire_ticks".into(), Json::U64(r.wire_ticks)),
                    ("overhead_ticks".into(), Json::U64(r.overhead_ticks)),
                    ("fault_points".into(), Json::U64(r.fault_points)),
                    ("retry_points".into(), Json::U64(r.retry_points)),
                    ("label".into(), Json::Str(r.label.as_str().into())),
                    ("critical_path".into(), Json::Str(r.critical_path.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(PROFILE_SCHEMA.into())),
            ("records".into(), Json::U64(self.records)),
            ("spans".into(), Json::U64(self.spans)),
            ("points".into(), Json::U64(self.points)),
            ("total_ticks".into(), Json::U64(self.total_ticks)),
            (
                "attribution".into(),
                Json::Obj(vec![
                    (
                        "compute_ticks".into(),
                        Json::U64(self.attribution.compute_ticks),
                    ),
                    (
                        "fault_ticks".into(),
                        Json::U64(self.attribution.fault_ticks),
                    ),
                    ("wire_ticks".into(), Json::U64(self.attribution.wire_ticks)),
                    (
                        "overhead_ticks".into(),
                        Json::U64(self.attribution.overhead_ticks),
                    ),
                ]),
            ),
            ("phases".into(), Json::Arr(phases)),
            ("points_by_name".into(), Json::Arr(points)),
            ("rounds".into(), Json::Arr(rounds)),
        ])
    }

    /// The phase entry for `name`, if the trace contained such spans.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Human-readable rendering: totals, the four-way attribution, a
    /// per-phase table, and one line per round with its label and
    /// critical path.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "records {}  spans {}  points {}  total_ticks {}\n",
            self.records, self.spans, self.points, self.total_ticks
        ));
        let a = self.attribution;
        out.push_str(&format!(
            "attribution: compute {}  faults {}  wire {}  overhead {}\n\n",
            a.compute_ticks, a.fault_ticks, a.wire_ticks, a.overhead_ticks
        ));
        out.push_str(&format!(
            "{:<16} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            "phase", "count", "total", "self", "min", "max", "p50", "p95", "p99"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<16} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                p.name,
                p.count,
                p.total_ticks,
                p.self_ticks,
                p.min_ticks,
                p.max_ticks,
                p.p50_ticks,
                p.p95_ticks,
                p.p99_ticks
            ));
        }
        if !self.rounds.is_empty() {
            out.push('\n');
            for r in &self.rounds {
                out.push_str(&format!(
                    "round {:>3}: {:>7} ticks  {:<15} faults={} retries={}  {}\n",
                    r.round,
                    r.ticks,
                    r.label.as_str(),
                    r.fault_points,
                    r.retry_points,
                    r.critical_path
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(lines: &[&str]) -> Profile {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        crate::analyze_text(&text).expect("valid trace").0
    }

    fn compute_round() -> Vec<&'static str> {
        vec![
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"client_update\"}",
            "{\"t\":3,\"ev\":\"start\",\"name\":\"local_epoch\"}",
            "{\"t\":9,\"ev\":\"end\",\"name\":\"local_epoch\"}",
            "{\"t\":10,\"ev\":\"end\",\"name\":\"client_update\"}",
            "{\"t\":11,\"ev\":\"start\",\"name\":\"fault_inject\"}",
            "{\"t\":12,\"ev\":\"point\",\"name\":\"fault\",\"kind\":\"dropout\"}",
            "{\"t\":13,\"ev\":\"end\",\"name\":\"fault_inject\"}",
            "{\"t\":14,\"ev\":\"start\",\"name\":\"send_frame\"}",
            "{\"t\":15,\"ev\":\"point\",\"name\":\"retry\"}",
            "{\"t\":16,\"ev\":\"end\",\"name\":\"send_frame\"}",
            "{\"t\":18,\"ev\":\"end\",\"name\":\"round\"}",
        ]
    }

    #[test]
    fn attribution_partitions_every_tick() {
        let p = profile_of(&compute_round());
        let a = p.attribution;
        // round: 17 total; client_update self = 8-6=2? client_update
        // spans t2..t10 (8 ticks), local_epoch t3..t9 (6 ticks), so
        // client_update self 2, local_epoch self 6, fault_inject 2,
        // send_frame 2, round self 17-8-2-2 = 5.
        assert_eq!(a.compute_ticks, 8);
        assert_eq!(a.fault_ticks, 2);
        assert_eq!(a.wire_ticks, 2);
        assert_eq!(a.overhead_ticks, 5);
        assert_eq!(
            a.compute_ticks + a.fault_ticks + a.wire_ticks + a.overhead_ticks,
            p.total_ticks
        );
    }

    #[test]
    fn rounds_get_labels_paths_and_point_counts() {
        let p = profile_of(&compute_round());
        assert_eq!(p.rounds.len(), 1);
        let r = &p.rounds[0];
        assert_eq!(r.round, 0);
        assert_eq!(r.ticks, 17);
        assert_eq!(r.label, RoundLabel::ComputeBound);
        assert_eq!(r.critical_path, "round;client_update;local_epoch");
        assert_eq!(r.fault_points, 1);
        assert_eq!(r.retry_points, 1);
    }

    #[test]
    fn straggler_and_wire_labels() {
        let straggler = profile_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"fault_inject\"}",
            "{\"t\":9,\"ev\":\"end\",\"name\":\"fault_inject\"}",
            "{\"t\":10,\"ev\":\"start\",\"name\":\"aggregate\"}",
            "{\"t\":11,\"ev\":\"end\",\"name\":\"aggregate\"}",
            "{\"t\":12,\"ev\":\"end\",\"name\":\"round\"}",
        ]);
        assert_eq!(straggler.rounds[0].label, RoundLabel::StragglerBound);
        assert_eq!(straggler.rounds[0].critical_path, "round;fault_inject");
        let wire = profile_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"send_frame\"}",
            "{\"t\":9,\"ev\":\"end\",\"name\":\"send_frame\"}",
            "{\"t\":10,\"ev\":\"start\",\"name\":\"aggregate\"}",
            "{\"t\":11,\"ev\":\"end\",\"name\":\"aggregate\"}",
            "{\"t\":12,\"ev\":\"end\",\"name\":\"round\"}",
        ]);
        assert_eq!(wire.rounds[0].label, RoundLabel::WireBound);
    }

    #[test]
    fn critical_path_ties_break_toward_the_earlier_start() {
        let p = profile_of(&[
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}",
            "{\"t\":2,\"ev\":\"start\",\"name\":\"aggregate\"}",
            "{\"t\":4,\"ev\":\"end\",\"name\":\"aggregate\"}",
            "{\"t\":5,\"ev\":\"start\",\"name\":\"evaluate\"}",
            "{\"t\":7,\"ev\":\"end\",\"name\":\"evaluate\"}",
            "{\"t\":8,\"ev\":\"end\",\"name\":\"round\"}",
        ]);
        // aggregate and evaluate both last 2 ticks; aggregate started
        // first, so it wins the path.
        assert_eq!(p.rounds[0].critical_path, "round;aggregate");
    }

    #[test]
    fn phase_percentiles_use_nearest_rank() {
        // Ten client_update spans of durations 1..=10.
        let mut lines =
            vec!["{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}".to_string()];
        let mut t = 2;
        for d in 1..=10u64 {
            lines.push(format!(
                "{{\"t\":{t},\"ev\":\"start\",\"name\":\"client_update\"}}"
            ));
            lines.push(format!(
                "{{\"t\":{},\"ev\":\"end\",\"name\":\"client_update\"}}",
                t + d
            ));
            t += d + 1;
        }
        lines.push(format!("{{\"t\":{t},\"ev\":\"end\",\"name\":\"round\"}}"));
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let p = profile_of(&refs);
        let cu = p.phase("client_update").expect("phase present");
        assert_eq!(cu.count, 10);
        assert_eq!((cu.min_ticks, cu.max_ticks), (1, 10));
        assert_eq!(cu.p50_ticks, 5); // rank ceil(10*0.50) = 5
        assert_eq!(cu.p95_ticks, 10); // rank ceil(10*0.95) = 10
        assert_eq!(cu.p99_ticks, 10);
    }

    #[test]
    fn empty_forest_profiles_to_zeroes() {
        let p = analyze(&SpanForest::default());
        assert_eq!(p.spans, 0);
        assert_eq!(p.total_ticks, 0);
        assert!(p.phases.is_empty() && p.rounds.is_empty());
    }
}
