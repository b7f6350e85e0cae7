//! Performance budgets and run diffs.
//!
//! A [`Budget`] is a committed `fedwcm-prof-budget/v1` JSON document
//! giving ceilings for a profile: total ticks, record count, the
//! orchestration-overhead ratio, and per-phase total / self / p99
//! limits. [`Budget::check`] evaluates a [`Profile`] against those
//! ceilings and returns every violation as a sorted, human-readable
//! list — CI fails the build when the list is non-empty, which is what
//! turns the deterministic tick accounting into a regression gate.
//!
//! [`diff`] compares two profiles (typically a committed baseline and
//! the current run) phase by phase and emits a `fedwcm-prof-diff/v1`
//! report: sorted, timestamp-free, and byte-stable, so the report
//! itself can be committed or attached as a CI artifact. When a budget
//! supplies `growth_ratio_max`, phases whose total ticks grew beyond
//! that factor are listed as regressions and the report's `ok` flips
//! to `false`.

use crate::error::ObsError;
use crate::json::Json;
use crate::profile::{require_arr, require_str, Profile};

/// Schema tag for budget documents.
pub const BUDGET_SCHEMA: &str = "fedwcm-prof-budget/v1";
/// Schema tag for diff reports.
pub const DIFF_SCHEMA: &str = "fedwcm-prof-diff/v1";

/// Ceilings for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseBudget {
    /// Span name the ceilings apply to.
    pub name: String,
    /// Maximum summed duration across all spans of this name.
    pub total_max: Option<u64>,
    /// Maximum summed self time.
    pub self_max: Option<u64>,
    /// Maximum p99 single-span duration.
    pub p99_max: Option<u64>,
}

/// A parsed performance budget.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Budget {
    /// Ceiling on the profile's total ticks.
    pub total_ticks_max: Option<u64>,
    /// Ceiling on the number of trace records.
    pub events_max: Option<u64>,
    /// Ceiling on `overhead_ticks / total_ticks`.
    pub overhead_ratio_max: Option<f64>,
    /// Ceiling on per-phase growth in [`diff`]: current total ticks
    /// must not exceed baseline total ticks times this factor.
    pub growth_ratio_max: Option<f64>,
    /// Per-phase ceilings. A budgeted phase missing from the profile
    /// is itself a violation — a renamed span must not silently pass.
    pub phases: Vec<PhaseBudget>,
}

/// The outcome of [`Budget::check`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetReport {
    /// Every ceiling that was exceeded, sorted.
    pub violations: Vec<String>,
}

impl BudgetReport {
    /// Whether the profile stayed within every ceiling.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialize as `{"ok":…,"violations":[…]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(self.ok())),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn optional_u64(doc: &Json, key: &str) -> Result<Option<u64>, ObsError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ObsError::schema(format!("{key:?} must be a non-negative integer"))),
    }
}

fn optional_ratio(doc: &Json, key: &str) -> Result<Option<f64>, ObsError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(Some(x)),
            _ => Err(ObsError::schema(format!(
                "{key:?} must be a finite non-negative number"
            ))),
        },
    }
}

impl Budget {
    /// Parse a `fedwcm-prof-budget/v1` document.
    pub fn from_json(doc: &Json) -> Result<Budget, ObsError> {
        let schema = require_str(doc, "schema")?;
        if schema != BUDGET_SCHEMA {
            return Err(ObsError::schema(format!(
                "expected schema {BUDGET_SCHEMA:?}, got {schema:?}"
            )));
        }
        let phases = match doc.get("phases") {
            None => Vec::new(),
            Some(_) => require_arr(doc, "phases")?
                .iter()
                .map(|p| {
                    Ok(PhaseBudget {
                        name: require_str(p, "name")?.to_string(),
                        total_max: optional_u64(p, "total_max")?,
                        self_max: optional_u64(p, "self_max")?,
                        p99_max: optional_u64(p, "p99_max")?,
                    })
                })
                .collect::<Result<Vec<_>, ObsError>>()?,
        };
        Ok(Budget {
            total_ticks_max: optional_u64(doc, "total_ticks_max")?,
            events_max: optional_u64(doc, "events_max")?,
            overhead_ratio_max: optional_ratio(doc, "overhead_ratio_max")?,
            growth_ratio_max: optional_ratio(doc, "growth_ratio_max")?,
            phases,
        })
    }

    /// Parse a budget from JSON text.
    pub fn parse(text: &str) -> Result<Budget, ObsError> {
        Budget::from_json(&crate::json::parse(text.trim_end(), 1)?)
    }

    /// Evaluate `profile` against every ceiling.
    pub fn check(&self, profile: &Profile) -> BudgetReport {
        let mut violations = Vec::new();
        if let Some(max) = self.total_ticks_max {
            if profile.total_ticks > max {
                violations.push(format!(
                    "total_ticks {} exceeds budget {max}",
                    profile.total_ticks
                ));
            }
        }
        if let Some(max) = self.events_max {
            if profile.records > max {
                violations.push(format!("records {} exceeds budget {max}", profile.records));
            }
        }
        if let Some(max) = self.overhead_ratio_max {
            if profile.total_ticks > 0 {
                let ratio = profile.attribution.overhead_ticks as f64 / profile.total_ticks as f64;
                if ratio > max {
                    violations.push(format!("overhead ratio {ratio:.4} exceeds budget {max}"));
                }
            }
        }
        for pb in &self.phases {
            let Some(stat) = profile.phase(&pb.name) else {
                violations.push(format!(
                    "budgeted phase \"{}\" absent from profile",
                    pb.name
                ));
                continue;
            };
            if let Some(max) = pb.total_max {
                if stat.total_ticks > max {
                    violations.push(format!(
                        "phase \"{}\" total_ticks {} exceeds budget {max}",
                        pb.name, stat.total_ticks
                    ));
                }
            }
            if let Some(max) = pb.self_max {
                if stat.self_ticks > max {
                    violations.push(format!(
                        "phase \"{}\" self_ticks {} exceeds budget {max}",
                        pb.name, stat.self_ticks
                    ));
                }
            }
            if let Some(max) = pb.p99_max {
                if stat.p99_ticks > max {
                    violations.push(format!(
                        "phase \"{}\" p99_ticks {} exceeds budget {max}",
                        pb.name, stat.p99_ticks
                    ));
                }
            }
        }
        violations.sort();
        BudgetReport { violations }
    }
}

/// One phase's baseline-versus-current comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseDiff {
    /// Span name.
    pub name: String,
    /// Baseline total ticks (0 when the phase is new).
    pub base_total_ticks: u64,
    /// Current total ticks (0 when the phase disappeared).
    pub cur_total_ticks: u64,
    /// Baseline p99 duration.
    pub base_p99_ticks: u64,
    /// Current p99 duration.
    pub cur_p99_ticks: u64,
}

impl PhaseDiff {
    /// Signed change in total ticks (saturating at the `i64` range).
    pub fn delta_ticks(&self) -> i64 {
        let delta = i128::from(self.cur_total_ticks) - i128::from(self.base_total_ticks);
        i64::try_from(delta).unwrap_or(if delta < 0 { i64::MIN } else { i64::MAX })
    }
}

/// A `fedwcm-prof-diff/v1` regression report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffReport {
    /// Baseline total ticks.
    pub base_total_ticks: u64,
    /// Current total ticks.
    pub cur_total_ticks: u64,
    /// Per-phase comparison over the union of phase names, sorted.
    pub phases: Vec<PhaseDiff>,
    /// Growth-ratio violations, sorted. Empty when no budget with
    /// `growth_ratio_max` was supplied.
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// Whether the current run stayed within the allowed growth.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Serialize to the `fedwcm-prof-diff/v1` document.
    pub fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name.clone())),
                    ("base_total_ticks".into(), Json::U64(p.base_total_ticks)),
                    ("cur_total_ticks".into(), Json::U64(p.cur_total_ticks)),
                    ("delta_ticks".into(), delta_json(p.delta_ticks())),
                    ("base_p99_ticks".into(), Json::U64(p.base_p99_ticks)),
                    ("cur_p99_ticks".into(), Json::U64(p.cur_p99_ticks)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(DIFF_SCHEMA.into())),
            ("ok".into(), Json::Bool(self.ok())),
            ("base_total_ticks".into(), Json::U64(self.base_total_ticks)),
            ("cur_total_ticks".into(), Json::U64(self.cur_total_ticks)),
            ("phases".into(), Json::Arr(phases)),
            (
                "regressions".into(),
                Json::Arr(
                    self.regressions
                        .iter()
                        .map(|r| Json::Str(r.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn delta_json(delta: i64) -> Json {
    if delta >= 0 {
        // Non-negative deltas encode as unsigned so small positive
        // values print without a sign, matching the trace encoder's
        // integer split.
        match u64::try_from(delta) {
            Ok(x) => Json::U64(x),
            Err(_) => Json::I64(delta),
        }
    } else {
        Json::I64(delta)
    }
}

/// Compare `current` against `baseline`. With a budget carrying
/// `growth_ratio_max`, phases whose total ticks grew beyond
/// `baseline * ratio` (and phases that appeared from nothing) become
/// regressions.
pub fn diff(baseline: &Profile, current: &Profile, budget: Option<&Budget>) -> DiffReport {
    let mut names: Vec<&str> = baseline
        .phases
        .iter()
        .chain(current.phases.iter())
        .map(|p| p.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let phases: Vec<PhaseDiff> = names
        .into_iter()
        .map(|name| {
            let base = baseline.phase(name);
            let cur = current.phase(name);
            PhaseDiff {
                name: name.to_string(),
                base_total_ticks: base.map_or(0, |p| p.total_ticks),
                cur_total_ticks: cur.map_or(0, |p| p.total_ticks),
                base_p99_ticks: base.map_or(0, |p| p.p99_ticks),
                cur_p99_ticks: cur.map_or(0, |p| p.p99_ticks),
            }
        })
        .collect();
    let mut regressions = Vec::new();
    if let Some(ratio) = budget.and_then(|b| b.growth_ratio_max) {
        for p in &phases {
            if p.base_total_ticks == 0 {
                if p.cur_total_ticks > 0 {
                    regressions.push(format!(
                        "phase \"{}\" appeared ({} ticks, no baseline)",
                        p.name, p.cur_total_ticks
                    ));
                }
            } else if p.cur_total_ticks as f64 > p.base_total_ticks as f64 * ratio {
                regressions.push(format!(
                    "phase \"{}\" grew {} -> {} ticks (allowed factor {ratio})",
                    p.name, p.base_total_ticks, p.cur_total_ticks
                ));
            }
        }
        if baseline.total_ticks > 0
            && current.total_ticks as f64 > baseline.total_ticks as f64 * ratio
        {
            regressions.push(format!(
                "total_ticks grew {} -> {} (allowed factor {ratio})",
                baseline.total_ticks, current.total_ticks
            ));
        }
        regressions.sort();
    }
    DiffReport {
        base_total_ticks: baseline.total_ticks,
        cur_total_ticks: current.total_ticks,
        phases,
        regressions,
    }
}

/// Evaluate a budget document against a profile: the report JSON
/// (pretty, byte-stable) and whether every ceiling held.
pub fn run_budget(budget_text: &str, profile: &Profile) -> Result<(String, bool), ObsError> {
    let report = Budget::parse(budget_text)?.check(profile);
    Ok((report.to_json().to_json_string_pretty(), report.ok()))
}

/// Diff a current profile document against a committed baseline,
/// optionally gated by a budget's `growth_ratio_max`: the
/// `fedwcm-prof-diff/v1` report JSON and whether no regression fired.
pub fn run_diff(
    baseline_text: &str,
    current_text: &str,
    budget_text: Option<&str>,
) -> Result<(String, bool), ObsError> {
    let profile = |text: &str| Profile::from_json(&crate::json::parse(text.trim_end(), 1)?);
    let budget = budget_text.map(Budget::parse).transpose()?;
    let report = diff(
        &profile(baseline_text)?,
        &profile(current_text)?,
        budget.as_ref(),
    );
    Ok((report.to_json().to_json_string_pretty(), report.ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(lines: &[String]) -> Profile {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        crate::analyze_text(&text).expect("valid trace").0
    }

    fn round_trace(client_ticks: u64) -> Vec<String> {
        vec![
            "{\"t\":1,\"ev\":\"start\",\"name\":\"round\",\"round\":0}".to_string(),
            "{\"t\":2,\"ev\":\"start\",\"name\":\"client_update\"}".to_string(),
            format!(
                "{{\"t\":{},\"ev\":\"end\",\"name\":\"client_update\"}}",
                2 + client_ticks
            ),
            format!(
                "{{\"t\":{},\"ev\":\"end\",\"name\":\"round\"}}",
                3 + client_ticks
            ),
        ]
    }

    fn budget_doc(extra: &str) -> Budget {
        Budget::parse(&format!("{{\"schema\":\"fedwcm-prof-budget/v1\"{extra}}}"))
            .expect("valid budget")
    }

    #[test]
    fn budget_passes_within_ceilings() {
        let p = profile_of(&round_trace(4));
        let b = budget_doc(
            ",\"total_ticks_max\":100,\"events_max\":100,\"overhead_ratio_max\":0.9,\
             \"phases\":[{\"name\":\"client_update\",\"total_max\":10,\"p99_max\":10}]",
        );
        let report = b.check(&p);
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn budget_catches_every_ceiling() {
        let p = profile_of(&round_trace(50));
        let b = budget_doc(
            ",\"total_ticks_max\":10,\"events_max\":2,\"overhead_ratio_max\":0.001,\
             \"phases\":[{\"name\":\"client_update\",\"total_max\":5,\"self_max\":5,\
             \"p99_max\":5},{\"name\":\"evaluate\"}]",
        );
        let report = b.check(&p);
        assert_eq!(report.violations.len(), 7);
        assert!(!report.ok());
        // Sorted output: a renamed / absent phase is itself flagged.
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("\"evaluate\" absent")));
    }

    #[test]
    fn budget_rejects_bad_documents() {
        assert!(Budget::parse("{\"schema\":\"nope/v1\"}").is_err());
        assert!(
            Budget::parse("{\"schema\":\"fedwcm-prof-budget/v1\",\"total_ticks_max\":-1}").is_err()
        );
        assert!(Budget::parse(
            "{\"schema\":\"fedwcm-prof-budget/v1\",\"overhead_ratio_max\":\"x\"}"
        )
        .is_err());
    }

    #[test]
    fn diff_reports_growth_and_flags_regressions() {
        let base = profile_of(&round_trace(4));
        let cur = profile_of(&round_trace(40));
        let b = budget_doc(",\"growth_ratio_max\":1.5");
        let report = diff(&base, &cur, Some(&b));
        assert!(!report.ok());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("client_update")));
        let cu = report
            .phases
            .iter()
            .find(|p| p.name == "client_update")
            .expect("phase diffed");
        assert_eq!((cu.base_total_ticks, cu.cur_total_ticks), (4, 40));
        assert_eq!(cu.delta_ticks(), 36);
    }

    #[test]
    fn diff_without_budget_never_regresses() {
        let base = profile_of(&round_trace(4));
        let cur = profile_of(&round_trace(400));
        let report = diff(&base, &cur, None);
        assert!(report.ok());
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn diff_of_identical_profiles_is_clean_and_stable() {
        let p = profile_of(&round_trace(4));
        let report = diff(&p, &p, Some(&budget_doc(",\"growth_ratio_max\":1.0")));
        assert!(report.ok());
        let doc = report.to_json().to_json_string();
        assert_eq!(doc, diff(&p, &p, None).to_json().to_json_string());
        assert!(doc.contains("\"schema\":\"fedwcm-prof-diff/v1\""));
    }

    #[test]
    fn new_phases_count_as_regressions_under_a_growth_budget() {
        let base = profile_of(&round_trace(4));
        let mut lines = round_trace(4);
        lines.insert(
            3,
            "{\"t\":7,\"ev\":\"start\",\"name\":\"checkpoint\"}".to_string(),
        );
        lines.insert(
            4,
            "{\"t\":8,\"ev\":\"end\",\"name\":\"checkpoint\"}".to_string(),
        );
        // Fix round end tick ordering after insertion.
        lines[5] = "{\"t\":9,\"ev\":\"end\",\"name\":\"round\"}".to_string();
        let cur = profile_of(&lines);
        let report = diff(&base, &cur, Some(&budget_doc(",\"growth_ratio_max\":10.0")));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("\"checkpoint\" appeared")));
    }
}
