//! The text-in, report-out surface the `flprof` binary prints — the
//! whole pipeline from trace text to profile, table, flame stacks,
//! budget report and diff report — including the "seeded regression"
//! that proves the gates actually fail.

use fedwcm_obs::{analyze_text, folded_stacks, run_budget, run_diff, Profile};

/// The profile as the pretty `fedwcm-prof/v1` document `flprof analyze
/// --format json` prints.
fn json(profile: &Profile) -> String {
    profile.to_json().to_json_string_pretty()
}

/// A small synthetic trace: two rounds, the second with a slowdown
/// factor applied to its client update — the "seeded regression"
/// used to prove the budget gate actually fails.
fn trace(slow_factor: u64) -> String {
    let mut lines = Vec::new();
    let mut t = 1u64;
    for round in 0..2u64 {
        let stretch = if round == 1 { slow_factor } else { 1 };
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"start\",\"name\":\"round\",\"round\":{round}}}"
        ));
        t += 1;
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"start\",\"name\":\"client_update\"}}"
        ));
        t += 10 * stretch;
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"end\",\"name\":\"client_update\"}}"
        ));
        t += 1;
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"start\",\"name\":\"aggregate\"}}"
        ));
        t += 3;
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"end\",\"name\":\"aggregate\"}}"
        ));
        t += 1;
        lines.push(format!("{{\"t\":{t},\"ev\":\"end\",\"name\":\"round\"}}"));
        t += 1;
    }
    lines.into_iter().map(|l| format!("{l}\n")).collect()
}

const BUDGET: &str = r#"{
    "schema": "fedwcm-prof-budget/v1",
    "total_ticks_max": 60,
    "growth_ratio_max": 1.5,
    "phases": [
        {"name": "client_update", "p99_max": 15},
        {"name": "aggregate", "total_max": 10}
    ]
}"#;

#[test]
fn clean_trace_passes_the_budget() {
    let (profile, _) = analyze_text(&trace(1)).expect("valid trace");
    let (report, ok) = run_budget(BUDGET, &profile).expect("valid budget");
    assert!(ok, "unexpected violations: {report}");
    assert!(report.contains("\"ok\": true"));
}

#[test]
fn seeded_regression_fails_the_budget() {
    // Stretch round 1's client update 10x: p99 and total ticks both
    // blow through the committed ceilings.
    let (profile, _) = analyze_text(&trace(10)).expect("valid trace");
    let (report, ok) = run_budget(BUDGET, &profile).expect("valid budget");
    assert!(!ok, "the slowed span must violate the budget");
    assert!(report.contains("client_update"));
    assert!(report.contains("total_ticks"));
}

#[test]
fn seeded_regression_fails_the_diff_gate_too() {
    let (base, _) = analyze_text(&trace(1)).expect("valid");
    let (cur, _) = analyze_text(&trace(10)).expect("valid");
    let (report, ok) = run_diff(&json(&base), &json(&cur), Some(BUDGET)).expect("valid inputs");
    assert!(!ok);
    assert!(report.contains("\"schema\": \"fedwcm-prof-diff/v1\""));
    assert!(report.contains("client_update"));
    // Self-diff stays clean.
    let (_, ok) = run_diff(&json(&base), &json(&base), Some(BUDGET)).expect("valid inputs");
    assert!(ok);
}

#[test]
fn profile_json_is_byte_stable() {
    let (a, _) = analyze_text(&trace(1)).expect("valid");
    let (b, _) = analyze_text(&trace(1)).expect("valid");
    assert_eq!(json(&a), json(&b));
    assert!(json(&a).ends_with('\n'));
}

#[test]
fn table_and_flame_render() {
    let (profile, forest) = analyze_text(&trace(1)).expect("valid");
    let table = profile.table();
    assert!(table.contains("client_update"));
    assert!(table.contains("compute-bound"));
    assert!(table.contains("round;client_update"));
    let flame = folded_stacks(&forest);
    assert!(flame.contains("round;aggregate 6\n"));
}

#[test]
fn bad_inputs_surface_typed_errors() {
    assert!(analyze_text("not json\n").is_err());
    let (profile, _) = analyze_text(&trace(1)).expect("valid");
    assert!(run_budget("{\"schema\":\"wrong\"}", &profile).is_err());
    assert!(run_diff("{}", "{}", None).is_err());
}
