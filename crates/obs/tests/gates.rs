//! The text-in, report-out surface the `flprof` binary prints — the
//! whole pipeline from trace text to profile document, table and flame
//! stacks.

use fedwcm_obs::{analyze_text, folded_stacks, Profile};

/// The profile as the pretty `fedwcm-prof/v1` document `flprof analyze
/// --format json` prints.
fn json(profile: &Profile) -> String {
    profile.to_json().to_json_string_pretty()
}

/// A small synthetic trace: two rounds of one client update and one
/// aggregation each.
fn trace() -> String {
    let mut lines = Vec::new();
    let mut t = 1u64;
    for round in 0..2u64 {
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"start\",\"name\":\"round\",\"round\":{round}}}"
        ));
        t += 1;
        lines.push(format!(
            "{{\"t\":{t},\"ev\":\"start\",\"name\":\"client_update\"}}"
        ));
        t += 10;
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

#[test]
fn profile_json_is_byte_stable() {
    let (a, _) = analyze_text(&trace()).expect("valid");
    let (b, _) = analyze_text(&trace()).expect("valid");
    assert_eq!(json(&a), json(&b));
    assert!(json(&a).ends_with('\n'));
}

#[test]
fn table_and_flame_render() {
    let (profile, forest) = analyze_text(&trace()).expect("valid");
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
}
