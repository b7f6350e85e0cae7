//! `flbench set`: every workload on consecutive seeds, one fresh process
//! each, with medians and quartile spreads as the driver computes them;
//! `flbench compare`: two sets against the benchmark's own bounds.

use crate::registry::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::quartile_spread;
use fedwcm_obs::Json;
use fedwcm_stats::describe::median;
use std::path::Path;
use std::process::Command;

/// One workload's runs in a set.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// Rounds attempted over all runs.
    pub attempted: u64,
    /// Rounds failed over all runs.
    pub failed: u64,
    /// Per end-to-end metric, in table order: one value per run.
    pub values: Vec<(String, Vec<f64>)>,
}

/// A set of runs: every workload on `runs` consecutive seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Set {
    /// Seed of the first run of each workload.
    pub first_seed: u64,
    /// Runs per workload.
    pub runs: u64,
    /// The workloads, in registry order.
    pub workloads: Vec<WorkloadRuns>,
}

fn parse_result_line(stdout: &str) -> Result<Json, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    fedwcm_obs::json::parse(last, 1).map_err(|e| format!("the last line is not a result: {e}"))
}

/// Run the set: `exe` is this binary; each run is a fresh process of
/// `run_seconds`, so that any two sets compare like with like.
pub fn run_set(exe: &Path, runs: u64, first_seed: u64, smoke: bool) -> Result<Set, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut wr = WorkloadRuns {
            name: w.name.to_string(),
            attempted: 0,
            failed: 0,
            values: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), Vec::new()))
                .collect(),
        };
        for i in 0..runs {
            let seed = first_seed.wrapping_add(i);
            let mut cmd = Command::new(exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"]);
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{} did not start: {e}", exe.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {}: {}",
                    w.name,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let line = parse_result_line(&String::from_utf8_lossy(&out.stdout))?;
            let num = |k: &str| line.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
            wr.attempted += num("attempted")?;
            wr.failed += num("failed")?;
            for (name, values) in &mut wr.values {
                let v = line
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{} seed {seed}: no value for {name}", w.name))?;
                values.push(v);
            }
            eprintln!("{} seed {seed}: {}", w.name, line.to_json_string());
        }
        workloads.push(wr);
    }
    Ok(Set {
        first_seed,
        runs,
        workloads,
    })
}

impl Set {
    /// The set as JSON, with each metric's median and spread beside its
    /// values.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .values
                    .iter()
                    .map(|(name, v)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("median".to_string(), Json::F64(median(v))),
                                ("spread".to_string(), Json::F64(quartile_spread(v))),
                                (
                                    "values".to_string(),
                                    Json::Arr(v.iter().map(|&x| Json::F64(x)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect();
                (
                    w.name.clone(),
                    Json::Obj(vec![
                        ("attempted".to_string(), Json::U64(w.attempted)),
                        ("failed".to_string(), Json::U64(w.failed)),
                        ("metrics".to_string(), Json::Obj(metrics)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("first_seed".to_string(), Json::U64(self.first_seed)),
            ("runs".to_string(), Json::U64(self.runs)),
            ("workloads".to_string(), Json::Obj(workloads)),
        ])
    }

    /// Parse what [`Set::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<Set, String> {
        let field = |k: &str| doc.get(k).ok_or(format!("the set has no {k}"));
        let Json::Obj(entries) = field("workloads")? else {
            return Err("workloads is not an object".to_string());
        };
        let mut workloads = Vec::new();
        for (name, w) in entries {
            let Some(Json::Obj(metrics)) = w.get("metrics") else {
                return Err(format!("{name} has no metrics"));
            };
            let mut values = Vec::new();
            for (metric, m) in metrics {
                let Some(Json::Arr(vs)) = m.get("values") else {
                    return Err(format!("{name}.{metric} has no values"));
                };
                let vs: Option<Vec<f64>> = vs.iter().map(Json::as_f64).collect();
                values.push((
                    metric.clone(),
                    vs.ok_or(format!("{name}.{metric} has a non-number"))?,
                ));
            }
            let num = |k: &str| {
                w.get(k)
                    .and_then(Json::as_u64)
                    .ok_or(format!("{name} has no {k}"))
            };
            workloads.push(WorkloadRuns {
                name: name.clone(),
                attempted: num("attempted")?,
                failed: num("failed")?,
                values,
            });
        }
        Ok(Set {
            first_seed: field("first_seed")?
                .as_u64()
                .ok_or("first_seed is not a number")?,
            runs: field("runs")?.as_u64().ok_or("runs is not a number")?,
            workloads,
        })
    }

    /// Read a set file.
    pub fn read(path: &Path) -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc =
            fedwcm_obs::json::parse(&text, 1).map_err(|e| format!("{}: {e}", path.display()))?;
        Set::from_json(&doc)
    }

    /// Median and spread per workload × metric, against the bounds.
    pub fn table(&self) -> String {
        let mut out =
            "| workload | metric | median | spread | bound | spread / bound |\n|---|---|---|---|---|---|\n"
                .to_string();
        for w in &self.workloads {
            for (name, v) in &w.values {
                let bound = bound_of(name);
                let spread = quartile_spread(v);
                out.push_str(&format!(
                    "| `{}` | `{name}` | {:.6} | {:.4} | {bound} | {:.2} |\n",
                    w.name,
                    median(v),
                    spread,
                    spread / bound
                ));
            }
            out.push_str(&format!(
                "| `{}` | failed / attempted | {} / {} | | | |\n",
                w.name, w.failed, w.attempted
            ));
        }
        out
    }
}

fn bound_of(metric: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .and_then(|m| m.bound)
        .unwrap_or(f64::NAN)
}

/// Verdict of one workload × metric row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the old by more than the bound.
    Unchanged,
    /// A set's spread exceeds the bound and the runs overlap: no verdict.
    Unresolved,
    /// The new median is worse than the old by more than the bound.
    Regressed,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_share` for the failure row).
    pub metric: String,
    /// Median of the old set.
    pub old: f64,
    /// Median of the new set.
    pub new: f64,
    /// By how much the new median is worse, as a share of the old one
    /// (negative when it is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare two sets row by row: one row per workload × end-to-end
/// metric, plus one per workload for the failed share, any rise of which
/// is a regression.
pub fn compare(old: &Set, new: &Set) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for o in &old.workloads {
        let n = new
            .workloads
            .iter()
            .find(|w| w.name == o.name)
            .ok_or(format!("the new set has no workload {}", o.name))?;
        for m in &END_TO_END {
            let find = |w: &WorkloadRuns| {
                w.values
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map(|(_, v)| v.clone())
                    .filter(|v| v.len() >= 2)
                    .ok_or(format!(
                        "{} has fewer than two values of {}",
                        w.name, m.name
                    ))
            };
            let (ov, nv) = (find(o)?, find(n)?);
            let (om, nm) = (median(&ov), median(&nv));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse_by = match m.better {
                Better::Higher => (om - nm) / om,
                Better::Lower => (nm - om) / om,
            };
            let noisy = quartile_spread(&ov) > bound || quartile_spread(&nv) > bound;
            // With a spread wider than the bound the medians decide
            // nothing, unless the two sets do not even overlap.
            let worse = |a: f64, b: f64| match m.better {
                Better::Higher => a < b,
                Better::Lower => a > b,
            };
            let all_new_worse = nv.iter().all(|&a| ov.iter().all(|&b| worse(a, b)));
            let all_new_better = nv.iter().all(|&a| ov.iter().all(|&b| worse(b, a)));
            let verdict = match (noisy, worse_by > bound) {
                (false, true) => Verdict::Regressed,
                (false, false) => Verdict::Unchanged,
                (true, _) if all_new_worse && worse_by > bound => Verdict::Regressed,
                (true, _) if all_new_better => Verdict::Unchanged,
                (true, _) => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: o.name.clone(),
                metric: m.name.to_string(),
                old: om,
                new: nm,
                worse_by,
                bound,
                verdict,
            });
        }
        let share = |w: &WorkloadRuns| w.failed as f64 / w.attempted.max(1) as f64;
        let (os, ns) = (share(o), share(n));
        rows.push(Row {
            workload: o.name.clone(),
            metric: "failed_share".to_string(),
            old: os,
            new: ns,
            worse_by: ns - os,
            bound: 0.0,
            verdict: if ns > os {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
        });
    }
    Ok(rows)
}

/// The comparison as a Markdown table.
pub fn compare_table(rows: &[Row]) -> String {
    let mut out =
        "| workload | metric | old median | new median | worse by | bound | verdict |\n|---|---|---|---|---|---|---|\n"
            .to_string();
    for r in rows {
        out.push_str(&format!(
            "| `{}` | `{}` | {:.6} | {:.6} | {:+.4} | {} | {} |\n",
            r.workload,
            r.metric,
            r.old,
            r.new,
            r.worse_by,
            r.bound,
            r.verdict.as_str()
        ));
    }
    out
}
