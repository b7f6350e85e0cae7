//! The `--trace 0` run: end-to-end metrics with the tracer, `trace::prof`
//! and the counting allocator all off — plus what both trace modes share
//! (arguments, the warm-up reference, the checks, the result line).

use crate::check::{failed_rounds, history_digest, round_finite, round_hashes};
use crate::registry::{Metric, Net, Workload, ACC_TARGET, END_TO_END};
use crate::spans::Spans;
use crate::stats::third_smallest;
use crate::workload::{repetition, Rep, RepOpts};
use fedwcm_fl::History;
use fedwcm_obs::Json;
use fedwcm_stats::describe::{median, quantile};
use std::sync::Arc;
use std::time::Instant;

/// One invocation: one process, one workload, one seed, one trace mode.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of data generation, partition, client sampling, batch order
    /// and the fault and net plans.
    pub seed: u64,
    /// How long to measure, from process start.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`: rounds ÷ 4, three repetitions, no accuracy floor.
    pub smoke: bool,
    /// When the process started.
    pub start: Instant,
}

/// What an invocation reports.
pub struct Outcome {
    /// Rounds attempted (warm-up included).
    pub attempted: u64,
    /// Rounds failed.
    pub failed: u64,
    /// Every metric of the mode's table, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Digest of the (common) history.
    pub digest: u64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

/// Mean of the last three evaluations (of those there are).
pub fn final_acc(h: &History) -> f64 {
    h.final_accuracy(3)
}

/// First round (1-based count) after which the mean of the last three
/// evaluations reaches the target; the history's rounds when never.
pub fn rounds_to_target(h: &History) -> usize {
    let series = h.accuracy_series();
    for i in 0..series.len() {
        let window = &series[i.saturating_sub(2)..=i];
        let mean = window.iter().map(|&(_, a)| a).sum::<f64>() / window.len() as f64;
        if mean >= ACC_TARGET {
            return series[i].0 + 1;
        }
    }
    h.records.len()
}

/// The warm-up repetition as reference, and the running round counts.
pub struct Checker {
    workload: &'static Workload,
    reference: Vec<u64>,
    reference_ok: bool,
    /// Digest of the reference history.
    pub digest: u64,
    /// Rounds attempted so far.
    pub attempted: u64,
    /// Rounds failed so far.
    pub failed: u64,
    /// Why rounds failed (first occurrence of each reason).
    pub reasons: Vec<String>,
}

impl Checker {
    /// Take `warmup` as the reference all later repetitions must repeat,
    /// and hold it to the run-level checks.
    pub fn new(args: &Args, warmup: &Rep) -> Checker {
        let w = args.workload;
        let h = &warmup.history;
        let mut reasons = Vec::new();
        if !h.records.iter().all(round_finite) {
            reasons.push("non-finite loss, norm or accuracy in the warm-up".to_string());
        }
        if let (Some(floor), false) = (w.acc_floor, args.smoke) {
            if final_acc(h) < floor {
                reasons.push(format!(
                    "mean of the last three evaluations {} is below the floor {floor}",
                    final_acc(h)
                ));
            }
        }
        if w.net == Net::ResLite && h.records.len() >= 2 {
            let first = h.records.first().and_then(|r| r.train_loss);
            let last = h.records.last().and_then(|r| r.train_loss);
            if !matches!((first, last), (Some(a), Some(b)) if b < a) {
                reasons.push(format!(
                    "training loss did not fall: first {first:?}, last {last:?}"
                ));
            }
        }
        let mut c = Checker {
            workload: w,
            reference: round_hashes(h),
            reference_ok: reasons.is_empty(),
            digest: history_digest(h),
            attempted: 0,
            failed: 0,
            reasons,
        };
        c.check(warmup);
        c
    }

    /// Count a repetition's rounds: a round fails when any bit of its
    /// record differs from the reference's, and a failed run-level check
    /// fails every round of the repetition.
    pub fn check(&mut self, rep: &Rep) {
        let rounds = self.reference.len() as u64;
        self.attempted += rounds;
        let mut why = Vec::new();
        if !rep.he_ok {
            why.push("the HE aggregate differs from the plaintext class counts");
        }
        if !rep.checkpoint_ok {
            why.push("to_bytes(from_bytes(b)) != b");
        }
        let bad = failed_rounds(&rep.history, &self.reference) as u64;
        if bad > 0 {
            why.push("a round record differs from the warm-up's");
        }
        self.failed += if self.reference_ok && rep.he_ok && rep.checkpoint_ok {
            bad.min(rounds)
        } else {
            rounds
        };
        for reason in why {
            let line = format!("{}: {reason}", self.workload.name);
            if !self.reasons.contains(&line) {
                self.reasons.push(line);
            }
        }
    }
}

/// The warm-up repetition: discarded for timing, the reference for the
/// checks. It takes the other route to the same history — one thread on
/// the two-thread workload, uninterrupted on the killed one — so that
/// equality with it checks thread-count and resume exactness.
pub fn warmup(args: &Args, spans: &Arc<Spans>) -> Rep {
    let (rounds, _kill) = args.workload.shape(args.smoke);
    repetition(
        args.workload,
        args.seed,
        RepOpts {
            rounds,
            kill_round: None,
            threads: 1,
            armed: None,
            count_allocs: false,
            spans,
        },
    )
}

/// One untraced repetition as the workload defines it.
pub fn plain_repetition(args: &Args, spans: &Arc<Spans>) -> Rep {
    let (rounds, kill_round) = args.workload.shape(args.smoke);
    repetition(
        args.workload,
        args.seed,
        RepOpts {
            rounds,
            kill_round,
            threads: args.workload.threads,
            armed: None,
            count_allocs: false,
            spans,
        },
    )
}

/// Repetitions in a closed loop until the deadline less one repetition's
/// length (exactly three with `--smoke`); at least three either way.
pub fn repeat_until(
    args: &Args,
    deadline_s: f64,
    checker: &mut Checker,
    mut one: impl FnMut() -> Rep,
) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let t0 = Instant::now();
        let rep = one();
        longest = longest.max(t0.elapsed().as_secs_f64());
        checker.check(&rep);
        reps.push(rep);
        let done = if args.smoke {
            reps.len() >= 3
        } else {
            reps.len() >= 3 && args.start.elapsed().as_secs_f64() + longest > deadline_s
        };
        if done {
            return reps;
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

/// Noise lines: how far the host was from quiet during these repetitions.
pub fn noise_summary(run_s: &[f64]) -> (f64, f64, f64) {
    let fast = third_smallest(run_s);
    let p50 = median(run_s);
    (p50, quantile(run_s, 0.9), (p50 - fast) / fast)
}

/// The samples, sorted, to four decimals: the reader sees the spells.
pub fn in_order(samples: &[f64]) -> String {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let s: Vec<String> = s.iter().map(|x| format!("{x:.4}")).collect();
    s.join(" ")
}

/// The end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let spans = Arc::new(Spans::new());
    let warm = warmup(args, &spans);
    let mut checker = Checker::new(args, &warm);
    let reps = repeat_until(args, args.seconds, &mut checker, || {
        plain_repetition(args, &spans)
    });

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rep_fast = third_smallest(&run_s);
    let setup_fast = third_smallest(&setup_s);
    let rounds = warm.history.records.len() as f64;
    let samples = reps[0].samples as f64;
    let (p50, p90, noise) = noise_summary(&run_s);

    let values = [
        setup_fast,
        rounds / rep_fast,
        samples / rep_fast,
        peak_rss_mb(),
    ];
    let notes = vec![
        format!(
            "bench: {} repetitions of {} rounds, {} samples each; run p50 {p50:.4} s, p90 {p90:.4} s, third-smallest {rep_fast:.4} s, noise_share {noise:.4}",
            reps.len(),
            rounds,
            samples
        ),
        format!(
            "set-up: p50 {:.5} s, third-smallest {setup_fast:.5} s",
            median(&setup_s)
        ),
        format!("run times in order, s: {}", in_order(&run_s)),
        format!(
            "accuracy: mean of the last three evaluations {:.4}, rounds to {ACC_TARGET} {}",
            final_acc(&warm.history),
            rounds_to_target(&warm.history)
        ),
    ];
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        digest: checker.digest,
        notes: [notes, checker.reasons.clone()].concat(),
    }
}

/// Print every metric by name with its unit, then — last line — the
/// result object the contract prescribes.
pub fn print(args: &Args, out: &Outcome) {
    println!(
        "flbench {} seed {} trace {}{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    for n in &out.notes {
        println!("{n}");
    }
    println!("history digest {:016x}", out.digest);
    for (m, v) in &out.metrics {
        println!("{} {v} {}", m.name, m.unit);
    }
    println!("{}", result_line(out));
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::F64(*v)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        ("attempted".to_string(), Json::U64(out.attempted)),
        ("failed".to_string(), Json::U64(out.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_json_string()
}
