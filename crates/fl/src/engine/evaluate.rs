//! Stage 6 — evaluation: one per-class tally of the global model over
//! the test set, and every accuracy figure read from it.

use super::RoundCtx;
use fedwcm_data::dataset::Dataset;
use fedwcm_nn::model::Model;
use fedwcm_parallel::{chunk_ranges, parallel_map};
use fedwcm_trace::{Name, Value};

/// Evaluation batch size (memory bound, not a hyper-parameter).
const EVAL_BATCH: usize = 256;

/// Evaluate `global` in one pass over `test`: `evaluate` span, overall
/// accuracy, and — with a registry attached, from the same tally —
/// per-class gauges plus the tail-mean gauge (the long-tail synthesis
/// orders classes head to tail by frequency, so the final third of
/// class ids is the tail).
pub(super) fn evaluate(
    ctx: &RoundCtx<'_>,
    model: &mut Model,
    global: &[f32],
    test: &Dataset,
    threads: usize,
) -> f64 {
    let t0 = ctx.tracer.now();
    let acc = {
        let _g = ctx.tracer.span(
            Name::EVALUATE,
            vec![("round", Value::U64(ctx.round as u64))],
        );
        model.set_params(global);
        let tally = class_tally(model, test, threads);
        let acc = overall_accuracy(&tally);
        if let Some(reg) = ctx.registry {
            let pc = class_accuracies(&tally);
            let tail_len = pc.len() / 3;
            let tail_from = pc.len() - tail_len;
            let mut tail_sum = 0.0;
            for (c, &a) in pc.iter().enumerate() {
                reg.gauge_set(Name::FL_ACC_CLASS_PREFIX.class(c), a);
                if c >= tail_from {
                    tail_sum += a;
                }
            }
            if tail_len > 0 {
                reg.gauge_set(Name::FL_ACC_TAIL, tail_sum / tail_len as f64);
            }
        }
        acc
    };
    ctx.observe_phase(Name::FL_PHASE_EVALUATE, t0);
    acc
}

/// Per-class `(correct, total)` counts of `model` over `dataset`: the one
/// pass every accuracy figure is read from.
///
/// The rows are split into up to `threads` contiguous runs of near-equal
/// length (each worker on its own model replica), and each run is
/// predicted in forwards of at most [`EVAL_BATCH`] rows. A prediction
/// depends on its own row only — every layer maps a row to a row, and
/// `A·Bᵀ`, the patch GEMMs and pooling sum no element across rows — so
/// how the rows are cut cannot change one; the counts are integers added
/// in run order, so they are identical for every thread count.
fn class_tally(model: &mut Model, dataset: &Dataset, threads: usize) -> Vec<(usize, usize)> {
    let classes = dataset.classes();
    let tally_rows = |model: &mut Model, r0: usize, r1: usize| {
        let mut tally = vec![(0usize, 0usize); classes];
        for b0 in (r0..r1).step_by(EVAL_BATCH) {
            let (x, y) = dataset.range_batch(b0, (b0 + EVAL_BATCH).min(r1));
            for (p, &t) in model.predict(&x).iter().zip(y) {
                tally[t].0 += usize::from(*p == t);
                tally[t].1 += 1;
            }
        }
        tally
    };
    if threads <= 1 || dataset.len() <= 1 {
        return tally_rows(model, 0, dataset.len());
    }
    let runs = chunk_ranges(dataset.len(), threads);
    let model_ref: &Model = model;
    let partials = parallel_map(runs.len(), runs.len(), |i| {
        let (r0, r1) = runs[i];
        tally_rows(&mut model_ref.clone(), r0, r1)
    });
    let mut tally = vec![(0usize, 0usize); classes];
    for partial in partials {
        for (acc, (c, t)) in tally.iter_mut().zip(partial) {
            acc.0 += c;
            acc.1 += t;
        }
    }
    tally
}

/// Overall accuracy from a [`class_tally`]: `Σ correct / n` (0 on an
/// empty dataset).
fn overall_accuracy(tally: &[(usize, usize)]) -> f64 {
    let (correct, n) = tally
        .iter()
        .fold((0usize, 0usize), |(c, n), &(ci, ni)| (c + ci, n + ni));
    if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    }
}

/// Per-class accuracy from a [`class_tally`] (classes with no test
/// samples report 0).
fn class_accuracies(tally: &[(usize, usize)]) -> Vec<f64> {
    tally
        .iter()
        .map(|&(c, t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
        .collect()
}

/// Overall accuracy of `model` on `dataset`, evaluated in batches spread
/// over up to `threads` workers; bitwise identical for every thread
/// count.
pub fn evaluate_accuracy_threads(model: &mut Model, dataset: &Dataset, threads: usize) -> f64 {
    overall_accuracy(&class_tally(model, dataset, threads))
}

/// Per-class accuracy of `model` on `dataset` (classes with no test
/// samples report 0), from the same tally [`evaluate_accuracy_threads`]
/// reads.
pub fn per_class_accuracy_threads(
    model: &mut Model,
    dataset: &Dataset,
    threads: usize,
) -> Vec<f64> {
    class_accuracies(&class_tally(model, dataset, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_nn::models::mlp;
    use fedwcm_stats::rng::Xoshiro256pp;

    #[test]
    fn parallel_eval_matches_sequential() {
        let spec = DatasetPreset::FashionMnist.spec();
        let test = spec.generate_test(22);
        let mut rng = Xoshiro256pp::seed_from(9);
        let mut model = mlp(64, &[16], 10, &mut rng);
        let gold_acc = evaluate_accuracy_threads(&mut model, &test, 1);
        let gold_pc = per_class_accuracy_threads(&mut model, &test, 1);
        for threads in [2, 3, 8] {
            let acc = evaluate_accuracy_threads(&mut model, &test, threads);
            assert_eq!(acc.to_bits(), gold_acc.to_bits(), "threads={threads}");
            let pc = per_class_accuracy_threads(&mut model, &test, threads);
            let gold_bits: Vec<u64> = gold_pc.iter().map(|v| v.to_bits()).collect();
            let bits: Vec<u64> = pc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, gold_bits, "threads={threads}");
        }
    }

    /// Both public evaluators read one integer tally: overall accuracy is
    /// `Σ correct / n` and the per-class vector is what a gather-and-count
    /// loop over the same batches gives, at 1 and 3 threads, with a class
    /// that has no test samples reporting 0.
    #[test]
    fn both_evaluators_read_one_tally() {
        let spec = DatasetPreset::FashionMnist.spec();
        let full = spec.generate_test(23);
        let kept: Vec<usize> = (0..full.len()).filter(|&i| full.label(i) != 3).collect();
        let (x, y) = full.gather(&kept);
        let test = Dataset::new(x, y, 10);
        assert!(
            test.len() > 2 * EVAL_BATCH,
            "several batches, a ragged last"
        );
        let mut rng = Xoshiro256pp::seed_from(9);
        let mut model = mlp(64, &[16], 10, &mut rng);

        let (mut correct, mut total) = (vec![0usize; 10], vec![0usize; 10]);
        for start in (0..test.len()).step_by(EVAL_BATCH) {
            let idx: Vec<usize> = (start..(start + EVAL_BATCH).min(test.len())).collect();
            let (x, y) = test.gather(&idx);
            for (p, t) in model.predict(&x).into_iter().zip(y) {
                total[t] += 1;
                correct[t] += usize::from(p == t);
            }
        }
        assert_eq!(total[3], 0);
        let overall = correct.iter().sum::<usize>() as f64 / test.len() as f64;
        let per_class: Vec<u64> = correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
            .map(f64::to_bits)
            .collect();

        for threads in [1, 3] {
            let tally = class_tally(&mut model, &test, threads);
            let counts: (Vec<usize>, Vec<usize>) = tally.iter().copied().unzip();
            assert_eq!(
                counts,
                (correct.clone(), total.clone()),
                "threads={threads}"
            );
            let acc = evaluate_accuracy_threads(&mut model, &test, threads);
            assert_eq!(acc.to_bits(), overall.to_bits(), "threads={threads}");
            let pc = per_class_accuracy_threads(&mut model, &test, threads);
            let bits: Vec<u64> = pc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, per_class, "threads={threads}");
            assert_eq!(pc[3], 0.0);
        }
    }

    #[test]
    fn per_class_accuracy_shapes() {
        let spec = DatasetPreset::FashionMnist.spec();
        let test = spec.generate_test(14);
        let mut rng = Xoshiro256pp::seed_from(7);
        let mut model = mlp(64, &[16], 10, &mut rng);
        let pc = per_class_accuracy_threads(&mut model, &test, 1);
        assert_eq!(pc.len(), 10);
        let overall = evaluate_accuracy_threads(&mut model, &test, 1);
        let mean_pc: f64 = pc.iter().sum::<f64>() / 10.0;
        // Balanced test set ⇒ overall equals the mean per-class accuracy.
        assert!((overall - mean_pc).abs() < 1e-9);
    }
}
