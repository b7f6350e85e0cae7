//! The engine's judge: a deliberately naive sequential reference run.
//!
//! No pool, no cadence, no fault or wire code, no tracer — sample, train
//! each client in id order, average the losses, aggregate, measure the
//! movement, count correct predictions. It shares nothing with
//! `fedwcm_fl::engine` beyond `sampled_clients_for` and the
//! `FederatedAlgorithm` trait, and the synchronous engine must equal it
//! **bit for bit**, field for field, for every method of `Method::ALL`
//! at 1 and 2 worker threads.

use fedwcm_experiments::{build_method, ExpConfig, Method, PreparedTask, Scale};
use fedwcm_fl::{sampled_clients_for, ClientEnv, FederatedAlgorithm, RoundInput, RoundRecord};
use fedwcm_suite::data::synth::DatasetPreset;

/// One federated run, the slow obvious way.
fn oracle_run(task: &PreparedTask, algo: &mut dyn FederatedAlgorithm) -> Vec<RoundRecord> {
    let mut cfg = task.exp.fl.clone();
    cfg.threads = 1;
    let views = task.partition.views(&task.train);
    let mut model = (task.factory)();
    let mut global = model.params().to_vec();
    let mut records = Vec::new();
    for round in 0..cfg.rounds {
        let mut updates = Vec::new();
        for id in sampled_clients_for(&cfg, round) {
            let env = ClientEnv {
                id,
                round,
                dataset: &task.train,
                view: &views[id],
                cfg: &cfg,
                factory: task.factory.as_ref(),
            };
            updates.push(algo.local_train(&env, &global));
        }
        let mut loss_sum = 0.0f64;
        for u in &updates {
            loss_sum += f64::from(u.avg_loss);
        }
        let train_loss = loss_sum / updates.len() as f64;

        let before = global.clone();
        let input = RoundInput {
            round,
            cfg: &cfg,
            updates,
            views: &views,
        };
        let log = algo.aggregate(&mut global, &input);
        let mut moved = 0.0f64;
        for (b, g) in before.iter().zip(&global) {
            let d = (b - g) as f64;
            moved += d * d;
        }

        let mut test_acc = None;
        if (round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds {
            model.set_params(&global);
            let mut correct = 0usize;
            for start in (0..task.test.len()).step_by(256) {
                let end = (start + 256).min(task.test.len());
                let (x, y) = task.test.range_batch(start, end);
                for (p, &t) in model.predict(&x).iter().zip(y) {
                    if *p == t {
                        correct += 1;
                    }
                }
            }
            test_acc = Some(correct as f64 / task.test.len() as f64);
        }
        records.push(RoundRecord {
            round,
            train_loss: Some(train_loss),
            update_norm: moved.sqrt(),
            test_acc,
            alpha: log.alpha,
            aggregations: 1,
            dropped_updates: 0,
            faults: Default::default(),
            net: Default::default(),
        });
    }
    records
}

/// Every `RoundRecord` field, floats by bit pattern.
fn assert_records_equal(want: &[RoundRecord], got: &[RoundRecord], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: round count");
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    for (w, g) in want.iter().zip(got) {
        let at = format!("{label}: round {}", w.round);
        assert_eq!(w.round, g.round, "{at}");
        assert_eq!(bits(w.train_loss), bits(g.train_loss), "{at} train_loss");
        assert_eq!(
            w.update_norm.to_bits(),
            g.update_norm.to_bits(),
            "{at} update_norm"
        );
        assert_eq!(bits(w.test_acc), bits(g.test_acc), "{at} test_acc");
        assert_eq!(bits(w.alpha), bits(g.alpha), "{at} alpha");
        assert_eq!(w.aggregations, g.aggregations, "{at} aggregations");
        assert_eq!(w.dropped_updates, g.dropped_updates, "{at} dropped");
        assert_eq!(w.faults, g.faults, "{at} faults");
        assert_eq!(w.net, g.net, "{at} net");
    }
}

#[test]
fn sync_engine_matches_the_naive_oracle_for_every_method() {
    let exp = ExpConfig::new(DatasetPreset::FashionMnist, 0.1, 0.3, Scale::Smoke, 3001);
    let task = exp.prepare();
    for method in Method::ALL {
        let want = oracle_run(&task, build_method(method, &task).as_mut());
        assert_eq!(want.len(), task.exp.fl.rounds);
        assert!(want.iter().any(|r| r.test_acc.is_some()));
        for threads in [1, 2] {
            let mut sim = task.simulation();
            sim.cfg.threads = threads;
            let got = sim.run(build_method(method, &task).as_mut());
            let label = format!("{} at {threads} thread(s)", method.label());
            assert_records_equal(&want, &got.records, &label);
        }
    }
}
