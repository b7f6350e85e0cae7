//! Fault and network draws never disturb training and sampling draws.
//!
//! Every stochastic decision draws from its own freshly seeded stream
//! (`Xoshiro256pp::stream(seed, &[PURPOSE, …])`), so attaching a busy
//! [`FaultPlan`] and a lossy [`NetPlan`] may change *which* uploads
//! reach the server but never *what* a client trained or *who* was
//! sampled. The zero-rate identities (`faults_and_resume.rs`,
//! `transport.rs`) cannot see a plan that draws from somebody else's
//! stream, because a zero-rate plan draws nothing; this test runs the
//! plans hot and compares against the plan-free run:
//!
//! * the sampled cohort of every round is the same set;
//! * in round 0 — the one round both runs enter with the same global
//!   model — every client trains the same delta, bit for bit;
//! * every *surviving* upload of round 0 (no client fault scheduled,
//!   crossed the wire) reaches `aggregate` with exactly those bits.

mod support;

use fedwcm_fl::algorithm::{RoundInput, RoundLog};
use fedwcm_fl::client::{ClientEnv, ClientUpdate};
use fedwcm_fl::{FederatedAlgorithm, NetPlan};
use std::collections::BTreeMap;
use std::sync::Mutex;
use support::{build_sim, busy_plan, lossy_cfg, make_cfg, make_data, plain_sgd, StubAvg};

/// `(round, client) → delta bits`.
type Deltas = BTreeMap<(usize, usize), Vec<u32>>;

fn bits(delta: &[f32]) -> Vec<u32> {
    delta.iter().map(|x| x.to_bits()).collect()
}

/// FedAvg that writes down what every client trained and what the
/// server was handed.
#[derive(Default)]
struct Recorder {
    trained: Mutex<Deltas>,
    received: Deltas,
}

impl FederatedAlgorithm for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let update = plain_sgd(env, global);
        self.trained
            .lock()
            .expect("recorder lock")
            .insert((env.round, env.id), bits(&update.delta));
        update
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        for u in &input.updates {
            self.received
                .insert((input.round, u.client), bits(&u.delta));
        }
        StubAvg.aggregate(global, input)
    }
}

#[test]
fn fault_and_network_draws_leave_sampling_and_training_untouched() {
    let (train, test) = make_data(301);
    let rounds = 3;
    let mut cfg = make_cfg(rounds);
    cfg.clients = 10;
    cfg.participation = 0.8;
    let fault_plan = busy_plan(0xFA);

    let mut plain = Recorder::default();
    build_sim(&train, &test, cfg.clone()).run(&mut plain);
    let mut chaos = Recorder::default();
    let history = build_sim(&train, &test, cfg)
        .with_fault_plan(fault_plan.clone())
        .with_net_plan(NetPlan::new(lossy_cfg(0x1055)))
        .run(&mut chaos);

    // The plans were live: faults injected, frames retried.
    let injected: u32 = history.records.iter().map(|r| r.faults.injected()).sum();
    assert!(injected > 0, "busy plan injected nothing");
    assert!(history.net_totals().retries > 0, "lossy plan never retried");

    let plain_trained = plain.trained.into_inner().expect("recorder lock");
    let chaos_trained = chaos.trained.into_inner().expect("recorder lock");

    // Sampling: the same cohort in every round.
    let cohorts = |t: &Deltas| t.keys().copied().collect::<Vec<_>>();
    assert_eq!(
        cohorts(&plain_trained),
        cohorts(&chaos_trained),
        "a plan moved the sampled cohorts"
    );
    assert_eq!(plain_trained.len(), rounds * 8);

    // Training: round 0 starts from the same global model in both runs.
    let round0 = |t: &Deltas| -> Deltas {
        t.iter()
            .filter(|((r, _), _)| *r == 0)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    };
    assert_eq!(
        round0(&plain_trained),
        round0(&chaos_trained),
        "a plan moved a round-0 training draw"
    );

    // Survivors: uploads without a scheduled client fault that crossed
    // the wire arrive with the bits the plan-free run aggregated.
    let mut survivors = 0;
    for (&(round, client), delta) in &round0(&chaos.received) {
        if fault_plan.fault_for(round, client).is_some() {
            continue;
        }
        assert_eq!(
            Some(delta),
            plain.received.get(&(round, client)),
            "surviving upload of client {client} differs"
        );
        survivors += 1;
    }
    assert!(survivors > 0, "no round-0 upload survived both plans");
}
