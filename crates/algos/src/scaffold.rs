//! SCAFFOLD (Karimireddy et al., 2020): control variates that cancel
//! client drift.
//!
//! Each client keeps a control `c_i`, the server keeps `c`. Local steps
//! follow `g − c_i + c`; after training, the client refreshes its control
//! with "option II": `c_i⁺ = c_i − c + (x_r − x_B)/(η_l B)` — exactly the
//! engine's normalised delta. The server moves `c` by the participation-
//! weighted mean control change.

use fedwcm_fl::algorithm::{average_step, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use fedwcm_fl::client::{run_local_sgd, ClientEnv, ClientUpdate, LocalSgdSpec};
use fedwcm_fl::codec::{decode_state, Wire};
use fedwcm_nn::loss::CrossEntropy;

/// SCAFFOLD with option-II control updates.
pub struct Scaffold {
    server_control: Vec<f32>,
    client_controls: Vec<Vec<f32>>,
    num_clients: usize,
    /// Work space of [`average_step`], kept across rounds; not state.
    dir: Vec<f32>,
}

impl Scaffold {
    /// New SCAFFOLD instance for `num_clients` clients. Buffers are
    /// allocated lazily at the first aggregation (parameter size unknown
    /// until then); empty buffers are treated as zeros.
    pub fn new(num_clients: usize) -> Self {
        Scaffold {
            server_control: Vec::new(),
            client_controls: vec![Vec::new(); num_clients],
            num_clients,
            dir: Vec::new(),
        }
    }

    /// Server control vector (empty = zeros, before first aggregation).
    pub fn server_control(&self) -> &[f32] {
        &self.server_control
    }
}

impl FederatedAlgorithm for Scaffold {
    fn name(&self) -> String {
        "SCAFFOLD".into()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let spec = LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr: env.cfg.local_lr,
            epochs: env.cfg.local_epochs,
        };
        let ci = &self.client_controls[env.id];
        let c = &self.server_control;
        let mut update = run_local_sgd(env, global, &spec, |grad, _, _| {
            if !c.is_empty() {
                for ((g, cc), cic) in grad.iter_mut().zip(c).zip(ci) {
                    *g += cc - cic;
                }
            }
        });
        // Option II control refresh: c_i⁺ = c_i − c + delta.
        let mut new_control = update.delta.clone();
        if !c.is_empty() {
            for ((nc, cic), cc) in new_control.iter_mut().zip(ci).zip(c) {
                *nc += cic - cc;
            }
        }
        update.extra = Some(new_control);
        update
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let dim = global.len();
        if self.server_control.is_empty() {
            self.server_control = vec![0.0f32; dim];
        }

        // Model update: plain averaged deltas (SCAFFOLD server step).
        let log = average_step(global, input, &mut self.dir);

        // Control updates: c += |P|/N · mean_i(c_i⁺ − c_i).
        let sampled = input.updates.len() as f32;
        let scale = sampled / self.num_clients as f32 / sampled; // = 1/N
        for u in &input.updates {
            #[expect(
                clippy::expect_used,
                reason = "protocol contract: SCAFFOLD's own client_update always \
                          attaches the control payload; its absence means \
                          mismatched algorithm wiring"
            )]
            let new_control = u
                .extra
                .as_ref()
                .expect("SCAFFOLD update missing control payload");
            let old = &mut self.client_controls[u.client];
            if old.is_empty() {
                *old = vec![0.0f32; dim];
            }
            for ((c, nc), oc) in self
                .server_control
                .iter_mut()
                .zip(new_control)
                .zip(old.iter())
            {
                *c += scale * (nc - oc);
            }
            old.copy_from_slice(new_control);
        }
        log
    }

    // Cross-round state: the server control and every client control.
    fn save_state(&self) -> Option<Vec<u8>> {
        let (c, controls) = (&self.server_control, &self.client_controls);
        let mut out = Vec::with_capacity(c.wire_len() + controls.wire_len());
        c.put(&mut out);
        controls.put(&mut out);
        Some(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let (server_control, client_controls): (Vec<f32>, Vec<Vec<f32>>) = decode_state(bytes)?;
        // A client control is empty (never sampled) or as long as the
        // server's: `aggregate` copies one into the other.
        let foreign = |c: &Vec<f32>| !c.is_empty() && c.len() != server_control.len();
        if client_controls.len() != self.num_clients || client_controls.iter().any(foreign) {
            return Err(StateError::Malformed);
        }
        self.server_control = server_control;
        self.client_controls = client_controls;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build_sim, small_task};

    #[test]
    fn learns_heterogeneous_task() {
        let (train, test, cfg) = small_task(61, 1.0);
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.1);
        let h = sim.run(&mut Scaffold::new(clients));
        assert!(h.final_accuracy(1) > 0.45, "acc {}", h.final_accuracy(1));
    }

    #[test]
    fn controls_populated_after_run() {
        let (train, test, mut cfg) = small_task(62, 1.0);
        cfg.rounds = 3;
        cfg.participation = 1.0;
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = Scaffold::new(clients);
        let _ = sim.run(&mut algo);
        assert!(!algo.server_control().is_empty());
        let norm: f32 = algo
            .server_control()
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        assert!(norm > 0.0);
        assert!(algo.client_controls.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn mean_client_control_tracks_server_control() {
        // With full participation, c should equal the mean of c_i.
        let (train, test, mut cfg) = small_task(63, 1.0);
        cfg.rounds = 4;
        cfg.participation = 1.0;
        let clients = cfg.clients;
        let sim = build_sim(&train, &test, cfg, 0.6);
        let mut algo = Scaffold::new(clients);
        let _ = sim.run(&mut algo);
        let dim = algo.server_control().len();
        let mut mean = vec![0.0f32; dim];
        for ci in &algo.client_controls {
            for (m, c) in mean.iter_mut().zip(ci) {
                *m += c / clients as f32;
            }
        }
        for (m, c) in mean.iter().zip(algo.server_control()) {
            assert!((m - c).abs() < 1e-4, "mean {m} vs server {c}");
        }
    }
}
