//! Server-state checkpointing: crash a long run at round `r`, restart
//! from the round-`r` checkpoint, and finish with a bitwise-identical
//! history and global model.
//!
//! A [`ServerCheckpoint`] captures everything the engine needs to
//! continue a run: the round counter, global parameters, the full
//! round-by-round history, the algorithm's internal state (via
//! [`FederatedAlgorithm::save_state`]), and the resilience machinery —
//! the straggler buffer, the aggregation buffer of the buffered/async
//! cadences, and the replay cache — so even a chaos run resumes
//! exactly.
//!
//! # Wire format
//!
//! Magic `b"FWCK"`, version (u32 LE), then the checkpoint body: every
//! field in the fixed order of the `wire_struct!` table next to
//! [`ServerCheckpoint`], all little-endian and length-prefixed, through
//! the one codec in `crate::codec`. Float bit patterns are preserved
//! exactly and every tag accepts only the values its writer emits, so
//! serialize → deserialize → serialize is the identity on bytes.
//!
//! There is exactly one version. A header carrying any other number is
//! [`CheckpointError::Malformed`]: no checkpoint outlives the build that
//! wrote it, so an older layout is a stale file, not an input.

use crate::algorithm::{FederatedAlgorithm, StateError};
use crate::cadence::Cadence;
use crate::codec::{wire_struct, Wire};
use crate::engine::{BufferedUpdate, PendingUpdate, RunState, Simulation};
use crate::metrics::History;
use crate::undiscounted::Undiscounted;

const MAGIC: &[u8; 4] = b"FWCK";
/// The one format version written and read.
const VERSION: u32 = 4;

/// Why a checkpoint could not be captured, parsed, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The algorithm does not implement state capture
    /// ([`FederatedAlgorithm::save_state`] returned `None`), so resuming
    /// it would silently reset momentum/variates. Refused loudly instead.
    AlgorithmStateUnsupported,
    /// The checkpoint was produced by a different algorithm than the one
    /// resuming it.
    AlgorithmMismatch {
        /// Algorithm name recorded in the checkpoint.
        expected: String,
        /// Name of the algorithm attempting to resume.
        found: String,
    },
    /// The simulation's configuration fingerprint (seed, client count,
    /// round count, parameter arity) does not match the checkpoint's.
    ConfigMismatch,
    /// The byte buffer does not parse as a checkpoint (bad magic,
    /// unsupported version, truncation, or corrupt lengths) — or it
    /// parses, but its buffered uploads or round counters cannot belong
    /// to the resuming simulation (a client id past `cfg.clients`, a
    /// delta of another parameter count, an upload staler than its round).
    Malformed,
    /// The algorithm rejected the recorded state blob.
    State(StateError),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::AlgorithmStateUnsupported => {
                write!(f, "algorithm does not support state capture")
            }
            CheckpointError::AlgorithmMismatch { expected, found } => {
                write!(f, "checkpoint is for '{expected}', not '{found}'")
            }
            CheckpointError::ConfigMismatch => {
                write!(f, "simulation configuration does not match the checkpoint")
            }
            CheckpointError::Malformed => write!(f, "malformed checkpoint bytes"),
            CheckpointError::State(e) => write!(f, "algorithm state rejected: {e:?}"),
        }
    }
}

/// A captured server state: the full resumable snapshot of a run after
/// some prefix of its rounds.
#[derive(Clone, Debug)]
pub struct ServerCheckpoint {
    /// Next round to execute on resume.
    next_round: usize,
    /// Global model parameters.
    global: Vec<f32>,
    /// Display name of the algorithm that produced the state blob.
    algo_name: String,
    /// Opaque algorithm state from [`FederatedAlgorithm::save_state`].
    algo_state: Vec<u8>,
    /// History of the executed rounds.
    history: History,
    /// Buffered straggler uploads not yet merged.
    pending: Vec<PendingUpdate>,
    /// Aggregation buffer of the buffered-K/async cadences (empty under
    /// sync).
    agg_buffer: Vec<BufferedUpdate>,
    /// Per-client last-received uploads (replay-fault machinery), each
    /// held only while a later round of the run replays its client, so
    /// an upload nothing reads again is not carried.
    replay_cache: Vec<Option<Vec<f32>>>,
    /// Aggregation cadence the run was using.
    cadence: Cadence,
    /// Transport logical-clock position (zero when no network plan was
    /// active).
    net_ticks: u64,
    /// Fingerprint of the producing simulation: seed, clients, rounds,
    /// parameter arity.
    fingerprint: [u64; 4],
}

// The FWCK body, field by field in wire order. A new field is one line
// here (and a new `VERSION`).
wire_struct!(ServerCheckpoint {
    fingerprint,
    cadence,
    net_ticks,
    next_round,
    global,
    algo_name,
    algo_state,
    history,
    pending,
    replay_cache,
    agg_buffer,
});

impl ServerCheckpoint {
    /// The round a resume would execute next.
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// The aggregation cadence recorded at capture time.
    pub fn cadence(&self) -> Cadence {
        self.cadence
    }

    /// The recorded global parameters.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The algorithm name recorded at capture time.
    pub fn algo_name(&self) -> &str {
        &self.algo_name
    }

    /// The history of the rounds executed before capture.
    pub fn history(&self) -> &History {
        &self.history
    }

    fn fingerprint_of(sim: &Simulation<'_>, param_len: usize) -> [u64; 4] {
        [
            sim.cfg.seed,
            sim.cfg.clients as u64,
            sim.cfg.rounds as u64,
            param_len as u64,
        ]
    }

    /// Whether a run of `sim` could have written the buffered state.
    /// `from_bytes` checks structure only, so bytes from another process
    /// can parse and still index out of a per-client table, feed `axpy` a
    /// delta of the wrong length or underflow `round - staleness` rounds
    /// later. Float payloads are deliberately not range-checked: a NaN
    /// delta is the containment filter's business.
    fn fits(&self, sim: &Simulation<'_>) -> bool {
        let (clients, params) = (sim.cfg.clients, self.global.len());
        let upload_fits = |u: &Undiscounted| u.client() < clients && u.delta().len() == params;
        let late_fits =
            |p: &PendingUpdate| upload_fits(&p.update) && p.staleness <= p.arrival_round;
        let held_fits =
            |b: &BufferedUpdate| upload_fits(&b.update) && b.base_round <= self.next_round;
        let mut cached = self.replay_cache.iter().flatten();
        self.next_round <= sim.cfg.rounds
            && self.pending.iter().all(late_fits)
            && self.agg_buffer.iter().all(held_fits)
            && [0, clients].contains(&self.replay_cache.len())
            && cached.all(|d| d.len() == params)
    }

    /// Capture the server state of `sim` (internal; reached via
    /// [`Simulation::run_until`]). Takes the run state by value: the run
    /// that built it is over, so its buffers become the checkpoint's
    /// instead of being copied into it.
    pub(crate) fn capture(
        sim: &Simulation<'_>,
        algo: &dyn FederatedAlgorithm,
        state: RunState,
    ) -> Result<Self, CheckpointError> {
        let algo_state = algo
            .save_state()
            .ok_or(CheckpointError::AlgorithmStateUnsupported)?;
        Ok(ServerCheckpoint {
            fingerprint: Self::fingerprint_of(sim, state.global.len()),
            next_round: state.next_round,
            global: state.global,
            algo_name: algo.name(),
            algo_state,
            history: state.history,
            pending: state.pending,
            agg_buffer: state.agg_buffer,
            replay_cache: state.replay_cache,
            cadence: sim.cfg.cadence,
            net_ticks: state.net_ticks,
        })
    }

    /// Validate against `sim`, load the algorithm state, and rebuild the
    /// engine's run state (internal; reached via [`Simulation::resume`]).
    pub(crate) fn restore(
        &self,
        sim: &Simulation<'_>,
        algo: &mut dyn FederatedAlgorithm,
    ) -> Result<RunState, CheckpointError> {
        if algo.name() != self.algo_name {
            return Err(CheckpointError::AlgorithmMismatch {
                expected: self.algo_name.clone(),
                found: algo.name(),
            });
        }
        if Self::fingerprint_of(sim, self.global.len()) != self.fingerprint {
            return Err(CheckpointError::ConfigMismatch);
        }
        // The aggregation buffer's batch boundaries depend on the
        // cadence, so resuming under a different one would silently
        // reinterpret the buffered state.
        if sim.cfg.cadence != self.cadence {
            return Err(CheckpointError::ConfigMismatch);
        }
        if !self.fits(sim) {
            return Err(CheckpointError::Malformed);
        }
        algo.load_state(&self.algo_state)
            .map_err(CheckpointError::State)?;
        // Reload the attached registry so resumed accumulation continues
        // exactly where the checkpointed run stopped.
        if let Some(reg) = &sim.obs.metrics {
            reg.load(&self.history.metrics);
        }
        Ok(RunState {
            next_round: self.next_round,
            global: self.global.clone(),
            history: self.history.clone(),
            pending: self.pending.clone(),
            agg_buffer: self.agg_buffer.clone(),
            replay_cache: self.replay_cache.clone(),
            net_ticks: self.net_ticks,
        })
    }

    /// Serialize to the `FWCK` byte format, in one allocation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC.len() + VERSION.wire_len() + self.wire_len());
        out.extend_from_slice(MAGIC);
        VERSION.put(&mut out);
        self.put(&mut out);
        out
    }

    /// Parse a checkpoint serialized by [`ServerCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        bytes
            .strip_prefix(MAGIC.as_slice())
            .and_then(<(u32, Self)>::decode)
            .and_then(|(version, body)| (version == VERSION).then_some(body))
            .ok_or(CheckpointError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{average_step, RoundInput, RoundLog};
    use crate::client::{ClientEnv, ClientUpdate};
    use crate::codec::decode_state;
    use crate::config::FlConfig;
    use crate::engine::tests::{build_sim, plain_sgd};
    use fedwcm_data::dataset::Dataset;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_faults::{FaultConfig, FaultKind, FaultPlan};
    use fedwcm_transport::{NetConfig, NetPlan};

    /// FedAvg with state capture, so `run_until` accepts it: an empty
    /// `Vec<f32>` (8 bytes).
    struct StatefulAvg;

    impl FederatedAlgorithm for StatefulAvg {
        fn name(&self) -> String {
            "stateful-avg".into()
        }
        fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
            plain_sgd(env, global)
        }
        fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
            average_step(global, input, &mut Vec::new())
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            Some(Vec::<f32>::new().encode())
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
            decode_state::<Vec<f32>>(bytes).map(|_| ())
        }
    }

    /// `to_bytes` sizes its buffer from the field table before the first
    /// byte: a 200-client replay cache (the `mlp_xdev_chaos` shape, where
    /// doubling from empty reallocated some twenty times on the way to
    /// 14 MB while the cache held every client's last upload; 3.8 MB
    /// since it holds only what a later replay reads) is written into
    /// exactly the bytes it needs.
    #[test]
    fn to_bytes_is_one_allocation_of_exactly_the_bytes_written() {
        let params = 1_000;
        let upload = |client: usize| {
            Undiscounted::new(ClientUpdate {
                client,
                delta: vec![0.25; params],
                num_samples: 10,
                num_batches: 1,
                avg_loss: 1.5,
                extra: client.is_multiple_of(2).then(|| vec![1.0; 3]),
            })
        };
        let mut history = History::new("stateful-avg");
        history.records.push(Default::default());
        let ckpt = ServerCheckpoint {
            next_round: 1,
            global: vec![0.5; params],
            algo_name: "stateful-avg".into(),
            algo_state: vec![7; 4_096],
            history,
            pending: vec![PendingUpdate {
                arrival_round: 3,
                staleness: 2,
                via_net: true,
                update: upload(4),
            }],
            agg_buffer: vec![BufferedUpdate {
                base_round: 0,
                update: upload(5),
            }],
            replay_cache: (0..200)
                .map(|k: usize| (!k.is_multiple_of(7)).then(|| vec![k as f32; params]))
                .collect(),
            cadence: Cadence::BufferedK { k: 4 },
            net_ticks: 99,
            fingerprint: [1, 200, 12, params as u64],
        };
        let bytes = ckpt.to_bytes();
        assert!(bytes.len() > 170 * 4 * params, "{} bytes", bytes.len());
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "grown past, or short of, need"
        );
        let back = ServerCheckpoint::from_bytes(&bytes).expect("own bytes parse");
        assert_eq!(back.to_bytes(), bytes);
    }

    /// A buffered chaos run of 8 rounds whose every buffer fills: 4
    /// clients, 3 sampled a round, every client fault and a lossy wire.
    fn chaos_sim<'a>(train: &'a Dataset, test: &'a Dataset) -> Simulation<'a> {
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 4;
        cfg.participation = 0.75;
        cfg.rounds = 8;
        cfg.local_epochs = 1;
        cfg.batch_size = 16;
        cfg.eval_every = 3;
        cfg.seed = 55;
        cfg.cadence = Cadence::BufferedK { k: 4 };
        build_sim(train, test, cfg)
            .with_fault_plan(FaultPlan::new(FaultConfig {
                seed: 11,
                dropout: 0.1,
                straggler: 0.3,
                max_delay: 3,
                corruption: 0.1,
                replay: 0.2,
            }))
            .with_net_plan(NetPlan::new(NetConfig {
                drop: 0.1,
                corrupt: 0.05,
                delay: 0.3,
                max_delay_rounds: 2,
                ..NetConfig::zero(15)
            }))
    }

    /// A checkpoint carries a client's upload only if the run still
    /// reads it: after `run_until(s)`, every held slot belongs to a
    /// client that a round `≥ s` samples with a replay.
    #[test]
    fn a_checkpoint_holds_only_uploads_a_later_replay_reads() {
        let spec = DatasetPreset::FashionMnist.spec();
        let train = spec.generate_train(&longtail_counts(10, 40, 0.5), 91);
        let test = spec.generate_test(91);
        let sim = chaos_sim(&train, &test);
        let plan = sim.fault_plan.as_ref().expect("a fault plan");
        let replayed_from = |client: usize, from: usize| {
            (from..sim.cfg.rounds).any(|r| {
                sim.sampled_clients(r).contains(&client)
                    && plan.fault_for(r, client) == Some(FaultKind::Replay)
            })
        };
        let mut held = 0;
        for s in 0..=sim.cfg.rounds {
            let ckpt = sim.run_until(&mut StatefulAvg, s).expect("capture");
            assert_eq!(ckpt.replay_cache.len(), sim.cfg.clients);
            for (client, slot) in ckpt.replay_cache.iter().enumerate() {
                if slot.is_some() {
                    held += 1;
                    assert!(replayed_from(client, s), "client {client} held at {s}");
                }
            }
        }
        assert!(held > 0, "some upload is held for a later replay");
    }

    /// The same upload with one field of the client's update rewritten.
    fn rewritten(u: &Undiscounted, edit: impl FnOnce(&mut ClientUpdate)) -> Undiscounted {
        let mut update = u.clone().apply(0, 1.0);
        edit(&mut update);
        Undiscounted::new(update)
    }

    /// A checkpoint that parses but cannot belong to the simulation is a
    /// typed error at `resume`, not a panic three calls later — one
    /// tampered field at a time, each through real FWCK bytes, from a
    /// buffered chaos checkpoint whose every buffer is populated.
    #[test]
    fn a_checkpoint_that_cannot_belong_to_the_simulation_is_malformed() {
        let spec = DatasetPreset::FashionMnist.spec();
        let train = spec.generate_train(&longtail_counts(10, 40, 0.5), 91);
        let test = spec.generate_test(91);
        let sim = chaos_sim(&train, &test);
        let good = sim.run_until(&mut StatefulAvg, 5).expect("capture");
        assert!(!good.pending.is_empty() && !good.agg_buffer.is_empty());
        assert!(good.replay_cache.iter().any(Option::is_some));

        // Untampered, it still resumes — bit for bit, metrics included.
        let full = sim.run(&mut StatefulAvg);
        let resumed = sim.resume(&mut StatefulAvg, &good).expect("resume");
        assert_eq!(full.encode(), resumed.encode());

        type Tamper = fn(&mut ServerCheckpoint);
        let cases: [(&str, Tamper); 9] = [
            ("pending client out of range", |c| {
                c.pending[0].update = rewritten(&c.pending[0].update, |u| u.client = 4);
            }),
            ("buffered client out of range", |c| {
                c.agg_buffer[0].update = rewritten(&c.agg_buffer[0].update, |u| u.client = 99);
            }),
            ("pending delta of the wrong length", |c| {
                c.pending[0].update = rewritten(&c.pending[0].update, |u| u.delta.truncate(7));
            }),
            ("buffered delta of the wrong length", |c| {
                c.agg_buffer[0].update = rewritten(&c.agg_buffer[0].update, |u| u.delta.push(0.0));
            }),
            ("replay-cache entry of the wrong length", |c| {
                let slot = c.replay_cache.iter_mut().flatten().next();
                slot.expect("a cached upload").pop();
            }),
            ("replay cache of the wrong size", |c| {
                c.replay_cache.pop();
            }),
            ("base_round past next_round", |c| {
                c.agg_buffer[0].base_round = c.next_round + 1;
            }),
            ("staleness past arrival_round", |c| {
                c.pending[0].staleness = c.pending[0].arrival_round + 1;
            }),
            ("next_round past cfg.rounds", |c| c.next_round = 9),
        ];
        for (label, tamper) in cases {
            let mut bad = good.clone();
            tamper(&mut bad);
            let reparsed = ServerCheckpoint::from_bytes(&bad.to_bytes())
                .unwrap_or_else(|e| panic!("{label}: structure is intact, yet {e}"));
            assert_eq!(
                sim.resume(&mut StatefulAvg, &reparsed).err(),
                Some(CheckpointError::Malformed),
                "{label}"
            );
        }
    }
}
