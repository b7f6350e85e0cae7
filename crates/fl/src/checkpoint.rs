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
    /// unsupported version, truncation, or corrupt lengths).
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
    /// Per-client last-received uploads (replay-fault machinery).
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

    /// Capture the current server state of `sim` (internal; reached via
    /// [`Simulation::run_until`]).
    pub(crate) fn capture(
        sim: &Simulation<'_>,
        algo: &dyn FederatedAlgorithm,
        state: &RunState,
    ) -> Result<Self, CheckpointError> {
        let algo_state = algo
            .save_state()
            .ok_or(CheckpointError::AlgorithmStateUnsupported)?;
        Ok(ServerCheckpoint {
            next_round: state.next_round,
            global: state.global.clone(),
            algo_name: algo.name(),
            algo_state,
            history: state.history.clone(),
            pending: state.pending.clone(),
            agg_buffer: state.agg_buffer.clone(),
            replay_cache: state.replay_cache.clone(),
            cadence: sim.cfg.cadence,
            net_ticks: state.net_ticks,
            fingerprint: Self::fingerprint_of(sim, state.global.len()),
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

    /// Serialize to the `FWCK` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        VERSION.put(&mut out);
        self.put(&mut out);
        out
    }

    /// Parse a checkpoint serialized by [`ServerCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        bytes
            .strip_prefix(MAGIC.as_slice())
            .and_then(|rest| rest.strip_prefix(VERSION.to_le_bytes().as_slice()))
            .and_then(Self::decode)
            .ok_or(CheckpointError::Malformed)
    }
}
