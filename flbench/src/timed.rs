//! `Timed<A>`: a [`FederatedAlgorithm`] that forwards every call to `A`
//! and times `local_train` and `aggregate` from outside. It wraps the
//! algorithm in both trace modes, so one code path runs; what it adds is
//! two clock reads and two relaxed adds per call.

use crate::spans::{SpanId, Spans};
use fedwcm_fl::{ClientEnv, ClientUpdate, FederatedAlgorithm, RoundInput, RoundLog, StateError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where a [`Timed`] adapter accumulates. Shared between the two
/// algorithm instances of a killed-and-resumed repetition.
///
/// The counters are statistics read after the run has been joined, so
/// every access is `Relaxed`.
pub struct Probe {
    local_ns: AtomicU64,
    local_calls: AtomicU64,
    aggregate_ns: AtomicU64,
    aggregate_calls: AtomicU64,
    spans: Arc<Spans>,
    /// Parent of the spans recorded from inside the engine, plus one;
    /// 0 for none.
    parent: AtomicU64,
}

/// Totals read from a [`Probe`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    /// Nanoseconds inside `local_train`, summed over all workers.
    pub local_ns: u64,
    /// `local_train` calls.
    pub local_calls: u64,
    /// Nanoseconds inside `aggregate`.
    pub aggregate_ns: u64,
    /// `aggregate` calls.
    pub aggregate_calls: u64,
}

impl Probe {
    /// A zeroed probe recording its spans into `spans`.
    pub fn new(spans: Arc<Spans>) -> Self {
        Probe {
            local_ns: AtomicU64::new(0),
            local_calls: AtomicU64::new(0),
            aggregate_ns: AtomicU64::new(0),
            aggregate_calls: AtomicU64::new(0),
            spans,
            parent: AtomicU64::new(0),
        }
    }

    /// The span (the benchmark's call into `Simulation::run*`) under
    /// which the engine's calls back into the algorithm are recorded.
    pub fn set_parent(&self, parent: Option<SpanId>) {
        self.parent
            .store(parent.map_or(0, |p| u64::from(p) + 1), Ordering::Relaxed);
    }

    fn parent(&self) -> Option<SpanId> {
        let p = self.parent.load(Ordering::Relaxed);
        // The stored value is a `SpanId` plus one, so it fits.
        (p > 0).then(|| (p - 1) as SpanId)
    }

    /// What has accumulated so far.
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            local_ns: self.local_ns.load(Ordering::Relaxed),
            local_calls: self.local_calls.load(Ordering::Relaxed),
            aggregate_ns: self.aggregate_ns.load(Ordering::Relaxed),
            aggregate_calls: self.aggregate_calls.load(Ordering::Relaxed),
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The timing adapter; see the module docs.
pub struct Timed<A> {
    inner: A,
    probe: Arc<Probe>,
}

impl<A: FederatedAlgorithm> Timed<A> {
    /// Wrap `inner`, accumulating into `probe`.
    pub fn new(inner: A, probe: Arc<Probe>) -> Self {
        Timed { inner, probe }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: FederatedAlgorithm> FederatedAlgorithm for Timed<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn local_train(&self, env: &ClientEnv<'_>, global: &[f32]) -> ClientUpdate {
        let p = &self.probe;
        let span = p.spans.open("core.local_train", p.parent());
        let t0 = Instant::now();
        let update = self.inner.local_train(env, global);
        p.local_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        p.local_calls.fetch_add(1, Ordering::Relaxed);
        p.spans.close(span);
        update
    }

    fn aggregate(&mut self, global: &mut [f32], input: &RoundInput<'_>) -> RoundLog {
        let p = &self.probe;
        let span = p.spans.open("core.aggregate", p.parent());
        let t0 = Instant::now();
        let log = self.inner.aggregate(global, input);
        p.aggregate_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        p.aggregate_calls.fetch_add(1, Ordering::Relaxed);
        p.spans.close(span);
        log
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.inner.load_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Saves a fixed blob, remembers what it was asked to load, and
    /// rejects one particular blob.
    struct Stub {
        loaded: Mutex<Vec<u8>>,
    }

    impl FederatedAlgorithm for Stub {
        fn name(&self) -> String {
            "stub".into()
        }
        fn local_train(&self, env: &ClientEnv<'_>, _global: &[f32]) -> ClientUpdate {
            unreachable!("client {} is never trained in this test", env.id)
        }
        fn aggregate(&mut self, _global: &mut [f32], _input: &RoundInput<'_>) -> RoundLog {
            RoundLog::default()
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            Some(vec![0xFE, 0xD0, 0x0C, 0x11])
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
            if bytes == [0xBA, 0xD0] {
                return Err(StateError::Malformed);
            }
            *self.loaded.lock().unwrap() = bytes.to_vec();
            Ok(())
        }
    }

    #[test]
    fn timed_forwards_state_unchanged() {
        let probe = Arc::new(Probe::new(Arc::new(Spans::new())));
        let mut t = Timed::new(
            Stub {
                loaded: Mutex::new(Vec::new()),
            },
            Arc::clone(&probe),
        );
        assert_eq!(t.name(), "stub");
        assert_eq!(t.save_state(), Some(vec![0xFE, 0xD0, 0x0C, 0x11]));
        assert_eq!(t.load_state(&[1, 2, 3]), Ok(()));
        assert_eq!(*t.inner().loaded.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(t.load_state(&[0xBA, 0xD0]), Err(StateError::Malformed));
        // State calls are not timed calls.
        assert_eq!(probe.totals(), ProbeTotals::default());
    }

    #[test]
    fn timed_counts_aggregate_calls_and_parents_their_spans() {
        let spans = Arc::new(Spans::new());
        spans.set_armed(true);
        let probe = Arc::new(Probe::new(Arc::clone(&spans)));
        let run = spans.open("fl.run", None);
        probe.set_parent(run);
        let mut t = Timed::new(
            Stub {
                loaded: Mutex::new(Vec::new()),
            },
            Arc::clone(&probe),
        );
        let cfg = fedwcm_fl::FlConfig::default_sim();
        let input = RoundInput {
            round: 0,
            cfg: &cfg,
            updates: Vec::new(),
            views: &[],
        };
        t.aggregate(&mut [], &input);
        t.aggregate(&mut [], &input);
        spans.close(run);
        assert_eq!(probe.totals().aggregate_calls, 2);
        assert_eq!(probe.totals().local_calls, 0);
        let got = spans.snapshot();
        assert_eq!(got.len(), 3);
        assert!(got[1..]
            .iter()
            .all(|s| s.name == "core.aggregate" && s.parent == run));
    }
}
