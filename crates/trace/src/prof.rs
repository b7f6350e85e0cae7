//! Opt-in per-layer profiling hooks for the neural-net hot path.
//!
//! Library code (`fedwcm-nn`) guards its timing with the `#[inline]`
//! [`active`] check — a single relaxed atomic load when profiling is
//! off, so the hot path pays nothing by default. A binary or bench
//! opts in once via [`install`], providing the clock (normally
//! [`crate::WallClock`]) and the registry that receives the
//! `nn.<dir>.<layer>` timers. The profiling registry is kept
//! separate from a run's deterministic metrics registry on purpose:
//! wall timings must never leak into state that checkpoint round-trip
//! or determinism tests compare.

use crate::clock::Clock;
use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

struct LayerProf {
    clock: Box<dyn Clock>,
    registry: Arc<MetricsRegistry>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PROF: OnceLock<LayerProf> = OnceLock::new();

/// True once a profiler has been installed. `#[inline]` + a relaxed
/// load keeps the disabled-path cost to a single branch.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Install the process-wide layer profiler. Returns `false` (and
/// changes nothing) if one was already installed — the hooks are
/// process-global, so first caller wins.
pub fn install(clock: Box<dyn Clock>, registry: Arc<MetricsRegistry>) -> bool {
    let installed = PROF.set(LayerProf { clock, registry }).is_ok();
    if installed {
        ACTIVE.store(true, Ordering::Release);
    }
    installed
}

/// Current profiler tick, or 0 when no profiler is installed. Pair two
/// reads around the timed region and hand the difference to [`record`].
pub fn now() -> u64 {
    match PROF.get() {
        Some(p) => p.clock.tick(),
        None => 0,
    }
}

/// Record an elapsed-ticks observation in the timer `nn.<dir>.<layer>`
/// (e.g. `nn.fwd.dense`, `nn.bwd.conv`).
pub fn record(dir: &'static str, layer: &'static str, ticks: u64) {
    if let Some(p) = PROF.get() {
        p.registry.observe_key(&format!("nn.{dir}.{layer}"), ticks);
    }
}

/// Snapshot of the profiling registry, or `None` when no profiler is
/// installed.
pub fn snapshot() -> Option<crate::metrics::MetricsSnapshot> {
    PROF.get().map(|p| p.registry.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::metrics::MetricValue;

    // All assertions live in one test: install() is process-global and
    // OnceLock cannot be reset, so ordering across tests would race.
    #[test]
    fn install_record_snapshot() {
        assert!(!active());
        assert_eq!(now(), 0);
        record("fwd", "dense", 123); // no-op before install

        let reg = Arc::new(MetricsRegistry::new());
        assert!(install(Box::new(LogicalClock::new()), reg.clone()));
        assert!(active());
        assert!(!install(
            Box::new(LogicalClock::new()),
            Arc::new(MetricsRegistry::new())
        ));

        let t0 = now();
        let t1 = now();
        assert!(t1 > t0);
        record("fwd", "dense", t1 - t0);
        let snap = snapshot().unwrap();
        match snap.get("nn.fwd.dense") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.total, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
