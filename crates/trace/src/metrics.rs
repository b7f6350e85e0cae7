//! Named counters, gauges, and timers, with a deterministic
//! [`MetricsSnapshot`] that merges into run history and survives
//! checkpoint round-trips.
//!
//! A timer keeps a count and a sum of ticks, nothing else: the span
//! trace (`fedwcm-obs`) answers percentile questions exactly, so the
//! registry does not estimate them.

use crate::names::{Key, Name};
use crate::sync::lock_recover;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Thread-safe registry of named metrics. Names are sorted in every
/// snapshot (a `BTreeMap` underneath), so snapshots of identical runs
/// compare equal field-for-field.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the named counter (created at 0 on first use),
    /// saturating at `u64::MAX`. A name already registered as another
    /// kind of metric discards the call.
    ///
    /// ```compile_fail
    /// // expected `Name`, found `&str` (E0308)
    /// fedwcm_trace::MetricsRegistry::new().counter_add("fl.bytes.up", 1);
    /// ```
    /// ```compile_fail
    /// // no associated item `FL_BYTES_UO` (E0599)
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().counter_add(Name::FL_BYTES_UO, 1);
    /// ```
    /// ```
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().counter_add(Name::FL_BYTES_UP, 1);
    /// ```
    pub fn counter_add(&self, name: Name, v: u64) {
        let name = name.as_str();
        let mut m = lock_recover(&self.inner);
        match m.get_mut(name) {
            Some(MetricValue::Counter(c)) => *c = c.saturating_add(v),
            Some(_) => {}
            None => {
                m.insert(name.to_string(), MetricValue::Counter(v));
            }
        }
    }

    /// Set the named gauge to `v`: a [`Name`], or the [`Name::class`]
    /// key of a prefix entry. A non-finite value, or a name already
    /// registered as another kind of metric, discards the call.
    pub fn gauge_set(&self, name: impl Into<Key>, v: f64) {
        let name = name.into();
        let name = name.as_str();
        if !v.is_finite() {
            return;
        }
        let mut m = lock_recover(&self.inner);
        match m.get_mut(name) {
            Some(MetricValue::Gauge(g)) => *g = v,
            Some(_) => {}
            None => {
                m.insert(name.to_string(), MetricValue::Gauge(v));
            }
        }
    }

    /// Record one observation of `ticks` in the named timer (created
    /// empty on first use): its `total` counts observations, saturating
    /// at `u64::MAX`, and its `sum` adds `ticks as f64`. A name already
    /// registered as another kind of metric discards the call.
    ///
    /// ```compile_fail
    /// // expected `Name`, found `&str` (E0308)
    /// fedwcm_trace::MetricsRegistry::new().observe("fl.round_ticks", 5);
    /// ```
    /// ```compile_fail
    /// // no associated item `FL_ROUND_TIKCS` (E0599)
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().observe(Name::FL_ROUND_TIKCS, 5);
    /// ```
    /// ```
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().observe(Name::FL_ROUND_TICKS, 5);
    /// ```
    pub fn observe(&self, name: Name, ticks: u64) {
        self.observe_key(name.as_str(), ticks);
    }

    /// [`MetricsRegistry::observe`] under a key the crate builds itself
    /// ([`crate::prof`]'s `nn.<dir>.<layer>` timings).
    pub(crate) fn observe_key(&self, name: &str, ticks: u64) {
        let mut m = lock_recover(&self.inner);
        match m.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h.record(ticks),
            Some(_) => {}
            None => {
                let mut h = HistogramSnapshot::default();
                h.record(ticks);
                m.insert(name.to_string(), MetricValue::Histogram(h));
            }
        }
    }

    /// Freeze the current state, entries sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = lock_recover(&self.inner);
        MetricsSnapshot {
            entries: m
                .iter()
                .map(|(name, value)| MetricEntry {
                    name: name.clone(),
                    value: value.clone(),
                })
                .collect(),
        }
    }

    /// Replace the registry's state with a snapshot (checkpoint
    /// restore): subsequent accumulation continues exactly where the
    /// snapshot left off.
    pub fn load(&self, snap: &MetricsSnapshot) {
        let mut m = lock_recover(&self.inner);
        m.clear();
        for e in &snap.entries {
            m.insert(e.name.clone(), e.value.clone());
        }
    }
}

/// Frozen registry state: entries sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Metric name (dot-separated, e.g. `fl.round_ticks`).
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A metric value, live in the registry or frozen in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone saturating count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Timer: how many observations, and their sum.
    Histogram(HistogramSnapshot),
}

/// A timer: the number of observations and the sum of their ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded, saturating at `u64::MAX`.
    pub total: u64,
    /// Sum of the observed ticks.
    pub sum: f64,
}

impl HistogramSnapshot {
    fn record(&mut self, ticks: u64) {
        self.total = self.total.saturating_add(1);
        self.sum += ticks as f64;
    }

    /// Mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = MetricsRegistry::new();
        r.counter_add(Name::FL_BYTES_UP, 2);
        r.counter_add(Name::FL_BYTES_UP, 3);
        r.counter_add(Name::FL_BYTES_UP, u64::MAX);
        match r.snapshot().get(names::FL_BYTES_UP) {
            Some(MetricValue::Counter(v)) => assert_eq!(*v, u64::MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = MetricsRegistry::new();
        r.gauge_set(Name::FL_ACC_TAIL, 1.5);
        r.gauge_set(Name::FL_ACC_TAIL, -2.0);
        assert_eq!(
            r.snapshot().get(names::FL_ACC_TAIL),
            Some(&MetricValue::Gauge(-2.0))
        );
    }

    #[test]
    fn non_finite_gauge_is_ignored() {
        let r = MetricsRegistry::new();
        r.gauge_set(Name::FL_ACC_TAIL, 1.0);
        r.gauge_set(Name::FL_ACC_TAIL, f64::NAN);
        assert_eq!(
            r.snapshot().get(names::FL_ACC_TAIL),
            Some(&MetricValue::Gauge(1.0))
        );
    }

    #[test]
    fn timers_count_and_sum() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, 2);
        r.observe(Name::FL_ROUND_TICKS, 4);
        let want = HistogramSnapshot { total: 2, sum: 6.0 };
        assert_eq!(
            r.snapshot().get(names::FL_ROUND_TICKS),
            Some(&MetricValue::Histogram(want))
        );
        assert_eq!(want.mean(), Some(3.0));
        assert_eq!(HistogramSnapshot::default().mean(), None);
    }

    #[test]
    fn timer_count_saturates() {
        let mut h = HistogramSnapshot {
            total: u64::MAX,
            sum: 0.0,
        };
        h.record(1);
        assert_eq!(
            h,
            HistogramSnapshot {
                total: u64::MAX,
                sum: 1.0
            }
        );
    }

    #[test]
    fn a_name_keeps_its_first_kind() {
        let r = MetricsRegistry::new();
        r.counter_add(Name::FL_ROUND_TICKS, 1);
        r.observe(Name::FL_ROUND_TICKS, 5);
        r.gauge_set(Name::FL_ROUND_TICKS, 2.0);
        assert_eq!(
            r.snapshot().get(names::FL_ROUND_TICKS),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn snapshot_is_sorted_and_load_round_trips() {
        let r = MetricsRegistry::new();
        r.counter_add(Name::FL_BYTES_UP, 1);
        r.gauge_set(Name::FL_ACC_TAIL, 3.0);
        r.observe(Name::FL_ROUND_TICKS, 7);
        let snap = r.snapshot();
        let sorted: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(sorted, ["fl.acc.tail", "fl.bytes.up", "fl.round_ticks"]);

        let r2 = MetricsRegistry::new();
        r2.load(&snap);
        assert_eq!(r2.snapshot(), snap);
        // Accumulation continues from the loaded state.
        r2.counter_add(Name::FL_BYTES_UP, 1);
        r2.observe(Name::FL_ROUND_TICKS, 1);
        let after = r2.snapshot();
        assert_eq!(
            after.get(names::FL_BYTES_UP),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            after.get(names::FL_ROUND_TICKS),
            Some(&MetricValue::Histogram(HistogramSnapshot {
                total: 2,
                sum: 8.0
            }))
        );
    }
}
