//! Named counters, gauges, and fixed-bucket histograms, with a
//! deterministic [`MetricsSnapshot`] that merges into run history and
//! survives checkpoint round-trips.

use crate::names::{Key, Name};
use crate::sync::lock_recover;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Why a histogram's bucket bounds were rejected at registration.
///
/// Returned by [`MetricsRegistry::try_observe`]; the non-fallible
/// [`MetricsRegistry::observe`] discards the observation on these, so a
/// malformed bounds array can never silently create a histogram whose
/// buckets lie.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundsError {
    /// The bounds array was empty — a histogram needs at least one
    /// bucket boundary to be meaningful.
    Empty,
    /// A bound was NaN or infinite; `index` is its position.
    NonFinite {
        /// Index of the offending bound.
        index: usize,
    },
    /// Bounds were not strictly increasing; `index` is the first
    /// position whose bound is ≤ its predecessor.
    NotSorted {
        /// Index of the first out-of-order bound.
        index: usize,
    },
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::Empty => write!(f, "histogram bounds must not be empty"),
            BoundsError::NonFinite { index } => {
                write!(f, "histogram bound at index {index} is not finite")
            }
            BoundsError::NotSorted { index } => write!(
                f,
                "histogram bounds must be strictly increasing (violated at index {index})"
            ),
        }
    }
}

impl std::error::Error for BoundsError {}

/// Validate histogram bucket bounds: non-empty, all finite, strictly
/// increasing. Every path that registers a histogram goes through this
/// check.
pub fn validate_bounds(bounds: &[f64]) -> Result<(), BoundsError> {
    if bounds.is_empty() {
        return Err(BoundsError::Empty);
    }
    for (index, b) in bounds.iter().enumerate() {
        if !b.is_finite() {
            return Err(BoundsError::NonFinite { index });
        }
        if index > 0 && bounds[index - 1] >= *b {
            return Err(BoundsError::NotSorted { index });
        }
    }
    Ok(())
}

/// A live fixed-bucket histogram (see [`HistogramSnapshot`] for the
/// frozen form and the bucket semantics).
#[derive(Clone, Debug)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    nan_rejected: u64,
}

impl Histogram {
    /// Build a live histogram from *validated* bounds — callers run
    /// [`validate_bounds`] first, so construction itself cannot fail.
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            nan_rejected: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nan_rejected = self.nan_rejected.saturating_add(1);
            return;
        }
        // Inclusive upper bound: bucket i holds v <= bounds[i]; the
        // final slot is overflow.
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.sum += v;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            total: self.total,
            sum: self.sum,
            nan_rejected: self.nan_rejected,
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Thread-safe registry of named metrics. Names are sorted in every
/// snapshot (a `BTreeMap` underneath), so snapshots of identical runs
/// compare equal field-for-field.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
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
            Some(Metric::Counter(c)) => *c = c.saturating_add(v),
            Some(_) => {}
            None => {
                m.insert(name.to_string(), Metric::Counter(v));
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
            Some(Metric::Gauge(g)) => *g = v,
            Some(_) => {}
            None => {
                m.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Record `v` into the named histogram, created with `bounds` on
    /// first use (strictly increasing upper bucket bounds; values fall
    /// into the first bucket whose bound is `>= v`, or the overflow
    /// slot past the last bound). NaN/∞ observations increment the
    /// snapshot's `nan_rejected` count instead.
    ///
    /// Malformed `bounds` at registration (empty, non-finite, or not
    /// strictly increasing), or a name already registered as another
    /// kind of metric, discard the observation. Use
    /// [`MetricsRegistry::try_observe`] to see the typed [`BoundsError`].
    ///
    /// ```compile_fail
    /// // expected `Name`, found `&str` (E0308)
    /// fedwcm_trace::MetricsRegistry::new().observe("fl.round_ticks", &[1.0], 0.5);
    /// ```
    /// ```compile_fail
    /// // no associated item `FL_ROUND_TIKCS` (E0599)
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().observe(Name::FL_ROUND_TIKCS, &[1.0], 0.5);
    /// ```
    /// ```
    /// use fedwcm_trace::{names::Name, MetricsRegistry};
    /// MetricsRegistry::new().observe(Name::FL_ROUND_TICKS, &[1.0], 0.5);
    /// ```
    pub fn observe(&self, name: Name, bounds: &[f64], v: f64) {
        let _ = self.try_observe(name, bounds, v);
    }

    /// Fallible form of [`MetricsRegistry::observe`]: rejects malformed
    /// bucket bounds with a typed [`BoundsError`] at registration
    /// (first use of `name`) instead of silently accepting them, so a
    /// broken histogram can never be created. Bounds of an
    /// already-registered histogram are not re-validated — the bounds
    /// supplied at registration stay authoritative.
    pub fn try_observe(&self, name: Name, bounds: &[f64], v: f64) -> Result<(), BoundsError> {
        self.observe_key(name.as_str(), bounds, v)
    }

    /// [`MetricsRegistry::try_observe`] under a key the crate builds
    /// itself ([`crate::prof`]'s `nn.<dir>.<layer>` timings).
    pub(crate) fn observe_key(
        &self,
        name: &str,
        bounds: &[f64],
        v: f64,
    ) -> Result<(), BoundsError> {
        let mut m = lock_recover(&self.inner);
        match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            Some(_) => {}
            None => {
                validate_bounds(bounds)?;
                let mut h = Histogram::new(bounds);
                h.observe(v);
                m.insert(name.to_string(), Metric::Histogram(h));
            }
        }
        Ok(())
    }

    /// Freeze the current state, entries sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = lock_recover(&self.inner);
        MetricsSnapshot {
            entries: m
                .iter()
                .map(|(name, metric)| MetricEntry {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(*c),
                        Metric::Gauge(g) => MetricValue::Gauge(*g),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
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
            let metric = match &e.value {
                MetricValue::Counter(c) => Metric::Counter(*c),
                MetricValue::Gauge(g) => Metric::Gauge(*g),
                MetricValue::Histogram(h) => Metric::Histogram(Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    total: h.total,
                    sum: h.sum,
                    nan_rejected: h.nan_rejected,
                }),
            };
            m.insert(e.name.clone(), metric);
        }
    }

    /// Drop every metric.
    pub fn reset(&self) {
        lock_recover(&self.inner).clear();
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

/// A frozen metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone saturating count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram: `counts.len() == bounds.len() + 1`, the final
/// slot counting observations above the last bound. Bucket `i` counted
/// observations `v` with `v <= bounds[i]` (and `> bounds[i-1]` for
/// `i > 0`).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Strictly increasing inclusive upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts plus the trailing overflow slot.
    pub counts: Vec<u64>,
    /// Total observations (excluding rejected non-finite ones).
    pub total: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Non-finite observations rejected.
    pub nan_rejected: u64,
}

impl HistogramSnapshot {
    /// Mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// inside the bucket holding the target rank — the standard
    /// fixed-bucket estimator (Prometheus's `histogram_quantile`):
    ///
    /// * the first bucket interpolates from 0 when its upper bound is
    ///   positive (phase ticks, norms, and byte counts are
    ///   non-negative), and reports its upper bound otherwise;
    /// * the overflow bucket cannot be interpolated — the estimate
    ///   clamps to the last finite bound;
    /// * an empty histogram, or a `q` outside `(0, 1]`, is `None`.
    ///
    /// The estimate is a deterministic function of the snapshot, so
    /// identical runs report identical percentiles.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !q.is_finite() || q <= 0.0 || q > 1.0 {
            return None;
        }
        if self.counts.len() != self.bounds.len() + 1 {
            // A malformed snapshot (hand-built or corrupted) has no
            // meaningful quantile.
            return None;
        }
        let target = q * self.total as f64;
        let mut cumulative: u64 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative = cumulative.saturating_add(c);
            if (cumulative as f64) < target {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Overflow bucket: clamp to the last finite bound.
                return self.bounds.last().copied();
            };
            let lower = if i == 0 {
                if upper > 0.0 {
                    0.0
                } else {
                    return Some(upper);
                }
            } else {
                self.bounds[i - 1]
            };
            if c == 0 {
                return Some(upper);
            }
            let fraction = (target - prev as f64) / c as f64;
            return Some(lower + (upper - lower) * fraction.clamp(0.0, 1.0));
        }
        self.bounds.last().copied()
    }

    /// The (p50, p95, p99) triple of [`HistogramSnapshot::percentile`]
    /// estimates — the summary the profiling report prints.
    pub fn p50_p95_p99(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.percentile(0.50)?,
            self.percentile(0.95)?,
            self.percentile(0.99)?,
        ))
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
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let r = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0];
        // Exactly on each boundary → that bucket; just above → next.
        for v in [0.5, 1.0, 1.0000001, 2.0, 4.0, 4.0000001, 100.0] {
            r.observe(Name::FL_ROUND_TICKS, &bounds, v);
        }
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.counts, [2, 2, 1, 2]);
                assert_eq!(h.total, 7);
                assert_eq!(h.nan_rejected, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn histogram_counts_saturate() {
        let mut h = Histogram::new(&[1.0]);
        h.counts[0] = u64::MAX;
        h.total = u64::MAX;
        h.observe(0.5);
        assert_eq!(h.counts[0], u64::MAX);
        assert_eq!(h.total, u64::MAX);
    }

    #[test]
    fn nan_observations_are_counted_not_bucketed() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[1.0], f64::NAN);
        r.observe(Name::FL_ROUND_TICKS, &[1.0], f64::INFINITY);
        r.observe(Name::FL_ROUND_TICKS, &[1.0], 0.5);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.nan_rejected, 2);
                assert_eq!(h.total, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_load_round_trips() {
        let r = MetricsRegistry::new();
        r.counter_add(Name::FL_BYTES_UP, 1);
        r.gauge_set(Name::FL_ACC_TAIL, 3.0);
        r.observe(Name::FL_ROUND_TICKS, &[1.0, 2.0], 1.5);
        let snap = r.snapshot();
        let sorted: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(sorted, ["fl.acc.tail", "fl.bytes.up", "fl.round_ticks"]);

        let r2 = MetricsRegistry::new();
        r2.load(&snap);
        assert_eq!(r2.snapshot(), snap);
        // Accumulation continues from the loaded state.
        r2.counter_add(Name::FL_BYTES_UP, 1);
        assert_eq!(
            r2.snapshot().get(names::FL_BYTES_UP),
            Some(&MetricValue::Counter(2))
        );
    }

    #[test]
    fn bounds_validation_rejects_malformed_arrays() {
        assert_eq!(validate_bounds(&[]), Err(BoundsError::Empty));
        assert_eq!(
            validate_bounds(&[1.0, f64::NAN]),
            Err(BoundsError::NonFinite { index: 1 })
        );
        assert_eq!(
            validate_bounds(&[1.0, f64::INFINITY]),
            Err(BoundsError::NonFinite { index: 1 })
        );
        assert_eq!(
            validate_bounds(&[1.0, 2.0, 2.0]),
            Err(BoundsError::NotSorted { index: 2 })
        );
        assert_eq!(
            validate_bounds(&[3.0, 1.0]),
            Err(BoundsError::NotSorted { index: 1 })
        );
        assert_eq!(validate_bounds(&[-1.0, 0.5, 2.0]), Ok(()));
    }

    #[test]
    fn malformed_bounds_never_register_a_histogram() {
        // Regression: `observe` used to accept any bounds array and
        // silently build a histogram with lying buckets. Now the typed
        // error is surfaced and nothing is registered.
        let r = MetricsRegistry::new();
        assert_eq!(
            r.try_observe(Name::FL_ROUND_TICKS, &[2.0, 1.0], 0.5),
            Err(BoundsError::NotSorted { index: 1 })
        );
        r.observe(Name::FL_ROUND_TICKS, &[], 0.5);
        assert!(
            r.snapshot().get(names::FL_ROUND_TICKS).is_none(),
            "no metric may be created"
        );
        // A later, valid registration under the same name works.
        assert_eq!(r.try_observe(Name::FL_ROUND_TICKS, &[1.0], 0.5), Ok(()));
        assert!(r.snapshot().get(names::FL_ROUND_TICKS).is_some());
    }

    #[test]
    fn percentile_empty_histogram_is_none() {
        let assert_none = |h: &HistogramSnapshot| {
            assert_eq!(h.percentile(0.5), None);
            assert_eq!(h.p50_p95_p99(), None);
        };
        assert_none(&HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![0; 3],
            total: 0,
            sum: 0.0,
            nan_rejected: 0,
        });
        // Through the registry the only way to an empty histogram is a
        // rejected NaN.
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[1.0, 2.0], f64::NAN);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => assert_none(h),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_rejects_out_of_range_q() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[10.0], 5.0);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.percentile(0.0), None);
                assert_eq!(h.percentile(-0.5), None);
                assert_eq!(h.percentile(1.5), None);
                assert_eq!(h.percentile(f64::NAN), None);
                assert!(h.percentile(1.0).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_single_bucket_interpolates_from_zero() {
        let r = MetricsRegistry::new();
        // Four observations, all in the one bucket (0, 10].
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.observe(Name::FL_ROUND_TICKS, &[10.0], v);
        }
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                // p50 target rank 2 of 4 → halfway through (0, 10].
                assert_eq!(h.percentile(0.5), Some(5.0));
                assert_eq!(h.percentile(1.0), Some(10.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_interpolates_between_bucket_bounds() {
        let r = MetricsRegistry::new();
        let bounds = [10.0, 20.0, 40.0];
        // 2 in (0,10], 2 in (10,20], none above.
        for v in [5.0, 6.0, 15.0, 16.0] {
            r.observe(Name::FL_ROUND_TICKS, &bounds, v);
        }
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                // p75 → rank 3 of 4, end of the second bucket's first
                // half: 10 + (3-2)/2 * (20-10) = 15.
                assert_eq!(h.percentile(0.75), Some(15.0));
                // p25 → rank 1 of 2 within the first bucket: 5.
                assert_eq!(h.percentile(0.25), Some(5.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_overflow_bucket_clamps_to_last_bound() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[1.0, 2.0], 100.0);
        r.observe(Name::FL_ROUND_TICKS, &[1.0, 2.0], 200.0);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.percentile(0.5), Some(2.0));
                assert_eq!(h.percentile(0.99), Some(2.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_negative_first_bucket_reports_its_bound() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[-5.0, 5.0], -7.0);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => {
                // No lower edge to interpolate from below zero: report
                // the bucket's upper bound instead of inventing one.
                assert_eq!(h.percentile(0.5), Some(-5.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn percentile_saturated_histogram_stays_finite() {
        // Counts pinned at u64::MAX (the saturating path) must not
        // overflow the cumulative scan or return NaN.
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![u64::MAX, u64::MAX, 0],
            total: u64::MAX,
            sum: 0.0,
            nan_rejected: 0,
        };
        let p = h.percentile(0.99).expect("saturated percentile");
        assert!(p.is_finite());
        assert!((0.0..=2.0).contains(&p), "estimate {p} inside bounds");
    }

    #[test]
    fn percentile_malformed_snapshot_is_none() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![1], // wrong arity
            total: 1,
            sum: 0.5,
            nan_rejected: 0,
        };
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn histogram_mean() {
        let r = MetricsRegistry::new();
        r.observe(Name::FL_ROUND_TICKS, &[10.0], 2.0);
        r.observe(Name::FL_ROUND_TICKS, &[10.0], 4.0);
        match r.snapshot().get(names::FL_ROUND_TICKS) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.mean(), Some(3.0)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
