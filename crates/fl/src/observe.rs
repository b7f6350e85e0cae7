//! Where a run's spans and metrics go: the [`Observability`] attachments
//! of a simulation, and the per-round [`RoundCtx`] every engine stage
//! reports through.
//!
//! Every `tracer.now()`, span open and span close is a `LogicalClock`
//! tick, so the *sequence of reads* is part of the trace bytes; and
//! `counter_add(name, 0)` creates the entry, so which metrics a path
//! touches is part of the snapshot bytes. The stages' docs say which
//! reads and which names each path owns.

use fedwcm_trace::{MetricsRegistry, Name, SpanGuard, Tracer, Value};
use std::sync::Arc;

/// Observability attachments for a [`crate::Simulation`], both off by
/// default.
///
/// The tracer's clock is only ever ticked from the serialized round
/// loop; client-local work records into per-task span buffers that the
/// training stage replays in sampled-index order, so traces are
/// byte-identical across thread counts under a
/// [`fedwcm_trace::LogicalClock`].
#[derive(Default)]
pub struct Observability {
    /// Structured span/event stream (disabled tracer by default).
    pub tracer: Tracer,
    /// Metrics registry; its snapshot lands in
    /// [`crate::History::metrics`] at the end of every drive and is
    /// restored on checkpoint resume.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

/// One open round: which round it is, how many clients were sampled,
/// where spans and metrics go — and the `round` span itself, closed by
/// [`RoundCtx::close`].
pub(crate) struct RoundCtx<'a> {
    /// The round being executed.
    pub(crate) round: usize,
    /// Size of the sampled cohort (the quorum denominator).
    pub(crate) sampled_len: usize,
    /// The simulation's tracer.
    pub(crate) tracer: &'a Tracer,
    /// The attached metrics registry, if any.
    pub(crate) registry: Option<&'a MetricsRegistry>,
    /// The clock when the round opened, if traced.
    t0: Option<u64>,
    /// The open `round` span (`None` once closed).
    span: Option<SpanGuard<'a>>,
}

impl<'a> RoundCtx<'a> {
    /// Read the clock, then open the `round` span.
    pub(crate) fn open(round: usize, sampled_len: usize, obs: &'a Observability) -> Self {
        let tracer = &obs.tracer;
        let t0 = tracer.now();
        let fields = vec![
            ("round", Value::U64(round as u64)),
            ("sampled", Value::U64(sampled_len as u64)),
        ];
        RoundCtx {
            round,
            sampled_len,
            tracer,
            registry: obs.metrics.as_deref(),
            t0,
            span: Some(tracer.span(Name::ROUND, fields)),
        }
    }

    /// Close the `round` span, then book the round's ticks.
    pub(crate) fn close(mut self) {
        drop(self.span.take());
        self.observe_phase(Name::FL_ROUND_TICKS, self.t0);
    }

    /// Record the ticks since `t0` in the named phase timer. The clock
    /// is read whenever the tracer is enabled (tick sequences do not
    /// depend on the registry); the sample needs a registry to land.
    pub(crate) fn observe_phase(&self, name: Name, t0: Option<u64>) {
        if let (Some(t0), Some(t1)) = (t0, self.tracer.now()) {
            if let Some(reg) = self.registry {
                reg.observe(name, t1.saturating_sub(t0));
            }
        }
    }

    /// The `round` / `client` pair most engine events open with.
    pub(crate) fn at(&self, client: usize) -> Vec<(&'static str, Value)> {
        vec![
            ("round", Value::U64(self.round as u64)),
            ("client", Value::U64(client as u64)),
        ]
    }

    /// Emit a structured `fault` point: what happened to `client`'s
    /// upload, plus one numeric detail.
    pub(crate) fn fault_point(
        &self,
        kind: &str,
        client: usize,
        detail: Option<(&'static str, usize)>,
    ) {
        if self.tracer.enabled() {
            let mut fields = self.at(client);
            fields.push(("kind", Value::Str(kind.to_string())));
            fields.extend(detail.map(|(k, v)| (k, Value::U64(v as u64))));
            self.tracer.point(Name::FAULT, fields);
        }
    }
}
