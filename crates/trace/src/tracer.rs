//! The [`Tracer`]: scoped spans and point events over a clock + sink,
//! plus the [`SpanBuffer`] / [`local`] machinery that keeps traces
//! deterministic through parallel sections.
//!
//! # Threading model
//!
//! A tracer's clock is ticked **only from the thread that owns the
//! serialized control flow** (the engine's round loop). Parallel tasks
//! never touch the main tracer; they record into a per-task
//! [`SpanBuffer`] installed through [`local::with_buffer`], each buffer
//! stamping with its own forked clock starting at 0. After the parallel
//! section the owner thread replays the buffers in a deterministic
//! order via [`Tracer::replay`], re-stamping each event with the main
//! clock and preserving the task-local tick as an `lt` field. Under a
//! [`crate::LogicalClock`] the resulting stream is byte-identical for
//! any thread count.

use crate::clock::{Clock, LogicalClock};
use crate::event::{Event, EventKind, Value};
use crate::names::Name;
use crate::sink::Sink;
use crate::sync::lock_recover;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

struct TracerInner {
    clock: Box<dyn Clock>,
    sink: Arc<dyn Sink>,
}

/// Emits spans and events to a sink, stamped by a clock. Cheap to
/// clone (shared handle); a disabled tracer makes every operation a
/// no-op, so instrumented code needs no conditionals.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer over the given clock and sink.
    pub fn new(clock: Box<dyn Clock>, sink: Arc<dyn Sink>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner { clock, sink })),
        }
    }

    /// The no-op tracer: every operation returns immediately.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// True when events actually reach a sink. Callers may use this to
    /// skip building field vectors on the hot path.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span: emits a `start` event carrying `fields` now and an
    /// `end` event when the returned guard drops.
    ///
    /// The name is a [`Name`], which only `names.rs` can make — a string
    /// literal or a misspelt constant does not compile:
    ///
    /// ```compile_fail
    /// // expected `Name`, found `&str` (E0308)
    /// let t = fedwcm_trace::Tracer::disabled();
    /// let _g = t.span("round", vec![]);
    /// ```
    /// ```compile_fail
    /// // no associated item `RUOND` (E0599)
    /// use fedwcm_trace::names::Name;
    /// let t = fedwcm_trace::Tracer::disabled();
    /// let _g = t.span(Name::RUOND, vec![]);
    /// ```
    /// ```
    /// use fedwcm_trace::names::Name;
    /// let t = fedwcm_trace::Tracer::disabled();
    /// let _g = t.span(Name::ROUND, vec![]);
    /// ```
    pub fn span(&self, name: Name, fields: Vec<(&'static str, Value)>) -> SpanGuard<'_> {
        self.emit(EventKind::Start, name, fields);
        SpanGuard { tracer: self, name }
    }

    /// Emit an instantaneous event.
    pub fn point(&self, name: Name, fields: Vec<(&'static str, Value)>) {
        self.emit(EventKind::Point, name, fields);
    }

    /// Read the tracer's clock, or `None` when disabled. Note that a
    /// read advances a [`LogicalClock`] by one tick, so call this the
    /// same number of times on every run path that should compare
    /// equal. Call only from the clock-owning thread.
    pub fn now(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.clock.tick())
    }

    /// A fresh clock of the tracer's kind for a parallel task's
    /// [`SpanBuffer`] (a [`LogicalClock`] when the tracer is disabled,
    /// so callers never need a special case).
    pub fn fork_clock(&self) -> Box<dyn Clock> {
        match &self.inner {
            Some(inner) => inner.clock.fork(),
            None => Box::new(LogicalClock::new()),
        }
    }

    /// Replay buffered task events into this tracer: each event is
    /// re-stamped with the main clock and keeps its task-local tick as
    /// an `lt` field. Call only from the clock-owning thread, in a
    /// deterministic buffer order.
    pub fn replay(&self, events: Vec<Event>) {
        let Some(inner) = &self.inner else { return };
        for mut e in events {
            let lt = e.t;
            e.t = inner.clock.tick();
            e.fields.push(("lt", Value::U64(lt)));
            inner.sink.record(&e);
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }

    fn emit(&self, kind: EventKind, name: Name, fields: Vec<(&'static str, Value)>) {
        if let Some(inner) = &self.inner {
            let e = Event {
                t: inner.clock.tick(),
                kind,
                name: name.as_str(),
                fields,
            };
            inner.sink.record(&e);
        }
    }
}

/// Closes its span (emits the `end` event) on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: Name,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.emit(EventKind::End, self.name, Vec::new());
    }
}

/// Event buffer for one parallel task: events are stamped with the
/// buffer's own forked clock (starting at 0) and later replayed into
/// the main tracer in a deterministic order (see [`Tracer::replay`]).
pub struct SpanBuffer {
    clock: Box<dyn Clock>,
    events: Mutex<Vec<Event>>,
}

impl SpanBuffer {
    /// A buffer stamping with `clock` (usually [`Tracer::fork_clock`]).
    pub fn new(clock: Box<dyn Clock>) -> Self {
        SpanBuffer {
            clock,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Take the recorded events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *lock_recover(&self.events))
    }

    fn emit(&self, kind: EventKind, name: Name, fields: Vec<(&'static str, Value)>) {
        let e = Event {
            t: self.clock.tick(),
            kind,
            name: name.as_str(),
            fields,
        };
        lock_recover(&self.events).push(e);
    }
}

/// Thread-local span recording for code running inside parallel tasks
/// (client local training). When no buffer is installed every call is a
/// cheap no-op, so library code can be instrumented unconditionally.
pub mod local {
    use super::{EventKind, Name, SpanBuffer, Value};
    use std::sync::Arc;

    std::thread_local! {
        static BUFFER: super::RefCell<Option<Arc<SpanBuffer>>> =
            const { super::RefCell::new(None) };
    }

    /// Run `f` with `buf` installed as this thread's span buffer,
    /// restoring the previous buffer afterwards (also on panic).
    pub fn with_buffer<R>(buf: &Arc<SpanBuffer>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<SpanBuffer>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                BUFFER.with(|b| *b.borrow_mut() = self.0.take());
            }
        }
        let prev = BUFFER.with(|b| b.borrow_mut().replace(Arc::clone(buf)));
        let _restore = Restore(prev);
        f()
    }

    /// True when a buffer is installed on this thread (lets hot paths
    /// skip building field vectors).
    pub fn active() -> bool {
        BUFFER.with(|b| b.borrow().is_some())
    }

    /// Open a span in the installed buffer (no-op without one). The
    /// guard emits the `end` event on drop.
    pub fn span(name: Name, fields: Vec<(&'static str, Value)>) -> LocalSpanGuard {
        let buf = BUFFER.with(|b| b.borrow().clone());
        if let Some(buf) = &buf {
            buf.emit(EventKind::Start, name, fields);
        }
        LocalSpanGuard { buf, name }
    }

    /// Emit an instantaneous event into the installed buffer (no-op
    /// without one).
    pub fn point(name: Name, fields: Vec<(&'static str, Value)>) {
        BUFFER.with(|b| {
            if let Some(buf) = &*b.borrow() {
                buf.emit(EventKind::Point, name, fields);
            }
        });
    }

    /// Closes its buffered span on drop.
    #[must_use = "dropping the guard immediately closes the span"]
    pub struct LocalSpanGuard {
        buf: Option<Arc<SpanBuffer>>,
        name: Name,
    }

    impl Drop for LocalSpanGuard {
        fn drop(&mut self) {
            if let Some(buf) = &self.buf {
                buf.emit(EventKind::End, self.name, Vec::new());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    fn ring_tracer() -> (Tracer, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(1024));
        let t = Tracer::new(Box::new(LogicalClock::new()), ring.clone());
        (t, ring)
    }

    #[test]
    fn span_emits_start_and_end_in_order() {
        let (t, ring) = ring_tracer();
        {
            let _g = t.span(Name::ROUND, vec![("round", Value::U64(0))]);
            t.point(Name::ACK, vec![]);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!((evs[0].kind, evs[0].name), (EventKind::Start, "round"));
        assert_eq!((evs[1].kind, evs[1].name), (EventKind::Point, "ack"));
        assert_eq!((evs[2].kind, evs[2].name), (EventKind::End, "round"));
        assert_eq!(evs.iter().map(|e| e.t).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let _g = t.span(Name::ROUND, vec![]);
        t.point(Name::ACK, vec![]);
        t.flush();
    }

    #[test]
    fn replay_restamps_and_keeps_local_ticks() {
        let (t, ring) = ring_tracer();
        let buf = Arc::new(SpanBuffer::new(t.fork_clock()));
        local::with_buffer(&buf, || {
            let _g = local::span(Name::LOCAL_EPOCH, vec![("epoch", Value::U64(0))]);
            local::point(Name::RETRY, vec![]);
        });
        assert!(!local::active());
        t.replay(buf.drain());
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        // Main-clock stamps are 0,1,2; local ticks preserved as `lt`.
        assert_eq!(evs.iter().map(|e| e.t).collect::<Vec<_>>(), [0, 1, 2]);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.fields.last(), Some(&("lt", Value::U64(i as u64))));
        }
    }

    #[test]
    fn local_calls_without_buffer_are_noops() {
        assert!(!local::active());
        let _g = local::span(Name::LOCAL_EPOCH, vec![]);
        local::point(Name::RETRY, vec![]);
    }

    #[test]
    fn with_buffer_restores_previous() {
        let a = Arc::new(SpanBuffer::new(Box::new(LogicalClock::new())));
        let b = Arc::new(SpanBuffer::new(Box::new(LogicalClock::new())));
        local::with_buffer(&a, || {
            local::point(Name::RETRY, vec![]);
            local::with_buffer(&b, || local::point(Name::ACK, vec![]));
            local::point(Name::RETRY, vec![]);
        });
        assert_eq!(a.drain().len(), 2);
        assert_eq!(b.drain().len(), 1);
    }
}
