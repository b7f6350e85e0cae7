//! Pluggable event sinks: a bounded ring buffer and a JSONL writer.
//!
//! # Sink contract
//!
//! [`Sink::record`] is called once per event, in emission order, always
//! from the thread that owns the tracer's clock (the engine's round
//! loop; parallel work is buffered and replayed — see [`crate::tracer`]).
//! A sink must therefore preserve arrival order; it may drop events
//! (ring buffer) but must never reorder them. `record` must not panic:
//! I/O errors are swallowed, because observability must never take down
//! a training run.

use crate::event::Event;
use crate::sync::{lock_recover, lock_writer};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receives every emitted event; see the module docs for the contract.
pub trait Sink: Send + Sync {
    /// Record one event (in emission order).
    fn record(&self, event: &Event);

    /// Flush any buffered output (default: nothing to do).
    fn flush(&self) {}
}

/// Bounded in-memory buffer keeping the most recent events; the test
/// sink, and a cheap always-on flight recorder.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock_recover(&self.buf).iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock_recover(&self.buf).len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = lock_recover(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Writes one JSON object per event to any `Write` target (a file for
/// runs, a [`SharedBuf`] for tests, stdout for the CI probe).
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    w: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer. Each event becomes `<json>\n`; write errors are
    /// swallowed (observability must not crash the run).
    pub fn new(w: W) -> Self {
        JsonlSink { w: Mutex::new(w) }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: &Event) {
        let mut w = lock_writer(&self.w);
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = lock_writer(&self.w).flush();
    }
}

/// A clonable in-memory `Write` target: every clone appends to the same
/// buffer. Lets tests hand a writer to a [`JsonlSink`] and still read
/// the bytes back afterwards.
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A fresh, empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        lock_recover(&self.0).clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock_recover(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> Event {
        Event {
            t,
            kind: EventKind::Point,
            name: "x",
            fields: vec![],
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(&ev(t));
        }
        let ts: Vec<u64> = ring.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, [2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        sink.record(&ev(1));
        sink.record(&ev(2));
        sink.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"t\":1,"));
    }

    /// The case `lock-order`'s call graph could not see: the reverse of
    /// the one listed nesting, through `W: Write`. `SharedBuf.0` is
    /// held, then `record` wants `JsonlSink.w` — whose critical section
    /// locks `SharedBuf.0`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order")]
    fn recording_into_a_sink_over_a_held_buffer_panics() {
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        let _held = lock_recover(&buf.0);
        sink.record(&ev(1));
    }

    #[test]
    fn shared_buf_clones_share_storage() {
        let a = SharedBuf::new();
        let mut b = a.clone();
        b.write_all(b"hi").unwrap();
        assert_eq!(a.contents(), b"hi");
    }
}
