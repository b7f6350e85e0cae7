//! `flbench`'s own span recorder: one span around every call the
//! benchmark makes into a layer — name, start, end and the span that
//! caused it. Spans stay in memory and are written as JSONL when the run
//! ends. Disarmed (every end-to-end run) a call pays one relaxed load.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span (its index in the recorder).
pub type SpanId = u32;

/// One recorded span; times are nanoseconds since the recorder's base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `data.generate_train`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while still open).
    pub end_ns: u64,
}

/// The recorder. Shared by reference with the [`crate::timed::Timed`]
/// adapter, whose `local_train` runs on worker threads — hence the mutex.
pub struct Spans {
    // Relaxed: the flag guards only whether statistics are taken.
    armed: AtomicBool,
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A disarmed, empty recorder.
    pub fn new() -> Self {
        Spans {
            armed: AtomicBool::new(false),
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start or stop recording. Arming reserves room for the spans of a
    /// whole run up front, so that the recorder never grows — a copy of
    /// every span, under the mutex — inside a repetition being timed.
    pub fn set_armed(&self, on: bool) {
        if on {
            self.lock().reserve(1 << 17);
        }
        self.armed.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; `None` when disarmed.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let id = SpanId::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(id)
    }

    /// Close a span returned by [`Spans::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.lock()[id as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span called `name` under `parent`.
    pub fn record<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children of one parent may overlap when
/// they ran on different workers, so the cover is a union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed by span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += t;
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out
}

/// Write the spans as JSONL: one object per span with its self time.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", None, 0, 100),
            // Two workers overlapping on 20..30: the union covers 10..40.
            span("train", Some(0), 10, 30),
            span("train", Some(0), 20, 40),
            span("aggregate", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
        assert_eq!(
            self_time_by_name(&spans),
            vec![("run", 60), ("train", 40), ("aggregate", 10)]
        );
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let s = Spans::new();
        assert_eq!(s.record("x", None, || 7), 7);
        assert!(s.snapshot().is_empty());
        s.set_armed(true);
        let outer = s.open("outer", None);
        assert_eq!(s.record("inner", outer, || outer), Some(0));
        s.close(outer);
        let got = s.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].parent, Some(0));
        assert!(got[0].end_ns >= got[1].end_ns && got[1].end_ns >= got[1].start_ns);
    }
}
