//! Server aggregation cadences: when accumulated client updates are
//! applied to the global model.
//!
//! The engine's `admit` stage hands the round's *received uploads* to
//! the [`Cadence`] chosen in [`crate::FlConfig`], which decides when
//! they turn into aggregation events:
//!
//! * [`Cadence::Sync`] — the classic barrier: every round aggregates
//!   exactly the uploads that survived that round (subject to the quorum
//!   rule). This reproduces the historical round-synchronous engine bit
//!   for bit.
//! * [`Cadence::BufferedK`] — FedBuff-style buffered aggregation: healthy
//!   uploads accumulate in a first-class server buffer and the server
//!   flushes an aggregation as soon as `k` of them are available,
//!   carrying any remainder forward to later rounds. A carried upload is
//!   discounted at flush time by its staleness (rounds since the global
//!   model it trained against).
//! * [`Cadence::Async`] — fully asynchronous per-update application: each
//!   buffered upload is applied individually, weighted by
//!   `staleness_discount(s) / n` where `n` is the number of applies that
//!   round, so a round's applies move the model on the same scale as one
//!   synchronous round however many uploads survived. `max_in_flight`
//!   bounds how many buffered uploads the server applies per round; the
//!   excess stays buffered (and ages) — the bounded in-flight window of
//!   an async server with a finite apply budget.
//!
//! All three cadences are driven by the engine's logical round counter
//! and `fedwcm-trace`'s `LogicalClock` — never wall time — so every run
//! is bitwise deterministic across thread counts and replayable across
//! checkpoint/resume (`FWCK` serializes the aggregation buffer as
//! first-class server state).

/// When the server applies accumulated client updates to the global
/// model. See the module docs for the semantics of each variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Cadence {
    /// Round-synchronous aggregation (the default): one barrier, one
    /// aggregation per round over that round's surviving uploads.
    #[default]
    Sync,
    /// FedBuff-style buffered aggregation: flush as soon as `k` healthy
    /// uploads have accumulated, carrying the remainder forward.
    BufferedK {
        /// Healthy uploads that must accumulate before a flush (≥ 1).
        k: usize,
    },
    /// Fully asynchronous, staleness-weighted per-update application.
    Async {
        /// Maximum buffered uploads applied per round (≥ 1); the excess
        /// stays buffered and ages.
        max_in_flight: usize,
    },
}

impl Cadence {
    /// Validate invariants; panics with context on misconfiguration.
    pub fn validate(&self) {
        match *self {
            Cadence::Sync => {}
            Cadence::BufferedK { k } => {
                assert!(k >= 1, "buffered cadence needs k ≥ 1, got {k}");
            }
            Cadence::Async { max_in_flight } => {
                assert!(
                    max_in_flight >= 1,
                    "async cadence needs max_in_flight ≥ 1, got {max_in_flight}"
                );
            }
        }
    }

    /// Short human/CLI label: `sync`, `buffered:K`, or `async:N`.
    pub fn label(&self) -> String {
        match *self {
            Cadence::Sync => "sync".to_string(),
            Cadence::BufferedK { k } => format!("buffered:{k}"),
            Cadence::Async { max_in_flight } => format!("async:{max_in_flight}"),
        }
    }

    /// Parse a [`Cadence::label`]-style spec: `sync`, `buffered:K`, or
    /// `async:N`. Returns `None` for anything else (including a zero
    /// parameter, which [`Cadence::validate`] would reject).
    pub fn parse(spec: &str) -> Option<Cadence> {
        if spec == "sync" {
            return Some(Cadence::Sync);
        }
        let (kind, param) = spec.split_once(':')?;
        let n: usize = param.parse().ok()?;
        if n == 0 {
            return None;
        }
        match kind {
            "buffered" => Some(Cadence::BufferedK { k: n }),
            "async" => Some(Cadence::Async { max_in_flight: n }),
            _ => None,
        }
    }

    /// Wire encoding for `FWCK` checkpoints: a variant tag and the
    /// variant's parameter (0 for [`Cadence::Sync`]).
    pub(crate) fn tag_param(&self) -> (u32, u64) {
        match *self {
            Cadence::Sync => (0, 0),
            Cadence::BufferedK { k } => (1, k as u64),
            Cadence::Async { max_in_flight } => (2, max_in_flight as u64),
        }
    }

    /// Decode [`Cadence::tag_param`]; `None` on an unknown tag or an
    /// invalid parameter.
    pub(crate) fn from_tag_param(tag: u32, param: u64) -> Option<Cadence> {
        let n = usize::try_from(param).ok()?;
        match tag {
            0 => Some(Cadence::Sync),
            1 if n >= 1 => Some(Cadence::BufferedK { k: n }),
            2 if n >= 1 => Some(Cadence::Async { max_in_flight: n }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for c in [
            Cadence::Sync,
            Cadence::BufferedK { k: 4 },
            Cadence::Async { max_in_flight: 7 },
        ] {
            assert_eq!(Cadence::parse(&c.label()), Some(c));
            c.validate();
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "synch",
            "buffered",
            "buffered:",
            "buffered:0",
            "buffered:x",
            "async:0",
            "async:-1",
            "fedbuff:3",
        ] {
            assert_eq!(Cadence::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn wire_encoding_roundtrips() {
        for c in [
            Cadence::Sync,
            Cadence::BufferedK { k: 1 },
            Cadence::Async { max_in_flight: 32 },
        ] {
            let (tag, param) = c.tag_param();
            assert_eq!(Cadence::from_tag_param(tag, param), Some(c));
        }
        assert_eq!(Cadence::from_tag_param(9, 0), None);
        assert_eq!(Cadence::from_tag_param(1, 0), None);
        assert_eq!(Cadence::from_tag_param(2, 0), None);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        Cadence::BufferedK { k: 0 }.validate();
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        Cadence::Async { max_in_flight: 0 }.validate();
    }

    #[test]
    fn default_is_sync() {
        assert_eq!(Cadence::default(), Cadence::Sync);
    }
}
