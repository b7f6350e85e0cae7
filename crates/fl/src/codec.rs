//! The one byte codec behind `FWCK` checkpoints and transport payloads.
//!
//! [`Wire`] pairs a writer with its reader over the little-endian
//! primitives of `fedwcm_nn::serialize`, and [`wire_struct!`] takes a
//! struct's fields **once, in wire order** and expands to both
//! directions — so a writer and a reader cannot drift apart, and a new
//! serialized field is one line in the table below. Float bit patterns
//! are preserved exactly; every tag accepts only the values its writer
//! emits, so `get → put` is the identity on accepted input; every
//! length is checked against the remaining buffer before anything is
//! allocated.

use crate::cadence::Cadence;
use crate::client::ClientUpdate;
use crate::engine::{BufferedUpdate, PendingUpdate};
use crate::metrics::{History, RoundFaults, RoundRecord};
use fedwcm_nn::serialize::{
    put_bytes, put_f32, put_f32s, put_f64, put_str, put_u32, put_u64, ByteReader,
};
use fedwcm_trace::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
use fedwcm_transport::NetCounters;

/// A value with one byte encoding: `get` reads exactly what `put` wrote
/// and returns `None` on truncation, a bad tag, or a corrupt length.
pub(crate) trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value, advancing the reader.
    fn get(r: &mut ByteReader<'_>) -> Option<Self>;
    /// How many bytes `put` appends: what a writer reserves, once,
    /// before the first of them.
    fn wire_len(&self) -> usize;

    /// `self` as a standalone byte string, in one allocation.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.put(&mut out);
        debug_assert_eq!(out.len(), self.wire_len(), "wire_len disagrees with put");
        out
    }
    /// Parse a standalone byte string: exactly one value, no trailing
    /// bytes.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let v = Self::get(&mut r)?;
        r.is_exhausted().then_some(v)
    }
}

/// Leaf impls straight over a `put_*` / `ByteReader::*` pair.
macro_rules! wire_leaf {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$get()
            }
            fn wire_len(&self) -> usize {
                size_of::<$t>()
            }
        }
    )*};
}

wire_leaf! {
    u32 => put_u32, u32;
    u64 => put_u64, u64;
    f32 => put_f32, f32;
    f64 => put_f64, f64;
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, u32::from(*self));
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        match r.u32()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn wire_len(&self) -> usize {
        size_of::<u32>()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.str()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>() + self.len()
    }
}

/// Opaque byte blob (the algorithm state).
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.bytes()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>() + self.len()
    }
}

/// Parameter-length vectors stay on the bulk path: one reserve on the
/// way out, the length-before-allocate guard on the way in.
impl Wire for Vec<f32> {
    fn put(&self, out: &mut Vec<u8>) {
        put_f32s(out, self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.f32s()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>() + size_of_val(self.as_slice())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
    fn wire_len(&self) -> usize {
        size_of::<u32>() + self.as_ref().map_or(0, T::wire_len)
    }
}

impl Wire for [u64; 4] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
    }
    fn wire_len(&self) -> usize {
        size_of::<Self>()
    }
}

/// Record vectors: a `u64` count, then the elements. The count is
/// untrusted, so it only pre-sizes up to a cap — a corrupt one runs the
/// reader dry and fails instead of reserving memory. Deliberately not a
/// blanket `impl Wire for Vec<T>`: that would shadow the bulk
/// `Vec<f32>` path above.
macro_rules! wire_seq {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for Vec<$t> {
            fn put(&self, out: &mut Vec<u8>) {
                self.len().put(out);
                for v in self {
                    v.put(out);
                }
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                let n = usize::get(r)?;
                let mut out = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    out.push(Wire::get(r)?);
                }
                Some(out)
            }
            fn wire_len(&self) -> usize {
                size_of::<u64>() + self.iter().map(Wire::wire_len).sum::<usize>()
            }
        }
    )*};
}

wire_seq!(
    f64,
    u64,
    MetricEntry,
    RoundRecord,
    PendingUpdate,
    BufferedUpdate,
    Option<Vec<f32>>,
);

/// Implement [`Wire`] for a struct from its fields listed once, in wire
/// order; both directions expand from the same list.
macro_rules! wire_struct {
    ($t:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Wire::put(&self.$field, out);)*
            }
            fn get(r: &mut fedwcm_nn::serialize::ByteReader<'_>) -> Option<Self> {
                // Struct-literal fields are evaluated in source order.
                Some($t { $($field: $crate::codec::Wire::get(r)?,)* })
            }
            fn wire_len(&self) -> usize {
                0 $(+ $crate::codec::Wire::wire_len(&self.$field))*
            }
        }
    };
}
pub(crate) use wire_struct;

wire_struct!(ClientUpdate {
    client,
    num_samples,
    num_batches,
    avg_loss,
    delta,
    extra,
});
wire_struct!(RoundFaults {
    dropouts,
    stragglers,
    late_merged,
    late_requeued,
    corruptions,
    replays,
    quorum_failed,
});
wire_struct!(NetCounters {
    frames_sent,
    retries,
    rejected_frames,
    duplicates,
    delayed,
    degraded,
    retransmitted_bytes,
    rejected_bytes,
});
wire_struct!(RoundRecord {
    round,
    train_loss,
    update_norm,
    test_acc,
    alpha,
    aggregations,
    dropped_updates,
    faults,
    net,
});
wire_struct!(HistogramSnapshot {
    bounds,
    counts,
    total,
    sum,
    nan_rejected,
});
wire_struct!(MetricEntry { name, value });
wire_struct!(MetricsSnapshot { entries });
wire_struct!(History {
    name,
    records,
    metrics,
});
wire_struct!(PendingUpdate {
    arrival_round,
    staleness,
    via_net,
    update,
});
wire_struct!(BufferedUpdate { base_round, update });

impl Wire for Cadence {
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, param) = self.tag_param();
        tag.put(out);
        param.put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Cadence::from_tag_param(r.u32()?, r.u64()?)
    }
    fn wire_len(&self) -> usize {
        size_of::<u32>() + size_of::<u64>()
    }
}

impl Wire for MetricValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            MetricValue::Counter(c) => {
                0u32.put(out);
                c.put(out);
            }
            MetricValue::Gauge(g) => {
                1u32.put(out);
                g.put(out);
            }
            MetricValue::Histogram(h) => {
                2u32.put(out);
                h.put(out);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u32()? {
            0 => MetricValue::Counter(r.u64()?),
            1 => MetricValue::Gauge(r.f64()?),
            2 => {
                let h = HistogramSnapshot::get(r)?;
                // One count per bucket plus the overflow slot.
                if h.counts.len() != h.bounds.len() + 1 {
                    return None;
                }
                MetricValue::Histogram(h)
            }
            _ => return None,
        })
    }
    fn wire_len(&self) -> usize {
        size_of::<u32>()
            + match self {
                MetricValue::Counter(c) => c.wire_len(),
                MetricValue::Gauge(g) => g.wire_len(),
                MetricValue::Histogram(h) => h.wire_len(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_accept_only_what_their_writer_emits() {
        for (tag, want) in [(0u32, Some(false)), (1, Some(true)), (2, None)] {
            let bytes = tag.to_le_bytes();
            assert_eq!(bool::get(&mut ByteReader::new(&bytes)), want);
            let opt = <Option<u32>>::get(&mut ByteReader::new(&[bytes, bytes].concat()));
            assert_eq!(opt.is_some(), tag < 2, "option tag {tag}");
        }
        let mut bytes = Vec::new();
        9u32.put(&mut bytes);
        7u64.put(&mut bytes);
        assert!(MetricValue::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(Cadence::get(&mut ByteReader::new(&bytes)).is_none());
    }

    #[test]
    fn histogram_needs_one_count_per_bucket_plus_overflow() {
        let mut h = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![3, 4, 5],
            total: 12,
            sum: 20.5,
            nan_rejected: 0,
        };
        let good = MetricValue::Histogram(h.clone());
        assert_eq!(MetricValue::decode(&good.encode()), Some(good));
        h.counts.pop();
        assert_eq!(
            MetricValue::decode(&MetricValue::Histogram(h).encode()),
            None
        );
    }

    #[test]
    fn corrupt_counts_fail_without_reserving() {
        // u64::MAX elements announced, four bytes present.
        let mut bytes = Vec::new();
        u64::MAX.put(&mut bytes);
        1u32.put(&mut bytes);
        assert!(<Vec<u64>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(<Vec<f32>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(<Vec<u8>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(String::get(&mut ByteReader::new(&bytes)).is_none());
    }
}
