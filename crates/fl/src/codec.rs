//! The one byte codec behind `FWCK` checkpoints, transport payloads and
//! algorithm state blobs: the only module that knows the little-endian
//! format.
//!
//! [`Wire`] pairs a writer with its reader ([`ByteReader`]), and
//! `wire_struct!` takes a struct's fields **once, in wire order** and
//! expands to both directions — so a writer and a reader cannot drift
//! apart, and a new serialized field is one line in the table below.
//! Integers and floats are little-endian and floats keep their bit
//! patterns exactly, NaN payloads included; every sequence is a `u64`
//! count, then its elements; every tag accepts only the values its
//! writer emits, so `get → put` is the identity on accepted input; every
//! length is checked against the remaining buffer before anything is
//! allocated.
//!
//! An algorithm's cross-round state is a [`Wire`] value too:
//! `save_state` is its [`Wire::encode`], `load_state` its
//! [`decode_state`].

use crate::algorithm::StateError;
use crate::cadence::Cadence;
use crate::client::ClientUpdate;
use crate::engine::{BufferedUpdate, PendingUpdate};
use crate::metrics::{History, RoundFaults, RoundRecord};
use fedwcm_trace::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
use fedwcm_transport::NetCounters;

/// Sequential reader over encoded bytes. Reading past the end is `None`,
/// never a panic, so every decoder surfaces truncation as a typed error.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Reader starting at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { rest: buf }
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes, if all of them are there.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }
}

/// A value with one byte encoding: `get` reads exactly what `put` wrote
/// and returns `None` on truncation, a bad tag, or a corrupt length.
pub trait Wire: Sized {
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

/// [`FederatedAlgorithm::load_state`](crate::FederatedAlgorithm::load_state)
/// at the state's type: exactly one `T`, or
/// [`StateError::Malformed`] — so a truncated blob, or one from a richer
/// algorithm, cannot load as a plain buffer.
pub fn decode_state<T: Wire>(bytes: &[u8]) -> Result<T, StateError> {
    T::decode(bytes).ok_or(StateError::Malformed)
}

/// Fixed-width numbers: their little-endian bytes.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                r.array().map(<$t>::from_le_bytes)
            }
            fn wire_len(&self) -> usize {
                size_of::<$t>()
            }
        }
    )*};
}

wire_le!(u32, u64, f32, f64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        usize::try_from(u64::get(r)?).ok()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u32::from(*self).put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        match u32::get(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn wire_len(&self) -> usize {
        size_of::<u32>()
    }
}

/// The state of an algorithm that carries nothing across rounds: the
/// empty byte string.
impl Wire for () {
    fn put(&self, _: &mut Vec<u8>) {}
    fn get(_: &mut ByteReader<'_>) -> Option<Self> {
        Some(())
    }
    fn wire_len(&self) -> usize {
        0
    }
}

/// Two values back to back (two-field algorithm states).
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some((A::get(r)?, B::get(r)?))
    }
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = usize::get(r)?;
        String::from_utf8(r.take(n)?.to_vec()).ok()
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>() + self.len()
    }
}

/// Opaque byte blob (the algorithm state).
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = usize::get(r)?;
        Some(r.take(n)?.to_vec())
    }
    fn wire_len(&self) -> usize {
        size_of::<u64>() + self.len()
    }
}

/// Parameter-length vectors stay on the bulk path: one reserve and one
/// flattened conversion on the way out (a block copy on little-endian
/// targets), the length-before-allocate guard and one conversion on the
/// way in.
impl Wire for Vec<f32> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.reserve(size_of_val(self.as_slice()));
        out.extend(self.iter().flat_map(|v| v.to_le_bytes()));
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = usize::get(r)?;
        // `take` fails unless all `4 n` bytes are there.
        let bytes = r.take(n.checked_mul(size_of::<f32>())?)?;
        let floats = bytes.as_chunks().0;
        Some(floats.iter().map(|b| f32::from_le_bytes(*b)).collect())
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
        Some([u64::get(r)?, u64::get(r)?, u64::get(r)?, u64::get(r)?])
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
    Vec<f32>,
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
            fn get(r: &mut $crate::codec::ByteReader<'_>) -> Option<Self> {
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

/// "The same round" is the same codec bytes: every field above, floats by
/// bit pattern (`0.0 ≠ −0.0`, a NaN equals only its own payload). The
/// table is the one field list, so a new column is compared as soon as it
/// is serialized.
impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

wire_struct!(HistogramSnapshot { total, sum });
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
        Cadence::from_tag_param(u32::get(r)?, u64::get(r)?)
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
        Some(match u32::get(r)? {
            0 => MetricValue::Counter(u64::get(r)?),
            1 => MetricValue::Gauge(f64::get(r)?),
            2 => MetricValue::Histogram(HistogramSnapshot::get(r)?),
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
    fn leaves_roundtrip_bit_for_bit() {
        let mut buf = Vec::new();
        7u32.put(&mut buf);
        (u64::MAX - 3).put(&mut buf);
        f32::NAN.put(&mut buf);
        (-0.0f64).put(&mut buf);
        String::from("Δ-résilience").put(&mut buf);
        vec![0xdeu8, 0xad].put(&mut buf);
        let mut r = ByteReader::new(&buf);
        assert_eq!(u32::get(&mut r), Some(7));
        assert_eq!(u64::get(&mut r), Some(u64::MAX - 3));
        assert_eq!(f32::get(&mut r).map(f32::to_bits), Some(f32::NAN.to_bits()));
        assert_eq!(
            f64::get(&mut r).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(String::get(&mut r).as_deref(), Some("Δ-résilience"));
        assert_eq!(<Vec<u8>>::get(&mut r), Some(vec![0xde, 0xad]));
        assert!(r.is_exhausted());
        assert_eq!(u32::get(&mut r), None, "reads past the end return None");
    }

    #[test]
    fn records_are_equal_exactly_when_their_bytes_are() {
        let base = RoundRecord {
            round: 3,
            train_loss: Some(0.5),
            update_norm: 1.25,
            test_acc: Some(0.75),
            alpha: Some(0.1),
            aggregations: 1,
            dropped_updates: 2,
            ..RoundRecord::default()
        };
        assert_eq!(base, base.clone());
        let edits: [fn(&mut RoundRecord); 9] = [
            |r| r.round += 1,
            |r| r.train_loss = None,
            |r| r.update_norm = 1.5,
            |r| r.test_acc = Some(0.5),
            |r| r.alpha = None,
            |r| r.aggregations += 1,
            |r| r.dropped_updates += 1,
            |r| r.faults.replays += 1,
            |r| r.net.retries += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut r = base.clone();
            edit(&mut r);
            assert_ne!(r, base, "edit {i}");
        }
        let norm = |x: f64| RoundRecord {
            update_norm: x,
            ..base.clone()
        };
        assert_ne!(norm(0.0), norm(-0.0));
        assert_eq!(norm(f64::NAN), norm(f64::NAN));
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        assert_ne!(norm(f64::NAN), norm(other_nan));
    }

    #[test]
    fn a_state_is_exactly_one_value() {
        let v = vec![1.5f32, f32::NAN, -0.0];
        let blob = v.encode();
        assert_eq!(blob.len(), 8 + 3 * 4, "a u64 count, then the floats");
        let back: Vec<f32> = decode_state(&blob).expect("roundtrip");
        assert!(back
            .iter()
            .map(|x| x.to_bits())
            .eq(v.iter().map(|x| x.to_bits())));
        let mut long = blob.clone();
        long.push(0);
        assert_eq!(decode_state::<Vec<f32>>(&long), Err(StateError::Malformed));
        let short = &blob[..blob.len() - 1];
        assert_eq!(decode_state::<Vec<f32>>(short), Err(StateError::Malformed));
        assert!(().encode().is_empty());
        assert_eq!(decode_state::<()>(&[]), Ok(()));
        assert_eq!(decode_state::<()>(&[0]), Err(StateError::Malformed));
    }

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
    fn a_timer_is_its_count_then_its_sum() {
        let timer = MetricValue::Histogram(HistogramSnapshot {
            total: 12,
            sum: 20.5,
        });
        let bytes = timer.encode();
        assert_eq!(bytes.len(), 4 + 8 + 8, "tag, total, sum");
        assert_eq!(MetricValue::decode(&bytes), Some(timer));
        assert_eq!(MetricValue::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn corrupt_counts_fail_without_reserving() {
        // u64::MAX elements announced, four bytes present.
        let mut bytes = Vec::new();
        u64::MAX.put(&mut bytes);
        1u32.put(&mut bytes);
        assert!(<Vec<MetricEntry>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(<Vec<f32>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(<Vec<u8>>::get(&mut ByteReader::new(&bytes)).is_none());
        assert!(String::get(&mut ByteReader::new(&bytes)).is_none());
    }
}
