//! Wire serialization of client uploads for the transport layer.
//!
//! The transport ([`fedwcm_transport`]) moves opaque byte payloads; this
//! module defines the payload format for a [`ClientUpdate`] so an upload
//! can cross a lossy link and be reconstructed bit for bit on the other
//! side. Float components are carried as raw IEEE-754 bit patterns —
//! NaNs and infinities survive the trip, because the engine's
//! containment filter must see exactly what the client (or a fault)
//! emitted. The byte layout is the [`ClientUpdate`] row of the field
//! table in `crate::codec` — the same impl `FWCK` checkpoints use for
//! their buffered uploads.

use crate::client::ClientUpdate;
use crate::codec::Wire;

/// Serialize an upload into transport payload bytes: [`put_update`] into
/// a buffer of [`encoded_len`] bytes.
pub fn encode_update(u: &ClientUpdate) -> Vec<u8> {
    u.encode()
}

/// Append the payload bytes of `u` to `out` — what [`encode_update`]
/// returns, written in place. The engine hands this to
/// [`fedwcm_transport::Courier::deliver_with`], so an upload is
/// serialized straight into its frame.
pub fn put_update(out: &mut Vec<u8>, u: &ClientUpdate) {
    u.put(out);
}

/// How many bytes [`put_update`] appends for `u`.
pub fn encoded_len(u: &ClientUpdate) -> usize {
    u.wire_len()
}

/// Reconstruct an upload from transport payload bytes; `None` on any
/// structural damage (short buffer, bad tag, trailing bytes).
pub fn decode_update(bytes: &[u8]) -> Option<ClientUpdate> {
    ClientUpdate::decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(extra: Option<Vec<f32>>) -> ClientUpdate {
        ClientUpdate {
            client: 7,
            delta: vec![1.0, -2.5, f32::NAN, f32::INFINITY, 0.0],
            num_samples: 128,
            num_batches: 4,
            avg_loss: 0.75,
            extra,
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_trip_preserves_bit_patterns() {
        for extra in [None, Some(vec![0.5, f32::NEG_INFINITY])] {
            let u = sample(extra);
            let got = decode_update(&encode_update(&u)).expect("decodable");
            assert_eq!(got.client, u.client);
            assert_eq!(got.num_samples, u.num_samples);
            assert_eq!(got.num_batches, u.num_batches);
            assert_eq!(got.avg_loss.to_bits(), u.avg_loss.to_bits());
            assert_eq!(bits(&got.delta), bits(&u.delta), "NaN bits must survive");
            assert_eq!(got.extra.is_some(), u.extra.is_some());
            if let (Some(a), Some(b)) = (&got.extra, &u.extra) {
                assert_eq!(bits(a), bits(b));
            }
        }
    }

    #[test]
    fn damage_is_rejected_not_misparsed() {
        let bytes = encode_update(&sample(None));
        for keep in 0..bytes.len() {
            assert!(decode_update(&bytes[..keep]).is_none(), "prefix {keep}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_update(&extended).is_none(), "trailing byte");
        let mut bad_tag = bytes;
        let tag_at = bad_tag.len() - 4;
        bad_tag[tag_at..].copy_from_slice(&9u32.to_le_bytes());
        assert!(decode_update(&bad_tag).is_none(), "unknown extra tag");
    }
}
