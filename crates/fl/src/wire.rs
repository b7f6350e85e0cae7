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

/// Serialize an upload into transport payload bytes, in one allocation.
/// (The engine does not call this: it hands the same writer to
/// [`fedwcm_transport::Courier::deliver_with`], so an upload is
/// serialized straight into its frame.)
pub fn encode_update(u: &ClientUpdate) -> Vec<u8> {
    u.encode()
}

/// Reconstruct an upload from transport payload bytes; `None` on any
/// structural damage (short buffer, bad tag, trailing bytes). (The
/// engine does not call this either: a delivered frame is the sender's
/// own, written from the upload the engine still holds, so it keeps that
/// upload.)
pub fn decode_update(bytes: &[u8]) -> Option<ClientUpdate> {
    ClientUpdate::decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undiscounted::Undiscounted;
    use fedwcm_transport::frame::{self, Message, HEADER_LEN, TRAILER_LEN};
    use proptest::prelude::*;

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

    // The in-place upload writer against the path it replaced: for an
    // arbitrary `ClientUpdate`, the frame the engine now builds in one
    // buffer (`frame::encode_delta_up` over the upload's `put`) is, byte
    // for byte, `frame::encode` of a `DeltaUp` carrying `encode_update`,
    // and parsing the payload where it lies in the frame gives what
    // parsing an owned copy of it gives. Damage is still refused on both.

    /// Floats by bit pattern, so NaNs (payloads included), infinities and
    /// subnormals all occur.
    fn arb_floats(max: usize) -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..max)
    }

    fn arb_update() -> impl Strategy<Value = ClientUpdate> {
        (
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            arb_floats(300),
            any::<bool>(),
            arb_floats(40),
        )
            .prop_map(
                |((client, num_samples, num_batches, loss), delta, has_extra, extra)| {
                    ClientUpdate {
                        client: client as usize,
                        delta,
                        num_samples: num_samples as usize,
                        num_batches: num_batches as usize,
                        avg_loss: f32::from_bits(loss),
                        extra: has_extra.then_some(extra),
                    }
                },
            )
    }

    /// Field-wise equality with floats by bit pattern (`ClientUpdate` has no
    /// `PartialEq`, and NaN would defeat one).
    fn same(a: &ClientUpdate, b: &ClientUpdate) -> bool {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.client == b.client
            && a.num_samples == b.num_samples
            && a.num_batches == b.num_batches
            && a.avg_loss.to_bits() == b.avg_loss.to_bits()
            && bits(&a.delta) == bits(&b.delta)
            && a.extra.as_deref().map(bits) == b.extra.as_deref().map(bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_in_place_frame_is_the_encoded_message(u in arb_update(), seq in any::<u64>()) {
            // What the engine holds, and the calls it makes on it.
            let upload = Undiscounted::new(u.clone());
            let payload = encode_update(&u);
            prop_assert_eq!(payload.len(), upload.wire_len());
            prop_assert_eq!(payload.capacity(), payload.len(), "one allocation");

            let in_place = frame::encode_delta_up(seq, upload.wire_len(), |out| {
                upload.put(out);
            })
            .expect("an upload fits a frame");
            prop_assert_eq!(in_place.capacity(), in_place.len(), "one allocation");
            let msg = Message::DeltaUp { seq, payload };
            prop_assert_eq!(&in_place, &frame::encode(&msg).expect("encodable"));
            // A wrong hint costs a reallocation, never a byte.
            let unhinted = frame::encode_delta_up(seq, 0, |out| upload.put(out));
            prop_assert_eq!(&in_place, &unhinted.expect("an upload fits a frame"));

            // Borrowed and owned decode agree, and so do the uploads parsed
            // from each.
            let (lent_seq, lent) = frame::decode_ref(&in_place).expect("intact");
            let owned = frame::decode(&in_place).expect("intact");
            prop_assert_eq!(&owned, &msg);
            let Message::DeltaUp { seq: kept_seq, payload: kept } = owned;
            prop_assert_eq!((lent_seq, lent), (kept_seq, kept.as_slice()));
            prop_assert_eq!(lent, &in_place[HEADER_LEN..in_place.len() - TRAILER_LEN]);
            let from_lent = decode_update(lent).expect("parses where it lies");
            let from_kept = decode_update(&kept).expect("parses from a copy");
            prop_assert!(same(&from_lent, &from_kept));
            prop_assert!(same(&from_lent, &u));
        }

        #[test]
        fn damage_to_the_borrowed_payload_is_still_refused(
            u in arb_update(),
            cut in any::<u64>(),
            junk in any::<u8>(),
            tag in 2u32..u32::MAX,
        ) {
            let upload = Undiscounted::new(u.clone());
            let frame = frame::encode_delta_up(1, upload.wire_len(), |out| {
                upload.put(out);
            })
            .expect("an upload fits a frame");
            let (_, payload) = frame::decode_ref(&frame).expect("intact");
            // Every strict prefix, one trailing byte, and any `extra` tag
            // other than 0 and 1.
            let keep = usize::try_from(cut % payload.len() as u64).expect("fits");
            prop_assert!(decode_update(&payload[..keep]).is_none(), "prefix of {}", keep);
            let mut extended = payload.to_vec();
            extended.push(junk);
            prop_assert!(decode_update(&extended).is_none(), "trailing byte");
            let extra_len = u.extra.as_ref().map_or(0, |e| 8 + 4 * e.len());
            let tag_at = payload.len() - extra_len - 4;
            let mut bad_tag = payload.to_vec();
            bad_tag[tag_at..tag_at + 4].copy_from_slice(&tag.to_le_bytes());
            prop_assert!(decode_update(&bad_tag).is_none(), "extra tag {}", tag);
            // And the frame codec refuses the same on the frame itself.
            let keep = usize::try_from(cut % frame.len() as u64).expect("fits");
            prop_assert!(frame::decode_ref(&frame[..keep]).is_err());
            let mut extended = frame.clone();
            extended.push(junk);
            prop_assert!(frame::decode_ref(&extended).is_err());
        }
    }
}
