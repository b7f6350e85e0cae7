//! Property tests for the frame codec: round-trip identity, single-bit
//! rejection, and truncation/length-prefix fuzzing.

use fedwcm_stats::rng::{Rng, Xoshiro256pp};
use fedwcm_transport::frame::{self, FrameError, Message, HEADER_LEN, TRAILER_LEN};
use proptest::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::crc32_bytewise;

fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn arb_message() -> impl Strategy<Value = Message> {
    let payload = prop::collection::vec(any::<u8>(), 0..512);
    (any::<u64>(), payload).prop_map(|(seq, payload)| Message::DeltaUp { seq, payload })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary messages encode→decode byte-identically.
    #[test]
    fn round_trip_is_byte_exact(msg in arb_message()) {
        let bytes = frame::encode(&msg).expect("encodable");
        let back = frame::decode(&bytes).expect("decodable");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(frame::encode(&back).expect("encodable"), bytes);
    }

    /// Any single flipped bit anywhere in the frame is rejected —
    /// never mis-parsed into a different message.
    #[test]
    fn single_bit_flip_is_always_rejected(
        msg in arb_message(),
        bit_pick in any::<u64>(),
    ) {
        let bytes = frame::encode(&msg).expect("encodable");
        let bit = usize::try_from(bit_pick % (bytes.len() as u64 * 8)).unwrap();
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1u8 << (bit % 8);
        prop_assert!(damaged != bytes);
        let got = frame::decode(&damaged);
        prop_assert!(got.is_err(), "flip at bit {} parsed as {:?}", bit, got);
    }

    /// Every strict prefix of a valid frame is rejected.
    #[test]
    fn truncation_is_always_rejected(msg in arb_message(), cut in any::<u64>()) {
        let bytes = frame::encode(&msg).expect("encodable");
        let keep = usize::try_from(cut % bytes.len() as u64).unwrap();
        prop_assert!(frame::decode(&bytes[..keep]).is_err());
    }

    /// A fuzzed length prefix never panics and never yields a wrong
    /// parse: either the mutation reproduces the original declared
    /// length (CRC still guards the rest) or decoding errors out.
    #[test]
    fn fuzzed_length_prefix_is_safe(msg in arb_message(), fake_len in any::<u32>()) {
        let bytes = frame::encode(&msg).expect("encodable");
        let mut damaged = bytes.clone();
        damaged[16..HEADER_LEN].copy_from_slice(&fake_len.to_le_bytes());
        if let Ok(got) = frame::decode(&damaged) {
            prop_assert_eq!(got, msg, "only the original length may parse");
        }
    }

    /// Arbitrary raw bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = frame::decode(&raw);
    }
}

#[test]
fn frame_overhead_is_header_plus_trailer() {
    let bytes = frame::encode(&Message::DeltaUp {
        seq: 1,
        payload: vec![0; 100],
    })
    .expect("encodable");
    assert_eq!(bytes.len(), HEADER_LEN + 100 + TRAILER_LEN);
    assert!(matches!(frame::decode(&[]), Err(FrameError::Truncated)));
}

/// `crc32` as the host runs it against the bytewise reference: every
/// length 0..=64 (all block counts and tail lengths around the 8-byte
/// step) at every start offset 0..8 (every alignment of the first
/// block). `frame.rs`'s own tests go through each instance by name.
#[test]
fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
    let buf = seeded_bytes(64 + 8, 0xC4C32);
    for offset in 0..8 {
        for len in 0..=64 {
            let data = &buf[offset..offset + len];
            assert_eq!(
                frame::crc32(data),
                crc32_bytewise(data),
                "offset {offset}, length {len}"
            );
        }
    }
    assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(frame::crc32(&[]), 0);
}

/// One upload-sized frame (the `mlp_xdev` delta: 19,210 floats, 77 KB):
/// the trailer `encode` wrote is the reference CRC of the body.
#[test]
fn crc32_matches_bytewise_reference_on_an_upload_frame() {
    let bytes = frame::encode(&Message::DeltaUp {
        seq: 42,
        payload: seeded_bytes(19_210 * 4 + 28, 7),
    })
    .expect("encodable");
    let body_end = bytes.len() - TRAILER_LEN;
    let trailer: [u8; 4] = bytes[body_end..].try_into().expect("four trailer bytes");
    assert_eq!(
        u32::from_le_bytes(trailer),
        crc32_bytewise(&bytes[..body_end])
    );
    assert_eq!(frame::crc32(&bytes), crc32_bytewise(&bytes));
}
