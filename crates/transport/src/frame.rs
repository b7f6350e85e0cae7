//! Length-prefixed frame codec with a CRC32 integrity trailer.
//!
//! Every frame is `header ‖ payload ‖ crc32(header ‖ payload)`:
//!
//! | offset | size | field                                  |
//! |-------:|-----:|----------------------------------------|
//! | 0      | 4    | magic `b"FWTP"`                        |
//! | 4      | 1    | protocol version (currently 1)         |
//! | 5      | 1    | message type                           |
//! | 6      | 2    | Nack reason (0 for every other type)   |
//! | 8      | 8    | sequence number (LE)                   |
//! | 16     | 4    | payload length in bytes (LE)           |
//! | 20     | n    | payload                                |
//! | 20+n   | 4    | CRC32 (IEEE) over header + payload (LE)|
//!
//! The checksum is computed slice-by-8 ([`crc32`]); the one-table
//! bytewise loop lives in `tests/support/reference.rs` as the reference
//! it is tested against.
//!
//! The codec's contract is **byte-exact round-tripping**: for every
//! [`Message`], `decode(encode(m)) == Ok(m)`, and every frame
//! [`decode`] accepts is exactly the canonical [`encode`] output of its
//! message — non-canonical-but-checksummed variants (a nonzero reason
//! on a non-Nack, a payload on a control frame) are rejected. Any
//! single flipped bit anywhere in a frame makes [`decode`] return an
//! error (never a mis-parse): flips in the magic, version, or length
//! prefix fail their structural check, and every other flip fails the
//! checksum.

/// Frame magic: "FedWcm Transport Protocol".
pub const MAGIC: [u8; 4] = *b"FWTP";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 20;

/// CRC trailer size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Maximum payload size a frame may carry. Far above any model delta in
/// the workspace, but small enough that a corrupted length prefix can
/// never drive a pathological allocation.
pub const MAX_PAYLOAD: usize = 1 << 30;

const TYPE_MODEL_DOWN: u8 = 0;
const TYPE_DELTA_UP: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_NACK: u8 = 3;

/// Why a receiver refused a delivery (carried in a [`Message::Nack`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// The frame's CRC32 did not match: damaged in transit.
    Checksum,
    /// The frame parsed structurally wrong (bad type, bad length, …).
    Malformed,
}

impl NackReason {
    fn code(self) -> u16 {
        match self {
            NackReason::Checksum => 1,
            NackReason::Malformed => 2,
        }
    }

    fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(NackReason::Checksum),
            2 => Some(NackReason::Malformed),
            _ => None,
        }
    }
}

/// A typed transport message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Server → client: the global model (and momentum) broadcast.
    ModelDown {
        /// Delivery sequence number.
        seq: u64,
        /// Serialized model payload.
        payload: Vec<u8>,
    },
    /// Client → server: one local-training delta upload.
    DeltaUp {
        /// Delivery sequence number.
        seq: u64,
        /// Serialized upload payload.
        payload: Vec<u8>,
    },
    /// Receiver → sender: the identified frame arrived intact.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Receiver → sender: the identified frame was rejected.
    Nack {
        /// Sequence number being refused.
        seq: u64,
        /// Why the frame was refused.
        reason: NackReason,
    },
}

impl Message {
    /// The delivery sequence number this message refers to.
    pub fn seq(&self) -> u64 {
        match *self {
            Message::ModelDown { seq, .. }
            | Message::DeltaUp { seq, .. }
            | Message::Ack { seq }
            | Message::Nack { seq, .. } => seq,
        }
    }

    fn parts(&self) -> (u8, u16, u64, &[u8]) {
        match self {
            Message::ModelDown { seq, payload } => (TYPE_MODEL_DOWN, 0, *seq, payload.as_slice()),
            Message::DeltaUp { seq, payload } => (TYPE_DELTA_UP, 0, *seq, payload.as_slice()),
            Message::Ack { seq } => (TYPE_ACK, 0, *seq, &[]),
            Message::Nack { seq, reason } => (TYPE_NACK, reason.code(), *seq, &[]),
        }
    }
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than its header + declared payload + trailer.
    Truncated,
    /// The magic bytes are wrong: not a frame at all.
    BadMagic,
    /// A protocol version this codec does not speak.
    UnsupportedVersion,
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// Bytes remain past the declared frame end.
    TrailingBytes,
    /// The CRC32 trailer does not match the frame contents.
    ChecksumMismatch,
    /// An unknown message-type byte.
    UnknownType,
    /// A [`Message::Nack`] carrying an unknown reason code.
    UnknownReason,
    /// A structurally inconsistent frame (payload on a control message,
    /// nonzero reason outside a Nack): checksummed but non-canonical.
    Malformed,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            FrameError::Truncated => "truncated frame",
            FrameError::BadMagic => "bad frame magic",
            FrameError::UnsupportedVersion => "unsupported protocol version",
            FrameError::Oversized => "declared payload exceeds the frame size cap",
            FrameError::TrailingBytes => "trailing bytes past the frame end",
            FrameError::ChecksumMismatch => "frame checksum mismatch",
            FrameError::UnknownType => "unknown message type",
            FrameError::UnknownReason => "unknown nack reason",
            FrameError::Malformed => "structurally inconsistent frame",
        };
        write!(f, "{what}")
    }
}

/// Slice-by-8 tables of the reflected polynomial `0xEDB88320`:
/// `tables[0]` is the classic bytewise table, and `tables[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes.
#[expect(
    clippy::cast_possible_truncation,
    reason = "`i` counts to 256 (`TryFrom` is not const)"
)]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE 802.3 polynomial, reflected) of `data`, slice-by-8: eight
/// bytes a step through eight tables, then a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encode `msg` into its canonical frame bytes. Fails only when the
/// payload exceeds [`MAX_PAYLOAD`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let (msg_type, reason, seq, payload) = msg.parts();
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized);
    }
    let payload_len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized)?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg_type);
    out.extend_from_slice(&reason.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

fn le_u16(frame: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([frame[at], frame[at + 1]])
}

fn le_u32(frame: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
}

fn le_u64(frame: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&frame[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Decode one frame. Accepts exactly the canonical [`encode`] output;
/// every damaged, truncated, extended, or non-canonical buffer is
/// rejected with a specific [`FrameError`].
pub fn decode(frame: &[u8]) -> Result<Message, FrameError> {
    if frame.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::Truncated);
    }
    if frame[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if frame[4] != VERSION {
        return Err(FrameError::UnsupportedVersion);
    }
    let msg_type = frame[5];
    let reason_code = le_u16(frame, 6);
    let seq = le_u64(frame, 8);
    let payload_len = le_u32(frame, 16);
    let payload_len = usize::try_from(payload_len).map_err(|_| FrameError::Oversized)?;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized);
    }
    let total = HEADER_LEN + payload_len + TRAILER_LEN;
    if frame.len() < total {
        return Err(FrameError::Truncated);
    }
    if frame.len() > total {
        return Err(FrameError::TrailingBytes);
    }
    let body_end = HEADER_LEN + payload_len;
    let declared_crc = le_u32(frame, body_end);
    if crc32(&frame[..body_end]) != declared_crc {
        return Err(FrameError::ChecksumMismatch);
    }
    if msg_type != TYPE_NACK && reason_code != 0 {
        return Err(FrameError::Malformed);
    }
    let payload = frame[HEADER_LEN..body_end].to_vec();
    match msg_type {
        TYPE_MODEL_DOWN => Ok(Message::ModelDown { seq, payload }),
        TYPE_DELTA_UP => Ok(Message::DeltaUp { seq, payload }),
        TYPE_ACK => {
            if payload.is_empty() {
                Ok(Message::Ack { seq })
            } else {
                Err(FrameError::Malformed)
            }
        }
        TYPE_NACK => {
            if !payload.is_empty() {
                return Err(FrameError::Malformed);
            }
            let reason = NackReason::from_code(reason_code).ok_or(FrameError::UnknownReason)?;
            Ok(Message::Nack { seq, reason })
        }
        _ => Err(FrameError::UnknownType),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::ModelDown {
                seq: 0,
                payload: vec![1, 2, 3, 4, 5],
            },
            Message::DeltaUp {
                seq: u64::MAX,
                payload: (0..=255).collect(),
            },
            Message::DeltaUp {
                seq: 7,
                payload: Vec::new(),
            },
            Message::Ack { seq: 42 },
            Message::Nack {
                seq: 9,
                reason: NackReason::Checksum,
            },
            Message::Nack {
                seq: 10,
                reason: NackReason::Malformed,
            },
        ]
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn round_trip_is_identity() {
        for msg in sample_messages() {
            let frame = encode(&msg).expect("encodable");
            let back = decode(&frame).expect("decodable");
            assert_eq!(back, msg);
            // Re-encoding the decoded message reproduces the bytes.
            assert_eq!(encode(&back).expect("encodable"), frame);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let msg = Message::DeltaUp {
            seq: 0x0123_4567_89AB_CDEF,
            payload: vec![0xAA; 33],
        };
        let frame = encode(&msg).expect("encodable");
        for byte_index in 0..frame.len() {
            for bit in 0..8u8 {
                let mut damaged = frame.clone();
                damaged[byte_index] ^= 1 << bit;
                let got = decode(&damaged);
                assert!(
                    got.is_err(),
                    "flip at byte {byte_index} bit {bit} parsed as {got:?}"
                );
            }
        }
    }

    #[test]
    fn flips_outside_structural_fields_fail_the_checksum() {
        let frame = encode(&Message::Ack { seq: 3 }).expect("encodable");
        // Bytes 8..16 are the sequence number: covered only by the CRC.
        for byte_index in 8..16 {
            let mut damaged = frame.clone();
            damaged[byte_index] ^= 0x80;
            assert_eq!(decode(&damaged), Err(FrameError::ChecksumMismatch));
        }
    }

    #[test]
    fn truncation_and_extension_rejected() {
        let frame = encode(&Message::DeltaUp {
            seq: 1,
            payload: vec![9; 16],
        })
        .expect("encodable");
        for keep in 0..frame.len() {
            assert!(decode(&frame[..keep]).is_err(), "prefix of {keep} accepted");
        }
        let mut extended = frame.clone();
        extended.push(0);
        assert_eq!(decode(&extended), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut frame = encode(&Message::DeltaUp {
            seq: 1,
            payload: vec![0; 4],
        })
        .expect("encodable");
        // Declare a payload far past the cap; the length field is at 16.
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::Oversized));
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        // Construct without materialising MAX_PAYLOAD+1 real bytes is not
        // possible through the typed API, so this allocates briefly.
        let msg = Message::DeltaUp {
            seq: 0,
            payload: vec![0u8; MAX_PAYLOAD + 1],
        };
        assert_eq!(encode(&msg), Err(FrameError::Oversized));
    }

    #[test]
    fn non_canonical_frames_rejected() {
        // Nonzero reason on a DeltaUp, with a recomputed (valid) CRC.
        let mut frame = encode(&Message::DeltaUp {
            seq: 5,
            payload: vec![1, 2],
        })
        .expect("encodable");
        frame[6] = 1;
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::Malformed));

        // Unknown type byte, CRC fixed up.
        let mut frame = encode(&Message::Ack { seq: 5 }).expect("encodable");
        frame[5] = 200;
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::UnknownType));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let frame = encode(&Message::Ack { seq: 1 }).expect("encodable");
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(FrameError::BadMagic));
        let mut bad_version = frame;
        bad_version[4] = VERSION + 1;
        assert_eq!(decode(&bad_version), Err(FrameError::UnsupportedVersion));
    }
}
